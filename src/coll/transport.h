// Transport abstraction the collective algorithms run over.
//
// rcc::mpi::Comm, rcc::gloo::Context and rcc::nccl::Comm all implement
// this interface, so every algorithm (ring/recursive-doubling allreduce,
// Bruck allgather, binomial trees, dissemination barrier...) is written
// once and reused by all three stacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/fabric.h"

namespace rcc::coll {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  // Fixed-size exchange. Receive verifies the payload length matches.
  virtual Status SendTo(int dst_rank, int tag, const void* data,
                        size_t bytes) = 0;
  Status RecvFrom(int src_rank, int tag, void* data, size_t bytes) {
    sim::RecvBuffer into{data, bytes};
    RCC_RETURN_IF_ERROR(RecvInto(src_rank, tag, &into));
    return into.mismatched() ? SizeMismatch() : Status::Ok();
  }

  // Variable-size receive (serialised blobs: agreement payloads, state
  // sync, rendezvous data).
  Status RecvBlob(int src_rank, int tag, std::vector<uint8_t>* out) {
    sim::RecvBuffer into{.blob = out};
    return RecvInto(src_rank, tag, &into);
  }

  // The one receive each transport implements, and the error RecvFrom
  // returns for a payload of the wrong length.
  virtual Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) = 0;
  virtual Status SizeMismatch() const = 0;
};

// A rank-remapped view of a transport: collectives run over the subset
// `members` (base-transport ranks) as if it were the whole world. Used
// by the hierarchical allreduce (intra-node group, inter-node leader
// group). `tag_offset` keeps subgroup traffic disjoint from any outer
// algorithm steps sharing the channel.
class SubgroupTransport : public Transport {
 public:
  SubgroupTransport(Transport& base, std::vector<int> members,
                    int tag_offset)
      : base_(base), members_(std::move(members)), tag_offset_(tag_offset) {
    for (size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == base_.rank()) rank_ = static_cast<int>(i);
    }
  }

  bool contains_self() const { return rank_ >= 0; }
  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(members_.size()); }

  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override {
    return base_.SendTo(members_[dst_rank], tag + tag_offset_, data, bytes);
  }
  Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) override {
    return base_.RecvInto(members_[src_rank], tag + tag_offset_, into);
  }
  Status SizeMismatch() const override { return base_.SizeMismatch(); }

 private:
  Transport& base_;
  std::vector<int> members_;
  int tag_offset_;
  int rank_ = -1;
};

// Reduction operators. Kept as small structs so algorithm templates can
// inline the inner loop.
struct SumOp {
  template <typename T>
  static T Apply(T a, T b) { return a + b; }
};
struct ProdOp {
  template <typename T>
  static T Apply(T a, T b) { return a * b; }
};
struct MaxOp {
  template <typename T>
  static T Apply(T a, T b) { return a > b ? a : b; }
};
struct MinOp {
  template <typename T>
  static T Apply(T a, T b) { return a < b ? a : b; }
};
// Bitwise AND over integer types (the ULFM agreement reduces its flag
// with this).
struct BandOp {
  template <typename T>
  static T Apply(T a, T b) { return a & b; }
};
struct BorOp {
  template <typename T>
  static T Apply(T a, T b) { return a | b; }
};

}  // namespace rcc::coll
