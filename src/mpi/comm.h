// MPI-like communicator bound to one simulated rank.
//
// Semantics follow ULFM-era MPI: operations report failures
// *per-operation* through Status codes (kProcFailed with the observed
// failed pids, kRevoked once the communicator has been revoked) and the
// communicator stays usable for the survivor-side recovery operations in
// rcc::ulfm (failure_ack / agree / shrink).
//
// Allreduce and broadcast are request-based: IAllreduce/IBcast submit the
// op to a background worker (its own virtual clock over the fabric) and
// return a coll::Request; Wait merges the op's completion time into the
// rank's clock. The blocking Allreduce is a thin Start + Wait wrapper, so
// its virtual-time behaviour is identical to the old inline kernel.
// Ops on one communicator execute in submission order (engine chaining).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "coll/algorithms.h"
#include "coll/request.h"
#include "coll/transport.h"
#include "coll/tuning.h"
#include "common/status.h"
#include "mpi/group.h"
#include "sim/endpoint.h"

namespace rcc::mpi {

// Algorithm selection is shared across stacks; see coll/tuning.h.
using AllreduceAlgo = coll::AllreduceAlgo;
enum class AllgatherAlgo { kAuto, kRing, kBruck };

class Comm : public coll::Transport {
 public:
  Comm(sim::Endpoint* ep, std::shared_ptr<CommGroup> group);

  // Builds the initial world communicator over `pids` (every rank calls
  // this with the same pid list; instances share one group).
  static Comm World(sim::Endpoint& ep, const std::vector<int>& pids);

  // --- introspection ---
  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(group_->pids.size()); }
  uint64_t context_id() const { return group_->ctx_id; }
  const std::vector<int>& pids() const { return group_->pids; }
  int PidOfRank(int rank) const { return group_->pids[rank]; }
  sim::Endpoint& endpoint() const { return *ep_; }
  const std::shared_ptr<CommGroup>& group() const { return group_; }
  bool revoked() const { return group_->revoke.cancelled(); }

  // Failed pids this rank has locally observed on this communicator.
  const std::set<int>& locally_observed_failures() const { return observed_failed_; }
  void NoteFailedPids(const std::vector<int>& pids);

  // Cost scale: multiplies the modeled wire size of every message. Used
  // by benches to run full-size *virtual* tensors over reduced physical
  // buffers (see DESIGN.md "declared-size buckets").
  void set_cost_scale(double s) { cost_scale_ = s; }
  double cost_scale() const { return cost_scale_; }

  // Algorithm-selection table (bytes x ranks); overridable per comm and
  // via the RCC_ALLREDUCE_* environment knobs.
  void set_allreduce_tuning(coll::AllreduceTuning t) { tuning_ = std::move(t); }
  const coll::AllreduceTuning& allreduce_tuning() const { return tuning_; }

  // --- point-to-point (rank addressed, user tag space) ---
  Status Send(int dst_rank, int tag, const void* data, size_t bytes);
  // With `watch_members`, the receive also watches every member of the
  // communicator: it returns kProcFailed as soon as ANY member dies,
  // instead of blocking forever on a sender that can no longer send
  // (pipeline p2p needs this — the peer that owes the activation may be
  // three stages away from the rank that died).
  Status Recv(int src_rank, int tag, void* data, size_t bytes,
              bool watch_members = false);
  Status RecvBlobFrom(int src_rank, int tag, std::vector<uint8_t>* out);

  // --- nonblocking collectives ---
  // The caller must keep sendbuf/recvbuf alive and untouched until the
  // request completes. Requests complete in submission order.
  template <typename T>
  coll::Request IAllreduce(const T* sendbuf, T* recvbuf, size_t count,
                           AllreduceAlgo algo = AllreduceAlgo::kAuto) {
    const double modeled_bytes =
        static_cast<double>(count * sizeof(T)) * cost_scale_;
    const AllreduceAlgo chosen =
        coll::ChooseAllreduce(tuning_, algo, modeled_bytes, size());
    coll::Request::Info info{0, coll::AllreduceAlgoName(chosen),
                             modeled_bytes};
    if (revoked()) {
      return coll::Request::Failed(info, ep_->now(),
                                   Status(Code::kRevoked, "communicator revoked"));
    }
    ++coll_seq_;
    info.op_id = coll_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (coll_seq_ % 65534));
    auto group = group_;
    auto* ep = ep_;
    const int rank = rank_;
    const double cs = cost_scale_;
    return StartOp(info, [group, ep, rank, cs, channel, chosen, sendbuf,
                          recvbuf, count](sim::Seconds* now) -> Status {
      coll::FabricChannel ch(*ep, group->pids, rank, channel, cs, now,
                             &group->revoke, /*death_watch=*/nullptr);
      return coll::RunAllreduce<T>(chosen, ch, sendbuf, recvbuf, count);
    });
  }

  template <typename T>
  coll::Request IBcast(T* buf, size_t count, int root) {
    coll::Request::Info info{
        0, "binomial_bcast", static_cast<double>(count * sizeof(T)) * cost_scale_};
    if (revoked()) {
      return coll::Request::Failed(info, ep_->now(),
                                   Status(Code::kRevoked, "communicator revoked"));
    }
    ++coll_seq_;
    info.op_id = coll_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (coll_seq_ % 65534));
    auto group = group_;
    auto* ep = ep_;
    const int rank = rank_;
    const double cs = cost_scale_;
    return StartOp(info, [group, ep, rank, cs, channel, buf, count,
                          root](sim::Seconds* now) -> Status {
      coll::FabricChannel ch(*ep, group->pids, rank, channel, cs, now,
                             &group->revoke, /*death_watch=*/nullptr);
      return coll::BinomialBcast<T>(ch, buf, count, root);
    });
  }

  // Blocks until the request completes; merges its completion time into
  // this rank's clock and records any observed failures.
  Status Wait(coll::Request* req);
  // Nonblocking completion probe (completion effects still via Wait).
  bool Test(const coll::Request* req) const;
  // Waits for every request; returns the first error encountered.
  Status WaitAll(std::vector<coll::Request>* reqs);

  // --- blocking collectives ---
  template <typename T>
  Status Allreduce(const T* sendbuf, T* recvbuf, size_t count,
                   AllreduceAlgo algo = AllreduceAlgo::kAuto) {
    coll::Request req = IAllreduce(sendbuf, recvbuf, count, algo);
    return Wait(&req);
  }

  template <typename T>
  Status Allgather(const T* sendbuf, T* recvbuf, size_t count,
                   AllgatherAlgo algo = AllgatherAlgo::kAuto) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    Status s;
    if (algo == AllgatherAlgo::kBruck ||
        (algo == AllgatherAlgo::kAuto && count * sizeof(T) <= 4096)) {
      s = coll::BruckAllgather<T>(*this, sendbuf, recvbuf, count);
    } else {
      s = coll::RingAllgather<T>(*this, sendbuf, recvbuf, count);
    }
    return FinishCollective(s);
  }

  template <typename T>
  Status Reduce(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(
        coll::BinomialReduce<T>(*this, sendbuf, recvbuf, count, root));
  }

  template <typename T>
  Status Gather(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(
        coll::LinearGather<T>(*this, sendbuf, recvbuf, count, root));
  }

  template <typename T>
  Status Scatter(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(
        coll::LinearScatter<T>(*this, sendbuf, recvbuf, count, root));
  }

  Status Barrier() {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(coll::DisseminationBarrier(*this));
  }

  Status AllgatherBlobs(const std::vector<uint8_t>& mine,
                        std::vector<std::vector<uint8_t>>* all) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(coll::AllgatherBlobs(*this, mine, all));
  }

  // Broadcast a variable-size blob from root (binomial tree). Non-root
  // callers receive into *blob.
  Status BcastBlob(std::vector<uint8_t>* blob, int root);

  // --- coll::Transport (used by the algorithm kernels) ---
  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override;
  Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) override;
  Status SizeMismatch() const override {
    return Status(Code::kInternal, "collective step size mismatch");
  }

  // Used by ulfm::Agree to keep agreement instances aligned across ranks.
  uint64_t NextAgreeSeq() { return agree_seq_++; }

 private:
  Status BeginCollective();
  Status FinishCollective(Status s);

  // Launches the op worker chained after the previous op on this
  // communicator instance.
  template <typename Body>
  coll::Request StartOp(coll::Request::Info info, Body body) {
    coll::Request req =
        coll::Request::Start(info, ep_->now(), std::move(body), *ep_,
                             request_metrics_, &engine_tail_);
    engine_tail_ = req;
    return req;
  }

  Status RawSend(int dst_rank, uint64_t channel, int tag, const void* data,
                 size_t bytes);
  Status RawRecv(int src_rank, uint64_t channel, int tag,
                 sim::RecvBuffer* into, bool watch_members = false);

  sim::Endpoint* ep_;
  std::shared_ptr<CommGroup> group_;
  int rank_;
  double cost_scale_ = 1.0;
  coll::AllreduceTuning tuning_ = coll::MpiAllreduceTuning();
  uint64_t coll_seq_ = 0;     // per-rank collective sequence (SPMD-aligned)
  uint64_t current_phase_ = 0;  // channel phase of the running collective
  uint64_t agree_seq_ = 0;
  coll::Request engine_tail_;  // last submitted op (ordering chain)
  std::set<int> observed_failed_;
  coll::RequestMetrics request_metrics_{ep_->metrics()};
  obs::ByAlgo<coll::StackMetrics> stack_metrics_;
};

}  // namespace rcc::mpi
