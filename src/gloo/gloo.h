// Gloo-like CPU collective library: the baseline transport Elastic
// Horovod uses for host-side collectives and coordination.
//
// Deliberate differences from the MPI/ULFM stack, mirroring real Gloo:
//  * A context is built from a KV-store rendezvous plus eager full-mesh
//    connection setup (O(P) key reads + P-1 TCP-class connects per rank).
//  * There is NO fault tolerance: any member death observed during an
//    operation throws IoException and permanently breaks the context
//    (the paper's Fig. 3). Recovery requires a full new rendezvous.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/algorithms.h"
#include "coll/request.h"
#include "coll/transport.h"
#include "coll/tuning.h"
#include "kvstore/kvstore.h"
#include "mpi/group.h"
#include "sim/endpoint.h"

namespace rcc::gloo {

class IoException : public std::runtime_error {
 public:
  explicit IoException(const Status& status)
      : std::runtime_error(status.ToString()), status_(status) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

class Context : public coll::Transport {
 public:
  // Collective over all participants of one rendezvous round: allocates a
  // rank slot, publishes this process's address, waits for the full
  // membership, then connects to every peer. `round_key` must be unique
  // per rendezvous and identical on all participants; `world_size` is
  // dictated by the driver.
  //
  // Throws IoException if a participant dies during the rendezvous.
  static std::unique_ptr<Context> Connect(sim::Endpoint& ep, kv::Store& store,
                                          const std::string& round_key,
                                          int world_size,
                                          double cost_scale = 1.0);

  // --- coll::Transport ---
  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(group_->pids.size()); }
  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override;
  // Receives on the current phase, watching the membership.
  Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) override;
  Status SizeMismatch() const override {
    return Status(Code::kInternal, "gloo step size mismatch");
  }

  // --- collectives (throwing API, like real Gloo) ---
  template <typename T>
  void Allreduce(const T* sendbuf, T* recvbuf, size_t count) {
    const double bytes = static_cast<double>(count * sizeof(T)) * cost_scale_;
    // Shared selection table (ring-only by default, like real Gloo's
    // ring allreduce; overridable via RCC_ALLREDUCE_* knobs).
    const coll::AllreduceAlgo algo = coll::ChooseAllreduce(
        tuning_, coll::AllreduceAlgo::kAuto, bytes, size());
    BeginOp(coll::AllreduceAlgoName(algo), bytes);
    Raise(coll::RunAllreduce<T>(algo, *this, sendbuf, recvbuf, count));
  }
  template <typename T>
  void Allgather(const T* sendbuf, T* recvbuf, size_t count) {
    BeginOp("ring_allgather",
            static_cast<double>(count * sizeof(T)) * cost_scale_ * size());
    Raise(coll::RingAllgather<T>(*this, sendbuf, recvbuf, count));
  }
  template <typename T>
  void Broadcast(T* buf, size_t count, int root) {
    BeginOp("binomial_bcast",
            static_cast<double>(count * sizeof(T)) * cost_scale_);
    Raise(coll::BinomialBcast<T>(*this, buf, count, root));
  }
  void Barrier() {
    BeginOp("dissemination_barrier", 0.0);
    Raise(coll::DisseminationBarrier(*this));
  }
  void AllgatherBlobs(const std::vector<uint8_t>& mine,
                      std::vector<std::vector<uint8_t>>* all) {
    BeginOp("allgather_blobs",
            static_cast<double>(mine.size()) * cost_scale_ * size());
    Raise(coll::AllgatherBlobs(*this, mine, all));
  }

  bool broken() const { return broken_; }
  const std::vector<int>& pids() const { return group_->pids; }
  sim::Endpoint& endpoint() const { return *ep_; }
  void set_cost_scale(double s) { cost_scale_ = s; }

 private:
  Context(sim::Endpoint* ep, std::shared_ptr<mpi::CommGroup> group,
          double cost_scale);

  void BeginOp(const char* algo = "", double bytes = 0.0);
  void Raise(const Status& s);  // marks broken + throws on failure

  sim::Endpoint* ep_;
  std::shared_ptr<mpi::CommGroup> group_;
  int rank_;
  double cost_scale_;
  coll::AllreduceTuning tuning_ = coll::GlooAllreduceTuning();
  bool broken_ = false;
  uint64_t op_seq_ = 0;
  uint64_t current_phase_ = 0;
  // Identity of the op in flight, observed into metrics by Raise.
  const char* op_algo_ = "";
  double op_bytes_ = 0.0;
  sim::Seconds op_start_ = 0.0;
  obs::ByAlgo<coll::StackMetrics> stack_metrics_;
};

}  // namespace rcc::gloo
