// NCCL-like GPU collective layer.
//
// Both stacks delegate bulk gradient allreduce to this library (as the
// paper's modified Horovod does): ring collectives that exploit the
// higher intra-node bandwidth (the fabric prices same-node hops at
// NVLink-class parameters, so a pid-ordered ring gets 5 of 6 hops on
// NVLink for 6-GPU nodes, like real NCCL rings).
//
// Failure semantics mirror NCCL with async error handling enabled: a
// peer death surfaces as an error status after the detection latency and
// permanently breaks the communicator; rebuilding requires a fresh
// InitRank, whose cost (bootstrap + topology discovery + ring build)
// grows with the rank count.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coll/algorithms.h"
#include "coll/request.h"
#include "coll/transport.h"
#include "coll/tuning.h"
#include "mpi/group.h"
#include "sim/endpoint.h"

namespace rcc::nccl {

class Comm : public coll::Transport {
 public:
  // Collective over `pids` (identical list everywhere). `unique_id` must
  // be fresh per init round (ncclGetUniqueId analogue). Charges the
  // communicator bootstrap cost and synchronises the participants.
  // `init_cost_scale` scales the bootstrap charge only (the asynchronous
  // admission path pre-establishes the merged transports during joiner
  // staging and splices at scale 0; the synchronizing barrier still
  // runs, so mid-bootstrap deaths surface either way).
  // `death_watch` (optional) widens the member-death watch beyond the
  // communicator's own pids — see set_death_watch below; it applies to
  // the bootstrap barrier too, so a mid-init death anywhere in the
  // watched set surfaces as an init failure.
  static std::unique_ptr<Comm> InitRank(sim::Endpoint& ep,
                                        const std::vector<int>& pids,
                                        const std::string& unique_id,
                                        double cost_scale = 1.0,
                                        double init_cost_scale = 1.0,
                                        const std::vector<int>* death_watch =
                                            nullptr);

  // --- coll::Transport ---
  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(group_->pids.size()); }
  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override;
  // Receives on the current phase, watching the membership.
  Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) override;
  Status SizeMismatch() const override {
    return Status(Code::kInternal, "nccl step size mismatch");
  }

  // --- nonblocking collectives ---
  // Submits the op to a background worker (GPU-stream analogue: ops on
  // one communicator execute in submission order). Buffers must stay
  // alive and untouched until the request completes. Algorithm choice
  // follows the *modeled* wire size (physical buffers may be reduced
  // stand-ins for declared-size gradient buckets).
  template <typename T>
  coll::Request IAllreduce(const T* sendbuf, T* recvbuf, size_t count) {
    const double modeled_bytes =
        static_cast<double>(count * sizeof(T)) * cost_scale_;
    const coll::AllreduceAlgo chosen = coll::ChooseAllreduce(
        tuning_, coll::AllreduceAlgo::kAuto, modeled_bytes, size());
    coll::Request::Info info{0, coll::AllreduceAlgoName(chosen),
                             modeled_bytes};
    if (broken_) {
      return coll::Request::Failed(
          info, ep_->now(), Status(Code::kIoError, "nccl communicator aborted"));
    }
    ++op_seq_;
    info.op_id = op_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (op_seq_ % 65534));
    auto group = group_;
    auto watch = watch_ext_;
    auto* ep = ep_;
    const int rank = rank_;
    const double cs = cost_scale_;
    return StartOp(info, [group, watch, ep, rank, cs, channel, chosen, sendbuf,
                          recvbuf, count](sim::Seconds* now) -> Status {
      // Async error handling: any member death is communicator-fatal.
      coll::FabricChannel ch(*ep, group->pids, rank, channel, cs, now,
                             /*cancel=*/nullptr,
                             watch ? watch.get() : &group->pids);
      return coll::RunAllreduce<T>(chosen, ch, sendbuf, recvbuf, count);
    });
  }

  template <typename T>
  coll::Request IBroadcast(T* buf, size_t count, int root) {
    coll::Request::Info info{
        0, "binomial_bcast", static_cast<double>(count * sizeof(T)) * cost_scale_};
    if (broken_) {
      return coll::Request::Failed(
          info, ep_->now(), Status(Code::kIoError, "nccl communicator aborted"));
    }
    ++op_seq_;
    info.op_id = op_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (op_seq_ % 65534));
    auto group = group_;
    auto watch = watch_ext_;
    auto* ep = ep_;
    const int rank = rank_;
    const double cs = cost_scale_;
    return StartOp(info, [group, watch, ep, rank, cs, channel, buf, count,
                          root](sim::Seconds* now) -> Status {
      coll::FabricChannel ch(*ep, group->pids, rank, channel, cs, now,
                             /*cancel=*/nullptr,
                             watch ? watch.get() : &group->pids);
      return coll::BinomialBcast<T>(ch, buf, count, root);
    });
  }

  // Blocks until the request completes, merges its completion time into
  // this rank's clock; a failed op permanently breaks the communicator
  // (async error handling).
  Status Wait(coll::Request* req);
  bool Test(const coll::Request* req) const;
  Status WaitAll(std::vector<coll::Request>* reqs);

  // --- blocking collectives (Start + Wait) ---
  template <typename T>
  Status Allreduce(const T* sendbuf, T* recvbuf, size_t count) {
    coll::Request req = IAllreduce(sendbuf, recvbuf, count);
    return Wait(&req);
  }
  template <typename T>
  Status Broadcast(T* buf, size_t count, int root) {
    coll::Request req = IBroadcast(buf, count, root);
    return Wait(&req);
  }
  template <typename T>
  Status Allgather(const T* sendbuf, T* recvbuf, size_t count) {
    RCC_RETURN_IF_ERROR(BeginOp());
    return FinishOp(coll::RingAllgather<T>(*this, sendbuf, recvbuf, count));
  }
  // Dissemination barrier (used by the resilient layer as the
  // synchronizing phase of each resilient collective).
  Status Barrier() {
    RCC_RETURN_IF_ERROR(BeginOp());
    return FinishOp(coll::DisseminationBarrier(*this));
  }

  // Two-level (rail-optimized) hierarchical allreduce, the shape real
  // NCCL uses on multi-GPU nodes: ring reduce-scatter within each node
  // over the NVLink-class links, then every local rank ring-allreduces
  // *its chunk* with the same-index ranks of the other nodes (its
  // "rail") over the host network - all rails in parallel - and finally
  // a ring allgather within the node reassembles the tensor. Inter-node
  // bytes per rank drop by the node size versus a flat ring.
  template <typename T>
  Status HierarchicalAllreduce(const T* sendbuf, T* recvbuf, size_t count) {
    RCC_RETURN_IF_ERROR(BeginOp());
    return FinishOp(RunHierarchical<T>(sendbuf, recvbuf, count));
  }

  // ncclCommAbort analogue: tears the communicator down locally.
  void Abort() { broken_ = true; }
  bool broken() const { return broken_; }
  const std::vector<int>& pids() const { return group_->pids; }
  void set_cost_scale(double s) { cost_scale_ = s; }

  // Death-watch override (per instance): by default every collective
  // watches the communicator's OWN members and unblocks when one dies.
  // A grid sub-communicator (DP/TP group of a hybrid-parallel job) must
  // watch the whole world instead: a failure in another group makes a
  // peer abandon the step before entering this group's collective, and
  // without the wider watch the remaining members would block forever
  // on a collective that will never start. Pass the CURRENT world pid
  // list (stale lists containing already-dead pids fail collectives
  // immediately).
  void set_death_watch(std::vector<int> pids) {
    watch_ext_ = std::make_shared<const std::vector<int>>(std::move(pids));
  }

  // Drains and returns the accumulated per-op service seconds (engine
  // execution time of request-based ops observed at Wait, plus wall time
  // of inline ops) since the last call. Drivers read this per training
  // step to compute the comm-hidden fraction from *this communicator's*
  // traffic only, unpolluted by other communicators sharing the global
  // registry.
  double TakeServiceSeconds() {
    const double s = service_acc_;
    service_acc_ = 0.0;
    return s;
  }

  // Cost model for one InitRank over `nranks`, exposed for benches.
  static sim::Seconds InitCost(const sim::SimConfig& cfg, int nranks);

 private:
  Comm(sim::Endpoint* ep, std::shared_ptr<mpi::CommGroup> group,
       double cost_scale);
  Status BeginOp();
  Status FinishOp(Status s);
  template <typename Body>
  coll::Request StartOp(coll::Request::Info info, Body body) {
    coll::Request req =
        coll::Request::Start(info, ep_->now(), std::move(body), *ep_,
                             request_metrics_, &engine_tail_);
    engine_tail_ = req;
    return req;
  }
  // Stream-ordering for the inline collectives: drains any in-flight
  // request-based op before an inline op starts (real NCCL serializes
  // everything on the stream).
  void SyncStream();

  // Node-grouped rank lists: by_node[k] = ranks of the k-th distinct
  // node in rank order (each sorted ascending); local_group = ranks on
  // this rank's own node.
  void NodeGroups(std::vector<std::vector<int>>* by_node,
                  std::vector<int>* local_group) const;

  template <typename T>
  Status RunHierarchical(const T* sendbuf, T* recvbuf, size_t count) {
    std::vector<std::vector<int>> by_node;
    std::vector<int> local_group;
    NodeGroups(&by_node, &local_group);
    const size_t local_size = local_group.size();
    // Fall back to the flat ring for degenerate or irregular topologies
    // (rails need every node to host the same number of ranks).
    bool regular = by_node.size() > 1 && local_size > 1 &&
                   count >= local_size;
    for (const auto& node : by_node) {
      if (node.size() != local_size) regular = false;
    }
    if (!regular) {
      return coll::RingAllreduce<T>(*this, sendbuf, recvbuf, count);
    }
    coll::SubgroupTransport local(*this, local_group, /*tag_offset=*/5000);
    // 1. Intra-node ring reduce-scatter (NVLink-priced hops): I end up
    // owning chunk `owned` of the node-local sum.
    int owned = 0;
    RCC_RETURN_IF_ERROR(coll::RingReduceScatter<T>(local, sendbuf, recvbuf,
                                                   count, &owned));
    // 2. My rail: the rank with the same local index on every node.
    std::vector<int> rail;
    const int my_index = local.rank();
    for (const auto& node : by_node) rail.push_back(node[my_index]);
    coll::SubgroupTransport rail_t(*this, rail, /*tag_offset=*/7000);
    const size_t off = coll::detail::ChunkOffset(
        count, static_cast<int>(local_size), owned);
    const size_t n = coll::detail::ChunkSize(
        count, static_cast<int>(local_size), owned);
    std::vector<T> chunk(n);
    RCC_RETURN_IF_ERROR(
        coll::RingAllreduce<T>(rail_t, recvbuf + off, chunk.data(), n));
    std::memcpy(recvbuf + off, chunk.data(), n * sizeof(T));
    // 3. Intra-node ring allgather reassembles the globally-reduced
    // tensor on every rank.
    return coll::RingAllgatherChunks<T>(local, recvbuf, count);
  }

  sim::Endpoint* ep_;
  std::shared_ptr<mpi::CommGroup> group_;
  std::shared_ptr<const std::vector<int>> watch_ext_;  // see set_death_watch
  int rank_;
  double cost_scale_;
  coll::AllreduceTuning tuning_ = coll::NcclAllreduceTuning();
  bool broken_ = false;
  uint64_t op_seq_ = 0;
  uint64_t current_phase_ = 0;
  coll::Request engine_tail_;  // last submitted op (stream-order chain)
  coll::RequestMetrics request_metrics_{ep_->metrics()};
  obs::ByAlgo<coll::StackMetrics> stack_metrics_;
  // Service-seconds accumulator (rank-thread only; see TakeServiceSeconds).
  double service_acc_ = 0.0;
  sim::Seconds inline_op_start_ = 0.0;  // BeginOp timestamp for inline ops
};

}  // namespace rcc::nccl
