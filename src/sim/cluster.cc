#include "sim/cluster.h"

#include "common/log.h"
#include "sim/failure.h"

namespace rcc::sim {

int Cluster::AllocateSlotNode() {
  const int node = next_slot_ / config().gpus_per_node;
  ++next_slot_;
  return node;
}

void Cluster::AddPendingFailure(const FailureEvent& ev) {
  pending_kills_.push_back(ev);
}

void Cluster::ArmFromPending(int pid, int node, Endpoint& ep) {
  for (const FailureEvent& ev : pending_kills_) {
    const bool hit =
        ev.scope == FailScope::kNode ? ev.target == node : ev.target == pid;
    if (hit) ep.ArmKillAt(ev.at);
  }
}

std::vector<int> Cluster::Spawn(int n, const RankFn& fn, Seconds start_time) {
  std::vector<int> pids;
  pids.reserve(n);
  // Register every process before starting any task: rank 0 may message
  // rank n-1 immediately.
  for (int i = 0; i < n; ++i) {
    const int node = AllocateSlotNode();
    const int pid = fabric_->RegisterProcess(node);
    RCC_CHECK(pid == static_cast<int>(endpoints_.size()))
        << "pid/endpoint indexing out of sync";
    endpoints_.push_back(
        std::make_unique<Endpoint>(fabric_.get(), pid, start_time));
    ArmFromPending(pid, node, *endpoints_.back());
    pids.push_back(pid);
  }
  for (int pid : pids) {
    Endpoint* ep = endpoints_[pid].get();
    TaskOptions opts;
    opts.pid = pid;
    opts.clock = ep->clock();
    tasks_.push_back(fabric_->engine().Spawn(opts, [fn, ep] { fn(*ep); }));
  }
  return pids;
}

std::vector<int> Cluster::SpawnOnFreshNodes(int n, const RankFn& fn,
                                            Seconds start_time) {
  const int per_node = config().gpus_per_node;
  if (next_slot_ % per_node != 0) {
    next_slot_ += per_node - next_slot_ % per_node;
  }
  return Spawn(n, fn, start_time);
}

Endpoint& Cluster::endpoint(int pid) {
  RCC_CHECK(pid >= 0 && pid < static_cast<int>(endpoints_.size()))
      << "unknown pid " << pid;
  return *endpoints_[pid];
}

void Cluster::Join() {
  // Ranks admitted while we join add new tasks (and may reallocate
  // tasks_), so join a copy of each handle by index until none is left.
  for (size_t joined = 0; joined < tasks_.size(); ++joined) {
    TaskHandle task = tasks_[joined];
    task.Join();
  }
}

int Cluster::nodes_allocated() const {
  const int per_node = config().gpus_per_node;
  return (next_slot_ + per_node - 1) / per_node;
}

}  // namespace rcc::sim
