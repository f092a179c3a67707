// Cluster: task lifecycle for simulated ranks, node slot allocation,
// dynamic worker admission and failure-plan application. Ranks run as
// fibers on the fabric's engine.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/endpoint.h"
#include "sim/engine.h"
#include "sim/fabric.h"
#include "sim/failure_event.h"

namespace rcc::sim {

using RankFn = std::function<void(Endpoint&)>;

class Cluster {
 public:
  explicit Cluster(SimConfig cfg = SimConfig{})
      : fabric_(std::make_unique<Fabric>(cfg)) {}
  ~Cluster() { Join(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Fabric& fabric() { return *fabric_; }
  const SimConfig& config() const { return fabric_->config(); }

  // Spawns `n` processes packed onto nodes (gpus_per_node slots per node,
  // continuing from the last allocated slot). Each runs `fn` as an engine
  // task with its clock starting at `start_time`. Returns the pids.
  std::vector<int> Spawn(int n, const RankFn& fn, Seconds start_time = 0.0);

  // Spawns `n` processes starting on a *fresh* node boundary (replacement
  // and upscale workers arrive on newly allocated nodes, as on a real
  // scheduler after blacklisting).
  std::vector<int> SpawnOnFreshNodes(int n, const RankFn& fn,
                                     Seconds start_time);

  // Endpoint handle for failure injection / inspection. Valid for the
  // cluster's lifetime.
  Endpoint& endpoint(int pid);

  // Registers a failure event that must also arm processes spawned
  // *after* the plan was applied: a replacement landing on an
  // already-doomed node (or a pid that does not exist yet) is armed the
  // moment it registers, before its task starts. FailurePlan::ApplyTo
  // records every event here.
  void AddPendingFailure(const FailureEvent& ev);

  // Waits for every rank task spawned so far (including ones admitted
  // while joining) to finish. This is where the calling thread pumps the
  // event loop; the first thread to pump owns the simulation.
  void Join();

  int nodes_allocated() const;

 private:
  int AllocateSlotNode();  // packed allocation
  void ArmFromPending(int pid, int node, Endpoint& ep);

  std::unique_ptr<Fabric> fabric_;
  std::vector<TaskHandle> tasks_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // index == pid
  std::vector<FailureEvent> pending_kills_;
  int next_slot_ = 0;  // packed slot counter (node = slot / gpus_per_node)
};

}  // namespace rcc::sim
