#include "core/ulfm_elastic.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/serial.h"
#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "core/workload.h"
#include "kvstore/kvstore.h"
#include "obs/export.h"
#include "obs/span.h"

namespace rcc::core {

namespace {

std::vector<uint8_t> EncodePids(const std::vector<int>& pids) {
  ByteWriter w;
  w.WriteU64(pids.size());
  for (int pid : pids) w.WriteI32(pid);
  return w.Take();
}

Status DecodePids(const std::vector<uint8_t>& blob, std::vector<int>* pids) {
  ByteReader r(blob);
  uint64_t n = 0;
  RCC_RETURN_IF_ERROR(r.ReadU64(&n));
  pids->resize(n);
  for (int& pid : *pids) {
    int32_t v = 0;
    RCC_RETURN_IF_ERROR(r.ReadI32(&v));
    pid = v;
  }
  return Status::Ok();
}

}  // namespace

horovod::RunStats RunUlfmElastic(sim::Cluster& cluster,
                                 const horovod::SyntheticPlan& plan,
                                 trace::Recorder* rec) {
  kv::Store store(cluster.config().costs.kv_roundtrip);
  const std::vector<horovod::Bucket> buckets = horovod::MakeBuckets(
      plan.spec, plan.fusion_bytes, plan.max_physical_floats);
  TrainerOptions opts;
  opts.steps_per_epoch = plan.steps_per_epoch;
  opts.epochs = plan.epochs;
  opts.inflight_window = plan.inflight_window;
  opts.drop_policy = plan.drop_policy;
  opts.failures = plan.failures;
  for (const auto& join : plan.joins) opts.joins[join.epoch] += join.count;
  opts.async_admission = plan.async_admission;
  opts.store = &store;
  std::vector<bool> failure_flags(plan.failures.size());
  double completion = 0;
  int repairs = 0;

  // Every rank trains in ElasticTrainer; a rank that returns before
  // finishing while its endpoint is still alive left the job unexplained
  // and dumps (obs::DumpIfUnexplainedExit). A scripted death leaves the
  // endpoint dead and dumps nothing.
  auto train = [&](sim::Endpoint& ep, ResilientComm* rc, Workload* work,
                   checkpoint::TrainingCursor start, int joined_at_epoch) {
    ElasticTrainer trainer(rc, work, opts, &failure_flags);
    const TrainerReport report = trainer.Run(start, joined_at_epoch);
    if (report.aborted) return false;
    completion = std::max(completion, ep.now());
    repairs = std::max(repairs, report.repairs);
    return true;
  };

  auto founder = [&](sim::Endpoint& ep) {
    SyntheticWorkload work(ep, plan, buckets, &store);
    auto blob = store.Wait(&ep, "ulfm/pids");
    std::vector<int> founders;
    bool finished = false;
    if (blob.ok() && DecodePids(blob.value(), &founders).ok()) {
      ResilientComm rc(ep, founders, plan.drop_policy, rec);
      finished = train(ep, &rc, &work, {}, /*joined_at_epoch=*/-1);
    }
    obs::DumpIfUnexplainedExit(ep, !finished);
  };
  const std::vector<int> pids = cluster.Spawn(plan.initial_world, founder);
  // Replacement / upscale workers are provisioned ahead of the epoch
  // boundary they merge at, so their cold start overlaps the survivors'
  // degraded-mode training instead of sitting on the critical path.
  const auto& costs = cluster.config().costs;
  for (const auto& join : plan.joins) {
    for (int j = 0; j < join.count; ++j) {
      auto joiner = [&, join](sim::Endpoint& ep) {
        SyntheticWorkload work(ep, plan, buckets, &store);
        auto provision = [&] {
          // Cold joiners start when the epoch before the merge begins;
          // warm replacements when a failure is confirmed (Scenario II).
          const std::string signal =
              join.cold ? "epoch_start/" +
                              std::to_string(std::max(0, join.epoch - 1))
                        : "provision/failure";
          if (!store.Wait(&ep, signal).ok()) return false;
          obs::Span scope(
              rec, ep, std::string("recovery/") + horovod::phase::kWorkerInit);
          ep.Busy(join.cold ? costs.worker_coldstart : costs.worker_warmstart);
          return true;
        };
        TrainerState state(&work, opts.steps_per_epoch);
        StepBoundary::Admission adm = StepBoundary::Join(
            ep, &state, opts.store, ElasticTrainer::JoinSession(join.epoch),
            opts.joins.at(join.epoch), plan.async_admission, opts.drop_policy,
            rec, provision);
        const bool finished =
            adm.rc != nullptr && adm.synced.ok() &&
            train(ep, adm.rc.get(), &work, state.cursor, state.cursor.epoch);
        obs::DumpIfUnexplainedExit(ep, !finished);
      };
      cluster.SpawnOnFreshNodes(1, joiner, /*start_time=*/0.0);
    }
  }
  // Publish the founding membership (the paper's mpirun-launched world).
  store.Set(nullptr, "ulfm/pids", EncodePids(pids));
  cluster.Join();

  horovod::RunStats stats;
  stats.completion_time = completion;
  stats.steps_executed = plan.epochs * plan.steps_per_epoch;
  stats.resets = repairs + static_cast<int>(opts.joins.size());
  int final_world = plan.initial_world;
  for (const auto& f : plan.failures) {
    const bool whole_node = f.scope == sim::FailScope::kNode ||
                            plan.drop_policy == horovod::DropPolicy::kNode;
    final_world -= whole_node ? cluster.config().gpus_per_node : 1;
  }
  for (const auto& join : plan.joins) final_world += join.count;
  stats.final_world = final_world;
  return stats;
}

}  // namespace rcc::core
