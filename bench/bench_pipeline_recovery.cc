// Pipeline recovery arms under a single-stage-replica failure: the same
// deterministic mid-run kill replayed with the policy pinned to
// re-route (ReCycle adoption), shrink-the-world, and checkpoint
// restore.
//
// Steady-state throughput after adaptation is nearly identical across
// the arms (the owner redistribution is work-conserving: the bottleneck
// stage carries ~M/dp' microbatches either way), so the honest
// differentiator is the RECOVERY STALL: shrink-the-world tears down and
// re-initialises every sub-communicator (TP and DP, sequentially on
// each rank) and re-broadcasts the full stage shard into every DP
// column, while the re-route rebuilds only the one DP column whose
// membership changed and moves no state when no slot changed hands.
//
// The failure window is therefore anchored on the baseline: it spans
// from the kill to the shrink arm's first post-kill commit — the period
// during which strategy choice matters. Window goodput is committed
// microbatches inside that absolute window per second; all three arms
// commit the identical exactly-once ledger (oracle P10), so the
// comparison is apples-to-apples.
//
// Regime: a large-parameter / modest-FLOP synthetic LM (state >> per-
// step compute, the hybrid-parallel setting ReCycle targets), with the
// NCCL bootstrap constants inflated to stand in for a several-hundred-
// GPU job on this 12-rank world — communicator reconstruction dominates
// recovery at scale, which is exactly the paper's motivation (same
// inflation idiom as bench_policy_adaptive's compute_scale).
//
// The bench exits nonzero unless re-routing sustains at least 2x the
// shrink arm's window goodput (the ISSUE acceptance bar).
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/pipeline_trainer.h"
#include "core/resilient.h"
#include "dnn/zoo.h"
#include "policy/policy.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace {

using rcc::FormatDouble;
using rcc::Table;

struct ArmOutcome {
  std::vector<rcc::core::PipelineReport> reports;  // by pid
  double horizon = 0.0;
};

rcc::sim::SimConfig BenchConfig() {
  rcc::sim::SimConfig cfg;
  // Communicator bootstrap at large-job scale (NCCL init is O(seconds)
  // beyond a few hundred ranks); the 12-rank world stands in for it.
  cfg.costs.nccl_init_base = 0.5;
  return cfg;
}

// Large-parameter, modest-FLOP synthetic LM: 1.5B params (6 GB fp32)
// with a short-sequence per-sample cost, so shard movement — not
// microbatch compute — dominates recovery.
rcc::dnn::ModelSpec SyntheticLmSpec() {
  rcc::dnn::ModelSpec spec;
  spec.name = "synthetic-lm-1.5b";
  spec.trainable_tensors = 296;
  spec.depth = 48;
  spec.total_parameters = 1.5e9;
  spec.size_mb = 6000;
  spec.forward_flops_per_sample = 1.1e10;
  return spec;
}

ArmOutcome RunArm(int world, const rcc::core::PipelineOptions& opts,
                  double kill_at, int victim) {
  rcc::sim::Cluster cluster(BenchConfig());
  if (kill_at >= 0.0 && victim >= 0) {
    cluster.AddPendingFailure(rcc::sim::FailureEvent{
        rcc::sim::FailScope::kProcess, victim, kill_at});
  }
  std::vector<int> pids(world);
  std::iota(pids.begin(), pids.end(), 0);
  rcc::trace::Recorder rec;
  std::mutex mu;
  ArmOutcome out;
  out.reports.resize(static_cast<size_t>(world));
  cluster.Spawn(world, [&](rcc::sim::Endpoint& ep) {
    rcc::core::ResilientComm rc(ep, pids, rcc::horovod::DropPolicy::kProcess,
                                &rec);
    rcc::core::PipelineTrainer trainer(&rc, opts);
    rcc::core::PipelineReport r = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    out.horizon = std::max(out.horizon, ep.now());
    out.reports[static_cast<size_t>(ep.pid())] = std::move(r);
  });
  cluster.Join();
  return out;
}

const rcc::core::PipelineReport* FirstFinisher(const ArmOutcome& o) {
  for (const auto& r : o.reports) {
    if (!r.aborted && !r.commits.empty()) return &r;
  }
  return nullptr;
}

// First commit strictly after the kill, as the finisher observed it;
// -1 when the arm never commits again.
double FirstCommitAfter(const rcc::core::PipelineReport& r, double t) {
  for (double ct : r.commit_times) {
    if (ct > t) return ct;
  }
  return -1.0;
}

int CommitsInWindow(const rcc::core::PipelineReport& r, double lo,
                    double hi) {
  int n = 0;
  for (double ct : r.commit_times) {
    if (ct > lo && ct <= hi) ++n;
  }
  return n;
}

}  // namespace

int main() {
  // 3x2x2 grid over 12 workers: losing one rank breaks exactly one
  // stage replica (its TP partner idles, the two surviving DP replicas
  // of that stage adopt its microbatches).
  rcc::core::PipelineOptions base;
  base.dims = rcc::core::GridDims{0, 2, 2};
  base.microbatches = 6;
  base.microbatch_size = 4;
  base.steps = 12;
  base.checkpoint_interval = 4;
  base.spec = SyntheticLmSpec();
  const int world = 12;
  const int victim = 2;  // slot (d=0, p=1, t=0)

  // Clean replay: pins the failure-free horizon and the kill time.
  rcc::core::PipelineOptions clean = base;
  clean.policy_mode = rcc::policy::Mode::kAdaptive;
  const ArmOutcome dry = RunArm(world, clean, -1.0, -1);
  const rcc::core::PipelineReport* dry_fin = FirstFinisher(dry);
  if (dry_fin == nullptr || dry.horizon <= 0.0) {
    std::fprintf(stderr, "clean pipeline run produced no finisher\n");
    return 1;
  }
  // Kill 40% into the COMMITTING span (founding sub-comm init takes a
  // sizeable prefix of the horizon; the interesting failure is mid-1F1B
  // steady state, not mid-bootstrap).
  const double first_commit = dry_fin->commit_times.front();
  const double kill_at =
      first_commit + 0.4 * (dry.horizon - first_commit);

  struct Arm {
    const char* name;
    rcc::policy::Mode mode;
  };
  const Arm arms[] = {{"reroute", rcc::policy::Mode::kRerouteOnly},
                      {"shrink", rcc::policy::Mode::kShrinkOnly},
                      {"restore", rcc::policy::Mode::kRestoreOnly}};

  ArmOutcome outcomes[3];
  const rcc::core::PipelineReport* fins[3] = {};
  for (int a = 0; a < 3; ++a) {
    rcc::core::PipelineOptions opts = base;
    opts.policy_mode = arms[a].mode;
    std::fprintf(stderr, "running %s arm...\n", arms[a].name);
    outcomes[a] = RunArm(world, opts, kill_at, victim);
    fins[a] = FirstFinisher(outcomes[a]);
    if (fins[a] == nullptr ||
        fins[a]->commits.size() != static_cast<size_t>(base.steps)) {
      std::fprintf(stderr, "%s arm lost commits\n", arms[a].name);
      return 1;
    }
  }

  // The failure window: kill -> the shrink baseline's first post-kill
  // commit (the span its stop-the-world reform keeps goodput at zero).
  const double shrink_back = FirstCommitAfter(*fins[1], kill_at);
  if (shrink_back <= kill_at) {
    std::fprintf(stderr, "shrink arm never recovered\n");
    return 1;
  }
  const double window = shrink_back - kill_at;

  Table table({"arm", "horizon s", "stall s", "window commits",
               "window goodput mb/s", "run goodput mb/s", "reroutes",
               "reforms", "restores", "adopted mb"});
  double window_goodput[3] = {};
  for (int a = 0; a < 3; ++a) {
    const ArmOutcome& o = outcomes[a];
    const double back = FirstCommitAfter(*fins[a], kill_at);
    const double stall = back > kill_at ? back - kill_at : -1.0;
    const int commits_in =
        CommitsInWindow(*fins[a], kill_at, kill_at + window);
    window_goodput[a] =
        static_cast<double>(commits_in) * base.microbatches / window;
    const double run_goodput =
        o.horizon > 0.0 ? static_cast<double>(base.steps) *
                              static_cast<double>(base.microbatches) /
                              o.horizon
                        : 0.0;
    int reroutes = 0;
    int reforms = 0;
    int restores = 0;
    long long adopted = 0;
    for (const auto& r : o.reports) {
      reroutes = std::max(reroutes, r.reroutes);
      reforms = std::max(reforms, r.reforms);
      restores = std::max(restores, r.restores);
      adopted += r.adopted_microbatches;
    }
    table.AddRow({arms[a].name, FormatDouble(o.horizon, 6),
                  FormatDouble(stall, 6), std::to_string(commits_in),
                  FormatDouble(window_goodput[a], 3),
                  FormatDouble(run_goodput, 3), std::to_string(reroutes),
                  std::to_string(reforms), std::to_string(restores),
                  std::to_string(adopted)});
  }

  const double ratio =
      window_goodput[1] > 0.0 ? window_goodput[0] / window_goodput[1] : 0.0;
  std::printf("reroute / shrink window goodput ratio: %.3f (bar: 2.0)\n",
              ratio);
  rcc::bench::EmitTable(
      table,
      "Pipeline recovery arms under a single-stage-replica kill "
      "(synthetic 1.5B-param LM, 3x2x2 grid, kill 40% into the clean "
      "run's committing span, window = kill to the shrink baseline's "
      "first post-kill commit)",
      "pipeline_recovery.csv");
  return ratio >= 2.0 ? 0 : 1;
}
