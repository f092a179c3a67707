// Adaptive recovery policy vs the four static strategies, measured as
// chaos campaigns: the same seeded kill schedules replayed under each
// RCC_POLICY mode, goodput = useful optimizer steps (steps_run minus
// checkpoint-restore rollback) per virtual second, averaged over seeds.
// Three failure-rate regimes (calm / moderate / hostile) vary only the
// number of background kills; everything else — shape, replacement
// pool, kill placement stream — is held fixed so the policy choice is
// the only degree of freedom. The bench exits nonzero if adaptive loses
// to any static policy in any regime (the ISSUE acceptance bar).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "common/rng.h"
#include "common/table.h"

namespace {

using rcc::FormatDouble;
using rcc::Table;

const char* kModes[] = {"adaptive", "shrink", "wait", "async", "restore"};

struct Regime {
  const char* name;
  int kills;
};

const Regime kRegimes[] = {{"calm", 1}, {"moderate", 2}, {"hostile", 4}};

constexpr int kSeeds = 5;

rcc::chaos::Schedule MakeSchedule(uint64_t seed, const Regime& regime,
                                  const std::string& mode) {
  rcc::chaos::Schedule s;
  s.seed = seed;
  s.shape.world = 6;
  s.shape.epochs = 8;
  s.shape.steps_per_epoch = 6;
  s.shape.grad_buckets = 2;
  s.shape.inflight_window = 2;
  s.shape.gpus_per_node = 3;
  s.shape.policy_mode = mode;
  s.shape.replacements = 2;
  // Inflate per-step compute to paper-scale (~20 ms virtual steps): the
  // runner's micro-MLP steps cost microseconds, which would make every
  // recovery-path fixed cost dominate the horizon and collapse the
  // strategy space to shrink-always.
  s.shape.compute_scale = 1e7;
  // Kill placement mirrors the generator: background process kills
  // scattered over the failure-free horizon, drawn from the seed so a
  // regime's schedules differ per seed but are identical across modes.
  const double horizon = rcc::chaos::EstimateHorizon(s);
  rcc::Rng rng(seed * 1000003ull + static_cast<uint64_t>(regime.kills));
  for (int k = 0; k < regime.kills; ++k) {
    rcc::chaos::TimedKill kill;
    kill.scope = rcc::sim::FailScope::kProcess;
    kill.target = 1 + static_cast<int>(rng.NextBelow(
                          static_cast<uint32_t>(s.shape.world - 1)));
    kill.at = 0.05 * horizon + rng.NextDouble() * 0.9 * horizon;
    s.timed.push_back(kill);
  }
  return s;
}

// Useful worker-steps per virtual second, summed over every worker that
// finished with training state. Idle replacements burn no steps and
// hold no state; aborted workers (the kill victims) contribute the
// steps they applied before dying — work the survivors then either
// keep (shrink/async) or partially re-execute (restore's rollback).
double Goodput(const rcc::chaos::CampaignOutcome& outcome) {
  double useful = 0.0;
  for (const auto& w : outcome.results) {
    if (w.idle_replacement) continue;
    useful += w.report.steps_run - w.report.rollback_steps;
  }
  return outcome.horizon > 0.0 ? useful / outcome.horizon : 0.0;
}

}  // namespace

int main() {
  Table table({"regime", "kills", "adaptive", "shrink", "wait", "async",
               "restore", "adaptive wins"});
  bool adaptive_dominates = true;
  for (const Regime& regime : kRegimes) {
    double mean[5] = {};
    for (int m = 0; m < 5; ++m) {
      for (int i = 0; i < kSeeds; ++i) {
        const uint64_t seed = 9000 + static_cast<uint64_t>(i);
        const auto schedule = MakeSchedule(seed, regime, kModes[m]);
        mean[m] += Goodput(rcc::chaos::RunSchedule(schedule));
      }
      mean[m] /= kSeeds;
    }
    bool wins = true;
    for (int m = 1; m < 5; ++m) wins = wins && mean[0] >= mean[m] - 1e-9;
    adaptive_dominates = adaptive_dominates && wins;
    table.AddRow({regime.name, std::to_string(regime.kills),
                  FormatDouble(mean[0], 3), FormatDouble(mean[1], 3),
                  FormatDouble(mean[2], 3), FormatDouble(mean[3], 3),
                  FormatDouble(mean[4], 3), wins ? "yes" : "no"});
  }
  rcc::bench::EmitTable(
      table,
      "Goodput (useful steps / virtual second) by recovery policy, "
      "5 seeds per regime, world 6 + 2 replacements",
      "policy_adaptive.csv");
  return adaptive_dominates ? 0 : 1;
}
