#include "chaos/generator.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "chaos/runner.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/sampling.h"

namespace rcc::chaos {

namespace {

using common::EnvDouble;
using common::EnvInt;

// Protocol spans a victim can be caught inside. Founding bootstrap
// (init/) always runs; the recovery/ spans fire only on campaigns whose
// background kills (or joins, for ulfm_expand) reach them — an unfired
// trigger is a no-op, not an error.
const char* const kPhaseMenu[] = {
    "recovery/ulfm_repair",      // mid-repair (cascading second failure)
    "recovery/revoke",           // mid-revoke
    "recovery/agree",            // mid-agree
    "recovery/shrink",           // mid-shrink
    "recovery/retry_collective", // mid-replay
    "recovery/ulfm_expand",      // mid-join (survivor or joiner side)
    "recovery/nccl_reinit",      // mid-GPU-rebuild
    "init/nccl_reinit",          // mid-founding-bootstrap
};
constexpr int kPhaseMenuSize =
    static_cast<int>(sizeof(kPhaseMenu) / sizeof(kPhaseMenu[0]));

// Founders a schedule's events can kill, counting collateral: a
// node-scope kill takes the whole node, and under the kNode drop policy
// a process kill makes its node peers leave too.
std::set<int> DoomedFounders(const Schedule& s) {
  const Shape& sh = s.shape;
  std::set<int> doomed;
  auto doom_pid = [&](int pid) {
    if (pid < 0 || pid >= sh.world) return;  // joiners don't count here
    doomed.insert(pid);
    if (sh.policy == horovod::DropPolicy::kNode) {
      const int node = pid / sh.gpus_per_node;
      for (int p = 0; p < sh.world; ++p) {
        if (p / sh.gpus_per_node == node) doomed.insert(p);
      }
    }
  };
  for (const TimedKill& k : s.timed) {
    if (k.scope == sim::FailScope::kNode) {
      for (int p = 0; p < sh.world; ++p) {
        if (p / sh.gpus_per_node == k.target) doomed.insert(p);
      }
    } else {
      doom_pid(k.target);
    }
  }
  for (const PhaseKill& k : s.phased) doom_pid(k.victim);
  return doomed;
}

}  // namespace

GenConfig GenConfig::FromEnv() {
  GenConfig cfg;
  cfg.min_world = EnvInt("RCC_CHAOS_MIN_WORLD", cfg.min_world);
  cfg.max_world = EnvInt("RCC_CHAOS_MAX_WORLD", cfg.max_world);
  cfg.max_timed = EnvInt("RCC_CHAOS_MAX_TIMED", cfg.max_timed);
  cfg.max_phased = EnvInt("RCC_CHAOS_MAX_PHASED", cfg.max_phased);
  cfg.rate_scale = EnvDouble("RCC_CHAOS_RATE", cfg.rate_scale);
  cfg.allow_node_scope =
      EnvInt("RCC_CHAOS_NODE_SCOPE", cfg.allow_node_scope ? 1 : 0) != 0;
  cfg.allow_async = EnvInt("RCC_CHAOS_ASYNC", cfg.allow_async ? 1 : 0) != 0;
  cfg.allow_serving =
      EnvInt("RCC_CHAOS_SERVE", cfg.allow_serving ? 1 : 0) != 0;
  cfg.allow_policy =
      EnvInt("RCC_CHAOS_POLICY", cfg.allow_policy ? 1 : 0) != 0;
  cfg.allow_pp = EnvInt("RCC_CHAOS_PP", cfg.allow_pp ? 1 : 0) != 0;
  if (const char* m = std::getenv("RCC_POLICY"); m != nullptr && *m != '\0') {
    cfg.policy_mode = m;
  }
  return cfg;
}

Schedule GenerateSchedule(uint64_t seed, const GenConfig& cfg) {
  Rng rng(seed, /*stream=*/0xC4A05);
  Schedule s;
  s.seed = seed;
  Shape& sh = s.shape;

  const int world_span = std::max(1, cfg.max_world - cfg.min_world + 1);
  sh.world = cfg.min_world + static_cast<int>(rng.NextBelow(world_span));
  sh.epochs = 2 + static_cast<int>(rng.NextBelow(2));           // 2..3
  sh.steps_per_epoch = 3 + static_cast<int>(rng.NextBelow(2));  // 3..4
  const int bucket_menu[] = {1, 2, 4};
  sh.grad_buckets = bucket_menu[rng.NextBelow(3)];
  sh.inflight_window = static_cast<int>(rng.NextBelow(5));      // 0..4
  sh.gpus_per_node = 2 + static_cast<int>(rng.NextBelow(2));    // 2..3
  sh.policy = cfg.allow_node_scope && rng.NextBelow(4) == 0
                  ? horovod::DropPolicy::kNode
                  : horovod::DropPolicy::kProcess;
  if (rng.NextDouble() < 0.5) {
    const int join_epoch = 1 + static_cast<int>(rng.NextBelow(sh.epochs - 1));
    sh.joins[join_epoch] = 1 + static_cast<int>(rng.NextBelow(2));
  }

  // Clean-run virtual completion time bounds the kill window; the
  // estimate is itself a deterministic simulation of this shape.
  const double horizon = EstimateHorizon(s);
  const int nodes = (sh.world + sh.gpus_per_node - 1) / sh.gpus_per_node;

  // Poisson background kills over [5%, 95%] of the horizon, drawn from
  // the shared audited sampler (common/sampling.h). PoissonProcess does
  // exactly one rng draw per Next(), matching the historical inline
  // loop, so pre-existing seeds keep producing byte-identical schedules.
  const double expected_kills = 1.3 * cfg.rate_scale;
  const double window = 0.9 * horizon;
  if (window > 0 && expected_kills > 0) {
    PoissonProcess arrivals(&rng, expected_kills / window, 0.05 * horizon);
    for (;;) {
      const double t = arrivals.Next();
      if (t >= 0.95 * horizon ||
          static_cast<int>(s.timed.size()) >= cfg.max_timed) {
        break;
      }
      TimedKill k;
      const int victim = static_cast<int>(rng.NextBelow(sh.world));
      if (cfg.allow_node_scope && rng.NextBelow(4) == 0) {
        k.scope = sim::FailScope::kNode;
        k.target = victim / sh.gpus_per_node;
      } else {
        k.scope = sim::FailScope::kProcess;
        k.target = victim;
      }
      k.at = t;
      s.timed.push_back(k);
    }
  }

  // Adversarial phase-locked injections.
  int total_joiners = 0;
  for (const auto& [epoch, count] : sh.joins) total_joiners += count;
  const int n_phased =
      cfg.max_phased > 0 ? static_cast<int>(rng.NextBelow(cfg.max_phased + 1))
                         : 0;
  for (int i = 0; i < n_phased; ++i) {
    PhaseKill k;
    // Mostly founders; occasionally a joiner (joiner pids continue after
    // the founders in spawn order).
    if (total_joiners > 0 && rng.NextBelow(3) == 0) {
      k.victim = sh.world + static_cast<int>(rng.NextBelow(total_joiners));
    } else {
      k.victim = static_cast<int>(rng.NextBelow(sh.world));
    }
    k.phase = kPhaseMenu[rng.NextBelow(kPhaseMenuSize)];
    k.occurrence = 1 + static_cast<int>(rng.NextBelow(2));
    k.delay = rng.NextBelow(2) == 0 ? 0.0 : rng.NextDouble() * 2e-3;
    s.phased.push_back(k);
  }

  // A recovery-phase trigger with nothing to recover from never fires;
  // give lone injections a background kill to cascade off.
  if (s.timed.empty() && !s.phased.empty() && sh.joins.empty() &&
      horizon > 0) {
    TimedKill k;
    k.scope = sim::FailScope::kProcess;
    k.target = static_cast<int>(rng.NextBelow(sh.world));
    k.at = 0.05 * horizon + rng.NextDouble() * 0.9 * horizon;
    s.timed.push_back(k);
  }

  // Async-admission campaigns (opt-in). Drawn strictly after every
  // pre-existing draw so that with allow_async off the rng stream — and
  // therefore every old seed's schedule — is byte-identical.
  if (cfg.allow_async && total_joiners > 0 && rng.NextBelow(2) == 0) {
    sh.async_admission = true;
    // Optionally land a kill inside the admission itself: the joiner
    // mid-staging, or a survivor at the splice point.
    const int inject = static_cast<int>(rng.NextBelow(3));
    if (inject > 0) {
      PhaseKill k;
      if (inject == 1) {
        k.victim =
            sh.world + static_cast<int>(rng.NextBelow(total_joiners));
        k.phase = "recovery/state_stage";
      } else {
        k.victim = static_cast<int>(rng.NextBelow(sh.world));
        k.phase = "recovery/expand_splice";
      }
      k.occurrence = 1;
      k.delay = rng.NextDouble() * 1e-3;
      s.phased.push_back(k);
    }
  }

  // Serving-plane campaigns (opt-in). Drawn strictly after every
  // pre-existing draw — including the async-admission block — so with
  // allow_serving off the rng stream and every old seed's schedule stay
  // byte-identical. A serving campaign repurposes the scheduled joiners
  // as autoscaler standbys and ignores the trainer-only shape fields.
  if (cfg.allow_serving && rng.NextBelow(3) != 0) {
    sh.serving = true;
    sh.serve_requests = 24 + static_cast<int>(rng.NextBelow(41));  // 24..64
    sh.serve_rps = 40.0 + rng.NextDouble() * 160.0;
    sh.serve_max_batch = 2 + static_cast<int>(rng.NextBelow(7));  // 2..8
    sh.serve_standbys = std::min(total_joiners, 2);
    sh.joins.clear();
    sh.async_admission = false;
    // Phase kills drawn earlier may target ex-joiner pids; standbys now
    // occupy those spawn slots, and a victim that never spawns is a
    // no-op trigger by construction. Background kills were placed inside
    // the trainer horizon; rescale them into the serving horizon so they
    // still land mid-service (no draws, deterministic).
    const double serve_horizon = EstimateHorizon(s);
    if (horizon > 0 && serve_horizon > 0) {
      for (TimedKill& k : s.timed) k.at *= serve_horizon / horizon;
    }
  }

  // Adaptive-policy campaigns (opt-in). Drawn strictly after every
  // pre-existing draw — including the async and serving blocks — so
  // with allow_policy off the rng stream and every old seed's schedule
  // stay byte-identical. The regime draw varies the background failure
  // pressure per seed (quiet / moderate / hostile) so one campaign
  // batch exercises the controller across distinct observed MTBFs; the
  // liveness trim below still guarantees two untouchable founders.
  if (cfg.allow_policy && !sh.serving) {
    sh.policy_mode = cfg.policy_mode;
    sh.replacements = 1 + static_cast<int>(rng.NextBelow(2));  // 1..2
    const int regime = static_cast<int>(rng.NextBelow(3));     // 0..2
    for (int i = 0; i < regime && horizon > 0; ++i) {
      TimedKill k;
      k.scope = sim::FailScope::kProcess;
      k.target = static_cast<int>(rng.NextBelow(sh.world));
      k.at = 0.05 * horizon + rng.NextDouble() * 0.9 * horizon;
      s.timed.push_back(k);
    }
  }

  // Pipeline campaigns (opt-in). Drawn strictly after every
  // pre-existing draw — including the async, serving, and policy
  // blocks — so with allow_pp off the rng stream and every old seed's
  // schedule stay byte-identical. A pipeline campaign runs the hybrid
  // DP x PP x TP PipelineTrainer; the scheduled joins and the serving
  // plane don't apply to it.
  if (cfg.allow_pp && !sh.serving) {
    sh.pipeline = true;
    sh.pp_stages = 2 + static_cast<int>(rng.NextBelow(2));        // 2..3
    sh.tp_size = 1 + static_cast<int>(rng.NextBelow(2));          // 1..2
    sh.pp_microbatches = 4 + static_cast<int>(rng.NextBelow(5));  // 4..8
    // Found with dp >= 2 so single-replica failures are re-routable.
    const int cell = sh.pp_stages * sh.tp_size;
    if (sh.world < 2 * cell) sh.world = 2 * cell;
    if (sh.policy_mode.empty()) sh.policy_mode = "adaptive";
    sh.joins.clear();
    sh.async_admission = false;
    // Background kills were placed inside the data-parallel trainer's
    // horizon; rescale them into the pipeline horizon so they still
    // land mid-schedule (no draws, deterministic).
    const double pp_horizon = EstimateHorizon(s);
    if (horizon > 0 && pp_horizon > 0) {
      for (TimedKill& k : s.timed) k.at *= pp_horizon / horizon;
    }
  }

  // Liveness: keep enough founders no event can reach — 2 for the
  // data-parallel trainer, a full pp*tp cell for pipeline campaigns
  // (the smallest world that can still hold every stage). Drop events
  // from the back (phase injections first — background kills carry
  // more of the campaign's value) until the guarantee holds. Trimming
  // consumes no rng draws, so raising the floor is replay-safe.
  const int survivor_floor =
      sh.pipeline ? std::max(2, sh.pp_stages * sh.tp_size) : 2;
  for (;;) {
    const int undoomed = sh.world - static_cast<int>(DoomedFounders(s).size());
    if (undoomed >= survivor_floor) break;
    if (!s.phased.empty()) {
      s.phased.pop_back();
    } else if (!s.timed.empty()) {
      s.timed.pop_back();
    } else {
      break;  // no events left; shape alone cannot doom anyone
    }
  }
  (void)nodes;
  return s;
}

}  // namespace rcc::chaos
