// Seeded schedule generator: draws a randomized campaign — run shape,
// Poisson background kills placed inside the estimated clean-run
// horizon, and adversarial phase-locked injections — from a single
// seed. Same seed + same config => byte-identical Schedule.
//
// Liveness by construction: the generator keeps at least two founders
// that no event can kill (counting node-scope collateral and the kNode
// drop policy's node peers as doomed), so every generated campaign has
// survivors to finish training, complete every expand, and report.
#pragma once

#include <cstdint>

#include "chaos/schedule.h"

namespace rcc::chaos {

struct GenConfig {
  int min_world = 3;
  int max_world = 6;
  int max_timed = 3;        // cap on background kills per campaign
  int max_phased = 2;       // cap on phase-locked injections
  double rate_scale = 1.0;  // scales the expected background-kill count
  bool allow_node_scope = true;
  // Opt-in: campaigns with scheduled joins may route them through the
  // nonblocking admission protocol and land kills inside its in-flight
  // phases (joiner dies while staging, survivor dies mid-splice). Off by
  // default so pre-async seeds keep generating byte-identical schedules.
  bool allow_async = false;
  // Opt-in: some campaigns run the serving plane (continuous-batching
  // ServingDriver + standby autoscaling) instead of the trainer. Off by
  // default so pre-serving seeds keep generating byte-identical
  // schedules — the serving draws happen strictly after every other
  // draw.
  bool allow_serving = false;
  // Opt-in: trainer campaigns run under the online adaptive recovery
  // policy (src/policy) with a small replacement pool, across a drawn
  // failure-rate regime (quiet / moderate / hostile) so the decision
  // controller is exercised over distinct MTBF conditions. Off by
  // default so pre-policy seeds keep generating byte-identical
  // schedules — the policy draws happen strictly after every other
  // draw.
  bool allow_policy = false;
  // Mode stamped on policy campaigns ("adaptive"/"shrink"/"wait"/
  // "async"/"restore"); benches sweep this to compare the controller
  // against each forced static strategy on identical schedules.
  std::string policy_mode = "adaptive";
  // Opt-in: campaigns run the hybrid-parallel PipelineTrainer
  // (DP x PP x TP grid, 1F1B schedule, ReCycle-style re-routing)
  // instead of the data-parallel trainer. Off by default so
  // pre-pipeline seeds keep generating byte-identical schedules — the
  // pipeline draws happen strictly after every other draw.
  bool allow_pp = false;

  // Reads the RCC_CHAOS_* knobs (MIN_WORLD, MAX_WORLD, MAX_TIMED,
  // MAX_PHASED, RATE, NODE_SCOPE, ASYNC, SERVE, POLICY — the last also
  // honoring RCC_POLICY for the mode — and PP) over the defaults
  // above.
  static GenConfig FromEnv();
};

Schedule GenerateSchedule(uint64_t seed, const GenConfig& cfg = GenConfig{});

}  // namespace rcc::chaos
