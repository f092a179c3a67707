// Chaos schedule: one seeded failure campaign against the elastic
// trainer, fully determined by this value. Every kill is executed as a
// virtual-time *self*-kill on the victim's own task (sim/endpoint.h),
// so a schedule replays byte-identically regardless of host thread
// scheduling:
//
//  - TimedKill arms the victim (or every process of a node) before the
//    run starts, via the cluster's pending-failure list, so processes
//    spawned later (joiners) are armed too.
//  - PhaseKill arms the victim when it *enters* a protocol phase for
//    the k-th time (trace::Recorder phase-start hook), which is how the
//    fuzzer lands failures inside the recovery machinery itself:
//    mid-revoke, mid-agree, mid-shrink, mid-replay, mid-join. Phase
//    kills are process-scope only — killing node peers from another
//    task's hook would reintroduce scheduling races. Under the kNode
//    drop policy the victim's node peers still leave with it.
//
// Schedules serialize to JSON (doubles at %.17g, so FromJson(ToJson(s))
// round-trips exactly) for reproducer artifacts and --replay.
//
// Seed format: `format` is a version stamp, validated on load. Format 1
// (the original, no "format" field emitted) and format 2 (stamped by
// builds that also had an OS-thread engine) both replay on the one
// discrete-event engine, so a reproducer replays identically anywhere
// whatever its stamp. Any other value is rejected.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "horovod/plan.h"
#include "sim/failure.h"

namespace rcc::chaos {

// Run shape: the trainer configuration the campaign executes against.
struct Shape {
  int world = 4;
  int epochs = 2;
  int steps_per_epoch = 4;
  int grad_buckets = 4;
  int inflight_window = 2;  // 0 = blocking per-bucket allreduce
  int gpus_per_node = 2;
  horovod::DropPolicy policy = horovod::DropPolicy::kProcess;
  std::map<int, int> joins;  // epoch -> joiners admitted at its start
  // Route the scheduled joins through the nonblocking admission protocol
  // (kvstore staging + step-boundary splice) instead of the blocking
  // expand. Absent in pre-async reproducer JSON; defaults to false.
  bool async_admission = false;
  // Serving-plane campaign (opt-in via RCC_CHAOS_SERVE): the run drives
  // the continuous-batching ServingDriver instead of the elastic
  // trainer — epochs/steps/buckets/joins are ignored and the fields
  // below shape the traffic. `serve_standbys` workers park on the
  // autoscaler's standby keys and are admitted by queue pressure.
  // Absent in pre-serving reproducer JSON; defaults keep it off.
  bool serving = false;
  int serve_requests = 0;
  double serve_rps = 0.0;
  int serve_max_batch = 0;
  int serve_standbys = 0;
  // Adaptive recovery policy campaign (opt-in via RCC_CHAOS_POLICY):
  // the trainer runs under this policy mode ("adaptive"/"shrink"/
  // "wait"/"async"/"restore"; empty = legacy, policy off) with
  // `replacements` provisioned replacement workers parked on the
  // policy slot keys. Absent in pre-policy reproducer JSON; defaults
  // keep it off.
  std::string policy_mode;
  int replacements = 0;
  // Hybrid-parallel pipeline campaign (opt-in via RCC_CHAOS_PP): the
  // run drives the PipelineTrainer (DP x PP x TP grid + 1F1B schedule)
  // instead of the data-parallel elastic trainer. `pp_stages`/`tp_size`
  // fix the pipeline and tensor dimensions (dp derives from the world),
  // `pp_microbatches` the per-step microbatch count. Joins/async/serving
  // are cleared on pipeline campaigns. Absent in pre-pipeline
  // reproducer JSON; defaults keep it off.
  bool pipeline = false;
  int pp_stages = 0;
  int tp_size = 0;
  int pp_microbatches = 0;
  // Per-step compute inflation: divides the simulated GPU flop rate so
  // a campaign's virtual step time matches paper-scale models instead
  // of the micro MLP the runner trains. Purely a virtual-time knob
  // (free in real time); the policy bench uses it to make recovery
  // economics meaningful within one campaign. Absent in older
  // reproducer JSON; defaults to 1 (no inflation).
  double compute_scale = 1.0;
};

// Background failure: the target self-kills when its clock reaches `at`.
struct TimedKill {
  sim::FailScope scope = sim::FailScope::kProcess;
  int target = 0;    // pid (kProcess) or node id (kNode)
  double at = 0.0;   // virtual seconds
};

// Adversarial point injection: when `victim` enters `phase` for the
// `occurrence`-th time (1-based), it arms a self-kill `delay` virtual
// seconds later. A phase the victim never enters never fires.
struct PhaseKill {
  int victim = 0;
  std::string phase;
  int occurrence = 1;
  double delay = 0.0;
};

struct Schedule {
  uint64_t seed = 0;  // provenance only; the events below are the truth
  // Version stamp, 1 or 2 (see the header comment). Absent in
  // pre-versioned JSON; defaults to 1.
  int format = 1;
  Shape shape;
  std::vector<TimedKill> timed;
  std::vector<PhaseKill> phased;

  int EventCount() const {
    return static_cast<int>(timed.size() + phased.size());
  }

  std::string ToJson() const;
  // Strict parse; on failure returns false with a description in *error.
  static bool FromJson(const std::string& text, Schedule* out,
                       std::string* error);
};

bool operator==(const Shape& a, const Shape& b);
bool operator==(const TimedKill& a, const TimedKill& b);
bool operator==(const PhaseKill& a, const PhaseKill& b);
bool operator==(const Schedule& a, const Schedule& b);

}  // namespace rcc::chaos
