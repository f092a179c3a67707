// The serving driver: SPMD continuous-batched decode over a
// ResilientComm.
//
// Every tensor-parallel rank runs the identical loop against the
// identical precomputed arrival stream (serve/generator.h) and an
// identical replicated Batcher, so the batch composition, token
// commits, and completion log are pure functions of the traffic seed
// and the failure schedule:
//
//   admit arrivals -> (autoscale decision) -> prefill+decode compute ->
//   TP allreduce over ResilientComm -> agree on the step clock ->
//   commit one token per running sequence
//
// Failure mid-decode: the resilient allreduce repairs internally
// (revoke/agree/shrink/GPU rebuild) and re-executes ONLY the in-flight
// decode step; the batcher state — every admitted request's sequence
// position, i.e. its KV cache — is untouched on the survivors, so no
// in-flight request is dropped and the token is committed exactly once
// (the commit runs strictly after the resilient op returns).
//
// The step clock: virtual timestamps entering the replicated state
// (admission cutoffs, TTFT, completion times) must be bit-identical on
// every rank, while raw endpoint clocks can skew by per-hop residuals
// inside message-passing collectives. After each decode step the ranks
// run a small resilient allgather and adopt the MAX of their clocks as
// the authoritative step time; admission and commits only ever read
// that agreed value. This models the batch scheduler's coordination
// round and costs one host-side small collective per step.
//
// Autoscaling (serve/autoscale.h): queue pressure opens an async
// admission through the step boundary (core::StepBoundary: BeginAsync +
// per-step polls, standby joiners parked on a kvstore key), sustained
// low load makes the highest rank leave via ulfm::LeaveGracefully, with
// the survivors repairing down on their next decode step. The driver's
// replicated state (agreed clock, batcher, autoscaler) is what the
// boundary captures, stages and syncs.
//
// RecoveryMode::kTeardownRebuild is the Gloo-style baseline: the same
// failure instead charges the full exception-catch / shutdown /
// gloo+elastic reinit / fresh NCCL bootstrap / whole-state rebroadcast
// sequence, and the restart destroys the KV caches, so every running
// sequence re-decodes from position 0. Same substrate, same failure
// schedule — only the recovery semantics differ, which is what
// bench_serving_slo measures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/resilient.h"
#include "core/step_boundary.h"
#include "obs/metrics.h"
#include "serve/autoscale.h"
#include "serve/batcher.h"
#include "serve/generator.h"

namespace rcc::serve {

enum class RecoveryMode { kResilient, kTeardownRebuild };

struct ServeOptions {
  TrafficConfig traffic;
  int max_batch = 8;
  int hidden = 256;               // floats allreduced per decode step
  double flops_per_token = 6e9;   // decode compute per sequence per step
  double decode_cost_scale = 1.0; // declared/physical wire-byte ratio
  // Declared size of the staged joiner snapshot (weights + serving
  // state) and of the baseline's post-teardown state rebroadcast.
  double model_bytes = 64e6;
  RecoveryMode mode = RecoveryMode::kResilient;
  horovod::DropPolicy policy = horovod::DropPolicy::kProcess;
  AutoscaleConfig autoscale;
  kv::Store* store = nullptr;     // admission rendezvous + standby wakeups
  std::string session = "serve";
};

struct ServeReport {
  bool aborted = false;       // this rank died mid-run
  bool left = false;          // voluntary autoscale departure
  bool idle_standby = false;  // standby released without ever joining
  int completed = 0;
  uint64_t digest = 0;   // replicated-state digest (cross-rank audit)
  std::vector<Completion> completions;
  int repairs = 0;
  int recovery_steps = 0;  // decode steps that contained >= 1 repair
  int expands = 0;         // splices observed by this rank
  int shrinks = 0;         // voluntary-shrink decisions observed
  int final_world = 0;
  int64_t steps = 0;
  double end_time = 0.0;
};

class ServingDriver : private core::ReplicatedState {
 public:
  ServingDriver(core::ResilientComm* rc, const ServeOptions& opts);

  // Founders: serve the whole stream; returns when it is drained (or
  // this rank dies / leaves).
  ServeReport Run();

  // Kvstore key a standby joiner parks on; the serving rank 0 writes
  // the expand session name into slot `index` when autoscaling up, and
  // the empty string at drain to release unused standbys.
  static std::string StandbyKey(const std::string& session, int index);

  // Standby joiner: park on StandbyKey(session, index), then admit
  // through StepBoundary::Join (JoinAsync + post-splice state sync) and
  // keep serving as a member. Returns aborted=true if the admission
  // failed or this rank died; left=false always (joiners don't re-leave).
  static ServeReport RunStandbyJoiner(sim::Endpoint& ep, kv::Store* store,
                                      const ServeOptions& opts, int index,
                                      trace::Recorder* rec);

 private:
  class Standby;

  // --- the replicated state, as the step boundary moves it ---
  std::vector<uint8_t> Capture() const override;
  double DeclaredBytes(const std::vector<uint8_t>&) const override {
    return opts_.model_bytes;
  }
  Status RestoreStaged(const std::vector<uint8_t>& blob) override;
  // Every kind of sync moves the whole serving state: it is small (the
  // weights were staged in the background), the payoff of async
  // admission for inference.
  Status SyncGrown(core::ResilientComm* rc, Sync kind,
                   bool receiver) override;

  ServeReport Loop();
  // Snapshot of the replicated state into a report for this rank; an
  // aborted exit also goes through obs::DumpIfUnexplainedExit.
  ServeReport Finish(bool aborted);
  // Agree on the authoritative step clock (resilient MAX-allgather).
  Status AgreeClock();
  // Polls a pending async admission at a step boundary; false if this
  // rank must stop.
  bool PollAdmission(bool finalize);
  // Wakes the next standby and opens its async admission; false: this
  // rank died.
  bool ScaleUp();
  void TeardownPenalty();
  void ReleaseStandbys();
  void ExportStepMetrics(double step_seconds, int committed_tokens,
                         bool recovery_step);

  core::ResilientComm* rc_;
  ServeOptions opts_;
  std::vector<Request> stream_;
  Batcher batcher_;
  AutoscaleController ctl_;
  core::StepBoundary boundary_;
  double t_sync_ = 0.0;  // agreed step clock (identical on every rank)
  std::vector<uint64_t> clock_words_;  // AgreeClock's allgather, reused
  int last_repairs_ = 0;
  int64_t decode_replays_ = 0;
  ServeReport report_;

  // Rank 0's serving instruments, all labelled {mode}; resolved once
  // per driver instead of per decode step.
  struct Metrics {
    Metrics(obs::Registry& registry, const char* mode);
    obs::HistogramHandle ttft, token;
    obs::CounterHandle completions, decode_replays, tokens;
    obs::GaugeHandle queue_depth, world_size, goodput;
    obs::CounterHandle recovery_steps, recovery_seconds, recovery_tokens;
    obs::GaugeHandle recovery_goodput;
  };
  Metrics metrics_;
};

}  // namespace rcc::serve
