// Hybrid-parallel (DP x PP x TP) pipeline trainer over the resilient
// collectives, with ReCycle-style failure adaptation.
//
// Each training step runs a 1F1B schedule of M microbatches over the
// ProcessGroupGrid: activations/gradients travel stage-to-stage as
// watched host p2p messages, each stage shard pays a synthetic compute
// cost from the dnn::ModelSpec, TP shards allreduce activations inside
// the stage, and at the step boundary every (stage, shard) column runs
// a DP gradient allreduce across the pipeline replicas. Spares (world
// members beyond dp*pp*tp slots) run no ops but participate in every
// commit agreement, so the commit ledger is identical on all members.
//
// Failure handling (the tentpole): when any member dies mid-step the
// survivors abandon the step and converge at the commit agreement — a
// resilient allgather whose internal repair machinery shrinks the
// world (out-of-band Repair/Agree calls would desynchronize the
// per-comm agreement sequence across members that abandoned the step
// at different points). After the repair the survivors take ONE
// policy decision (core::StepBoundary::Decide) among
//
//   re-route   surviving DP peers adopt the broken replica's
//              microbatches (ReCycle bubble filling): only the
//              sub-communicators whose membership changed are rebuilt,
//              the other grid dimensions keep streaming
//   shrink     reform the whole grid over the survivors (dp' =
//              survivors / (pp*tp)) and re-shard — every sub-comm is
//              rebuilt and the full re-shard broadcast is paid
//   restore    reform + roll every member back to the last checkpoint
//
// then the aborted step replays. The exactly-once invariant (oracle
// P10): across commits, every (stage, microbatch) of every committed
// step was executed by exactly the owner replica the agreed grid
// mapping names — no microbatch is lost or double-applied.
//
// 1F1B schedule: a deterministic round-based list schedule computed
// identically on every member from the agreed grid (see
// BuildSchedule): an op becomes ready only when its dependency
// completed in a strictly earlier round, each functional stage replica
// runs at most one op per round and prefers ready backwards (lowest
// microbatch first). Deadlock-free by induction on rounds: round 1
// always schedules stage-0 forwards, and sends are eager.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/grid.h"
#include "core/resilient.h"
#include "core/step_boundary.h"
#include "dnn/zoo.h"
#include "obs/metrics.h"
#include "policy/policy.h"

namespace rcc::core {

struct PipelineOptions {
  // dims.dp <= 0 derives dp from the world size at founding
  // (world / (pp * tp), minimum 1); leftovers become spares.
  GridDims dims;
  int microbatches = 8;       // M per step (global batch = M * mb size)
  int microbatch_size = 16;   // samples per microbatch
  int steps = 16;             // committed steps to run
  int checkpoint_interval = 4;  // boundary snapshot cadence (steps)
  dnn::ModelSpec spec = dnn::ResNet50V2Spec();
  // kLegacy is promoted to kAdaptive (the pipeline trainer has no
  // pre-policy path); static modes force one recovery arm (bench).
  policy::Mode policy_mode = policy::Mode::kAdaptive;
};

// One committed step as every member ledgers it: the agreed grid
// mapping and the owner replica of every (stage, microbatch). The
// byte-stable rendering of the commit log is the P10 cross-rank
// equality witness.
struct StepCommit {
  int64_t gstep = 0;
  int32_t generation = 0;       // repairs applied before this commit
  std::vector<int> slot_pids;   // dp*pp*tp, -1 vacant
  std::vector<int> owner;       // [p * M + m] -> owner replica d
};

// One microbatch this rank itself executed (recorded at backward
// completion, promoted into the ledger only when the step commits).
struct ExecRecord {
  int64_t gstep = 0;
  int32_t stage = 0;
  int32_t mb = 0;
};

std::string FormatCommitLog(const std::vector<StepCommit>& log);
std::string FormatExecLog(const std::vector<ExecRecord>& log);

struct PipelineReport {
  bool aborted = false;   // this worker died
  int steps_run = 0;      // commit events observed (recommits included)
  int rollback_steps = 0; // committed steps re-run due to restores
  int repairs = 0;
  int reroutes = 0;       // re-route decisions actuated
  int reforms = 0;        // shrink decisions actuated
  int restores = 0;       // restore decisions actuated
  int final_world = 0;
  // Microbatches this rank ran for a broken home replica (ReCycle).
  int64_t adopted_microbatches = 0;
  std::vector<policy::Decision> decisions;
  std::vector<StepCommit> commits;  // identical bytes on every finisher
  std::vector<ExecRecord> execs;    // this rank's committed executions
  // Virtual time of each commit as THIS rank observed it (same order as
  // `commits`). Rank-local — clocks diverge slightly across members —
  // so it is deliberately not part of the P10 byte ledger; the recovery
  // bench uses it to locate commits inside the failure window.
  std::vector<double> commit_times;
};

class PipelineTrainer {
 public:
  PipelineTrainer(ResilientComm* rc, PipelineOptions opts);
  PipelineReport Run();

  // One scheduled op of the 1F1B plan (exposed for the schedule tests).
  struct Op {
    bool bwd = false;
    int m = 0;  // microbatch
    int p = 0;  // stage
  };
  // The deterministic per-replica schedule: ops[(d,p)] in execution
  // order, derived purely from the grid's owner mapping.
  static std::vector<std::vector<Op>> BuildSchedule(
      const ProcessGroupGrid& grid, int microbatches);

 private:
  Status RunStepOps(int64_t gstep, int attempt);
  Status ColumnAllreduce();
  // Rebuilds / rewatches the TP and DP sub-communicators after a grid
  // change. `reshard` charges the full shard broadcast on every column
  // (grid reform); otherwise only columns that adopted a new member pay
  // the adoption broadcast.
  Status BuildSubComms(bool reshard);
  // One adaptation round after the commit agreement failed (or after
  // the agreement's internal repair shrank the world): grid trial +
  // policy decision + actuation. Never repairs the ResilientComm
  // itself — the commit allgather is the single repair entry point, so
  // the per-comm agreement sequence stays aligned on every member.
  // False when this rank must abort.
  bool Adapt(int64_t* gstep);
  void Commit(int64_t gstep);
  policy::PolicyInputs ComposeInputs(const ProcessGroupGrid& trial,
                                     int lost, int64_t gstep) const;
  // True when every column that gained a member still holds a survivor
  // of its previous membership (someone to source the shard state
  // from); re-route is inapplicable otherwise.
  bool StateCoverage(const ProcessGroupGrid& trial) const;
  int RankOfPid(int pid) const;
  double StageFwdSeconds() const;

  ResilientComm* rc_;
  PipelineOptions opts_;
  StepBoundary boundary_;  // the policy decision point
  ProcessGroupGrid grid_;
  int gen_ = 0;        // increments at every repair (SPMD)
  int64_t ckpt_ = -1;  // last checkpointed gstep (-1: founding state)
  int world_ = 0;      // membership at the previous agreement
  int adopt_root_ = -1;  // adoptee-side bcast root (see BuildSubComms)
  // False while this rank's sub-communicators are unusable after a
  // mid-rebuild death; the rank votes "fail" at the next commit
  // agreement instead of entering the step, and the agreement's
  // internal repair converges the world.
  bool subcomms_ok_ = true;
  double step_start_ = 0.0;  // attempt start (bubble metric base)
  double step_busy_ = 0.0;   // attempt compute seconds
  PipelineReport report_;
  std::vector<ExecRecord> pending_;  // this attempt's executions

  // Sub-communicators of this rank's current slot (null for spares and
  // for trivial groups), plus the memberships they were built over.
  std::unique_ptr<nccl::Comm> tp_comm_;
  std::vector<int> tp_pids_;
  std::unique_ptr<nccl::Comm> dp_comm_;
  std::vector<int> dp_pids_;
  // Every member's sub-comm health at the last adaptation, allgathered
  // through the resilient comm (bit0: tp broken, bit1: dp broken).
  // Whether a group rebuilds must be agreed — `broken()` alone is
  // rank-local (only members still inside an interrupted op see it),
  // and a half-rebuilt group deadlocks in the init barrier.
  std::vector<int> peer_flag_pids_;
  std::vector<uint64_t> peer_flags_;

  // Pipeline instruments, resolved once per trainer; the per-stage busy
  // and bubble counters once per stage this rank has served.
  struct StageMetrics {
    StageMetrics(int stage, obs::Registry& registry);
    obs::CounterHandle busy, bubble;
  };
  obs::Registry& metrics_ = rc_->endpoint().metrics();
  obs::CounterHandle microbatches_{metrics_, "rcc_pp_microbatches_total"};
  obs::CounterHandle adopted_{metrics_, "rcc_pp_adopted_microbatches_total"};
  obs::CounterHandle reroutes_{metrics_, "rcc_pp_reroutes_total"};
  obs::HistogramHandle step_seconds_{metrics_, "rcc_pp_step_seconds"};
  std::map<int, StageMetrics> stage_metrics_;
};

}  // namespace rcc::core
