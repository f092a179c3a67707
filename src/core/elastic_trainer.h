// Elastic data-parallel trainer over the resilient collectives: the
// paper's training loop. Each step reduces the workload's gradient
// buckets through ResilientComm's in-flight window (closed after every
// bucket when blocking, or once per step when pipelined), a failure is
// repaired in place and only the failed collective re-executes (forward
// recovery), joiners are admitted at epoch boundaries - blocking expand
// + full state sync, or the asynchronous expand spliced at a later step
// boundary + delta sync - and an optional policy tick picks the recovery
// strategy online. The admission protocol and the policy decision point
// are the shared core::StepBoundary; the trainer supplies its state
// (TrainerState) and its policy inputs, and actuates the decisions.
//
// The one loop runs both workloads (core/workload.h): real numerics for
// the tests, the examples and the chaos oracles, and declared-size
// buckets for the figure benches (core/ulfm_elastic.h launches those).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/resilient.h"
#include "core/step_boundary.h"
#include "core/workload.h"
#include "horovod/plan.h"
#include "obs/metrics.h"
#include "policy/policy.h"

namespace rcc::core {

struct TrainerOptions {
  int batch_per_worker = 16;
  int steps_per_epoch = 8;
  int epochs = 2;
  dnn::SgdOptions sgd{0.05f, 0.9f, 0.0f};
  // Linear-scaling learning-rate rule (Goyal et al.): when enabled the
  // effective rate tracks the *current* worker count relative to the
  // founding world, with a gradual warmup - the stability measure the
  // paper cites for scale changes.
  bool linear_lr_scaling = false;
  int lr_warmup_steps = 0;
  // Gradient fusion (DnnWorkload): the flat gradient is split into this
  // many contiguous buckets, each reduced by its own resilient allreduce.
  int grad_buckets = 1;
  // Every bucket is submitted into the resilient in-flight window
  // (rc->IAllreduce). 0 = blocking: the window closes after each bucket
  // (a window of one, exactly a blocking allreduce). >= 1: the window
  // holds up to this many buckets and one WaitAll drains it before the
  // optimizer step.
  int inflight_window = 0;
  horovod::DropPolicy drop_policy = horovod::DropPolicy::kProcess;
  // Scripted failures: victim `rank` dies right before reducing bucket
  // `bucket` of (epoch, step).
  std::vector<horovod::ScriptedFailure> failures;
  // epoch -> number of joiners merging at that epoch boundary.
  std::map<int, int> joins;
  // Scheduled joins open an async admission (staged through `store`,
  // spliced at a later step boundary) instead of the blocking expand +
  // full state sync.
  bool async_admission = false;
  // --- online adaptive recovery policy (src/policy, RCC_POLICY) ---
  // kLegacy (the default): no policy tick, decisions or extra
  // collectives. Any other mode runs one StepBoundary::Decide per step
  // boundary and the same (collective) actuation on every member. See
  // DESIGN.md §11.
  policy::Mode policy_mode = policy::Mode::kLegacy;
  // Rendezvous store of every admission: async snapshots, the policy's
  // replacement slots (policy/replace/<slot>) and decided join paths
  // (policy/join/<epoch>). Without one, async admission is off and the
  // policy's wait/async strategies are inapplicable.
  kv::Store* store = nullptr;
  // Provisioned replacement workers parked on the slot keys; one slot
  // is consumed per wait/async failure decision.
  int replacement_pool = 0;
};

struct TrainerReport {
  bool aborted = false;       // this worker died / left
  int steps_run = 0;          // optimizer steps this worker applied
  float first_loss = 0;
  float last_loss = 0;
  int final_world = 0;
  int repairs = 0;
  // Steps re-executed because of checkpoint-restore decisions: the
  // exactly-once accounting becomes steps_run == planned + rollback.
  int rollback_steps = 0;
  // Structured decision log (one entry per policy decision this worker
  // was a member for); identical bytes across members for shared
  // decisions. Empty in legacy mode.
  std::vector<policy::Decision> decisions;
  std::vector<float> final_params;  // for cross-rank consistency checks
};

// The trainer's replicated state as the step boundary moves it: the
// workload's state at `cursor`, the boundary's position. A joiner's
// restores set the cursor to where the members are: a joiner passes a
// TrainerState to StepBoundary::Join, then trains from its cursor.
class TrainerState final : public ReplicatedState {
 public:
  TrainerState(Workload* work, int steps_per_epoch)
      : work_(work), steps_per_epoch_(steps_per_epoch) {}

  std::vector<uint8_t> Capture() const override {
    return work_->Capture(cursor);
  }
  double DeclaredBytes(const std::vector<uint8_t>& blob) const override {
    return work_->StateBytes(blob);
  }
  Status RestoreStaged(const std::vector<uint8_t>& blob) override {
    return work_->Restore(blob, /*fraction=*/1.0, &cursor);
  }
  // Rank 0 broadcasts the workload state and cursor; a receiver restores
  // them. kCatchUp is priced at min(1, RCC_EXPAND_DELTA_FRAC * behind)
  // of the state, `behind` (>= 1) being the members' step spread.
  Status SyncGrown(ResilientComm* rc, Sync kind, bool receiver) override;

  checkpoint::TrainingCursor cursor;

 private:
  Workload* work_;
  int steps_per_epoch_;
};

class ElasticTrainer {
 public:
  // `failure_flags` must outlive the trainer and be shared by every
  // worker of the run (marks scripted failures as consumed).
  ElasticTrainer(ResilientComm* rc, Workload* work, TrainerOptions opts,
                 std::vector<bool>* failure_flags);

  // Trains from `start`; returns the per-worker report. A worker that
  // was admitted into epoch `joined_at_epoch` passes it so the join
  // boundary it entered through is not re-expanded (-1: founder or
  // plain resume).
  TrainerReport Run(checkpoint::TrainingCursor start = {},
                    int joined_at_epoch = -1);

  // Session name of the admission scheduled at `epoch`.
  static std::string JoinSession(int epoch);

 private:
  // Run's loop from (epoch, step); false when this worker must abort.
  bool Train(int epoch, int step, int joined_at_epoch, TrainerReport* report);
  // The admission of the `joiners` scheduled at `epoch`'s boundary;
  // false when this worker must abort.
  bool AdmitScheduled(int epoch, int joiners);
  bool MaybeDie(int epoch, int step, int bucket);
  Status TrainStep(int epoch, int step, float* loss_out);
  // Polls the pending async admission at boundary (epoch, step).
  StepBoundary::Outcome Poll(bool finalize, int epoch, int step);

  // --- adaptive-policy machinery (all no-ops in kLegacy mode) ---
  bool policy_active() const {
    return opts_.policy_mode != policy::Mode::kLegacy;
  }
  // One decision at the step boundary (`compose` runs on the
  // broadcast's root); adopts the root's slot counter and membership.
  // Returns false when this worker must abort.
  bool Decide(const std::function<policy::PolicyInputs()>& compose,
              policy::Decision* out);
  // One per-step policy tick: event detection, decision, actuation.
  // May rewind *epoch/*step (restore) or admit a replacement
  // (wait/async). Returns false when this worker must abort.
  bool PolicyTick(int* epoch, int* step, TrainerReport* report);
  // The root's input composition shared by the step tick and the join
  // decision.
  policy::PolicyInputs ComposeInputs(policy::EventKind ev, int lost,
                                     int64_t gstep);

  ResilientComm* rc_;
  Workload* work_;
  TrainerOptions opts_;
  std::vector<bool>* failure_flags_;
  int base_workers_;
  TrainerState state_;
  StepBoundary boundary_;

  std::vector<uint8_t> policy_snap_;   // last epoch-boundary snapshot
  int64_t policy_snap_gstep_ = -1;
  bool policy_snap_valid_ = false;     // every member holds the snapshot
  int policy_last_world_ = 0;          // membership at the previous tick
  int policy_slots_used_ = 0;          // replacement slots consumed
  double policy_step_ewma_ = 0.0;      // measured per-step wall (virtual)
  obs::StepMetrics step_metrics_;
  const uint32_t world_size_name_ = obs::flight::Intern("world_size");
};

}  // namespace rcc::core
