// Elastic data-parallel trainer over the resilient collectives: the
// paper's training loop. Each step reduces the workload's gradient
// buckets through ResilientComm (blocking, or pipelined through the
// resilient in-flight window), a failure is repaired in place and only
// the failed collective re-executes (forward recovery), joiners are
// admitted at epoch boundaries - blocking Expand + SyncState, or the
// asynchronous expand spliced at a later step boundary + DeltaSync - and
// an optional policy tick picks the recovery strategy online.
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
  // 0 = blocking allreduce per bucket. >= 1: buckets are submitted into
  // the resilient in-flight window (rc->IAllreduce) and drained by a
  // single WaitAll before the optimizer step.
  int inflight_window = 0;
  horovod::DropPolicy drop_policy = horovod::DropPolicy::kProcess;
  // Scripted failures: victim `rank` dies right before reducing bucket
  // `bucket` of (epoch, step).
  std::vector<horovod::ScriptedFailure> failures;
  // epoch -> number of joiners merging at that epoch boundary.
  std::map<int, int> joins;
  // Asynchronous admission: scheduled joins open a nonblocking expand
  // (snapshot published to `admission_store`, joiners staged via
  // ResilientComm::JoinAsync) and splice at a later step boundary,
  // instead of the blocking Expand + full SyncState stall.
  bool async_admission = false;
  kv::Store* admission_store = nullptr;
  // --- online adaptive recovery policy (src/policy, RCC_POLICY) ---
  // kLegacy (the default) keeps the pre-policy behavior byte-identical:
  // no per-step policy tick, no decisions, no extra collectives. Any
  // other mode runs one tick per step boundary: rank 0 composes
  // policy::PolicyInputs, broadcasts the serialized bytes through the
  // resilient BcastBlob, and every member runs the same pure decision
  // and the same (collective) actuation. See DESIGN.md §11.
  policy::Mode policy_mode = policy::Mode::kLegacy;
  // Rendezvous store for policy-driven admissions: replacement slots
  // park on policy/replace/<slot>, scheduled joiners read the decided
  // admission path from policy/join/<epoch>. Without a store the
  // wait/async strategies are inapplicable and decisions fall back to
  // shrink (failures) / the legacy join path (joins).
  kv::Store* policy_store = nullptr;
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

  // Collective state sync: rank 0 broadcasts the workload state and
  // cursor; `receiver` restores it. Every member of rc must call this.
  static Status SyncState(ResilientComm* rc, Workload* work,
                          checkpoint::TrainingCursor* cursor, bool receiver);

  // Post-splice catch-up sync: every member contributes its absolute
  // global-step position (survivors the current step, joiners their
  // staged snapshot's step) and the agreed spread max-min (clamped to
  // >= 1) is the catch-up distance; rank 0 then broadcasts the current
  // state priced at min(1, RCC_EXPAND_DELTA_FRAC * behind) of the full
  // snapshot — the joiner already staged a recent version, only the
  // delta travels. Every member of rc must call this.
  static Status DeltaSync(ResilientComm* rc, Workload* work,
                          checkpoint::TrainingCursor* cursor, bool receiver,
                          uint64_t gstep_position);

  // A joiner's admission into a running job.
  struct Admission {
    std::unique_ptr<ResilientComm> rc;  // null: died, excluded, no members
    Status synced;                      // the state sync after the join
    checkpoint::TrainingCursor cursor;  // where the members are
  };
  // Joiner side of the admission into `session`: announces itself (async
  // path), runs `provision` (the joiner's own bring-up; false gives up),
  // then joins through JoinAsync + DeltaSync (staging from `store`) or
  // JoinExisting (`joiners` admitted together) + SyncState, restoring
  // the members' state into `work`.
  static Admission Join(sim::Endpoint& ep, Workload* work,
                        const TrainerOptions& opts, kv::Store* store,
                        const std::string& session, int joiners, bool async,
                        trace::Recorder* rec,
                        const std::function<bool()>& provision = nullptr);

 private:
  bool MaybeDie(int epoch, int step, int bucket);
  Status TrainStep(int epoch, int step, float* loss_out);
  // Polls the pending async expand at a step boundary; runs the delta
  // sync when it splices (reported via `spliced` so the policy tick can
  // skip a boundary the fresh joiners never saw). Returns false when
  // this worker must abort.
  bool PollAdmission(bool finalize, int epoch, int step,
                     int64_t* admit_begin_gstep, bool* spliced = nullptr);

  // --- adaptive-policy machinery (all no-ops in kLegacy mode) ---
  bool policy_active() const {
    return opts_.policy_mode != policy::Mode::kLegacy;
  }
  // Composes (rank 0) / receives one PolicyInputs tick through the
  // resilient broadcast and runs the shared controller on it. Returns
  // false when this worker must abort; *out holds the decoded decision.
  bool PolicyExchange(const policy::PolicyInputs& rank0_in,
                      policy::Decision* out);
  // One per-step policy tick: event detection, decision, actuation.
  // May rewind *epoch/*step (restore) or admit a replacement
  // (wait/async). Returns false when this worker must abort.
  bool PolicyTick(int* epoch, int* step, TrainerReport* report,
                  int64_t* admit_begin_gstep);
  // Join-boundary decision: picks wait vs async for the scheduled
  // joiners at `epoch` and publishes the path on policy/join/<epoch>.
  bool PolicyJoinDecision(int epoch, int joiner_count,
                          policy::Strategy* chosen);
  // Emits the flight-recorder pair + the policy/decide trace span.
  void RecordDecision(const policy::Decision& d, double t_start);
  // Rank-0 input composition shared by the step tick and the join
  // decision.
  policy::PolicyInputs ComposeInputs(policy::EventKind ev, int lost,
                                     int64_t gstep);

  ResilientComm* rc_;
  Workload* work_;
  TrainerOptions opts_;
  std::vector<bool>* failure_flags_;
  int base_workers_;

  policy::PolicyController policy_;
  std::vector<uint8_t> policy_snap_;   // last epoch-boundary snapshot
  int64_t policy_snap_gstep_ = -1;
  bool policy_snap_valid_ = false;     // every member holds the snapshot
  int policy_last_world_ = 0;          // membership at the previous tick
  int policy_slots_used_ = 0;          // replacement slots consumed
  double policy_step_ewma_ = 0.0;      // measured per-step wall (virtual)
  obs::StepMetrics step_metrics_;
  const uint32_t decide_name_ = obs::flight::Intern("policy/decide");
  const uint32_t world_size_name_ = obs::flight::Intern("world_size");
};

}  // namespace rcc::core
