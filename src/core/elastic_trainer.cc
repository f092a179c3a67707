#include "core/elastic_trainer.h"

#include <algorithm>

#include "common/log.h"
#include "dnn/optimizer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rcc::core {

ElasticTrainer::ElasticTrainer(ResilientComm* rc, Workload* work,
                               TrainerOptions opts,
                               std::vector<bool>* failure_flags)
    : rc_(rc),
      work_(work),
      opts_(std::move(opts)),
      failure_flags_(failure_flags),
      base_workers_(rc->size()),
      state_(work, opts_.steps_per_epoch),
      boundary_(rc, &state_, opts_.store, opts_.policy_mode),
      step_metrics_(rc->endpoint().metrics(), work->stack()) {}

std::string ElasticTrainer::JoinSession(int epoch) {
  return "trainer-epoch" + std::to_string(epoch);
}

bool ElasticTrainer::MaybeDie(int epoch, int step, int bucket) {
  for (size_t i = 0; i < opts_.failures.size(); ++i) {
    const auto& f = opts_.failures[i];
    if (f.epoch == epoch && f.step == step && f.bucket == bucket &&
        f.victim_rank == rc_->rank() && !(*failure_flags_)[i]) {
      (*failure_flags_)[i] = true;
      if (f.scope == sim::FailScope::kNode) {
        rc_->endpoint().fabric().KillNode(rc_->endpoint().node());
      } else {
        rc_->endpoint().fabric().Kill(rc_->endpoint().pid());
      }
      return true;
    }
  }
  return false;
}

Status ElasticTrainer::TrainStep(int epoch, int step, float* loss_out) {
  sim::Endpoint& ep = rc_->endpoint();
  const sim::Seconds step_start = ep.now();
  rc_->TakeCommServiceSeconds();  // drop pre-step traffic (state sync &c)
  *loss_out = work_->Forward(epoch, step, rc_->rank(), rc_->size());

  // Resilient allreduce of each gradient bucket in order through the
  // in-flight window: closed after every bucket when blocking (a window
  // of one), else once before the optimizer step. The scripted victim
  // dies right before submitting its target bucket, possibly with earlier
  // buckets still in flight; a rank its node-mate's death took down stops
  // there too.
  const std::vector<Workload::Bucket>& buckets = work_->Buckets();
  size_t total = 0;
  for (const Workload::Bucket& b : buckets) total += b.count;
  std::vector<float> reduced(total);
  const bool pipelined = opts_.inflight_window >= 1;
  if (pipelined) rc_->set_max_inflight(opts_.inflight_window);
  Status st;
  size_t off = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    work_->Backward(b);
    if (MaybeDie(epoch, step, static_cast<int>(b)) || !ep.alive()) {
      rc_->WaitAll();  // `reduced` is frame-local: drain the workers
      return Status(Code::kAborted, "self killed before its bucket");
    }
    const Workload::Bucket& bucket = buckets[b];
    float* out = reduced.data() + off;
    off += bucket.count;
    if (bucket.count == 0) continue;
    st = rc_->IAllreduce(bucket.data, out, bucket.count, bucket.cost_scale);
    if (st.ok() && !pipelined) st = rc_->WaitAll();
    if (!st.ok()) break;
  }
  Status drained = rc_->WaitAll();
  if (st.ok()) st = drained;
  RCC_RETURN_IF_ERROR(st);
  // Average over the membership that actually contributed (forward
  // recovery may shrink it mid-step: the failed worker's contribution is
  // lost - degraded-mode averaging).
  const float inv = 1.0f / static_cast<float>(rc_->size());
  float lr_scale = 1.0f;
  if (opts_.linear_lr_scaling) {
    // Rescale against the membership that actually contributed this
    // step; base_workers is pinned at trainer construction.
    dnn::LinearScalingLr schedule(opts_.sgd.lr, base_workers_,
                                  opts_.lr_warmup_steps);
    lr_scale =
        schedule.LrAt(epoch * opts_.steps_per_epoch + step, rc_->size()) /
        opts_.sgd.lr;
  }
  work_->Apply(reduced, inv, lr_scale);
  // Per-step trainer metrics (paper Figs. 5-7 are built from these): step
  // wall time and its compute/comm split. Comm service comes from the
  // resilient comm's accumulator, so only this step's GPU collectives
  // count.
  step_metrics_.Record(ep.now() - step_start, work_->ComputeSeconds(),
                       rc_->TakeCommServiceSeconds(), rc_->size());
  ep.log()->Record(obs::flight::Ev::kCounter, ep.now(), 0, 0,
                   static_cast<double>(rc_->size()), world_size_name_);
  return Status::Ok();
}

Status TrainerState::SyncGrown(ResilientComm* rc, Sync kind,
                               bool receiver) {
  const bool catch_up = kind == Sync::kCatchUp;
  const char* phase =
      catch_up ? horovod::phase::kDeltaSync : horovod::phase::kStateSync;
  obs::Span scope(rc->recorder(), rc->endpoint(),
                  std::string("recovery/") + phase);
  // A full sync moves the whole state. A catch-up moves what the joiners
  // missed since their staged snapshot: every member contributes its
  // ABSOLUTE global-step position (survivors their current step, joiners
  // their snapshot's) and the spread is the catch-up distance. Positions
  // make the gap structural, and max-minus-min of an allgathered vector
  // prices the broadcast identically on every member.
  double fraction = 1.0;
  if (catch_up) {
    std::vector<uint64_t> all;
    RCC_RETURN_IF_ERROR(rc->AllgatherU64(
        static_cast<uint64_t>(cursor.epoch) * steps_per_epoch_ + cursor.step,
        &all));
    const auto [lo, hi] = std::minmax_element(all.begin(), all.end());
    rc->endpoint()
        .metrics()
        .GetHistogram("rcc_delta_sync_steps_behind")
        ->Observe(static_cast<double>(*hi - *lo));
    fraction = std::min(
        1.0, ExpandDeltaFrac() *
                 static_cast<double>(std::max<uint64_t>(1, *hi - *lo)));
  }
  std::vector<uint8_t> blob;
  RCC_RETURN_IF_ERROR(rc->BcastBlob(
      &blob, [&] { return work_->Capture(cursor); },
      work_->SyncCostScale(fraction)));
  if (receiver && rc->rank() != 0) {
    RCC_RETURN_IF_ERROR(work_->Restore(blob, fraction, &cursor));
  }
  if (catch_up) {
    rc->endpoint().metrics().GetCounter("rcc_delta_sync_total")->Increment();
  }
  return Status::Ok();
}

StepBoundary::Outcome ElasticTrainer::Poll(bool finalize, int epoch,
                                           int step) {
  state_.cursor = {epoch, step, 0};
  return boundary_.Poll(finalize);
}

namespace {

// Modeled rendezvous overhead of a blocking replacement admission on
// top of the state sync: the parked replacement's slot-key poll
// interval (~2ms in the chaos runner) plus the announce round. A fixed
// model constant so the decision function stays pure (P9 re-derives it
// from the inputs).
constexpr double kPolicyGraceSeconds = 0.005;

}  // namespace

policy::PolicyInputs ElasticTrainer::ComposeInputs(policy::EventKind ev,
                                                   int lost, int64_t gstep) {
  // This simulation's own history: its failures and recovery phases.
  const obs::Registry& reg = rc_->endpoint().metrics();
  policy::PolicyInputs in;
  in.event = static_cast<int32_t>(ev);
  in.seq = boundary_.policy().next_seq();
  in.world = rc_->size();
  in.lost = lost;
  // Slots admittable *now*: a still-pending async expand blocks a new
  // admission, so wait/async are reported inapplicable until it
  // resolves.
  in.slots_used = policy_slots_used_;
  in.replacements = rc_->expand_pending()
                        ? 0
                        : opts_.replacement_pool - policy_slots_used_;
  if (opts_.store != nullptr) in.flags |= policy::kFlagStoreOk;
  if (policy_snap_valid_ && !rc_->expand_pending()) {
    in.flags |= policy::kFlagRestoreOk;
  }
  in.gstep = gstep;
  in.remaining_steps =
      static_cast<int64_t>(opts_.epochs) * opts_.steps_per_epoch - gstep;
  in.rollback_steps =
      policy_snap_valid_ ? gstep - policy_snap_gstep_ : 0;
  in.now = rc_->endpoint().now();
  in.step_seconds = policy_step_ewma_;
  // Estimate as of the previous tick: OnTick feeds the current event
  // into every member's estimator only after the broadcast, so rank 0
  // must not observe it early.
  in.mtbf_seconds = boundary_.policy().estimator().Estimate();
  in.failures_observed = reg.CounterValue("rcc_failures_observed_total");
  in.snapshot_bytes =
      policy_snap_valid_ ? static_cast<double>(policy_snap_.size()) : 0;
  // Staging = snapshot transfer plus the fixed admission critical path
  // a splice pays regardless of bytes: the store announce/fetch round
  // trips and the expanded communicator's NCCL-style rebuild (base +
  // per-rank ring build). Transfer alone underprices small models so
  // badly that adaptive would admit into remainders the splice cannot
  // land in before the run ends.
  const sim::SimConfig& scfg = rc_->endpoint().fabric().config();
  in.staging_seconds =
      checkpoint::CopyCost(scfg, in.snapshot_bytes) +
      2.0 * scfg.costs.kv_roundtrip + scfg.costs.nccl_init_base +
      scfg.costs.nccl_init_per_rank * (rc_->size() + 1);
  // Measured recovery critical path: per-phase histogram maxima are
  // order-independent, so the value replays identically under both
  // engines (means would depend on cross-rank summation order).
  double rebuild = 0.0;
  for (int p = 1; p <= 5; ++p) {
    rebuild += reg.HistogramSnapshot(
                      "rcc_recovery_phase_seconds",
                      {{"phase", obs::flight::PhaseName(
                                     static_cast<obs::flight::Phase>(p))}})
                   .max;
  }
  in.rebuild_seconds = rebuild;
  in.grace_seconds = kPolicyGraceSeconds;
  return in;
}

bool ElasticTrainer::Decide(
    const std::function<policy::PolicyInputs()>& compose,
    policy::Decision* out) {
  policy::PolicyInputs in;
  if (!boundary_.Decide(compose, &in, out)) return false;
  // The root's slot counter is authoritative: a member admitted mid-run
  // picks up the slots consumed before it joined.
  policy_slots_used_ = in.slots_used;
  policy_last_world_ = in.world;
  return true;
}

bool ElasticTrainer::PolicyTick(int* epoch, int* step,
                                TrainerReport* report) {
  const int64_t gstep =
      static_cast<int64_t>(*epoch) * opts_.steps_per_epoch + *step;
  // Composed by the broadcast's root: event detection against the
  // previous tick's membership. Growth (a splice or admission) is not a
  // decision event, but it does invalidate the boundary snapshot until
  // every member captures the next one.
  auto compose = [&] {
    const int world = rc_->size();
    policy::EventKind ev = policy::EventKind::kNone;
    int lost = 0;
    if (world < policy_last_world_) {
      ev = policy::EventKind::kFailure;
      lost = policy_last_world_ - world;
    } else if (world > policy_last_world_) {
      policy_snap_valid_ = false;
    }
    return ComposeInputs(ev, lost, gstep);
  };
  const int world_before = policy_last_world_;
  policy::Decision d;
  if (!Decide(compose, &d)) return false;
  if (d.in.world > world_before && world_before > 0) {
    // New members spliced in since the last tick lack the boundary
    // snapshot; restore stays off until the next epoch-boundary
    // capture (every rank tracks this identically from the tick).
    policy_snap_valid_ = false;
  }
  if (static_cast<policy::EventKind>(d.in.event) == policy::EventKind::kNone) {
    return true;
  }
  report->decisions = boundary_.policy().log();
  switch (d.chosen) {
    case policy::Strategy::kShrink:
    case policy::Strategy::kReroute:
      // Forward recovery already ran inside the failed collective;
      // continue degraded. Re-routing needs pipeline stages: this
      // trainer never advertises kFlagReroutable, so it degenerates to
      // shrink.
      break;
    case policy::Strategy::kRestore: {
      // Roll every member back to the shared epoch-boundary snapshot;
      // the rolled-back steps are re-executed (P1 accounts them via
      // rollback_steps).
      checkpoint::TrainingCursor cur;
      Status st = work_->Restore(policy_snap_, /*fraction=*/0.0, &cur);
      if (!st.ok()) return false;
      report->rollback_steps +=
          static_cast<int>(gstep - policy_snap_gstep_);
      *epoch = cur.epoch;
      *step = cur.step;
      break;
    }
    case policy::Strategy::kWait:
    case policy::Strategy::kAsync: {
      // Replacement admission: publish the slot's path for the parked
      // replacement, then admit it - overlapped (the per-step poll
      // splices it at a later boundary) or blocking (expand + full state
      // sync; a timeout leaves the membership and the restore point
      // unchanged).
      const bool async = d.chosen == policy::Strategy::kAsync;
      const int slot = d.in.slots_used;
      const std::string session = "policy-replace-" + std::to_string(slot);
      if (rc_->rank() == 0 && opts_.store != nullptr) {
        opts_.store->SetString(&rc_->endpoint(),
                               "policy/replace/" + std::to_string(slot),
                               (async ? "async:" : "wait:") + session);
      }
      ++policy_slots_used_;
      state_.cursor = {*epoch, *step, 0};
      if (async) return boundary_.BeginAsync(session, 1);
      const StepBoundary::Outcome grown = boundary_.AdmitBlocking(session, 1);
      if (grown == StepBoundary::Outcome::kGrew) policy_snap_valid_ = false;
      return grown != StepBoundary::Outcome::kAbort;
    }
  }
  return true;
}

bool ElasticTrainer::AdmitScheduled(int epoch, int joiners) {
  RCC_LOG(kDebug) << "pid " << rc_->endpoint().pid() << " expand e" << epoch;
  // A replacement admission still in flight is forced to a decision
  // before the scheduled join opens its own window. This must go
  // through the boundary's finalize: ExpandAsyncBegin would
  // self-finalize at the resilient layer, splicing the replacement
  // without the delta sync it is parked on and deadlocking the next
  // collective. A boundary splice lands the replacement at {epoch, 0},
  // where it re-enters the loop and takes part in this admission's
  // collectives (joined_at_epoch == -1).
  if (Poll(/*finalize=*/true, epoch, 0) == StepBoundary::Outcome::kAbort) {
    return false;
  }
  // Adaptive join admission: the controller picks blocking (wait) vs
  // overlapped (async), and the provisioned joiners read the path from
  // policy/join/<epoch> before choosing their own protocol.
  bool async = opts_.async_admission && opts_.store != nullptr;
  if (policy_active() && opts_.store != nullptr) {
    const int64_t gstep = static_cast<int64_t>(epoch) * opts_.steps_per_epoch;
    auto compose = [&] {
      return ComposeInputs(policy::EventKind::kJoin, joiners, gstep);
    };
    policy::Decision d;
    if (!Decide(compose, &d)) return false;
    async = d.chosen == policy::Strategy::kAsync;
    if (rc_->rank() == 0) {
      opts_.store->SetString(&rc_->endpoint(),
                             "policy/join/" + std::to_string(epoch),
                             async ? "async" : "wait");
    }
  }
  // The async admission keeps training and splices at a later step
  // boundary once the joiners have staged; the blocking one stalls for
  // the expand and the full state sync.
  state_.cursor = {epoch, 0, 0};
  if (async) return boundary_.BeginAsync(JoinSession(epoch), joiners);
  return boundary_.AdmitBlocking(JoinSession(epoch), joiners) !=
         StepBoundary::Outcome::kAbort;
}

bool ElasticTrainer::Train(int epoch, int step, int joined_at_epoch,
                           TrainerReport* report) {
  bool first = true;
  int known_repairs = rc_->repairs();
  if (policy_active()) policy_last_world_ = rc_->size();
  while (epoch < opts_.epochs) {
    work_->EpochBegin(epoch, rc_->rank());
    // Epoch-boundary reconfiguration. The only boundaries that skip a
    // scheduled join are epoch 0 (the founding world already contains
    // every initial member) and the epoch this worker itself was just
    // admitted into: a checkpoint resume landing on a join epoch runs it.
    auto join_it = opts_.joins.find(epoch);
    if (join_it != opts_.joins.end() && step == 0 && epoch != 0 &&
        epoch != joined_at_epoch && !AdmitScheduled(epoch, join_it->second)) {
      return false;
    }
    if (policy_active() && step == 0) {
      // Epoch-boundary restore point: every member captures the same
      // post-admission state locally (SPMD - the blobs are identical),
      // so a later restore decision is a local rewind on each rank.
      checkpoint::TrainingCursor snap_cur{
          epoch, 0, epoch * opts_.steps_per_epoch};
      policy_snap_ = work_->Capture(snap_cur);
      policy_snap_gstep_ =
          static_cast<int64_t>(epoch) * opts_.steps_per_epoch;
      policy_snap_valid_ = true;
    }
    while (step < opts_.steps_per_epoch) {
      float loss = 0;
      RCC_LOG(kDebug)
          << "pid " << rc_->endpoint().pid() << " step e" << epoch << " s"
          << step;
      const double step_t0 = rc_->endpoint().now();
      if (!TrainStep(epoch, step, &loss).ok()) return false;
      if (rc_->repairs() != known_repairs) {
        known_repairs = rc_->repairs();
        work_->Repaired(rc_->rank());
      }
      if (policy_active()) {
        // Measured per-step wall (virtual time) feeding the cost
        // model's remaining-horizon term. Steps that absorbed a recovery
        // stall are excluded: rebuild_seconds already prices recovery,
        // and counting it twice would inflate t_rem after each repair.
        const double wall = rc_->endpoint().now() - step_t0;
        if (policy_step_ewma_ <= 0.0) {
          policy_step_ewma_ = wall;
        } else if (wall < 3.0 * policy_step_ewma_) {
          policy_step_ewma_ = 0.8 * policy_step_ewma_ + 0.2 * wall;
        }
      }
      if (first) {
        report->first_loss = loss;
        first = false;
      }
      report->last_loss = loss;
      ++report->steps_run;
      ++step;
      const StepBoundary::Outcome polled =
          Poll(/*finalize=*/false, epoch, step);
      if (polled == StepBoundary::Outcome::kAbort) return false;
      // Freshly spliced joiners start their loop past this boundary and
      // would miss the tick collective: every survivor skips it too, and
      // drops the restore point the joiners do not hold.
      if (policy_active() && polled == StepBoundary::Outcome::kGrew) {
        policy_snap_valid_ = false;
      } else if (policy_active() && !PolicyTick(&epoch, &step, report)) {
        return false;
      }
    }
    work_->EpochEnd();
    step = 0;
    ++epoch;
  }
  // A still-pending admission is forced to a decision so parked joiners
  // always unblock: they splice in for the final state or are excluded.
  return Poll(/*finalize=*/true, opts_.epochs, 0) !=
         StepBoundary::Outcome::kAbort;
}

TrainerReport ElasticTrainer::Run(checkpoint::TrainingCursor start,
                                  int joined_at_epoch) {
  TrainerReport report;
  if (!Train(start.epoch, start.step, joined_at_epoch, &report)) {
    report.aborted = true;
    return report;
  }
  if (policy_active() && opts_.store != nullptr) {
    // Release the unconsumed replacement slots so parked workers
    // unblock instead of waiting out their deadline. Every finisher
    // publishes (rank 0 alone could have died earlier in the run and a
    // re-ranked survivor must still release); the existence check keeps
    // the write idempotent and never clobbers a consumed slot's
    // "wait:"/"async:" value.
    for (int s = 0; s < opts_.replacement_pool; ++s) {
      const std::string key = "policy/replace/" + std::to_string(s);
      if (!opts_.store->GetString(&rc_->endpoint(), key).ok()) {
        opts_.store->SetString(&rc_->endpoint(), key, "done");
      }
    }
  }
  report.final_world = rc_->size();
  report.repairs = rc_->repairs();
  report.decisions = boundary_.policy().log();
  work_->CopyParams(&report.final_params);
  return report;
}

}  // namespace rcc::core
