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
      policy_(opts_.policy_mode),
      step_metrics_(rc->endpoint().metrics(), work->stack()) {}

std::string ElasticTrainer::JoinSession(int epoch) {
  return "trainer-epoch" + std::to_string(epoch);
}

Status ElasticTrainer::SyncState(ResilientComm* rc, Workload* work,
                                 checkpoint::TrainingCursor* cursor,
                                 bool receiver) {
  obs::Span scope(rc->recorder(), rc->endpoint(),
                  std::string("recovery/") + horovod::phase::kStateSync);
  std::vector<uint8_t> blob;
  if (rc->rank() == 0) blob = work->Capture(*cursor);
  RCC_RETURN_IF_ERROR(
      rc->BcastBlob(&blob, /*root=*/0, work->SyncCostScale(1.0)));
  if (receiver && rc->rank() != 0) {
    RCC_RETURN_IF_ERROR(work->Restore(blob, /*fraction=*/1.0, cursor));
  }
  return Status::Ok();
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

  // Resilient allreduce of each gradient bucket in order - blocking, or
  // pipelined through the resilient in-flight window with one WaitAll
  // before the optimizer step. The scripted victim dies right before
  // submitting its target bucket, possibly with earlier buckets still in
  // flight; a rank its node-mate's death took down stops there too.
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
    st = pipelined ? rc_->IAllreduce(bucket.data, out, bucket.count,
                                     bucket.cost_scale)
                   : rc_->Allreduce(bucket.data, out, bucket.count,
                                    bucket.cost_scale);
    if (!st.ok()) break;
  }
  if (pipelined) {
    Status drained = rc_->WaitAll();
    if (st.ok()) st = drained;
  }
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

Status ElasticTrainer::DeltaSync(ResilientComm* rc, Workload* work,
                                 checkpoint::TrainingCursor* cursor,
                                 bool receiver, uint64_t gstep_position) {
  obs::Span scope(rc->recorder(), rc->endpoint(),
                  std::string("recovery/") + horovod::phase::kDeltaSync);
  // Agree on the catch-up distance first: every member contributes its
  // ABSOLUTE global-step position (survivors their current step, joiners
  // their staged snapshot's step) and the distance is the spread. The
  // old scheme had survivors contribute a precomputed gap and joiners a
  // hardcoded 0, which collapsed to "joiners are 0 behind" whenever the
  // survivor-side bookkeeping lost the admission base — positions make
  // the gap structural. The broadcast pricing must be identical on
  // every member, which max-minus-min of an allgathered vector is.
  std::vector<uint64_t> all;
  RCC_RETURN_IF_ERROR(rc->AllgatherU64(gstep_position, &all));
  uint64_t lo = ~0ULL, hi = 0;
  for (uint64_t v : all) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const uint64_t behind = std::max<uint64_t>(1, hi - lo);
  rc->endpoint()
      .metrics()
      .GetHistogram("rcc_delta_sync_steps_behind")
      ->Observe(static_cast<double>(hi - lo));
  const double fraction =
      std::min(1.0, ExpandDeltaFrac() * static_cast<double>(behind));
  std::vector<uint8_t> blob;
  if (rc->rank() == 0) blob = work->Capture(*cursor);
  RCC_RETURN_IF_ERROR(
      rc->BcastBlob(&blob, /*root=*/0, work->SyncCostScale(fraction)));
  if (receiver && rc->rank() != 0) {
    RCC_RETURN_IF_ERROR(work->Restore(blob, fraction, cursor));
  }
  rc->endpoint().metrics().GetCounter("rcc_delta_sync_total")->Increment();
  return Status::Ok();
}

ElasticTrainer::Admission ElasticTrainer::Join(
    sim::Endpoint& ep, Workload* work, const TrainerOptions& opts,
    kv::Store* store, const std::string& session, int joiners, bool async,
    trace::Recorder* rec, const std::function<bool()>& provision) {
  Admission adm;
  // Announcing first lets the members' rendezvous window know the
  // candidate exists before its bring-up finishes.
  if (async && !ulfm::AnnounceJoiner(ep, session).ok()) return adm;
  if (provision && !provision()) return adm;
  if (async) {
    // Stage the published snapshot while the members train, park for
    // the splice, then catch up from the staged snapshot's position
    // (NOT zero: the agreed spread against the members' positions
    // prices the delta).
    adm.rc = ResilientComm::JoinAsync(
        ep, store, session, opts.drop_policy, rec,
        [&](const std::vector<uint8_t>& blob) {
          return work->Restore(blob, /*fraction=*/1.0, &adm.cursor);
        });
    if (adm.rc != nullptr) {
      adm.synced = DeltaSync(
          adm.rc.get(), work, &adm.cursor, /*receiver=*/true,
          static_cast<uint64_t>(adm.cursor.epoch) * opts.steps_per_epoch +
              adm.cursor.step);
    }
  } else {
    adm.rc = ResilientComm::JoinExisting(ep, session, joiners,
                                         opts.drop_policy, rec);
    if (adm.rc != nullptr) {
      adm.synced = SyncState(adm.rc.get(), work, &adm.cursor,
                             /*receiver=*/true);
    }
  }
  return adm;
}

bool ElasticTrainer::PollAdmission(bool finalize, int epoch, int step,
                                   int64_t* admit_begin_gstep,
                                   bool* spliced) {
  const auto pr = rc_->ExpandPoll(finalize);
  if (pr == ResilientComm::PollResult::kNone ||
      pr == ResilientComm::PollResult::kPending) {
    return true;
  }
  if (pr == ResilientComm::PollResult::kAborted) {
    // Timed out (or self died): the membership is unchanged; training
    // continues degraded unless this rank itself is gone.
    *admit_begin_gstep = -1;
    return rc_->endpoint().alive();
  }
  if (spliced != nullptr) *spliced = true;
  // Spliced: the joiners are in; run the catch-up delta sync at this
  // step boundary. Survivors contribute their current global-step
  // position; the joiners' staged snapshots carry the admission-begin
  // position, so the agreed spread IS the catch-up distance.
  const int64_t gstep =
      static_cast<int64_t>(epoch) * opts_.steps_per_epoch + step;
  *admit_begin_gstep = -1;
  checkpoint::TrainingCursor cursor{epoch, step, 0};
  Status ds = DeltaSync(rc_, work_, &cursor, /*receiver=*/false,
                        static_cast<uint64_t>(gstep));
  return ds.ok();
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
  in.seq = policy_.next_seq();
  in.world = rc_->size();
  in.lost = lost;
  // Slots admittable *now*: a still-pending async expand blocks a new
  // admission, so wait/async are reported inapplicable until it
  // resolves.
  in.slots_used = policy_slots_used_;
  in.replacements = rc_->expand_pending()
                        ? 0
                        : opts_.replacement_pool - policy_slots_used_;
  if (opts_.policy_store != nullptr) in.flags |= policy::kFlagStoreOk;
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
  in.mtbf_seconds = policy_.estimator().Estimate();
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

bool ElasticTrainer::PolicyExchange(const policy::PolicyInputs& rank0_in,
                                    policy::Decision* out) {
  std::vector<uint8_t> blob;
  if (rc_->rank() == 0) blob = policy::EncodeInputs(rank0_in);
  Status st = rc_->BcastBlob(&blob, /*root=*/0, /*cost_scale=*/1.0);
  if (!st.ok()) return false;
  policy::PolicyInputs in;
  if (!policy::DecodeInputs(blob, &in)) return false;
  // Rank-0 authoritative slot counter: a member admitted mid-run picks
  // up the slots consumed before it joined.
  policy_slots_used_ = in.slots_used;
  policy_last_world_ = in.world;
  *out = policy_.OnTick(in);
  return true;
}

void ElasticTrainer::RecordDecision(const policy::Decision& d,
                                    double t_start) {
  obs::flight::Ring* ring = rc_->endpoint().log();
  const double now = rc_->endpoint().now();
  // Recorded back-to-back: the postmortem pairs them by adjacency.
  ring->Record(obs::flight::Ev::kPolicyInputs, now, d.in.world, d.in.event,
               d.in.mtbf_seconds);
  ring->Record(obs::flight::Ev::kPolicyDecision, now,
               static_cast<int64_t>(d.chosen), d.in.seq,
               d.cost[static_cast<int>(d.chosen)]);
  ring->Record(obs::flight::Ev::kSpan, now, 0, 0, t_start, decide_name_);
}

bool ElasticTrainer::PolicyTick(int* epoch, int* step, TrainerReport* report,
                                int64_t* admit_begin_gstep) {
  const int64_t gstep =
      static_cast<int64_t>(*epoch) * opts_.steps_per_epoch + *step;
  policy::PolicyInputs in;
  if (rc_->rank() == 0) {
    // Event detection against the previous tick's membership. Growth
    // (a splice or admission) is not a decision event, but it does
    // invalidate the boundary snapshot until every member captures the
    // next one.
    const int world = rc_->size();
    policy::EventKind ev = policy::EventKind::kNone;
    int lost = 0;
    if (world < policy_last_world_) {
      ev = policy::EventKind::kFailure;
      lost = policy_last_world_ - world;
    } else if (world > policy_last_world_) {
      policy_snap_valid_ = false;
    }
    in = ComposeInputs(ev, lost, gstep);
  }
  const double t0 = rc_->endpoint().now();
  const int world_before = policy_last_world_;
  policy::Decision d;
  if (!PolicyExchange(in, &d)) return false;
  if (d.in.world > world_before && world_before > 0) {
    // New members spliced in since the last tick lack the boundary
    // snapshot; restore stays off until the next epoch-boundary
    // capture (every rank tracks this identically from the tick).
    policy_snap_valid_ = false;
  }
  if (static_cast<policy::EventKind>(d.in.event) == policy::EventKind::kNone) {
    return true;
  }
  RecordDecision(d, t0);
  report->decisions = policy_.log();
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
    case policy::Strategy::kWait: {
      // Blocking replacement admission: publish the slot's path, expand
      // with the parked replacement, full state sync.
      const int slot = d.in.slots_used;
      const std::string session = "policy-replace-" + std::to_string(slot);
      if (rc_->rank() == 0 && opts_.policy_store != nullptr) {
        opts_.policy_store->SetString(&rc_->endpoint(),
                                      "policy/replace/" + std::to_string(slot),
                                      "wait:" + session);
      }
      ++policy_slots_used_;
      Status st = rc_->Expand(session, 1);
      if (st.code() == Code::kTimeout) {
        RCC_LOG(kDebug) << "pid " << rc_->endpoint().pid()
                        << " policy wait admission timed out; degraded";
        break;
      }
      if (!st.ok()) return false;
      checkpoint::TrainingCursor cursor{*epoch, *step, 0};
      st = SyncState(rc_, work_, &cursor, /*receiver=*/false);
      if (!st.ok()) return false;
      policy_snap_valid_ = false;
      break;
    }
    case policy::Strategy::kAsync: {
      // Overlapped replacement admission through the async expand; the
      // regular PollAdmission path splices it at a later boundary.
      const int slot = d.in.slots_used;
      const std::string session = "policy-replace-" + std::to_string(slot);
      if (rc_->rank() == 0 && opts_.policy_store != nullptr) {
        opts_.policy_store->SetString(&rc_->endpoint(),
                                      "policy/replace/" + std::to_string(slot),
                                      "async:" + session);
      }
      ++policy_slots_used_;
      std::vector<uint8_t> snapshot;
      if (rc_->rank() == 0) {
        checkpoint::TrainingCursor cursor{*epoch, *step, 0};
        snapshot = work_->Capture(cursor);
      }
      Status st =
          rc_->ExpandAsyncBegin(opts_.policy_store, session, 1, snapshot,
                                work_->StateBytes(snapshot));
      if (!st.ok()) return false;
      *admit_begin_gstep = gstep;
      break;
    }
  }
  return true;
}

bool ElasticTrainer::PolicyJoinDecision(int epoch, int joiner_count,
                                        policy::Strategy* chosen) {
  const int64_t gstep = static_cast<int64_t>(epoch) * opts_.steps_per_epoch;
  policy::PolicyInputs in;
  if (rc_->rank() == 0) {
    in = ComposeInputs(policy::EventKind::kJoin, joiner_count, gstep);
  }
  const double t0 = rc_->endpoint().now();
  policy::Decision d;
  if (!PolicyExchange(in, &d)) return false;
  RecordDecision(d, t0);
  *chosen = d.chosen;
  if (rc_->rank() == 0 && opts_.policy_store != nullptr) {
    // The provisioned joiners read the decided admission path here
    // before calling JoinExisting vs JoinAsync.
    opts_.policy_store->SetString(
        &rc_->endpoint(), "policy/join/" + std::to_string(epoch),
        d.chosen == policy::Strategy::kAsync ? "async" : "wait");
  }
  return true;
}

TrainerReport ElasticTrainer::Run(checkpoint::TrainingCursor start,
                                  int joined_at_epoch) {
  TrainerReport report;
  int epoch = start.epoch;
  int step = start.step;
  bool first = true;
  int64_t admit_begin_gstep = -1;  // global step the pending expand opened
  int known_repairs = rc_->repairs();
  if (policy_active()) policy_last_world_ = rc_->size();
  while (epoch < opts_.epochs) {
    work_->EpochBegin(epoch, rc_->rank());
    // Epoch-boundary reconfiguration. The only boundaries that skip a
    // scheduled join are epoch 0 (the founding world already contains
    // every initial member) and the epoch this worker itself was just
    // admitted into. In particular a checkpoint resume landing on a
    // join epoch DOES run the admission - the old `epoch != start.epoch`
    // guard silently stranded joiners provisioned for the resume epoch.
    auto join_it = opts_.joins.find(epoch);
    if (join_it != opts_.joins.end() && step == 0 && epoch != 0 &&
        epoch != joined_at_epoch) {
      RCC_LOG(kDebug)
          << "pid " << rc_->endpoint().pid() << " expand e" << epoch;
      // A replacement admission still in flight is forced to a decision
      // before the scheduled join opens its own window. This must go
      // through the trainer-level finalize: ExpandAsyncBegin would
      // self-finalize at the resilient layer, splicing the replacement
      // without the DeltaSync it is parked on and deadlocking the next
      // collective. A boundary splice lands the replacement at
      // {epoch, 0}, where it re-enters this loop and participates in
      // the join-block collectives below (joined_at_epoch == -1).
      if (rc_->expand_pending() &&
          !PollAdmission(/*finalize=*/true, epoch, step,
                         &admit_begin_gstep)) {
        report.aborted = true;
        return report;
      }
      // Adaptive join admission: the controller picks blocking (wait)
      // vs overlapped (async) and the path is published for the
      // provisioned joiners on policy/join/<epoch>.
      bool async_join = opts_.async_admission && opts_.admission_store;
      kv::Store* join_store = opts_.admission_store;
      if (policy_active() && opts_.policy_store != nullptr) {
        policy::Strategy chosen = policy::Strategy::kWait;
        if (!PolicyJoinDecision(epoch, join_it->second, &chosen)) {
          report.aborted = true;
          return report;
        }
        async_join = chosen == policy::Strategy::kAsync;
        join_store = opts_.policy_store;
      }
      if (async_join && join_store != nullptr) {
        // Nonblocking admission: publish the snapshot, open the window,
        // keep training; PollAdmission splices at a step boundary once
        // the joiners have staged.
        std::vector<uint8_t> snapshot;
        if (rc_->rank() == 0) {
          checkpoint::TrainingCursor cursor{epoch, step, 0};
          snapshot = work_->Capture(cursor);
        }
        Status st = rc_->ExpandAsyncBegin(join_store, JoinSession(epoch),
                                          join_it->second, snapshot,
                                          work_->StateBytes(snapshot));
        if (!st.ok()) {
          report.aborted = true;
          return report;
        }
        admit_begin_gstep =
            static_cast<int64_t>(epoch) * opts_.steps_per_epoch + step;
      } else {
        Status st = rc_->Expand(JoinSession(epoch), join_it->second);
        if (st.code() == Code::kTimeout) {
          // The provisioned joiners never arrived: the expand was
          // abandoned at the deadline; keep training on the unchanged
          // membership (degraded mode) instead of taking the job down.
          RCC_LOG(kDebug) << "pid " << rc_->endpoint().pid() << " expand e"
                          << epoch << " timed out; continuing degraded";
        } else if (!st.ok()) {
          report.aborted = true;
          return report;
        } else {
          checkpoint::TrainingCursor cursor{epoch, step, 0};
          st = SyncState(rc_, work_, &cursor, /*receiver=*/false);
          if (!st.ok()) {
            report.aborted = true;
            return report;
          }
        }
      }
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
      Status st = TrainStep(epoch, step, &loss);
      if (!st.ok()) {
        report.aborted = true;
        return report;
      }
      if (rc_->repairs() != known_repairs) {
        known_repairs = rc_->repairs();
        work_->Repaired(rc_->rank());
      }
      if (policy_active()) {
        // Measured per-step wall (virtual time) feeding the cost
        // model's remaining-horizon term. Steps that absorbed a
        // recovery stall are excluded: rebuild_seconds already prices
        // recovery, and folding the stall in here would double-count
        // it and inflate t_rem exactly at the tick that follows a
        // repair.
        const double wall = rc_->endpoint().now() - step_t0;
        if (policy_step_ewma_ <= 0.0) {
          policy_step_ewma_ = wall;
        } else if (wall < 3.0 * policy_step_ewma_) {
          policy_step_ewma_ = 0.8 * policy_step_ewma_ + 0.2 * wall;
        }
      }
      if (first) {
        report.first_loss = loss;
        first = false;
      }
      report.last_loss = loss;
      ++report.steps_run;
      ++step;
      bool spliced_now = false;
      if (rc_->expand_pending() &&
          !PollAdmission(/*finalize=*/false, epoch, step,
                         &admit_begin_gstep, &spliced_now)) {
        report.aborted = true;
        return report;
      }
      if (policy_active()) {
        if (spliced_now) {
          // The freshly spliced joiners start their loop past this
          // boundary and would miss the tick collective - every
          // survivor skips it too, and drops the restore point the
          // joiners do not hold.
          policy_snap_valid_ = false;
        } else if (!PolicyTick(&epoch, &step, &report,
                               &admit_begin_gstep)) {
          report.aborted = true;
          return report;
        }
      }
    }
    work_->EpochEnd();
    step = 0;
    ++epoch;
  }
  // A still-pending admission is forced to a decision so parked joiners
  // always unblock: they splice in for the final state or are excluded.
  if (rc_->expand_pending() &&
      !PollAdmission(/*finalize=*/true, opts_.epochs, 0,
                     &admit_begin_gstep)) {
    report.aborted = true;
    return report;
  }
  if (policy_active() && opts_.policy_store != nullptr) {
    // Release the unconsumed replacement slots so parked workers
    // unblock instead of waiting out their deadline. Every finisher
    // publishes (rank 0 alone could have died earlier in the run and a
    // re-ranked survivor must still release); the existence check keeps
    // the write idempotent and never clobbers a consumed slot's
    // "wait:"/"async:" value.
    for (int s = 0; s < opts_.replacement_pool; ++s) {
      const std::string key = "policy/replace/" + std::to_string(s);
      if (!opts_.policy_store->GetString(&rc_->endpoint(), key).ok()) {
        opts_.policy_store->SetString(&rc_->endpoint(), key, "done");
      }
    }
  }
  report.final_world = rc_->size();
  report.repairs = rc_->repairs();
  report.decisions = policy_.log();
  work_->CopyParams(&report.final_params);
  return report;
}

}  // namespace rcc::core
