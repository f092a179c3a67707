#include "core/ulfm_elastic.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "common/log.h"
#include "common/serial.h"
#include "core/resilient.h"
#include "kvstore/kvstore.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rcc::core {

namespace {

using horovod::Bucket;
using horovod::DropPolicy;
using horovod::ScriptedFailure;
using horovod::SyntheticPlan;

void AtomicMax(std::atomic<double>* target, double value) {
  double cur = target->load();
  while (value > cur && !target->compare_exchange_weak(cur, value)) {
  }
}

struct Session {
  SyntheticPlan plan;
  std::unique_ptr<kv::Store> store;
  trace::Recorder* rec = nullptr;
  std::vector<Bucket> proto_buckets;
  std::map<int, int> joiners_per_epoch;
  double step_compute_seconds = 0;
  double model_virtual_bytes = 0;
  std::vector<std::atomic<bool>> failure_done;
  std::atomic<double> completion{0};
  std::atomic<int> repairs{0};
  std::atomic<int> expands{0};

  explicit Session(size_t nfailures) : failure_done(nfailures) {
    for (auto& f : failure_done) f.store(false);
  }
};

// Applies the worker-exit rule (obs::DumpIfUnexplainedExit) on
// every return path: a worker that returns before finishing while its
// endpoint is still alive left the job unexplained. A scripted death
// leaves the endpoint dead and dumps nothing.
class ExitDumpGuard {
 public:
  ExitDumpGuard(const sim::Endpoint& ep, const bool& finished)
      : ep_(ep), finished_(finished) {}
  ~ExitDumpGuard() { obs::DumpIfUnexplainedExit(ep_, !finished_); }
  ExitDumpGuard(const ExitDumpGuard&) = delete;
  ExitDumpGuard& operator=(const ExitDumpGuard&) = delete;

 private:
  const sim::Endpoint& ep_;
  const bool& finished_;
};

std::vector<uint8_t> EncodeCursor(int epoch, int step) {
  ByteWriter w;
  w.WriteI32(epoch);
  w.WriteI32(step);
  std::vector<uint8_t> blob = w.Take();
  blob.resize(4096, 0);  // physical stand-in for the model state
  return blob;
}

class UlfmWorker {
 public:
  UlfmWorker(sim::Endpoint& ep, std::shared_ptr<Session> ss)
      : ep_(ep), ss_(std::move(ss)), buckets_(ss_->proto_buckets) {}

  // Founding worker.
  void RunOriginal() {
    ExitDumpGuard guard(ep_, finished_);
    auto blob = ss_->store->Wait(&ep_, "ulfm/pids");
    if (!blob.ok()) return;
    ByteReader r(blob.value());
    uint64_t n = 0;
    if (!r.ReadU64(&n).ok()) return;
    std::vector<int> pids(n);
    for (uint64_t i = 0; i < n; ++i) {
      int32_t pid = 0;
      if (!r.ReadI32(&pid).ok()) return;
      pids[i] = pid;
    }
    rc_ = std::make_unique<ResilientComm>(ep_, pids, ss_->plan.drop_policy,
                                          ss_->rec);
    Train(/*joined_at_epoch=*/-1);
    Finish();
  }

  // Replacement / upscale worker: provisioned ahead of its merge epoch so
  // the cold start overlaps the survivors' degraded-mode training.
  void RunJoiner(int join_epoch, bool cold) {
    ExitDumpGuard guard(ep_, finished_);
    const auto& costs = ep_.fabric().config().costs;
    const std::string signal =
        cold ? "epoch_start/" + std::to_string(std::max(0, join_epoch - 1))
             : "provision/failure";
    auto sig = ss_->store->Wait(&ep_, signal);
    if (!sig.ok()) return;
    {
      obs::Span scope(
          ss_->rec, ep_,
          std::string("recovery/") + horovod::phase::kWorkerInit);
      ep_.Busy(cold ? costs.worker_coldstart : costs.worker_warmstart);
    }
    rc_ = ResilientComm::JoinExisting(
        ep_, "epoch" + std::to_string(join_epoch),
        ss_->joiners_per_epoch.at(join_epoch), ss_->plan.drop_policy,
        ss_->rec);
    if (rc_ == nullptr) return;
    if (!SyncState(/*joiner=*/true).ok()) return;
    Train(/*joined_at_epoch=*/join_epoch);
    Finish();
  }

  // Asynchronous-admission joiner: announces immediately (the survivors'
  // rendezvous window knows the candidate exists before its cold start
  // finishes), stages the published snapshot in the background, then
  // parks until the survivors splice it in at a step boundary.
  void RunJoinerAsync(int join_epoch, bool cold) {
    ExitDumpGuard guard(ep_, finished_);
    const auto& costs = ep_.fabric().config().costs;
    const std::string session = "epoch" + std::to_string(join_epoch);
    if (!ulfm::AnnounceJoiner(ep_, session).ok()) return;
    const std::string signal =
        cold ? "epoch_start/" + std::to_string(std::max(0, join_epoch - 1))
             : "provision/failure";
    auto sig = ss_->store->Wait(&ep_, signal);
    if (!sig.ok()) return;
    {
      obs::Span scope(
          ss_->rec, ep_,
          std::string("recovery/") + horovod::phase::kWorkerInit);
      ep_.Busy(cold ? costs.worker_coldstart : costs.worker_warmstart);
    }
    if (!ep_.alive()) return;
    rc_ = ResilientComm::JoinAsync(
        ep_, ss_->store.get(), session, ss_->plan.drop_policy, ss_->rec,
        [this](const std::vector<uint8_t>& blob) -> Status {
          ByteReader r(blob);
          int32_t e = 0;
          int32_t s = 0;
          RCC_RETURN_IF_ERROR(r.ReadI32(&e));
          RCC_RETURN_IF_ERROR(r.ReadI32(&s));
          epoch_ = e;
          step_ = s;
          // Materialise the staged tensors.
          ep_.Busy(ss_->model_virtual_bytes /
                   ep_.fabric().config().net.host_mem_bandwidth);
          return ep_.alive() ? Status::Ok()
                             : Status(Code::kAborted, "joiner died staging");
        });
    if (rc_ == nullptr) return;  // died, excluded, or survivors gone
    // Catch up to the survivors' current step (they run the matching
    // sender-side DeltaSync right after the splice); contribute the
    // staged snapshot's step position so the agreed spread prices the
    // real gap.
    if (!DeltaSync(/*joiner=*/true,
                   static_cast<uint64_t>(epoch_) * ss_->plan.steps_per_epoch +
                       step_)
             .ok()) {
      return;
    }
    Train(/*joined_at_epoch=*/epoch_);
    Finish();
  }

 private:
  void Finish() {
    AtomicMax(&ss_->completion, ep_.now());
    finished_ = true;
  }

  // State broadcast from rank 0 (survivor order is preserved by shrink
  // and expand, so rank 0 always holds valid state).
  Status SyncState(bool joiner) {
    obs::Span scope(ss_->rec, ep_,
                       std::string("recovery/") + horovod::phase::kStateSync);
    std::vector<uint8_t> blob = EncodeCursor(epoch_, step_);
    const double scale =
        ss_->model_virtual_bytes / static_cast<double>(blob.size());
    RCC_RETURN_IF_ERROR(rc_->BcastBlob(&blob, /*root=*/0, scale));
    if (joiner) {
      ByteReader r(blob);
      int32_t e = 0, s = 0;
      RCC_RETURN_IF_ERROR(r.ReadI32(&e));
      RCC_RETURN_IF_ERROR(r.ReadI32(&s));
      epoch_ = e;
      step_ = s;
      // Materialise the received tensors.
      ep_.Busy(ss_->model_virtual_bytes /
               ep_.fabric().config().net.host_mem_bandwidth);
    }
    return Status::Ok();
  }

  // Post-splice catch-up: every member contributes its absolute
  // global-step position (survivors the current step, joiners the
  // staged snapshot's step) and the agreed spread max-min (clamped to
  // >= 1) is the distance; the cursor broadcast is priced at
  // min(1, RCC_EXPAND_DELTA_FRAC * behind) of the model bytes - the
  // joiner already staged a recent snapshot, only the delta travels.
  Status DeltaSync(bool joiner, uint64_t gstep_position) {
    obs::Span scope(ss_->rec, ep_,
                    std::string("recovery/") + horovod::phase::kDeltaSync);
    std::vector<uint64_t> all;
    RCC_RETURN_IF_ERROR(rc_->AllgatherU64(gstep_position, &all));
    uint64_t lo = ~0ULL, hi = 0;
    for (uint64_t v : all) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const uint64_t behind = std::max<uint64_t>(1, hi - lo);
    obs::Registry::Global()
        .GetHistogram("rcc_delta_sync_steps_behind")
        ->Observe(static_cast<double>(hi - lo));
    const double virtual_bytes =
        std::min(1.0, ExpandDeltaFrac() * static_cast<double>(behind)) *
        ss_->model_virtual_bytes;
    std::vector<uint8_t> blob = EncodeCursor(epoch_, step_);
    const double scale = virtual_bytes / static_cast<double>(blob.size());
    RCC_RETURN_IF_ERROR(rc_->BcastBlob(&blob, /*root=*/0, scale));
    if (joiner) {
      ByteReader r(blob);
      int32_t e = 0;
      int32_t s = 0;
      RCC_RETURN_IF_ERROR(r.ReadI32(&e));
      RCC_RETURN_IF_ERROR(r.ReadI32(&s));
      epoch_ = e;
      step_ = s;
      ep_.Busy(virtual_bytes / ep_.fabric().config().net.host_mem_bandwidth);
    }
    obs::Registry::Global().GetCounter("rcc_delta_sync_total")->Increment();
    return Status::Ok();
  }

  // Polls the pending async expand at a step boundary; runs the sender
  // side of the delta sync when it splices. Returns false when this
  // worker must stop (self died or the catch-up sync aborted).
  bool PollAdmission(bool finalize) {
    const auto pr = rc_->ExpandPoll(finalize);
    if (pr == ResilientComm::PollResult::kNone ||
        pr == ResilientComm::PollResult::kPending) {
      return true;
    }
    if (pr == ResilientComm::PollResult::kAborted) {
      // Timed out: membership unchanged, training continues degraded
      // unless this rank itself died at the poll boundary.
      admit_begin_gstep_ = -1;
      return ep_.alive();
    }
    const int64_t gstep =
        static_cast<int64_t>(epoch_) * ss_->plan.steps_per_epoch + step_;
    admit_begin_gstep_ = -1;
    return DeltaSync(/*joiner=*/false, static_cast<uint64_t>(gstep)).ok();
  }

  void Train(int joined_at_epoch) {
    int known_repairs = rc_->repairs();
    while (epoch_ < ss_->plan.epochs) {
      if (rc_->rank() == 0) {
        // Progress beacon: cold joiners for epoch e+1 start provisioning
        // when epoch e begins (resource-availability model, DESIGN.md).
        ss_->store->CompareAndSwap(
            &ep_, "epoch_start/" + std::to_string(epoch_), 0, {1});
      }
      // Epoch-boundary reconfiguration (paper: joiners merge after the
      // survivors complete the epoch).
      auto join_it = ss_->joiners_per_epoch.find(epoch_);
      if (join_it != ss_->joiners_per_epoch.end() && step_ == 0 &&
          epoch_ != joined_at_epoch) {
        ss_->expands.fetch_add(1);
        if (ss_->plan.async_admission) {
          // Nonblocking admission: open the window and keep training;
          // PollAdmission splices at a step boundary once the joiners
          // have staged the published snapshot.
          Status st = rc_->ExpandAsyncBegin(
              ss_->store.get(), "epoch" + std::to_string(epoch_),
              join_it->second, EncodeCursor(epoch_, step_),
              ss_->model_virtual_bytes);
          if (!st.ok()) return;
          admit_begin_gstep_ =
              static_cast<int64_t>(epoch_) * ss_->plan.steps_per_epoch +
              step_;
        } else {
          Status st =
              rc_->Expand("epoch" + std::to_string(epoch_), join_it->second);
          if (st.code() == Code::kTimeout) {
            // Provisioned joiners never arrived: the expand was
            // abandoned at the deadline; keep training degraded.
            RCC_LOG(kDebug) << "pid " << ep_.pid() << " expand e" << epoch_
                            << " timed out; continuing degraded";
          } else if (!st.ok()) {
            return;
          } else if (!SyncState(/*joiner=*/false).ok()) {
            return;
          }
        }
      }
      while (step_ < ss_->plan.steps_per_epoch) {
        if (!TrainStep(&known_repairs)) return;
        ++step_;
        if (rc_->expand_pending() && !PollAdmission(/*finalize=*/false)) {
          return;
        }
      }
      // Rest of the epoch, analytically (no checkpoint commits on the
      // ULFM path).
      if (ss_->plan.padded_steps_per_epoch > 0) {
        ep_.Busy(ss_->plan.padded_steps_per_epoch *
                 ss_->plan.padded_step_seconds);
      }
      step_ = 0;
      ++epoch_;
    }
    // Force a still-pending admission to a decision so parked joiners
    // always unblock (they splice for the final state or are excluded).
    if (rc_->expand_pending()) PollAdmission(/*finalize=*/true);
  }

  // Returns false when this worker leaves (death or node drop).
  bool TrainStep(int* known_repairs) {
    const sim::Seconds step_start = ep_.now();
    rc_->TakeCommServiceSeconds();  // drop pre-step traffic (state sync &c)
    const bool ok = ss_->plan.inflight_window < 1
                        ? TrainStepBlocking()
                        : TrainStepPipelined();
    if (ok) RecordStepMetrics(ep_.now() - step_start);
    if (ok && rc_->repairs() != *known_repairs) {
      *known_repairs = rc_->repairs();
      ss_->repairs.fetch_add(1);
      if (rc_->rank() == 0) {
        // Replacement provisioning signal (Scenario II): standby
        // workers spin up as soon as the failure is confirmed.
        ss_->store->CompareAndSwap(&ep_, "provision/failure", 0, {1});
      }
    }
    return ok;
  }

  // Per-step driver metrics (paper Figs. 5-7 are built from these): step
  // wall time, its compute/comm split, and the exposed (non-overlapped)
  // communication derived from them. Comm service comes from the
  // resilient comm's own accumulator so host-side traffic from other
  // phases never pollutes the comm-hidden fraction.
  void RecordStepMetrics(double wall) {
    step_metrics_.Record(wall, ss_->step_compute_seconds,
                         rc_->TakeCommServiceSeconds(), rc_->size());
    ep_.log()->Record(obs::flight::Ev::kCounter, ep_.now(), 0, 0,
                      static_cast<double>(rc_->size()), world_size_name_);
  }

  bool TrainStepBlocking() {
    ep_.Busy(ss_->step_compute_seconds);
    for (size_t b = 0; b < buckets_.size(); ++b) {
      MaybeDie(static_cast<int>(b));
      if (!ep_.alive()) return false;
      if (!ss_->plan.response_cache) {
        obs::Span scope(ss_->rec, ep_, negotiation_);
        if (!Negotiate(b)) return false;
      }
      Bucket& bucket = buckets_[b];
      std::vector<float> out(bucket.data.size());
      Status st = rc_->Allreduce(bucket.data.data(), out.data(),
                                 bucket.data.size(), bucket.cost_scale());
      RCC_LOG(kDebug) << "pid " << ep_.pid() << " e" << epoch_ << " s"
                      << step_ << " b" << b << " -> " << st.ToString();
      if (!st.ok()) return false;  // kAborted: dead or node-dropped
      // Degraded-mode averaging: the failed worker's contribution is
      // lost; survivors average over the *current* membership.
      const float inv = 1.0f / static_cast<float>(rc_->size());
      for (size_t i = 0; i < out.size(); ++i) bucket.data[i] = out[i] * inv;
    }
    return true;
  }

  // Overlapped step over the resilient window: each bucket's allreduce
  // is submitted as backprop produces it (bounded in-flight window,
  // failures repaired and replayed inside the resilient layer), and only
  // the optimizer step drains the window.
  bool TrainStepPipelined() {
    rc_->set_max_inflight(ss_->plan.inflight_window);
    ep_.Busy(ss_->step_compute_seconds / 3.0);  // forward pass
    const double backward = ss_->step_compute_seconds * 2.0 / 3.0;
    double total_bytes = 0;
    for (const Bucket& bucket : buckets_) total_bytes += bucket.virtual_bytes;
    // The out buffers feed live op workers: the window must be drained
    // (WaitAll) on every exit path before this frame unwinds.
    std::vector<std::vector<float>> outs(buckets_.size());
    for (size_t b = 0; b < buckets_.size(); ++b) {
      // Backward slice producing this bucket's gradients.
      const double frac = total_bytes > 0
                              ? buckets_[b].virtual_bytes / total_bytes
                              : 1.0 / static_cast<double>(buckets_.size());
      ep_.Busy(backward * frac);
      MaybeDie(static_cast<int>(b));
      if (!ep_.alive()) {
        rc_->WaitAll();
        return false;
      }
      if (!ss_->plan.response_cache) {
        obs::Span scope(ss_->rec, ep_, negotiation_);
        if (!Negotiate(b)) {
          rc_->WaitAll();
          return false;
        }
      }
      Bucket& bucket = buckets_[b];
      outs[b].resize(bucket.data.size());
      Status st = rc_->IAllreduce(bucket.data.data(), outs[b].data(),
                                  bucket.data.size(), bucket.cost_scale());
      RCC_LOG(kDebug) << "pid " << ep_.pid() << " e" << epoch_ << " s"
                      << step_ << " b" << b << " submit -> " << st.ToString();
      if (!st.ok()) {
        rc_->WaitAll();
        return false;  // kAborted: dead or node-dropped
      }
    }
    Status st = rc_->WaitAll();
    RCC_LOG(kDebug) << "pid " << ep_.pid() << " e" << epoch_ << " s" << step_
                    << " waitall -> " << st.ToString();
    if (!st.ok()) return false;
    // Optimizer step: average over the *post-recovery* membership (the
    // failed worker's contribution to buckets reduced before the failure
    // is lost - degraded-mode averaging at window granularity).
    const float inv = 1.0f / static_cast<float>(rc_->size());
    for (size_t b = 0; b < buckets_.size(); ++b) {
      for (size_t i = 0; i < outs[b].size(); ++i) {
        buckets_[b].data[i] = outs[b][i] * inv;
      }
    }
    return true;
  }

  // Horovod response negotiation when the response cache is disabled: a
  // small resilient host-side allgather.
  bool Negotiate(size_t b) {
    std::vector<uint64_t> all;
    return rc_->AllgatherU64(b, &all).ok();
  }

  void MaybeDie(int bucket) {
    const auto& failures = ss_->plan.failures;
    for (size_t i = 0; i < failures.size(); ++i) {
      const ScriptedFailure& f = failures[i];
      if (f.epoch == epoch_ && f.step == step_ && f.bucket == bucket &&
          f.victim_rank == rc_->rank() && !ss_->failure_done[i].load()) {
        ss_->failure_done[i].store(true);
        if (f.scope == sim::FailScope::kNode) {
          ep_.fabric().KillNode(ep_.node());
        } else {
          ep_.fabric().Kill(ep_.pid());
        }
        return;
      }
    }
  }

  sim::Endpoint& ep_;
  std::shared_ptr<Session> ss_;
  std::vector<Bucket> buckets_;
  std::unique_ptr<ResilientComm> rc_;
  int epoch_ = 0;
  int step_ = 0;
  int64_t admit_begin_gstep_ = -1;  // global step the pending expand opened
  bool finished_ = false;           // reached Finish()
  obs::StepMetrics step_metrics_{"ulfm"};
  obs::SpanPhase negotiation_{"negotiation"};
  const uint32_t world_size_name_ = obs::flight::Intern("world_size");
};

}  // namespace

horovod::RunStats RunUlfmElastic(sim::Cluster& cluster,
                                 const SyntheticPlan& plan,
                                 trace::Recorder* rec) {
  auto ss = std::make_shared<Session>(plan.failures.size());
  ss->plan = plan;
  ss->rec = rec;
  ss->store =
      std::make_unique<kv::Store>(cluster.config().costs.kv_roundtrip);
  ss->proto_buckets = horovod::MakeBuckets(plan.spec, plan.fusion_bytes,
                                           plan.max_physical_floats);
  ss->step_compute_seconds = dnn::StepComputeSeconds(
      plan.spec, plan.batch_per_worker, cluster.config().net.gpu_flops);
  ss->model_virtual_bytes = plan.spec.size_mb * 1e6;
  for (const auto& join : plan.joins) {
    ss->joiners_per_epoch[join.epoch] += join.count;
  }

  auto original = [ss](sim::Endpoint& ep) {
    UlfmWorker(ep, ss).RunOriginal();
  };
  std::vector<int> pids = cluster.Spawn(plan.initial_world, original);
  for (const auto& join : plan.joins) {
    for (int j = 0; j < join.count; ++j) {
      auto joiner = [ss, join](sim::Endpoint& ep) {
        if (ss->plan.async_admission) {
          UlfmWorker(ep, ss).RunJoinerAsync(join.epoch, join.cold);
        } else {
          UlfmWorker(ep, ss).RunJoiner(join.epoch, join.cold);
        }
      };
      cluster.SpawnOnFreshNodes(1, joiner, /*start_time=*/0.0);
    }
  }
  // Publish the founding membership (the paper's mpirun-launched world).
  ByteWriter w;
  w.WriteU64(pids.size());
  for (int pid : pids) w.WriteI32(pid);
  ss->store->Set(nullptr, "ulfm/pids", w.Take());
  cluster.Join();

  horovod::RunStats stats;
  stats.completion_time = ss->completion.load();
  stats.steps_executed = plan.epochs * plan.steps_per_epoch;
  stats.resets = ss->repairs.load() + ss->expands.load();
  int final_world = plan.initial_world;
  for (const auto& f : plan.failures) {
    const bool whole_node = f.scope == sim::FailScope::kNode ||
                            plan.drop_policy == DropPolicy::kNode;
    final_world -= whole_node ? cluster.config().gpus_per_node : 1;
  }
  for (const auto& join : plan.joins) final_world += join.count;
  stats.final_world = final_world;
  return stats;
}

}  // namespace rcc::core
