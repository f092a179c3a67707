#include "horovod/elastic_horovod.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "coll/request.h"
#include "common/log.h"
#include "common/serial.h"
#include "gloo/gloo.h"
#include "nccl/nccl.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rcc::horovod {

namespace {

struct RoundMeta {
  int world = 0;
  // >= 0: this round ends (join-reset) when training reaches the start
  // of this epoch. -1: the round ends only through an exception (or
  // training completion).
  int join_trigger_epoch = -1;
};

struct JoinerSpec {
  int start_round = 0;
  bool cold = true;
};

struct Session {
  SyntheticPlan plan;
  std::unique_ptr<kv::Store> store;
  trace::Recorder* rec = nullptr;
  std::vector<Bucket> proto_buckets;
  std::vector<RoundMeta> rounds;
  std::vector<JoinerSpec> joiners;
  double step_compute_seconds = 0;
  double model_virtual_bytes = 0;
  std::vector<bool> failure_done;
  double completion = 0;
  int resets = 0;

  explicit Session(size_t nfailures) : failure_done(nfailures, false) {}
};

// Builds the per-round membership script from the plan (workers advance
// rounds in lockstep: every reset - exception or join - is global).
void PrecomputeRounds(const SyntheticPlan& plan, int gpus_per_node,
                      Session* ss) {
  ss->rounds.push_back(RoundMeta{plan.initial_world, -1});
  auto end_round_with_join = [&](int epoch, int count, bool cold) {
    ss->rounds.back().join_trigger_epoch = epoch;
    RoundMeta next{ss->rounds.back().world + count, -1};
    for (int j = 0; j < count; ++j) {
      ss->joiners.push_back(
          JoinerSpec{static_cast<int>(ss->rounds.size()), cold});
    }
    ss->rounds.push_back(next);
  };
  for (int e = 0; e < plan.epochs; ++e) {
    for (const ScriptedJoin& join : plan.joins) {
      if (join.epoch == e) end_round_with_join(e, join.count, join.cold);
    }
    for (const ScriptedFailure& f : plan.failures) {
      if (f.epoch != e) continue;
      const bool whole_node = f.scope == sim::FailScope::kNode ||
                              plan.drop_policy == DropPolicy::kNode;
      const int dec = whole_node ? gpus_per_node : 1;
      RoundMeta next{ss->rounds.back().world - dec, -1};
      RCC_CHECK(next.world > 0) << "failure script removes every worker";
      ss->rounds.push_back(next);
    }
  }
}

std::vector<uint8_t> EncodeCursor(int epoch, int step) {
  ByteWriter w;
  w.WriteI32(epoch);
  w.WriteI32(step);
  std::vector<uint8_t> blob = w.Take();
  blob.resize(4096, 0);  // physical stand-in for the model state
  return blob;
}

Status DecodeCursor(const std::vector<uint8_t>& blob, int* epoch,
                    int* step) {
  ByteReader r(blob);
  int32_t e = 0, s = 0;
  RCC_RETURN_IF_ERROR(r.ReadI32(&e));
  RCC_RETURN_IF_ERROR(r.ReadI32(&s));
  *epoch = e;
  *step = s;
  return Status::Ok();
}

class EhWorker {
 public:
  EhWorker(sim::Endpoint& ep, std::shared_ptr<Session> ss, int start_round,
           bool joiner, bool cold)
      : ep_(ep),
        ss_(std::move(ss)),
        round_(start_round),
        joiner_(joiner),
        cold_(cold),
        buckets_(ss_->proto_buckets),
        have_state_(!joiner),
        in_recovery_(joiner) {}

  void Run() {
    const auto& costs = ep_.fabric().config().costs;
    if (joiner_) {
      // Elastic Horovod only launches new workers when the driver resets:
      // the cold start sits on the recovery critical path.
      auto signal =
          ss_->store->Wait(&ep_, "round_start/" + std::to_string(round_));
      if (!signal.ok()) return;
      obs::Span scope(ss_->rec, ep_, Ph(phase::kWorkerInit));
      ep_.Busy(cold_ ? costs.worker_coldstart : costs.worker_warmstart);
    }

    while (ep_.alive() && epoch_ < ss_->plan.epochs) {
      try {
        if (!RunRound()) break;
      } catch (const gloo::IoException& ex) {
        if (!ep_.alive()) break;  // the victim itself
        if (!HandleException(ex)) break;
      }
    }
    ss_->completion = std::max(ss_->completion, ep_.now());
  }

 private:
  // One rendezvous round + its training segment. Returns false when this
  // worker is done (training complete). Throws IoException on failure.
  bool RunRound() {
    const auto& costs = ep_.fabric().config().costs;
    const RoundMeta& meta = ss_->rounds[round_];
    const std::string tag = std::to_string(round_);

    {
      // Host-level (local) rendezvous: slot registration with the local
      // agent before the store-wide round.
      obs::Span scope(ss_->rec, ep_, Ph(phase::kRendezvousLocal));
      ep_.Busy(2 * costs.kv_roundtrip);
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kRendezvousGlobal));
      ctx_ = gloo::Context::Connect(ep_, *ss_->store, "round/" + tag,
                                    meta.world);
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kNcclReinit));
      // NCCL reorders ranks by detected topology; the rendezvous arrival
      // order is irrelevant to the ring it builds.
      std::vector<int> ring_order = ctx_->pids();
      std::sort(ring_order.begin(), ring_order.end());
      gpu_ = nccl::Comm::InitRank(ep_, ring_order, "round/" + tag);
      if (gpu_ == nullptr) {
        throw gloo::IoException(
            Status(Code::kProcFailed, "nccl init failed"));
      }
    }
    SyncState(tag);

    // --- training segment ---
    while (epoch_ < ss_->plan.epochs) {
      if (step_ == 0 && meta.join_trigger_epoch == epoch_) {
        JoinReset();
        return true;
      }
      const bool recompute = recompute_pending_;
      recompute_pending_ = false;
      if (recompute) {
        obs::Span scope(ss_->rec, ep_, std::string("recovery/") + phase::kRecompute);
        TrainStep();
      } else {
        TrainStep();
      }
      CommitStep();
      ++step_;
      if (step_ >= ss_->plan.steps_per_epoch) {
        // Rest of the epoch, analytically (incl. per-mini-batch commits).
        if (ss_->plan.padded_steps_per_epoch > 0) {
          const double commit =
              ss_->model_virtual_bytes /
              ep_.fabric().config().net.host_mem_bandwidth;
          ep_.Busy(ss_->plan.padded_steps_per_epoch *
                   (ss_->plan.padded_step_seconds + commit));
        }
        step_ = 0;
        ++epoch_;
      }
    }
    return false;
  }

  void TrainStep() {
    const sim::Seconds step_start = ep_.now();
    gpu_->TakeServiceSeconds();  // drop pre-step traffic (init barrier &c)
    if (ss_->plan.inflight_window < 1) {
      TrainStepBlocking();
    } else {
      TrainStepPipelined();
    }
    RecordStepMetrics(ep_.now() - step_start);
  }

  // Per-step driver metrics: wall time, its compute/comm split, and the
  // exposed (non-overlapped) communication. Comm service comes from the
  // GPU communicator's per-comm accumulator, so host-side gloo traffic
  // (state sync, negotiation) never pollutes the comm-hidden fraction.
  void RecordStepMetrics(double wall) {
    step_metrics_.Record(wall, ss_->step_compute_seconds,
                         gpu_->TakeServiceSeconds(), ctx_->size());
  }

  void TrainStepBlocking() {
    ep_.Busy(ss_->step_compute_seconds);
    for (size_t b = 0; b < buckets_.size(); ++b) {
      MaybeDie(static_cast<int>(b));
      if (!ep_.alive()) {
        throw gloo::IoException(Status(Code::kAborted, "self killed"));
      }
      Negotiate(b);
      Bucket& bucket = buckets_[b];
      std::vector<float> out(bucket.data.size());
      gpu_->set_cost_scale(bucket.cost_scale());
      Status st = gpu_->Allreduce<float>(bucket.data.data(), out.data(),
                                         bucket.data.size());
      if (!st.ok()) throw gloo::IoException(st);
      // Average and write back (SPMD optimizer step).
      const float inv = 1.0f / static_cast<float>(ctx_->size());
      for (size_t i = 0; i < out.size(); ++i) bucket.data[i] = out[i] * inv;
    }
  }

  // Overlapped step: backprop produces buckets in order, each bucket's
  // allreduce is submitted the moment its backward slice finishes, and
  // only the optimizer step waits for the stragglers. Step time becomes
  // max(compute, comm) per pipeline stage instead of compute + comm.
  void TrainStepPipelined() {
    const auto window = static_cast<size_t>(ss_->plan.inflight_window);
    ep_.Busy(ss_->step_compute_seconds / 3.0);  // forward pass
    const double backward = ss_->step_compute_seconds * 2.0 / 3.0;
    double total_bytes = 0;
    for (const Bucket& bucket : buckets_) total_bytes += bucket.virtual_bytes;
    std::vector<std::vector<float>> outs(buckets_.size());
    std::vector<coll::Request> reqs(buckets_.size());
    size_t oldest = 0;  // first request still outstanding
    // The outs/reqs buffers feed live worker threads: every submitted
    // request must be joined before this frame unwinds.
    auto drain = [&](size_t submitted) {
      Status first;
      for (; oldest < submitted; ++oldest) {
        Status st = gpu_->Wait(&reqs[oldest]);
        if (first.ok() && !st.ok()) first = st;
      }
      return first;
    };
    for (size_t b = 0; b < buckets_.size(); ++b) {
      // Backward slice producing this bucket's gradients.
      const double frac = total_bytes > 0
                              ? buckets_[b].virtual_bytes / total_bytes
                              : 1.0 / static_cast<double>(buckets_.size());
      ep_.Busy(backward * frac);
      MaybeDie(static_cast<int>(b));
      if (!ep_.alive()) {
        drain(b);
        throw gloo::IoException(Status(Code::kAborted, "self killed"));
      }
      Negotiate(b);
      Bucket& bucket = buckets_[b];
      outs[b].resize(bucket.data.size());
      gpu_->set_cost_scale(bucket.cost_scale());
      reqs[b] = gpu_->IAllreduce<float>(bucket.data.data(), outs[b].data(),
                                        bucket.data.size());
      gpu_->set_cost_scale(1.0);
      if (b + 1 - oldest > window) {
        Status st = gpu_->Wait(&reqs[oldest]);
        ++oldest;
        if (!st.ok()) {
          drain(b + 1);
          throw gloo::IoException(st);
        }
      }
    }
    Status st = drain(buckets_.size());
    if (!st.ok()) throw gloo::IoException(st);
    for (const coll::Request& req : reqs) {
      ep_.log()->Record(obs::flight::Ev::kOp, req.complete_time(),
                        static_cast<int64_t>(req.info().op_id),
                        std::llround(req.info().bytes), req.submit_time(),
                        algo_names_.For(req.info().algo)->id);
    }
    // Optimizer step after the whole window completed.
    const float inv = 1.0f / static_cast<float>(ctx_->size());
    for (size_t b = 0; b < buckets_.size(); ++b) {
      for (size_t i = 0; i < outs[b].size(); ++i) {
        buckets_[b].data[i] = outs[b][i] * inv;
      }
    }
  }

  void Negotiate(size_t b) {
    if (ss_->plan.response_cache) return;
    // Uncached response negotiation: a small host-side allgather
    // coordinating which tensors are ready (Horovod's control plane).
    obs::Span scope(ss_->rec, ep_, negotiation_);
    uint64_t ready = b;
    std::vector<uint64_t> all(ctx_->size());
    ctx_->Allgather<uint64_t>(&ready, all.data(), 1);
  }

  void CommitStep() {
    // Elastic Horovod commits the training state every mini-batch (the
    // paper's "minimum checkpoint interval of one mini-batch").
    ep_.Busy(ss_->model_virtual_bytes /
             ep_.fabric().config().net.host_mem_bandwidth);
  }

  void MaybeDie(int bucket) {
    const auto& failures = ss_->plan.failures;
    for (size_t i = 0; i < failures.size(); ++i) {
      const ScriptedFailure& f = failures[i];
      if (f.epoch == epoch_ && f.step == step_ && f.bucket == bucket &&
          f.victim_rank == ctx_->rank() && !ss_->failure_done[i]) {
        ss_->failure_done[i] = true;
        if (f.scope == sim::FailScope::kNode) {
          ep_.fabric().KillNode(ep_.node());
        } else {
          ep_.fabric().Kill(ep_.pid());
        }
        return;
      }
    }
  }

  // State broadcast from the lowest-ranked worker that has state, then
  // restore (joiners and survivors both re-sync after a reset).
  void SyncState(const std::string& tag) {
    obs::Span scope(ss_->rec, ep_, Ph(phase::kStateSync));
    if (have_state_) {
      ByteWriter w;
      w.WriteI32(ctx_->rank());
      ss_->store->CompareAndSwap(&ep_, "root/" + tag, 0, w.Take());
    }
    auto root_blob = ss_->store->Wait(&ep_, "root/" + tag);
    if (!root_blob.ok()) {
      throw gloo::IoException(root_blob.status());
    }
    ByteReader r(root_blob.value());
    int32_t root = 0;
    if (!r.ReadI32(&root).ok()) {
      throw gloo::IoException(Status(Code::kInternal, "bad root record"));
    }
    std::vector<uint8_t> blob = EncodeCursor(epoch_, step_);
    ctx_->set_cost_scale(ss_->model_virtual_bytes /
                         static_cast<double>(blob.size()));
    ctx_->Broadcast<uint8_t>(blob.data(), blob.size(), root);
    ctx_->set_cost_scale(1.0);
    int e = 0, s = 0;
    if (!DecodeCursor(blob, &e, &s).ok()) {
      throw gloo::IoException(Status(Code::kInternal, "bad state blob"));
    }
    epoch_ = e;
    step_ = s;
    have_state_ = true;
    // Materialising the restored tensors into the framework.
    ep_.Busy(ss_->model_virtual_bytes /
             ep_.fabric().config().net.host_mem_bandwidth);
    in_recovery_ = false;
  }

  // Driver-coordinated reset admitting scheduled joiners (no exception).
  void JoinReset() {
    in_recovery_ = true;
    const auto& costs = ep_.fabric().config().costs;
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kShutdown));
      ep_.Busy(costs.eh_shutdown);
      gpu_->Abort();
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kElasticReinit));
      ep_.Busy(costs.eh_elastic_reinit);
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kGlooReinit));
      ep_.Busy(costs.eh_gloo_reinit);
    }
    AdvanceRound();
  }

  bool HandleException(const gloo::IoException& ex) {
    in_recovery_ = true;
    const auto& costs = ep_.fabric().config().costs;
    ++ss_->resets;
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kCatchException));
      ep_.Busy(costs.eh_exception_catch);
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kShutdown));
      ep_.Busy(costs.eh_shutdown);
      if (gpu_ != nullptr) gpu_->Abort();
    }
    const bool whole_node = plan_drops_node(ex);
    if (whole_node) {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kBlacklist));
      ep_.Busy(costs.eh_blacklist_probe);
      // If my own host is blacklisted, leave training (Elastic Horovod
      // drops the whole node).
      for (int pid : ctx_->pids()) {
        if (!ep_.fabric().IsAlive(pid) &&
            ep_.fabric().NodeOf(pid) == ep_.node()) {
          return false;
        }
      }
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kElasticReinit));
      ep_.Busy(costs.eh_elastic_reinit);
    }
    {
      obs::Span scope(ss_->rec, ep_, Ph(phase::kGlooReinit));
      ep_.Busy(costs.eh_gloo_reinit);
    }
    recompute_pending_ = true;
    AdvanceRound();
    return true;
  }

  bool plan_drops_node(const gloo::IoException& ex) const {
    if (ss_->plan.drop_policy == DropPolicy::kNode) return true;
    // Even at process granularity a node-scope failure takes the whole
    // node down in hardware.
    for (int pid : ex.status().failed_pids()) {
      int alive_on_node = 0;
      for (int other : ctx_->pids()) {
        if (ep_.fabric().NodeOf(other) == ep_.fabric().NodeOf(pid) &&
            ep_.fabric().IsAlive(other)) {
          ++alive_on_node;
        }
      }
      if (alive_on_node == 0) return true;
    }
    return false;
  }

  void AdvanceRound() {
    ++round_;
    RCC_CHECK(round_ < static_cast<int>(ss_->rounds.size()))
        << "round script exhausted";
    // Wake any joiner waiting for this round (first resetter wins).
    ss_->store->CompareAndSwap(&ep_, "round_start/" + std::to_string(round_),
                               0, {1});
  }

  std::string Ph(const char* name) const {
    return (in_recovery_ ? std::string("recovery/") : std::string("init/")) +
           name;
  }

  sim::Endpoint& ep_;
  std::shared_ptr<Session> ss_;
  int round_;
  bool joiner_;
  bool cold_;
  std::vector<Bucket> buckets_;
  std::unique_ptr<gloo::Context> ctx_;
  std::unique_ptr<nccl::Comm> gpu_;
  int epoch_ = 0;
  int step_ = 0;
  bool have_state_;
  bool in_recovery_;
  bool recompute_pending_ = false;
  obs::StepMetrics step_metrics_{ep_.metrics(), "elastic_horovod"};
  obs::SpanPhase negotiation_{ep_.metrics(), "negotiation"};
  obs::ByAlgo<obs::flight::Name> algo_names_;
};

}  // namespace

RunStats RunElasticHorovod(sim::Cluster& cluster, const SyntheticPlan& plan,
                           trace::Recorder* rec) {
  auto ss = std::make_shared<Session>(plan.failures.size());
  ss->plan = plan;
  ss->rec = rec;
  ss->store = std::make_unique<kv::Store>(
      cluster.config().costs.kv_roundtrip);
  ss->proto_buckets =
      MakeBuckets(plan.spec, plan.fusion_bytes, plan.max_physical_floats);
  ss->step_compute_seconds = dnn::StepComputeSeconds(
      plan.spec, plan.batch_per_worker, cluster.config().net.gpu_flops);
  ss->model_virtual_bytes = plan.spec.size_mb * 1e6;
  PrecomputeRounds(plan, cluster.config().gpus_per_node, ss.get());

  auto original = [ss](sim::Endpoint& ep) {
    EhWorker(ep, ss, /*start_round=*/0, /*joiner=*/false, /*cold=*/false)
        .Run();
  };
  cluster.Spawn(plan.initial_world, original);
  for (const JoinerSpec& spec : ss->joiners) {
    auto joiner = [ss, spec](sim::Endpoint& ep) {
      EhWorker(ep, ss, spec.start_round, /*joiner=*/true, spec.cold).Run();
    };
    cluster.SpawnOnFreshNodes(1, joiner, /*start_time=*/0.0);
  }
  cluster.Join();

  RunStats stats;
  stats.completion_time = ss->completion;
  stats.final_world = ss->rounds.back().world;
  stats.steps_executed = plan.epochs * plan.steps_per_epoch;
  stats.resets = ss->resets;
  return stats;
}

}  // namespace rcc::horovod
