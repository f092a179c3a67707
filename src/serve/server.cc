#include "serve/server.h"

#include <cstring>

#include "common/serial.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "sim/params.h"

namespace rcc::serve {

namespace {

const char* ModeName(RecoveryMode m) {
  return m == RecoveryMode::kResilient ? "resilient" : "teardown";
}

}  // namespace

ServingDriver::ServingDriver(core::ResilientComm* rc, const ServeOptions& opts)
    : rc_(rc),
      opts_(opts),
      stream_(GenerateArrivals(opts.traffic)),
      batcher_(opts.max_batch),
      ctl_(opts.autoscale),
      boundary_(rc, this, opts.store, policy::Mode::kLegacy),
      last_repairs_(rc->repairs()),
      metrics_(rc->endpoint().metrics(), ModeName(opts.mode)) {
  rc_->SetReplayHook(
      [this](int64_t /*op_id*/, int64_t /*min_id*/) { ++decode_replays_; });
}

ServingDriver::Metrics::Metrics(obs::Registry& reg, const char* mode)
    : ttft(reg, "rcc_serve_ttft_seconds", {{"mode", mode}}),
      token(reg, "rcc_serve_token_seconds", {{"mode", mode}}),
      completions(reg, "rcc_serve_completions_total", {{"mode", mode}}),
      decode_replays(reg, "rcc_serve_decode_replays_total", {{"mode", mode}}),
      tokens(reg, "rcc_serve_tokens_total", {{"mode", mode}}),
      queue_depth(reg, "rcc_serve_queue_depth", {{"mode", mode}}),
      world_size(reg, "rcc_serve_world_size", {{"mode", mode}}),
      goodput(reg, "rcc_serve_goodput_tokens_per_s", {{"mode", mode}}),
      recovery_steps(reg, "rcc_serve_recovery_steps_total", {{"mode", mode}}),
      recovery_seconds(reg, "rcc_serve_recovery_seconds_total",
                       {{"mode", mode}}),
      recovery_tokens(reg, "rcc_serve_recovery_tokens_total",
                      {{"mode", mode}}),
      recovery_goodput(reg, "rcc_serve_goodput_during_recovery_tokens_per_s",
                       {{"mode", mode}}) {}

std::string ServingDriver::StandbyKey(const std::string& session, int index) {
  return "serve/" + session + "/standby/" + std::to_string(index);
}

ServeReport ServingDriver::Run() {
  // Founders: agree on the serving epoch's start clock. The init
  // barrier leaves per-rank residuals (microseconds of skew), and
  // admission stamps must be bit-identical everywhere.
  if (t_sync_ < rc_->endpoint().now()) t_sync_ = rc_->endpoint().now();
  if (!AgreeClock().ok()) return Finish(/*aborted=*/true);
  return Loop();
}

// A standby's state before it can serve: the driver needs the
// communicator the admission makes, so it is made at the post-splice
// sync (that communicator's first use) and restores the staged snapshot
// (weights + a stale cursor) before the sync brings the live cursor.
class ServingDriver::Standby final : public core::ReplicatedState {
 public:
  explicit Standby(const ServeOptions& opts) : opts_(opts) {}
  std::vector<uint8_t> Capture() const override { return driver->Capture(); }
  double DeclaredBytes(const std::vector<uint8_t>&) const override {
    return opts_.model_bytes;
  }
  Status RestoreStaged(const std::vector<uint8_t>& blob) override {
    staged_ = blob;
    return Status::Ok();
  }
  Status SyncGrown(core::ResilientComm* rc, Sync kind, bool receiver) override {
    driver = std::make_unique<ServingDriver>(rc, opts_);
    RCC_RETURN_IF_ERROR(driver->RestoreStaged(staged_));
    return driver->SyncGrown(rc, kind, receiver);
  }
  std::unique_ptr<ServingDriver> driver;

 private:
  const ServeOptions& opts_;
  std::vector<uint8_t> staged_;
};

ServeReport ServingDriver::RunStandbyJoiner(sim::Endpoint& ep, kv::Store* store,
                                            const ServeOptions& opts, int index,
                                            trace::Recorder* rec) {
  // The exits before the serving loop skip Finish, so they apply the
  // exit dump rule here.
  const auto aborted = [&ep] {
    obs::DumpIfUnexplainedExit(ep, /*aborted=*/true);
    ServeReport r;
    r.aborted = true;
    return r;
  };
  auto entry = store->WaitEntry(&ep, StandbyKey(opts.session, index));
  if (!entry.ok()) return aborted();
  const std::string session(entry.value().value.begin(),
                            entry.value().value.end());
  if (session.empty()) {
    // Released at drain without being needed.
    ServeReport r;
    r.idle_standby = true;
    return r;
  }
  Standby standby(opts);
  core::StepBoundary::Admission adm =
      core::StepBoundary::Join(ep, &standby, store, session, /*joiners=*/1,
                               /*async=*/true, opts.policy, rec);
  if (adm.rc == nullptr || !adm.synced.ok()) return aborted();
  return standby.driver->Loop();
}

ServeReport ServingDriver::Loop() {
  sim::Endpoint& ep = rc_->endpoint();
  const size_t hidden = static_cast<size_t>(opts_.hidden < 1 ? 1 : opts_.hidden);
  std::vector<float> send(hidden), recv(hidden);
  // Activation i of a step is ((step + i) mod 97 + rank + 1) * 1e-3: a
  // window of `hidden` floats at offset step mod 97 into one table per
  // rank (rebuilt when a repair renumbers this rank).
  std::vector<float> activations;
  int activations_rank = -1;
  std::vector<double> ttft;  // drained from the batcher every step
  size_t exported_completions = 0;
  int64_t exported_replays = 0;
  obs::flight::Ring* fly = ep.log();
  size_t flight_completions = batcher_.completions().size();

  for (;;) {
    if (!PollAdmission(/*finalize=*/false)) return Finish(/*aborted=*/true);

    int prompt_tokens = 0;
    const int scheduled = batcher_.Admit(stream_, t_sync_, &prompt_tokens);
    if (scheduled > 0) {
      fly->Record(obs::flight::Ev::kServeAdmit, t_sync_, scheduled,
                  batcher_.waiting(), static_cast<double>(prompt_tokens));
    }

    if (batcher_.running() == 0) {
      if (batcher_.Drained(static_cast<int>(stream_.size()))) {
        if (!PollAdmission(/*finalize=*/true)) return Finish(/*aborted=*/true);
        ReleaseStandbys();
        break;
      }
      // Idle: jump the agreed clock to the next arrival. Every rank
      // computes the same target, so no re-agreement is needed.
      const double next =
          stream_[static_cast<size_t>(batcher_.next_arrival())].arrival;
      if (next > t_sync_) t_sync_ = next;
      ep.AdvanceTo(t_sync_);
      continue;
    }

    // Scaling decisions pause while an admission is in flight so the
    // rendezvous membership cannot change under the joiner.
    if (!rc_->expand_pending()) {
      const int load = batcher_.waiting() + batcher_.running();
      const ScaleDecision d = ctl_.Decide(batcher_.waiting(), load,
                                          rc_->size(), batcher_.steps());
      if (d == ScaleDecision::kExpand) {
        if (!ScaleUp()) return Finish(/*aborted=*/true);
      } else if (d == ScaleDecision::kShrink) {
        ++report_.shrinks;
        if (rc_->rank() == rc_->size() - 1) {
          ulfm::LeaveGracefully(ep, rc_->host());
          ServeReport r = Finish(/*aborted=*/false);
          r.left = true;
          return r;
        }
        // Survivors fall through; their decode step repairs down.
      }
    }

    // One decode step: prefill for the newly scheduled sequences plus
    // one token for every running sequence, then the tensor-parallel
    // activation allreduce. A failure anywhere inside is repaired by
    // the resilient op, which re-executes only this step.
    const double step_start = t_sync_;
    const int batch = batcher_.batch_tokens();
    ep.Compute(opts_.flops_per_token * (batch + prompt_tokens));
    if (activations_rank != rc_->rank()) {
      activations_rank = rc_->rank();
      const int rank_offset = activations_rank + 1;
      activations.resize(97 + hidden);
      for (size_t j = 0; j < activations.size(); ++j) {
        const int64_t residue = static_cast<int64_t>(j % 97);
        activations[j] = static_cast<float>(residue + rank_offset) * 1e-3f;
      }
    }
    std::memcpy(send.data(),
                activations.data() + static_cast<size_t>(batcher_.steps() % 97),
                hidden * sizeof(float));
    Status st =
        rc_->Allreduce(send.data(), recv.data(), hidden, opts_.decode_cost_scale);
    if (!st.ok()) return Finish(/*aborted=*/true);

    const int rdelta = rc_->repairs() - last_repairs_;
    const bool recovery = rdelta > 0;
    if (recovery) {
      last_repairs_ = rc_->repairs();
      report_.repairs += rdelta;
      ++report_.recovery_steps;
      if (opts_.mode == RecoveryMode::kTeardownRebuild) {
        TeardownPenalty();
        if (!ep.alive()) return Finish(/*aborted=*/true);
      }
    }

    if (!AgreeClock().ok()) return Finish(/*aborted=*/true);
    const double step_seconds = t_sync_ - step_start;
    batcher_.CommitStep(stream_, t_sync_, recv[0], step_seconds);

    const std::vector<Completion>& done_list = batcher_.completions();
    for (size_t i = flight_completions; i < done_list.size(); ++i) {
      const Completion& c = done_list[i];
      fly->Record(obs::flight::Ev::kServeComplete, c.done, c.id, c.tokens,
                  c.done - c.admit);
    }
    flight_completions = done_list.size();

    batcher_.TakeFirstTokenLatencies(&ttft);
    if (rc_->rank() == 0) {
      ExportStepMetrics(step_seconds, batch, recovery);
      obs::Histogram* h = metrics_.ttft.Get();
      for (double v : ttft) h->Observe(v);
      const size_t done = batcher_.completions().size();
      metrics_.completions->Add(
          static_cast<double>(done - exported_completions));
      exported_completions = done;
      metrics_.decode_replays->Add(
          static_cast<double>(decode_replays_ - exported_replays));
      exported_replays = decode_replays_;
    } else {
      // Keep the export cursors current so a later rank-0 handover only
      // exports the post-handover deltas.
      exported_completions = batcher_.completions().size();
      exported_replays = decode_replays_;
    }
  }
  return Finish(/*aborted=*/false);
}

Status ServingDriver::AgreeClock() {
  const double now = rc_->endpoint().now();
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(now));
  std::memcpy(&bits, &now, sizeof(bits));
  RCC_RETURN_IF_ERROR(rc_->AllgatherU64(bits, &clock_words_));
  double agreed = t_sync_;
  for (uint64_t b : clock_words_) {
    double v = 0.0;
    std::memcpy(&v, &b, sizeof(v));
    if (v > agreed) agreed = v;
  }
  t_sync_ = agreed;
  return Status::Ok();
}

bool ServingDriver::PollAdmission(bool finalize) {
  if (!rc_->expand_pending()) return true;
  const core::StepBoundary::Outcome polled = boundary_.Poll(finalize);
  if (polled == core::StepBoundary::Outcome::kGrew) ++report_.expands;
  // An abandoned admission (timeout) leaves the membership unchanged and
  // serving continues degraded. Only our own death stops us.
  return polled != core::StepBoundary::Outcome::kAbort &&
         rc_->endpoint().alive();
}

Status ServingDriver::SyncGrown(core::ResilientComm* rc, Sync /*kind*/,
                                bool receiver) {
  std::vector<uint8_t> blob;
  RCC_RETURN_IF_ERROR(rc->BcastBlob(&blob, [this] { return Capture(); }, 1.0));
  if (receiver) RCC_RETURN_IF_ERROR(RestoreStaged(blob));
  return Status::Ok();
}

bool ServingDriver::ScaleUp() {
  const int slot = ctl_.expands_begun() - 1;  // Decide() already advanced it
  if (opts_.store == nullptr) return true;  // nothing to wake; serve on
  const std::string session =
      opts_.session + "-exp" + std::to_string(slot);
  if (rc_->rank() == 0) {
    // Wakes the standby parked on this slot (a store write cannot fail).
    (void)opts_.store->SetString(&rc_->endpoint(),
                                 StandbyKey(opts_.session, slot), session);
  }
  return boundary_.BeginAsync(session, /*joiners=*/1);
}

void ServingDriver::TeardownPenalty() {
  // Gloo-style recovery: the surviving job tears down, re-initializes the
  // stack from scratch, rebroadcasts the full model state, and has lost
  // every KV cache. Charged on top of the (already paid) repair that the
  // shared substrate performed, standing in for the whole
  // exception-unwind + re-bootstrap sequence of the baseline runtime.
  sim::Endpoint& ep = rc_->endpoint();
  const sim::SimConfig& cfg = ep.fabric().config();
  ep.Busy(cfg.costs.eh_exception_catch + cfg.costs.eh_shutdown +
          cfg.costs.eh_gloo_reinit + cfg.costs.eh_elastic_reinit);
  ep.Busy(nccl::Comm::InitCost(cfg, rc_->size()));
  // The rebroadcast is priced at the declared model size. Every rank
  // holds the same replicated state, so every rank derives the same
  // per-byte scale (binomial forwarders price their sends with it too).
  std::vector<uint8_t> blob = Capture();
  const double scale = opts_.model_bytes / static_cast<double>(blob.size());
  (void)rc_->BcastBlob(&blob, [&blob] { return blob; }, scale);
  batcher_.RestartRunning();
}

void ServingDriver::ReleaseStandbys() {
  if (opts_.store == nullptr || rc_->rank() != 0) return;
  for (int i = ctl_.expands_begun(); i < opts_.autoscale.standby_pool; ++i) {
    (void)opts_.store->SetString(&rc_->endpoint(),
                                 StandbyKey(opts_.session, i), "");
  }
}

void ServingDriver::ExportStepMetrics(double step_seconds, int committed_tokens,
                                      bool recovery_step) {
  obs::Histogram* tok = metrics_.token.Get();
  for (int i = 0; i < committed_tokens; ++i) tok->Observe(step_seconds);
  metrics_.tokens->Add(static_cast<double>(committed_tokens));
  metrics_.queue_depth->Set(batcher_.waiting());
  metrics_.world_size->Set(rc_->size());
  const double goodput =
      step_seconds > 0 ? committed_tokens / step_seconds : 0.0;
  metrics_.goodput->Set(goodput);
  if (recovery_step) {
    metrics_.recovery_steps->Increment();
    metrics_.recovery_seconds->Add(step_seconds);
    metrics_.recovery_tokens->Add(static_cast<double>(committed_tokens));
    metrics_.recovery_goodput->Set(goodput);
  }
}

ServeReport ServingDriver::Finish(bool aborted) {
  sim::Endpoint& ep = rc_->endpoint();
  if (aborted) ep.log()->Record(obs::flight::Ev::kSelfAbort, ep.now());
  obs::DumpIfUnexplainedExit(ep, aborted);
  ServeReport r = report_;
  r.aborted = aborted;
  // Repairs that landed after the last step's bookkeeping (e.g. inside
  // the final clock agreement) still count.
  r.repairs += rc_->repairs() - last_repairs_;
  r.completed = static_cast<int>(batcher_.completions().size());
  r.digest = batcher_.digest();
  r.completions = batcher_.completions();
  r.final_world = rc_->size();
  r.steps = batcher_.steps();
  r.end_time = t_sync_;
  return r;
}

std::vector<uint8_t> ServingDriver::Capture() const {
  ByteWriter w;
  w.WriteF64(t_sync_);
  w.WriteBytes(batcher_.Serialize());
  ctl_.Serialize(&w);
  return w.data();
}

Status ServingDriver::RestoreStaged(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  RCC_RETURN_IF_ERROR(r.ReadF64(&t_sync_));
  std::vector<uint8_t> b;
  RCC_RETURN_IF_ERROR(r.ReadBytes(&b));
  RCC_RETURN_IF_ERROR(batcher_.Restore(b));
  RCC_RETURN_IF_ERROR(ctl_.Restore(&r));
  if (!r.AtEnd()) return Status(Code::kIoError, "trailing serving state");
  return Status::Ok();
}

}  // namespace rcc::serve
