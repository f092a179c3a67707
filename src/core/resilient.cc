#include "core/resilient.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "coll/algorithms.h"
#include "common/env.h"
#include "common/log.h"
#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rcc::core {

namespace {
std::string NcclId(const mpi::Comm& comm) {
  return "ulfm-ctx-" + std::to_string(comm.context_id());
}

// Agreement contribution of a rank that needs no replay: MIN-neutral.
constexpr int64_t kNoIncompleteOp = std::numeric_limits<int64_t>::max();
}  // namespace

std::function<bool(int, int64_t)> ResilientComm::test_replay_skip_;

void ResilientComm::TestOnlySetReplaySkip(
    std::function<bool(int pid, int64_t op_id)> fn) {
  test_replay_skip_ = std::move(fn);
}

ResilientComm::ResilientComm(sim::Endpoint& ep, const std::vector<int>& pids,
                             horovod::DropPolicy policy,
                             trace::Recorder* rec)
    : ResilientComm(ep, mpi::Comm::World(ep, pids), policy, rec) {
  // A failed init (a founder dying during the bootstrap barrier) is
  // deferred: the first resilient operation observes it and runs the
  // repair protocol with every survivor in lockstep.
  gpu_init_status_ = InitGpu("init/");
}

ResilientComm::ResilientComm(sim::Endpoint& ep, mpi::Comm comm,
                             horovod::DropPolicy policy, trace::Recorder* rec)
    : ep_(ep),
      comm_(std::make_unique<mpi::Comm>(std::move(comm))),
      policy_(policy),
      rec_(rec),
      flight_(ep.log()) {
  if (rec_ != nullptr) rec_->Attach(ep);
}

std::unique_ptr<ResilientComm> ResilientComm::JoinExisting(
    sim::Endpoint& ep, const std::string& session, int expected_joiners,
    horovod::DropPolicy policy, trace::Recorder* rec) {
  int64_t agreed_counter = 0;
  Result<mpi::Comm> joined = [&] {
    obs::Span span(rec, ep,
                   std::string("recovery/") + horovod::phase::kUlfmExpand);
    return ulfm::ExpandComm(ep, nullptr, session, expected_joiners,
                            /*op_counter=*/0, &agreed_counter);
  }();
  if (!joined.ok()) return nullptr;
  auto rc = std::unique_ptr<ResilientComm>(
      new ResilientComm(ep, joined.take(), policy, rec));
  // Adopt the survivors' op counter so this rank's resilient ops share
  // ids with theirs: the post-repair MIN agreement compares op ids
  // across ranks, and a fresh counter would make a joiner's first op
  // look long-complete to it (it would skip the aligned re-execution
  // and leave the survivors re-running the collective without it).
  rc->op_counter_ = static_cast<uint64_t>(agreed_counter);
  // Defer a failed init (a member dying while the merged communicator
  // bootstraps, e.g. another joiner killed mid-join) exactly like the
  // founding constructor: the first resilient operation observes it and
  // repairs with every survivor in lockstep. Only a self-death aborts
  // the join.
  rc->gpu_init_status_ = rc->InitGpu("recovery/");
  if (rc->gpu_init_status_.code() == Code::kAborted) return nullptr;
  return rc;
}

Status ResilientComm::InitGpu(const char* phase_prefix,
                              double init_cost_scale) {
  obs::Span span(rec_, ep_,
                 std::string(phase_prefix) + horovod::phase::kNcclReinit);
  // The communicator being replaced keeps its service seconds for the
  // next TakeCommServiceSeconds.
  if (gpu_ != nullptr) retired_service_ += gpu_->TakeServiceSeconds();
  gpu_ = nccl::Comm::InitRank(ep_, comm_->pids(), NcclId(*comm_),
                              /*cost_scale=*/1.0, init_cost_scale);
  if (gpu_ == nullptr) {
    return Status(Code::kProcFailed, "nccl init failed");
  }
  return Status::Ok();
}

bool ResilientComm::ShouldLeaveNode() const {
  if (policy_ != horovod::DropPolicy::kNode) return false;
  sim::Fabric& fabric = ep_.fabric();
  for (int pid : comm_->pids()) {
    // A graceful leave is not a node failure.
    if (!fabric.IsAlive(pid) && !fabric.Left(pid) &&
        fabric.NodeOf(pid) == ep_.node()) {
      return true;
    }
  }
  return false;
}

Status ResilientComm::Repair(const Status& failure) {
  if (!ep_.alive()) return Status(Code::kAborted, "self dead");
  ++repairs_;
  const int64_t repair = repairs_;
  ep_.metrics().GetCounter("rcc_recovery_repairs_total")->Increment();
  const double repair_t0 = ep_.now();
  const std::vector<int> prior_pids = comm_->pids();
  const std::vector<int> noted_failed = failure.failed_pids();
  obs::flight::Logs& logs = ep_.fabric().logs();
  flight_->Record(obs::flight::Ev::kRepairBegin, repair_t0, repair);
  for (int pid : noted_failed) {
    flight_->Record(obs::flight::Ev::kFailureDetected, repair_t0, pid);
    logs.NoteFailureDetected(ep_.metrics(), pid, repair_t0);
  }
  RCC_LOG(kDebug) << "pid " << ep_.pid() << " repair start: "
                  << failure.ToString();
  {
    obs::Span span(rec_, ep_,
                   std::string("recovery/") + horovod::phase::kUlfmRepair);
    {
      // Error-handler path (Section 3.1): revoke to interrupt every rank
      // still blocked in the broken collective, acknowledge the
      // failures, then agree + shrink.
      obs::Span revoke(rec_, ep_, "recovery/revoke");
      comm_->NoteFailedPids(failure.failed_pids());
      ulfm::Revoke(*comm_);
      ulfm::FailureAck(*comm_);
      revoke.SetRecoveryPhase(obs::flight::Phase::kRevoke, repair);
    }
    if (ShouldLeaveNode()) {
      // Node-drop policy: this process's host lost a member, so it
      // leaves the training job immediately; the survivors' shrink
      // excludes it.
      ep_.fabric().Kill(ep_.pid());
      return Status(Code::kAborted, "left with blacklisted node");
    }
    // Shrink until the membership is stable. Node-drop leavers above may
    // die concurrently with the first shrink; the stability check is
    // itself an agreement so every survivor takes the same number of
    // shrink rounds.
    obs::Span shrink_span(rec_, ep_, "recovery/shrink");
    auto shrunk = ulfm::Shrink(*comm_);
    if (!shrunk.ok()) return shrunk.status();
    for (;;) {
      int stable = 1;
      for (int pid : shrunk.value().pids()) {
        if (!ep_.fabric().IsAlive(pid)) stable = 0;
      }
      auto verdict = ulfm::Agree(shrunk.value(), stable);
      if (!verdict.ok()) return verdict.status();
      if (verdict.value().flag == 1 && verdict.value().failed_pids.empty()) {
        break;
      }
      auto again = ulfm::Shrink(shrunk.value());
      if (!again.ok()) return again.status();
      shrunk = std::move(again);
    }
    comm_ = std::make_unique<mpi::Comm>(shrunk.take());
    shrink_span.SetRecoveryPhase(obs::flight::Phase::kShrink, repair);
  }
  // Rebuild the GPU communicator, agreeing each round on success: a
  // member dying *during* the rebuild sends every survivor back through
  // another shrink together (op streams stay aligned).
  const double rebuild_t0 = ep_.now();
  for (;;) {
    if (gpu_ != nullptr) gpu_->Abort();
    gpu_init_status_ = InitGpu("recovery/");
    if (gpu_init_status_.code() == Code::kAborted) return gpu_init_status_;
    auto verdict = ulfm::Agree(*comm_, gpu_init_status_.ok() ? 1 : 0);
    if (!verdict.ok()) return verdict.status();
    if (verdict.value().flag == 1 && verdict.value().failed_pids.empty()) {
      break;
    }
    Status again = gpu_init_status_.ok()
                       ? Status::ProcFailed(verdict.value().failed_pids,
                                            "peer failed during gpu rebuild")
                       : gpu_init_status_;
    obs::Span span(rec_, ep_,
                   std::string("recovery/") + horovod::phase::kUlfmRepair);
    comm_->NoteFailedPids(again.failed_pids());
    ulfm::Revoke(*comm_);
    if (ShouldLeaveNode()) {
      ep_.fabric().Kill(ep_.pid());
      return Status(Code::kAborted, "left with blacklisted node");
    }
    auto shrunk = ulfm::Shrink(*comm_);
    if (!shrunk.ok()) return shrunk.status();
    comm_ = std::make_unique<mpi::Comm>(shrunk.take());
  }
  obs::flight::RecordRecoveryPhase(ep_.metrics(), flight_,
                                   obs::flight::Phase::kRebuild, ep_.now(),
                                   repair, ep_.now() - rebuild_t0);
  // The triggering Status often lacks the casualty list (a collective
  // reports a generic peer failure; the pids only become certain after
  // the shrink agreement). Attribute every member that dropped out of
  // the communicator during this repair, stamped at detection time.
  const std::vector<int>& now_pids = comm_->pids();
  for (int pid : prior_pids) {
    if (std::find(now_pids.begin(), now_pids.end(), pid) != now_pids.end()) {
      continue;
    }
    if (std::find(noted_failed.begin(), noted_failed.end(), pid) !=
        noted_failed.end()) {
      continue;
    }
    flight_->Record(obs::flight::Ev::kFailureDetected, repair_t0, pid);
    logs.NoteFailureDetected(ep_.metrics(), pid, repair_t0);
  }
  flight_->Record(obs::flight::Ev::kRepairDone, ep_.now(), repair, 0,
                  ep_.now() - repair_t0);
  RCC_LOG(kDebug) << "pid " << ep_.pid() << " repair done";
  return Status::Ok();
}

ResilientComm::WindowOp& ResilientComm::Post(int64_t count, double bytes) {
  WindowOp& op = window_.emplace_back();
  op.id = static_cast<int64_t>(++op_counter_);
  flight_->Record(obs::flight::Ev::kCollPost, ep_.now(), op.id, count, bytes);
  return op;
}

Status ResilientComm::WaitOp(WindowOp* op) {
  // An active request belongs to the current GPU communicator (see
  // RecoverWindow); an entry without one was never submitted (no GPU
  // communicator at its post) or its failure is being recovered.
  Status st = op->req.active()
                  ? gpu_->Wait(&op->req)
                  : (gpu_init_status_.ok()
                         ? Status(Code::kInternal,
                                  "windowed op has no live request")
                         : gpu_init_status_);
  if (st.ok()) {
    op->done = true;
    const coll::Request::Info& info = op->req.info();
    flight_->Record(obs::flight::Ev::kOp, op->req.complete_time(), op->id,
                    std::llround(info.bytes), op->req.submit_time(),
                    algo_names_.For(info.algo)->id);
    RecordWindowDepth();
  }
  return st;
}

Status ResilientComm::DrainRequests() {
  Status first;
  for (auto& op : window_) {
    // A host entry runs inline: one not done failed, and that failure is
    // already being recovered.
    if (op.done || op.host != nullptr) continue;
    Status st = WaitOp(&op);
    if (st.code() == Code::kAborted) return st;
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

int64_t ResilientComm::FirstIncompleteWindowOp() const {
  for (const auto& op : window_) {
    if (!op.done) return op.id;
  }
  return kNoIncompleteOp;
}

Status ResilientComm::ReplayWindowFrom(int64_t min_id) {
  obs::Counter* replayed = replayed_ops_.Get();
  const double replay_t0 = ep_.now();
  int64_t depth = 0;
  std::vector<float> scratch;  // planted-fault sink, see below
  for (auto& op : window_) {
    if (op.id < min_id) continue;
    obs::Span span(rec_, ep_, retry_phase_);
    Status st;
    bool applied = true;
    if (op.host != nullptr) {
      st = (*op.host)();
    } else {
      if (gpu_ == nullptr) return gpu_init_status_;
      // Planted fault (test-only): participate in the re-execution — the
      // collective needs every member — but drop the result, leaving
      // this rank's recvbuf stale, as a "replayed but never applied" bug
      // would.
      float* dst = op.recvbuf;
      if (test_replay_skip_ && test_replay_skip_(ep_.pid(), op.id)) {
        scratch.assign(op.count, 0.0f);
        dst = scratch.data();
        applied = false;
      }
      gpu_->set_cost_scale(op.cost_scale);
      st = gpu_->Allreduce<float>(op.sendbuf, dst, op.count);
      gpu_->set_cost_scale(1.0);
    }
    if (!st.ok()) return st;
    op.done = true;
    op.req = coll::Request();  // the pre-failure request is retired
    if (!applied) continue;  // planted fault: no audit record
    replayed->Increment();
    flight_->Record(obs::flight::Ev::kCollReplay, ep_.now(), op.id, min_id);
    ++depth;
    if (replay_hook_) replay_hook_(op.id, min_id);
  }
  obs::flight::RecordRecoveryPhase(ep_.metrics(), flight_,
                                   obs::flight::Phase::kReplay, ep_.now(),
                                   repairs_, ep_.now() - replay_t0);
  ep_.metrics()
      .GetHistogram("rcc_recovery_replay_depth")
      ->Observe(static_cast<double>(depth));
  return Status::Ok();
}

Result<ulfm::AgreeOutcome> ResilientComm::Agree(int64_t contribution) {
  obs::Span span(rec_, ep_, agree_phase_);
  auto verdict = ulfm::Agree(*comm_, /*flag=*/1, contribution);
  if (verdict.ok()) {
    span.SetRecoveryPhase(obs::flight::Phase::kAgree, repairs_);
  }
  return verdict;
}

void ResilientComm::RecordWindowDepth() {
  if (!sample_depth_) return;
  flight_->Record(obs::flight::Ev::kCounter, ep_.now(), 0, 0,
                  static_cast<double>(inflight()), window_depth_name_);
}

Status ResilientComm::RecoverWindow(Status failure, bool* need_sync) {
  *need_sync = true;
  for (;;) {
    Status drained = DrainRequests();
    if (drained.code() == Code::kAborted) return drained;
    // Every incomplete entry's request, if it has one, has failed. Retire
    // them before Repair replaces (or, dying, drops) the GPU communicator,
    // so no later wait reaches a communicator that did not submit it.
    for (auto& op : window_) {
      if (!op.done) op.req = coll::Request();
    }
    RCC_RETURN_IF_ERROR(Repair(failure));
    // ONE agreement per repair on the earliest op id whose data any
    // survivor still needs (see header).
    auto verdict = Agree(FirstIncompleteWindowOp());
    if (!verdict.ok()) return verdict.status();
    const int64_t min_id = verdict.value().min_value;
    const int64_t last_submitted = window_.empty() ? 0 : window_.back().id;
    if (min_id == kNoIncompleteOp || min_id > last_submitted) {
      // No survivor needs anything this rank submitted: the repair
      // synchronized us. The closing sync must not be re-run (ranks
      // already past it will not participate again).
      *need_sync = false;
      return Status::Ok();
    }
    // Forward recovery: re-execute every op >= MIN in program order on
    // the shrunk communicator, from the preserved inputs, so the
    // survivors' contributions carry over and the mini-batch continues
    // (the paper's Fig. 2).
    Status st = ReplayWindowFrom(min_id);
    if (st.ok()) return Status::Ok();
    if (st.code() == Code::kAborted) return st;
    failure = st;  // the repaired communicator broke again: next round
  }
}

Status ResilientComm::ClosingSync() {
  if (window_.front().host != nullptr) return comm_->Barrier();
  if (gpu_ == nullptr) return gpu_init_status_;
  gpu_->set_cost_scale(1.0);
  return gpu_->Barrier();
}

int ResilientComm::inflight() const {
  int n = 0;
  for (const auto& op : window_) {
    if (!op.done) ++n;
  }
  return n;
}

Status ResilientComm::IAllreduce(const float* sendbuf, float* recvbuf,
                                 size_t count, double cost_scale) {
  if (!ep_.alive()) return Status(Code::kAborted, "self dead");
  WindowOp& op =
      Post(static_cast<int64_t>(count),
           static_cast<double>(count * sizeof(float)) * cost_scale);
  op.sendbuf = sendbuf;
  op.recvbuf = recvbuf;
  op.count = count;
  op.cost_scale = cost_scale;
  // A missing GPU communicator (deferred init failure) is surfaced by
  // WaitOp; the recovery path rebuilds it before replaying.
  if (gpu_ != nullptr) {
    gpu_->set_cost_scale(cost_scale);
    op.req = gpu_->IAllreduce<float>(sendbuf, recvbuf, count);
    gpu_->set_cost_scale(1.0);
  }
  RecordWindowDepth();
  // Bound the in-flight window on the oldest outstanding op.
  while (inflight() > max_inflight_) {
    WindowOp* oldest = nullptr;
    for (auto& w : window_) {
      if (!w.done) {
        oldest = &w;
        break;
      }
    }
    Status st = WaitOp(oldest);
    if (st.ok()) continue;
    if (st.code() == Code::kAborted) return st;
    bool need_sync = false;
    RCC_RETURN_IF_ERROR(RecoverWindow(st, &need_sync));
  }
  return Status::Ok();
}

Status ResilientComm::WaitAll() {
  if (window_.empty()) return Status::Ok();
  return CloseFrom(Status::Ok());
}

Status ResilientComm::CloseFrom(Status st) {
  for (;;) {
    if (st.ok()) st = DrainRequests();
    if (st.ok()) st = ClosingSync();
    if (st.ok() || st.code() == Code::kAborted) break;
    bool need_sync = true;
    st = RecoverWindow(st, &need_sync);
    if (!st.ok() || !need_sync) break;
    // Replays completed: re-run the closing sync with every rank still
    // inside the window.
  }
  // An abort leaves later ops queued behind the failed one; they still
  // read the caller's buffers when they run, so wait for each (in zero
  // virtual time: the clock is not merged) before the buffers may go.
  for (auto& op : window_) {
    if (op.req.active()) (void)op.req.Join();
  }
  window_.clear();
  return st;
}

Status ResilientComm::Allreduce(const float* sendbuf, float* recvbuf,
                                size_t count, double cost_scale) {
  RCC_RETURN_IF_ERROR(IAllreduce(sendbuf, recvbuf, count, cost_scale));
  return WaitAll();
}

Status ResilientComm::RunHostOp(common::FunctionRef<Status()> data,
                                int64_t count, double bytes) {
  RCC_RETURN_IF_ERROR(WaitAll());  // a host entry is alone in its window
  WindowOp& op = Post(count, bytes);
  op.host = &data;
  const double post_t = ep_.now();
  Status st = data();
  if (st.ok()) {
    op.done = true;
    flight_->Record(obs::flight::Ev::kCollComplete, ep_.now(), op.id, 0,
                    ep_.now() - post_t);
  }
  return CloseFrom(st);
}

Status ResilientComm::BcastBlob(
    std::vector<uint8_t>* blob,
    const std::function<std::vector<uint8_t>()>& produce, double cost_scale) {
  // A failed attempt cannot tell a receiver's complete blob from a
  // partial one, so only a produced blob or a completed attempt counts.
  bool held = false;
  auto data = [&]() -> Status {
    if (comm_->rank() == 0 && !held) {
      *blob = produce();
      held = true;
    }
    comm_->set_cost_scale(cost_scale);
    Status st = comm_->BcastBlob(blob, /*root=*/0);
    comm_->set_cost_scale(1.0);
    if (st.ok()) held = true;
    return st;
  };
  // The blob's length is its root's: a post knows neither it nor bytes.
  return RunHostOp(data, 0, 0.0);
}

Status ResilientComm::AllgatherU64(uint64_t mine,
                                   std::vector<uint64_t>* all) {
  auto data = [&] {
    all->assign(comm_->size(), 0);
    return comm_->Allgather<uint64_t>(&mine, all->data(), 1);
  };
  return RunHostOp(data, 1, sizeof(uint64_t));
}

double ResilientComm::TakeCommServiceSeconds() {
  double s = retired_service_;
  retired_service_ = 0.0;
  if (gpu_ != nullptr) s += gpu_->TakeServiceSeconds();
  return s;
}

Status ResilientComm::Expand(const std::string& session, int joiner_count) {
  int64_t agreed_counter = 0;
  Result<mpi::Comm> next = [&] {
    obs::Span span(rec_, ep_,
                   std::string("recovery/") + horovod::phase::kUlfmExpand);
    return ulfm::ExpandComm(ep_, comm_.get(), session, joiner_count,
                            static_cast<int64_t>(op_counter_),
                            &agreed_counter);
  }();
  if (!next.ok()) return next.status();
  comm_ = std::make_unique<mpi::Comm>(next.take());
  if (gpu_ != nullptr) gpu_->Abort();
  // Defer a failed rebuild (a joiner dying while the expanded GPU
  // communicator bootstraps) like the founding constructor: the next
  // resilient op repairs, shrinking the dead joiner out. Aborting here
  // would take every survivor down with one dead joiner.
  gpu_init_status_ = InitGpu("recovery/");
  if (gpu_init_status_.code() == Code::kAborted) return gpu_init_status_;
  return Status::Ok();
}

// --- asynchronous admission ---

double ExpandDeltaFrac() {
  static const double frac =
      common::EnvDouble("RCC_EXPAND_DELTA_FRAC", 0.05);
  return frac;
}

namespace {
std::string ExpandKvPrefix(const std::string& session) {
  return "expand/" + session + "/";
}

void CountAdmission(sim::Endpoint& ep, const char* outcome) {
  ep.metrics()
      .GetCounter("rcc_admission_total", {{"outcome", outcome}})
      ->Increment();
}
}  // namespace

Status ResilientComm::ExpandAsyncBegin(kv::Store* store,
                                       const std::string& session,
                                       int joiner_count,
                                       const std::vector<uint8_t>& snapshot,
                                       double declared_bytes) {
  // A still-pending previous expand is forced to a decision first (one
  // admission window at a time keeps the registry and metrics simple).
  if (expand_op_.active) ExpandPoll(/*finalize=*/true);
  if (!ep_.alive()) return Status(Code::kAborted, "self dead");
  const sim::Seconds t0 = ep_.now();
  {
    obs::Span span(rec_, ep_,
                   std::string("recovery/") + horovod::phase::kExpandBegin);
    if (comm_->rank() == 0) {
      // Publish the versioned snapshot the joiners stage from. The
      // upload is charged at the declared size; joiners pay the
      // symmetric download during staging, off the survivors' clocks.
      ByteWriter meta;
      meta.WriteI32(size());
      meta.WriteI32(joiner_count);
      meta.WriteF64(declared_bytes);
      RCC_RETURN_IF_ERROR(
          store->Set(&ep_, ExpandKvPrefix(session) + "meta", meta.Take()));
      ep_.Busy(declared_bytes / ep_.fabric().config().net.inter_bandwidth);
      if (!ep_.alive()) return Status(Code::kAborted, "self dead");
      RCC_RETURN_IF_ERROR(
          store->Set(&ep_, ExpandKvPrefix(session) + "snapshot", snapshot));
    }
    RCC_RETURN_IF_ERROR(ulfm::ExpandBegin(ep_, *comm_, session, joiner_count,
                                          ulfm::ExpandTimeout(), &expand_op_));
  }
  flight_->Record(obs::flight::Ev::kExpandBegin, ep_.now(), joiner_count);
  expand_store_ = store;
  expand_session_ = session;
  expand_begin_time_ = t0;
  return Status::Ok();
}

ResilientComm::PollResult ResilientComm::ExpandPoll(bool finalize) {
  if (!expand_op_.active) return PollResult::kNone;
  if (!ep_.alive()) return PollResult::kAborted;
  // One cheap probe per poll: the staged/ listing is what a real
  // implementation would watch, and it prices the polling traffic.
  if (expand_store_ != nullptr) {
    expand_store_->ListPrefix(&ep_, ExpandKvPrefix(expand_session_) + "staged/");
  }
  std::unique_ptr<mpi::Comm> merged;
  ulfm::SpliceOutcome outcome;
  auto decided =
      ulfm::ExpandTest(ep_, *comm_, &expand_op_,
                       static_cast<int64_t>(op_counter_), finalize, &merged,
                       &outcome);
  // Only a self-death surfaces as an error status.
  if (!decided.ok()) return PollResult::kAborted;
  if (decided.value() == ulfm::ExpandStatus::kPending) {
    return PollResult::kPending;
  }
  // Terminal outcome: record the admission latency from window open to
  // decision, clean the staging keys (rank 0 of the pre-splice
  // membership, which is a survivor either way).
  const bool cleaner = comm_->rank() == 0 && expand_store_ != nullptr;
  auto clean = [&] {
    if (!cleaner) return;
    expand_store_->Delete(&ep_, ExpandKvPrefix(expand_session_) + "meta");
    expand_store_->Delete(&ep_, ExpandKvPrefix(expand_session_) + "snapshot");
  };
  ep_.metrics()
      .GetHistogram("rcc_admission_latency_seconds",
                    {{"outcome", decided.value() == ulfm::ExpandStatus::kSpliced
                                     ? "spliced"
                                     : "aborted"}})
      ->Observe(ep_.now() - expand_begin_time_);
  if (decided.value() == ulfm::ExpandStatus::kAborted) {
    CountAdmission(ep_, "aborted");
    flight_->Record(obs::flight::Ev::kExpandAbort, ep_.now(), 0, 0,
                    ep_.now() - expand_begin_time_);
    RCC_LOG(kDebug) << "pid " << ep_.pid() << " expand '" << expand_session_
                    << "' aborted; continuing degraded";
    clean();
    return PollResult::kAborted;
  }
  // Splice: install the merged communicator and rebuild the GPU comm.
  // When every joiner pre-established its transports during staging the
  // bootstrap is free (scale 0); the synchronizing barrier still runs,
  // so a member dying mid-splice surfaces here and is deferred to the
  // next resilient op exactly like the blocking Expand.
  CountAdmission(ep_, "spliced");
  {
    obs::Span span(rec_, ep_,
                   std::string("recovery/") + horovod::phase::kExpandSplice);
    const int admitted = merged->size() - comm_->size();
    flight_->Record(obs::flight::Ev::kExpandSplice, ep_.now(), admitted, 0,
                    ep_.now() - expand_begin_time_);
    comm_ = std::move(merged);
    if (gpu_ != nullptr) gpu_->Abort();
    op_counter_ = std::max(op_counter_,
                           static_cast<uint64_t>(outcome.agreed_counter));
    gpu_init_status_ = InitGpu("recovery/", outcome.prestaged ? 0.0 : 1.0);
  }
  clean();
  if (gpu_init_status_.code() == Code::kAborted) return PollResult::kAborted;
  return PollResult::kSpliced;
}

std::unique_ptr<ResilientComm> ResilientComm::JoinAsync(
    sim::Endpoint& ep, kv::Store* store, const std::string& session,
    horovod::DropPolicy policy, trace::Recorder* rec,
    const std::function<Status(const std::vector<uint8_t>&)>& restore_fn) {
  obs::flight::Ring* fly = ep.log();
  if (!ulfm::AnnounceJoiner(ep, session).ok()) return nullptr;
  fly->Record(obs::flight::Ev::kJoinAnnounce, ep.now());
  int candidate_world = 0;
  {
    obs::Span span(rec, ep,
                   std::string("recovery/") + horovod::phase::kStateStage);
    auto meta = store->WaitEntry(&ep, ExpandKvPrefix(session) + "meta");
    if (!meta.ok()) return nullptr;  // caller died waiting
    ByteReader r(meta.value().value);
    int32_t world = 0;
    int32_t count = 0;
    double declared = 0.0;
    if (!r.ReadI32(&world).ok() || !r.ReadI32(&count).ok() ||
        !r.ReadF64(&declared).ok()) {
      if (ep.alive()) {
        fly->Record(obs::flight::Ev::kJoinWithdraw, ep.now());
        ulfm::WithdrawJoiner(ep, session);
      }
      return nullptr;
    }
    candidate_world = world + count;
    auto snap = store->Wait(&ep, ExpandKvPrefix(session) + "snapshot");
    if (!snap.ok()) return nullptr;
    // Download at the declared size, then driver-specific restore
    // (deserialize + materialize onto the device).
    ep.Busy(declared / ep.fabric().config().net.inter_bandwidth);
    if (!ep.alive()) return nullptr;
    Status restored = restore_fn(snap.value());
    if (!restored.ok()) {
      // An alive joiner that cannot restore bows out so the survivors'
      // poll round is not left waiting on it until the deadline.
      if (ep.alive()) {
        fly->Record(obs::flight::Ev::kJoinWithdraw, ep.now());
        ulfm::WithdrawJoiner(ep, session);
      }
      return nullptr;
    }
    // Pre-establish the merged GPU transports (hot-standby bring-up):
    // the full bootstrap cost lands here, off the survivors' clocks,
    // making the splice-time init free.
    ep.Busy(nccl::Comm::InitCost(ep.fabric().config(), candidate_world));
    if (!ep.alive()) return nullptr;
    store->Set(&ep, ExpandKvPrefix(session) + "staged/" +
                        std::to_string(ep.pid()),
               {1});
    if (!ulfm::MarkJoinerStaged(ep, session).ok()) return nullptr;
    fly->Record(obs::flight::Ev::kJoinStaged, ep.now());
  }
  ulfm::SpliceOutcome outcome;
  auto joined = ulfm::AwaitSplice(ep, session, &outcome);
  if (!joined.ok()) return nullptr;  // died, excluded, or survivors gone
  fly->Record(obs::flight::Ev::kJoinSpliced, ep.now(), joined.value().size());
  auto rc = std::unique_ptr<ResilientComm>(
      new ResilientComm(ep, joined.take(), policy, rec));
  // Adopt the survivors' op counter (same reason as JoinExisting).
  rc->op_counter_ = static_cast<uint64_t>(outcome.agreed_counter);
  rc->gpu_init_status_ =
      rc->InitGpu("recovery/", outcome.prestaged ? 0.0 : 1.0);
  if (rc->gpu_init_status_.code() == Code::kAborted) return nullptr;
  return rc;
}

}  // namespace rcc::core
