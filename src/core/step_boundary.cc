#include "core/step_boundary.h"

namespace rcc::core {

StepBoundary::StepBoundary(ResilientComm* rc, ReplicatedState* state,
                           kv::Store* store, policy::Mode mode, Inputs inputs)
    : rc_(rc), state_(state), store_(store), policy_(mode), inputs_(inputs) {}

bool StepBoundary::BeginAsync(const std::string& session, int joiners) {
  std::vector<uint8_t> snapshot;  // only the root's is published
  if (rc_->rank() == 0) snapshot = state_->Capture();
  return rc_
      ->ExpandAsyncBegin(store_, session, joiners, snapshot,
                         state_->DeclaredBytes(snapshot))
      .ok();
}

StepBoundary::Outcome StepBoundary::AdmitBlocking(const std::string& session,
                                                  int joiners) {
  const Status st = rc_->Expand(session, joiners);
  // The joiners never arrived: continue degraded on the old membership.
  if (st.code() == Code::kTimeout) return Outcome::kUnchanged;
  if (!st.ok()) return Outcome::kAbort;
  return state_->SyncGrown(rc_, ReplicatedState::Sync::kFull, false).ok()
             ? Outcome::kGrew
             : Outcome::kAbort;
}

StepBoundary::Outcome StepBoundary::Poll(bool finalize) {
  const ResilientComm::PollResult polled = rc_->ExpandPoll(finalize);
  if (polled == ResilientComm::PollResult::kAborted) {
    return rc_->endpoint().alive() ? Outcome::kUnchanged : Outcome::kAbort;
  }
  if (polled != ResilientComm::PollResult::kSpliced) return Outcome::kUnchanged;
  return state_->SyncGrown(rc_, ReplicatedState::Sync::kCatchUp, false).ok()
             ? Outcome::kGrew
             : Outcome::kAbort;
}

StepBoundary::Admission StepBoundary::Join(
    sim::Endpoint& ep, ReplicatedState* state, kv::Store* store,
    const std::string& session, int joiners, bool async,
    horovod::DropPolicy policy, trace::Recorder* rec,
    const std::function<bool()>& provision) {
  Admission adm;
  // Announcing first lets the members' rendezvous window know the
  // candidate exists before its bring-up finishes.
  if (async && !ulfm::AnnounceJoiner(ep, session).ok()) return adm;
  if (provision && !provision()) return adm;
  if (async) {
    // Stage the published snapshot while the members run, park for the
    // splice, then catch up from the staged snapshot.
    adm.rc = ResilientComm::JoinAsync(
        ep, store, session, policy, rec,
        [state](const std::vector<uint8_t>& blob) {
          return state->RestoreStaged(blob);
        });
  } else {
    adm.rc = ResilientComm::JoinExisting(ep, session, joiners, policy, rec);
  }
  if (adm.rc != nullptr) {
    adm.synced = state->SyncGrown(
        adm.rc.get(),
        async ? ReplicatedState::Sync::kCatchUp : ReplicatedState::Sync::kFull,
        /*receiver=*/true);
  }
  return adm;
}

bool StepBoundary::Decide(
    const std::function<policy::PolicyInputs()>& compose,
    policy::PolicyInputs* agreed, policy::Decision* out) {
  const double t0 = rc_->endpoint().now();
  policy::PolicyInputs in;
  if (inputs_ == Inputs::kRootView) {
    std::vector<uint8_t> blob;
    Status st = rc_->BcastBlob(
        &blob, [&] { return policy::EncodeInputs(compose()); },
        /*cost_scale=*/1.0);
    if (!st.ok() || !policy::DecodeInputs(blob, &in)) return false;
  } else {
    in = compose();
  }
  if (agreed != nullptr) *agreed = in;
  *out = policy_.OnTick(in);
  if (static_cast<policy::EventKind>(in.event) == policy::EventKind::kNone) {
    return true;
  }
  // Recorded back-to-back: the postmortem pairs them by adjacency.
  obs::flight::Ring* ring = rc_->endpoint().log();
  const double now = rc_->endpoint().now();
  ring->Record(obs::flight::Ev::kPolicyInputs, now, in.world, in.event,
               in.mtbf_seconds);
  ring->Record(obs::flight::Ev::kPolicyDecision, now,
               static_cast<int64_t>(out->chosen), in.seq,
               out->cost[static_cast<int>(out->chosen)]);
  ring->Record(obs::flight::Ev::kSpan, now, 0, 0, t0, decide_name_);
  return true;
}

}  // namespace rcc::core
