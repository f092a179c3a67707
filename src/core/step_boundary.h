// The step boundary: the one point between two steps where a driver's
// membership may grow and where the recovery policy decides.
//
// ElasticTrainer, PipelineTrainer and ServingDriver each own one per
// rank. It runs the admission protocol on both sides (members: async
// begin, blocking expand, per-step poll; joiners: Join) and the policy
// decision point (input exchange, PolicyController tick, one decision
// record). A driver supplies its replicated state (ReplicatedState) and
// its policy inputs; its step and the actuation of a decision (rewind,
// reroute, reform, admit) stay in the driver.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/resilient.h"
#include "kvstore/kvstore.h"
#include "obs/flight.h"
#include "policy/policy.h"

namespace rcc::core {

// A driver's replicated state, as the step boundary moves it.
class ReplicatedState {
 public:
  ReplicatedState() = default;
  virtual ~ReplicatedState() = default;
  // The step boundary and the joiner's staging callback hold its address.
  ReplicatedState(const ReplicatedState&) = delete;
  ReplicatedState& operator=(const ReplicatedState&) = delete;
  // The state at the current boundary; runs on the root only.
  virtual std::vector<uint8_t> Capture() const = 0;
  // Declared size of a captured state (the async snapshot's price).
  virtual double DeclaredBytes(const std::vector<uint8_t>& blob) const = 0;
  // Joiner: restores the snapshot it staged while the members ran.
  virtual Status RestoreStaged(const std::vector<uint8_t>& blob) = 0;
  // Collective sync after the membership grew: the catch-up after an
  // async splice (the joiners hold a staged snapshot) or the full sync
  // after a blocking expand. `receiver` is the joining side.
  enum class Sync { kFull, kCatchUp };
  virtual Status SyncGrown(ResilientComm* rc, Sync kind, bool receiver) = 0;
};

class StepBoundary {
 public:
  // Where the policy inputs come from: one rank's view, composed on the
  // broadcast's root and exchanged (the data-parallel trainer), or
  // SPMD-agreed state composed on every member (the pipeline).
  enum class Inputs { kRootView, kAgreed };

  // `state` and `store` may be null for a driver that admits nobody.
  StepBoundary(ResilientComm* rc, ReplicatedState* state, kv::Store* store,
               policy::Mode mode, Inputs inputs = Inputs::kRootView);

  // --- members' admission ---
  // kAbort: this member died, or its sync after the growth failed (a
  // member whose sync failed leaves, whichever driver it runs).
  enum class Outcome { kUnchanged, kGrew, kAbort };
  // Opens an async admission of `joiners` into `session`: the root
  // captures and publishes the state, every member opens the window and
  // keeps going. False: this member died.
  bool BeginAsync(const std::string& session, int joiners);
  // Expand, then the full sync; kUnchanged when the joiners never
  // arrived (the expand timed out: continue degraded).
  Outcome AdmitBlocking(const std::string& session, int joiners);
  // One poll of the pending async admission (kUnchanged when none is
  // pending or it was abandoned); a splice runs the catch-up sync.
  // `finalize` forces a decision.
  Outcome Poll(bool finalize);

  // --- joiner side ---
  struct Admission {
    std::unique_ptr<ResilientComm> rc;  // null: died, excluded, no members
    Status synced;                      // the sync after the join
  };
  // Announces (async), runs `provision` (the joiner's own bring-up;
  // false gives up), then JoinAsync + staged restore + catch-up sync, or
  // JoinExisting (`joiners` admitted together) + full sync, into `state`.
  static Admission Join(sim::Endpoint& ep, ReplicatedState* state,
                        kv::Store* store, const std::string& session,
                        int joiners, bool async, horovod::DropPolicy policy,
                        trace::Recorder* rec,
                        const std::function<bool()>& provision = nullptr);

  // --- the decision point ---
  // One policy tick on the inputs `compose` returns, run on the
  // broadcast's root (kRootView) or on every member (kAgreed). Every
  // member runs the controller on the same bytes; an event tick records
  // the kPolicyInputs/kPolicyDecision pair and a policy/decide span.
  // *agreed (optional) gets the inputs. False: this member must abort.
  bool Decide(const std::function<policy::PolicyInputs()>& compose,
              policy::PolicyInputs* agreed, policy::Decision* out);
  const policy::PolicyController& policy() const { return policy_; }

 private:
  ResilientComm* rc_;
  ReplicatedState* state_;
  kv::Store* store_;
  policy::PolicyController policy_;
  Inputs inputs_;
  const uint32_t decide_name_ = obs::flight::Intern("policy/decide");
};

}  // namespace rcc::core
