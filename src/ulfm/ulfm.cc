#include "ulfm/ulfm.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <cmath>
#include <map>
#include <set>

#include <cstdlib>

#include "common/env.h"
#include "common/log.h"
#include "obs/flight.h"
#include "sim/engine.h"

namespace rcc::ulfm {

namespace {

using common::EnvDouble;

int CeilLog2(int n) {
  int bits = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

// ---------------------------------------------------------------------
// Agreement synchronizer (see header: idealized ERA with explicit cost).
// ---------------------------------------------------------------------
struct AgreeState {
  sim::WaitPoint wp;
  std::map<int, int> flags;               // pid -> contributed flag
  std::map<int, int64_t> values;          // pid -> contributed value
  std::map<int, sim::Seconds> arrivals;   // pid -> arrival virtual time
  bool done = false;
  AgreeOutcome outcome;
  sim::Seconds finish_time = 0.0;
  int leavers = 0;
  int expected_leavers = 0;
};

// ---------------------------------------------------------------------
// Expand synchronizer (connect/accept + intercomm merge analogue).
// ---------------------------------------------------------------------
struct ExpandState {
  sim::WaitPoint wp;
  bool survivors_known = false;
  std::vector<int> old_group_pids;        // captured from the first survivor
  std::set<int> survivor_arrived;
  std::set<int> joiner_arrived;
  std::map<int, sim::Seconds> arrivals;
  bool done = false;
  bool aborted = false;  // rendezvous abandoned (grace expired)
  std::shared_ptr<mpi::CommGroup> new_group;
  sim::Seconds finish_time = 0.0;
  int leavers = 0;
  int expected_leavers = 0;
  int64_t op_counter = 0;  // survivors' resilient-op counter (max)
};

}  // namespace

sim::Seconds AgreementCost(const sim::SimConfig& cfg, int nranks) {
  // ERA: two sweeps of a binary tree of small control messages.
  const sim::Seconds per_hop = cfg.net.inter_latency +
                               cfg.net.send_overhead + cfg.net.recv_overhead +
                               64.0 / cfg.net.inter_bandwidth;
  return 2.0 * CeilLog2(std::max(nranks, 2)) * per_hop;
}

std::vector<int> FailureAck(mpi::Comm& comm) {
  std::set<int> acked = comm.locally_observed_failures();
  for (int pid : comm.pids()) {
    if (!comm.endpoint().fabric().IsAlive(pid)) acked.insert(pid);
  }
  comm.NoteFailedPids({acked.begin(), acked.end()});
  return {acked.begin(), acked.end()};
}

std::vector<int> FailureGetAcked(mpi::Comm& comm) {
  const std::set<int>& acked = comm.locally_observed_failures();
  return {acked.begin(), acked.end()};
}

void Revoke(mpi::Comm& comm) {
  sim::Endpoint& ep = comm.endpoint();
  sim::Fabric& fabric = ep.fabric();
  ep.Busy(fabric.config().costs.ulfm_revoke_propagation);
  comm.group()->revoke.Cancel();
  fabric.WakeAll();
  ep.log()->Record(obs::flight::Ev::kRevoke, ep.now(), comm.context_id());
}

void LeaveGracefully(sim::Endpoint& ep, mpi::Comm& comm) {
  if (!ep.alive()) return;
  // Revoke-then-leave: the revoke wakes peers parked in collectives so
  // they observe the departure at the next blocking point instead of a
  // transport timeout; the fabric leave makes the departure a normal
  // acked failure for the subsequent agree/shrink, marked voluntary so
  // the node-drop policy does not evict the leaver's node-mates.
  Revoke(comm);
  ep.log()->Record(obs::flight::Ev::kLeave, ep.now());
  ep.fabric().Leave(ep.pid());
}

Result<AgreeOutcome> Agree(mpi::Comm& comm, int flag, int64_t value) {
  sim::Endpoint& ep = comm.endpoint();
  sim::Fabric& fabric = ep.fabric();
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  ep.Busy(fabric.config().costs.ulfm_errhandler_dispatch);
  // Busy may have fired an armed self-kill: a rank that dies in the
  // dispatch window must not contribute — survivors would otherwise
  // count its flag/value or not depending on thread timing.
  if (!ep.alive()) {
    return Status(Code::kAborted, "caller died entering agree");
  }

  const uint64_t agree_round = comm.NextAgreeSeq();
  const sim::Seconds agree_enter = ep.now();
  const std::string key = std::to_string(comm.context_id()) + "/agree/" +
                          std::to_string(agree_round);
  auto state = fabric.Rendezvous<AgreeState>(key);
  const std::vector<int>& members = comm.pids();

  state->flags[ep.pid()] = flag;
  state->values[ep.pid()] = value;
  state->arrivals[ep.pid()] = ep.now();
  state->wp.NotifyAll();

  while (!state->done) {
    if (!ep.alive()) return Status(Code::kAborted, "caller died in agree");
    // Complete once every still-alive member has contributed.
    bool complete = true;
    for (int pid : members) {
      if (state->flags.count(pid) == 0 && fabric.IsAlive(pid)) {
        complete = false;
        break;
      }
    }
    if (complete) {
      AgreeOutcome outcome;
      outcome.flag = ~0;
      outcome.min_value = std::numeric_limits<int64_t>::max();
      sim::Seconds latest = 0.0;
      int alive_contributors = 0;
      for (const auto& [pid, f] : state->flags) {
        outcome.flag &= f;
        outcome.min_value = std::min(outcome.min_value, state->values[pid]);
        latest = std::max(latest, state->arrivals[pid]);
        if (fabric.IsAlive(pid)) ++alive_contributors;
      }
      for (int pid : members) {
        if (!fabric.IsAlive(pid)) outcome.failed_pids.push_back(pid);
      }
      std::sort(outcome.failed_pids.begin(), outcome.failed_pids.end());
      state->outcome = std::move(outcome);
      state->finish_time =
          latest + AgreementCost(fabric.config(),
                                 static_cast<int>(members.size()));
      state->expected_leavers = alive_contributors;
      state->done = true;
      state->wp.NotifyAll();
      break;
    }
    // Timed park so that deaths (which do not notify this WaitPoint;
    // Fabric::Kill wakes every timeout-parked fiber) are observed;
    // virtual time is taken from finish_time, not from this rung.
    state->wp.WaitFor(200e-6);
  }

  AgreeOutcome outcome = state->outcome;
  ep.AdvanceTo(state->finish_time);
  comm.NoteFailedPids(outcome.failed_pids);
  if (++state->leavers >= state->expected_leavers) {
    fabric.ReleaseRendezvous(key);
  }
  ep.log()->Record(obs::flight::Ev::kAgree, ep.now(),
                   static_cast<int64_t>(agree_round), outcome.min_value,
                   ep.now() - agree_enter);
  return outcome;
}

Result<mpi::Comm> Shrink(mpi::Comm& comm) {
  sim::Endpoint& ep = comm.endpoint();
  const sim::Seconds shrink_enter = ep.now();
  auto agreed = Agree(comm, /*flag=*/1);
  if (!agreed.ok()) return agreed.status();

  std::vector<int> survivors;
  for (int pid : comm.pids()) {
    if (std::find(agreed.value().failed_pids.begin(),
                  agreed.value().failed_pids.end(),
                  pid) == agreed.value().failed_pids.end()) {
      survivors.push_back(pid);
    }
  }
  if (survivors.empty()) {
    return Status(Code::kInternal, "shrink: no survivors");
  }

  // Real shrink performs a second agreement to allocate the new context
  // id; charge its cost (clocks stay aligned: everyone left the first
  // agreement at the same virtual time).
  ep.Busy(AgreementCost(ep.fabric().config(),
                        static_cast<int>(survivors.size())));

  auto group = mpi::GetOrCreateGroup(
      ep.fabric(), mpi::GroupKey(comm.context_id(), "shrink", survivors),
      survivors);
  mpi::Comm next(&ep, group);
  next.set_cost_scale(comm.cost_scale());
  if (next.rank() == 0) {
    ep.fabric().PurgeContext(comm.context_id());
  }
  ep.log()->Record(obs::flight::Ev::kShrink, ep.now(),
                   static_cast<int64_t>(survivors.size()),
                   static_cast<int64_t>(agreed.value().failed_pids.size()),
                   ep.now() - shrink_enter);
  return next;
}

Result<mpi::Comm> ExpandComm(sim::Endpoint& ep, mpi::Comm* old_comm,
                             const std::string& session,
                             int expected_joiners, int64_t op_counter,
                             int64_t* agreed_counter) {
  sim::Fabric& fabric = ep.fabric();
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  const std::string key = "expand/" + session;
  auto state = fabric.Rendezvous<ExpandState>(key);

  // A survivor whose armed kill has matured dies *before* registering
  // arrival; the completeness check below skips dead non-arrived
  // survivors, so the expand completes without it, deterministically.
  // (Joiners must register first — survivors wait for exactly
  // `expected_joiners` arrivals — and are reaped in the wait loop.)
  if (old_comm != nullptr && ep.MaybeSelfKill()) {
    return Status(Code::kAborted, "survivor killed entering expand");
  }
  const sim::Seconds expand_enter = ep.now();

  if (old_comm != nullptr) {
    if (!state->survivors_known) {
      state->old_group_pids = old_comm->pids();
      state->survivors_known = true;
    }
    state->survivor_arrived.insert(ep.pid());
    state->op_counter = std::max(state->op_counter, op_counter);
  } else {
    state->joiner_arrived.insert(ep.pid());
  }
  state->arrivals[ep.pid()] = ep.now();
  state->wp.NotifyAll();

  // The arrival window "expires" when the event queue quiesces at the
  // 200us poll rung: if nothing in the simulation can make progress, the
  // missing joiner can never arrive.
  bool window_expired = false;
  while (!state->done) {
    if (!ep.alive()) return Status(Code::kAborted, "caller died in expand");
    // An arrived joiner with a matured kill dies here: it already
    // counted toward expected_joiners (no survivor deadlock) and stays
    // in the membership; the first resilient op repairs it away.
    if (old_comm == nullptr && ep.MaybeSelfKill()) {
      return Status(Code::kAborted, "joiner killed in expand");
    }
    bool complete = state->survivors_known || expected_joiners == 0;
    if (state->survivors_known) {
      for (int pid : state->old_group_pids) {
        if (fabric.IsAlive(pid) && state->survivor_arrived.count(pid) == 0) {
          complete = false;
          break;
        }
      }
    }
    if (static_cast<int>(state->joiner_arrived.size()) < expected_joiners) {
      complete = false;
    }
    if (complete) {
      // Membership: surviving old ranks in old order, then joiners by pid.
      std::vector<int> pids;
      for (int pid : state->old_group_pids) {
        if (state->survivor_arrived.count(pid) != 0 && fabric.IsAlive(pid)) {
          pids.push_back(pid);
        }
      }
      std::vector<int> joiners(state->joiner_arrived.begin(),
                               state->joiner_arrived.end());
      std::sort(joiners.begin(), joiners.end());
      pids.insert(pids.end(), joiners.begin(), joiners.end());

      sim::Seconds latest = 0.0;
      int alive_count = 0;
      for (int pid : pids) {
        latest = std::max(latest, state->arrivals[pid]);
        if (fabric.IsAlive(pid)) ++alive_count;
      }
      const int total = static_cast<int>(pids.size());
      // connect/accept: one verbs-class connection per tree level, then
      // an agreement-priced intercomm merge.
      const sim::Seconds cost =
          fabric.config().costs.conn_setup_verbs * CeilLog2(total) +
          AgreementCost(fabric.config(), total);
      state->new_group = mpi::GetOrCreateGroup(fabric, key + "/merged", pids);
      state->finish_time = latest + cost;
      state->expected_leavers = alive_count;
      state->done = true;
      state->wp.NotifyAll();
      break;
    }
    // Deadline: the rendezvous cannot complete (a provisioned joiner
    // died before arriving, or was never launched). The first arrived
    // participant whose arrival window expires abandons the expand for
    // everyone; the virtual cost is the admission deadline charged past
    // the latest arrival — survivors "waited it out", then gave up.
    if (window_expired) {
      sim::Seconds latest = 0.0;
      for (const auto& [pid, t] : state->arrivals) {
        latest = std::max(latest, t);
      }
      state->finish_time = latest + ExpandTimeout();
      state->expected_leavers = static_cast<int>(state->arrivals.size());
      state->aborted = true;
      state->done = true;
      state->wp.NotifyAll();
      break;
    }
    if (!state->wp.WaitFor(200e-6)) window_expired = true;
  }

  if (state->aborted) {
    ep.AdvanceTo(state->finish_time);
    if (++state->leavers >= state->expected_leavers) {
      fabric.ReleaseRendezvous(key);
    }
    ep.log()->Record(obs::flight::Ev::kExpandAbort, ep.now(), 0, 0,
                     ep.now() - expand_enter);
    return Status(Code::kTimeout,
                  "expand timed out waiting for rendezvous arrivals");
  }

  auto group = state->new_group;
  if (agreed_counter != nullptr) *agreed_counter = state->op_counter;
  ep.AdvanceTo(state->finish_time);
  if (++state->leavers >= state->expected_leavers) {
    fabric.ReleaseRendezvous(key);
  }
  ep.log()->Record(obs::flight::Ev::kExpand, ep.now(),
                   static_cast<int64_t>(group->pids.size()), expected_joiners,
                   ep.now() - expand_enter);

  mpi::Comm next(&ep, group);
  if (old_comm != nullptr) {
    next.set_cost_scale(old_comm->cost_scale());
    if (next.rank() == 0) fabric.PurgeContext(old_comm->context_id());
  }
  return next;
}

// ---------------------------------------------------------------------
// Nonblocking expand (asynchronous joiner admission).
// ---------------------------------------------------------------------

namespace {

// One collective poll round at a step boundary.
struct AsyncRound {
  std::map<int, sim::Seconds> times;  // survivor pid -> poll time
  int64_t op_counter = 0;             // max of the pollers' contributions
  bool done = false;
  ExpandStatus status = ExpandStatus::kPending;
};

struct AsyncExpandState {
  sim::WaitPoint wp;
  // Fixed by ExpandBegin.
  bool begun = false;
  std::vector<int> old_group_pids;
  std::map<int, sim::Seconds> begin_times;  // survivor pid -> Begin time
  int expected_joiners = 0;
  sim::Seconds timeout = 0.0;
  bool announce_closed = false;
  // Joiner progress (virtual timestamps; decisions compare these to the
  // deadline, never to real time).
  std::map<int, sim::Seconds> announced;
  std::map<int, sim::Seconds> staged;
  std::set<int> withdrawn;
  bool abort_requested = false;
  // Poll rounds and the terminal decision. deque: a parked poller holds
  // a reference to its round while a faster survivor may already be
  // opening the next one.
  std::deque<AsyncRound> rounds;
  bool decided = false;
  ExpandStatus final_status = ExpandStatus::kPending;
  std::vector<int> admitted;
  bool prestaged = false;
  std::shared_ptr<mpi::CommGroup> new_group;
  sim::Seconds splice_time = 0.0;
  int64_t op_counter = 0;
  int leavers = 0;
  int expected_leavers = 0;
};

std::string AsyncKey(const std::string& session) {
  return "expandx/" + session;
}

// Round k's virtual facts are resolved once every live old-group member
// has polled it and every announced joiner has staged, withdrawn or
// died. Each of those is fixed in the respective task's own program
// order, so blocking on them (in zero virtual time) keeps decisions a
// pure function of virtual timestamps.
bool AsyncRoundComplete(const AsyncExpandState& state, size_t round,
                        sim::Fabric& fabric) {
  if (!state.announce_closed) return false;  // Begin still collecting
  const AsyncRound& r = state.rounds[round];
  for (int pid : state.old_group_pids) {
    if (r.times.count(pid) == 0 && fabric.IsAlive(pid)) return false;
  }
  for (const auto& [jpid, t] : state.announced) {
    (void)t;
    if (state.staged.count(jpid) == 0 && state.withdrawn.count(jpid) == 0 &&
        fabric.IsAlive(jpid)) {
      return false;
    }
  }
  return true;
}

// Decides round `round` (completeness checked by the caller).
void AsyncDecide(AsyncExpandState* state, size_t round, bool finalize,
                 const std::string& key, sim::Fabric& fabric) {
  AsyncRound& r = state->rounds[round];
  if (r.done) return;
  sim::Seconds latest_begin = 0.0;
  for (const auto& [pid, t] : state->begin_times) {
    latest_begin = std::max(latest_begin, t);
  }
  const sim::Seconds deadline = latest_begin + state->timeout;
  sim::Seconds boundary = 0.0;  // this round's latest poll time
  for (const auto& [pid, t] : r.times) boundary = std::max(boundary, t);
  // Admission set: joiners that finished staging at or before the
  // deadline. A staged joiner that died afterwards stays admitted (like
  // an arrived-then-killed ExpandComm joiner): the merged communicator's
  // first resilient op repairs it away.
  std::vector<int> admitted;
  sim::Seconds latest_stage = 0.0;
  for (const auto& [jpid, t] : state->staged) {
    if (state->withdrawn.count(jpid) != 0) continue;
    if (t <= deadline) {
      admitted.push_back(jpid);
      latest_stage = std::max(latest_stage, t);
    }
  }
  std::sort(admitted.begin(), admitted.end());

  ExpandStatus decision;
  if (state->abort_requested || admitted.empty()) {
    decision = ExpandStatus::kAborted;
  } else if (finalize || boundary >= latest_stage) {
    decision = ExpandStatus::kSpliced;
  } else {
    decision = ExpandStatus::kPending;  // staged past this boundary
  }
  r.status = decision;
  r.done = true;
  if (decision == ExpandStatus::kPending) {
    state->wp.NotifyAll();
    return;
  }

  state->decided = true;
  state->final_status = decision;
  state->op_counter = r.op_counter;
  int alive_waiters = 0;
  for (const auto& [jpid, t] : state->announced) {
    (void)t;
    if (fabric.IsAlive(jpid)) ++alive_waiters;
  }
  if (decision == ExpandStatus::kSpliced) {
    state->admitted = admitted;
    // Membership: this round's pollers in old rank order, then the
    // admitted joiners by pid (pollers cannot die while parked in the
    // round — chaos kills are virtual-time self-kills — so the list is
    // exactly the live survivors).
    std::vector<int> pids;
    for (int pid : state->old_group_pids) {
      if (r.times.count(pid) != 0) pids.push_back(pid);
    }
    pids.insert(pids.end(), admitted.begin(), admitted.end());
    const int total = static_cast<int>(pids.size());
    const sim::Seconds cost =
        fabric.config().costs.conn_setup_verbs * CeilLog2(total) +
        AgreementCost(fabric.config(), total);
    state->splice_time = std::max(boundary, latest_stage) + cost;
    state->new_group =
        mpi::GetOrCreateGroup(fabric, key + "/spliced", pids);
    state->prestaged =
        r.times.size() == state->old_group_pids.size() &&
        admitted.size() == state->announced.size() &&
        static_cast<int>(state->announced.size()) == state->expected_joiners;
  }
  state->expected_leavers =
      static_cast<int>(r.times.size()) + alive_waiters;
  state->wp.NotifyAll();
}

// Leaver bookkeeping shared by survivors and joiners; the last live
// participant of a decided expand releases the rendezvous entry.
void AsyncLeave(const std::shared_ptr<AsyncExpandState>& state,
                const std::string& key, sim::Fabric& fabric) {
  ++state->leavers;
  if (state->decided && state->leavers >= state->expected_leavers) {
    fabric.ReleaseRendezvous(key);
  }
}

}  // namespace

sim::Seconds ExpandTimeout() {
  return EnvDouble("RCC_EXPAND_TIMEOUT", 45.0);
}

Status ExpandBegin(sim::Endpoint& ep, mpi::Comm& comm,
                   const std::string& session, int expected_joiners,
                   sim::Seconds timeout, ExpandOp* op) {
  sim::Fabric& fabric = ep.fabric();
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  ep.Busy(fabric.config().costs.ulfm_errhandler_dispatch);
  if (ep.MaybeSelfKill()) {
    return Status(Code::kAborted, "survivor died opening expand");
  }
  const std::string key = AsyncKey(session);
  auto state = fabric.Rendezvous<AsyncExpandState>(key);

  if (!state->begun) {
    state->old_group_pids = comm.pids();
    state->expected_joiners = expected_joiners;
    state->timeout = timeout;
    state->begun = true;
  }
  state->begin_times[ep.pid()] = ep.now();
  state->wp.NotifyAll();

  // Wait (zero virtual time) for the provisioned joiners to announce.
  // Healthy joiners announce at spawn, long before any epoch boundary;
  // the window binds only when a joiner never launches. It closes on
  // event-queue quiescence (see ExpandComm), and closing it treats the
  // missing joiner as failed (the poll rounds abort or proceed with
  // whoever did announce).
  bool window_expired = false;
  while (!state->announce_closed &&
         static_cast<int>(state->announced.size()) < expected_joiners) {
    if (!ep.alive()) {
      return Status(Code::kAborted, "survivor died opening expand");
    }
    if (window_expired) break;
    if (!state->wp.WaitFor(200e-6)) window_expired = true;
  }
  state->announce_closed = true;
  state->wp.NotifyAll();

  op->key = key;
  op->session = session;
  op->polls = 0;
  op->active = true;
  return Status::Ok();
}

Result<ExpandStatus> ExpandTest(sim::Endpoint& ep, mpi::Comm& comm,
                                ExpandOp* op, int64_t op_counter,
                                bool finalize,
                                std::unique_ptr<mpi::Comm>* merged,
                                SpliceOutcome* outcome) {
  sim::Fabric& fabric = ep.fabric();
  if (!op->active) return Status(Code::kInvalid, "no expand in progress");
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  if (ep.MaybeSelfKill()) {
    return Status(Code::kAborted, "survivor died at poll boundary");
  }
  auto state = fabric.Rendezvous<AsyncExpandState>(op->key);

  const size_t round = static_cast<size_t>(op->polls);
  ++op->polls;
  if (state->rounds.size() <= round) state->rounds.resize(round + 1);
  AsyncRound& r = state->rounds[round];
  r.times[ep.pid()] = ep.now();
  r.op_counter = std::max(r.op_counter, op_counter);
  state->wp.NotifyAll();

  while (!r.done) {
    if (!ep.alive()) {
      return Status(Code::kAborted, "survivor died in expand poll");
    }
    if (AsyncRoundComplete(*state, round, fabric)) {
      AsyncDecide(state.get(), round, finalize, op->key, fabric);
      continue;
    }
    state->wp.WaitFor(200e-6);
  }

  // b: round verdict — 0 pending, 1 spliced, 2 aborted.
  const int64_t verdict = r.status == ExpandStatus::kPending  ? 0
                          : r.status == ExpandStatus::kSpliced ? 1
                                                               : 2;
  ep.log()->Record(obs::flight::Ev::kExpandRound, ep.now(),
                   static_cast<int64_t>(round), verdict);

  if (r.status == ExpandStatus::kPending) return ExpandStatus::kPending;

  op->active = false;
  if (r.status == ExpandStatus::kAborted) {
    AsyncLeave(state, op->key, fabric);
    return ExpandStatus::kAborted;
  }

  if (outcome != nullptr) {
    outcome->admitted = state->admitted;
    outcome->prestaged = state->prestaged;
    outcome->agreed_counter = state->op_counter;
  }
  auto group = state->new_group;
  ep.AdvanceTo(state->splice_time);
  AsyncLeave(state, op->key, fabric);

  mpi::Comm next(&ep, group);
  next.set_cost_scale(comm.cost_scale());
  if (next.rank() == 0) fabric.PurgeContext(comm.context_id());
  *merged = std::make_unique<mpi::Comm>(std::move(next));
  return ExpandStatus::kSpliced;
}

void ExpandAbort(sim::Endpoint& ep, const std::string& session) {
  auto state =
      ep.fabric().Rendezvous<AsyncExpandState>(AsyncKey(session));
  if (state->decided) return;
  state->abort_requested = true;
  state->wp.NotifyAll();
}

Status AnnounceJoiner(sim::Endpoint& ep, const std::string& session) {
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  if (ep.MaybeSelfKill()) {
    return Status(Code::kAborted, "joiner died before announcing");
  }
  auto state =
      ep.fabric().Rendezvous<AsyncExpandState>(AsyncKey(session));
  if (state->announced.count(ep.pid()) != 0) return Status::Ok();
  if (state->announce_closed) {
    return Status(Code::kUnavailable, "expand announce window closed");
  }
  state->announced[ep.pid()] = ep.now();
  state->wp.NotifyAll();
  return Status::Ok();
}

Status MarkJoinerStaged(sim::Endpoint& ep, const std::string& session) {
  if (!ep.alive()) return Status(Code::kAborted, "caller is dead");
  if (ep.MaybeSelfKill()) {
    return Status(Code::kAborted, "joiner died while staging");
  }
  auto state =
      ep.fabric().Rendezvous<AsyncExpandState>(AsyncKey(session));
  state->staged[ep.pid()] = ep.now();
  state->wp.NotifyAll();
  return Status::Ok();
}

void WithdrawJoiner(sim::Endpoint& ep, const std::string& session) {
  auto state =
      ep.fabric().Rendezvous<AsyncExpandState>(AsyncKey(session));
  state->withdrawn.insert(ep.pid());
  state->wp.NotifyAll();
}

Result<mpi::Comm> AwaitSplice(sim::Endpoint& ep, const std::string& session,
                              SpliceOutcome* outcome) {
  sim::Fabric& fabric = ep.fabric();
  const std::string key = AsyncKey(session);
  auto state = fabric.Rendezvous<AsyncExpandState>(key);

  while (!state->decided) {
    if (!ep.alive()) {
      return Status(Code::kAborted, "joiner died awaiting splice");
    }
    // An armed kill maturing while parked fires here (its virtual time
    // is at or before this joiner's staged clock, so the outcome is a
    // pure function of virtual time).
    if (ep.MaybeSelfKill()) {
      state->wp.NotifyAll();
      return Status(Code::kAborted, "joiner killed awaiting splice");
    }
    if (state->begun) {
      bool any_survivor = false;
      for (int pid : state->old_group_pids) {
        if (fabric.IsAlive(pid)) any_survivor = true;
      }
      if (!any_survivor) {
        return Status(Code::kUnavailable, "no survivors left to splice");
      }
    }
    state->wp.WaitFor(200e-6);
  }

  const bool admitted =
      state->final_status == ExpandStatus::kSpliced &&
      std::find(state->admitted.begin(), state->admitted.end(), ep.pid()) !=
          state->admitted.end();
  if (!admitted) {
    AsyncLeave(state, key, fabric);
    return Status(Code::kTimeout,
                  "not admitted: expand aborted or staged past deadline");
  }
  if (outcome != nullptr) {
    outcome->admitted = state->admitted;
    outcome->prestaged = state->prestaged;
    outcome->agreed_counter = state->op_counter;
  }
  auto group = state->new_group;
  ep.AdvanceTo(state->splice_time);
  AsyncLeave(state, key, fabric);
  return mpi::Comm(&ep, group);
}

}  // namespace rcc::ulfm
