// The ULFM (User-Level Failure Mitigation) extension over rcc::mpi.
//
// Mirrors the MPIX_* API surface the paper builds on:
//   FailureAck / FailureGetAcked  - acknowledge & query observed failures
//   Revoke                        - interrupt all in-flight operations
//   Agree                         - fault-tolerant agreement (flag AND +
//                                   consistent failure set)
//   Shrink                        - rebuild a sane communicator from the
//                                   survivors
//   ExpandComm                    - admit replacement/new workers
//                                   (connect + intercomm-merge analogue)
//
// Agreement is implemented as an idealized synchronizer with an explicit
// ERA-style cost model (2*ceil(log2 P) small-message rounds): Open MPI's
// real agreement algorithm is out of scope, but its *cost shape* - the
// quantity the paper measures - is preserved. See DESIGN.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mpi/comm.h"
#include "sim/endpoint.h"

namespace rcc::ulfm {

// Acknowledges all failures this rank can currently observe on the
// communicator (locally reported errors + transport-level death
// notifications) and returns them, pid-sorted.
std::vector<int> FailureAck(mpi::Comm& comm);

// Returns the pids acknowledged so far (same snapshot rule as
// FailureAck; provided for API parity with MPIX_Comm_failure_get_acked).
std::vector<int> FailureGetAcked(mpi::Comm& comm);

// Revokes the communicator: every rank blocked in an operation on it is
// interrupted with kRevoked, and all future operations fail the same
// way. Idempotent.
void Revoke(mpi::Comm& comm);

struct AgreeOutcome {
  int flag = 0;                    // bitwise AND of all contributions
  int64_t min_value = 0;           // MIN of all contributed values
  std::vector<int> failed_pids;    // consistent failed set (pid-sorted)
};

// Fault-tolerant agreement across the communicator. Every *surviving*
// caller receives the same outcome; processes that die before or during
// the agreement are excluded and reported in `failed_pids`. Works on
// revoked communicators (it is the first step of recovery).
//
// Besides the standard MPIX bitwise-AND flag, the agreement carries a
// MIN-reduced int64 payload (`value`): the resilient-collective layer
// uses it to agree on the earliest outstanding operation after a repair
// (real ULFM applications encode such data into the flag bits).
Result<AgreeOutcome> Agree(mpi::Comm& comm, int flag, int64_t value = 0);

// Shrink: agreement on the failed set, then a new communicator over the
// survivors (old ranks' order preserved). The old communicator's queued
// traffic is purged.
Result<mpi::Comm> Shrink(mpi::Comm& comm);

// Voluntary departure (load-driven downscale): the caller revokes the
// communicator so peers parked in a collective are interrupted promptly,
// then leaves the fabric. To the survivors this is indistinguishable
// from a process failure — the standard revoke/agree/shrink repair
// removes the leaver — which is exactly the point: downscale reuses the
// audited recovery path instead of growing a second membership protocol.
// Call between operations (nothing of the caller's is in flight); the
// caller's endpoint is dead afterwards.
void LeaveGracefully(sim::Endpoint& ep, mpi::Comm& comm);

// Admits `expected_joiners` new processes into a communicator.
// Survivors call with their (shrunk) communicator; joiners call with
// old_comm == nullptr. `session` must be unique per expand operation
// within the simulation and identical on every participant. Survivors
// keep ranks 0..S-1; joiners receive ranks S.. ordered by pid.
//
// Like MPI_Comm_accept the expand blocks until every expected joiner
// arrives, but with a deadline: if the rendezvous cannot complete (the
// engine quiesces with a joiner still missing — a misprovision valve),
// the expand is abandoned on every arrived participant with
// Code::kTimeout after charging the virtual deadline (RCC_EXPAND_TIMEOUT
// past the latest arrival), so a provisioned joiner that dies before
// arriving no longer stalls the survivors forever.
// `op_counter` / `agreed_counter` synchronize the resilient layer's
// per-rank operation ids across the rendezvous: survivors publish their
// counter (identical on every survivor — SPMD op streams) and every
// participant reads the agreed value back, so a joiner's subsequent ops
// share ids with the survivors' and the post-repair MIN agreement
// compares like with like.
Result<mpi::Comm> ExpandComm(sim::Endpoint& ep, mpi::Comm* old_comm,
                             const std::string& session,
                             int expected_joiners, int64_t op_counter = 0,
                             int64_t* agreed_counter = nullptr);

// ---------------------------------------------------------------------
// Nonblocking expand: asynchronous joiner admission.
//
// The blocking ExpandComm parks every survivor for the whole rendezvous.
// The nonblocking protocol splits admission into three survivor-side
// calls so training continues while joiners provision and stage state:
//
//   ExpandBegin  - opens the rendezvous at a step boundary. Joiners must
//                  have announced themselves (AnnounceJoiner, issued at
//                  provisioning time); Begin fixes the candidate set and
//                  the virtual admission deadline and returns.
//   ExpandTest   - one collective poll round per step boundary. Returns
//                  kPending while joiners are still staging, kSpliced
//                  with the merged communicator once every admitted
//                  joiner staged at or before this boundary, or kAborted
//                  when no joiner can make the deadline (all dead,
//                  withdrawn, or staged past it) - survivors then simply
//                  keep training degraded.
//   ExpandAbort  - requests a consistent abort at the next poll round.
//
// Joiners run AnnounceJoiner -> (pull state, pre-establish transports)
// -> MarkJoinerStaged -> AwaitSplice, which parks until the survivors'
// deciding round and returns the merged communicator (or a kTimeout /
// kAborted status when excluded).
//
// Determinism: every decision is a pure function of virtual timestamps
// (announce / stage / poll times vs the deadline). Poll rounds block in
// zero virtual time until those virtual facts are resolved — the same
// discipline as Agree — so campaigns replay byte-identically. The
// announce window closes on engine quiescence, which binds only for
// joiners that never spawn.
// ---------------------------------------------------------------------

enum class ExpandStatus { kPending, kSpliced, kAborted };

// Per-survivor handle on one nonblocking expand.
struct ExpandOp {
  std::string key;
  std::string session;
  int polls = 0;      // completed poll rounds
  bool active = false;
};

// Decision payload of the deciding round (survivors and admitted
// joiners observe the same values).
struct SpliceOutcome {
  std::vector<int> admitted;  // joiner pids spliced in, pid-sorted
  // True when the spliced membership equals the candidate set Begin
  // announced (all survivors present, every announced joiner staged in
  // time): the joiners pre-established the merged transports during
  // staging, so the splice-side communicator bootstrap is already paid.
  bool prestaged = false;
  int64_t agreed_counter = 0;  // survivors' resilient-op counter
};

// RCC_EXPAND_TIMEOUT (read per call so tests can pin it): virtual
// seconds a joiner has to finish staging, measured from the survivors'
// ExpandBegin (default 45; above the cold-start cost).
sim::Seconds ExpandTimeout();

// Survivor side. Opens the nonblocking expand over `comm`'s membership.
// Waits (zero virtual cost beyond the errhandler dispatch) until the
// provisioned joiners have announced or the engine quiesces, then closes
// the announce window — joiners that never announced are treated as
// failed. Never blocks on co-survivors.
Status ExpandBegin(sim::Endpoint& ep, mpi::Comm& comm,
                   const std::string& session, int expected_joiners,
                   sim::Seconds timeout, ExpandOp* op);

// Survivor side, collective at a step boundary. Blocks (zero virtual
// time) until this round's virtual facts are known, then returns the round's
// decision. On kSpliced: `*merged` receives the merged communicator
// (surviving old ranks in order, then admitted joiners by pid), the
// caller's clock advances to the splice time, and `*outcome` is filled.
// On kAborted (as a *value*) the expand is over and the caller keeps
// training degraded. An error status means the caller itself died.
// `finalize` turns the round into a terminal resolve: instead of waiting
// for a future boundary past the joiners' staging times, the survivors
// idle forward and splice (or abort) now — used at the end of training
// so parked joiners always unblock.
Result<ExpandStatus> ExpandTest(sim::Endpoint& ep, mpi::Comm& comm,
                                ExpandOp* op, int64_t op_counter,
                                bool finalize,
                                std::unique_ptr<mpi::Comm>* merged,
                                SpliceOutcome* outcome);

// Requests a consistent abort: the next poll round (on every survivor)
// decides kAborted. Safe from any single rank; no-op once decided.
void ExpandAbort(sim::Endpoint& ep, const std::string& session);

// Joiner side. Announce at provisioning time (before any cold-start
// cost): the survivors' Begin counts announcements against the expected
// joiner count. Idempotent. Fails with kUnavailable if the announce
// window already closed (this joiner is treated as never-arrived).
Status AnnounceJoiner(sim::Endpoint& ep, const std::string& session);

// Joiner side: records that state staging finished at this joiner's
// current virtual time. Admission compares that time to the deadline.
Status MarkJoinerStaged(sim::Endpoint& ep, const std::string& session);

// Joiner side: voluntarily leaves the admission (staging failed while
// this process is still alive). Survivors treat it like a death.
void WithdrawJoiner(sim::Endpoint& ep, const std::string& session);

// Joiner side: parks until the survivors' deciding round. Returns the
// merged communicator when admitted; kTimeout when the expand resolved
// without this joiner (aborted, or staged past the deadline);
// kUnavailable when every survivor died first; kAborted on self-death.
Result<mpi::Comm> AwaitSplice(sim::Endpoint& ep, const std::string& session,
                              SpliceOutcome* outcome);

// Cost model for one agreement over `nranks` participants; exposed so
// benches can report it and tests can check clock advancement.
sim::Seconds AgreementCost(const sim::SimConfig& cfg, int nranks);

}  // namespace rcc::ulfm
