// The per-rank event log (flight recorder): a ring of structured binary
// events per rank, owned by the simulation (sim::Fabric holds a Logs,
// sim::Endpoint::log() reaches the rank's Ring). It is the one record of
// what each rank did — collective post/complete/replay (op ids), every
// ULFM state transition (revoke/agree/shrink/expand/splice, with round
// numbers), admission-protocol rounds, serving batcher admits/
// completions, kvstore waits, policy decisions, phase spans, traced
// windowed ops and counter samples — and the trace::Recorder tables, the
// Chrome trace, the chaos oracles and the postmortem all read it.
//
// A log wraps at RCC_FLIGHT_RING events unless a trace::Recorder is
// attached to its run; then it keeps every event, because the tables and
// oracles need the whole history, and records even under RCC_FLIGHT=0.
//
// A log has one writer: its simulation's host thread (one simulation,
// one host thread; see sim/engine.h). Recording is a plain slot store
// and a head increment, and readers run on the same thread. State that
// simulations on different host threads still share keeps its lock: the
// Intern name table, DumpAll's dump mutex and the Enabled() switch.
//
// Dumps — one JSON file per rank, flight_rank<pid>.json — are written
// only when something unexplained happened: a worker that exits aborted
// while its endpoint is still alive (obs::DumpIfUnexplainedExit), a
// proven fiber-scheduler stall (the fabric's stall observer), an oracle
// violation in the chaos runner, and a serving verify failure or SLO
// breach. A death the failure schedule delivered is the experiment and
// never dumps. tools/postmortem merges the per-rank dumps into one
// causal timeline and names the root-cause rank (see obs/postmortem.h).
//
// Knobs: RCC_FLIGHT (0 disables, default on), RCC_FLIGHT_RING (events
// per rank, default 4096), RCC_FLIGHT_DIR (dump directory, default ".").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rcc::obs {
class Registry;
}  // namespace rcc::obs

namespace rcc::obs::flight {

// Event kinds. The a/b/c payload fields are kind-specific; `name` is an
// interned string (see Intern) for the kinds that carry one:
//
//   kCollPost       a=op id          b=element count   c=declared bytes
//                     (a resilient op's post: an allreduce knows both;
//                      a host op records what it knows before its data
//                      phase: an allgather its own 1 element of 8 bytes,
//                      a blob broadcast 0 and 0, the length being its
//                      root's)
//   kCollComplete   a=op id                            c=latency (s)
//                     (a resilient host op's data phase; GPU ops
//                      complete with kOp)
//   kCollSvc        a=op id          b=ok (0/1)        c=service time (s)
//   kCollReplay     a=op id          b=agreed MIN id
//   kRevoke         a=comm context id
//   kAgree          a=agree round    b=MIN value       c=duration (s)
//   kShrink         a=survivors      b=failed count    c=duration (s)
//   kExpand         a=new world      b=expected joiners c=duration (s)
//   kExpandBegin    a=expected joiners
//   kExpandRound    a=round number   b=verdict (0 pending/1 spliced/
//                                      2 aborted)
//   kExpandSplice   a=admitted count                   c=duration since
//                                                        window open (s)
//   kExpandAbort                                       c=duration since
//                                                        window open (s)
//   kJoinAnnounce / kJoinStaged / kJoinWithdraw         (joiner side)
//   kJoinSpliced    a=admitted count
//   kLeave                                              (voluntary)
//   kRepairBegin    a=repair ordinal
//   kRepairDone     a=repair ordinal                   c=duration (s)
//   kRecoveryPhase  a=Phase code     b=repair ordinal  c=duration (s)
//   kFailureDetected a=failed pid
//   kSelfAbort
//   kServeAdmit     a=newly scheduled b=waiting after  c=prompt tokens
//   kServeComplete  a=request id     b=tokens          c=done-admit (s)
//   kKvWaitBegin    a=FNV-1a key hash (low 53 bits: double-exact)
//   kKvWaitEnd      a=FNV-1a key hash                  c=wait time (s)
//   kPolicyInputs   a=world after     b=event kind     c=MTBF estimate
//                     the event         (policy::        (s, 0 unknown)
//                                        EventKind)
//   kPolicyDecision a=chosen strategy b=decision seq   c=chosen modeled
//                     (policy::                          cost (worker-s)
//                      Strategy)
//   kSpan           a=Phase code     b=repair ordinal  c=start time;
//                     (0: none)                          t=end, name=phase
//   kOp             a=op id          b=bytes (whole)   c=submit time;
//                                                        t=complete,
//                                                        name=algorithm
//   kCounter                                           c=value;
//                                                        name=series
//
// kPolicyInputs/kPolicyDecision are recorded back-to-back by the same
// rank for every policy decision; tools/postmortem pairs them by
// adjacency to print the POLICY attribution lines. A kSpan with a Phase
// code is a completed recovery phase (duration t - c, as observed into
// rcc_recovery_phase_seconds). A kOp also completes its op.
enum class Ev : uint16_t {
  kCollPost = 1,
  kCollComplete,
  kCollSvc,
  kCollReplay,
  kRevoke,
  kAgree,
  kShrink,
  kExpand,
  kExpandBegin,
  kExpandRound,
  kExpandSplice,
  kExpandAbort,
  kJoinAnnounce,
  kJoinStaged,
  kJoinWithdraw,
  kJoinSpliced,
  kLeave,
  kRepairBegin,
  kRepairDone,
  kRecoveryPhase,
  kFailureDetected,
  kSelfAbort,
  kServeAdmit,
  kServeComplete,
  kKvWaitBegin,
  kKvWaitEnd,
  kPolicyInputs,
  kPolicyDecision,
  kSpan,
  kOp,
  kCounter,
};
inline constexpr Ev kLastEv = Ev::kCounter;

const char* EvName(Ev kind);

// Recovery critical-path phases (the `a` field of kRecoveryPhase and of
// recovery kSpans). The same durations are observed into the
// simulation's rcc_recovery_phase_seconds{phase=...} histograms at the
// recording site, so a postmortem's per-phase sums match the metric
// sums exactly.
enum class Phase : int64_t {
  kRevoke = 1,
  kAgree = 2,
  kShrink = 3,
  kRebuild = 4,
  kReplay = 5,
};

const char* PhaseName(Phase p);

// Process-wide table of event names (phases, algorithms, series); id 0
// is "". Hot-path owners intern once and keep the id. Shared by every
// simulation, so it keeps a mutex.
uint32_t Intern(std::string_view name);
const std::string& NameOf(uint32_t id);

// An interned name built from its string: the entry type of an owner's
// obs::ByAlgo cache of algorithm names.
struct Name {
  explicit Name(const char* s) : id(Intern(s)) {}
  uint32_t id;
};

struct Event {
  uint64_t index = 0;  // record index on this rank (monotonic)
  double t = 0.0;      // virtual time
  Ev kind = Ev::kCollPost;
  uint32_t name = 0;   // interned name, 0 if the kind carries none
  int64_t a = 0;
  int64_t b = 0;
  double c = 0.0;
};

// One rank's log. Storage is committed in doubling segments as events
// land, so a log costs memory in proportion to what it recorded.
class Ring {
 public:
  Ring(int pid, uint64_t slots);
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  int pid() const { return pid_; }

  // Hot path: stores the event in the next slot, unless recording is off
  // (RCC_FLIGHT=0 and no Recorder attached).
  void Record(Ev kind, double t, int64_t a = 0, int64_t b = 0,
              double c = 0.0, uint32_t name = 0);

  // Events still held, oldest first.
  std::vector<Event> Snapshot() const;

  uint64_t recorded() const { return head_; }
  // Events pushed out by wraparound.
  uint64_t dropped() const;

  // Keeps every event from now on, even under RCC_FLIGHT=0. Only valid
  // before the ring first wraps.
  void KeepAll();
  bool keeps_all() const { return keep_all_; }

  // JSON dump ({"schema":"rcc-flight-v1",...}; "ring" 0 keeps all).
  std::string ToJson(const std::string& reason) const;

  // Capacity in events while the log wraps; slots committed.
  uint64_t capacity() const { return slots_; }
  uint64_t committed_slots() const;

  static constexpr uint64_t kBaseSlots = 64;

 private:
  static constexpr int kSegments = 59;  // covers every uint64_t position

  // Slot at position p (its segment must be committed).
  Event& Slot(uint64_t p) const;
  // Position of record index i, and the first index still held.
  uint64_t Position(uint64_t i) const { return keep_all_ ? i : i % slots_; }
  uint64_t FirstHeld(uint64_t head) const;

  int pid_;
  uint64_t slots_;
  bool keep_all_ = false;
  uint64_t head_ = 0;
  std::unique_ptr<Event[]> segments_[kSegments];
};

// One simulation's logs, one Ring per rank (created on first use,
// listed in pid order), plus the failure observations the MTBF gauge
// reads.
class Logs {
 public:
  Ring* For(int pid);
  std::vector<const Ring*> rings() const;
  // Makes every ring, present and future, keep all its events.
  void KeepAll();

  // Failure observations feeding the Chameleon-facing live metrics:
  // called once per failed pid per repair by the recovery path. The first
  // observation of a pid in this simulation updates the simulation's
  // (`metrics`) rcc_failures_observed_total and the rcc_mtbf_seconds
  // gauge (mean inter-failure virtual time across the run so far).
  // Duplicate detections of the same pid (every survivor repairs the
  // same failure) are ignored.
  void NoteFailureDetected(Registry& metrics, int failed_pid, double t);

 private:
  std::map<int, std::unique_ptr<Ring>> rings_;
  bool keep_all_ = false;
  std::set<int> failed_pids_;
  double first_failure_t_ = 0.0;
  double last_failure_t_ = 0.0;
};

// Global on/off for always-on recording. Initialized from RCC_FLIGHT
// (default on); SetEnabled overrides at runtime (the overhead bench
// toggles it). An atomic: every simulation reads it.
bool Enabled();
void SetEnabled(bool on);

// Dump directory: `dir_override` if non-empty, else RCC_FLIGHT_DIR,
// else ".".
std::string DumpDir(const std::string& dir_override = "");

// Writes every ring of `logs` as <dir>/<prefix>flight_rank<pid>.json and
// returns the paths. `reason` is stamped into each file. Dumps are
// serialized by a process-wide mutex: simulations on different host
// threads may dump into the same directory at once.
std::vector<std::string> DumpAll(const Logs& logs, const std::string& reason,
                                 const std::string& dir_override = "",
                                 const std::string& prefix = "");

// Records one recovery phase: a kRecoveryPhase event on `ring` (skipped
// when null) plus an observation into the simulation's (`metrics`)
// rcc_recovery_phase_seconds{phase} with the identical duration value.
// The first phase a simulation records registers all five series.
void RecordRecoveryPhase(Registry& metrics, Ring* ring, Phase phase,
                         double t_end, int64_t repair_ordinal,
                         double duration);

}  // namespace rcc::obs::flight
