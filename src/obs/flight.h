// Always-on flight recorder: a per-rank, fixed-size ring buffer of
// structured binary events recorded from the hot paths of the resilient
// stack — collective post/complete/replay (op ids), every ULFM state
// transition (revoke/agree/shrink/expand/splice, with round numbers),
// admission-protocol rounds, serving batcher admits/completions, and
// kvstore waits.
//
// Recording costs a few relaxed atomics per event (one fetch_add to
// claim a slot, relaxed field stores, one release store publishing the
// slot's sequence number), so it stays on by default even in chaos
// campaigns and scale smokes. Readers (DumpAll, postmortem tests)
// snapshot a ring seqlock-style: a slot whose sequence is odd or moved
// during the copy is being overwritten and is skipped.
//
// Dumps — one JSON file per rank, flight_rank<pid>.json — are written
// only when something unexplained happened: a worker that exits aborted
// while its endpoint is still alive (DumpIfUnexplainedExit), a proven
// fiber-scheduler stall (sim stall observer, installed by
// InstallStallDump), an oracle violation in the chaos runner, and a
// serving verify failure or SLO breach. A death the failure schedule
// delivered is the experiment and never dumps. tools/postmortem merges
// the per-rank dumps into one causal timeline and names the root-cause
// rank (see obs/postmortem.h).
//
// Knobs: RCC_FLIGHT (0 disables, default on), RCC_FLIGHT_RING (events
// per rank, default 4096), RCC_FLIGHT_DIR (dump directory, default ".").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rcc::sim {
class Endpoint;
}  // namespace rcc::sim

namespace rcc::obs::flight {

// Event kinds. The a/b/c payload fields are kind-specific:
//
//   kCollPost       a=op id          b=element count   c=declared bytes
//   kCollComplete   a=op id                            c=latency (s)
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
//
// kPolicyInputs/kPolicyDecision are recorded back-to-back by the same
// rank for every policy decision; tools/postmortem pairs them by
// adjacency to print the POLICY attribution lines.
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
};

const char* EvName(Ev kind);

// Recovery critical-path phases (kRecoveryPhase's `a` field). The same
// durations are observed into the rcc_recovery_phase_seconds{phase=...}
// histograms at the recording site, so a postmortem's per-phase sums
// match the metric deltas exactly.
enum class Phase : int64_t {
  kRevoke = 1,
  kAgree = 2,
  kShrink = 3,
  kRebuild = 4,
  kReplay = 5,
};

const char* PhaseName(Phase p);

struct Event {
  uint64_t index = 0;  // global record index on this rank (monotonic)
  double t = 0.0;      // virtual time
  Ev kind = Ev::kCollPost;
  int64_t a = 0;
  int64_t b = 0;
  double c = 0.0;
};

// One rank's ring. Obtained via ForRank (a lock-free indexed load once
// the ring exists); never deallocated while the process lives. Slot
// storage is committed in chunks as events land, so a ring costs memory
// in proportion to what it recorded (up to its capacity), not its
// capacity.
class Ring {
 public:
  Ring(int pid, uint64_t slots);
  ~Ring();
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  int pid() const { return pid_; }

  // Hot path: claims a slot and publishes the event. Safe from any
  // task/thread; a concurrent snapshot skips slots caught mid-write.
  void Record(Ev kind, double t, int64_t a = 0, int64_t b = 0,
              double c = 0.0);

  // Events still in the ring, oldest first. Lock-free readers: events
  // overwritten or in-flight during the copy are dropped.
  std::vector<Event> Snapshot() const;

  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  // Events pushed out of the ring by wraparound.
  uint64_t dropped() const;

  // JSON dump of this ring ({"schema":"rcc-flight-v1",...}).
  std::string ToJson(const std::string& reason) const;

  // Empties the ring in place, touching only the slots ever written.
  // Only safe between runs (no concurrent writers); cached Ring pointers
  // and committed storage stay valid. Used by ResetAll.
  void Reset();

  // Capacity in events, and the slots whose storage is committed (a
  // multiple of kChunkSlots, at most the capacity rounded up to one).
  uint64_t capacity() const { return slots_; }
  uint64_t committed_slots() const;

  // Slots committed together on a chunk's first write (48 B each).
  static constexpr uint64_t kChunkSlots = 64;

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 2*index+1 while writing, 2*index+2 done
    std::atomic<double> t{0.0};
    std::atomic<uint16_t> kind{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<double> c{0.0};
  };

  // Slot k (0 <= k < slots_) for a writer, committing its chunk first.
  Slot& WriteSlot(uint64_t k);
  // Slot k for a reader, or null while its chunk is uncommitted.
  const Slot* ReadSlot(uint64_t k) const;

  int pid_;
  uint64_t slots_;
  uint64_t nchunks_;
  std::atomic<uint64_t> head_{0};
  std::unique_ptr<std::atomic<Slot*>[]> chunks_;
};

// Global on/off. Initialized from RCC_FLIGHT (default on); SetEnabled
// overrides at runtime (the overhead bench toggles it). Call sites
// guard Record with Enabled() — one relaxed atomic load.
bool Enabled();
void SetEnabled(bool on);

// The ring for `pid`, created on first use (RCC_FLIGHT_RING slots,
// default 4096). Never null, valid for the process lifetime.
Ring* ForRank(int pid);

// Empties every ring and clears the MTBF failure set. The chaos runner
// calls this at run start so each run's dumps are self-contained.
void ResetAll();

// Dump directory: `dir_override` if non-empty, else RCC_FLIGHT_DIR,
// else ".".
std::string DumpDir(const std::string& dir_override = "");

// Writes every rank's ring as <dir>/<prefix>flight_rank<pid>.json and
// returns the paths. `reason` is stamped into each file.
std::vector<std::string> DumpAll(const std::string& reason,
                                 const std::string& dir_override = "",
                                 const std::string& prefix = "");

// The worker-exit rule, shared by every driver that runs workers (chaos
// runner, serving driver, ULFM figure driver). A worker that exits
// aborted while its endpoint is still alive left the job for a reason
// nothing scheduled: every rank's ring is dumped (reason "abort"; a
// later unexplained exit overwrites with more history) and the call
// returns true, so the caller can make the exit visible to its peers. A
// death delivered by the failure schedule (FailurePlan, ScriptedFailure,
// ArmKillAt, node kills) leaves the endpoint dead: that is the
// experiment, not a failure, and it never dumps. Only the dump respects
// Enabled().
bool DumpIfUnexplainedExit(const sim::Endpoint& ep, bool aborted);

// Installs a sim stall observer that dumps all rings (reason "stall")
// right before the stall handler / fatal abort fires. Idempotent.
void InstallStallDump();

// Failure observations feeding the Chameleon-facing live metrics:
// called once per failed pid per repair by the recovery path. The first
// observation of a pid updates rcc_failures_observed_total and the
// rcc_mtbf_seconds gauge (mean inter-failure virtual time across the
// run so far). Duplicate detections of the same pid (every survivor
// repairs the same failure) are ignored. ResetAll clears the set.
void NoteFailureDetected(int failed_pid, double t);

// Records one recovery phase: a kRecoveryPhase flight event on `ring`
// plus an observation into rcc_recovery_phase_seconds{phase=...} with
// the identical duration value.
void RecordRecoveryPhase(Ring* ring, Phase phase, double t_end,
                         int64_t repair_ordinal, double duration);

}  // namespace rcc::obs::flight
