// Online adaptive recovery policy (the Chameleon loop): on every
// failure / join event the controller chooses among the recovery
// strategies the resilient stack implements —
//
//   shrink-and-continue   keep training degraded on the survivors
//   wait-for-replacement  blocking Expand of a provisioned replacement
//                         (bounded by the virtual-time expand deadline)
//   async admission       nonblocking ExpandAsyncBegin + kvstore staging
//                         + step-boundary splice + delta sync
//   checkpoint restore    roll every member back to the last epoch-
//                         boundary snapshot (Eq.1 loading + recompute)
//   pipeline re-route     hybrid-parallel only: surviving DP peers of a
//                         broken stage adopt its microbatches (ReCycle)
//                         while one grid dimension repairs
//
// — by comparing modeled costs (worker-seconds of lost goodput over the
// remaining horizon) built from a live MTBF estimate, the current world
// size, the snapshot transfer cost, and the measured recovery-phase
// critical path. The decision function is PURE: identical PolicyInputs
// bytes produce identical Decisions on every rank and every replay,
// which is what oracle P9 audits.
//
// SPMD consistency: per-rank views of the world (repairs, metrics) can
// diverge transiently at a step boundary, so rank 0 composes one
// PolicyInputs record per step and broadcasts the serialized bytes
// through the resilient BcastBlob; every member decodes the same bytes
// and runs the same pure Decide(), so actuation (which is collective)
// never diverges. See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rcc::policy {

// The recovery strategies, in fixed order (ties in the adaptive argmin
// break toward the lowest index). kReroute is the hybrid-parallel arm:
// surviving DP peers of a broken pipeline stage adopt its microbatches
// (ReCycle-style bubble filling) instead of retiring the whole replica;
// it only applies when the trainer advertises kFlagReroutable.
enum class Strategy : int32_t {
  kShrink = 0,
  kWait = 1,
  kAsync = 2,
  kRestore = 3,
  kReroute = 4,
};
inline constexpr int kStrategyCount = 5;

const char* StrategyName(Strategy s);

// Controller mode, parsed from RCC_POLICY. kLegacy (the default when the
// knob is unset) keeps the pre-policy behavior byte-identical: no tick
// broadcast, no decisions, no extra collectives.
enum class Mode : int32_t {
  kLegacy = 0,
  kAdaptive = 1,
  kShrinkOnly = 2,
  kWaitOnly = 3,
  kAsyncOnly = 4,
  kRestoreOnly = 5,
  kRerouteOnly = 6,
};

const char* ModeName(Mode m);
// "adaptive" | "shrink" | "wait" | "async" | "restore". Empty string
// maps to kLegacy; unknown strings return false.
bool ModeFromName(const std::string& name, Mode* out);
// RCC_POLICY (unset/empty -> kLegacy, unknown value -> kLegacy).
Mode ModeFromEnv();

// What triggered a decision. kNone ticks carry bookkeeping (slot
// counter, MTBF feed) but no decision.
enum class EventKind : int32_t {
  kNone = 0,
  kFailure = 1,  // the membership shrank since the last tick
  kJoin = 2,     // a scheduled scale-up is due at this boundary
};

const char* EventKindName(EventKind k);

// Live MTBF estimator over virtual time. Failure observations extend
// the window; a world-size *change from outside the failure path* (an
// admission or scheduled join) resets it, because the aggregate failure
// rate scales with the worker count and a stale window would bias the
// estimate. Fed from rcc_failures_observed_total deltas observed at the
// rank-0 policy tick (exact integer counter: deterministic under both
// engines), with observation times taken from the tick's virtual clock.
class MtbfEstimator {
 public:
  // A failure observed at virtual time `t` with `world_after` members
  // remaining. Keeps the window (the shrink IS the observation).
  void ObserveFailure(double t, int world_after);
  // Non-failure membership change (join / replacement admission) at
  // time `t`: resets the window when the size actually changed.
  void OnWorldChange(int world, double t);
  // Mean inter-failure virtual time of the current window; 0 while the
  // window holds fewer than two observations (no estimate yet).
  double Estimate() const;
  int window_failures() const { return n_; }
  double window_start() const { return window_start_; }

 private:
  int world_ = -1;          // last membership the window is valid for
  double window_start_ = 0.0;
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  int n_ = 0;
};

// Applicability flags carried in PolicyInputs (rank 0 composes them
// from globally consistent state).
inline constexpr int32_t kFlagStoreOk = 1;    // kvstore available (async)
inline constexpr int32_t kFlagRestoreOk = 2;  // every member holds the
                                              // current boundary snapshot
inline constexpr int32_t kFlagReroutable = 4;  // pipeline grid still routable
                                               // (every stage has a live
                                               // replica) after the failure

// One policy tick, composed by rank 0 and broadcast verbatim. Fixed
// width, little-endian serialization: the broadcast bytes ARE the
// decision input, so replays and cross-rank decode are bit-exact.
struct PolicyInputs {
  int32_t event = 0;         // EventKind
  int32_t seq = 0;           // global decision ordinal (rank-0 counter)
  int32_t world = 0;         // membership after the event
  int32_t lost = 0;          // workers lost (failure) / joiners due (join)
  int32_t replacements = 0;  // provisioned replacement slots remaining
  int32_t slots_used = 0;    // replacement slots consumed so far
  int32_t flags = 0;          // kFlagStoreOk | kFlagRestoreOk | kFlagReroutable
  int32_t replica_ranks = 0;  // ranks per pipeline replica (pp*tp); 0 for
                              // pure-DP trainers (was padding: legacy
                              // encoders always wrote 0 here, so old
                              // blobs decode unchanged)
  int64_t gstep = 0;         // global step at the tick
  int64_t remaining_steps = 0;
  int64_t rollback_steps = 0;  // steps re-run if restoring now
  double now = 0.0;            // rank-0 virtual time at the tick
  double step_seconds = 0.0;   // rank-0 EWMA of per-step wall time
  double mtbf_seconds = 0.0;   // live estimate (0 = unknown)
  double failures_observed = 0.0;  // rcc_failures_observed_total
  double snapshot_bytes = 0.0;
  double staging_seconds = 0.0;  // modeled snapshot transfer cost
  double rebuild_seconds = 0.0;  // measured recovery critical path
  double grace_seconds = 0.0;    // admission rendezvous overhead
};

// 8 * 4 + 3 * 8 + 8 * 8 = 120 bytes.
inline constexpr size_t kPolicyInputsBytes = 120;

std::vector<uint8_t> EncodeInputs(const PolicyInputs& in);
bool DecodeInputs(const std::vector<uint8_t>& blob, PolicyInputs* out);

// One audited decision: the inputs, every strategy's modeled cost
// (+inf = inapplicable given the inputs), and the choice.
struct Decision {
  Mode mode = Mode::kLegacy;
  PolicyInputs in;
  double cost[kStrategyCount] = {0, 0, 0, 0, 0};
  Strategy chosen = Strategy::kShrink;
};

// Pure cost model. Costs are worker-seconds of lost goodput over the
// remaining horizon; see DESIGN.md §11.3 for the exact formulas. The
// restore branch prices loading + recompute through costmodel Eq.1
// terms (checkpoint bytes over host memory bandwidth, half... here the
// exact rollback distance is known, so the recompute term uses it
// instead of Eq.1's expected half interval).
void ModelCosts(const PolicyInputs& in, double cost[kStrategyCount]);

// True when `s` may be actuated given `in` (e.g. wait/async need a
// remaining replacement slot on failures; shrink/restore never apply to
// join events).
bool Applicable(Strategy s, const PolicyInputs& in);

// Pure decision: static modes force their strategy when applicable
// (falling back to shrink on failures / wait on joins), adaptive takes
// the applicable argmin. Deterministic for identical inputs.
Decision Decide(Mode mode, const PolicyInputs& in);

// Canonical, byte-stable rendering (doubles at %.17g) used by the
// decision-log determinism test and the cross-rank P9 comparison.
std::string FormatDecision(const Decision& d);
std::string FormatDecisionLog(const std::vector<Decision>& log);

// Per-rank controller: owns the mode, the estimator and the decision
// log. The trainer feeds every tick (rank 0 composes, everyone decodes)
// through OnTick; decisions are appended only for event ticks.
class PolicyController {
 public:
  explicit PolicyController(Mode mode) : mode_(mode) {}

  Mode mode() const { return mode_; }
  bool active() const { return mode_ != Mode::kLegacy; }

  // Processes one decoded tick: feeds the estimator from the
  // failures_observed delta, tracks the slot counter, and (for event
  // ticks) decides and appends to the log. Returns the decision;
  // EventKind::kNone ticks return a Decision with chosen = kShrink and
  // no log append.
  Decision OnTick(const PolicyInputs& in);

  const std::vector<Decision>& log() const { return log_; }
  const MtbfEstimator& estimator() const { return est_; }
  int slots_used() const { return slots_used_; }
  int next_seq() const { return next_seq_; }

 private:
  Mode mode_;
  MtbfEstimator est_;
  std::vector<Decision> log_;
  double failures_seen_ = 0.0;
  int slots_used_ = 0;
  int next_seq_ = 0;
};

}  // namespace rcc::policy
