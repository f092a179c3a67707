// Cross-rank post-mortem forensics over flight-recorder dumps. Parses
// the per-rank flight_rank<pid>.json files the recorder writes on
// abort/stall/oracle-violation/SLO-breach, merges them into one causal
// timeline keyed (virtual time, op id, pid), reconstructs each
// collective's lifecycle across ranks (who posted, who completed, who
// replayed), names the root-cause rank, and attributes each repair's
// recovery time across the revoke→agree→shrink/rebuild→replay phases.
//
// Root-cause rules, in order:
//   1. self_abort     — the rank with the earliest kSelfAbort event;
//   2. first_failure  — the victim pid named by the earliest
//                       kFailureDetected event (mid-run kills: every
//                       survivor detects the same pid);
//   3. straggler      — for the earliest collective op that was posted
//                       by some rank but completed by none, the rank
//                       that never posted it (tie-broken by earliest
//                       last-event time: the rank that stopped making
//                       progress first). Catches planted stalls where
//                       nobody died, someone just went quiet.
//
// The library half lives in rcc_obs so tests can assert on the analysis
// directly; tools/postmortem is a thin CLI over it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace rcc::obs::postmortem {

// One parsed flight_rank<pid>.json.
struct RankDump {
  int pid = -1;
  std::string reason;
  uint64_t ring = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  std::vector<flight::Event> events;  // oldest first, as dumped
};

// One merged-timeline entry: a flight event plus its originating rank.
struct TimelineEntry {
  double t = 0.0;
  int pid = -1;
  flight::Event e;
};

// A collective op's lifecycle reconstructed across ranks.
struct OpLifecycle {
  int64_t op_id = -1;
  std::vector<int> posted_by;
  std::vector<int> completed_by;
  std::vector<int> replayed_by;
  double first_post_t = 0.0;
  double last_complete_t = 0.0;
  // Posted somewhere, completed (or replayed) nowhere: the op everyone
  // is stuck on.
  bool stalled = false;
};

// Per-repair recovery attribution from kRecoveryPhase events. Indexing
// by flight::Phase value (1..5); index 0 unused.
struct RepairBreakdown {
  int64_t repair = 0;
  // Critical path: the slowest rank's duration for each phase (the wall
  // time the repair actually spent there).
  double critical[6] = {};
  // Sum across ranks — comparable 1:1 with the
  // rcc_recovery_phase_seconds{phase=...} histogram-sum deltas, which
  // get one observation per rank per repair.
  double total[6] = {};
  int ranks = 0;  // ranks that reported this repair
};

struct RootCause {
  int rank = -1;
  // "self_abort" | "first_failure" | "straggler" | "unknown"
  std::string kind = "unknown";
  std::string detail;
};

// One recovery-policy decision reconstructed from a rank's adjacent
// kPolicyInputs + kPolicyDecision flight events (the controller records
// them back-to-back on the deciding rank's ring).
struct PolicyNote {
  int pid = -1;
  double t = 0.0;      // decision event time
  int64_t seq = 0;     // global decision ordinal
  int event = 0;       // policy::EventKind value from the inputs event
  int world = 0;       // membership after the event
  double mtbf = 0.0;   // live MTBF estimate fed to the decision (s)
  int strategy = 0;    // policy::Strategy value chosen
  double cost = 0.0;   // chosen strategy's modeled cost (worker-seconds)
};

struct Report {
  std::vector<RankDump> dumps;
  std::vector<TimelineEntry> timeline;  // sorted (t, op id, pid, index)
  std::map<int64_t, OpLifecycle> ops;
  std::map<int64_t, RepairBreakdown> repairs;
  // Sorted (t, pid, seq); one entry per rank per decision.
  std::vector<PolicyNote> policy;
  RootCause root_cause;
};

// Parses one dump's JSON text. On failure returns false with *error set.
bool ParseDumpJson(const std::string& text, RankDump* out,
                   std::string* error);

// Reads + parses one dump file.
bool ParseDumpFile(const std::string& path, RankDump* out,
                   std::string* error);

// All <dir>/*flight_rank*.json paths, sorted.
std::vector<std::string> ListDumpFiles(const std::string& dir);

// Merges the dumps and runs the full analysis.
Report Analyze(std::vector<RankDump> dumps);

// Human-readable report. The first line is machine-greppable:
//   ROOT-CAUSE rank=<N> kind=<kind> <detail>
std::string FormatReport(const Report& report);

// The same report as JSON (for downstream tooling).
std::string ReportToJson(const Report& report);

}  // namespace rcc::obs::postmortem
