#include "obs/flight.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "common/env.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace rcc::obs::flight {
namespace {

const char* Env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

std::atomic<bool> g_enabled{[] {
  const char* v = std::getenv("RCC_FLIGHT");
  return !(v != nullptr && (v[0] == '0' || v[0] == 'f' || v[0] == 'F') );
}()};

uint64_t RingSlots() {
  static const uint64_t slots = [] {
    const int64_t n = common::EnvInt64("RCC_FLIGHT_RING", 4096);
    return static_cast<uint64_t>(n >= 16 ? n : 4096);
  }();
  return slots;
}

// Segment s of a ring: segment 0 holds positions [0, kBaseSlots), each
// later segment [kBaseSlots << (s-1), kBaseSlots << s).
int SegmentOf(uint64_t p) {
  return p < Ring::kBaseSlots ? 0 : std::bit_width(p / Ring::kBaseSlots);
}
uint64_t SegmentStart(int s) {
  return s == 0 ? 0 : Ring::kBaseSlots << (s - 1);
}
uint64_t SegmentSize(int s) {
  return s == 0 ? Ring::kBaseSlots : Ring::kBaseSlots << (s - 1);
}

struct NameTable {
  std::mutex mu;
  std::deque<std::string> names{std::string()};
  std::unordered_map<std::string_view, uint32_t> ids{{names.front(), 0}};
};

NameTable& Names() {
  static NameTable* table = new NameTable();
  return *table;
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g prints inf/nan, which JSON forbids; clamp to null.
  if (buf[0] == 'i' || buf[0] == 'n' || buf[1] == 'i' || buf[1] == 'n') {
    out->append("null");
  } else {
    out->append(buf);
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out->push_back(ch);
  }
  out->push_back('"');
}

}  // namespace

const char* EvName(Ev kind) {
  switch (kind) {
    case Ev::kCollPost: return "coll_post";
    case Ev::kCollComplete: return "coll_complete";
    case Ev::kCollSvc: return "coll_svc";
    case Ev::kCollReplay: return "coll_replay";
    case Ev::kRevoke: return "revoke";
    case Ev::kAgree: return "agree";
    case Ev::kShrink: return "shrink";
    case Ev::kExpand: return "expand";
    case Ev::kExpandBegin: return "expand_begin";
    case Ev::kExpandRound: return "expand_round";
    case Ev::kExpandSplice: return "expand_splice";
    case Ev::kExpandAbort: return "expand_abort";
    case Ev::kJoinAnnounce: return "join_announce";
    case Ev::kJoinStaged: return "join_staged";
    case Ev::kJoinWithdraw: return "join_withdraw";
    case Ev::kJoinSpliced: return "join_spliced";
    case Ev::kLeave: return "leave";
    case Ev::kRepairBegin: return "repair_begin";
    case Ev::kRepairDone: return "repair_done";
    case Ev::kRecoveryPhase: return "recovery_phase";
    case Ev::kFailureDetected: return "failure_detected";
    case Ev::kSelfAbort: return "self_abort";
    case Ev::kServeAdmit: return "serve_admit";
    case Ev::kServeComplete: return "serve_complete";
    case Ev::kKvWaitBegin: return "kv_wait_begin";
    case Ev::kKvWaitEnd: return "kv_wait_end";
    case Ev::kPolicyInputs: return "policy_inputs";
    case Ev::kPolicyDecision: return "policy_decision";
    case Ev::kSpan: return "span";
    case Ev::kOp: return "op";
    case Ev::kCounter: return "counter";
  }
  return "unknown";
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kRevoke: return "revoke";
    case Phase::kAgree: return "agree";
    case Phase::kShrink: return "shrink";
    case Phase::kRebuild: return "rebuild";
    case Phase::kReplay: return "replay";
  }
  return "unknown";
}

uint32_t Intern(std::string_view name) {
  NameTable& table = Names();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  const auto id = static_cast<uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(table.names.back(), id);
  return id;
}

const std::string& NameOf(uint32_t id) {
  NameTable& table = Names();
  std::lock_guard<std::mutex> lock(table.mu);
  return id < table.names.size() ? table.names[id] : table.names.front();
}

Ring::Ring(int pid, uint64_t slots) : pid_(pid), slots_(slots) {}

Event& Ring::Slot(uint64_t p) const {
  const int s = SegmentOf(p);
  return segments_[s][p - SegmentStart(s)];
}

uint64_t Ring::committed_slots() const {
  uint64_t n = 0;
  for (int s = 0; s < kSegments; ++s) {
    if (segments_[s] != nullptr) n += SegmentSize(s);
  }
  return n;
}

uint64_t Ring::FirstHeld(uint64_t head) const {
  return !keep_all_ && head > slots_ ? head - slots_ : 0;
}

void Ring::Record(Ev kind, double t, int64_t a, int64_t b, double c,
                  uint32_t name) {
  if (!keep_all_ && !Enabled()) return;
  const uint64_t i = head_++;
  const uint64_t p = Position(i);
  std::unique_ptr<Event[]>& segment = segments_[SegmentOf(p)];
  if (segment == nullptr) {
    segment = std::make_unique<Event[]>(SegmentSize(SegmentOf(p)));
  }
  Slot(p) = Event{i, t, kind, name, a, b, c};
}

std::vector<Event> Ring::Snapshot() const {
  const uint64_t first = FirstHeld(head_);
  std::vector<Event> out;
  out.reserve(head_ - first);
  for (uint64_t i = first; i < head_; ++i) out.push_back(Slot(Position(i)));
  return out;
}

uint64_t Ring::dropped() const { return FirstHeld(head_); }

void Ring::KeepAll() {
  RCC_CHECK(dropped() == 0)
      << "flight: rank " << pid_ << " already wrapped its " << slots_
      << "-event ring; attach the Recorder before the run records";
  keep_all_ = true;
}

std::string Ring::ToJson(const std::string& reason) const {
  const std::vector<Event> events = Snapshot();
  std::string out;
  out.reserve(96 + events.size() * 80);
  out.append("{\"schema\":\"rcc-flight-v1\",\"pid\":");
  out.append(std::to_string(pid_));
  out.append(",\"reason\":");
  AppendJsonString(&out, reason);
  out.append(",\"ring\":");
  out.append(std::to_string(keeps_all() ? 0 : slots_));
  out.append(",\"recorded\":");
  out.append(std::to_string(recorded()));
  out.append(",\"dropped\":");
  out.append(std::to_string(dropped()));
  out.append(",\"events\":[");
  for (size_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    if (k > 0) out.push_back(',');
    out.append("\n{\"i\":");
    out.append(std::to_string(e.index));
    out.append(",\"t\":");
    AppendJsonDouble(&out, e.t);
    out.append(",\"ev\":\"");
    out.append(EvName(e.kind));
    out.append("\",\"a\":");
    out.append(std::to_string(e.a));
    out.append(",\"b\":");
    out.append(std::to_string(e.b));
    out.append(",\"c\":");
    AppendJsonDouble(&out, e.c);
    if (e.name != 0) {
      out.append(",\"name\":");
      AppendJsonString(&out, NameOf(e.name));
    }
    out.push_back('}');
  }
  out.append("\n]}\n");
  return out;
}

Ring* Logs::For(int pid) {
  std::unique_ptr<Ring>& ring = rings_[pid];
  if (ring == nullptr) {
    ring = std::make_unique<Ring>(pid, RingSlots());
    if (keep_all_) ring->KeepAll();
  }
  return ring.get();
}

std::vector<const Ring*> Logs::rings() const {
  std::vector<const Ring*> out;
  out.reserve(rings_.size());
  for (const auto& [pid, ring] : rings_) out.push_back(ring.get());
  return out;
}

void Logs::KeepAll() {
  if (keep_all_) return;
  keep_all_ = true;
  for (auto& [pid, ring] : rings_) ring->KeepAll();
}

void Logs::NoteFailureDetected(Registry& metrics, int failed_pid, double t) {
  if (!failed_pids_.insert(failed_pid).second) return;
  const size_t n = failed_pids_.size();
  if (n == 1) {
    first_failure_t_ = t;
    last_failure_t_ = t;
  } else {
    first_failure_t_ = std::min(first_failure_t_, t);
    last_failure_t_ = std::max(last_failure_t_, t);
  }
  metrics.GetCounter("rcc_failures_observed_total")->Increment();
  // MTBF estimate over the run so far: mean inter-failure virtual time,
  // or time-to-first-failure while only one failure has been seen.
  metrics.GetGauge("rcc_mtbf_seconds")->Set(n >= 2 ? (last_failure_t_ - first_failure_t_) /
                         static_cast<double>(n - 1)
                   : first_failure_t_);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::string DumpDir(const std::string& dir_override) {
  if (!dir_override.empty()) return dir_override;
  if (const char* v = Env("RCC_FLIGHT_DIR")) return v;
  return ".";
}

std::vector<std::string> DumpAll(const Logs& logs, const std::string& reason,
                                 const std::string& dir_override,
                                 const std::string& prefix) {
  // Serialize dumps: simulations on different host threads must not
  // write the same files at once.
  static std::mutex dump_mu;
  std::lock_guard<std::mutex> dump_lock(dump_mu);
  const std::string dir = DumpDir(dir_override);
  std::vector<std::string> paths;
  for (const Ring* ring : logs.rings()) {
    const std::string path = dir + "/" + prefix + "flight_rank" +
                             std::to_string(ring->pid()) + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      RCC_LOG(kError) << "flight: cannot open " << path;
      continue;
    }
    out << ring->ToJson(reason);
    out.flush();
    if (!out) {
      RCC_LOG(kError) << "flight: short write on " << path;
      continue;
    }
    paths.push_back(path);
  }
  if (!paths.empty()) {
    RCC_LOG(kInfo) << "flight: dumped " << paths.size() << " ring(s) to "
                   << dir << " (reason: " << reason << ")";
  }
  return paths;
}

void RecordRecoveryPhase(Registry& metrics, Ring* ring, Phase phase,
                         double t_end, int64_t repair_ordinal,
                         double duration) {
  if (ring != nullptr) {
    ring->Record(Ev::kRecoveryPhase, t_end, static_cast<int64_t>(phase),
                 repair_ordinal, duration);
  }
  const int idx = static_cast<int>(phase);
  if (idx < 1 || idx > 5) return;
  constexpr const char* kFamily = "rcc_recovery_phase_seconds";
  if (!metrics.HasFamily(kFamily)) {
    metrics.SetHelp(kFamily,
                    "Per-phase recovery duration (revoke/agree/shrink/"
                    "rebuild/replay), one observation per repair per rank.");
    for (int p = 1; p <= 5; ++p) {
      metrics.GetHistogram(kFamily,
                           {{"phase", PhaseName(static_cast<Phase>(p))}});
    }
  }
  metrics.GetHistogram(kFamily, {{"phase", PhaseName(phase)}})
      ->Observe(duration);
}

}  // namespace rcc::obs::flight
