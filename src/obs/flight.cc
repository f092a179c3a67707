#include "obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/env.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "sim/endpoint.h"
#include "sim/engine.h"

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

// Pids below kFastPids find their ring with a lock-free indexed load:
// blocks of kBlockPids ring pointers, each allocated when the first
// ring of its pid range is created.
constexpr int kBlockPids = 1024;
constexpr int kFastBlocks = 64;
constexpr int kFastPids = kBlockPids * kFastBlocks;

// Ring registry. Rings are created on first use and live for the whole
// process (call sites may cache the pointer); ResetAll empties them in
// place instead of deallocating.
struct State {
  std::mutex mu;
  std::map<int, std::unique_ptr<Ring>> rings;
  // Lock-free index over `rings` for pids < kFastPids (written under mu).
  std::atomic<std::atomic<Ring*>*> fast[kFastBlocks] = {};
  // Failure observations (deduped by pid) for the MTBF estimator.
  std::set<int> failed_pids;
  double first_failure_t = 0.0;
  double last_failure_t = 0.0;
};

State& GlobalState() {
  static State* s = new State();
  return *s;
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

Ring::Ring(int pid, uint64_t slots)
    : pid_(pid),
      slots_(slots),
      nchunks_((slots + kChunkSlots - 1) / kChunkSlots),
      chunks_(new std::atomic<Slot*>[nchunks_]) {
  for (uint64_t j = 0; j < nchunks_; ++j) {
    chunks_[j].store(nullptr, std::memory_order_relaxed);
  }
}

Ring::~Ring() {
  for (uint64_t j = 0; j < nchunks_; ++j) {
    delete[] chunks_[j].load(std::memory_order_relaxed);
  }
}

Ring::Slot& Ring::WriteSlot(uint64_t k) {
  std::atomic<Slot*>& chunk = chunks_[k / kChunkSlots];
  Slot* c = chunk.load(std::memory_order_acquire);
  if (c == nullptr) {
    // First write into this chunk: commit it. Racing writers (threads
    // engine) keep whichever chunk was published first.
    Slot* fresh = new Slot[kChunkSlots];
    if (chunk.compare_exchange_strong(c, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      c = fresh;
    } else {
      delete[] fresh;
    }
  }
  return c[k % kChunkSlots];
}

const Ring::Slot* Ring::ReadSlot(uint64_t k) const {
  const Slot* c = chunks_[k / kChunkSlots].load(std::memory_order_acquire);
  return c == nullptr ? nullptr : &c[k % kChunkSlots];
}

uint64_t Ring::committed_slots() const {
  uint64_t n = 0;
  for (uint64_t j = 0; j < nchunks_; ++j) {
    if (chunks_[j].load(std::memory_order_acquire) != nullptr) {
      n += kChunkSlots;
    }
  }
  return n;
}

void Ring::Record(Ev kind, double t, int64_t a, int64_t b, double c) {
  const uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = WriteSlot(i % slots_);
  // Seqlock publication: odd while the fields are being replaced, then
  // 2*i+2 (even, index-stamped) once the event is whole. A reader that
  // sees any other value skips the slot.
  s.seq.store(2 * i + 1, std::memory_order_relaxed);
  s.t.store(t, std::memory_order_relaxed);
  s.kind.store(static_cast<uint16_t>(kind), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.c.store(c, std::memory_order_relaxed);
  s.seq.store(2 * i + 2, std::memory_order_release);
}

std::vector<Event> Ring::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t first = head > slots_ ? head - slots_ : 0;
  std::vector<Event> out;
  out.reserve(head - first);
  for (uint64_t i = first; i < head; ++i) {
    const Slot* slot = ReadSlot(i % slots_);
    if (slot == nullptr) continue;  // claimed, chunk not yet committed
    const Slot& s = *slot;
    if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
    Event e;
    e.index = i;
    e.t = s.t.load(std::memory_order_relaxed);
    e.kind = static_cast<Ev>(s.kind.load(std::memory_order_relaxed));
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    e.c = s.c.load(std::memory_order_relaxed);
    // Re-check: if a writer lapped us mid-copy the fields are torn.
    if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
    out.push_back(e);
  }
  return out;
}

uint64_t Ring::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  return head > slots_ ? head - slots_ : 0;
}

std::string Ring::ToJson(const std::string& reason) const {
  const std::vector<Event> events = Snapshot();
  std::string out;
  out.reserve(96 + events.size() * 80);
  out.append("{\"schema\":\"rcc-flight-v1\",\"pid\":");
  out.append(std::to_string(pid_));
  out.append(",\"reason\":\"");
  for (char ch : reason) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  out.append("\",\"ring\":");
  out.append(std::to_string(slots_));
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
    out.push_back('}');
  }
  out.append("\n]}\n");
  return out;
}

void Ring::Reset() {
  // Only safe between runs (no concurrent writers): unpublish the slots
  // written since the last reset (the first min(head, capacity)), then
  // rewind the head.
  const uint64_t written =
      std::min(head_.load(std::memory_order_relaxed), slots_);
  for (uint64_t k = 0; k < written; ++k) {
    Slot* c = chunks_[k / kChunkSlots].load(std::memory_order_relaxed);
    if (c != nullptr) {
      c[k % kChunkSlots].seq.store(0, std::memory_order_relaxed);
    }
  }
  head_.store(0, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

Ring* ForRank(int pid) {
  State& st = GlobalState();
  const bool fast = pid >= 0 && pid < kFastPids;
  if (fast) {
    const std::atomic<Ring*>* block =
        st.fast[pid / kBlockPids].load(std::memory_order_acquire);
    if (block != nullptr) {
      Ring* ring = block[pid % kBlockPids].load(std::memory_order_acquire);
      if (ring != nullptr) return ring;
    }
  }
  InstallStallDump();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.rings.find(pid);
  if (it == st.rings.end()) {
    it = st.rings.emplace(pid, std::make_unique<Ring>(pid, RingSlots()))
             .first;
  }
  Ring* ring = it->second.get();
  if (fast) {
    std::atomic<std::atomic<Ring*>*>& slot = st.fast[pid / kBlockPids];
    std::atomic<Ring*>* block = slot.load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new std::atomic<Ring*>[kBlockPids];
      for (int k = 0; k < kBlockPids; ++k) {
        block[k].store(nullptr, std::memory_order_relaxed);
      }
      slot.store(block, std::memory_order_release);
    }
    block[pid % kBlockPids].store(ring, std::memory_order_release);
  }
  return ring;
}

void ResetAll() {
  State& st = GlobalState();
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto& [pid, ring] : st.rings) ring->Reset();
  st.failed_pids.clear();
  st.first_failure_t = 0.0;
  st.last_failure_t = 0.0;
}

std::string DumpDir(const std::string& dir_override) {
  if (!dir_override.empty()) return dir_override;
  if (const char* v = Env("RCC_FLIGHT_DIR")) return v;
  return ".";
}

std::vector<std::string> DumpAll(const std::string& reason,
                                 const std::string& dir_override,
                                 const std::string& prefix) {
  State& st = GlobalState();
  std::vector<Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    rings.reserve(st.rings.size());
    for (auto& [pid, ring] : st.rings) rings.push_back(ring.get());
  }
  // Serialize dumps: aborts on different OS threads (the main thread and
  // a raw std::thread) must not write the same files at once.
  static std::mutex dump_mu;
  std::lock_guard<std::mutex> dump_lock(dump_mu);
  const std::string dir = DumpDir(dir_override);
  std::vector<std::string> paths;
  for (Ring* ring : rings) {
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

bool DumpIfUnexplainedExit(const sim::Endpoint& ep, bool aborted) {
  if (!aborted || !ep.alive()) return false;
  if (Enabled()) DumpAll("abort");
  return true;
}

void InstallStallDump() {
  static const bool installed = [] {
    sim::SetStallObserver([](const std::string& report) {
      if (!Enabled()) return;
      DumpAll("stall: " + report);
    });
    return true;
  }();
  (void)installed;
}

void NoteFailureDetected(int failed_pid, double t) {
  State& st = GlobalState();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.failed_pids.insert(failed_pid).second) return;
  const size_t n = st.failed_pids.size();
  if (n == 1) {
    st.first_failure_t = t;
    st.last_failure_t = t;
  } else {
    st.first_failure_t = std::min(st.first_failure_t, t);
    st.last_failure_t = std::max(st.last_failure_t, t);
  }
  static Counter* failures =
      Registry::Global().GetCounter("rcc_failures_observed_total");
  static Gauge* mtbf = Registry::Global().GetGauge("rcc_mtbf_seconds");
  failures->Increment();
  // MTBF estimate over the run so far: mean inter-failure virtual time,
  // or time-to-first-failure while only one failure has been seen.
  mtbf->Set(n >= 2 ? (st.last_failure_t - st.first_failure_t) /
                         static_cast<double>(n - 1)
                   : st.first_failure_t);
}

void RecordRecoveryPhase(Ring* ring, Phase phase, double t_end,
                         int64_t repair_ordinal, double duration) {
  if (ring != nullptr && Enabled()) {
    ring->Record(Ev::kRecoveryPhase, t_end, static_cast<int64_t>(phase),
                 repair_ordinal, duration);
  }
  static Histogram* hists[6] = {};
  const int idx = static_cast<int>(phase);
  if (idx < 1 || idx > 5) return;
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& reg = Registry::Global();
    reg.SetHelp("rcc_recovery_phase_seconds",
                "Per-phase recovery duration (revoke/agree/shrink/"
                "rebuild/replay), one observation per repair per rank.");
    for (int p = 1; p <= 5; ++p) {
      hists[p] = reg.GetHistogram(
          "rcc_recovery_phase_seconds",
          {{"phase", PhaseName(static_cast<Phase>(p))}});
    }
  });
  hists[idx]->Observe(duration);
}

}  // namespace rcc::obs::flight
