#include "obs/postmortem.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "obs/json_lite.h"
#include "policy/policy.h"

namespace rcc::obs::postmortem {
namespace {

// Reverse of flight::EvName. Unknown names map to 0 (event kept in the
// timeline but ignored by the analyses).
flight::Ev EvFromName(const std::string& name) {
  static const std::unordered_map<std::string, flight::Ev>* map = [] {
    auto* m = new std::unordered_map<std::string, flight::Ev>();
    for (uint16_t k = 1;
         k <= static_cast<uint16_t>(flight::kLastEv); ++k) {
      const auto ev = static_cast<flight::Ev>(k);
      (*m)[flight::EvName(ev)] = ev;
    }
    return m;
  }();
  auto it = map->find(name);
  return it == map->end() ? static_cast<flight::Ev>(0) : it->second;
}

double NumberOr(const json::Value* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

// The op id an event refers to, or INT64_MIN when the event kind has no
// op identity (used as the timeline's secondary sort key: op-less
// events sort before same-time op events).
int64_t OpKey(const flight::Event& e) {
  switch (e.kind) {
    case flight::Ev::kCollPost:
    case flight::Ev::kCollComplete:
    case flight::Ev::kCollSvc:
    case flight::Ev::kCollReplay:
    case flight::Ev::kOp:
      return e.a;
    default:
      return std::numeric_limits<int64_t>::min();
  }
}

// Duration of a recovery-phase event (kRecoveryPhase, or a kSpan with a
// Phase code), or -1 for any other event.
double RecoveryPhaseSeconds(const flight::Event& e) {
  if (e.a < 1 || e.a > 5) return -1.0;
  if (e.kind == flight::Ev::kRecoveryPhase) return e.c;
  if (e.kind == flight::Ev::kSpan) return e.t - e.c;
  return -1.0;
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(std::isfinite(v) ? buf : "null");
}

}  // namespace

bool ParseDumpJson(const std::string& text, RankDump* out,
                   std::string* error) {
  json::Value root;
  if (!json::Parse(text, &root, error)) return false;
  const json::Value* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "rcc-flight-v1") {
    *error = "not an rcc-flight-v1 dump";
    return false;
  }
  const json::Value* pid = root.Find("pid");
  const json::Value* events = root.Find("events");
  if (pid == nullptr || !pid->is_number() || events == nullptr ||
      !events->is_array()) {
    *error = "missing pid or events";
    return false;
  }
  out->pid = static_cast<int>(pid->AsNumber());
  if (const json::Value* r = root.Find("reason"); r != nullptr &&
                                                  r->is_string()) {
    out->reason = r->AsString();
  }
  out->ring = static_cast<uint64_t>(NumberOr(root.Find("ring"), 0));
  out->recorded = static_cast<uint64_t>(NumberOr(root.Find("recorded"), 0));
  out->dropped = static_cast<uint64_t>(NumberOr(root.Find("dropped"), 0));
  out->events.clear();
  out->events.reserve(events->AsArray().size());
  for (const json::Value& ev : events->AsArray()) {
    const json::Value* name = ev.Find("ev");
    if (name == nullptr || !name->is_string()) {
      *error = "event without \"ev\" kind";
      return false;
    }
    flight::Event e;
    e.index = static_cast<uint64_t>(NumberOr(ev.Find("i"), 0));
    e.t = NumberOr(ev.Find("t"), 0.0);
    e.kind = EvFromName(name->AsString());
    e.a = static_cast<int64_t>(NumberOr(ev.Find("a"), 0));
    e.b = static_cast<int64_t>(NumberOr(ev.Find("b"), 0));
    e.c = NumberOr(ev.Find("c"), 0.0);
    const json::Value* n = ev.Find("name");
    if (n != nullptr && n->is_string()) e.name = flight::Intern(n->AsString());
    out->events.push_back(e);
  }
  return true;
}

bool ParseDumpFile(const std::string& path, RankDump* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseDumpJson(ss.str(), out, error);
}

std::vector<std::string> ListDumpFiles(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return paths;
  while (const dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.find("flight_rank") == std::string::npos) continue;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0)
      continue;
    paths.push_back(dir + "/" + name);
  }
  closedir(d);
  std::sort(paths.begin(), paths.end());
  return paths;
}

Report Analyze(std::vector<RankDump> dumps) {
  Report rep;
  rep.dumps = std::move(dumps);

  // Merged causal timeline keyed (virtual time, op id, pid, ring index).
  for (const RankDump& d : rep.dumps) {
    for (const flight::Event& e : d.events) {
      rep.timeline.push_back({e.t, d.pid, e});
    }
  }
  std::sort(rep.timeline.begin(), rep.timeline.end(),
            [](const TimelineEntry& x, const TimelineEntry& y) {
              if (x.t != y.t) return x.t < y.t;
              const int64_t xo = OpKey(x.e), yo = OpKey(y.e);
              if (xo != yo) return xo < yo;
              if (x.pid != y.pid) return x.pid < y.pid;
              return x.e.index < y.e.index;
            });

  // Collective lifecycles.
  for (const TimelineEntry& te : rep.timeline) {
    const flight::Event& e = te.e;
    auto touch = [&](int64_t op) -> OpLifecycle& {
      OpLifecycle& l = rep.ops[op];
      l.op_id = op;
      return l;
    };
    switch (e.kind) {
      case flight::Ev::kCollPost: {
        OpLifecycle& l = touch(e.a);
        if (l.posted_by.empty()) l.first_post_t = e.t;
        l.posted_by.push_back(te.pid);
        break;
      }
      case flight::Ev::kCollComplete:
      case flight::Ev::kOp: {
        OpLifecycle& l = touch(e.a);
        l.completed_by.push_back(te.pid);
        l.last_complete_t = std::max(l.last_complete_t, e.t);
        break;
      }
      case flight::Ev::kCollReplay: {
        touch(e.a).replayed_by.push_back(te.pid);
        break;
      }
      default:
        break;
    }
  }
  for (auto& [op, l] : rep.ops) {
    // A replay is recorded after its re-execution succeeded, so it
    // completes the op on that rank too.
    l.stalled = !l.posted_by.empty() && l.completed_by.empty() &&
                l.replayed_by.empty();
  }

  // Per-repair recovery attribution, from kRecoveryPhase events and
  // recovery spans (a kSpan carrying a Phase code).
  for (const TimelineEntry& te : rep.timeline) {
    const double duration = RecoveryPhaseSeconds(te.e);
    if (duration < 0) continue;
    const int phase = static_cast<int>(te.e.a);
    RepairBreakdown& rb = rep.repairs[te.e.b];
    rb.repair = te.e.b;
    rb.critical[phase] = std::max(rb.critical[phase], duration);
    rb.total[phase] += duration;
    // Every rank reports each phase once per repair: count the ranks
    // by their revoke phase.
    if (phase == static_cast<int>(flight::Phase::kRevoke)) ++rb.ranks;
  }

  // Policy-decision attribution: the controller records kPolicyInputs
  // and kPolicyDecision back-to-back on the deciding rank's ring, so
  // pairing is by adjacency within each rank's own event stream.
  for (const RankDump& d : rep.dumps) {
    const flight::Event* pending = nullptr;
    for (const flight::Event& e : d.events) {
      if (e.kind == flight::Ev::kPolicyInputs) {
        pending = &e;
        continue;
      }
      if (e.kind == flight::Ev::kPolicyDecision && pending != nullptr) {
        PolicyNote n;
        n.pid = d.pid;
        n.t = e.t;
        n.seq = e.b;
        n.event = static_cast<int>(pending->b);
        n.world = static_cast<int>(pending->a);
        n.mtbf = pending->c;
        n.strategy = static_cast<int>(e.a);
        n.cost = e.c;
        rep.policy.push_back(n);
      }
      pending = nullptr;
    }
  }
  std::sort(rep.policy.begin(), rep.policy.end(),
            [](const PolicyNote& x, const PolicyNote& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.pid != y.pid) return x.pid < y.pid;
              return x.seq < y.seq;
            });

  // Root cause.
  const TimelineEntry* first_abort = nullptr;
  const TimelineEntry* first_detect = nullptr;
  for (const TimelineEntry& te : rep.timeline) {
    if (te.e.kind == flight::Ev::kSelfAbort && first_abort == nullptr) {
      first_abort = &te;
    }
    if (te.e.kind == flight::Ev::kFailureDetected &&
        first_detect == nullptr) {
      first_detect = &te;
    }
  }
  char detail[160];
  if (first_abort != nullptr) {
    rep.root_cause.rank = first_abort->pid;
    rep.root_cause.kind = "self_abort";
    std::snprintf(detail, sizeof(detail),
                  "rank %d aborted first at t=%.9g", first_abort->pid,
                  first_abort->t);
    rep.root_cause.detail = detail;
  } else if (first_detect != nullptr) {
    rep.root_cause.rank = static_cast<int>(first_detect->e.a);
    rep.root_cause.kind = "first_failure";
    std::snprintf(detail, sizeof(detail),
                  "rank %d detected the failure of rank %d at t=%.9g",
                  first_detect->pid, static_cast<int>(first_detect->e.a),
                  first_detect->t);
    rep.root_cause.detail = detail;
  } else {
    // Straggler analysis: earliest stalled op; the guilty rank is one
    // that never posted it — it went quiet while peers entered the
    // collective and parked forever.
    const OpLifecycle* stalled = nullptr;
    for (const auto& [op, l] : rep.ops) {
      if (l.stalled && (stalled == nullptr || op < stalled->op_id)) {
        stalled = &l;
      }
    }
    if (stalled != nullptr) {
      // Last event time per rank = when each rank last made progress.
      std::map<int, double> last_t;
      for (const RankDump& d : rep.dumps) {
        double t = 0.0;
        for (const flight::Event& e : d.events) t = std::max(t, e.t);
        last_t[d.pid] = t;
      }
      int guilty = -1;
      double guilty_t = std::numeric_limits<double>::infinity();
      for (const auto& [pid, t] : last_t) {
        const bool posted =
            std::find(stalled->posted_by.begin(), stalled->posted_by.end(),
                      pid) != stalled->posted_by.end();
        if (posted) continue;
        if (t < guilty_t) {
          guilty = pid;
          guilty_t = t;
        }
      }
      if (guilty < 0) {
        // Everyone posted yet nobody completed: blame the rank that
        // went quiet first anyway.
        for (const auto& [pid, t] : last_t) {
          if (t < guilty_t) {
            guilty = pid;
            guilty_t = t;
          }
        }
      }
      rep.root_cause.rank = guilty;
      rep.root_cause.kind = "straggler";
      std::snprintf(detail, sizeof(detail),
                    "op %lld posted by %zu rank(s), completed by none; "
                    "rank %d never posted (last event t=%.9g)",
                    static_cast<long long>(stalled->op_id),
                    stalled->posted_by.size(), guilty, guilty_t);
      rep.root_cause.detail = detail;
    }
  }
  return rep;
}

std::string FormatReport(const Report& rep) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "ROOT-CAUSE rank=%d kind=%s %s\n",
                rep.root_cause.rank, rep.root_cause.kind.c_str(),
                rep.root_cause.detail.c_str());
  out.append(line);

  size_t stalled = 0, replayed = 0, completed = 0;
  for (const auto& [op, l] : rep.ops) {
    if (l.stalled) ++stalled;
    if (!l.replayed_by.empty()) ++replayed;
    if (!l.completed_by.empty()) ++completed;
  }
  std::snprintf(line, sizeof(line),
                "ranks=%zu events=%zu ops=%zu completed=%zu replayed=%zu "
                "stalled=%zu repairs=%zu\n",
                rep.dumps.size(), rep.timeline.size(), rep.ops.size(),
                completed, replayed, stalled, rep.repairs.size());
  out.append(line);

  for (const auto& [repair, rb] : rep.repairs) {
    double crit_sum = 0.0, total_sum = 0.0;
    for (int p = 1; p <= 5; ++p) {
      crit_sum += rb.critical[p];
      total_sum += rb.total[p];
    }
    std::snprintf(line, sizeof(line),
                  "repair %lld (%d rank(s)): critical path %.9gs, "
                  "rank-seconds %.9g\n",
                  static_cast<long long>(repair), rb.ranks, crit_sum,
                  total_sum);
    out.append(line);
    for (int p = 1; p <= 5; ++p) {
      std::snprintf(line, sizeof(line), "  %-8s %.9gs (sum %.9gs)\n",
                    flight::PhaseName(static_cast<flight::Phase>(p)),
                    rb.critical[p], rb.total[p]);
      out.append(line);
    }
  }

  for (const PolicyNote& n : rep.policy) {
    std::snprintf(line, sizeof(line),
                  "POLICY rank=%d t=%.9g seq=%lld event=%s world=%d "
                  "mtbf=%.9g chosen=%s cost=%.9g\n",
                  n.pid, n.t, static_cast<long long>(n.seq),
                  policy::EventKindName(static_cast<policy::EventKind>(
                      n.event)),
                  n.world, n.mtbf,
                  policy::StrategyName(static_cast<policy::Strategy>(
                      n.strategy)),
                  n.cost);
    out.append(line);
  }

  for (const auto& [op, l] : rep.ops) {
    if (!l.stalled) continue;
    std::string posted;
    for (size_t i = 0; i < l.posted_by.size() && i < 16; ++i) {
      if (i > 0) posted.push_back(',');
      posted.append(std::to_string(l.posted_by[i]));
    }
    std::snprintf(line, sizeof(line),
                  "stalled op %lld: posted at t=%.9g by [%s]%s\n",
                  static_cast<long long>(op), l.first_post_t,
                  posted.c_str(),
                  l.posted_by.size() > 16 ? ",..." : "");
    out.append(line);
  }
  return out;
}

std::string ReportToJson(const Report& rep) {
  std::string out = "{\"root_cause\":{\"rank\":";
  out.append(std::to_string(rep.root_cause.rank));
  out.append(",\"kind\":\"");
  out.append(rep.root_cause.kind);
  out.append("\"},\"ranks\":");
  out.append(std::to_string(rep.dumps.size()));
  out.append(",\"events\":");
  out.append(std::to_string(rep.timeline.size()));
  out.append(",\"repairs\":[");
  bool first = true;
  for (const auto& [repair, rb] : rep.repairs) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"repair\":");
    out.append(std::to_string(repair));
    out.append(",\"ranks\":");
    out.append(std::to_string(rb.ranks));
    for (int p = 1; p <= 5; ++p) {
      out.append(",\"");
      out.append(flight::PhaseName(static_cast<flight::Phase>(p)));
      out.append("\":{\"critical\":");
      AppendDouble(&out, rb.critical[p]);
      out.append(",\"sum\":");
      AppendDouble(&out, rb.total[p]);
      out.push_back('}');
    }
    out.push_back('}');
  }
  out.append("],\"policy\":[");
  first = true;
  for (const PolicyNote& n : rep.policy) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"rank\":");
    out.append(std::to_string(n.pid));
    out.append(",\"t\":");
    AppendDouble(&out, n.t);
    out.append(",\"seq\":");
    out.append(std::to_string(n.seq));
    out.append(",\"event\":\"");
    out.append(policy::EventKindName(static_cast<policy::EventKind>(
        n.event)));
    out.append("\",\"world\":");
    out.append(std::to_string(n.world));
    out.append(",\"mtbf\":");
    AppendDouble(&out, n.mtbf);
    out.append(",\"chosen\":\"");
    out.append(policy::StrategyName(static_cast<policy::Strategy>(
        n.strategy)));
    out.append("\",\"cost\":");
    AppendDouble(&out, n.cost);
    out.push_back('}');
  }
  out.append("],\"stalled_ops\":[");
  first = true;
  for (const auto& [op, l] : rep.ops) {
    if (!l.stalled) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append(std::to_string(op));
  }
  out.append("]}\n");
  return out;
}

}  // namespace rcc::obs::postmortem
