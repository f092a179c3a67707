#include "obs/trace_json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/json_lite.h"

namespace rcc::obs {
namespace {

// Virtual-time tracks per rank: tid 0 carries phase spans, tid 1 the
// per-collective op spans.
constexpr int kPhaseTid = 0;
constexpr int kOpTid = 1;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Virtual seconds -> trace microseconds. Perfetto sorts numerically, so
// plain fixed-point formatting (no exponent) is required.
std::string Micros(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << seconds * 1e6;
  return os.str();
}

void AppendMetadata(std::ostringstream& os, int pid, int tid,
                    const char* what, const std::string& name, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << JsonEscape(name)
     << "\"}}";
}

}  // namespace

std::string ToChromeTraceJson(const trace::Recorder& rec) {
  const std::vector<trace::Event> events = rec.events();
  const std::vector<trace::OpEvent> ops = rec.op_events();
  const std::vector<trace::CounterSample> counters = rec.counter_samples();

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Track labels: one "process" per rank, named thread tracks.
  std::set<int> pids;
  for (const auto& e : events) pids.insert(e.pid);
  for (const auto& o : ops) pids.insert(o.pid);
  for (const auto& c : counters) pids.insert(c.pid);
  for (int pid : pids) {
    AppendMetadata(os, pid, kPhaseTid, "process_name",
                   "rank " + std::to_string(pid), &first);
    AppendMetadata(os, pid, kPhaseTid, "thread_name", "phases", &first);
    AppendMetadata(os, pid, kOpTid, "thread_name", "collectives", &first);
  }

  for (const auto& e : events) {
    if (!first) os << ",\n";
    first = false;
    // Category = phase prefix before '/' (init, recovery, step, ...),
    // letting Perfetto filter whole groups.
    const size_t slash = e.phase.find('/');
    const std::string cat =
        slash == std::string::npos ? "phase" : e.phase.substr(0, slash);
    os << "{\"name\":\"" << JsonEscape(e.phase) << "\",\"cat\":\""
       << JsonEscape(cat) << "\",\"ph\":\"X\",\"ts\":" << Micros(e.start)
       << ",\"dur\":" << Micros(e.duration()) << ",\"pid\":" << e.pid
       << ",\"tid\":" << kPhaseTid << "}";
  }

  for (const auto& o : ops) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << JsonEscape(o.algo) << "\",\"cat\":\"coll\","
       << "\"ph\":\"X\",\"ts\":" << Micros(o.submit)
       << ",\"dur\":" << Micros(o.latency()) << ",\"pid\":" << o.pid
       << ",\"tid\":" << kOpTid << ",\"args\":{\"op_id\":" << o.op_id
       << ",\"bytes\":" << Micros(o.bytes / 1e6)  // plain fixed-point
       << ",\"algo\":\"" << JsonEscape(o.algo) << "\"}}";
  }

  // Counter series (ph:"C"): one sample per record; Perfetto renders
  // each distinct name as a per-rank step chart.
  for (const auto& c : counters) {
    if (!first) os << ",\n";
    first = false;
    std::ostringstream val;
    val.setf(std::ios::fixed);
    val.precision(3);
    val << c.value;
    os << "{\"name\":\"" << JsonEscape(c.name) << "\",\"ph\":\"C\",\"ts\":"
       << Micros(c.t) << ",\"pid\":" << c.pid << ",\"tid\":0,\"args\":{\""
       << JsonEscape(c.name) << "\":" << val.str() << "}}";
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool ValidateChromeTraceJson(const std::string& json_text, std::string* error,
                             size_t* events_checked,
                             size_t* counters_checked) {
  json::Value doc;
  std::string perr;
  if (!json::Parse(json_text, &doc, &perr)) {
    if (error != nullptr) *error = "parse error: " + perr;
    return false;
  }
  if (!doc.is_object()) {
    if (error != nullptr) *error = "document is not a JSON object";
    return false;
  }
  const json::Value* evs = doc.Find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    if (error != nullptr) *error = "missing traceEvents array";
    return false;
  }
  size_t checked = 0;
  size_t counters = 0;
  for (size_t i = 0; i < evs->AsArray().size(); ++i) {
    const json::Value& e = evs->AsArray()[i];
    if (!e.is_object()) {
      if (error != nullptr) {
        *error = "traceEvents[" + std::to_string(i) + "] is not an object";
      }
      return false;
    }
    const json::Value* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      if (error != nullptr) {
        *error = "traceEvents[" + std::to_string(i) + "] missing ph";
      }
      return false;
    }
    if (ph->AsString() == "C") {
      const char* bad = nullptr;
      const json::Value* name = e.Find("name");
      if (name == nullptr || !name->is_string()) bad = "name";
      for (const char* field : {"ts", "pid"}) {
        if (bad != nullptr) break;
        const json::Value* v = e.Find(field);
        if (v == nullptr || !v->is_number() ||
            !std::isfinite(v->AsNumber())) {
          bad = field;
        }
      }
      if (bad == nullptr) {
        const json::Value* cargs = e.Find("args");
        if (cargs == nullptr || !cargs->is_object()) {
          bad = "args";
        } else {
          // At least one finite numeric series value.
          bool numeric = false;
          for (const auto& [k, v] : cargs->AsObject()) {
            (void)k;
            if (v.is_number() && std::isfinite(v.AsNumber())) {
              numeric = true;
              break;
            }
          }
          if (!numeric) bad = "args (no finite numeric series)";
        }
      }
      if (bad != nullptr) {
        if (error != nullptr) {
          *error = "traceEvents[" + std::to_string(i) +
                   "] invalid counter field: " + bad;
        }
        return false;
      }
      ++counters;
      continue;
    }
    if (ph->AsString() != "X") continue;  // metadata events checked above
    const char* missing = nullptr;
    const json::Value* name = e.Find("name");
    if (name == nullptr || !name->is_string()) missing = "name";
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const json::Value* v = e.Find(field);
      if (v == nullptr || !v->is_number() || !std::isfinite(v->AsNumber())) {
        missing = field;
        break;
      }
    }
    const json::Value* dur = e.Find("dur");
    if (missing == nullptr && dur->AsNumber() < 0) missing = "dur (negative)";
    if (missing != nullptr) {
      if (error != nullptr) {
        *error = "traceEvents[" + std::to_string(i) +
                 "] invalid or missing field: " + missing;
      }
      return false;
    }
    ++checked;
  }
  if (checked == 0) {
    if (error != nullptr) *error = "no complete (ph:X) events in trace";
    return false;
  }
  if (events_checked != nullptr) *events_checked = checked;
  if (counters_checked != nullptr) *counters_checked = counters;
  return true;
}

}  // namespace rcc::obs
