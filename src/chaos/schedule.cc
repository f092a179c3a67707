#include "chaos/schedule.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/json_lite.h"

namespace rcc::chaos {

namespace {

std::string Num(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"";
  return out;
}

// Strict numeric field access: *ok collapses to false on any miss.
double GetNum(const obs::json::Value& v, const char* key, bool* ok) {
  const obs::json::Value* f = v.Find(key);
  if (f == nullptr || !f->is_number()) {
    *ok = false;
    return 0.0;
  }
  return f->AsNumber();
}

std::string GetStr(const obs::json::Value& v, const char* key, bool* ok) {
  const obs::json::Value* f = v.Find(key);
  if (f == nullptr || !f->is_string()) {
    *ok = false;
    return {};
  }
  return f->AsString();
}

}  // namespace

bool operator==(const Shape& a, const Shape& b) {
  return a.world == b.world && a.epochs == b.epochs &&
         a.steps_per_epoch == b.steps_per_epoch &&
         a.grad_buckets == b.grad_buckets &&
         a.inflight_window == b.inflight_window &&
         a.gpus_per_node == b.gpus_per_node && a.policy == b.policy &&
         a.joins == b.joins && a.async_admission == b.async_admission &&
         a.serving == b.serving && a.serve_requests == b.serve_requests &&
         a.serve_rps == b.serve_rps &&
         a.serve_max_batch == b.serve_max_batch &&
         a.serve_standbys == b.serve_standbys &&
         a.policy_mode == b.policy_mode && a.replacements == b.replacements &&
         a.pipeline == b.pipeline && a.pp_stages == b.pp_stages &&
         a.tp_size == b.tp_size && a.pp_microbatches == b.pp_microbatches &&
         a.compute_scale == b.compute_scale;
}

bool operator==(const TimedKill& a, const TimedKill& b) {
  return a.scope == b.scope && a.target == b.target && a.at == b.at;
}

bool operator==(const PhaseKill& a, const PhaseKill& b) {
  return a.victim == b.victim && a.phase == b.phase &&
         a.occurrence == b.occurrence && a.delay == b.delay;
}

bool operator==(const Schedule& a, const Schedule& b) {
  return a.seed == b.seed && a.format == b.format && a.shape == b.shape &&
         a.timed == b.timed && a.phased == b.phased;
}

std::string Schedule::ToJson() const {
  std::ostringstream os;
  char seedbuf[32];
  std::snprintf(seedbuf, sizeof(seedbuf), "%" PRIu64, seed);
  os << "{\n  \"seed\": " << seedbuf;
  // Format 1 omits the field so pre-versioned reproducers (and their
  // byte-for-byte golden copies) still round-trip exactly.
  if (format != 1) os << ",\n  \"format\": " << format;
  os << ",\n  \"shape\": {";
  os << "\"world\": " << shape.world
     << ", \"epochs\": " << shape.epochs
     << ", \"steps_per_epoch\": " << shape.steps_per_epoch
     << ", \"grad_buckets\": " << shape.grad_buckets
     << ", \"inflight_window\": " << shape.inflight_window
     << ", \"gpus_per_node\": " << shape.gpus_per_node
     << ", \"policy\": "
     << (shape.policy == horovod::DropPolicy::kNode ? "\"node\""
                                                    : "\"process\"")
     << ", \"async_admission\": "
     << (shape.async_admission ? "true" : "false");
  // Serving fields only appear on serving campaigns, so every
  // pre-serving reproducer still serializes byte-identically.
  if (shape.serving) {
    os << ", \"serving\": true"
       << ", \"serve_requests\": " << shape.serve_requests
       << ", \"serve_rps\": " << Num(shape.serve_rps)
       << ", \"serve_max_batch\": " << shape.serve_max_batch
       << ", \"serve_standbys\": " << shape.serve_standbys;
  }
  // Policy fields only appear on policy campaigns, so every pre-policy
  // reproducer still serializes byte-identically.
  if (!shape.policy_mode.empty()) {
    os << ", \"policy_mode\": " << Quote(shape.policy_mode)
       << ", \"replacements\": " << shape.replacements;
  }
  // Pipeline fields only appear on pipeline campaigns, so every
  // pre-pipeline reproducer still serializes byte-identically.
  if (shape.pipeline) {
    os << ", \"pipeline\": true"
       << ", \"pp_stages\": " << shape.pp_stages
       << ", \"tp_size\": " << shape.tp_size
       << ", \"pp_microbatches\": " << shape.pp_microbatches;
  }
  // Compute inflation only appears when set, so every earlier
  // reproducer still serializes byte-identically.
  if (shape.compute_scale != 1.0) {
    os << ", \"compute_scale\": " << Num(shape.compute_scale);
  }
  os << ", \"joins\": [";
  bool first = true;
  for (const auto& [epoch, count] : shape.joins) {
    if (!first) os << ", ";
    first = false;
    os << "{\"epoch\": " << epoch << ", \"count\": " << count << "}";
  }
  os << "]},\n  \"timed\": [";
  first = true;
  for (const TimedKill& k : timed) {
    if (!first) os << ", ";
    first = false;
    os << "{\"scope\": "
       << (k.scope == sim::FailScope::kNode ? "\"node\"" : "\"process\"")
       << ", \"target\": " << k.target << ", \"at\": " << Num(k.at) << "}";
  }
  os << "],\n  \"phased\": [";
  first = true;
  for (const PhaseKill& k : phased) {
    if (!first) os << ", ";
    first = false;
    os << "{\"victim\": " << k.victim << ", \"phase\": " << Quote(k.phase)
       << ", \"occurrence\": " << k.occurrence
       << ", \"delay\": " << Num(k.delay) << "}";
  }
  os << "]\n}\n";
  return os.str();
}

bool Schedule::FromJson(const std::string& text, Schedule* out,
                        std::string* error) {
  obs::json::Value root;
  if (!obs::json::Parse(text, &root, error)) return false;
  bool ok = true;
  Schedule s;
  s.seed = static_cast<uint64_t>(GetNum(root, "seed", &ok));
  // Optional: absent in reproducers recorded before format versioning.
  const obs::json::Value* format = root.Find("format");
  if (format != nullptr) {
    if (format->is_number()) {
      s.format = static_cast<int>(format->AsNumber());
      if (s.format < 1 || s.format > 2) {
        if (error != nullptr) {
          *error = "unknown schedule format " + std::to_string(s.format);
        }
        return false;
      }
    } else {
      ok = false;
    }
  }

  const obs::json::Value* shape = root.Find("shape");
  if (shape == nullptr || !shape->is_object()) {
    if (error != nullptr) *error = "missing shape object";
    return false;
  }
  s.shape.world = static_cast<int>(GetNum(*shape, "world", &ok));
  s.shape.epochs = static_cast<int>(GetNum(*shape, "epochs", &ok));
  s.shape.steps_per_epoch =
      static_cast<int>(GetNum(*shape, "steps_per_epoch", &ok));
  s.shape.grad_buckets = static_cast<int>(GetNum(*shape, "grad_buckets", &ok));
  s.shape.inflight_window =
      static_cast<int>(GetNum(*shape, "inflight_window", &ok));
  s.shape.gpus_per_node =
      static_cast<int>(GetNum(*shape, "gpus_per_node", &ok));
  const std::string policy = GetStr(*shape, "policy", &ok);
  if (policy == "node") {
    s.shape.policy = horovod::DropPolicy::kNode;
  } else if (policy == "process") {
    s.shape.policy = horovod::DropPolicy::kProcess;
  } else {
    ok = false;
  }
  // Optional: absent in reproducers recorded before async admission.
  const obs::json::Value* async_adm = shape->Find("async_admission");
  if (async_adm != nullptr) {
    if (async_adm->is_bool()) {
      s.shape.async_admission = async_adm->AsBool();
    } else {
      ok = false;
    }
  }
  // Optional: absent in reproducers recorded before the serving plane.
  const obs::json::Value* serving = shape->Find("serving");
  if (serving != nullptr) {
    if (serving->is_bool()) {
      s.shape.serving = serving->AsBool();
    } else {
      ok = false;
    }
    if (s.shape.serving) {
      s.shape.serve_requests =
          static_cast<int>(GetNum(*shape, "serve_requests", &ok));
      s.shape.serve_rps = GetNum(*shape, "serve_rps", &ok);
      s.shape.serve_max_batch =
          static_cast<int>(GetNum(*shape, "serve_max_batch", &ok));
      s.shape.serve_standbys =
          static_cast<int>(GetNum(*shape, "serve_standbys", &ok));
    }
  }
  // Optional: absent in reproducers recorded before the adaptive policy.
  const obs::json::Value* pmode = shape->Find("policy_mode");
  if (pmode != nullptr) {
    if (pmode->is_string()) {
      s.shape.policy_mode = pmode->AsString();
      s.shape.replacements =
          static_cast<int>(GetNum(*shape, "replacements", &ok));
    } else {
      ok = false;
    }
  }
  // Optional: absent in reproducers recorded before pipeline campaigns.
  const obs::json::Value* pipeline = shape->Find("pipeline");
  if (pipeline != nullptr) {
    if (pipeline->is_bool()) {
      s.shape.pipeline = pipeline->AsBool();
    } else {
      ok = false;
    }
    if (s.shape.pipeline) {
      s.shape.pp_stages = static_cast<int>(GetNum(*shape, "pp_stages", &ok));
      s.shape.tp_size = static_cast<int>(GetNum(*shape, "tp_size", &ok));
      s.shape.pp_microbatches =
          static_cast<int>(GetNum(*shape, "pp_microbatches", &ok));
    }
  }
  // Optional: absent unless a campaign inflates per-step compute.
  const obs::json::Value* cscale = shape->Find("compute_scale");
  if (cscale != nullptr) {
    if (cscale->is_number()) {
      s.shape.compute_scale = cscale->AsNumber();
    } else {
      ok = false;
    }
  }
  const obs::json::Value* joins = shape->Find("joins");
  if (joins == nullptr || !joins->is_array()) {
    ok = false;
  } else {
    for (const obs::json::Value& j : joins->AsArray()) {
      const int epoch = static_cast<int>(GetNum(j, "epoch", &ok));
      const int count = static_cast<int>(GetNum(j, "count", &ok));
      s.shape.joins[epoch] = count;
    }
  }

  const obs::json::Value* timed = root.Find("timed");
  if (timed == nullptr || !timed->is_array()) {
    ok = false;
  } else {
    for (const obs::json::Value& t : timed->AsArray()) {
      TimedKill k;
      const std::string scope = GetStr(t, "scope", &ok);
      if (scope == "node") {
        k.scope = sim::FailScope::kNode;
      } else if (scope == "process") {
        k.scope = sim::FailScope::kProcess;
      } else {
        ok = false;
      }
      k.target = static_cast<int>(GetNum(t, "target", &ok));
      k.at = GetNum(t, "at", &ok);
      s.timed.push_back(k);
    }
  }

  const obs::json::Value* phased = root.Find("phased");
  if (phased == nullptr || !phased->is_array()) {
    ok = false;
  } else {
    for (const obs::json::Value& p : phased->AsArray()) {
      PhaseKill k;
      k.victim = static_cast<int>(GetNum(p, "victim", &ok));
      k.phase = GetStr(p, "phase", &ok);
      k.occurrence = static_cast<int>(GetNum(p, "occurrence", &ok));
      k.delay = GetNum(p, "delay", &ok);
      s.phased.push_back(k);
    }
  }

  if (!ok) {
    if (error != nullptr) *error = "schedule JSON has missing/mistyped fields";
    return false;
  }
  *out = std::move(s);
  return true;
}

}  // namespace rcc::chaos
