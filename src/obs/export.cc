#include "obs/export.h"

#include <cstdlib>
#include <fstream>

#include "common/log.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace_json.h"

namespace rcc::obs {
namespace {

const char* Env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

bool WriteFileOrLog(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    RCC_LOG(kError) << "cannot open " << path;
    return false;
  }
  out << contents;
  out.flush();
  if (!out) {
    RCC_LOG(kError) << "short write on " << path;
    return false;
  }
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool WriteMetricsFiles(const std::string& path) {
  const Registry reg = ExportSinkSnapshot();
  std::string prom_path = path;
  std::string csv_path = path + ".csv";
  if (EndsWith(path, ".csv")) {
    csv_path = path;
    prom_path = path.substr(0, path.size() - 4) + ".prom";
  }
  bool ok = WriteFileOrLog(prom_path, reg.PrometheusText());
  ok = WriteFileOrLog(csv_path, reg.CsvText()) && ok;
  return ok;
}

bool DumpIfRequested(const trace::Recorder* rec) {
  bool ok = true;
  if (const char* path = Env("RCC_TRACE_JSON"); path != nullptr &&
                                                rec != nullptr) {
    ok = WriteFileOrLog(path, ToChromeTraceJson(*rec)) && ok;
  }
  if (const char* path = Env("RCC_METRICS_OUT")) {
    ok = WriteMetricsFiles(path) && ok;
  }
  return ok;
}

bool DumpIfUnexplainedExit(const sim::Endpoint& ep, bool aborted) {
  if (!aborted || !ep.alive()) return false;
  if (flight::Enabled()) flight::DumpAll(ep.fabric().logs(), "abort");
  return true;
}

}  // namespace rcc::obs
