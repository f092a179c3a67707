// Serving smoke for CI: N simulated ranks (default 64) serve a 10k-request continuous-batching stream over the
// resilient collectives, lose one rank mid-service, repair/shrink, and
// keep decoding. Verifies the serving plane's P8 guarantee at scale —
// zero admitted requests dropped or double-completed, replicated-state
// digests bit-identical across every survivor — plus an SLO bound on
// the TTFT p999 quantile exported by the obs registry.
//
//   ./tools/serving_smoke [--ranks N] [--requests R] [--rps RPS]
//                         [--p999-ms B]
//
// Distinct exit codes so CI can tell failure classes apart:
//   0  pass
//   2  verification mismatch (dropped/double-completed requests,
//      divergent digests, or a missed repair)
//   3  stall — the scheduler proved a deadlock
//   4  SLO breach (TTFT p999 above --p999-ms)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/resilient.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "sim/cluster.h"
#include "sim/engine.h"

using namespace rcc;

int main(int argc, char** argv) {
  int ranks = 64;
  int requests = 10000;
  double rps = 800.0;
  // The TTFT p999 is dominated by the recovery blip: arrivals that land
  // inside the single repair wait out the communicator rebuild (~0.9
  // virtual seconds at 63 ranks). The bound polices that the tail stays
  // at repair-blip scale — a regression to teardown-style recovery
  // (tens of seconds of outage) trips it immediately.
  double p999_ms = 2000.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--ranks") == 0) ranks = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0)
      requests = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--rps") == 0) rps = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--p999-ms") == 0)
      p999_ms = std::atof(argv[i + 1]);
  }

  sim::SetStallHandler([](const std::string& report) {
    std::fprintf(stderr, "serving_smoke: STALL: %s\n", report.c_str());
    std::exit(3);
  });

  serve::ServeOptions o;
  o.traffic.seed = 29;
  o.traffic.requests = requests;
  o.traffic.base_rps = rps;
  o.traffic.min_prompt = 4;
  o.traffic.max_prompt = 8;
  o.traffic.min_decode = 4;
  o.traffic.max_decode = 8;
  o.max_batch = 32;
  o.hidden = 64;
  o.flops_per_token = 5e8;
  o.autoscale.enabled = false;

  const int victim = ranks / 3;
  const double kill_at = 0.25 * requests / rps;  // mid-service

  std::vector<int> pids(ranks);
  for (int i = 0; i < ranks; ++i) pids[i] = i;
  std::mutex mu;
  std::vector<serve::ServeReport> finished;
  int aborted = 0;

  sim::Cluster cluster;
  cluster.AddPendingFailure({sim::FailScope::kProcess, victim, kill_at});
  cluster.Spawn(ranks, [&](sim::Endpoint& ep) {
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess, nullptr);
    serve::ServingDriver d(&rc, o);
    serve::ServeReport r = d.Run();
    if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
    std::lock_guard<std::mutex> lock(mu);
    if (r.aborted) {
      ++aborted;
    } else {
      finished.push_back(std::move(r));
    }
  });
  cluster.Join();
  sim::SetStallHandler(nullptr);

  bool verified = static_cast<int>(finished.size()) == ranks - 1 &&
                  aborted == 1;
  int repaired = 0;
  for (const auto& r : finished) {
    if (r.completed != requests) verified = false;
    if (r.digest != finished[0].digest) verified = false;
    if (r.final_world != ranks - 1) verified = false;
    if (r.repairs > 0) ++repaired;
  }
  if (repaired != static_cast<int>(finished.size())) verified = false;

  const obs::Labels labels{{"mode", "resilient"}};
  const obs::Histogram::Snapshot ttft =
      cluster.fabric().metrics().HistogramSnapshot("rcc_serve_ttft_seconds",
                                                   labels);
  const double p999 = ttft.Quantile(0.999) * 1e3;
  const bool slo_ok = p999 <= p999_ms;

  std::printf(
      "serving_smoke: ranks=%d requests=%d survivors=%zu "
      "aborted=%d repaired=%d ttft_p999_ms=%.2f (bound %.2f) -> %s\n",
      ranks, requests, finished.size(), aborted, repaired, p999, p999_ms,
      verified && slo_ok ? "PASS" : "FAIL");
  // Failure classes 2 (verification) and 4 (SLO breach) leave the black
  // box behind: one flight dump per rank in RCC_FLIGHT_DIR, for
  // tools/postmortem and the CI artifact upload.
  if (!verified) {
    obs::flight::DumpAll(cluster.fabric().logs(),
                         "serving verification failed");
    return 2;
  }
  if (!slo_ok) {
    obs::flight::DumpAll(cluster.fabric().logs(),
                         "SLO breach: ttft_p999_ms=" + std::to_string(p999));
    return 4;
  }
  return 0;
}
