// SLO-grade serving comparison: the resilient serving plane (revoke ->
// agree -> shrink -> replay of the single in-flight decode step, KV
// caches preserved on every survivor) vs a Gloo-style teardown-rebuild
// baseline (full stack re-init, model rebroadcast, every running
// sequence re-decoded from position 0) under the same seeded diurnal
// traffic and the same seeded mid-service failures.
//
// Emits bench_results/serving_slo.csv with TTFT and per-token latency
// quantiles (p50/p99/p999), end-to-end completion time, and the
// goodput-during-recovery figure the availability argument rests on:
// tokens committed per virtual second across exactly the decode steps
// that absorbed a repair. Exit 0 requires that (a) neither stack drops
// or double-completes an admitted request (the replicated-state digests
// agree across every survivor), and (b) the resilient plane sustains
// strictly higher goodput during recovery than the teardown baseline.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/resilient.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "sim/cluster.h"

namespace {

constexpr int kRequests = 400;
constexpr int kWorld = 8;

struct ModeOutcome {
  std::vector<rcc::serve::ServeReport> finished;
  double completion = 0.0;  // max survivor end_time, virtual seconds
  // The run's serving metrics (its simulation's registry).
  rcc::obs::Histogram::Snapshot ttft, token;
  double recovery_tokens = 0.0, recovery_seconds = 0.0;
};

// `label` is the mode's {mode} metric label.
ModeOutcome RunMode(rcc::serve::RecoveryMode mode, const char* label) {
  using namespace rcc;
  serve::ServeOptions o;
  o.traffic.seed = 17;
  o.traffic.requests = kRequests;
  o.traffic.base_rps = 60.0;
  o.traffic.diurnal_amplitude = 0.4;
  o.traffic.diurnal_period_s = 3.0;
  o.traffic.min_prompt = 8;
  o.traffic.max_prompt = 32;
  o.traffic.min_decode = 8;
  o.traffic.max_decode = 24;
  o.max_batch = 8;
  o.hidden = 256;
  // Near-capacity operating point: the decode step is sized so the
  // clean-run service rate sits just above the diurnal peak, making the
  // latency quantiles SLO-shaped (batching delay at p50, failure
  // recovery in the tail) instead of saturated-queue artifacts.
  o.flops_per_token = 5e8;
  o.model_bytes = 64e6;
  o.mode = mode;
  o.autoscale.enabled = false;

  // The same seeded failures for both stacks: two mid-service kills.
  const struct {
    int pid;
    double at;
  } kills[] = {{5, 1.5}, {6, 3.5}};

  sim::Cluster cluster;
  std::vector<int> pids(kWorld);
  for (int i = 0; i < kWorld; ++i) pids[static_cast<size_t>(i)] = i;
  std::mutex mu;
  ModeOutcome out;
  cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
    for (const auto& k : kills) {
      if (ep.pid() == k.pid) ep.ArmKillAt(k.at);
    }
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess, nullptr);
    serve::ServingDriver d(&rc, o);
    serve::ServeReport r = d.Run();
    if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
    std::lock_guard<std::mutex> lock(mu);
    if (!r.aborted) {
      out.completion = std::max(out.completion, r.end_time);
      out.finished.push_back(std::move(r));
    }
  });
  cluster.Join();
  const obs::Registry& reg = cluster.fabric().metrics();
  const obs::Labels labels{{"mode", label}};
  out.ttft = reg.HistogramSnapshot("rcc_serve_ttft_seconds", labels);
  out.token = reg.HistogramSnapshot("rcc_serve_token_seconds", labels);
  out.recovery_tokens =
      reg.CounterValue("rcc_serve_recovery_tokens_total", labels);
  out.recovery_seconds =
      reg.CounterValue("rcc_serve_recovery_seconds_total", labels);
  return out;
}

// True when every survivor drained all kRequests exactly once and all
// replicated batcher digests agree (the P8 guarantee, audited here
// outside the chaos harness too).
bool ExactlyOnce(const ModeOutcome& out) {
  if (out.finished.empty()) return false;
  for (const auto& r : out.finished) {
    if (r.completed != kRequests) return false;
    if (r.digest != out.finished[0].digest) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace rcc;
  const ModeOutcome resilient =
      RunMode(serve::RecoveryMode::kResilient, "resilient");
  const ModeOutcome teardown =
      RunMode(serve::RecoveryMode::kTeardownRebuild, "teardown");

  Table table({"mode", "completed", "dropped", "repairs", "recovery steps",
               "completion (s)", "ttft p50 (ms)", "ttft p99 (ms)",
               "ttft p999 (ms)", "token p50 (ms)", "token p99 (ms)",
               "token p999 (ms)", "recovery goodput (tok/s)"});
  const struct {
    const char* name;
    const ModeOutcome* out;
  } rows[] = {{"resilient", &resilient}, {"teardown", &teardown}};
  double goodput[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    const ModeOutcome& out = *rows[i].out;
    const obs::Histogram::Snapshot& ttft = out.ttft;
    const obs::Histogram::Snapshot& tok = out.token;
    goodput[i] = out.recovery_seconds > 0
                     ? out.recovery_tokens / out.recovery_seconds
                     : 0.0;
    const serve::ServeReport& ref = rows[i].out->finished.empty()
                                        ? serve::ServeReport{}
                                        : rows[i].out->finished.front();
    table.AddRow({rows[i].name, std::to_string(ref.completed),
                  std::to_string(kRequests - ref.completed),
                  std::to_string(ref.repairs),
                  std::to_string(ref.recovery_steps),
                  FormatDouble(rows[i].out->completion, 3),
                  FormatDouble(ttft.Quantile(0.5) * 1e3, 2),
                  FormatDouble(ttft.Quantile(0.99) * 1e3, 2),
                  FormatDouble(ttft.Quantile(0.999) * 1e3, 2),
                  FormatDouble(tok.Quantile(0.5) * 1e3, 2),
                  FormatDouble(tok.Quantile(0.99) * 1e3, 2),
                  FormatDouble(tok.Quantile(0.999) * 1e3, 2),
                  FormatDouble(goodput[i], 1)});
  }
  bench::EmitTable(table,
                   "Serving SLO under two mid-service failures: resilient "
                   "replay vs teardown-rebuild (8 ranks, 400 requests, "
                   "diurnal Poisson arrivals)",
                   "serving_slo.csv");

  const bool no_drops = ExactlyOnce(resilient) && ExactlyOnce(teardown);
  const bool goodput_wins = goodput[0] > goodput[1];
  std::printf(
      "\nrecovery goodput ratio (resilient / teardown): %.1fx; "
      "exactly-once: %s\n",
      goodput[1] > 0 ? goodput[0] / goodput[1] : 0.0,
      no_drops ? "both stacks" : "VIOLATED");
  return no_drops && goodput_wins ? 0 : 1;
}
