// Benchmark driver: runs ONE unit of a perfbench workload (or the layer
// probes) in this process and prints what the unit produced. run.py
// starts one driver per unit, so host wall/CPU/RSS are measured from
// outside (wait4), a crash or stall costs one unit, and every unit gets a
// private working directory for flight dumps and metrics files.
//
// Usage:
//   rcc_perfbench scenario nasnet <ulfm|eh> <down|same|up>
//                 <process|node> <world> <param_scale>
//   rcc_perfbench serve <traffic_seed> <requests> [<pid> <kill_at>]...
//   rcc_perfbench churn <schedule_seed> [<pid> <kill_at>]...
//   rcc_perfbench probe <world>
//   rcc_perfbench setup <any of the above>   (set-up only, then exit)
//
// Output, on stdout:
//   READY <steady-clock ns>   set-up done, the timed region starts
//   RESULT {json}             modeled outputs (%.17g: bit-exact)
// Exit status 0 means the unit ran to completion; run.py judges the
// outputs. A proven fiber stall exits 3.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "chaos/oracle.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "core/resilient.h"
#include "dnn/data.h"
#include "dnn/layers.h"
#include "dnn/model.h"
#include "dnn/zoo.h"
#include "kvstore/kvstore.h"
#include "mpi/comm.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "policy/policy.h"
#include "serve/generator.h"
#include "serve/server.h"
#include "sim/cluster.h"
#include "sim/engine.h"

namespace {

using namespace rcc;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool g_setup_only = false;  // `setup` prefix: stop at Ready()

// Probe results fold into this, so the timed calls cannot be elided.
volatile double g_sink = 0.0;

// Marks the end of set-up: run.py times set-up from its fork to this
// stamp (CLOCK_MONOTONIC on both sides) and the timed region from here
// to the child's exit.
void Ready() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  std::printf("READY %lld\n", static_cast<long long>(ns));
  if (g_setup_only) std::printf("RESULT {}\n");
  std::fflush(stdout);
  if (g_setup_only) std::exit(0);
}

// Flat JSON object writer; doubles at %.17g so modeled values compare
// bit for bit across runs.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const char* key, long long v) {
    return Raw(key, std::to_string(v));
  }
  Json& NumList(const char* key, const std::vector<double>& v) {
    std::string list = "[";
    char buf[64];
    for (double d : v) {
      std::snprintf(buf, sizeof buf, list.size() > 1 ? ", %.17g" : "%.17g", d);
      list += buf;
    }
    return Raw(key, list + "]");
  }
  Json& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c == '\n' ? ' ' : c);
    }
    return Raw(key, quoted + "\"");
  }
  void Print() const {
    std::printf("RESULT {%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  Json& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_.append("\"").append(key).append("\": ").append(value);
    return *this;
  }
  std::string body_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: rcc_perfbench scenario|serve|churn|probe ... "
               "(see driver.cc)\n");
  return 2;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0' && *out >= lo && *out <= hi;
}

// Nearest-rank quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// ---------------------------------------------------------------------
// scenario: one clean+faulty pair through bench::RunScenario.

int RunScenarioUnit(int argc, char** argv) {
  if (argc != 8) return Usage();
  const std::string model = argv[2], stack_name = argv[3],
                    scenario_name = argv[4], level_name = argv[5];
  long long world = 0;
  double param_scale = 0.0;
  if (!ParseInt(argv[6], 2, 1 << 16, &world) ||
      !ParseDouble(argv[7], &param_scale) || param_scale <= 0.0) {
    return Usage();
  }
  const std::map<std::string, bench::Scenario> scenarios = {
      {"down", bench::Scenario::kDown},
      {"same", bench::Scenario::kSame},
      {"up", bench::Scenario::kUp}};
  if (model != "nasnet" ||
      (stack_name != "ulfm" && stack_name != "eh") ||
      !scenarios.count(scenario_name) ||
      (level_name != "process" && level_name != "node")) {
    return Usage();
  }
  const bench::Stack stack = stack_name == "ulfm"
                                 ? bench::Stack::kUlfm
                                 : bench::Stack::kElasticHorovod;
  const bench::Scenario scenario = scenarios.at(scenario_name);
  const horovod::DropPolicy level = level_name == "node"
                                        ? horovod::DropPolicy::kNode
                                        : horovod::DropPolicy::kProcess;
  // The seed scales the model's declared size, so each seed is a
  // distinct input whose physical buffers (and host cost) stay put.
  dnn::ModelSpec spec = dnn::NasNetMobileSpec();
  spec.total_parameters *= param_scale;
  spec.size_mb *= param_scale;
  const horovod::SyntheticPlan plan =
      bench::MakeScenarioPlan(spec, scenario, level, static_cast<int>(world));
  const long long planned_steps =
      static_cast<long long>(plan.epochs) *
      (plan.steps_per_epoch + plan.padded_steps_per_epoch);
  Ready();

  const bench::ScenarioCosts c = bench::RunScenario(
      stack, spec, scenario, level, static_cast<int>(world));
  Json()
      .Int("final_world", c.final_world)
      .Num("overhead_s", c.total_overhead)
      .Num("clean_s", c.clean_time)
      .Num("faulty_s", c.faulty_time)
      .Num("reconstruction_s", c.reconstruction)
      .Num("recompute_s", c.recompute)
      .Int("planned_steps", planned_steps)
      .Print();
  return 0;
}

// ---------------------------------------------------------------------
// serve: the resilient serving plane on 8 TP ranks (bench_serving_slo's
// operating point) with seeded traffic and seeded kills.

constexpr int kServeWorld = 8;

int RunServeUnit(int argc, char** argv) {
  long long seed = 0, requests = 0;
  if (argc < 4 || (argc - 4) % 2 != 0 ||
      !ParseInt(argv[2], 0, (1ll << 62), &seed) ||
      !ParseInt(argv[3], 1, 1 << 20, &requests)) {
    return Usage();
  }
  std::vector<std::pair<int, double>> kills;
  for (int i = 4; i < argc; i += 2) {
    long long pid = 0;
    double at = 0.0;
    if (!ParseInt(argv[i], 0, kServeWorld - 1, &pid) ||
        !ParseDouble(argv[i + 1], &at) || at < 0.0) {
      return Usage();
    }
    kills.emplace_back(static_cast<int>(pid), at);
  }

  serve::ServeOptions o;
  o.traffic.seed = static_cast<uint64_t>(seed);
  o.traffic.requests = static_cast<int>(requests);
  o.traffic.base_rps = 60.0;
  o.traffic.diurnal_amplitude = 0.4;
  o.traffic.diurnal_period_s = 3.0;
  o.traffic.min_prompt = 8;
  o.traffic.max_prompt = 32;
  o.traffic.min_decode = 8;
  o.traffic.max_decode = 24;
  o.max_batch = 8;
  o.hidden = 256;
  o.flops_per_token = 5e8;
  o.model_bytes = 64e6;
  o.mode = serve::RecoveryMode::kResilient;
  o.autoscale.enabled = false;
  const std::vector<serve::Request> stream = serve::GenerateArrivals(o.traffic);
  std::vector<int> pids(kServeWorld);
  std::iota(pids.begin(), pids.end(), 0);

  std::mutex mu;
  std::vector<serve::ServeReport> finished;
  {
    sim::Cluster cluster;
    Ready();
    cluster.Spawn(kServeWorld, [&](sim::Endpoint& ep) {
      for (const auto& [pid, at] : kills) {
        if (ep.pid() == pid) ep.ArmKillAt(at);
      }
      core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess, nullptr);
      serve::ServingDriver d(&rc, o);
      serve::ServeReport r = d.Run();
      if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
      std::lock_guard<std::mutex> lock(mu);
      if (!r.aborted) finished.push_back(std::move(r));
    });
    cluster.Join();
  }
  obs::DumpIfRequested(nullptr);

  // P8, as bench_serving_slo checks it: every survivor drained the whole
  // stream and all replicated states agree.
  bool exactly_once = !finished.empty() &&
                      stream.size() == static_cast<size_t>(requests);
  for (const serve::ServeReport& r : finished) {
    exactly_once = exactly_once && r.completed == requests &&
                   r.digest == finished.front().digest &&
                   r.completions == finished.front().completions;
  }
  double completion = 0.0;
  for (const serve::ServeReport& r : finished) {
    completion = std::max(completion, r.end_time);
  }
  std::vector<double> ttft, token, queue_wait;
  const serve::ServeReport ref =
      finished.empty() ? serve::ServeReport{} : finished.front();
  for (const serve::Completion& c : ref.completions) {
    ttft.push_back(c.first_token - c.arrival);
    queue_wait.push_back(c.admit - c.arrival);
    if (c.tokens > 1) token.push_back((c.done - c.first_token) / (c.tokens - 1));
  }
  for (auto* v : {&ttft, &token, &queue_wait}) std::sort(v->begin(), v->end());
  // Completion time of every request, by id: run.py compares them with
  // the failure-free twin's.
  std::vector<double> done(static_cast<size_t>(requests), 0.0);
  for (const serve::Completion& c : ref.completions) {
    if (c.id >= 0 && c.id < requests) done[static_cast<size_t>(c.id)] = c.done;
  }
  Json()
      .Bool("exactly_once", exactly_once)
      .Int("survivors", static_cast<long long>(finished.size()))
      .Int("completed", ref.completed)
      .Num("completion_s", completion)
      .NumList("done_s", done)
      .Int("decode_steps", ref.steps)
      .Int("repairs", ref.repairs)
      .Int("recovery_steps", ref.recovery_steps)
      .Int("final_world", ref.final_world)
      .Num("ttft_p50_s", Quantile(ttft, 0.50))
      .Num("ttft_p99_s", Quantile(ttft, 0.99))
      .Num("token_p99_s", Quantile(token, 0.99))
      .Num("queue_wait_p99_s", Quantile(queue_wait, 0.99))
      .Print();
  return 0;
}

// ---------------------------------------------------------------------
// churn: one chaos campaign on the real-numerics ElasticTrainer under the
// adaptive recovery policy (the bench_policy_adaptive shape at world 96).

constexpr int kChurnWorld = 96;

chaos::Schedule ChurnSchedule(uint64_t seed) {
  chaos::Schedule s;
  s.seed = seed;
  s.format = 2;
  s.shape.world = kChurnWorld;
  s.shape.epochs = 8;
  s.shape.steps_per_epoch = 8;
  s.shape.grad_buckets = 4;
  s.shape.inflight_window = 2;
  s.shape.gpus_per_node = 6;
  s.shape.policy_mode = "adaptive";
  s.shape.replacements = 2;
  s.shape.compute_scale = 1e7;
  return s;
}

int RunChurnUnit(int argc, char** argv) {
  long long seed = 0;
  if (argc < 3 || (argc - 3) % 2 != 0 ||
      !ParseInt(argv[2], 0, (1ll << 62), &seed)) {
    return Usage();
  }
  chaos::Schedule s = ChurnSchedule(static_cast<uint64_t>(seed));
  for (int i = 3; i < argc; i += 2) {
    long long pid = 0;
    chaos::TimedKill k;
    k.scope = sim::FailScope::kProcess;
    if (!ParseInt(argv[i], 1, kChurnWorld - 1, &pid) ||
        !ParseDouble(argv[i + 1], &k.at) || k.at < 0.0) {
      return Usage();
    }
    k.target = static_cast<int>(pid);
    s.timed.push_back(k);
  }
  Ready();

  const chaos::CampaignOutcome out = chaos::RunSchedule(s);
  obs::DumpIfRequested(nullptr);
  const auto t_oracle = Clock::now();
  const std::vector<chaos::Violation> violations = chaos::CheckOracles(s, out);
  const double oracle_s = SecondsSince(t_oracle);

  long long useful = 0, steps_run = 0, rollback = 0, decisions = 0;
  for (const chaos::WorkerResult& w : out.results) {
    if (w.idle_replacement) continue;
    useful += w.report.steps_run - w.report.rollback_steps;
    steps_run += w.report.steps_run;
    rollback += w.report.rollback_steps;
    decisions = std::max<long long>(decisions, w.report.decisions.size());
  }
  Json()
      .Int("violations", static_cast<long long>(violations.size()))
      .Str("violation_detail", chaos::FormatViolations(violations))
      .Num("horizon_s", out.horizon)
      .Int("useful_steps", useful)
      .Int("steps_run", steps_run)
      .Int("rollback_steps", rollback)
      .Int("decisions", decisions)
      .Num("oracle_s", oracle_s)
      .Print();
  return 0;
}

// ---------------------------------------------------------------------
// probe: host cost of single calls into each layer, at a workload's
// world size. Each probe reports the median of five timed batches.

double MedianOf5(const std::function<double()>& batch) {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) v.push_back(batch());
  std::sort(v.begin(), v.end());
  return v[2];
}

// Host us per matched Send->Recv between two ranks while `world` ranks
// are registered and every receive watches all of them.
double RecvProbeUs(int world) {
  constexpr int kRoundTrips = 200;
  constexpr uint64_t kChannel = 1ull << 16;
  std::vector<int> watch(static_cast<size_t>(world));
  std::iota(watch.begin(), watch.end(), 0);
  double us = 0.0;
  sim::Cluster cluster;
  cluster.Spawn(world, [&](sim::Endpoint& ep) {
    sim::Message m;
    if (ep.pid() >= 2) {  // parked, alive and watched until released
      (void)ep.Recv(0, kChannel, /*tag=*/1, &m);
      return;
    }
    const int peer = 1 - ep.pid();
    const auto t0 = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      if (ep.pid() == 0) (void)ep.Send(peer, kChannel, 0, {});
      (void)ep.Recv(peer, kChannel, 0, &m, nullptr, &watch);
      if (ep.pid() == 1) (void)ep.Send(peer, kChannel, 0, {});
    }
    if (ep.pid() == 0) {
      us = SecondsSince(t0) * 1e6 / (2.0 * kRoundTrips);
      for (int p = 2; p < world; ++p) (void)ep.Send(p, kChannel, 1, {});
    }
  });
  cluster.Join();
  return us;
}

// Host us per YieldTask round (every one of `world` fibers yields once),
// net of spawning and joining the fibers.
double YieldProbeUs(int world) {
  constexpr int kRounds = 20;
  auto run = [world](int rounds) {
    const auto t0 = Clock::now();
    sim::Cluster cluster;
    cluster.Spawn(world, [rounds](sim::Endpoint&) {
      for (int r = 0; r < rounds; ++r) sim::YieldTask();
    });
    cluster.Join();
    return SecondsSince(t0);
  };
  return std::max(0.0, run(kRounds) - run(0)) * 1e6 / kRounds;
}

// Host us per 256-float allreduce on an 8-rank communicator.
double AllreduceProbeUs() {
  constexpr int kWorld = 8, kOps = 50;
  std::vector<int> pids(kWorld);
  std::iota(pids.begin(), pids.end(), 0);
  double us = 0.0;
  sim::Cluster cluster;
  cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    std::vector<float> in(256, 1.0f), out(256, 0.0f);
    (void)comm.Allreduce(in.data(), out.data(), in.size());
    const auto t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      (void)comm.Allreduce(in.data(), out.data(), in.size());
    }
    if (ep.pid() == 0) us = SecondsSince(t0) * 1e6 / kOps;
  });
  cluster.Join();
  return us;
}

// Host us per kvstore Set or Get (no endpoint: no virtual time charged).
double KvProbeUs() {
  constexpr int kKeys = 2000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("perfbench/key/" + std::to_string(i));
  kv::Store store;
  const auto t0 = Clock::now();
  for (const std::string& k : keys) {
    (void)store.Set(nullptr, k, std::vector<uint8_t>(16, 7));
    (void)store.Get(nullptr, k);
  }
  return SecondsSince(t0) * 1e6 / (2.0 * kKeys);
}

// Host ns per labelled counter lookup in a metrics registry.
double RegistryLookupProbeNs() {
  constexpr int kLookups = 20000;
  obs::Registry reg;
  const obs::Labels labels{{"algo", "ring"}, {"stack", "mpi"}};
  reg.GetCounter("rcc_collective_ops_total", labels)->Increment();
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kLookups; ++i) {
    sink += reg.GetCounter("rcc_collective_ops_total", labels)->Value();
  }
  g_sink = sink;
  return SecondsSince(t0) * 1e9 / kLookups;
}

// Host us per forward+backward of the chaos campaign MLP on one
// per-worker batch.
double FwdBwdProbeUs() {
  constexpr int kIters = 500;
  dnn::Model model = dnn::BuildMlp(8, {12}, 3, /*seed=*/99);
  const dnn::ClusterDataset data(8, 3, 512, 7);
  const dnn::Batch batch = data.GetBatch(0, 16);
  dnn::SoftmaxCrossEntropy loss;
  float sink = 0.0f;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    model.ZeroGrad();
    sink += loss.Forward(model.Forward(batch.x, /*train=*/true), batch.labels);
    model.Backward(loss.Backward());
  }
  g_sink = sink;
  return SecondsSince(t0) * 1e6 / kIters;
}

// Host us per adaptive-policy decision on a failure tick.
double DecideProbeUs() {
  constexpr int kDecisions = 20000;
  policy::PolicyInputs in;
  in.event = static_cast<int32_t>(policy::EventKind::kFailure);
  in.world = kChurnWorld - 1;
  in.lost = 1;
  in.replacements = 2;
  in.flags = policy::kFlagStoreOk | policy::kFlagRestoreOk;
  in.gstep = 20;
  in.remaining_steps = 44;
  in.rollback_steps = 4;
  in.now = 1.5;
  in.step_seconds = 0.02;
  in.mtbf_seconds = 0.5;
  in.snapshot_bytes = 1e6;
  in.staging_seconds = 0.01;
  in.rebuild_seconds = 0.05;
  in.grace_seconds = 0.01;
  int sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDecisions; ++i) {
    in.seq = i;
    sink += static_cast<int>(policy::Decide(policy::Mode::kAdaptive, in).chosen);
  }
  g_sink = sink;
  return SecondsSince(t0) * 1e6 / kDecisions;
}

int RunProbeUnit(int argc, char** argv) {
  long long world = 0;
  if (argc != 3 || !ParseInt(argv[2], 3, 1 << 16, &world)) return Usage();
  const int w = static_cast<int>(world);
  Ready();
  Json()
      .Num("sim_recv_us", MedianOf5([w] { return RecvProbeUs(w); }))
      .Num("sim_yield_us", MedianOf5([w] { return YieldProbeUs(w); }))
      .Num("coll_allreduce_us", MedianOf5(AllreduceProbeUs))
      .Num("kv_us", MedianOf5(KvProbeUs))
      .Num("registry_lookup_ns", MedianOf5(RegistryLookupProbeNs))
      .Num("dnn_fwd_bwd_us", MedianOf5(FwdBwdProbeUs))
      .Num("policy_decide_us", MedianOf5(DecideProbeUs))
      .Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A proven deadlock ends this unit with a distinct status instead of
  // the engine's abort; run.py counts either as a failed unit.
  sim::SetStallHandler([](const std::string& report) {
    std::fprintf(stderr, "STALL %s\n", report.c_str());
    std::fflush(stderr);
    _exit(3);
  });
  if (argc >= 2 && std::strcmp(argv[1], "setup") == 0) {
    g_setup_only = true;
    --argc;
    ++argv;
  }
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "scenario") return RunScenarioUnit(argc, argv);
  if (mode == "serve") return RunServeUnit(argc, argv);
  if (mode == "churn") return RunChurnUnit(argc, argv);
  if (mode == "probe") return RunProbeUnit(argc, argv);
  return Usage();
}
