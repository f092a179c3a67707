// The serving plane: deterministic traffic generation, the replicated
// continuous batcher, load-driven autoscaling, and the end-to-end
// guarantee the chaos oracle P8 audits — no admitted request is lost or
// double-completed across any repair.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <vector>

#include "core/resilient.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "sim/cluster.h"

// This binary's operator new counts its calls while armed (see
// Serving.DecodeStepsAllocateAlmostNothing).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<uint64_t> g_news{0};
}  // namespace

[[gnu::noinline]] void* operator new(size_t bytes) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace rcc::serve {
namespace {

using core::ResilientComm;

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

TEST(Generator, DeterministicSortedAndBounded) {
  TrafficConfig cfg;
  cfg.seed = 7;
  cfg.requests = 100;
  cfg.base_rps = 40.0;
  const std::vector<Request> a = GenerateArrivals(cfg);
  const std::vector<Request> b = GenerateArrivals(cfg);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    EXPECT_EQ(a[i].decode_tokens, b[i].decode_tokens);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    EXPECT_GE(a[i].prompt_tokens, cfg.min_prompt);
    EXPECT_LE(a[i].prompt_tokens, cfg.max_prompt);
    EXPECT_GE(a[i].decode_tokens, cfg.min_decode);
    EXPECT_LE(a[i].decode_tokens, cfg.max_decode);
  }
  cfg.seed = 8;
  const std::vector<Request> c = GenerateArrivals(cfg);
  EXPECT_NE(a[1].arrival, c[1].arrival);
}

TEST(Generator, DiurnalLoadCurveShiftsArrivals) {
  TrafficConfig flat;
  flat.seed = 11;
  flat.requests = 200;
  flat.base_rps = 50.0;
  TrafficConfig diurnal = flat;
  diurnal.diurnal_amplitude = 0.9;
  diurnal.diurnal_period_s = 2.0;
  const std::vector<Request> f = GenerateArrivals(flat);
  const std::vector<Request> d = GenerateArrivals(diurnal);
  ASSERT_EQ(d.size(), 200u);
  bool differs = false;
  for (size_t i = 0; i < f.size(); ++i) {
    if (f[i].arrival != d[i].arrival) differs = true;
  }
  EXPECT_TRUE(differs);
  // Same seed, same sizes: the size stream is independent of thinning.
  EXPECT_EQ(f[0].prompt_tokens, d[0].prompt_tokens);
}

TEST(Generator, EnvOverrides) {
  ::setenv("RCC_SERVE_SEED", "42", 1);
  ::setenv("RCC_SERVE_REQUESTS", "17", 1);
  ::setenv("RCC_SERVE_RPS", "123.5", 1);
  TrafficConfig cfg = TrafficFromEnv();
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.requests, 17);
  EXPECT_EQ(cfg.base_rps, 123.5);
  ::unsetenv("RCC_SERVE_SEED");
  ::unsetenv("RCC_SERVE_REQUESTS");
  ::unsetenv("RCC_SERVE_RPS");
}

// ---------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------

std::vector<Request> TinyStream() {
  // Two requests, immediate arrivals, 2 decode tokens each.
  std::vector<Request> s;
  s.push_back(Request{0, 0.0, 4, 2});
  s.push_back(Request{1, 0.01, 3, 2});
  return s;
}

TEST(Batcher, LifecycleCompletesRequests) {
  const std::vector<Request> stream = TinyStream();
  Batcher b(1);  // force queueing
  int prompts = 0;
  EXPECT_EQ(b.Admit(stream, 0.02, &prompts), 1);
  EXPECT_EQ(prompts, 4);
  EXPECT_EQ(b.waiting(), 1);
  EXPECT_EQ(b.running(), 1);
  b.CommitStep(stream, 0.03, 1.0f, 0.01);
  b.CommitStep(stream, 0.04, 1.0f, 0.01);  // request 0 finishes
  EXPECT_EQ(b.completions().size(), 1u);
  EXPECT_EQ(b.Admit(stream, 0.04), 1);  // request 1 scheduled
  b.CommitStep(stream, 0.05, 1.0f, 0.01);
  b.CommitStep(stream, 0.06, 1.0f, 0.01);
  ASSERT_EQ(b.completions().size(), 2u);
  EXPECT_TRUE(b.Drained(static_cast<int>(stream.size())));
  const Completion& c0 = b.completions()[0];
  EXPECT_EQ(c0.id, 0);
  EXPECT_EQ(c0.first_token, 0.03);
  EXPECT_EQ(c0.done, 0.04);
  EXPECT_EQ(c0.tokens, 2);
  // TTFT observations accumulate until drained, then drain exactly once.
  std::vector<double> ttft;
  b.TakeFirstTokenLatencies(&ttft);
  EXPECT_EQ(ttft.size(), 2u);
  b.TakeFirstTokenLatencies(&ttft);
  EXPECT_EQ(ttft.size(), 0u);
}

TEST(Batcher, SerializeRestoreRoundTrip) {
  const std::vector<Request> stream = TinyStream();
  Batcher b(1);
  b.Admit(stream, 0.02);
  b.CommitStep(stream, 0.03, 2.0f, 0.01);
  const std::vector<uint8_t> blob = b.Serialize();
  Batcher r(8);
  ASSERT_TRUE(r.Restore(blob).ok());
  EXPECT_EQ(r.digest(), b.digest());
  EXPECT_EQ(r.waiting(), b.waiting());
  EXPECT_EQ(r.running(), b.running());
  EXPECT_EQ(r.steps(), b.steps());
  EXPECT_EQ(r.next_arrival(), b.next_arrival());
  // The restored copy continues identically.
  b.CommitStep(stream, 0.04, 2.0f, 0.01);
  r.CommitStep(stream, 0.04, 2.0f, 0.01);
  EXPECT_EQ(r.digest(), b.digest());
  ASSERT_EQ(r.completions().size(), b.completions().size());
  EXPECT_TRUE(r.completions()[0] == b.completions()[0]);
  // Corrupt blob: trailing garbage is rejected.
  std::vector<uint8_t> bad = blob;
  bad.push_back(0xAB);
  EXPECT_FALSE(Batcher(1).Restore(bad).ok());
}

TEST(Batcher, RestartRunningResetsPositionsOnly) {
  const std::vector<Request> stream = TinyStream();
  Batcher b(4);
  b.Admit(stream, 0.02);
  b.CommitStep(stream, 0.03, 1.0f, 0.01);
  ASSERT_EQ(b.running(), 2);
  b.RestartRunning();
  // Positions reset: both requests need their full decode again.
  b.CommitStep(stream, 0.05, 1.0f, 0.01);
  EXPECT_EQ(b.completions().size(), 0u);
  b.CommitStep(stream, 0.06, 1.0f, 0.01);
  EXPECT_EQ(b.completions().size(), 2u);
}

// ---------------------------------------------------------------------
// End-to-end serving over ResilientComm
// ---------------------------------------------------------------------

ServeOptions SmallServe(int requests, double rps) {
  ServeOptions o;
  o.traffic.seed = 5;
  o.traffic.requests = requests;
  o.traffic.base_rps = rps;
  o.traffic.min_prompt = 4;
  o.traffic.max_prompt = 8;
  o.traffic.min_decode = 4;
  o.traffic.max_decode = 8;
  o.max_batch = 4;
  o.hidden = 64;
  return o;
}

struct RunOut {
  std::vector<ServeReport> finished;  // reports from ranks that drained
  std::vector<ServeReport> left;
  std::vector<ServeReport> joined;  // standby joiners that served
  obs::Registry metrics;  // a copy of the run's simulation registry
};

// Every admitted request completes exactly once across the union of any
// finisher's completion log (they must all agree anyway).
void ExpectNoDropsNoDoubles(const RunOut& out, int requests) {
  ASSERT_FALSE(out.finished.empty());
  const ServeReport& ref = out.finished.front();
  EXPECT_EQ(ref.completed, requests);
  std::map<int, int> seen;
  for (const Completion& c : ref.completions) seen[c.id]++;
  for (int id = 0; id < requests; ++id) {
    EXPECT_EQ(seen[id], 1) << "request " << id;
  }
  for (const ServeReport& r : out.finished) {
    EXPECT_EQ(r.digest, ref.digest);
    EXPECT_EQ(r.completed, ref.completed);
    EXPECT_EQ(r.end_time, ref.end_time);
    ASSERT_EQ(r.completions.size(), ref.completions.size());
    for (size_t i = 0; i < r.completions.size(); ++i) {
      EXPECT_TRUE(r.completions[i] == ref.completions[i])
          << "completion " << i << ": id " << r.completions[i].id << "/"
          << ref.completions[i].id << " admit " << r.completions[i].admit
          << "/" << ref.completions[i].admit << " first "
          << r.completions[i].first_token << "/"
          << ref.completions[i].first_token << " done "
          << r.completions[i].done << "/" << ref.completions[i].done;
    }
  }
}

struct Kill {
  int pid;
  double at;  // virtual seconds
};

RunOut RunServe(int world, const ServeOptions& opts, kv::Store* store,
                sim::SimConfig cfg = sim::SimConfig{},
                std::vector<Kill> kills = {}, int standbys = 0) {
  sim::Cluster cluster(cfg);
  std::mutex mu;
  RunOut out;
  std::vector<int> pids(static_cast<size_t>(world));
  for (int i = 0; i < world; ++i) pids[static_cast<size_t>(i)] = i;
  ServeOptions o = opts;
  o.store = store;
  cluster.Spawn(world, [&, o, pids](sim::Endpoint& ep) {
    for (const Kill& k : kills) {
      if (ep.pid() == k.pid) ep.ArmKillAt(k.at);
    }
    ResilientComm rc(ep, pids, o.policy, nullptr);
    ServingDriver d(&rc, o);
    ServeReport r = d.Run();
    if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
    std::lock_guard<std::mutex> lock(mu);
    if (r.left) {
      out.left.push_back(std::move(r));
    } else if (!r.aborted) {
      out.finished.push_back(std::move(r));
    }
  });
  for (int i = 0; i < standbys; ++i) {
    cluster.SpawnOnFreshNodes(
        1,
        [&, o, i](sim::Endpoint& ep) {
          ServeReport r =
              ServingDriver::RunStandbyJoiner(ep, o.store, o, i, nullptr);
          if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
          std::lock_guard<std::mutex> lock(mu);
          if (!r.aborted && !r.idle_standby) {
            out.finished.push_back(r);
            out.joined.push_back(std::move(r));
          }
        },
        /*start_time=*/0.0);
  }
  cluster.Join();
  out.metrics.Merge(cluster.fabric().metrics());
  return out;
}

TEST(Serving, DrainsEveryRequestWithoutFailures) {
  const ServeOptions o = SmallServe(40, 200.0);
  RunOut out = RunServe(4, o, nullptr);
  ASSERT_EQ(out.finished.size(), 4u);
  ExpectNoDropsNoDoubles(out, 40);
  EXPECT_EQ(out.finished[0].repairs, 0);
  EXPECT_EQ(out.finished[0].final_world, 4);
}

TEST(Serving, RankFailureMidDecodePreservesEveryAdmittedRequest) {
  const ServeOptions o = SmallServe(40, 200.0);
  RunOut out = RunServe(4, o, nullptr, sim::SimConfig{}, {{3, 0.05}});
  ASSERT_EQ(out.finished.size(), 3u);
  ExpectNoDropsNoDoubles(out, 40);
  EXPECT_GE(out.finished[0].repairs, 1);
  EXPECT_EQ(out.finished[0].final_world, 3);
  // The in-flight decode step was re-executed, not rolled back: the run
  // recovered within the step and recovery metrics captured it.
  EXPECT_GE(out.finished[0].recovery_steps, 1);
  const obs::Registry& reg = out.metrics;
  const obs::Labels labels{{"mode", "resilient"}};
  EXPECT_GT(reg.CounterValue("rcc_serve_tokens_total", labels), 0.0);
  EXPECT_GE(reg.CounterValue("rcc_serve_recovery_steps_total", labels), 1.0);
  EXPECT_GT(reg.CounterValue("rcc_serve_recovery_seconds_total", labels), 0.0);
  EXPECT_GT(
      reg.HistogramSnapshot("rcc_serve_ttft_seconds", labels).count, 0u);
  EXPECT_GT(
      reg.HistogramSnapshot("rcc_serve_token_seconds", labels).count, 0u);
}

TEST(Serving, ResilientRecoveryBeatsTeardownRebuild) {
  ServeOptions o = SmallServe(40, 200.0);
  o.mode = RecoveryMode::kResilient;
  RunOut resilient = RunServe(4, o, nullptr, sim::SimConfig{}, {{3, 0.05}});
  o.mode = RecoveryMode::kTeardownRebuild;
  RunOut teardown = RunServe(4, o, nullptr, sim::SimConfig{}, {{3, 0.05}});
  ASSERT_FALSE(resilient.finished.empty());
  ASSERT_FALSE(teardown.finished.empty());
  // Same failure schedule; both preserve the stream (the baseline
  // re-decodes, it does not drop), but resilient recovery finishes
  // strictly earlier because it replays one decode step instead of
  // rebuilding the job and every KV cache.
  ExpectNoDropsNoDoubles(resilient, 40);
  ExpectNoDropsNoDoubles(teardown, 40);
  EXPECT_LT(resilient.finished[0].end_time, teardown.finished[0].end_time);
}

TEST(Serving, QueuePressureAdmitsStandbyThroughAsyncExpand) {
  kv::Store store;
  ServeOptions o = SmallServe(120, 300.0);
  o.autoscale.enabled = true;
  o.autoscale.queue_high = 6;
  o.autoscale.queue_low = 0;  // never count a low step
  o.autoscale.low_steps = 1 << 30;
  o.autoscale.cooldown_steps = 8;
  o.autoscale.standby_pool = 1;
  o.autoscale.min_world = 3;
  o.model_bytes = 1e6;
  o.session = "serve-expand-test";
  sim::SimConfig cfg;
  cfg.costs.worker_coldstart = 0.2;
  RunOut out = RunServe(3, o, &store, cfg, /*kills=*/{}, /*standbys=*/1);
  ASSERT_EQ(out.joined.size(), 1u) << "standby was not admitted";
  ASSERT_EQ(out.finished.size(), 4u);  // 3 founders + 1 joiner drain
  ExpectNoDropsNoDoubles(out, 120);
  int splices_observed = 0;
  for (const ServeReport& r : out.finished) {
    splices_observed = std::max(splices_observed, r.expands);
  }
  EXPECT_GE(splices_observed, 1);  // the founders saw the splice
  for (const ServeReport& r : out.finished) EXPECT_EQ(r.final_world, 4);
}

TEST(Serving, SustainedLowLoadTriggersVoluntaryShrink) {
  ServeOptions o = SmallServe(24, 30.0);
  o.max_batch = 8;
  o.autoscale.enabled = true;
  o.autoscale.queue_high = 1 << 30;  // never expand
  o.autoscale.queue_low = 1;
  o.autoscale.low_steps = 6;
  o.autoscale.cooldown_steps = 4;
  o.autoscale.min_world = 2;
  // The deterministic engine orders each survivor's own shrink decision
  // against the leaver's departure repair (which can bring the world
  // down to min_world and turn the decision into a hold), so the
  // survivors' shrink count is stable.
  RunOut out = RunServe(3, o, nullptr);
  ASSERT_EQ(out.left.size(), 1u) << "no rank left voluntarily";
  ASSERT_EQ(out.finished.size(), 2u);
  ExpectNoDropsNoDoubles(out, 24);
  for (const ServeReport& r : out.finished) {
    EXPECT_EQ(r.final_world, 2);
    EXPECT_GE(r.shrinks, 1);
  }
}

TEST(Serving, DeterministicAcrossRuns) {
  // Two identical runs with a mid-decode kill agree exactly: served
  // data, completion count and virtual timing.
  const ServeOptions o = SmallServe(40, 200.0);
  RunOut a = RunServe(3, o, nullptr, sim::SimConfig{}, {{2, 0.05}});
  RunOut b = RunServe(3, o, nullptr, sim::SimConfig{}, {{2, 0.05}});
  ASSERT_FALSE(a.finished.empty());
  ASSERT_FALSE(b.finished.empty());
  EXPECT_EQ(a.finished[0].digest, b.finished[0].digest);
  EXPECT_EQ(a.finished[0].end_time, b.finished[0].end_time);
  EXPECT_EQ(a.finished[0].completed, b.finished[0].completed);
}

TEST(Serving, DigestOfAFixedRunWithKillsIsPinned) {
  // The replicated-state digest folds every decode step's allreduced
  // activation (element 0) into the batch state, so it pins the
  // activation fill and the whole recovery path bit for bit: 8
  // tensor-parallel ranks, 256-float activations, two kills, and over
  // three periods of the fill's step residue (mod 97).
  ServeOptions o = SmallServe(200, 200.0);
  o.hidden = 256;
  RunOut out =
      RunServe(8, o, nullptr, sim::SimConfig{}, {{3, 0.05}, {6, 0.2}});
  ASSERT_EQ(out.finished.size(), 6u);
  ExpectNoDropsNoDoubles(out, 200);
  EXPECT_EQ(out.finished[0].final_world, 6);
  EXPECT_GT(out.finished[0].steps, 3 * 97);
  EXPECT_EQ(out.finished[0].digest, 6443390940839902146ull);
}

TEST(Serving, DecodeStepsAllocateAlmostNothing) {
  // The benchmark's serving unit without its kills: 8 tensor-parallel
  // ranks, 1000 diurnal requests, 1 KiB activations. A decode step is
  // four small collectives (allreduce, its closing barrier, the clock
  // allgather and its barrier) whose op tasks, messages and scratch
  // buffers are all recycled; the engine that parked through the
  // scheduler's stack and allocated per op made about 12 heap
  // allocations per rank and step.
  ServeOptions o = SmallServe(1000, 60.0);
  o.traffic.diurnal_amplitude = 0.4;
  o.traffic.diurnal_period_s = 3.0;
  o.traffic.min_prompt = 8;
  o.traffic.max_prompt = 32;
  o.traffic.min_decode = 8;
  o.traffic.max_decode = 24;
  o.max_batch = 8;
  o.hidden = 256;
  o.flops_per_token = 5e8;
  g_news = 0;
  g_count_news = true;
  RunOut out = RunServe(8, o, nullptr);
  g_count_news = false;
  ASSERT_EQ(out.finished.size(), 8u);
  ExpectNoDropsNoDoubles(out, 1000);
  int64_t rank_steps = 0;
  for (const ServeReport& r : out.finished) rank_steps += r.steps;
  ASSERT_GT(rank_steps, 0);
  const double per_step =
      static_cast<double>(g_news.load()) / static_cast<double>(rank_steps);
  std::printf("heap allocations per rank decode step: %.3f (%llu over %lld)\n",
              per_step, static_cast<unsigned long long>(g_news.load()),
              static_cast<long long>(rank_steps));
  EXPECT_LE(per_step, 2.0);
}

}  // namespace
}  // namespace rcc::serve
