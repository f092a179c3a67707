#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_json.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace rcc::obs {
namespace {

// A private registry per test is not possible (Global() is a process
// singleton), so tests use uniquely named metrics.

// Ranks of one simulation with a recorder attached, for tests that write
// kSpan/kOp/kCounter events onto the logs directly.
struct TracedSim {
  explicit TracedSim(int ranks) : fabric(sim::SimConfig{}) {
    for (int i = 0; i < ranks; ++i) {
      eps.push_back(std::make_unique<sim::Endpoint>(
          &fabric, fabric.RegisterProcess(0)));
    }
    rec.Attach(*eps.front());
  }
  flight::Ring& log(int pid) { return *eps[pid]->log(); }
  void Span(int pid, const char* phase, double start, double end) {
    log(pid).Record(flight::Ev::kSpan, end, 0, 0, start,
                    flight::Intern(phase));
  }
  void Counter(int pid, const char* series, double t, double value) {
    log(pid).Record(flight::Ev::kCounter, t, 0, 0, value,
                    flight::Intern(series));
  }
  sim::Fabric fabric;
  std::vector<std::unique_ptr<sim::Endpoint>> eps;
  trace::Recorder rec;
};

TEST(Metrics, CounterGaugeBasics) {
  auto& reg = Registry::Global();
  Counter* c = reg.GetCounter("obs_test_counter", {{"k", "v"}});
  c->Add(2.5);
  c->Increment();
  EXPECT_DOUBLE_EQ(reg.CounterValue("obs_test_counter", {{"k", "v"}}), 3.5);
  // Same name+labels resolves to the same instrument.
  EXPECT_EQ(reg.GetCounter("obs_test_counter", {{"k", "v"}}), c);
  // Label order does not matter.
  Counter* c2 =
      reg.GetCounter("obs_test_counter2", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(reg.GetCounter("obs_test_counter2", {{"b", "2"}, {"a", "1"}}),
            c2);

  Gauge* g = reg.GetGauge("obs_test_gauge");
  g->Set(42.0);
  g->Add(-2.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("obs_test_gauge"), 40.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  Histogram h;
  h.Observe(1e-9);   // first bucket
  h.Observe(0.5);
  h.Observe(2.0);
  h.Observe(1e12);   // beyond range: last (+Inf) bucket
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_NEAR(s.sum, 1e12 + 2.5 + 1e-9, 1.0);
  EXPECT_DOUBLE_EQ(s.min, 1e-9);
  EXPECT_DOUBLE_EQ(s.max, 1e12);
  EXPECT_NEAR(s.Mean(), s.sum / 4, 1e-6);
  // Cumulative counts are monotone and end at the total.
  uint64_t prev = 0;
  for (const auto& [bound, cum] : s.cumulative) {
    EXPECT_GE(cum, prev);
    prev = cum;
  }
  EXPECT_EQ(s.cumulative.back().second, 4u);
  EXPECT_TRUE(std::isinf(s.cumulative.back().first));
  // Bucket math: the index bound must contain the value.
  for (double v : {1e-9, 3e-7, 0.5, 2.0, 900.0}) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketBound(idx));
    if (idx > 0) {
      EXPECT_GT(v, Histogram::BucketBound(idx - 1));
    }
  }
  // Quantile estimates stay within a bucket width of the true value and
  // never leave the observed range.
  EXPECT_GE(s.Quantile(0.5), 0.5);
  EXPECT_LE(s.Quantile(0.5), 2.0 * 0.5 + 1e-9);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), s.max);
  EXPECT_GE(s.Quantile(0.0), s.min);
}

TEST(Metrics, QuantileEstimatesBoundedByBucketWidth) {
  // 1000 uniform observations in [1ms, 2ms]: every estimated quantile
  // must land within the log-bucket's factor-of-2 error bound of the
  // exact empirical quantile, and extreme quantiles clamp to min/max.
  Histogram h;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-3 + 1e-3 * (i / 999.0);
    vals.push_back(v);
    h.Observe(v);
  }
  const auto s = h.TakeSnapshot();
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = vals[static_cast<size_t>(q * 999)];
    const double est = s.Quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
    EXPECT_GE(est, s.min);
    EXPECT_LE(est, s.max);
  }
  // Monotone in q.
  EXPECT_LE(s.Quantile(0.5), s.Quantile(0.9));
  EXPECT_LE(s.Quantile(0.9), s.Quantile(0.99));
  EXPECT_LE(s.Quantile(0.99), s.Quantile(0.999));
}

TEST(Metrics, QuantileSingleObservationIsExact) {
  Histogram h;
  h.Observe(0.125);
  const auto s = h.TakeSnapshot();
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(s.Quantile(q), 0.125);
  }
  EXPECT_DOUBLE_EQ(Histogram::Snapshot{}.Quantile(0.5), 0.0);  // empty
}

// The registry must tolerate many threads hammering the same and
// different instruments concurrently (the TSan preset runs this).
TEST(Metrics, ConcurrentRecording) {
  auto& reg = Registry::Global();
  constexpr int kWriters = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&reg, t] {
      Counter* shared = reg.GetCounter("obs_test_conc_shared");
      Histogram* hist = reg.GetHistogram("obs_test_conc_hist");
      for (int i = 0; i < kIters; ++i) {
        shared->Increment();
        // First-use registration races on purpose.
        reg.GetCounter("obs_test_conc_labeled",
                       {{"t", std::to_string((t + i) % 4)}})
            ->Add(1.0);
        hist->Observe(1e-6 * (i + 1));
        reg.GetGauge("obs_test_conc_gauge")->Set(static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(reg.CounterValue("obs_test_conc_shared"),
                   kWriters * kIters);
  double labeled = 0;
  for (int k = 0; k < 4; ++k) {
    labeled += reg.CounterValue("obs_test_conc_labeled",
                                {{"t", std::to_string(k)}});
  }
  EXPECT_DOUBLE_EQ(labeled, kWriters * kIters);
  const auto s = reg.HistogramSnapshot("obs_test_conc_hist");
  EXPECT_EQ(s.count, static_cast<uint64_t>(kWriters) * kIters);
  EXPECT_DOUBLE_EQ(s.min, 1e-6);
  EXPECT_DOUBLE_EQ(s.max, 1e-6 * kIters);
}

TEST(Metrics, PrometheusTextShape) {
  auto& reg = Registry::Global();
  reg.GetCounter("obs_test_prom_total", {{"algo", "ring"}})->Add(3);
  reg.SetHelp("obs_test_prom_total", "test counter");
  reg.GetHistogram("obs_test_prom_seconds")->Observe(0.25);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP obs_test_prom_total test counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total{algo=\"ring\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_seconds_count 1"), std::string::npos);
  // Summary-style quantile estimates ride along with the buckets.
  EXPECT_NE(text.find("obs_test_prom_seconds{quantile=\"0.5\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_seconds{quantile=\"0.999\"} 0.25"),
            std::string::npos);
  // CSV exposition carries the same families plus quantile columns.
  const std::string csv = reg.CsvText();
  EXPECT_NE(csv.find("metric,labels,type,value,count,sum,mean,min,max,"
                     "p50,p90,p99,p999"),
            std::string::npos);
  EXPECT_NE(csv.find("obs_test_prom_total"), std::string::npos);
  EXPECT_NE(csv.find("histogram"), std::string::npos);
  EXPECT_NE(csv.find(",0.25,0.25,0.25,0.25,0.25,0.25,0.25\n"),
            std::string::npos);  // min,max,p50,p90,p99,p999 all 0.25
}

// Round-trip: the summary-style quantile series in the Prometheus
// exposition must parse back to what Snapshot::Quantile computes from
// the live histogram (to the exposition's 9 significant digits) — the
// scrape is the paper's tail-latency data source, so the two paths may
// never drift.
TEST(Metrics, PrometheusQuantilesRoundTrip) {
  auto& reg = Registry::Global();
  Histogram* h = reg.GetHistogram("obs_test_quant_rt_seconds");
  for (int i = 1; i <= 500; ++i) h->Observe(1e-4 * i);
  const Histogram::Snapshot snap =
      reg.HistogramSnapshot("obs_test_quant_rt_seconds");

  const std::string text = reg.PrometheusText();
  const double qs[] = {0.5, 0.9, 0.99, 0.999};
  const char* labels[] = {"0.5", "0.9", "0.99", "0.999"};
  for (int i = 0; i < 4; ++i) {
    const std::string needle = std::string("obs_test_quant_rt_seconds") +
                               "{quantile=\"" + labels[i] + "\"} ";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << "missing quantile " << labels[i];
    // Parse the exported sample value back off the line.
    const size_t val_at = at + needle.size();
    const size_t eol = text.find('\n', val_at);
    ASSERT_NE(eol, std::string::npos);
    const double parsed = std::stod(text.substr(val_at, eol - val_at));
    const double expected = snap.Quantile(qs[i]);
    EXPECT_NEAR(parsed, expected, 1e-8 * std::abs(expected) + 1e-15)
        << "q=" << labels[i];
  }
}

TEST(JsonLite, ParsesAndRejects) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Parse(
      R"({"a":[1,2.5,-3e2],"b":{"c":"x\n\"y\""},"d":true,"e":null})", &v,
      &err))
      << err;
  EXPECT_DOUBLE_EQ(v.Find("a")->AsArray()[2].AsNumber(), -300.0);
  EXPECT_EQ(v.Find("b")->Find("c")->AsString(), "x\n\"y\"");
  EXPECT_TRUE(v.Find("d")->AsBool());
  EXPECT_TRUE(v.Find("e")->is_null());
  EXPECT_FALSE(json::Parse("{", &v, &err));
  EXPECT_FALSE(json::Parse("[1,2,]", &v, &err));
  EXPECT_FALSE(json::Parse("{\"a\":1} trailing", &v, &err));
}

// Schema round-trip: the trace JSON we emit parses, validates, and the
// required fields (ph, ts, dur, pid, tid, name) survive with the values
// the recorder held.
TEST(TraceJson, SchemaRoundTrip) {
  TracedSim sim(5);
  sim.Span(3, "recovery/ulfm_repair", 1.5, 2.0);
  sim.Span(4, "init/nccl_reinit", 0.0, 0.25);
  sim.log(3).Record(flight::Ev::kOp, 2.5, 42, 64000000, 2.0,
                    flight::Intern("ring"));

  const std::string json_text = ToChromeTraceJson(sim.rec);
  std::string err;
  size_t checked = 0;
  ASSERT_TRUE(ValidateChromeTraceJson(json_text, &err, &checked)) << err;
  EXPECT_EQ(checked, 3u);

  json::Value doc;
  ASSERT_TRUE(json::Parse(json_text, &doc, &err)) << err;
  const auto& events = doc.Find("traceEvents")->AsArray();
  bool found_phase = false, found_op = false;
  for (const auto& e : events) {
    if (e.Find("ph")->AsString() != "X") continue;
    const std::string name = e.Find("name")->AsString();
    if (name == "recovery/ulfm_repair") {
      found_phase = true;
      EXPECT_DOUBLE_EQ(e.Find("ts")->AsNumber(), 1.5e6);   // µs
      EXPECT_DOUBLE_EQ(e.Find("dur")->AsNumber(), 0.5e6);
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 3.0);
      EXPECT_DOUBLE_EQ(e.Find("tid")->AsNumber(), 0.0);
      EXPECT_EQ(e.Find("cat")->AsString(), "recovery");
    } else if (name == "ring") {
      found_op = true;
      EXPECT_DOUBLE_EQ(e.Find("ts")->AsNumber(), 2.0e6);
      EXPECT_DOUBLE_EQ(e.Find("dur")->AsNumber(), 0.5e6);
      EXPECT_DOUBLE_EQ(e.Find("tid")->AsNumber(), 1.0);
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("op_id")->AsNumber(), 42.0);
    }
  }
  EXPECT_TRUE(found_phase);
  EXPECT_TRUE(found_op);
}

// Counter samples become ph:"C" events carrying the series value; the
// validator counts them and the values survive the round-trip.
TEST(TraceJson, CounterEventsRoundTrip) {
  TracedSim sim(3);
  sim.Span(0, "step", 0.0, 1.0);  // at least one complete event
  sim.Counter(0, "world_size", 0.5, 63.0);
  sim.Counter(0, "world_size", 1.5, 62.0);
  sim.Counter(2, "in_flight_window", 0.75, 4.0);

  const std::string json_text = ToChromeTraceJson(sim.rec);
  std::string err;
  size_t checked = 0;
  size_t counters = 0;
  ASSERT_TRUE(ValidateChromeTraceJson(json_text, &err, &checked, &counters))
      << err;
  EXPECT_EQ(checked, 1u);
  EXPECT_EQ(counters, 3u);

  json::Value doc;
  ASSERT_TRUE(json::Parse(json_text, &doc, &err)) << err;
  int world_samples = 0;
  bool found_window = false;
  for (const auto& e : doc.Find("traceEvents")->AsArray()) {
    if (e.Find("ph")->AsString() != "C") continue;
    const std::string name = e.Find("name")->AsString();
    if (name == "world_size") {
      ++world_samples;
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 0.0);
      const double v = e.Find("args")->Find("world_size")->AsNumber();
      EXPECT_TRUE(v == 63.0 || v == 62.0) << v;
    } else if (name == "in_flight_window") {
      found_window = true;
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 2.0);
      EXPECT_DOUBLE_EQ(e.Find("ts")->AsNumber(), 0.75e6);
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("in_flight_window")->AsNumber(),
                       4.0);
    }
  }
  EXPECT_EQ(world_samples, 2);
  EXPECT_TRUE(found_window);
}

TEST(TraceJson, ValidatorRejectsBrokenDocuments) {
  std::string err;
  EXPECT_FALSE(ValidateChromeTraceJson("not json", &err));
  EXPECT_FALSE(ValidateChromeTraceJson("{}", &err));
  EXPECT_FALSE(ValidateChromeTraceJson(R"({"traceEvents":[]})", &err));
  // A complete event missing dur must fail.
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]})",
      &err));
  // Negative dur must fail.
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-5,"pid":0,"tid":0}]})",
      &err));
  // A minimal valid doc passes.
  EXPECT_TRUE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":5,"pid":0,"tid":0}]})",
      &err))
      << err;
  // A counter event without a numeric series value must fail.
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":5,"pid":0,"tid":0},)"
      R"({"name":"c","ph":"C","ts":1,"pid":0,"args":{"c":"not a number"}}]})",
      &err));
  // A counter event missing args must fail.
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":5,"pid":0,"tid":0},)"
      R"({"name":"c","ph":"C","ts":1,"pid":0}]})",
      &err));
  // A well-formed counter event passes alongside the complete event.
  size_t counters = 0;
  EXPECT_TRUE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":5,"pid":0,"tid":0},)"
      R"({"name":"c","ph":"C","ts":1,"pid":0,"args":{"c":7}}]})",
      &err, nullptr, &counters))
      << err;
  EXPECT_EQ(counters, 1u);
}

// Spans must feed both the event log (the recorder's tables and trace
// export) and the phase histogram on the endpoint's virtual clock.
TEST(Span, RecordsTraceAndHistogram) {
  trace::Recorder rec;
  sim::Cluster cluster;
  cluster.Spawn(1, [&](sim::Endpoint& ep) {
    Span span(&rec, ep, "obs_test/span_phase", "obs_test_span_seconds");
    ep.Busy(0.125);
  });
  cluster.Join();
  const auto events = rec.EventsForPhase("obs_test/span_phase");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].duration(), 0.125, 1e-9);
  const auto s = Registry::Global().HistogramSnapshot(
      "obs_test_span_seconds", {{"phase", "obs_test/span_phase"}});
  ASSERT_EQ(s.count, 1u);
  EXPECT_NEAR(s.sum, 0.125, 1e-9);
}

TEST(JsonLite, SurrogatePairsDecodeToUtf8NotCesu8) {
  json::Value v;
  std::string err;
  // 😀 is U+1F600: one 4-byte UTF-8 sequence, not the 6-byte
  // CESU-8 pair-of-3-byte-sequences a naive per-escape decoder emits.
  // Keys and values go through the same unescape path.
  ASSERT_TRUE(json::Parse(R"({"k😀": "a🚀b"})", &v, &err))
      << err;
  const std::string key = std::string("k") + "\xF0\x9F\x98\x80";
  const json::Value* f = v.Find(key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->AsString(), std::string("a") + "\xF0\x9F\x9A\x80" + "b");
  // BMP escapes still decode to their short forms.
  ASSERT_TRUE(json::Parse(R"(["Aé€"])", &v, &err)) << err;
  EXPECT_EQ(v.AsArray()[0].AsString(), "A\xC3\xA9\xE2\x82\xAC");
  // Lone / malformed surrogates are parse errors, never raw output.
  EXPECT_FALSE(json::Parse(R"(["\uD83D"])", &v, &err));
  EXPECT_FALSE(json::Parse(R"(["\uD83Dx"])", &v, &err));
  EXPECT_FALSE(json::Parse(R"(["\uD83DA"])", &v, &err));
  EXPECT_FALSE(json::Parse(R"(["\uDE00"])", &v, &err));  // low first
}

TEST(Metrics, ResetAllZeroesButKeepsRegistrations) {
  auto& reg = Registry::Global();
  Counter* c = reg.GetCounter("obs_test_reset_total");
  c->Add(5);
  reg.GetHistogram("obs_test_reset_seconds")->Observe(1.0);
  reg.ResetAll();
  EXPECT_DOUBLE_EQ(reg.CounterValue("obs_test_reset_total"), 0.0);
  EXPECT_EQ(reg.HistogramSnapshot("obs_test_reset_seconds").count, 0u);
  // Pointer stability across reset.
  EXPECT_EQ(reg.GetCounter("obs_test_reset_total"), c);
}

// A cached handle resolves to exactly the instrument a fresh lookup
// returns, registers nothing until first use, and copies share it.
TEST(Handle, ResolvesToTheLookedUpInstrument) {
  auto& reg = Registry::Global();
  CounterHandle c("obs_test_handle_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(reg.PrometheusText().find("obs_test_handle_total"),
            std::string::npos);  // lazy: not registered before first use
  c->Add(2.0);
  EXPECT_EQ(c.Get(),
            reg.GetCounter("obs_test_handle_total", {{"a", "1"}, {"b", "2"}}));
  EXPECT_DOUBLE_EQ(
      reg.CounterValue("obs_test_handle_total", {{"a", "1"}, {"b", "2"}}),
      2.0);
  const CounterHandle copy = c;
  EXPECT_EQ(copy.Get(), c.Get());

  GaugeHandle g("obs_test_handle_gauge");
  g->Set(7.0);
  EXPECT_EQ(g.Get(), reg.GetGauge("obs_test_handle_gauge"));
  HistogramHandle h("obs_test_handle_seconds", {{"phase", "x"}});
  h->Observe(0.5);
  EXPECT_EQ(h.Get(),
            reg.GetHistogram("obs_test_handle_seconds", {{"phase", "x"}}));

  // Racing first resolutions agree on the pointer.
  CounterHandle shared("obs_test_handle_race_total", {{"k", "v"}});
  std::vector<Counter*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      seen[t] = shared.Get();
      seen[t]->Increment();
    });
  }
  for (auto& t : threads) t.join();
  for (Counter* p : seen) EXPECT_EQ(p, seen[0]);
  EXPECT_DOUBLE_EQ(
      reg.CounterValue("obs_test_handle_race_total", {{"k", "v"}}), 8.0);
}

TEST(Handle, StaysValidAcrossResetAll) {
  auto& reg = Registry::Global();
  CounterHandle c("obs_test_handle_reset_total");
  HistogramHandle h("obs_test_handle_reset_seconds");
  Counter* before = c.Get();
  c->Add(5.0);
  h->Observe(1.0);
  reg.ResetAll();
  EXPECT_DOUBLE_EQ(reg.CounterValue("obs_test_handle_reset_total"), 0.0);
  EXPECT_EQ(reg.HistogramSnapshot("obs_test_handle_reset_seconds").count,
            0u);
  c->Increment();
  h->Observe(2.0);
  EXPECT_EQ(c.Get(), before);
  EXPECT_EQ(reg.GetCounter("obs_test_handle_reset_total"), before);
  EXPECT_DOUBLE_EQ(reg.CounterValue("obs_test_handle_reset_total"), 1.0);
  EXPECT_EQ(reg.HistogramSnapshot("obs_test_handle_reset_seconds").count,
            1u);
}

// The same recording sequence through cached handles and through
// per-event Get* lookups yields byte-identical Prometheus and CSV
// exposition, including the series a handle never touched (absent in
// both) and an algo name met at two addresses.
TEST(Handle, ExpositionMatchesPerEventLookups) {
  Registry via_handles;
  Registry via_lookups;
  struct Algo {
    Algo(const char* algo, Registry* reg)
        : ops("t_ops_total", {{"algo", algo}, {"stack", "t"}}, reg),
          failed("t_ops_failed_total", {{"algo", algo}}, reg),
          latency("t_latency_seconds", {{"algo", algo}, {"stack", "t"}}, reg) {}
    CounterHandle ops, failed;
    HistogramHandle latency;
  };
  ByAlgo<Algo> table;
  GaugeHandle inflight("t_inflight", {}, &via_handles);
  const char ring_copy[] = "ring";  // same name, another address
  const std::vector<std::pair<const char*, double>> ops = {
      {"ring", 1e-3}, {"tree", 2e-4}, {ring_copy, 5e-3}, {"ring", 0.25}};
  for (const auto& [algo, latency] : ops) {
    Algo& m = *table.For(algo, &via_handles);
    m.ops->Increment();
    m.latency->Observe(latency);
    inflight->Add(1.0);
    Registry& r = via_lookups;
    r.GetCounter("t_ops_total", {{"algo", algo}, {"stack", "t"}})->Increment();
    r.GetHistogram("t_latency_seconds", {{"stack", "t"}, {"algo", algo}})
        ->Observe(latency);
    r.GetGauge("t_inflight")->Add(1.0);
  }
  EXPECT_EQ(via_handles.PrometheusText(), via_lookups.PrometheusText());
  EXPECT_EQ(via_handles.CsvText(), via_lookups.CsvText());
  EXPECT_EQ(via_handles.PrometheusText().find("t_ops_failed_total"),
            std::string::npos);
}

// A span over a cached SpanPhase records exactly what the per-span
// lookup form records.
TEST(Span, CachedPhaseMatchesLookupForm) {
  trace::Recorder rec;
  sim::Cluster cluster;
  const SpanPhase phase("obs_test/cached_phase", "obs_test_cached_span_seconds");
  cluster.Spawn(1, [&](sim::Endpoint& ep) {
    {
      Span span(&rec, ep, phase);
      ep.Busy(0.25);
    }
    Span span(&rec, ep, "obs_test/cached_phase", "obs_test_cached_span_seconds");
    ep.Busy(0.5);
  });
  cluster.Join();
  ASSERT_EQ(rec.EventsForPhase("obs_test/cached_phase").size(), 2u);
  const auto s = Registry::Global().HistogramSnapshot(
      "obs_test_cached_span_seconds", {{"phase", "obs_test/cached_phase"}});
  EXPECT_EQ(s.count, 2u);
  EXPECT_NEAR(s.sum, 0.75, 1e-9);
  EXPECT_EQ(phase.hist.Get(),
            Registry::Global().GetHistogram(
                "obs_test_cached_span_seconds",
                {{"phase", "obs_test/cached_phase"}}));
}

}  // namespace
}  // namespace rcc::obs
