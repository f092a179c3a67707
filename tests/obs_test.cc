#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_json.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace rcc::obs {
namespace {

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
  Registry reg;
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

TEST(Metrics, PrometheusTextShape) {
  Registry reg;
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
  Registry reg;
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
  const auto s = cluster.fabric().metrics().HistogramSnapshot(
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

// A cached handle resolves to exactly the instrument a fresh lookup
// returns, registers nothing until first use, and copies share it.
TEST(Handle, ResolvesToTheLookedUpInstrument) {
  Registry reg;
  CounterHandle c(reg, "obs_test_handle_total", {{"b", "2"}, {"a", "1"}});
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

  GaugeHandle g(reg, "obs_test_handle_gauge");
  g->Set(7.0);
  EXPECT_EQ(g.Get(), reg.GetGauge("obs_test_handle_gauge"));
  HistogramHandle h(reg, "obs_test_handle_seconds", {{"phase", "x"}});
  h->Observe(0.5);
  EXPECT_EQ(h.Get(),
            reg.GetHistogram("obs_test_handle_seconds", {{"phase", "x"}}));
}

// The same recording sequence through cached handles and through
// per-event Get* lookups yields byte-identical Prometheus and CSV
// exposition, including the series a handle never touched (absent in
// both) and an algo name met at two addresses.
TEST(Handle, ExpositionMatchesPerEventLookups) {
  Registry via_handles;
  Registry via_lookups;
  struct Algo {
    Algo(const char* algo, Registry& reg)
        : ops(reg, "t_ops_total", {{"algo", algo}, {"stack", "t"}}),
          failed(reg, "t_ops_failed_total", {{"algo", algo}}),
          latency(reg, "t_latency_seconds", {{"algo", algo}, {"stack", "t"}}) {}
    CounterHandle ops, failed;
    HistogramHandle latency;
  };
  ByAlgo<Algo> table;
  GaugeHandle inflight(via_handles, "t_inflight");
  const char ring_copy[] = "ring";  // same name, another address
  const std::vector<std::pair<const char*, double>> ops = {
      {"ring", 1e-3}, {"tree", 2e-4}, {ring_copy, 5e-3}, {"ring", 0.25}};
  for (const auto& [algo, latency] : ops) {
    Algo& m = *table.For(algo, via_handles);
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
  Registry& reg = cluster.fabric().metrics();
  const SpanPhase phase(reg, "obs_test/cached_phase",
                        "obs_test_cached_span_seconds");
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
  const auto s = reg.HistogramSnapshot(
      "obs_test_cached_span_seconds", {{"phase", "obs_test/cached_phase"}});
  EXPECT_EQ(s.count, 2u);
  EXPECT_NEAR(s.sum, 0.75, 1e-9);
  EXPECT_EQ(phase.hist.Get(),
            reg.GetHistogram(
                "obs_test_cached_span_seconds",
                {{"phase", "obs_test/cached_phase"}}));
}

// Merge registers every instrument of the source (touched or not),
// adds counters, merges histogram buckets, count, sum, min and max,
// takes the source's gauge value and carries HELP text.
TEST(Metrics, MergeFoldsEveryInstrumentKind) {
  Registry a;
  a.GetCounter("m_total", {{"k", "v"}})->Add(2.0);
  a.GetHistogram("m_seconds")->Observe(0.5);
  a.GetHistogram("m_seconds")->Observe(4.0);
  a.GetGauge("m_gauge")->Set(9.0);
  a.GetCounter("m_idle_total");
  a.SetHelp("m_total", "merged counter");
  Registry b;
  b.GetCounter("m_total", {{"k", "v"}})->Add(3.0);
  b.GetHistogram("m_seconds")->Observe(0.25);
  b.GetGauge("m_gauge")->Set(1.0);

  Registry sum;
  sum.Merge(a);
  EXPECT_EQ(sum.PrometheusText(), a.PrometheusText());  // into empty: a copy
  sum.Merge(b);
  EXPECT_DOUBLE_EQ(sum.CounterValue("m_total", {{"k", "v"}}), 5.0);
  const Histogram::Snapshot h = sum.HistogramSnapshot("m_seconds");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 4.75);
  EXPECT_DOUBLE_EQ(h.min, 0.25);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_EQ(h.cumulative.back().second, 3u);
  EXPECT_DOUBLE_EQ(sum.GaugeValue("m_gauge"), 1.0);  // the last fold's
  EXPECT_NE(sum.PrometheusText().find("m_idle_total 0"), std::string::npos);
  EXPECT_NE(sum.PrometheusText().find("# HELP m_total merged counter"),
            std::string::npos);
}

// Reads a whole file ("" when missing).
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Each simulation folds its registry into the export sink when it ends,
// so two sequential runs export as summed counters, merged histograms
// and the second run's gauge, written after both clusters are gone.
TEST(ExportSink, SequentialSimulationsFoldIntoTheMetricsFiles) {
  auto run = [](double add, double observe, double gauge) {
    sim::Cluster cluster;
    cluster.Spawn(2, [&](sim::Endpoint& ep) {
      Registry& reg = ep.metrics();
      reg.GetCounter("obs_test_fold_total")->Add(add);
      reg.GetHistogram("obs_test_fold_seconds")
          ->Observe(observe * (ep.pid() + 1));
      reg.GetGauge("obs_test_fold_gauge")->Set(gauge);
    });
    cluster.Join();
  };
  run(1.5, 0.25, 7.0);  // counter 3, observations {0.25, 0.5}, gauge 7
  run(2.0, 1.0, 3.0);   // counter 4, observations {1, 2}, gauge 3

  const std::string path = "obs_test_fold_metrics.prom";
  ASSERT_EQ(::setenv("RCC_METRICS_OUT", path.c_str(), 1), 0);
  const bool written = DumpIfRequested(nullptr);
  ::unsetenv("RCC_METRICS_OUT");
  ASSERT_TRUE(written);
  const std::string prom = Slurp(path);
  const std::string csv = Slurp(path + ".csv");
  std::remove(path.c_str());
  std::remove((path + ".csv").c_str());
  EXPECT_NE(prom.find("\nobs_test_fold_total 7\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\nobs_test_fold_gauge 3\n"), std::string::npos);
  EXPECT_NE(prom.find("\nobs_test_fold_seconds_count 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\nobs_test_fold_seconds_sum 3.75\n"),
            std::string::npos);
  // CSV: metric,labels,type,value,count,sum,mean,min,max,...
  EXPECT_NE(csv.find("obs_test_fold_total,\"\",counter,7,"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("obs_test_fold_gauge,\"\",gauge,3,"), std::string::npos);
  EXPECT_NE(csv.find("obs_test_fold_seconds,\"\",histogram,,4,3.75,0.9375,"
                     "0.25,2,"),
            std::string::npos);
}

// Two simulations on two host threads at once: every lock that remains
// shared between simulations is taken from both threads (the Intern
// table, Enabled() on every record, DumpAll's dump mutex and the export
// sink's fold), and neither fold nor any interned name is lost. The
// TSan preset runs this.
TEST(ExportSink, SimulationsOnTwoHostThreadsFoldWithoutLoss) {
  constexpr int kRanks = 3;
  constexpr int kEvents = 50;
  const double before =
      ExportSinkSnapshot().CounterValue("obs_test_threads_total");
  std::vector<std::string> dumps[2];
  auto run = [&dumps](int t) {
    sim::Cluster cluster;
    cluster.Spawn(kRanks, [t](sim::Endpoint& ep) {
      const uint32_t name =
          flight::Intern("obs_test/thread" + std::to_string(t) + "/rank" +
                         std::to_string(ep.pid()));
      for (int i = 0; i < kEvents; ++i) {
        ep.Busy(1e-3);
        ep.metrics().GetCounter("obs_test_threads_total")->Increment();
        ep.metrics()
            .GetHistogram("obs_test_threads_seconds",
                          {{"thread", std::to_string(t)}})
            ->Observe(1e-3 * (i + 1));
        ep.log()->Record(flight::Ev::kCounter, ep.now(), 0, 0, i, name);
      }
    });
    cluster.Join();
    dumps[t] = flight::DumpAll(cluster.fabric().logs(), "obs_test: threads",
                               ".", "obs_test_thread" + std::to_string(t) +
                                        "_");
  };
  std::thread a(run, 0);
  std::thread b(run, 1);
  a.join();
  b.join();

  const Registry sink = ExportSinkSnapshot();
  EXPECT_DOUBLE_EQ(sink.CounterValue("obs_test_threads_total") - before,
                   2.0 * kRanks * kEvents);
  for (int t = 0; t < 2; ++t) {
    const Histogram::Snapshot h = sink.HistogramSnapshot(
        "obs_test_threads_seconds", {{"thread", std::to_string(t)}});
    EXPECT_EQ(h.count, static_cast<uint64_t>(kRanks * kEvents));
    EXPECT_DOUBLE_EQ(h.min, 1e-3);
    EXPECT_DOUBLE_EQ(h.max, 1e-3 * kEvents);
    ASSERT_EQ(dumps[t].size(), static_cast<size_t>(kRanks));
    for (int pid = 0; pid < kRanks; ++pid) {
      const std::string name = "obs_test/thread" + std::to_string(t) +
                               "/rank" + std::to_string(pid);
      EXPECT_EQ(flight::NameOf(flight::Intern(name)), name);
      // Each rank's dump carries its own interned name on every event.
      EXPECT_NE(Slurp(dumps[t][pid]).find("\"name\":\"" + name + "\""),
                std::string::npos);
    }
    for (const std::string& p : dumps[t]) std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace rcc::obs
