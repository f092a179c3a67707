// Event log unit tests: ring semantics (ordering, wraparound, keep-all
// growth), the per-simulation Logs, the JSON dump round-trip through the
// postmortem parser, and the live-metric feeds into a simulation's
// registry (recovery-phase histograms, MTBF estimator).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"

namespace rcc::obs::flight {
namespace {

TEST(FlightRing, RecordsInOrderWithPayloads) {
  Ring ring(/*pid=*/7, /*slots=*/64);
  ring.Record(Ev::kCollPost, 1.0, 100, 256, 1024.0);
  ring.Record(Ev::kCollComplete, 2.0, 100, 0, 1.0);
  ring.Record(Ev::kRevoke, 3.0, 42);

  const std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].index, 0u);
  EXPECT_EQ(events[0].kind, Ev::kCollPost);
  EXPECT_DOUBLE_EQ(events[0].t, 1.0);
  EXPECT_EQ(events[0].a, 100);
  EXPECT_EQ(events[0].b, 256);
  EXPECT_DOUBLE_EQ(events[0].c, 1024.0);
  EXPECT_EQ(events[1].kind, Ev::kCollComplete);
  EXPECT_DOUBLE_EQ(events[1].c, 1.0);
  EXPECT_EQ(events[2].kind, Ev::kRevoke);
  EXPECT_EQ(events[2].a, 42);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(FlightRing, WraparoundKeepsNewestAndCountsDropped) {
  Ring ring(/*pid=*/1, /*slots=*/16);
  for (int i = 0; i < 40; ++i) {
    ring.Record(Ev::kCollPost, static_cast<double>(i), i);
  }
  EXPECT_EQ(ring.recorded(), 40u);
  EXPECT_EQ(ring.dropped(), 24u);
  const std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].index, 24 + k);
    EXPECT_EQ(events[k].a, static_cast<int64_t>(24 + k));
  }
}

// KeepAll stops wraparound: the ring keeps every event past its
// capacity, in order, and drops none.
TEST(FlightRing, KeepAllStopsWraparound) {
  Ring ring(/*pid=*/2, /*slots=*/16);
  ring.KeepAll();
  for (int i = 0; i < 40; ++i) ring.Record(Ev::kAgree, 0.0, i);
  EXPECT_EQ(ring.recorded(), 40u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 40u);
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].index, k);
    EXPECT_EQ(events[k].a, static_cast<int64_t>(k));
  }
}

// Storage is committed in segments as events land: an idle ring holds
// none, and one that recorded k events holds less than 2k + one base
// segment, not its whole capacity — whether it wraps or keeps all.
TEST(FlightRing, CommittedStorageTracksRecordedEvents) {
  Ring ring(/*pid=*/11, /*slots=*/4096);
  EXPECT_EQ(ring.capacity(), 4096u);
  EXPECT_EQ(ring.committed_slots(), 0u);
  constexpr uint64_t k = 100;
  for (uint64_t i = 0; i < k; ++i) {
    ring.Record(Ev::kCollPost, static_cast<double>(i), static_cast<int64_t>(i));
  }
  EXPECT_GE(ring.committed_slots(), k);
  EXPECT_LT(ring.committed_slots(), 2 * k + Ring::kBaseSlots);
  EXPECT_EQ(ring.Snapshot().size(), k);
  // A wrapping ring commits at most its capacity's segments, however
  // far it wraps.
  Ring small(/*pid=*/12, /*slots=*/100);
  for (int i = 0; i < 1000; ++i) small.Record(Ev::kAgree, 0.0, i);
  EXPECT_EQ(small.committed_slots(), 2 * Ring::kBaseSlots);
  EXPECT_EQ(small.Snapshot().size(), 100u);
  // A ring that keeps every event grows with what it recorded.
  Ring all(/*pid=*/13, /*slots=*/100);
  all.KeepAll();
  constexpr uint64_t n = 5000;
  for (uint64_t i = 0; i < n; ++i) all.Record(Ev::kAgree, 0.0, 1);
  EXPECT_GE(all.committed_slots(), n);
  EXPECT_LT(all.committed_slots(), 2 * n + Ring::kBaseSlots);
  EXPECT_EQ(all.Snapshot().size(), n);
}

TEST(Flight, EnabledToggles) {
  ASSERT_TRUE(Enabled());  // default-on (RCC_FLIGHT unset in tests)
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
}

TEST(Flight, LogsForReturnsStablePointer) {
  Logs logs;
  Ring* a = logs.For(1234);
  Ring* b = logs.For(1234);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->pid(), 1234);
  EXPECT_NE(logs.For(1235), a);
  ASSERT_EQ(logs.rings().size(), 2u);
  EXPECT_EQ(logs.rings()[0], a);
  // Rings created after KeepAll keep every event too.
  logs.KeepAll();
  EXPECT_TRUE(logs.For(1236)->keeps_all());
  EXPECT_TRUE(a->keeps_all());
}

// Rings of distinct pids stay distinct, far-apart pids included, every
// later lookup returns the same ring, and events recorded through the
// lookups stay on their own pid's ring.
TEST(Flight, LogsKeepPidsDistinct) {
  Logs logs;
  const std::vector<int> pids = {2000, 2001, 2002, 3071, 3072,
                                 9000, 70000, 70001, 1 << 20};
  std::vector<Ring*> first;
  for (int pid : pids) first.push_back(logs.For(pid));
  for (int i = 0; i < 200; ++i) {
    for (int pid : pids) logs.For(pid)->Record(Ev::kCollSvc, 0.0, pid, i);
  }
  for (size_t k = 0; k < pids.size(); ++k) {
    Ring* ring = logs.For(pids[k]);
    EXPECT_EQ(ring, first[k]);
    EXPECT_EQ(ring->pid(), pids[k]);
    for (size_t j = 0; j < k; ++j) EXPECT_NE(ring, logs.For(pids[j]));
    const std::vector<Event> events = ring->Snapshot();
    ASSERT_EQ(events.size(), 200u) << "pid " << pids[k];
    for (const Event& e : events) EXPECT_EQ(e.a, pids[k]);
  }
  EXPECT_EQ(logs.rings().size(), pids.size());
}

// Dump -> parse round-trip through the postmortem reader: every field
// the recorder wrote must come back bit-identically (%.17g doubles).
TEST(Flight, DumpJsonRoundTrip) {
  Ring ring(/*pid=*/919, /*slots=*/64);
  ring.Record(Ev::kCollPost, 1.25, 17, 4096, 16384.0);
  ring.Record(Ev::kRecoveryPhase, 2.5, 2, 1, 0.125);
  // Key hashes are 53-bit by contract: exactly representable as a
  // double, so they survive the JSON round-trip bit-identically.
  ring.Record(Ev::kKvWaitBegin, 3.0,
              0x1234567890abcdefLL & ((1LL << 53) - 1));
  // Named kinds carry their interned name through the dump.
  ring.Record(Ev::kSpan, 4.0, static_cast<int64_t>(Phase::kRevoke), 1, 3.5,
              Intern("recovery/revoke"));

  const std::string json = ring.ToJson("unit \"test\" reason");
  postmortem::RankDump dump;
  std::string err;
  ASSERT_TRUE(postmortem::ParseDumpJson(json, &dump, &err)) << err;
  EXPECT_EQ(dump.pid, 919);
  EXPECT_EQ(dump.reason, "unit \"test\" reason");
  EXPECT_EQ(dump.recorded, 4u);
  EXPECT_EQ(dump.dropped, 0u);
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.events[0].kind, Ev::kCollPost);
  EXPECT_EQ(dump.events[0].a, 17);
  EXPECT_EQ(dump.events[0].b, 4096);
  EXPECT_DOUBLE_EQ(dump.events[0].c, 16384.0);
  EXPECT_DOUBLE_EQ(dump.events[0].t, 1.25);
  EXPECT_EQ(dump.events[1].kind, Ev::kRecoveryPhase);
  EXPECT_DOUBLE_EQ(dump.events[1].c, 0.125);
  EXPECT_EQ(dump.events[2].kind, Ev::kKvWaitBegin);
  EXPECT_EQ(dump.events[2].a, 0x1234567890abcdefLL & ((1LL << 53) - 1));
  EXPECT_EQ(dump.events[3].kind, Ev::kSpan);
  EXPECT_EQ(NameOf(dump.events[3].name), "recovery/revoke");
  EXPECT_DOUBLE_EQ(dump.events[3].c, 3.5);
}

// DumpAll writes one file per rank with the prefix; the postmortem
// lister finds them.
TEST(Flight, DumpAllWritesPerRankFiles) {
  Logs logs;
  logs.For(7777)->Record(Ev::kSelfAbort, 9.0);
  logs.For(7778);
  const std::vector<std::string> paths =
      DumpAll(logs, "flight_test", ".", "ut7777_");
  ASSERT_EQ(paths.size(), 2u);
  bool found = false;
  for (const std::string& p : paths) {
    if (p.find("ut7777_flight_rank7777.json") == std::string::npos) continue;
    found = true;
    postmortem::RankDump dump;
    std::string err;
    ASSERT_TRUE(postmortem::ParseDumpFile(p, &dump, &err)) << err;
    EXPECT_EQ(dump.pid, 7777);
    EXPECT_EQ(dump.reason, "flight_test");
    ASSERT_EQ(dump.events.size(), 1u);
    EXPECT_EQ(dump.events[0].kind, Ev::kSelfAbort);
  }
  EXPECT_TRUE(found);
  for (const std::string& p : paths) std::remove(p.c_str());
}

// RecordRecoveryPhase must observe the *identical* duration into the
// flight event and the simulation's rcc_recovery_phase_seconds histogram
// (the phase-sum == metric-sum acceptance check rests on this); the
// first phase registers all five series.
TEST(Flight, RecoveryPhaseFeedsEventAndHistogramIdentically) {
  Registry reg;
  Ring ring(/*pid=*/5555, /*slots=*/64);
  const double duration = 0.015625;  // exactly representable
  RecordRecoveryPhase(reg, &ring, Phase::kAgree, /*t_end=*/12.0,
                      /*repair_ordinal=*/4, duration);

  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Ev::kRecoveryPhase);
  EXPECT_EQ(events[0].a, static_cast<int64_t>(Phase::kAgree));
  EXPECT_EQ(events[0].b, 4);
  EXPECT_DOUBLE_EQ(events[0].c, duration);

  const auto snap =
      reg.HistogramSnapshot("rcc_recovery_phase_seconds", {{"phase", "agree"}});
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, duration);
  const std::string text = reg.PrometheusText();
  for (const char* phase : {"revoke", "agree", "shrink", "rebuild", "replay"}) {
    EXPECT_NE(text.find(std::string("rcc_recovery_phase_seconds_count{phase=\"") +
                        phase + "\"}"),
              std::string::npos)
        << phase;
  }
}

// MTBF estimator: dedupes by pid within one simulation (every survivor
// reports the same victim), estimates mean inter-failure time once two
// distinct pids have failed, and records into that simulation's
// registry only.
TEST(Flight, MtbfEstimatorDedupesAndAverages) {
  Registry reg;
  Logs run;
  run.NoteFailureDetected(reg, 50, 10.0);
  run.NoteFailureDetected(reg, 50, 11.0);  // duplicate detection, ignored
  EXPECT_DOUBLE_EQ(reg.CounterValue("rcc_failures_observed_total"), 1.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("rcc_mtbf_seconds"), 10.0);

  run.NoteFailureDetected(reg, 51, 30.0);
  run.NoteFailureDetected(reg, 52, 50.0);
  EXPECT_DOUBLE_EQ(reg.CounterValue("rcc_failures_observed_total"), 3.0);
  // (50 - 10) / (3 - 1)
  EXPECT_DOUBLE_EQ(reg.GaugeValue("rcc_mtbf_seconds"), 20.0);

  // A fresh simulation counts its own failures, even a pid the first
  // one already reported: time-to-first-failure again.
  Registry next_reg;
  Logs next;
  next.NoteFailureDetected(next_reg, 50, 5.0);
  EXPECT_DOUBLE_EQ(next_reg.CounterValue("rcc_failures_observed_total"), 1.0);
  EXPECT_DOUBLE_EQ(next_reg.GaugeValue("rcc_mtbf_seconds"), 5.0);
  EXPECT_DOUBLE_EQ(reg.CounterValue("rcc_failures_observed_total"), 3.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("rcc_mtbf_seconds"), 20.0);
}

}  // namespace
}  // namespace rcc::obs::flight
