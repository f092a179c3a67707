#include <gtest/gtest.h>

#include <string>

#include "obs/flight.h"
#include "obs/span.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace rcc::trace {
namespace {

namespace flight = obs::flight;

// Logs one [start, end] span of `phase` on ep's log, as obs::Span does
// on destruction, with `rec` attached to the run.
void LogSpan(Recorder& rec, sim::Endpoint& ep, const std::string& phase,
             double start, double end) {
  rec.Attach(ep);
  ep.log()->Record(flight::Ev::kSpan, end, 0, 0, start, flight::Intern(phase));
}

// A simulation whose ranks are plain endpoints (no tasks): enough to
// write their logs directly.
struct Sim {
  explicit Sim(int ranks) : fabric(sim::SimConfig{}) {
    for (int i = 0; i < ranks; ++i) {
      eps.push_back(std::make_unique<sim::Endpoint>(
          &fabric, fabric.RegisterProcess(0)));
    }
  }
  sim::Endpoint& ep(int pid) { return *eps[pid]; }
  sim::Fabric fabric;
  std::vector<std::unique_ptr<sim::Endpoint>> eps;
};

TEST(Recorder, RecordsAndAggregates) {
  Recorder rec;
  Sim s(2);
  LogSpan(rec, s.ep(0), "rendezvous", 1.0, 3.0);
  LogSpan(rec, s.ep(1), "rendezvous", 1.0, 2.5);
  LogSpan(rec, s.ep(0), "shrink", 3.0, 3.1);
  auto max_by = rec.MaxByPhase();
  EXPECT_DOUBLE_EQ(max_by["rendezvous"], 2.0);
  EXPECT_NEAR(max_by["shrink"], 0.1, 1e-9);
  auto mean_by = rec.MeanByPhase();
  EXPECT_DOUBLE_EQ(mean_by["rendezvous"], 1.75);
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.EventsForPhase("rendezvous").size(), 2u);
  EXPECT_DOUBLE_EQ(rec.PhaseEnd("rendezvous"), 3.0);
}

TEST(Recorder, ClearEmpties) {
  Recorder rec;
  Sim s(1);
  LogSpan(rec, s.ep(0), "x", 0, 1);
  rec.Clear();
  EXPECT_TRUE(rec.events().empty());
}

// Clear detaches from every run: a pre-Clear maximum (or op event) must
// never leak into the tables of the run attached afterwards.
TEST(Recorder, ClearDetachesFromEveryRun) {
  Recorder rec;
  {
    Sim before(2);
    LogSpan(rec, before.ep(0), "phase", 0.0, 100.0);  // large pre-Clear span
    LogSpan(rec, before.ep(1), "phase", 0.0, 50.0);
    before.ep(0).log()->Record(flight::Ev::kOp, 1.0, 7, 1000000, 0.0,
                               flight::Intern("ring"));
    rec.Clear();
  }
  EXPECT_TRUE(rec.op_events().empty());
  EXPECT_TRUE(rec.MaxByPhase().empty());
  EXPECT_TRUE(rec.EventsForPhase("phase").empty());
  EXPECT_DOUBLE_EQ(rec.PhaseEnd("phase"), 0.0);

  // A fresh run after Clear: the tables reflect only its spans.
  Sim after(4);
  LogSpan(rec, after.ep(2), "phase", 1.0, 1.5);
  LogSpan(rec, after.ep(3), "phase", 1.0, 1.25);
  EXPECT_DOUBLE_EQ(rec.MaxByPhase()["phase"], 0.5);
  EXPECT_DOUBLE_EQ(rec.MinByPhase()["phase"], 0.25);
  EXPECT_DOUBLE_EQ(rec.MeanByPhase()["phase"], 0.375);
  EXPECT_DOUBLE_EQ(rec.PhaseEnd("phase"), 1.5);
  auto events = rec.EventsForPhase("phase");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].pid, 2);
  EXPECT_EQ(events[1].pid, 3);
  EXPECT_EQ(rec.events().size(), 2u);
}

TEST(Recorder, ToTableHasRowPerPhase) {
  Recorder rec;
  Sim s(1);
  LogSpan(rec, s.ep(0), "a", 0, 1);
  LogSpan(rec, s.ep(0), "b", 1, 2);
  EXPECT_EQ(rec.ToTable().num_rows(), 2u);
}

// The op, replay and counter tables are the log's kOp, kCollReplay and
// kCounter events.
TEST(Recorder, OpReplayAndCounterTablesReadTheLog) {
  Recorder rec;
  Sim s(2);
  rec.Attach(s.ep(0));
  s.ep(1).log()->Record(flight::Ev::kOp, 2.5, 42, 64000000, 2.0,
                        flight::Intern("ring"));
  s.ep(0).log()->Record(flight::Ev::kCollReplay, 3.0, 9, 8);
  s.ep(0).log()->Record(flight::Ev::kCounter, 0.5, 0, 0, 63.0,
                        flight::Intern("world_size"));
  const auto ops = rec.op_events();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].pid, 1);
  EXPECT_EQ(ops[0].op_id, 42u);
  EXPECT_EQ(ops[0].algo, "ring");
  EXPECT_DOUBLE_EQ(ops[0].bytes, 64e6);
  EXPECT_DOUBLE_EQ(ops[0].submit, 2.0);
  EXPECT_DOUBLE_EQ(ops[0].latency(), 0.5);
  const auto replays = rec.replay_events();
  ASSERT_EQ(replays.size(), 1u);
  EXPECT_EQ(replays[0].pid, 0);
  EXPECT_EQ(replays[0].op_id, 9);
  EXPECT_EQ(replays[0].min_id, 8);
  const auto counters = rec.counter_samples();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "world_size");
  EXPECT_DOUBLE_EQ(counters[0].t, 0.5);
  EXPECT_DOUBLE_EQ(counters[0].value, 63.0);
}

// An attached run's logs keep every event, even past the ring capacity
// and with always-on recording off; an unattached run's logs wrap and
// honour RCC_FLIGHT=0.
TEST(Recorder, AttachedLogsKeepEveryEvent) {
  Recorder rec;
  Sim attached(1);
  Sim plain(1);
  rec.Attach(attached.ep(0));
  const uint64_t n = attached.ep(0).log()->capacity() + 100;
  for (uint64_t i = 0; i < n; ++i) {
    LogSpan(rec, attached.ep(0), "hot", 0.0, 1.0);
    plain.ep(0).log()->Record(flight::Ev::kSpan, 1.0, 0, 0, 0.0,
                              flight::Intern("hot"));
  }
  EXPECT_EQ(rec.EventsForPhase("hot").size(), n);
  EXPECT_EQ(attached.ep(0).log()->dropped(), 0u);
  EXPECT_EQ(plain.ep(0).log()->dropped(), 100u);

  flight::SetEnabled(false);
  LogSpan(rec, attached.ep(0), "hot", 0.0, 1.0);
  plain.ep(0).log()->Record(flight::Ev::kCollPost, 1.0);
  flight::SetEnabled(true);
  EXPECT_EQ(rec.EventsForPhase("hot").size(), n + 1);
  EXPECT_EQ(plain.ep(0).log()->recorded(), n);
}

// The recorder keeps the logs it attached to: its tables stay readable
// after the simulation that wrote them is gone.
TEST(Recorder, OutlivesItsCluster) {
  Recorder rec;
  {
    sim::Cluster cluster;
    cluster.Spawn(2, [&](sim::Endpoint& ep) {
      obs::Span span(&rec, ep, "trace_test/outlive");
      ep.Busy(0.5);
    });
    cluster.Join();
  }
  const auto events = rec.EventsForPhase("trace_test/outlive");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[1].duration(), 0.5);
}

TEST(Span, MeasuresVirtualInterval) {
  sim::Cluster cluster;
  Recorder rec;
  cluster.Spawn(1, [&](sim::Endpoint& ep) {
    ep.Busy(1.0);
    {
      obs::Span span(&rec, ep, "work");
      ep.Busy(0.25);
    }
  });
  cluster.Join();
  auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].start, 1.0);
  EXPECT_DOUBLE_EQ(events[0].end, 1.25);
  EXPECT_DOUBLE_EQ(events[0].duration(), 0.25);
}

// A span without a recorder still lands on the rank's always-on log.
TEST(Span, NullRecorderStillLogs) {
  sim::Cluster cluster;
  cluster.Spawn(1, [&](sim::Endpoint& ep) {
    obs::Span span(nullptr, ep, "trace_test/unrecorded");
    ep.Busy(0.1);
  });
  cluster.Join();
  const auto events = cluster.endpoint(0).log()->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, flight::Ev::kSpan);
  EXPECT_EQ(flight::NameOf(events[0].name), "trace_test/unrecorded");
  EXPECT_DOUBLE_EQ(events[0].t - events[0].c, 0.1);
}

TEST(Recorder, ThreadSafeUnderConcurrentWrites) {
  Recorder rec;
  sim::Cluster cluster;
  cluster.Spawn(8, [&](sim::Endpoint& ep) {
    for (int i = 0; i < 100; ++i) {
      LogSpan(rec, ep, "phase" + std::to_string(i % 3), i, i + 1);
    }
  });
  cluster.Join();
  EXPECT_EQ(rec.events().size(), 800u);
}

}  // namespace
}  // namespace rcc::trace
