// Engine-seam coverage: the fabric blocking points (TryRecv, any-source
// receives, context purges, death-watch and cancel-token wakeups) and the
// cluster's pending-failure arming; plus determinism and scheduling-order
// tests of the fiber scheduler, and the contract of its context switch
// and task table.
#include <execinfo.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/endpoint.h"
#include "sim/engine.h"
#include "sim/fabric.h"
#include "trace/trace.h"

namespace rcc::sim {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t fill = 0xAB) {
  return std::vector<uint8_t>(n, fill);
}

TEST(EngineSeam, TryRecvNeverBlocks) {
  Cluster cluster;
  std::atomic<int> probes_empty{0};
  std::atomic<bool> delivered{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    if (ep.pid() == 0) {
      ASSERT_TRUE(ep.Send(1, 10, 5, Bytes(16)).ok());
      return;
    }
    Message msg;
    // Unmatched channel: must return immediately.
    if (ep.TryRecv(0, 99, 0, &msg).code() == Code::kUnavailable) {
      probes_empty++;
    }
    // Blocking receive still completes after the probe.
    Status s = ep.Recv(0, 10, 5, &msg);
    delivered = s.ok() && msg.payload.size() == 16u;
  });
  cluster.Join();
  EXPECT_EQ(probes_empty.load(), 1);
  EXPECT_TRUE(delivered.load());
}

TEST(EngineSeam, AnySourceRecvMatchesEitherSender) {
  Cluster cluster;
  std::atomic<int> received{0};
  cluster.Spawn(3, [&](Endpoint& ep) {
    if (ep.pid() != 2) {
      ASSERT_TRUE(ep.Send(2, 7, 1, Bytes(1, uint8_t(ep.pid()))).ok());
      return;
    }
    for (int i = 0; i < 2; ++i) {
      Message msg;
      ASSERT_TRUE(ep.Recv(kAnySource, 7, 1, &msg).ok());
      received++;
    }
  });
  cluster.Join();
  EXPECT_EQ(received.load(), 2);
}

TEST(EngineSeam, PurgeContextDropsOnlyThatContext) {
  Cluster cluster;
  std::atomic<bool> purged_gone{false};
  std::atomic<bool> other_kept{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    if (ep.pid() == 0) {
      ASSERT_TRUE(ep.Send(1, ChannelKey(7, 1), 0, Bytes(1)).ok());
      ASSERT_TRUE(ep.Send(1, ChannelKey(8, 1), 0, Bytes(1)).ok());
      return;
    }
    // Wait until both messages are queued.
    Message msg;
    ASSERT_TRUE(ep.Recv(0, ChannelKey(8, 1), 0, &msg).ok());
    ASSERT_TRUE(ep.Send(1, ChannelKey(8, 1), 0, Bytes(1)).ok());  // requeue
    ep.fabric().PurgeContext(7);
    purged_gone =
        ep.TryRecv(0, ChannelKey(7, 1), 0, &msg).code() == Code::kUnavailable;
    other_kept = ep.TryRecv(kAnySource, ChannelKey(8, 1), 0, &msg).ok();
  });
  cluster.Join();
  EXPECT_TRUE(purged_gone.load());
  EXPECT_TRUE(other_kept.load());
}

TEST(EngineSeam, DeathWatchWakesBlockedReceiver) {
  Cluster cluster;
  std::vector<int> watch{0, 2};
  std::atomic<int> failed_pid{-1};
  cluster.Spawn(3, [&](Endpoint& ep) {
    if (ep.pid() == 2) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    if (ep.pid() == 1) {
      // Parked awaiting pid 0 (alive, silent) while watching pid 2.
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
      if (s.code() == Code::kProcFailed && !s.failed_pids().empty()) {
        failed_pid = s.failed_pids()[0];
      }
      return;
    }
    // pid 0 stays alive but never sends; it must not satisfy the recv.
  });
  cluster.Join();
  EXPECT_EQ(failed_pid.load(), 2);
}

TEST(EngineSeam, CancelTokenWakesBlockedReceiver) {
  Cluster cluster;
  CancelToken token;
  std::atomic<bool> got_revoked{false};
  std::atomic<bool> receiver_parked{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      receiver_parked = true;
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, &token);
      got_revoked = s.code() == Code::kRevoked;
      return;
    }
    while (!receiver_parked.load()) YieldTask();
    ep.Busy(1e-3);  // give the receiver time to actually park
    token.Cancel();
    ep.fabric().WakeAll();
  });
  cluster.Join();
  EXPECT_TRUE(got_revoked.load());
}

TEST(EngineSeam, PendingFailureArmsLateRegisteredPid) {
  // Regression for the pending-kill bookkeeping: a failure scheduled for
  // a pid that does not exist yet must arm the victim when it finally
  // registers (joiner case).
  Cluster cluster;
  cluster.AddPendingFailure(FailureEvent{FailScope::kProcess, 2, 0.5});
  std::atomic<bool> founder_done{false};
  std::atomic<bool> joiner_died{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    ep.Busy(2.0);
    if (ep.pid() == 0) founder_done = true;
  });
  cluster.SpawnOnFreshNodes(
      1,
      [&](Endpoint& ep) {
        ep.Busy(1.0);  // crosses the 0.5s arming point
        ep.MaybeSelfKill();
        joiner_died = !ep.alive();
      },
      /*start_time=*/0.0);
  cluster.Join();
  EXPECT_TRUE(founder_done.load());
  EXPECT_TRUE(joiner_died.load());
}

TEST(EngineSeam, NodeScopedPendingFailureArmsWholeLateNode) {
  Cluster cluster;
  // Node 1 is not populated yet: the event must sit pending and arm
  // every process later placed there.
  cluster.AddPendingFailure(FailureEvent{FailScope::kNode, 1, 0.25});
  std::atomic<int> dead{0};
  cluster.Spawn(2, [&](Endpoint& ep) { ep.Busy(1.0); });  // node 0: safe
  cluster.SpawnOnFreshNodes(
      2,
      [&](Endpoint& ep) {
        ep.Busy(1.0);
        ep.MaybeSelfKill();
        if (!ep.alive()) dead++;
      },
      /*start_time=*/0.0);
  cluster.Join();
  EXPECT_EQ(dead.load(), 2);
}

// --------------------------------------------------------------------
// Determinism and scheduling order.
// --------------------------------------------------------------------

// A small messaging workload with a mid-run death, phase-traced. Returns
// the recorder's event stream: each rank's spans in record order, which
// the scheduler's deterministic execution order fixes.
std::vector<trace::Event> TracedWorkload() {
  Cluster cluster;
  cluster.AddPendingFailure(FailureEvent{FailScope::kProcess, 3, 0.02});
  trace::Recorder rec;
  const int world = 4;
  cluster.Spawn(world, [&](Endpoint& ep) {
    rec.Attach(ep);
    for (int round = 0; round < 3; ++round) {
      const Seconds start = ep.now();
      const int dst = (ep.pid() + 1) % world;
      const int src = (ep.pid() + world - 1) % world;
      if (!ep.Send(dst, 1, round, Bytes(64)).ok()) break;
      Message msg;
      std::vector<int> watch{src};
      if (!ep.Recv(src, 1, round, &msg, nullptr, &watch).ok()) break;
      ep.Busy(5e-3);
      if (ep.MaybeSelfKill()) break;
      ep.log()->Record(obs::flight::Ev::kSpan, ep.now(), 0, 0, start,
                       obs::flight::Intern("round" + std::to_string(round)));
    }
  });
  cluster.Join();
  return rec.events();
}

TEST(FiberDeterminism, IdenticalRunsProduceIdenticalTraceStreams) {
  const std::vector<trace::Event> a = TracedWorkload();
  const std::vector<trace::Event> b = TracedWorkload();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid) << "event " << i;
    EXPECT_EQ(a[i].phase, b[i].phase) << "event " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "event " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "event " << i;
  }
}

TEST(FiberScheduler, RunsReadyTasksInVirtualTimeOrder) {
  // Ranks go busy for different durations and then record; the
  // run queue must interleave them by virtual time, not spawn order.
  Cluster cluster;
  std::vector<int> order;
  std::mutex mu;
  cluster.Spawn(3, [&](Endpoint& ep) {
    // pid 0 -> 30ms, pid 1 -> 10ms, pid 2 -> 20ms.
    const double busy[] = {30e-3, 10e-3, 20e-3};
    ep.Busy(busy[ep.pid()]);
    // Cross-rank rendezvous forces a reschedule at the busy horizon.
    ep.Send((ep.pid() + 1) % 3, 1, 0, Bytes(1)).ok();
    Message msg;
    ep.Recv((ep.pid() + 2) % 3, 1, 0, &msg).ok();
    std::lock_guard<std::mutex> g(mu);
    order.push_back(ep.pid());
  });
  cluster.Join();
  // Completion times are start + busy + recv merge: the slowest sender
  // gates its receiver. Recv merges the sender's clock, so completion
  // order is deterministic; just assert determinism against
  // a second identical run rather than a hand-derived order.
  Cluster cluster2;
  std::vector<int> order2;
  cluster2.Spawn(3, [&](Endpoint& ep) {
    const double busy[] = {30e-3, 10e-3, 20e-3};
    ep.Busy(busy[ep.pid()]);
    ep.Send((ep.pid() + 1) % 3, 1, 0, Bytes(1)).ok();
    Message msg;
    ep.Recv((ep.pid() + 2) % 3, 1, 0, &msg).ok();
    std::lock_guard<std::mutex> g(mu);
    order2.push_back(ep.pid());
  });
  cluster2.Join();
  EXPECT_EQ(order, order2);
}

TEST(FiberScheduler, YieldLetsSameTimePeersRun) {
  Cluster cluster;
  std::atomic<bool> done{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      done = true;
      return;
    }
    // pid 0 spawns first and spins: without YieldTask the cooperative
    // scheduler would never run pid 1.
    while (!done.load()) YieldTask();
  });
  cluster.Join();
  EXPECT_TRUE(done.load());
}

TEST(FiberScheduler, ManyCheapRanksComplete) {
  // A quick scale probe: 512 fibers ping-pong once; far past the point
  // where one-thread-per-rank starts thrashing a small machine.
  Cluster cluster;
  const int world = 512;
  std::atomic<int> finished{0};
  cluster.Spawn(world, [&](Endpoint& ep) {
    const int peer = ep.pid() ^ 1;
    ASSERT_TRUE(ep.Send(peer, 1, 0, Bytes(8)).ok());
    Message msg;
    ASSERT_TRUE(ep.Recv(peer, 1, 0, &msg).ok());
    finished++;
  });
  cluster.Join();
  EXPECT_EQ(finished.load(), world);
}

// 1/3 under the current SSE rounding mode (volatile: computed at run
// time, so MXCSR decides it).
double OneThird() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}

TEST(FiberSwitch, FloatingPointControlIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = OneThird();
  Engine engine;
  WaitPoint wp;
  bool b_ran = false;
  int a_before = -1, a_after = -1, b_mode = -1;
  double a_third_before = 0, a_third_after = 0, b_third = 0;
  // Same time, pid 0 first: A sets FE_UPWARD and parks, B runs, then A
  // resumes.
  TaskHandle a = engine.Spawn(TaskOptions{0, nullptr}, [&] {
    std::fesetround(FE_UPWARD);
    a_before = std::fegetround();
    a_third_before = OneThird();
    while (!b_ran) wp.Wait();
    a_after = std::fegetround();
    a_third_after = OneThird();
  });
  TaskHandle b = engine.Spawn(TaskOptions{1, nullptr}, [&] {
    b_mode = std::fegetround();
    b_third = OneThird();
    b_ran = true;
    wp.NotifyAll();
  });
  a.Join();
  b.Join();
  // x87 control word (fegetround) and MXCSR (the SSE division) both.
  EXPECT_EQ(a_before, FE_UPWARD);
  EXPECT_GT(a_third_before, nearest);
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_EQ(b_third, nearest);
  EXPECT_EQ(a_after, FE_UPWARD);
  EXPECT_EQ(a_third_after, a_third_before);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(OneThird(), nearest);
}

// A 32-byte-aligned local and a varargs double format: both need the
// ABI's stack alignment on entry.
[[gnu::noinline]] bool StackFrameIsAbiAligned() {
  alignas(32) double v[4] = {1.5, 0, 0, 0};
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v[0] + 0.25);
  return reinterpret_cast<uintptr_t>(v) % 32 == 0 && std::string(buf) == "1.75";
}

TEST(FiberSwitch, StackIsAlignedOnEntryAndAfterPark) {
  Cluster cluster;
  std::atomic<int> checked{0};
  cluster.Spawn(2, [&](Endpoint& ep) {
    EXPECT_TRUE(StackFrameIsAbiAligned());
    const int peer = ep.pid() ^ 1;
    ASSERT_TRUE(ep.Send(peer, 1, 0, Bytes(8)).ok());
    Message msg;
    ASSERT_TRUE(ep.Recv(peer, 1, 0, &msg).ok());  // parks until delivered
    EXPECT_TRUE(StackFrameIsAbiAligned());
    checked++;
  });
  cluster.Join();
  EXPECT_EQ(checked.load(), 2);
}

TEST(FiberSwitch, UnwindingStopsAtTheFiberBase) {
  // The entry trampoline marks the return address undefined: a stack
  // walk from a fiber ends there instead of reading past the stack top.
  Engine engine;
  int frames = 0;
  engine.Spawn({}, [&] {
    void* pcs[64];
    frames = backtrace(pcs, 64);
  }).Join();
  EXPECT_GT(frames, 0);
  EXPECT_LT(frames, 16);
}

TEST(FiberTaskTableDeathTest, StallReportCountsReclaimedTasks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        for (int i = 0; i < 10000; ++i) engine.Spawn({}, [] {}).Join();
        WaitPoint never_notified;
        auto park_forever = [&] {
          for (;;) never_notified.Wait();
        };
        engine.Spawn({}, park_forever);
        engine.Spawn({}, park_forever).Join();
      },
      "tasks=10002 done=10000 parked=2");
}

TEST(FiberTaskTable, StaleWaitPointEntryOutlivesItsCluster) {
  WaitPoint wp;  // outlives the cluster below
  {
    Cluster cluster;
    cluster.Spawn(1, [&](Endpoint&) {
      // Nobody notifies: the quiescence wake leaves the entry stale.
      EXPECT_FALSE(wp.WaitFor(0.0));
    });
    cluster.Join();  // the task finishes and leaves the task table
  }
  // The entry's task was reclaimed and its engine is gone.
  wp.NotifyAll();
}

// --------------------------------------------------------------------
// Fiber-to-fiber handoff.
// --------------------------------------------------------------------

using Resume = std::pair<int, Seconds>;  // (pid, clock) at a resume

// A scripted mix over five fibers: parks, WaitFor timeouts on two ladder
// rungs, yields, a spawn from a fiber, a join from a fiber and finishes.
// Returns the (pid, clock) of the start and of every resume.
std::vector<Resume> ScriptedResumeOrder() {
  Engine engine;
  std::vector<Resume> order;
  Seconds clock[5] = {};
  WaitPoint ping, never, relay;
  bool pinged = false, relayed = false;
  auto note = [&](int pid) { order.emplace_back(pid, clock[pid]); };
  std::vector<TaskHandle> tasks;
  // pid 0: parks until pid 1 pings, yields, then spawns pid 4 and joins
  // it from this fiber.
  tasks.push_back(engine.Spawn({0, &clock[0]}, [&] {
    note(0);
    clock[0] = 1.0;
    while (!pinged) {
      ping.Wait();
      note(0);
    }
    YieldTask();
    note(0);
    TaskHandle child = engine.Spawn({4, &clock[4]}, [&] {
      note(4);
      clock[4] = clock[0] + 0.25;
      YieldTask();
      note(4);
      relayed = true;
      relay.NotifyAll();
    });
    child.Join();
    note(0);
  }));
  // pid 1: times out on a WaitFor nobody notifies, then pings pid 0.
  tasks.push_back(engine.Spawn({1, &clock[1]}, [&] {
    note(1);
    EXPECT_FALSE(never.WaitFor(0.5));
    note(1);
    clock[1] = 2.0;
    pinged = true;
    ping.NotifyAll();
    YieldTask();
    note(1);
  }));
  // pid 2: yields three times, then waits for pid 4's relay on the
  // ladder's top rung.
  tasks.push_back(engine.Spawn({2, &clock[2]}, [&] {
    for (int i = 0; i < 3; ++i) {
      YieldTask();
      note(2);
    }
    while (!relayed) {
      relay.WaitFor(1.0);
      note(2);
    }
  }));
  // pid 3: moves ahead in time, yields, and expires on the bottom rung
  // beside pid 1's entry on the same WaitPoint.
  tasks.push_back(engine.Spawn({3, &clock[3]}, [&] {
    clock[3] = 0.5;
    YieldTask();
    note(3);
    EXPECT_FALSE(never.WaitFor(0.0));
    note(3);
    clock[3] = 3.0;
    YieldTask();
    note(3);
  }));
  for (TaskHandle& t : tasks) t.Join();
  return order;
}

TEST(FiberHandoff, ScriptedMixResumesInTheSchedulerLoopsOrder) {
  // Recorded from the engine whose every fiber went back to the
  // scheduler loop between two runs: handing off fiber to fiber must
  // resume the same fibers in the same order at the same clocks.
  const std::vector<Resume> expected = {
      {0, 0}, {1, 0}, {2, 0}, {2, 0},
      {2, 0}, {3, 0.5}, {3, 0.5}, {3, 3},
      {1, 0}, {0, 1}, {0, 1}, {4, 0},
      {4, 1.25}, {2, 0}, {0, 1}, {1, 2}
  };
  EXPECT_EQ(ScriptedResumeOrder(), expected);
}

TEST(FiberHandoff, PingPongSwitchesOncePerPark) {
  Engine engine;
  WaitPoint wp[2];
  int turn = 0;
  const int kRoundTrips = 1000;
  auto player = [&](int me) {
    return [&, me] {
      for (int i = 0; i < kRoundTrips; ++i) {
        while (turn != me) wp[me].Wait();
        turn = 1 - me;
        wp[1 - me].NotifyAll();
      }
    };
  };
  const uint64_t before = FiberSwitches();
  TaskHandle a = engine.Spawn({0, nullptr}, player(0));
  TaskHandle b = engine.Spawn({1, nullptr}, player(1));
  a.Join();
  b.Join();
  // 2N messages, one park and one switch each, plus entering the first
  // fiber and returning to the joining thread. Switching through the
  // scheduler's stack would take 4N.
  const uint64_t switches = FiberSwitches() - before;
  EXPECT_GE(switches, 2u * kRoundTrips);
  EXPECT_LE(switches, 2u * kRoundTrips + 4);
}

TEST(FiberHandoff, YieldAtTheHeadOfTheQueueDoesNotSwitch) {
  Engine engine;
  int yields = 0;
  const uint64_t before = FiberSwitches();
  engine.Spawn({}, [&] {
    for (; yields < 100; ++yields) YieldTask();
  }).Join();
  EXPECT_EQ(yields, 100);
  // Into the fiber and back out; no yield switches.
  EXPECT_EQ(FiberSwitches() - before, 2u);
}

// The address of a local of the calling frame: which stack it runs on.
[[gnu::noinline]] uintptr_t StackProbe() {
  volatile char c = 0;
  return reinterpret_cast<uintptr_t>(&c);
}

TEST(FiberHandoff, SuccessorReleasesAFinishedFibersStackBeforeSpawning) {
  // pid 0 finishes and hands off to pid 1, which spawns pid 2. The
  // finished fiber's stack returns to the cache on pid 1's resume, after
  // the switch: pid 2 reuses it without anything still running on it.
  Engine engine;
  uintptr_t finished_on = 0, spawned_on = 0;
  int ran = 0;
  TaskHandle a = engine.Spawn({0, nullptr}, [&] {
    finished_on = StackProbe();
    ++ran;
  });
  TaskHandle b = engine.Spawn({1, nullptr}, [&] {
    TaskHandle c = engine.Spawn({2, nullptr}, [&] {
      char scratch[16 * 1024];
      std::memset(scratch, 0x5A, sizeof scratch);
      spawned_on = StackProbe() + (scratch[sizeof scratch - 1] == 0x5A);
      ++ran;
    });
    c.Join();
    ++ran;
  });
  b.Join();
  a.Join();
  EXPECT_EQ(ran, 3);
  const uintptr_t apart = finished_on > spawned_on ? finished_on - spawned_on
                                                   : spawned_on - finished_on;
  EXPECT_LT(apart, 64u * 1024) << "pid 2 did not get pid 0's stack";
}

// A small simulation: eight ranks exchange a ring of messages.
void RunRing() {
  Cluster cluster;
  cluster.Spawn(8, [](Endpoint& ep) {
    const int next = (ep.pid() + 1) % 8;
    const int prev = (ep.pid() + 7) % 8;
    ASSERT_TRUE(ep.Send(next, 1, 0, Bytes(8)).ok());
    Message msg;
    ASSERT_TRUE(ep.Recv(prev, 1, 0, &msg).ok());
  });
  cluster.Join();
}

TEST(FiberStacks, SecondSimulationOnAThreadMapsNoNewStack) {
  RunRing();
  const uint64_t mapped = FiberStacksMapped();
  EXPECT_GE(mapped, 8u);
  RunRing();
  EXPECT_EQ(FiberStacksMapped(), mapped);
}

TEST(FiberStacks, AbandonedTasksHandTheirStacksOn) {
  {
    Engine engine;
    engine.Spawn({}, [] {});  // never pumped: abandoned with its stack
  }
  const uint64_t mapped = FiberStacksMapped();
  Engine engine;
  engine.Spawn({}, [] {}).Join();
  EXPECT_EQ(FiberStacksMapped(), mapped);
}

TEST(FiberStacks, EachHostThreadReusesItsOwnStacks) {
  std::atomic<int> reused{0};
  auto twice = [&reused] {
    RunRing();
    const uint64_t mapped = FiberStacksMapped();
    RunRing();
    if (FiberStacksMapped() == mapped) ++reused;
  };
  std::thread a(twice);
  std::thread b(twice);
  a.join();
  b.join();
  EXPECT_EQ(reused.load(), 2);
}

// One simulation, one host thread: blocking off a fiber and pumping from
// a second thread are fatal checks, not silent races.
TEST(OwnerThreadDeathTest, WaitPointWaitOffAFiberFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WaitPoint wp;
        wp.Wait();
      },
      "WaitPoint wait off a fiber");
  EXPECT_DEATH(YieldTask(), "YieldTask off a fiber");
}

TEST(OwnerThreadDeathTest, JoinFromASecondThreadAfterTheFirstPumpedFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Cluster cluster;
        cluster.Spawn(1, [](Endpoint&) {});
        cluster.Join();  // this thread pumped: it owns the simulation
        cluster.Spawn(1, [](Endpoint&) {});
        std::thread other([&] { cluster.Join(); });
        other.join();
      },
      "does not own this simulation");
}

}  // namespace
}  // namespace rcc::sim
