#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "coll/request.h"
#include "gloo/gloo.h"
#include "kvstore/kvstore.h"
#include "mpi/comm.h"
#include "nccl/nccl.h"
#include "sim/cluster.h"
#include "sim/endpoint.h"
#include "sim/engine.h"
#include "sim/fabric.h"
#include "sim/failure.h"

namespace rcc::sim {
namespace {

SimConfig TestConfig() {
  SimConfig cfg;
  return cfg;
}

std::vector<uint8_t> Bytes(size_t n, uint8_t fill = 0xAB) {
  return std::vector<uint8_t>(n, fill);
}

TEST(Fabric, RegisterAssignsSequentialPids) {
  Fabric fabric(TestConfig());
  EXPECT_EQ(fabric.RegisterProcess(0), 0);
  EXPECT_EQ(fabric.RegisterProcess(0), 1);
  EXPECT_EQ(fabric.RegisterProcess(1), 2);
  EXPECT_EQ(fabric.ProcessCount(), 3);
  EXPECT_EQ(fabric.NodeOf(2), 1);
}

TEST(Fabric, SendRecvDeliversPayload) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1);
  ASSERT_TRUE(a.Send(1, 10, 5, Bytes(16)).ok());
  Message msg;
  ASSERT_TRUE(b.Recv(0, 10, 5, &msg).ok());
  EXPECT_EQ(msg.payload.size(), 16u);
  EXPECT_EQ(msg.src, 0);
}

TEST(Fabric, RecvMatchesChannelAndTag) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1);
  ASSERT_TRUE(a.Send(1, 10, 1, Bytes(1, 0x01)).ok());
  ASSERT_TRUE(a.Send(1, 10, 2, Bytes(1, 0x02)).ok());
  ASSERT_TRUE(a.Send(1, 20, 1, Bytes(1, 0x03)).ok());
  Message msg;
  ASSERT_TRUE(b.Recv(0, 10, 2, &msg).ok());
  EXPECT_EQ(msg.payload[0], 0x02);
  ASSERT_TRUE(b.Recv(0, 20, 1, &msg).ok());
  EXPECT_EQ(msg.payload[0], 0x03);
  ASSERT_TRUE(b.Recv(0, 10, 1, &msg).ok());
  EXPECT_EQ(msg.payload[0], 0x01);
}

TEST(Fabric, VirtualTimeAdvancesWithBandwidth) {
  SimConfig cfg = TestConfig();
  Fabric fabric(cfg);
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(1);  // different node -> inter-node params
  Endpoint a(&fabric, 0), b(&fabric, 1);
  const double bytes = 23e9;  // exactly one second at injection bandwidth
  ASSERT_TRUE(a.Send(1, 1, 0, Bytes(8), bytes).ok());
  Message msg;
  ASSERT_TRUE(b.Recv(0, 1, 0, &msg).ok());
  EXPECT_NEAR(b.now(), 1.0, 1e-3);
}

TEST(Fabric, IntraNodeFasterThanInterNode) {
  SimConfig cfg = TestConfig();
  Fabric fabric(cfg);
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);  // same node
  fabric.RegisterProcess(1);  // other node
  Endpoint a(&fabric, 0), b(&fabric, 1), c(&fabric, 2);
  const double bytes = 1e9;
  ASSERT_TRUE(a.Send(1, 1, 0, Bytes(8), bytes).ok());
  ASSERT_TRUE(a.Send(2, 1, 0, Bytes(8), bytes).ok());
  Message m1, m2;
  ASSERT_TRUE(b.Recv(0, 1, 0, &m1).ok());
  ASSERT_TRUE(c.Recv(0, 1, 0, &m2).ok());
  EXPECT_LT(b.now(), c.now());
}

TEST(Fabric, RecvMergesMaxOfClockAndArrival) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1);
  b.AdvanceTo(5.0);  // receiver already ahead
  ASSERT_TRUE(a.Send(1, 1, 0, Bytes(8)).ok());
  Message msg;
  ASSERT_TRUE(b.Recv(0, 1, 0, &msg).ok());
  EXPECT_GE(b.now(), 5.0);
  EXPECT_LT(b.now(), 5.001);
}

TEST(Fabric, RecvFromDeadPeerReportsFailure) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint b(&fabric, 1);
  fabric.Kill(0);
  Message msg;
  Status s = b.Recv(0, 1, 0, &msg);
  EXPECT_EQ(s.code(), Code::kProcFailed);
  EXPECT_EQ(s.failed_pids(), std::vector<int>{0});
  // Detection latency charged.
  EXPECT_NEAR(b.now(), TestConfig().net.failure_detect_latency, 1e-9);
}

TEST(Fabric, QueuedMessageDeliveredEvenAfterSenderDies) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1);
  ASSERT_TRUE(a.Send(1, 1, 0, Bytes(4)).ok());
  fabric.Kill(0);
  Message msg;
  EXPECT_TRUE(b.Recv(0, 1, 0, &msg).ok());  // data first, then error
  EXPECT_EQ(b.Recv(0, 1, 0, &msg).code(), Code::kProcFailed);
}

TEST(Fabric, SendToDeadPeerIsSilentlyDropped) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  fabric.Kill(1);
  EXPECT_TRUE(a.Send(1, 1, 0, Bytes(4)).ok());
}

TEST(Fabric, DeadReceiverGetsAborted) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  fabric.Kill(0);
  Message msg;
  EXPECT_EQ(a.Recv(0, 1, 0, &msg).code(), Code::kAborted);
}

TEST(Fabric, CancelTokenInterruptsBlockedRecv) {
  Cluster cluster(TestConfig());
  CancelToken token;
  std::atomic<bool> parked{false};
  std::atomic<bool> got_revoked{false};
  cluster.Spawn(2, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      parked = true;
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, &token);
      got_revoked = (s.code() == Code::kRevoked);
      return;
    }
    // pid 0 never sends: it revokes once pid 1 is blocked.
    while (!parked.load()) YieldTask();
    token.Cancel();
    ep.fabric().WakeAll();
  });
  cluster.Join();
  EXPECT_TRUE(got_revoked.load());
}

TEST(Fabric, DeathWatchTriggersOnAnyWatchedDeath) {
  Cluster cluster(TestConfig());
  std::vector<int> watch{0, 2, 3};
  std::atomic<bool> parked{false};
  std::atomic<int> failed_pid{-1};
  cluster.Spawn(4, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      parked = true;
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
      if (s.code() == Code::kProcFailed && !s.failed_pids().empty()) {
        failed_pid = s.failed_pids()[0];
      }
      return;
    }
    // pids 0 and 2 stay alive and silent; pid 3 dies once pid 1 waits.
    if (ep.pid() == 3) {
      while (!parked.load()) YieldTask();
      ep.fabric().Kill(ep.pid());
    }
  });
  cluster.Join();
  EXPECT_EQ(failed_pid.load(), 3);
}

TEST(Fabric, WatchGraceLetsDrainableMessagesThrough) {
  // pid 1 awaits a message from ALIVE pid 0 while watched pid 2 is dead;
  // pid 0 sends only after the death. The grace period must let the
  // message through instead of preempting the op.
  Cluster cluster(TestConfig());
  std::vector<int> watch{0, 1, 2};
  std::atomic<bool> parked{false};
  std::atomic<bool> killed{false};
  std::atomic<bool> delivered{false};
  cluster.Spawn(3, [&](Endpoint& ep) {
    if (ep.pid() == 0) {
      while (!killed.load()) YieldTask();
      ASSERT_TRUE(ep.Send(1, 1, 0, Bytes(4)).ok());
    } else if (ep.pid() == 1) {
      parked = true;
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
      delivered = s.ok();
    } else {
      while (!parked.load()) YieldTask();
      ep.fabric().Kill(ep.pid());
      killed = true;
    }
  });
  cluster.Join();
  EXPECT_TRUE(delivered.load());
}

TEST(Fabric, WatchFiresAfterGraceWhenTrulyStalled) {
  // pid 1 awaits ALIVE pid 0, which never sends to it but runs a
  // drainable ping-pong chain with pid 3 while watched pid 2 is dead.
  // The watch fires on quiescence: only after every chain step ran.
  constexpr int kRounds = 5;
  Cluster cluster(TestConfig());
  std::vector<int> watch{0, 1, 2};
  std::atomic<int> chain_steps{0};
  std::atomic<int> steps_at_fire{-1};
  std::atomic<bool> failed{false};
  cluster.Spawn(4, [&](Endpoint& ep) {
    Message msg;
    switch (ep.pid()) {
      case 0:
      case 3: {
        const int peer = 3 - ep.pid();
        for (int r = 0; r < kRounds; ++r) {
          if (ep.pid() == 0) {
            ASSERT_TRUE(ep.Send(peer, 2, r, Bytes(1)).ok());
            ASSERT_TRUE(ep.Recv(peer, 2, r, &msg).ok());
          } else {
            ASSERT_TRUE(ep.Recv(peer, 2, r, &msg).ok());
            ASSERT_TRUE(ep.Send(peer, 2, r, Bytes(1)).ok());
          }
          chain_steps++;
        }
        break;
      }
      case 1: {
        Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
        steps_at_fire = chain_steps.load();
        failed = (s.code() == Code::kProcFailed);
        break;
      }
      case 2:
        ep.fabric().Kill(ep.pid());
        break;
    }
  });
  cluster.Join();
  EXPECT_TRUE(failed.load());
  EXPECT_EQ(steps_at_fire.load(), 2 * kRounds);
}

TEST(Fabric, DeathWatchReportsEveryDeadPidOfDeathsWhileParked) {
  // pid 1 awaits silent, alive pid 0. Watched pid 2 dies once pid 1 is
  // parked, and pid 3 dies inside the grace that death opens: the watch
  // fires once, naming both.
  Cluster cluster(TestConfig());
  std::vector<int> watch{0, 2, 3, 4};
  std::atomic<bool> parked{false};
  std::vector<int> failed;
  cluster.Spawn(5, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      parked = true;
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
      ASSERT_EQ(s.code(), Code::kProcFailed);
      failed = s.failed_pids();
    } else if (ep.pid() == 2) {
      while (!parked.load()) YieldTask();
      ep.fabric().Kill(2);
    } else if (ep.pid() == 3) {
      while (ep.fabric().IsAlive(2)) YieldTask();
      ep.fabric().Kill(3);
    }
  });
  cluster.Join();
  EXPECT_EQ(failed, (std::vector<int>{2, 3}));
}

TEST(Fabric, DeathWatchReportsPidsThatDiedBeforeTheCall) {
  Cluster cluster(TestConfig());
  std::vector<int> watch{0, 2, 3};
  std::vector<int> failed;
  cluster.Spawn(4, [&](Endpoint& ep) {
    if (ep.pid() == 1) {
      while (ep.fabric().AliveCount() > 2) YieldTask();
      Message msg;
      Status s = ep.Recv(0, 1, 0, &msg, nullptr, &watch);
      ASSERT_EQ(s.code(), Code::kProcFailed);
      failed = s.failed_pids();
    } else if (ep.pid() >= 2) {
      ep.fabric().Kill(ep.pid());
    }
  });
  cluster.Join();
  EXPECT_EQ(failed, (std::vector<int>{2, 3}));
}

TEST(Fabric, KillNodeKillsAllResidents) {
  SimConfig cfg = TestConfig();
  Fabric fabric(cfg);
  for (int i = 0; i < 12; ++i) fabric.RegisterProcess(i / 6);
  fabric.KillNode(0);
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(fabric.IsAlive(i));
  for (int i = 6; i < 12; ++i) EXPECT_TRUE(fabric.IsAlive(i));
  EXPECT_EQ(fabric.AlivePids().size(), 6u);
  EXPECT_EQ(fabric.DeadPids().size(), 6u);
}

TEST(Fabric, PurgeContextDropsOnlyThatContext) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1);
  ASSERT_TRUE(a.Send(1, ChannelKey(7, 1), 0, Bytes(1)).ok());
  ASSERT_TRUE(a.Send(1, ChannelKey(8, 1), 0, Bytes(1)).ok());
  fabric.PurgeContext(7);
  Message msg;
  EXPECT_EQ(b.TryRecv(0, ChannelKey(7, 1), 0, &msg).code(),
            Code::kUnavailable);
  EXPECT_TRUE(b.TryRecv(0, ChannelKey(8, 1), 0, &msg).ok());
}

TEST(Fabric, TryRecvDoesNotBlock) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  Message msg;
  EXPECT_EQ(a.TryRecv(kAnySource, 1, 0, &msg).code(), Code::kUnavailable);
}

TEST(Fabric, AnySourceMatchesFirstArrival) {
  Fabric fabric(TestConfig());
  for (int i = 0; i < 3; ++i) fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0), b(&fabric, 1), c(&fabric, 2);
  ASSERT_TRUE(b.Send(0, 1, 0, Bytes(1, 0x0B)).ok());
  ASSERT_TRUE(c.Send(0, 1, 0, Bytes(1, 0x0C)).ok());
  Message msg;
  ASSERT_TRUE(a.Recv(kAnySource, 1, 0, &msg).ok());
  EXPECT_TRUE(msg.src == 1 || msg.src == 2);
}

TEST(Endpoint, ComputeAdvancesClockAtGpuRate) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  a.Compute(7.8e12);  // one second of V100-class math
  EXPECT_NEAR(a.now(), 1.0, 1e-9);
}

TEST(Endpoint, SelfKillTriggersAtVirtualTime) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  a.SetKillAtTime(0.5);
  a.Busy(0.4);
  EXPECT_TRUE(a.alive());
  a.Busy(0.2);  // crosses the trigger
  EXPECT_FALSE(a.alive());
}

TEST(Endpoint, SendAfterSelfKillAborts) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  a.KillNow();
  EXPECT_EQ(a.Send(1, 1, 0, Bytes(1)).code(), Code::kAborted);
}

TEST(Cluster, SpawnPacksGpusPerNode) {
  Cluster cluster;
  std::atomic<int> ran{0};
  auto pids = cluster.Spawn(13, [&](Endpoint&) { ran++; });
  cluster.Join();
  EXPECT_EQ(ran.load(), 13);
  EXPECT_EQ(cluster.fabric().NodeOf(pids[0]), 0);
  EXPECT_EQ(cluster.fabric().NodeOf(pids[5]), 0);
  EXPECT_EQ(cluster.fabric().NodeOf(pids[6]), 1);
  EXPECT_EQ(cluster.fabric().NodeOf(pids[12]), 2);
  EXPECT_EQ(cluster.nodes_allocated(), 3);
}

TEST(Cluster, SpawnOnFreshNodesSkipsPartialNode) {
  Cluster cluster;
  cluster.Spawn(7, [](Endpoint&) {});
  auto pids = cluster.SpawnOnFreshNodes(1, [](Endpoint&) {}, 0.0);
  cluster.Join();
  EXPECT_EQ(cluster.fabric().NodeOf(pids[0]), 2);
}

TEST(Cluster, PingPongAcrossThreads) {
  Cluster cluster;
  std::atomic<double> b_final{0};
  cluster.Spawn(2, [&](Endpoint& ep) {
    Message msg;
    if (ep.pid() == 0) {
      ASSERT_TRUE(ep.Send(1, 1, 0, Bytes(1 << 20)).ok());
      ASSERT_TRUE(ep.Recv(1, 1, 1, &msg).ok());
    } else {
      ASSERT_TRUE(ep.Recv(0, 1, 0, &msg).ok());
      ASSERT_TRUE(ep.Send(0, 1, 1, Bytes(1 << 20)).ok());
      b_final = ep.now();
    }
  });
  cluster.Join();
  EXPECT_GT(b_final.load(), 0.0);
}

TEST(FailurePlan, AppliesProcessAndNodeEvents) {
  Cluster cluster;
  std::atomic<bool> armed{false};
  // Workers tick virtual time until their trigger fires or they finish.
  auto worker = [&](Endpoint& ep) {
    while (!armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 100 && ep.alive(); ++i) ep.Busy(1e-3);
  };
  cluster.Spawn(12, worker);
  FailurePlan plan;
  plan.KillProcess(1, 0.05).KillNode(1, 0.05);
  plan.ApplyTo(cluster);
  armed = true;
  cluster.Join();
  EXPECT_FALSE(cluster.fabric().IsAlive(1));
  for (int pid = 6; pid < 12; ++pid) {
    EXPECT_FALSE(cluster.fabric().IsAlive(pid));
  }
  EXPECT_TRUE(cluster.fabric().IsAlive(0));
}

// Regression: a node-scope event applied before the node has any
// residents must still arm workers that register on it later (the
// cluster keeps a pending list and arms at registration time).
TEST(FailurePlan, NodeEventArmsLateRegistrants) {
  Cluster cluster;
  std::atomic<bool> armed{false};
  auto worker = [&](Endpoint& ep) {
    while (!armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 100 && ep.alive(); ++i) ep.Busy(1e-3);
  };
  cluster.Spawn(6, worker);  // fills node 0
  FailurePlan plan;
  plan.KillNode(1, 0.05);  // node 1 has no residents yet
  plan.ApplyTo(cluster);
  auto late = cluster.SpawnOnFreshNodes(2, worker, 0.0);  // lands on node 1
  armed = true;
  cluster.Join();
  ASSERT_EQ(late.size(), 2u);
  for (int pid : late) {
    EXPECT_EQ(cluster.fabric().NodeOf(pid), 1);
    EXPECT_FALSE(cluster.fabric().IsAlive(pid));
  }
  EXPECT_TRUE(cluster.fabric().IsAlive(0));
}

TEST(Endpoint, ArmKillAtKeepsEarliestTrigger) {
  Fabric fabric(TestConfig());
  fabric.RegisterProcess(0);
  Endpoint a(&fabric, 0);
  a.ArmKillAt(0.5);
  a.ArmKillAt(0.9);  // later arm must not postpone the trigger
  a.Busy(0.6);
  EXPECT_FALSE(a.alive());

  fabric.RegisterProcess(0);
  Endpoint b(&fabric, 1);
  b.ArmKillAt(0.9);
  b.ArmKillAt(0.2);  // earlier arm wins
  b.Busy(0.3);
  EXPECT_FALSE(b.alive());
}

TEST(FailurePlan, PoissonIsDeterministicAndBounded) {
  auto a = FailurePlan::Poisson(10.0, 100.0, 8, 42);
  auto b = FailurePlan::Poisson(10.0, 100.0, 8, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_GT(a.events().size(), 100u);  // ~1000 expected
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_LT(a.events()[i].at, 100.0);
    EXPECT_LT(a.events()[i].target, 8);
  }
}

// Sizes on both sides of the inline limit, and a large one.
const size_t kPayloadSizes[] = {0, Payload::kInlineBytes,
                                Payload::kInlineBytes + 1, size_t{1} << 20};

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 7 + 1);
  return v;
}

// Rank 0 sends each size twice; rank 1 receives the first copy into a
// buffer and the second as a blob. Then an 8-byte message received as 9
// bytes must fail with `mismatch` and "size mismatch".
void RoundTripEverySize(coll::Transport& t, Code mismatch) {
  if (t.rank() == 0) {
    for (size_t n : kPayloadSizes) {
      const std::vector<uint8_t> v = Pattern(n);
      ASSERT_TRUE(t.SendTo(1, 1, v.data(), n).ok());
      ASSERT_TRUE(t.SendTo(1, 2, v.data(), n).ok());
    }
    const uint64_t word = 42;
    ASSERT_TRUE(t.SendTo(1, 3, &word, sizeof(word)).ok());
    return;
  }
  for (size_t n : kPayloadSizes) {
    std::vector<uint8_t> got(n);
    ASSERT_TRUE(t.RecvFrom(0, 1, got.data(), n).ok());
    EXPECT_EQ(got, Pattern(n)) << n << " bytes into a buffer";
    std::vector<uint8_t> blob;
    ASSERT_TRUE(t.RecvBlob(0, 2, &blob).ok());
    EXPECT_EQ(blob, Pattern(n)) << n << " bytes as a blob";
  }
  uint8_t too_long[9];
  Status s = t.RecvFrom(0, 3, too_long, sizeof(too_long));
  EXPECT_EQ(s.code(), mismatch);
  EXPECT_NE(s.ToString().find("size mismatch"), std::string::npos)
      << s.ToString();
}

TEST(Payload, StoresSmallBytesInlineAndHandsLargeOnesOver) {
  for (size_t n : kPayloadSizes) {
    Payload p(Pattern(n));
    ASSERT_EQ(p.size(), n);
    if (n != 0) {
      EXPECT_EQ(p[n - 1], Pattern(n)[n - 1]);
    }
    Payload moved(std::move(p));
    EXPECT_EQ(std::move(moved).TakeVector(), Pattern(n));
  }
  Payload empty = {};
  EXPECT_EQ(empty.size(), 0u);
}

TEST(Transports, EveryPayloadSizeRoundTripsThroughEndpoint) {
  Cluster cluster(TestConfig());
  cluster.Spawn(2, [](Endpoint& ep) {
    if (ep.pid() == 0) {
      for (size_t n : kPayloadSizes) {
        ASSERT_TRUE(ep.Send(1, 1, 0, Pattern(n)).ok());
      }
      return;
    }
    for (size_t n : kPayloadSizes) {
      Message msg;
      ASSERT_TRUE(ep.Recv(0, 1, 0, &msg).ok());
      EXPECT_EQ(std::move(msg.payload).TakeVector(), Pattern(n));
    }
  });
  cluster.Join();
}

TEST(Transports, EveryPayloadSizeRoundTripsThroughMpi) {
  Cluster cluster(TestConfig());
  cluster.Spawn(2, [](Endpoint& ep) {
    mpi::Comm comm = mpi::Comm::World(ep, {0, 1});
    RoundTripEverySize(comm, Code::kInternal);
    // The point-to-point calls share the codec.
    const std::vector<uint8_t> big = Pattern(Payload::kInlineBytes + 1);
    if (comm.rank() == 0) {
      ASSERT_TRUE(comm.Send(1, 4, big.data(), big.size()).ok());
      ASSERT_TRUE(comm.Send(1, 5, big.data(), big.size()).ok());
      ASSERT_TRUE(comm.Send(1, 6, big.data(), big.size()).ok());
      return;
    }
    std::vector<uint8_t> got(big.size());
    ASSERT_TRUE(comm.Recv(0, 4, got.data(), got.size()).ok());
    EXPECT_EQ(got, big);
    std::vector<uint8_t> blob;
    ASSERT_TRUE(comm.RecvBlobFrom(0, 5, &blob).ok());
    EXPECT_EQ(blob, big);
    Status s = comm.Recv(0, 6, got.data(), got.size() - 1,
                         /*watch_members=*/true);
    EXPECT_EQ(s.code(), Code::kInternal);
    EXPECT_NE(s.ToString().find("p2p size mismatch"), std::string::npos);
  });
  cluster.Join();
}

TEST(Transports, EveryPayloadSizeRoundTripsThroughNccl) {
  Cluster cluster(TestConfig());
  cluster.Spawn(2, [](Endpoint& ep) {
    auto comm = nccl::Comm::InitRank(ep, {0, 1}, "payload");
    ASSERT_NE(comm, nullptr);
    RoundTripEverySize(*comm, Code::kInternal);
  });
  cluster.Join();
}

TEST(Transports, EveryPayloadSizeRoundTripsThroughGloo) {
  Cluster cluster(TestConfig());
  kv::Store store;
  cluster.Spawn(2, [&](Endpoint& ep) {
    auto ctx = gloo::Context::Connect(ep, store, "payload", 2);
    ASSERT_NE(ctx, nullptr);
    RoundTripEverySize(*ctx, Code::kInternal);
  });
  cluster.Join();
}

TEST(Transports, EveryPayloadSizeRoundTripsThroughFabricChannel) {
  Cluster cluster(TestConfig());
  const std::vector<int> pids{0, 1};
  cluster.Spawn(2, [&](Endpoint& ep) {
    Seconds now = ep.now();
    coll::FabricChannel ch(ep, pids, ep.pid(), ChannelKey(9, 1),
                           /*cost_scale=*/1.0, &now, nullptr, nullptr);
    RoundTripEverySize(ch, Code::kInvalid);
  });
  cluster.Join();
}

}  // namespace
}  // namespace rcc::sim
