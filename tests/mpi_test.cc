#include <gtest/gtest.h>

#include <atomic>

#include "mpi/comm.h"
#include "test_util.h"

namespace rcc::mpi {
namespace {

using rcc::testing::RunWorld;
using rcc::testing::RunWorldOn;

TEST(Comm, WorldRanksMatchPidOrder) {
  RunWorld(4, [](Comm& comm, sim::Endpoint& ep) {
    EXPECT_EQ(comm.rank(), ep.pid());
    EXPECT_EQ(comm.size(), 4);
    EXPECT_EQ(comm.PidOfRank(comm.rank()), ep.pid());
  });
}

TEST(Comm, WorldSharesOneContextId) {
  std::atomic<uint64_t> ctx{0};
  std::atomic<int> mismatches{0};
  RunWorld(4, [&](Comm& comm, sim::Endpoint&) {
    uint64_t expected = 0;
    if (!ctx.compare_exchange_strong(expected, comm.context_id())) {
      if (expected != comm.context_id()) mismatches++;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Comm, PointToPointRoundTrip) {
  RunWorld(2, [](Comm& comm, sim::Endpoint&) {
    if (comm.rank() == 0) {
      double v = 3.14;
      ASSERT_TRUE(comm.Send(1, 7, &v, sizeof(v)).ok());
      float reply = 0;
      ASSERT_TRUE(comm.Recv(1, 8, &reply, sizeof(reply)).ok());
      EXPECT_EQ(reply, 2.5f);
    } else {
      double v = 0;
      ASSERT_TRUE(comm.Recv(0, 7, &v, sizeof(v)).ok());
      EXPECT_EQ(v, 3.14);
      float reply = 2.5f;
      ASSERT_TRUE(comm.Send(0, 8, &reply, sizeof(reply)).ok());
    }
  });
}

TEST(Comm, AllreduceAutoSelectsBySize) {
  // Both regimes must produce correct sums regardless of the algorithm
  // the size heuristic picks.
  for (size_t count : {size_t{4}, size_t{64 * 1024}}) {
    RunWorld(5, [count](Comm& comm, sim::Endpoint&) {
      std::vector<float> in(count, static_cast<float>(comm.rank() + 1));
      std::vector<float> out(count);
      ASSERT_TRUE(comm.Allreduce(in.data(), out.data(), count).ok());
      for (float v : out) ASSERT_EQ(v, 15.0f);  // 1+2+3+4+5
    });
  }
}

TEST(Comm, SuccessiveCollectivesDoNotCrossTalk) {
  RunWorld(4, [](Comm& comm, sim::Endpoint&) {
    for (int iter = 0; iter < 20; ++iter) {
      float mine = static_cast<float>(comm.rank() + iter);
      float sum = 0;
      ASSERT_TRUE(comm.Allreduce(&mine, &sum, 1).ok());
      ASSERT_EQ(sum, 6.0f + 4 * iter);
    }
  });
}

TEST(Comm, BcastBlobVariableSize) {
  RunWorld(6, [](Comm& comm, sim::Endpoint&) {
    std::vector<uint8_t> blob;
    if (comm.rank() == 2) blob.assign(1000, 0x5A);
    ASSERT_TRUE(comm.BcastBlob(&blob, 2).ok());
    ASSERT_EQ(blob.size(), 1000u);
    EXPECT_EQ(blob[999], 0x5A);
  });
}

TEST(Comm, CollectiveReportsFailedPeer) {
  // Without revoke, only a rank communicating *directly* with the dead
  // process observes the failure (ULFM's per-operation semantics) - a
  // 2-rank world keeps the survivor's observation deterministic.
  sim::Cluster cluster;
  std::atomic<int> failures_seen{0};
  RunWorldOn(cluster, 2, [&](Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 1) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    float mine = 1.0f, out = 0.0f;
    Status st = comm.Allreduce(&mine, &out, 1);
    if (st.code() == Code::kProcFailed) {
      failures_seen++;
      // The observed failure is recorded for failure_ack.
      EXPECT_FALSE(comm.locally_observed_failures().empty());
      EXPECT_EQ(st.failed_pids(), std::vector<int>{1});
    }
  });
  cluster.Join();
  EXPECT_EQ(failures_seen.load(), 1);
}

TEST(Comm, RevokedCommRefusesNewOperations) {
  RunWorld(3, [](Comm& comm, sim::Endpoint&) {
    comm.group()->revoke.Cancel();
    float v = 1.0f, out = 0.0f;
    EXPECT_EQ(comm.Allreduce(&v, &out, 1).code(), Code::kRevoked);
    EXPECT_EQ(comm.Send(0, 1, &v, sizeof(v)).code(), Code::kRevoked);
    EXPECT_EQ(comm.Barrier().code(), Code::kRevoked);
  });
}

TEST(Comm, CostScaleMultipliesModeledTime) {
  std::atomic<double> t_scaled{0}, t_plain{0};
  const size_t count = 1 << 16;
  RunWorld(2, [&](Comm& comm, sim::Endpoint& ep) {
    std::vector<float> in(count, 1.0f), out(count);
    ASSERT_TRUE(comm.Allreduce(in.data(), out.data(), count).ok());
    if (comm.rank() == 0) t_plain = ep.now();
  });
  RunWorld(2, [&](Comm& comm, sim::Endpoint& ep) {
    comm.set_cost_scale(100.0);
    std::vector<float> in(count, 1.0f), out(count);
    ASSERT_TRUE(comm.Allreduce(in.data(), out.data(), count).ok());
    if (comm.rank() == 0) t_scaled = ep.now();
  });
  EXPECT_GT(t_scaled.load(), 10 * t_plain.load());
}

TEST(Comm, GatherScatterBarrierSmoke) {
  RunWorld(7, [](Comm& comm, sim::Endpoint&) {
    int mine = comm.rank();
    std::vector<int> all(7);
    ASSERT_TRUE(comm.Gather(&mine, all.data(), 1, 3).ok());
    if (comm.rank() == 3) {
      for (int r = 0; r < 7; ++r) ASSERT_EQ(all[r], r);
    }
    std::vector<int> src(7);
    for (int i = 0; i < 7; ++i) src[i] = 100 + i;
    int got = 0;
    ASSERT_TRUE(comm.Scatter(src.data(), &got, 1, 3).ok());
    ASSERT_EQ(got, 100 + comm.rank());
    ASSERT_TRUE(comm.Barrier().ok());
  });
}

TEST(Group, GetOrCreateIsIdempotent) {
  sim::Fabric fabric(sim::SimConfig{});
  auto a = GetOrCreateGroup(fabric, "test/idem", {1, 2, 3});
  auto b = GetOrCreateGroup(fabric, "test/idem", {1, 2, 3});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->ctx_id, b->ctx_id);
}

TEST(Group, DistinctKeysDistinctContexts) {
  sim::Fabric fabric(sim::SimConfig{});
  auto a = GetOrCreateGroup(fabric, "test/k1", {0, 1});
  auto b = GetOrCreateGroup(fabric, "test/k2", {0, 1});
  EXPECT_NE(a->ctx_id, b->ctx_id);
}

TEST(Group, SameKeyInTwoFabricsGivesTwoGroups) {
  sim::Fabric first(sim::SimConfig{});
  sim::Fabric second(sim::SimConfig{});
  auto a = GetOrCreateGroup(first, "test/same", {0, 1});
  auto b = GetOrCreateGroup(second, "test/same", {0, 1});
  EXPECT_NE(a.get(), b.get());
  // Context ids are per simulation: each fabric's first group gets 1.
  EXPECT_EQ(a->ctx_id, 1u);
  EXPECT_EQ(b->ctx_id, 1u);
}

TEST(Group, FreedWithItsCluster) {
  std::weak_ptr<CommGroup> group;
  {
    sim::Cluster cluster;
    cluster.Spawn(2, [&](sim::Endpoint& ep) {
      Comm world = Comm::World(ep, {0, 1});
      if (world.rank() == 0) group = world.group();
      EXPECT_TRUE(world.Barrier().ok());
    });
    cluster.Join();
    EXPECT_FALSE(group.expired());  // the fabric's table still holds it
  }
  EXPECT_TRUE(group.expired());
}

TEST(Group, RendezvousKeyHoldsOneType) {
  sim::Fabric fabric(sim::SimConfig{});
  GetOrCreateGroup(fabric, "test/typed", {0});
  EXPECT_DEATH(fabric.Rendezvous<int>("test/typed"), "rendezvous key");
}

TEST(Group, RankOfPid) {
  CommGroup g;
  g.pids = {10, 20, 30};
  EXPECT_EQ(g.RankOfPid(20), 1);
  EXPECT_EQ(g.RankOfPid(99), -1);
}

TEST(Group, KeyEncodesPidsAndOp) {
  EXPECT_NE(GroupKey(1, "shrink", {0, 1}), GroupKey(1, "shrink", {0, 2}));
  EXPECT_NE(GroupKey(1, "shrink", {0, 1}), GroupKey(2, "shrink", {0, 1}));
  EXPECT_NE(GroupKey(1, "shrink", {0, 1}), GroupKey(1, "expand", {0, 1}));
}

}  // namespace
}  // namespace rcc::mpi
