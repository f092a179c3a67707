// ULFM semantics under injected failures: revoke interrupting blocked
// collectives, fault-tolerant agreement, shrink, and worker admission.
#include <gtest/gtest.h>

#include <atomic>

#include "obs/flight.h"
#include "test_util.h"
#include "ulfm/ulfm.h"

namespace rcc::ulfm {
namespace {

using rcc::testing::RunWorld;
using rcc::testing::RunWorldOn;

TEST(FailureAck, SeesFabricDeathsInGroup) {
  sim::Cluster cluster;
  std::atomic<int> acked_count{-1};
  RunWorldOn(cluster, 3, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 1) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    if (comm.rank() == 0) {
      // Give the victim time to die, then acknowledge. The yield keeps
      // the spin cooperative under the fibers engine.
      while (ep.fabric().IsAlive(1)) {
        sim::YieldTask();
      }
      auto acked = FailureAck(comm);
      acked_count = static_cast<int>(acked.size());
      EXPECT_EQ(acked, std::vector<int>{1});
      EXPECT_EQ(FailureGetAcked(comm), std::vector<int>{1});
    }
  });
  cluster.Join();
  EXPECT_EQ(acked_count.load(), 1);
}

TEST(Revoke, InterruptsRanksBlockedInCollective) {
  // The classic ULFM scenario: rank 2 dies; its ring neighbour errors;
  // the other ranks are stuck in the collective until someone revokes.
  sim::Cluster cluster;
  std::atomic<int> revoked_count{0};
  std::atomic<int> failed_count{0};
  RunWorldOn(cluster, 5, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 2) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    std::vector<float> in(4096, 1.0f), out(4096);
    Status st =
        comm.Allreduce(in.data(), out.data(), in.size(), mpi::AllreduceAlgo::kRing);
    if (st.code() == Code::kProcFailed) {
      failed_count++;
      Revoke(comm);  // detector interrupts everyone else
    } else if (st.code() == Code::kRevoked) {
      revoked_count++;
    }
  });
  cluster.Join();
  EXPECT_GE(failed_count.load(), 1);
  EXPECT_EQ(failed_count.load() + revoked_count.load(), 4);
}

TEST(Agree, AllSurvivorsGetSameFlagAnd) {
  std::atomic<int> and_sum{0};
  RunWorld(6, [&](mpi::Comm& comm, sim::Endpoint&) {
    const int flag = comm.rank() == 3 ? 0 : 1;
    auto r = Agree(comm, flag);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().flag, 0);
    EXPECT_TRUE(r.value().failed_pids.empty());
    and_sum += r.value().flag;
  });
  EXPECT_EQ(and_sum.load(), 0);
}

TEST(Agree, UnanimousFlagSurvives) {
  RunWorld(4, [](mpi::Comm& comm, sim::Endpoint&) {
    auto r = Agree(comm, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().flag, 1);
  });
}

TEST(Agree, ReportsConsistentFailedSetWhenRankDiesBefore) {
  sim::Cluster cluster;
  std::atomic<int> consistent{0};
  RunWorldOn(cluster, 5, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 4) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    auto r = Agree(comm, 1);
    ASSERT_TRUE(r.ok());
    if (r.value().failed_pids == std::vector<int>{4}) consistent++;
  });
  cluster.Join();
  EXPECT_EQ(consistent.load(), 4);
}

TEST(Agree, MinPayloadReducedAcrossRanks) {
  RunWorld(5, [](mpi::Comm& comm, sim::Endpoint&) {
    auto r = Agree(comm, 1, /*value=*/100 + comm.rank());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().min_value, 100);
    EXPECT_EQ(r.value().flag, 1);
  });
}

TEST(Agree, MinPayloadHandlesNegatives) {
  RunWorld(3, [](mpi::Comm& comm, sim::Endpoint&) {
    auto r = Agree(comm, 1, comm.rank() == 1 ? -5 : 7);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().min_value, -5);
  });
}

TEST(Agree, AdvancesVirtualClockByModeledCost) {
  RunWorld(8, [](mpi::Comm& comm, sim::Endpoint& ep) {
    const double before = ep.now();
    ASSERT_TRUE(Agree(comm, 1).ok());
    const double cost = AgreementCost(ep.fabric().config(), 8);
    EXPECT_GE(ep.now(), before + cost * 0.9);
  });
}

TEST(Agree, RepeatedAgreementsStayAligned) {
  RunWorld(4, [](mpi::Comm& comm, sim::Endpoint&) {
    for (int i = 0; i < 10; ++i) {
      auto r = Agree(comm, i % 2);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().flag, i % 2);
    }
  });
}

TEST(Shrink, SurvivorsKeepRelativeOrder) {
  sim::Cluster cluster;
  std::atomic<int> checked{0};
  RunWorldOn(cluster, 6, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 2) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    auto shrunk = Shrink(comm);
    ASSERT_TRUE(shrunk.ok());
    mpi::Comm& next = shrunk.value();
    EXPECT_EQ(next.size(), 5);
    // Old rank order preserved, dead rank excised.
    const int expected_rank = comm.rank() < 2 ? comm.rank() : comm.rank() - 1;
    EXPECT_EQ(next.rank(), expected_rank);
    // The shrunk communicator is fully operational.
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(next.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 5.0f);
    checked++;
  });
  cluster.Join();
  EXPECT_EQ(checked.load(), 5);
}

TEST(Shrink, WorksOnRevokedCommunicator) {
  sim::Cluster cluster;
  std::atomic<int> recovered{0};
  RunWorldOn(cluster, 4, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 3) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    // Full recovery sequence: op fails or is revoked -> ack -> shrink.
    std::vector<float> in(2048, 1.0f), out(2048);
    Status st = comm.Allreduce(in.data(), out.data(), in.size(),
                               mpi::AllreduceAlgo::kRing);
    if (st.code() == Code::kProcFailed) Revoke(comm);
    FailureAck(comm);
    auto shrunk = Shrink(comm);
    ASSERT_TRUE(shrunk.ok());
    // Forward recovery: re-execute the failed collective on the shrunk
    // communicator with the preserved input.
    ASSERT_TRUE(
        shrunk.value().Allreduce(in.data(), out.data(), in.size()).ok());
    EXPECT_EQ(out[0], 3.0f);
    recovered++;
  });
  cluster.Join();
  EXPECT_EQ(recovered.load(), 3);
}

TEST(Shrink, HandlesMultipleSimultaneousFailures) {
  sim::Cluster cluster;
  std::atomic<int> survivors{0};
  RunWorldOn(cluster, 8, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 1 || comm.rank() == 5 || comm.rank() == 6) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    auto shrunk = Shrink(comm);
    ASSERT_TRUE(shrunk.ok());
    EXPECT_EQ(shrunk.value().size(), 5);
    float mine = 2.0f, sum = 0.0f;
    ASSERT_TRUE(shrunk.value().Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 10.0f);
    survivors++;
  });
  cluster.Join();
  EXPECT_EQ(survivors.load(), 5);
}

TEST(Shrink, NoFailuresIsIdentityMembership) {
  RunWorld(4, [](mpi::Comm& comm, sim::Endpoint&) {
    auto shrunk = Shrink(comm);
    ASSERT_TRUE(shrunk.ok());
    EXPECT_EQ(shrunk.value().size(), 4);
    EXPECT_EQ(shrunk.value().rank(), comm.rank());
    EXPECT_NE(shrunk.value().context_id(), comm.context_id());
  });
}

// One shrink after a failure: the shrunk communicator's context id and
// the contexts its revokes name (the kRevoke payload).
struct ShrinkRun {
  uint64_t shrunk_ctx = 0;
  std::vector<int64_t> revoked;
};

ShrinkRun RunOneShrink() {
  sim::Cluster cluster;
  cluster.fabric().logs().KeepAll();
  ShrinkRun run;
  RunWorldOn(cluster, 4, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 3) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    float mine = 1.0f, sum = 0.0f;
    if (!comm.Allreduce(&mine, &sum, 1).ok()) Revoke(comm);
    auto shrunk = Shrink(comm);
    ASSERT_TRUE(shrunk.ok());
    if (shrunk.value().rank() == 0) {
      run.shrunk_ctx = shrunk.value().context_id();
    }
  });
  cluster.Join();
  for (const obs::flight::Ring* ring : cluster.fabric().logs().rings()) {
    for (const obs::flight::Event& ev : ring->Snapshot()) {
      if (ev.kind == obs::flight::Ev::kRevoke) run.revoked.push_back(ev.a);
    }
  }
  return run;
}

TEST(Shrink, ContextIdsRestartInEverySimulation) {
  const ShrinkRun first = RunOneShrink();
  const ShrinkRun second = RunOneShrink();
  ASSERT_FALSE(first.revoked.empty());
  EXPECT_NE(first.shrunk_ctx, 0u);
  EXPECT_EQ(second.shrunk_ctx, first.shrunk_ctx);
  EXPECT_EQ(second.revoked, first.revoked);
}

TEST(Expand, AdmitsJoinersAfterSurvivors) {
  sim::Cluster cluster;
  std::atomic<int> ok_count{0};
  // 3 founders + 2 joiners -> world of 5.
  RunWorldOn(cluster, 3, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    auto expanded = ExpandComm(ep, &comm, "t1", 2);
    ASSERT_TRUE(expanded.ok());
    EXPECT_EQ(expanded.value().size(), 5);
    EXPECT_EQ(expanded.value().rank(), comm.rank());  // founders keep order
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(expanded.value().Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 5.0f);
    ok_count++;
  });
  for (int j = 0; j < 2; ++j) {
    cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
      auto joined = ExpandComm(ep, nullptr, "t1", 2);
      ASSERT_TRUE(joined.ok());
      EXPECT_EQ(joined.value().size(), 5);
      EXPECT_GE(joined.value().rank(), 3);  // joiners ranked after founders
      float mine = 1.0f, sum = 0.0f;
      ASSERT_TRUE(joined.value().Allreduce(&mine, &sum, 1).ok());
      EXPECT_EQ(sum, 5.0f);
      ok_count++;
    }, 0.0);
  }
  cluster.Join();
  EXPECT_EQ(ok_count.load(), 5);
}

TEST(Expand, JoinerClockMergesWithSurvivors) {
  sim::Cluster cluster;
  std::atomic<double> joiner_time{0};
  RunWorldOn(cluster, 2, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    ep.Busy(10.0);  // survivors are deep into training
    ASSERT_TRUE(ExpandComm(ep, &comm, "t2", 1).ok());
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto joined = ExpandComm(ep, nullptr, "t2", 1);
    ASSERT_TRUE(joined.ok());
    joiner_time = ep.now();
  }, 0.0);
  cluster.Join();
  EXPECT_GE(joiner_time.load(), 10.0);
}

TEST(Expand, SurvivorDeathDuringExpandExcludesIt) {
  sim::Cluster cluster;
  std::atomic<int> sizes_seen{0};
  RunWorldOn(cluster, 3, [&](mpi::Comm& comm, sim::Endpoint& ep) {
    if (comm.rank() == 1) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    auto expanded = ExpandComm(ep, &comm, "t3", 1);
    ASSERT_TRUE(expanded.ok());
    EXPECT_EQ(expanded.value().size(), 3);  // 2 survivors + 1 joiner
    sizes_seen++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto joined = ExpandComm(ep, nullptr, "t3", 1);
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(joined.value().size(), 3);
    sizes_seen++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(sizes_seen.load(), 3);
}

TEST(AgreementCostModel, GrowsLogarithmically) {
  sim::SimConfig cfg;
  const double c8 = AgreementCost(cfg, 8);
  const double c64 = AgreementCost(cfg, 64);
  const double c192 = AgreementCost(cfg, 192);
  EXPECT_NEAR(c64 / c8, 2.0, 1e-9);   // log2: 3 -> 6 rounds
  EXPECT_GT(c192, c64);
  EXPECT_LT(c192, 2 * c64);
}

}  // namespace
}  // namespace rcc::ulfm
