// The paper's contribution, end to end: resilient collectives with
// forward recovery, the synthetic elastic runner, and the real-model
// elastic trainer (SPMD consistency across failures and joins).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "core/ulfm_elastic.h"
#include "horovod/elastic_horovod.h"

namespace rcc::core {
namespace {

using horovod::DropPolicy;
using horovod::SyntheticPlan;

double Phase(const trace::Recorder& rec, const std::string& name) {
  auto by = rec.MaxByPhase();
  auto it = by.find(name);
  return it == by.end() ? 0.0 : it->second;
}

SyntheticPlan SmallPlan() {
  SyntheticPlan plan;
  plan.spec = dnn::NasNetMobileSpec();
  plan.initial_world = 12;
  plan.batch_per_worker = 32;
  plan.steps_per_epoch = 4;
  plan.epochs = 2;
  plan.max_physical_floats = 1024;
  return plan;
}

// ---------------------------------------------------------------------
// ResilientComm
// ---------------------------------------------------------------------

TEST(ResilientComm, AllreduceRecoversWithSurvivorContributions) {
  sim::Cluster cluster;
  std::atomic<int> ok_ranks{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    if (rc.rank() == 2) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    // Each rank contributes rank+1; after rank 2 dies the retry must
    // deliver exactly the survivors' sum: 1 + 2 + 4.
    std::vector<float> in(256, static_cast<float>(rc.rank() + 1));
    std::vector<float> out(256);
    Status st = rc.Allreduce(in.data(), out.data(), in.size());
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (float v : out) ASSERT_EQ(v, 7.0f);
    EXPECT_EQ(rc.size(), 3);
    EXPECT_EQ(rc.repairs(), 1);
    ok_ranks++;
  });
  cluster.Join();
  EXPECT_EQ(ok_ranks.load(), 3);
}

TEST(ResilientComm, NodePolicyDropsWholeNode) {
  sim::SimConfig cfg;
  cfg.gpus_per_node = 2;  // 4 workers on 2 nodes
  sim::Cluster cluster(cfg);
  std::atomic<int> survivors{0}, leavers{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kNode, nullptr);
    if (rc.rank() == 0) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    std::vector<float> in(64, 1.0f), out(64);
    Status st = rc.Allreduce(in.data(), out.data(), in.size());
    if (st.code() == Code::kAborted) {
      leavers++;  // rank 1 shares node 0 with the victim
      return;
    }
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(rc.size(), 2);
    for (float v : out) ASSERT_EQ(v, 2.0f);
    survivors++;
  });
  cluster.Join();
  EXPECT_EQ(survivors.load(), 2);
  EXPECT_EQ(leavers.load(), 1);
}

TEST(ResilientComm, SurvivesTwoSequentialFailures) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2, 3, 4};
  cluster.Spawn(5, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    std::vector<float> in(128, 1.0f), out(128);
    if (rc.rank() == 1) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    ASSERT_TRUE(rc.Allreduce(in.data(), out.data(), in.size()).ok());
    EXPECT_EQ(out[0], 4.0f);
    if (rc.rank() == 3) {  // old rank 4
      ep.fabric().Kill(ep.pid());
      return;
    }
    ASSERT_TRUE(rc.Allreduce(in.data(), out.data(), in.size()).ok());
    EXPECT_EQ(out[0], 3.0f);
    EXPECT_EQ(rc.repairs(), 2);
    done++;
  });
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

TEST(ResilientComm, BcastBlobSurvivesFailure) {
  sim::Cluster cluster;
  std::atomic<int> got{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    if (rc.rank() == 3) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    std::vector<uint8_t> blob;
    Status st = rc.BcastBlob(
        &blob, [] { return std::vector<uint8_t>(2000, 0x42); }, 1.0);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(blob.size(), 2000u);
    EXPECT_EQ(blob[1999], 0x42);
    got++;
  });
  cluster.Join();
  EXPECT_EQ(got.load(), 3);
}

TEST(ResilientComm, BcastBlobRootDeathHandsOverToNewRoot) {
  // Rank 0 dies before posting the broadcast: the repaired attempt's
  // rank 0 (old rank 1) produces the blob, and every survivor receives
  // its bytes instead of an empty blob.
  sim::Cluster cluster;
  std::atomic<int> got{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    if (rc.rank() == 0) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    int produced = 0;
    std::vector<uint8_t> blob;
    Status st = rc.BcastBlob(
        &blob,
        [&] {
          ++produced;
          return std::vector<uint8_t>(
              1000, static_cast<uint8_t>(0x10 + ep.pid()));
        },
        1.0);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(blob.size(), 1000u);
    EXPECT_EQ(blob[999], 0x11);  // pid 1's blob
    EXPECT_EQ(produced, ep.pid() == 1 ? 1 : 0);
    EXPECT_EQ(rc.size(), 3);
    got++;
  });
  cluster.Join();
  EXPECT_EQ(got.load(), 3);
}

TEST(ResilientComm, ExpandThenAllreduceIncludesJoiners) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    ASSERT_TRUE(rc.Expand("grow", 2).ok());
    EXPECT_EQ(rc.size(), 5);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 5.0f);
    done++;
  });
  for (int j = 0; j < 2; ++j) {
    cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
      auto rc = ResilientComm::JoinExisting(ep, "grow", 2,
                                            DropPolicy::kProcess, nullptr);
      ASSERT_NE(rc, nullptr);
      float mine = 1.0f, sum = 0.0f;
      ASSERT_TRUE(rc->Allreduce(&mine, &sum, 1).ok());
      EXPECT_EQ(sum, 5.0f);
      done++;
    }, 0.0);
  }
  cluster.Join();
  EXPECT_EQ(done.load(), 5);
}

// A joiner that dies after registering arrival (mid-join) must not
// deadlock the expand: it still counts toward expected_joiners, lands
// in the merged membership, and the first resilient op repairs it away.
TEST(ResilientComm, JoinerDyingMidJoinIsRepairedAway) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::atomic<int> join_failed{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    ASSERT_TRUE(rc.Expand("growdie", 2).ok());
    EXPECT_EQ(rc.size(), 5);  // dead joiner still in the merged membership
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 4.0f);  // repaired: 4 live contributors
    EXPECT_EQ(rc.size(), 4);
    done++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto rc = ResilientComm::JoinExisting(ep, "growdie", 2,
                                          DropPolicy::kProcess, nullptr);
    ASSERT_NE(rc, nullptr);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc->Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 4.0f);
    done++;
  }, 0.0);
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    // Matures instantly: the joiner registers arrival, then dies in the
    // expand wait loop. Its JoinExisting must fail cleanly.
    ep.ArmKillAt(0.0);
    auto rc = ResilientComm::JoinExisting(ep, "growdie", 2,
                                          DropPolicy::kProcess, nullptr);
    EXPECT_EQ(rc, nullptr);
    join_failed++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(join_failed.load(), 1);
}

// A survivor that dies entering the expand (while the joiner is still
// connecting) is skipped by the completeness check: the rendezvous
// finishes with the remaining survivors plus the joiner.
TEST(ResilientComm, SurvivorDyingDuringJoinIsExcluded) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    if (ep.pid() == 2) {
      ep.ArmKillAt(ep.now());  // dies at the expand entry check
      Status st = rc.Expand("growloss", 1);
      EXPECT_EQ(st.code(), Code::kAborted);
      return;
    }
    ASSERT_TRUE(rc.Expand("growloss", 1).ok());
    EXPECT_EQ(rc.size(), 3);  // 2 survivors + 1 joiner
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto rc = ResilientComm::JoinExisting(ep, "growloss", 1,
                                          DropPolicy::kProcess, nullptr);
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->size(), 3);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc->Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

// A blocking allreduce is a window of one: it posts its element count
// and declared bytes (4 * N * cost_scale) like a windowed op, completes
// with a kOp, and samples no window depth.
TEST(ResilientComm, BlockingAllreducePostsCountAndDeclaredBytes) {
  constexpr size_t kCount = 100;
  constexpr double kScale = 2.5;
  sim::Cluster cluster;
  std::vector<int> pids{0, 1};
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    std::vector<float> in(kCount, 1.0f), out(kCount);
    ASSERT_TRUE(rc.Allreduce(in.data(), out.data(), kCount, kScale).ok());
  });
  cluster.Join();
  for (const obs::flight::Ring* ring : cluster.fabric().logs().rings()) {
    int posts = 0, ops = 0, counters = 0;
    for (const obs::flight::Event& e : ring->Snapshot()) {
      if (e.kind == obs::flight::Ev::kCollPost) {
        ++posts;
        EXPECT_EQ(e.b, static_cast<int64_t>(kCount));
        EXPECT_DOUBLE_EQ(e.c, 4.0 * kCount * kScale);
      }
      if (e.kind == obs::flight::Ev::kOp) ++ops;
      if (e.kind == obs::flight::Ev::kCounter) ++counters;
    }
    EXPECT_EQ(posts, 1);
    EXPECT_EQ(ops, 1);
    EXPECT_EQ(counters, 0);
  }
}

// A kill inside a windowed WaitAll's closing barrier can leave some
// survivors past the barrier and already inside the next BcastBlob while
// the others detect the failure in the barrier. The window's recovery
// and the broadcast's must then pair their repairs and agreements. The
// victim's kill time sweeps its whole WaitAll; every time must leave the
// survivors with OK from both calls, identical results and equal repair
// counts, and at least one time must straddle the two calls.
TEST(ResilientComm, KillInClosingBarrierPairsWithNextBroadcast) {
  constexpr int kWorld = 4;
  constexpr int kVictim = 2;
  constexpr size_t kCount = 64;
  struct RankOutcome {
    Status wait_all, bcast;
    int repairs_after_wait = -1, repairs = -1;
    std::vector<float> reduced;
    std::vector<uint8_t> blob;
  };
  double wait_begin = 0.0, wait_end = 0.0;  // the victim's, clean run
  auto run = [&](double kill_at) {
    std::vector<RankOutcome> out(kWorld);
    std::vector<int> pids{0, 1, 2, 3};
    sim::Cluster cluster;
    cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
      if (ep.pid() == kVictim) ep.ArmKillAt(kill_at);
      ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
      rc.set_max_inflight(2);
      RankOutcome& me = out[ep.pid()];
      const std::vector<float> in(3 * kCount,
                                  static_cast<float>(ep.pid() + 1));
      me.reduced.assign(in.size(), 0.0f);
      for (size_t op = 0; op < 3; ++op) {
        if (!rc.IAllreduce(in.data() + op * kCount,
                           me.reduced.data() + op * kCount, kCount)
                 .ok()) {
          break;
        }
      }
      if (ep.pid() == kVictim) wait_begin = ep.now();
      me.wait_all = rc.WaitAll();
      if (ep.pid() == kVictim) wait_end = ep.now();
      me.repairs_after_wait = rc.repairs();
      if (!me.wait_all.ok()) return;
      me.bcast = rc.BcastBlob(
          &me.blob,
          [&] {
            return std::vector<uint8_t>(
                1000, static_cast<uint8_t>(0x10 + ep.pid()));
          },
          1.0);
      me.repairs = rc.repairs();
    });
    cluster.Join();
    return out;
  };
  run(std::numeric_limits<double>::infinity());
  ASSERT_GT(wait_end, wait_begin);
  const double begin = wait_begin, end = wait_end;
  int straddles = 0;
  constexpr int kSteps = 48;
  for (int i = 0; i <= kSteps; ++i) {
    const double kill_at = begin + (end - begin) * i / kSteps;
    const std::vector<RankOutcome> out = run(kill_at);
    const RankOutcome* first = nullptr;
    bool in_barrier = false, past_barrier = false;
    for (int pid = 0; pid < kWorld; ++pid) {
      if (pid == kVictim) continue;
      const RankOutcome& o = out[pid];
      ASSERT_TRUE(o.wait_all.ok()) << "kill at " << kill_at << " pid "
                                   << pid << ": " << o.wait_all.ToString();
      ASSERT_TRUE(o.bcast.ok()) << "kill at " << kill_at << " pid " << pid
                                << ": " << o.bcast.ToString();
      ASSERT_EQ(o.blob.size(), 1000u);
      if (first == nullptr) {
        first = &o;
      } else {
        EXPECT_EQ(o.blob, first->blob) << "kill at " << kill_at;
        EXPECT_EQ(o.reduced, first->reduced) << "kill at " << kill_at;
        EXPECT_EQ(o.repairs, first->repairs) << "kill at " << kill_at;
      }
      (o.repairs_after_wait > 0 ? in_barrier : past_barrier) = true;
    }
    if (in_barrier && past_barrier) ++straddles;
  }
  EXPECT_GE(straddles, 1);
}

// A rank that dies inside a repair's GPU rebuild leaves the window with
// failed requests and no GPU communicator. The bounded IAllreduce that
// ran the repair returns kAborted, and the WaitAll a caller issues after
// it must return kAborted too, not wait those requests on a communicator
// that is gone. The second victim's kill time sweeps the first repair's
// rebuild phase; the survivors must finish with the sum of their own
// contributions.
TEST(ResilientComm, KillInRepairRebuildAbortsTheWindow) {
  constexpr int kWorld = 4;
  constexpr int kFirstVictim = 3;
  constexpr int kVictim = 2;
  constexpr size_t kCount = 64;
  struct RankOutcome {
    Status submit, wait_all;
    std::vector<float> reduced;
  };
  double rebuild_begin = 0.0, rebuild_end = 0.0;  // the victim's, no kill
  auto run = [&](double kill_at) {
    std::vector<RankOutcome> out(kWorld);
    std::vector<int> pids{0, 1, 2, 3};
    sim::Cluster cluster;
    cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
      ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
      if (ep.pid() == kFirstVictim) {
        ep.fabric().Kill(ep.pid());
        return;
      }
      if (ep.pid() == kVictim) ep.ArmKillAt(kill_at);
      rc.set_max_inflight(2);
      RankOutcome& me = out[ep.pid()];
      const std::vector<float> in(3 * kCount,
                                  static_cast<float>(ep.pid() + 1));
      me.reduced.assign(in.size(), 0.0f);
      for (size_t op = 0; op < 3 && me.submit.ok(); ++op) {
        me.submit = rc.IAllreduce(in.data() + op * kCount,
                                  me.reduced.data() + op * kCount, kCount);
      }
      me.wait_all = rc.WaitAll();
    });
    cluster.Join();
    for (const obs::flight::Event& e :
         cluster.fabric().logs().For(kVictim)->Snapshot()) {
      if (e.kind == obs::flight::Ev::kRecoveryPhase && e.b == 1 &&
          e.a == static_cast<int64_t>(obs::flight::Phase::kRebuild)) {
        rebuild_begin = e.t - e.c;
        rebuild_end = e.t;
      }
    }
    return out;
  };
  run(std::numeric_limits<double>::infinity());
  ASSERT_GT(rebuild_end, rebuild_begin);
  const double begin = rebuild_begin, end = rebuild_end;
  constexpr int kSteps = 16;
  for (int i = 0; i < kSteps; ++i) {
    const double kill_at = begin + (end - begin) * i / kSteps;
    const std::vector<RankOutcome> out = run(kill_at);
    const RankOutcome& victim = out[kVictim];
    EXPECT_EQ(victim.submit.code(), Code::kAborted)
        << "kill at " << kill_at << ": " << victim.submit.ToString();
    EXPECT_EQ(victim.wait_all.code(), Code::kAborted)
        << "kill at " << kill_at << ": " << victim.wait_all.ToString();
    for (int pid : {0, 1}) {
      const RankOutcome& o = out[pid];
      ASSERT_TRUE(o.submit.ok()) << "kill at " << kill_at << " pid " << pid
                                 << ": " << o.submit.ToString();
      ASSERT_TRUE(o.wait_all.ok()) << "kill at " << kill_at << " pid "
                                   << pid << ": " << o.wait_all.ToString();
      for (float v : o.reduced) ASSERT_EQ(v, 3.0f) << "kill at " << kill_at;
    }
  }
}

// ---------------------------------------------------------------------
// Synthetic ULFM elastic runner (the figure benches' engine)
// ---------------------------------------------------------------------

TEST(UlfmElastic, CleanRunCompletes) {
  sim::Cluster cluster;
  trace::Recorder rec;
  auto stats = RunUlfmElastic(cluster, SmallPlan(), &rec);
  EXPECT_EQ(stats.resets, 0);
  EXPECT_EQ(stats.final_world, 12);
  EXPECT_GT(stats.completion_time, 0.0);
}

TEST(UlfmElastic, ForwardRecoveryRepairsInPlace) {
  sim::Cluster cluster;
  trace::Recorder rec;
  SyntheticPlan plan = SmallPlan();
  plan.drop_policy = DropPolicy::kProcess;
  plan.failures.push_back({1, 1, 0, 3, sim::FailScope::kProcess});
  auto stats = RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(stats.final_world, 11);
  EXPECT_GE(stats.resets, 1);
  // ULFM path phases present...
  EXPECT_GT(Phase(rec, "recovery/ulfm_repair"), 0.0);
  EXPECT_GT(Phase(rec, "recovery/nccl_reinit"), 0.0);
  EXPECT_GT(Phase(rec, "recovery/retry_collective"), 0.0);
  // ...and none of the Elastic-Horovod restart machinery.
  EXPECT_EQ(Phase(rec, "recovery/rendezvous_global"), 0.0);
  EXPECT_EQ(Phase(rec, "recovery/gloo_reinit"), 0.0);
  EXPECT_EQ(Phase(rec, "recovery/recompute"), 0.0);
}

// Each simulation counts its own failures. Two sequential runs, each
// with one scripted failure of the same pid at a different step, each
// record one failure in their own registry, and each MTBF gauge holds
// that run's time to its first failure (failure state and metrics are
// per simulation, not per process).
TEST(UlfmElastic, SequentialRunsEachCountTheirFailure) {
  struct RunMetrics {
    double first_detection = std::numeric_limits<double>::infinity();
    double failures = 0.0;
    double mtbf = 0.0;
  };
  // Runs the plan with rank 3 failing at `step`.
  auto run = [](int step) {
    SyntheticPlan plan = SmallPlan();
    plan.drop_policy = DropPolicy::kProcess;
    plan.failures.push_back({1, step, 0, 3, sim::FailScope::kProcess});
    sim::Cluster cluster;
    EXPECT_EQ(RunUlfmElastic(cluster, plan, nullptr).final_world, 11);
    RunMetrics m;
    for (const obs::flight::Ring* ring : cluster.fabric().logs().rings()) {
      for (const obs::flight::Event& e : ring->Snapshot()) {
        if (e.kind == obs::flight::Ev::kFailureDetected) {
          m.first_detection = std::min(m.first_detection, e.t);
        }
      }
    }
    const obs::Registry& reg = cluster.fabric().metrics();
    m.failures = reg.CounterValue("rcc_failures_observed_total");
    m.mtbf = reg.GaugeValue("rcc_mtbf_seconds");
    return m;
  };
  const RunMetrics r1 = run(1);
  const RunMetrics r2 = run(2);
  ASSERT_GT(r2.first_detection, r1.first_detection);
  EXPECT_DOUBLE_EQ(r1.failures, 1.0);
  EXPECT_DOUBLE_EQ(r2.failures, 1.0);
  EXPECT_DOUBLE_EQ(r1.mtbf, r1.first_detection);
  EXPECT_DOUBLE_EQ(r2.mtbf, r2.first_detection);
}

TEST(UlfmElastic, NodePolicyShrinksBySix) {
  sim::Cluster cluster;
  trace::Recorder rec;
  SyntheticPlan plan = SmallPlan();
  plan.drop_policy = DropPolicy::kNode;
  plan.failures.push_back({1, 1, 0, 3, sim::FailScope::kProcess});
  auto stats = RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(stats.final_world, 6);
}

TEST(UlfmElastic, ReplacementMergesAtEpochBoundary) {
  sim::Cluster cluster;
  trace::Recorder rec;
  SyntheticPlan plan = SmallPlan();
  plan.drop_policy = DropPolicy::kNode;
  plan.failures.push_back({0, 2, 0, 2, sim::FailScope::kNode});
  plan.joins.push_back({/*epoch=*/1, /*count=*/6, /*cold=*/false});
  auto stats = RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(stats.final_world, 12);
  EXPECT_GT(Phase(rec, "recovery/ulfm_expand"), 0.0);
  EXPECT_GT(Phase(rec, "recovery/state_sync"), 0.0);
}

TEST(UlfmElastic, UpscaleDoublesWorldSize) {
  sim::Cluster cluster;
  trace::Recorder rec;
  SyntheticPlan plan = SmallPlan();
  plan.joins.push_back({/*epoch=*/1, /*count=*/12, /*cold=*/true});
  auto stats = RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(stats.final_world, 24);
}

TEST(UlfmElastic, RecoveryIsCheaperThanElasticHorovod) {
  // The paper's headline claim at small scale: same plan, same failure,
  // ULFM's reconfiguration overhead is a fraction of the baseline's.
  SyntheticPlan plan = SmallPlan();
  auto overhead = [&](auto&& runner) {
    SyntheticPlan clean = plan;
    sim::Cluster c1;
    trace::Recorder r1;
    const double t_clean = runner(c1, clean, &r1).completion_time;
    SyntheticPlan faulty = plan;
    faulty.drop_policy = DropPolicy::kNode;
    faulty.failures.push_back({1, 1, 0, 3, sim::FailScope::kNode});
    sim::Cluster c2;
    trace::Recorder r2;
    const double t_faulty = runner(c2, faulty, &r2).completion_time;
    return t_faulty - t_clean;
  };
  const double ulfm = overhead(RunUlfmElastic);
  const double eh = overhead(horovod::RunElasticHorovod);
  EXPECT_GT(eh, 2.0 * ulfm) << "eh=" << eh << " ulfm=" << ulfm;
}

// ---------------------------------------------------------------------
// Real-model elastic trainer
// ---------------------------------------------------------------------

struct WorkerRig {
  dnn::Model model;
  std::unique_ptr<dnn::Sgd> opt;
  std::unique_ptr<DnnWorkload> work;
  WorkerRig(sim::Endpoint& ep, const TrainerOptions& opts,
            const dnn::ClusterDataset* data)
      : model(dnn::BuildMlp(8, {16}, 3, /*seed=*/99)) {
    opt = std::make_unique<dnn::Sgd>(model.Params(), opts.sgd);
    work = std::make_unique<DnnWorkload>(ep, &model, opt.get(), data,
                                         opts.batch_per_worker,
                                         opts.grad_buckets);
  }
};

TEST(ElasticTrainer, SpmdRanksStayBitwiseIdentical) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 6;
  std::vector<bool> flags;
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.steps_run, 12);
    EXPECT_LT(r.last_loss, r.first_loss);
    ASSERT_EQ(r.final_params.size(), reports[0].final_params.size());
    for (size_t i = 0; i < r.final_params.size(); ++i) {
      ASSERT_EQ(r.final_params[i], reports[0].final_params[i]) << i;
    }
  }
}

TEST(ElasticTrainer, ForwardRecoveryNeverReExecutesSteps) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 6;
  opts.failures.push_back({/*epoch=*/0, /*step=*/3, 0, /*victim_rank=*/2,
                           sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  int survivors = 0;
  const TrainerReport* reference = nullptr;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    ++survivors;
    // Forward recovery: the survivor executed every planned step exactly
    // once - no rollback, no recompute (the paper's Fig. 2 contrast).
    EXPECT_EQ(r.steps_run, 12);
    EXPECT_EQ(r.final_world, 3);
    EXPECT_EQ(r.repairs, 1);
    EXPECT_LT(r.last_loss, r.first_loss);
    if (reference == nullptr) {
      reference = &r;
    } else {
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], reference->final_params[i]);
      }
    }
  }
  EXPECT_EQ(survivors, 3);
}

TEST(ElasticTrainer, NodePolicyEvictsVictimsPeers) {
  sim::SimConfig cfg;
  cfg.gpus_per_node = 2;
  sim::Cluster cluster(cfg);
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 1;
  opts.steps_per_epoch = 6;
  opts.drop_policy = horovod::DropPolicy::kNode;
  opts.failures.push_back({0, 2, 0, 1, sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  std::atomic<int> survivors{0}, aborted{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    if (report.aborted) {
      aborted++;
    } else {
      EXPECT_EQ(report.final_world, 2);
      survivors++;
    }
  });
  cluster.Join();
  EXPECT_EQ(survivors.load(), 2);
  EXPECT_EQ(aborted.load(), 2);  // the victim and its node peer
}

// A graceful leave is not a node failure: under the node-drop policy
// the leaver's node-mate keeps training, and only the leaver is shrunk
// out.
TEST(ElasticTrainer, GracefulLeaveKeepsNodeMatesUnderNodePolicy) {
  sim::SimConfig cfg;
  cfg.gpus_per_node = 2;
  sim::Cluster cluster(cfg);
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 4;
  opts.drop_policy = horovod::DropPolicy::kNode;
  std::vector<bool> flags;
  const int leaver = 3;  // shares node 1 with pid 2
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    if (ep.pid() == leaver) {
      TrainerOptions mine = opts;
      mine.epochs = 1;
      ElasticTrainer trainer(&rc, rig.work.get(), mine, &flags);
      EXPECT_FALSE(trainer.Run().aborted);
      ulfm::LeaveGracefully(ep, rc.host());
      EXPECT_TRUE(ep.fabric().Left(ep.pid()));
      return;
    }
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    reports.push_back(trainer.Run());
  });
  cluster.Join();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.steps_run, opts.epochs * opts.steps_per_epoch);
    EXPECT_EQ(r.final_world, 3);
    EXPECT_EQ(r.repairs, 1);
  }
}

TEST(ElasticTrainer, JoinerReceivesStateAndConverges) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 5;
  opts.joins[1] = 1;  // one joiner merges at epoch 1
  std::vector<bool> flags;
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    TrainerState state(rig.work.get(), opts.steps_per_epoch);
    StepBoundary::Admission adm = StepBoundary::Join(
        ep, &state, opts.store, ElasticTrainer::JoinSession(1),
        /*joiners=*/1, /*async=*/false, opts.drop_policy, nullptr);
    ASSERT_NE(adm.rc, nullptr);
    ASSERT_TRUE(adm.synced.ok());
    EXPECT_EQ(state.cursor.epoch, 1);
    ElasticTrainer trainer(adm.rc.get(), rig.work.get(), opts, &flags);
    auto report =
        trainer.Run(state.cursor, /*joined_at_epoch=*/state.cursor.epoch);
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  }, 0.0);
  cluster.Join();
  ASSERT_EQ(reports.size(), 4u);
  const TrainerReport* reference = nullptr;
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.final_world, 4);
    if (reference == nullptr) {
      reference = &r;
    } else {
      ASSERT_EQ(r.final_params.size(), reference->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], reference->final_params[i]);
      }
    }
  }
}

TEST(ElasticTrainer, LinearLrScalingTracksWorkerCount) {
  // With the linear-scaling rule on, a 2-worker run takes parameter
  // steps twice the size of a 1-worker run for identical gradients; we
  // check the weaker observable property: training still converges and
  // replicas stay identical after a shrink with the schedule active.
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 6;
  opts.linear_lr_scaling = true;
  opts.lr_warmup_steps = 4;
  opts.failures.push_back({0, 3, 0, 1, sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  const TrainerReport* ref = nullptr;
  int survivors = 0;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    ++survivors;
    EXPECT_LT(r.last_loss, r.first_loss);
    if (ref == nullptr) {
      ref = &r;
    } else {
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], ref->final_params[i]);
      }
    }
  }
  EXPECT_EQ(survivors, 3);
}

// Regression for the resume-epoch silent drop: a run restored from a
// checkpoint that lands exactly on a scheduled join epoch must still
// expand. The old guard compared against the resume epoch and skipped
// the boundary, stranding the joiner in the rendezvous forever.
TEST(ElasticTrainer, ResumeIntoJoinEpochStillExpands) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 5;
  opts.joins[1] = 1;
  std::vector<bool> flags;
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    // Plain resume (joined_at_epoch = -1) landing on the join epoch.
    checkpoint::TrainingCursor resume;
    resume.epoch = 1;
    resume.global_step = opts.steps_per_epoch;
    auto report = trainer.Run(resume);
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    auto rc = ResilientComm::JoinExisting(ep, "trainer-epoch1", 1,
                                          opts.drop_policy, nullptr);
    ASSERT_NE(rc, nullptr);
    TrainerState state(rig.work.get(), opts.steps_per_epoch);
    ASSERT_TRUE(state
                    .SyncGrown(rc.get(), ReplicatedState::Sync::kFull,
                               /*receiver=*/true)
                    .ok());
    const checkpoint::TrainingCursor cursor = state.cursor;
    ElasticTrainer trainer(rc.get(), rig.work.get(), opts, &flags);
    auto report = trainer.Run(cursor, /*joined_at_epoch=*/cursor.epoch);
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  }, 0.0);
  cluster.Join();
  ASSERT_EQ(reports.size(), 4u);
  const TrainerReport* reference = nullptr;
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.final_world, 4);
    if (reference == nullptr) {
      reference = &r;
    } else {
      ASSERT_EQ(r.final_params.size(), reference->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], reference->final_params[i]);
      }
    }
  }
}

// Async admission through the real-model trainer: the joiner stages the
// published snapshot through the kvstore, splices at a step boundary,
// catches up via the delta sync, and ends bitwise-identical to the
// founders.
// The adaptive policy reads its modeled inputs (failures observed,
// measured rebuild time) from its own simulation's registry. Two
// identical 3-rank adaptive runs, back to back in one process with no
// reset between them, each with one scripted kill, must produce the
// same decision log: the second run must not see the first run's
// failure or recovery phases.
TEST(ElasticTrainer, BackToBackAdaptiveRunsDecideIdentically) {
  auto run = [] {
    constexpr int kWorld = 3;
    sim::Cluster cluster;
    dnn::ClusterDataset data(8, 3, 512, 7);
    TrainerOptions opts;
    opts.epochs = 2;
    opts.steps_per_epoch = 3;
    opts.policy_mode = policy::Mode::kAdaptive;
    opts.failures.push_back({0, 1, 0, 1, sim::FailScope::kProcess});
    std::vector<bool> flags(1);
    std::vector<int> pids{0, 1, 2};
    std::vector<std::pair<int, TrainerReport>> reports;
    cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
      dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
      dnn::Sgd opt(model.Params(), opts.sgd);
      DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                       opts.grad_buckets);
      ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
      ElasticTrainer trainer(&rc, &work, opts, &flags);
      reports.emplace_back(ep.pid(), trainer.Run());
    });
    cluster.Join();
    // The lowest surviving pid's decision log.
    std::sort(reports.begin(), reports.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [pid, report] : reports) {
      if (!report.aborted) return report.decisions;
    }
    return std::vector<policy::Decision>{};
  };
  const std::vector<policy::Decision> first = run();
  const std::vector<policy::Decision> second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_DOUBLE_EQ(first.front().in.failures_observed, 1.0);
  EXPECT_GT(first.front().in.rebuild_seconds, 0.0);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("decision " + std::to_string(i));
    EXPECT_EQ(second[i].in.failures_observed, first[i].in.failures_observed);
    EXPECT_EQ(second[i].in.rebuild_seconds, first[i].in.rebuild_seconds);
    EXPECT_EQ(policy::EncodeInputs(second[i].in),
              policy::EncodeInputs(first[i].in));
    EXPECT_EQ(second[i].chosen, first[i].chosen);
    for (int s = 0; s < policy::kStrategyCount; ++s) {
      EXPECT_EQ(second[i].cost[s], first[i].cost[s]);
    }
  }
}

TEST(ElasticTrainer, AsyncAdmissionJoinerConvergesIdentically) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  kv::Store store;
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 5;
  opts.joins[1] = 1;
  opts.async_admission = true;
  opts.store = &store;
  std::vector<bool> flags;
  std::mutex mu;
  std::vector<TrainerReport> reports;
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, rig.work.get(), opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    WorkerRig rig(ep, opts, &data);
    // Announce, stage the published snapshot, park for the splice, then
    // catch up through the delta sync.
    TrainerState state(rig.work.get(), opts.steps_per_epoch);
    StepBoundary::Admission adm = StepBoundary::Join(
        ep, &state, opts.store, ElasticTrainer::JoinSession(1),
        /*joiners=*/1, /*async=*/true, opts.drop_policy, nullptr);
    ASSERT_NE(adm.rc, nullptr);
    ASSERT_TRUE(adm.synced.ok());
    ElasticTrainer trainer(adm.rc.get(), rig.work.get(), opts, &flags);
    auto report =
        trainer.Run(state.cursor, /*joined_at_epoch=*/state.cursor.epoch);
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  }, 0.0);
  cluster.Join();
  ASSERT_EQ(reports.size(), 4u);
  const TrainerReport* reference = nullptr;
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.final_world, 4);
    if (reference == nullptr) {
      reference = &r;
    } else {
      ASSERT_EQ(r.final_params.size(), reference->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], reference->final_params[i]);
      }
    }
  }
}

// Async admission through the synthetic runner: joiners stage while the
// survivors train, and the async recovery phases replace the blocking
// expand's full state_sync stall.
TEST(UlfmElastic, AsyncAdmissionSplicesJoiners) {
  sim::Cluster cluster;
  trace::Recorder rec;
  SyntheticPlan plan = SmallPlan();
  plan.async_admission = true;
  plan.joins.push_back({/*epoch=*/1, /*count=*/6, /*cold=*/true});
  auto stats = RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(stats.final_world, 18);
  EXPECT_GT(Phase(rec, "recovery/state_stage"), 0.0);
  EXPECT_GT(Phase(rec, "recovery/expand_splice"), 0.0);
  EXPECT_GT(Phase(rec, "recovery/delta_sync"), 0.0);
  // The blocking path's full-snapshot broadcast stall never happens.
  EXPECT_EQ(Phase(rec, "recovery/state_sync"), 0.0);
}

}  // namespace
}  // namespace rcc::core
