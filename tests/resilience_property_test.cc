// Property tests on the forward-recovery invariants, swept over failure
// positions, victims, drop policies and world sizes:
//
//   P1. Survivors execute every planned optimizer step exactly once
//       (forward recovery re-runs collectives, never steps).
//   P2. All surviving replicas hold bit-identical parameters.
//   P3. Exactly the expected number of workers leave.
//   P4. Loss still decreases across the failure.
//   P5. Joiners are indistinguishable from founders after state sync.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>

#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "ulfm/ulfm.h"

namespace rcc::core {
namespace {

struct Sweep {
  int world = 4;
  int epochs = 2;
  int steps = 4;
  int fail_epoch = 0;
  int fail_step = 0;
  int fail_bucket = 0;
  int victim = 1;
  int grad_buckets = 1;
  int inflight_window = 0;  // 0 = blocking per-bucket allreduce
  horovod::DropPolicy policy = horovod::DropPolicy::kProcess;
  int gpus_per_node = 6;
};

std::vector<TrainerReport> RunSweep(const Sweep& sweep) {
  sim::SimConfig cfg;
  cfg.gpus_per_node = sweep.gpus_per_node;
  sim::Cluster cluster(cfg);
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = sweep.epochs;
  opts.steps_per_epoch = sweep.steps;
  opts.drop_policy = sweep.policy;
  opts.grad_buckets = sweep.grad_buckets;
  opts.inflight_window = sweep.inflight_window;
  opts.failures.push_back({sweep.fail_epoch, sweep.fail_step,
                           sweep.fail_bucket, sweep.victim,
                           sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  std::vector<int> pids(sweep.world);
  std::iota(pids.begin(), pids.end(), 0);
  std::mutex mu;
  std::vector<TrainerReport> reports;
  cluster.Spawn(sweep.world, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, /*seed=*/99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  return reports;
}

void CheckInvariants(const std::vector<TrainerReport>& reports,
                     const Sweep& sweep, int expected_leavers) {
  int survivors = 0, leavers = 0;
  const TrainerReport* ref = nullptr;
  for (const auto& r : reports) {
    if (r.aborted) {
      ++leavers;
      continue;
    }
    ++survivors;
    // P1: no step re-execution.
    EXPECT_EQ(r.steps_run, sweep.epochs * sweep.steps);
    // P3 via world size.
    EXPECT_EQ(r.final_world, sweep.world - expected_leavers);
    EXPECT_EQ(r.repairs, 1);
    // P4.
    EXPECT_LT(r.last_loss, r.first_loss);
    // P2.
    if (ref == nullptr) {
      ref = &r;
    } else {
      ASSERT_EQ(r.final_params.size(), ref->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], ref->final_params[i]) << "param " << i;
      }
    }
  }
  EXPECT_EQ(leavers, expected_leavers);
  EXPECT_EQ(survivors, sweep.world - expected_leavers);
}

struct FailurePosition {
  int epoch;
  int step;
  int victim;
};

class FailurePositionSweep
    : public ::testing::TestWithParam<FailurePosition> {};

TEST_P(FailurePositionSweep, ProcessDropInvariantsHold) {
  Sweep sweep;
  sweep.fail_epoch = GetParam().epoch;
  sweep.fail_step = GetParam().step;
  sweep.victim = GetParam().victim;
  CheckInvariants(RunSweep(sweep), sweep, /*expected_leavers=*/1);
}

INSTANTIATE_TEST_SUITE_P(
    Positions, FailurePositionSweep,
    ::testing::Values(FailurePosition{0, 0, 1}, FailurePosition{0, 1, 0},
                      FailurePosition{0, 3, 3}, FailurePosition{1, 0, 2},
                      FailurePosition{1, 2, 1}, FailurePosition{1, 3, 0},
                      FailurePosition{0, 2, 2}),
    [](const ::testing::TestParamInfo<FailurePosition>& info) {
      return "e" + std::to_string(info.param.epoch) + "_s" +
             std::to_string(info.param.step) + "_v" +
             std::to_string(info.param.victim);
    });

class WorldSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorldSweep, MidTrainingFailureInvariantsHold) {
  Sweep sweep;
  sweep.world = GetParam();
  sweep.fail_epoch = 1;
  sweep.fail_step = 1;
  sweep.victim = GetParam() / 2;
  CheckInvariants(RunSweep(sweep), sweep, /*expected_leavers=*/1);
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldSweep,
                         ::testing::Values(2, 3, 5, 6, 8, 12));

// Windowed recovery: the victim dies with K > 1 bucket allreduces in
// flight; survivors must drain the window, agree on the earliest
// incomplete op, replay from there on the shrunk communicator, and keep
// every invariant (P1-P4) of the blocking protocol.
struct InflightFailure {
  int fail_bucket;
  int window;
};

class InflightFailureSweep
    : public ::testing::TestWithParam<InflightFailure> {};

TEST_P(InflightFailureSweep, WindowedRecoveryInvariantsHold) {
  Sweep sweep;
  sweep.grad_buckets = 4;
  sweep.inflight_window = GetParam().window;
  sweep.fail_epoch = 0;
  sweep.fail_step = 1;
  sweep.fail_bucket = GetParam().fail_bucket;
  sweep.victim = 2;
  CheckInvariants(RunSweep(sweep), sweep, /*expected_leavers=*/1);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, InflightFailureSweep,
    ::testing::Values(InflightFailure{1, 2}, InflightFailure{2, 2},
                      InflightFailure{3, 2}, InflightFailure{1, 4},
                      InflightFailure{3, 4}, InflightFailure{2, 8},
                      InflightFailure{0, 4}),
    [](const ::testing::TestParamInfo<InflightFailure>& info) {
      return "b" + std::to_string(info.param.fail_bucket) + "_w" +
             std::to_string(info.param.window);
    });

TEST(InflightFailure, PipelinedCleanRunMatchesBlocking) {
  // Without failures the windowed path must produce the same parameters
  // as the blocking path: same buckets, same kernels, same averaging.
  Sweep blocking;
  blocking.grad_buckets = 4;
  blocking.fail_epoch = -1;  // never fires
  Sweep windowed = blocking;
  windowed.inflight_window = 4;
  auto a = RunSweep(blocking);
  auto b = RunSweep(windowed);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& r : b) {
    EXPECT_FALSE(r.aborted);
    ASSERT_EQ(r.final_params.size(), a[0].final_params.size());
    for (size_t i = 0; i < r.final_params.size(); ++i) {
      ASSERT_EQ(r.final_params[i], a[0].final_params[i]) << "param " << i;
    }
  }
}

TEST(NodePolicySweep, VictimsNodePeersLeaveWithIt) {
  for (int victim : {0, 1, 2, 3}) {
    Sweep sweep;
    sweep.policy = horovod::DropPolicy::kNode;
    sweep.gpus_per_node = 2;  // 4 workers on 2 nodes
    sweep.fail_epoch = 0;
    sweep.fail_step = 2;
    sweep.victim = victim;
    CheckInvariants(RunSweep(sweep), sweep, /*expected_leavers=*/2);
  }
}

TEST(MultiFailure, TwoSequentialFailuresStillConsistent) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 3;
  opts.steps_per_epoch = 3;
  opts.failures.push_back({0, 1, 0, /*victim_rank=*/4,
                           sim::FailScope::kProcess});
  opts.failures.push_back({1, 1, 0, /*victim_rank=*/1,
                           sim::FailScope::kProcess});
  std::vector<bool> flags(2);
  std::vector<int> pids{0, 1, 2, 3, 4, 5};
  std::mutex mu;
  std::vector<TrainerReport> reports;
  cluster.Spawn(6, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  int survivors = 0;
  const TrainerReport* ref = nullptr;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    ++survivors;
    EXPECT_EQ(r.steps_run, 9);
    EXPECT_EQ(r.final_world, 4);
    EXPECT_EQ(r.repairs, 2);
    if (ref == nullptr) {
      ref = &r;
    } else {
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], ref->final_params[i]);
      }
    }
  }
  EXPECT_EQ(survivors, 4);
}

TEST(JoinerParity, JoinerEndsBitIdenticalToFounders) {
  // P5: two joiners at different epochs; every finisher identical.
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 3;
  opts.steps_per_epoch = 3;
  opts.joins[1] = 1;
  opts.joins[2] = 1;
  std::vector<bool> flags;
  std::vector<int> pids{0, 1};
  std::mutex mu;
  std::vector<TrainerReport> reports;
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  for (int join_epoch : {1, 2}) {
    cluster.SpawnOnFreshNodes(1, [&, join_epoch](sim::Endpoint& ep) {
      dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
      dnn::Sgd opt(model.Params(), opts.sgd);
      DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                       opts.grad_buckets);
      auto rc = ResilientComm::JoinExisting(
          ep, "trainer-epoch" + std::to_string(join_epoch), 1,
          opts.drop_policy, nullptr);
      ASSERT_NE(rc, nullptr);
      TrainerState state(&work, opts.steps_per_epoch);
      ASSERT_TRUE(
          state.SyncGrown(rc.get(), ReplicatedState::Sync::kFull, true).ok());
      const checkpoint::TrainingCursor cursor = state.cursor;
      EXPECT_EQ(cursor.epoch, join_epoch);
      ElasticTrainer trainer(rc.get(), &work, opts, &flags);
      auto report = trainer.Run(cursor, /*joined_at_epoch=*/cursor.epoch);
      std::lock_guard<std::mutex> lock(mu);
      reports.push_back(std::move(report));
    }, 0.0);
  }
  cluster.Join();
  ASSERT_EQ(reports.size(), 4u);
  const TrainerReport* ref = nullptr;
  for (const auto& r : reports) {
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.final_world, 4);
    if (ref == nullptr) {
      ref = &r;
    } else {
      ASSERT_EQ(r.final_params.size(), ref->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], ref->final_params[i]);
      }
    }
  }
}

TEST(FailurePlusJoin, ReplacementKeepsTrainingEquivalent) {
  // Scenario II end to end: fail at (0,1), replace at epoch 1; the final
  // world is back to the original size and replicas agree.
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 4;
  opts.failures.push_back({0, 1, 0, 2, sim::FailScope::kProcess});
  opts.joins[1] = 1;
  std::vector<bool> flags(1);
  std::vector<int> pids{0, 1, 2, 3};
  std::mutex mu;
  std::vector<TrainerReport> reports;
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    auto rc = ResilientComm::JoinExisting(ep, "trainer-epoch1", 1,
                                          opts.drop_policy, nullptr);
    ASSERT_NE(rc, nullptr);
    TrainerState state(&work, opts.steps_per_epoch);
    ASSERT_TRUE(
        state.SyncGrown(rc.get(), ReplicatedState::Sync::kFull, true).ok());
    const checkpoint::TrainingCursor cursor = state.cursor;
    ElasticTrainer trainer(rc.get(), &work, opts, &flags);
    auto report = trainer.Run(cursor, /*joined_at_epoch=*/cursor.epoch);
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  }, 0.0);
  cluster.Join();
  int finishers = 0;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    ++finishers;
    EXPECT_EQ(r.final_world, 4);
  }
  EXPECT_EQ(finishers, 4);
}

TEST(VoluntaryShrink, GracefulLeaveThenFailureStillConsistent) {
  // Scale-down via ulfm::LeaveGracefully (the serving plane's voluntary
  // departure) followed by a failure-driven shrink in the same run: the
  // survivors must treat both as ordinary repairs. P1 steps exact, P2
  // bitwise replicas, P3 exact final world, P4 loss decrease.
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 3;
  opts.steps_per_epoch = 4;
  // Failure-driven shrink well after the voluntary one: rank 2 dies at
  // (2, 1) while the leaver departs at the end of epoch 0.
  opts.failures.push_back({2, 1, 0, 2, sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  const int world = 5;
  const int leaver = world - 1;  // highest rank, like the serving plane
  std::vector<int> pids(world);
  std::iota(pids.begin(), pids.end(), 0);
  std::mutex mu;
  std::vector<TrainerReport> reports;
  int leaver_steps = -1;
  cluster.Spawn(world, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    if (ep.pid() == leaver) {
      // Train one epoch in lockstep, then revoke-and-depart; the
      // survivors observe the leave at their next blocking collective.
      TrainerOptions mine = opts;
      mine.epochs = 1;
      ElasticTrainer trainer(&rc, &work, mine, &flags);
      auto report = trainer.Run();
      ulfm::LeaveGracefully(ep, rc.host());
      std::lock_guard<std::mutex> lock(mu);
      leaver_steps = report.aborted ? -1 : report.steps_run;
      return;
    }
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();
  // The leaver completed its single epoch cleanly before departing.
  EXPECT_EQ(leaver_steps, opts.steps_per_epoch);
  ASSERT_EQ(reports.size(), static_cast<size_t>(world - 1));
  int survivors = 0;
  const TrainerReport* ref = nullptr;
  for (const auto& r : reports) {
    if (r.aborted) continue;  // the scripted victim
    ++survivors;
    EXPECT_EQ(r.steps_run, opts.epochs * opts.steps_per_epoch);  // P1
    EXPECT_EQ(r.final_world, world - 2);                         // P3
    // Both departures surface as repairs: the graceful leave is an
    // acked failure at the next blocking point, not a special path.
    EXPECT_EQ(r.repairs, 2);
    EXPECT_LT(r.last_loss, r.first_loss);  // P4
    if (ref == nullptr) {
      ref = &r;
    } else {  // P2
      ASSERT_EQ(r.final_params.size(), ref->final_params.size());
      for (size_t i = 0; i < r.final_params.size(); ++i) {
        ASSERT_EQ(r.final_params[i], ref->final_params[i]) << "param " << i;
      }
    }
  }
  EXPECT_EQ(survivors, world - 2);
}

}  // namespace
}  // namespace rcc::core
