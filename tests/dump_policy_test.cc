// Flight dump policy: rings are written to disk only when something
// unexplained happened. A death delivered by the failure schedule (chaos
// timed kills, ScriptedFailure, node kills) is the experiment and writes
// nothing; a worker that exits aborted while its endpoint is still alive
// dumps every rank's ring.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "chaos/oracle.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "core/ulfm_elastic.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "sim/cluster.h"

namespace rcc {
namespace {

namespace fs = std::filesystem;

// Points RCC_FLIGHT_DIR at a fresh directory for one test.
class DumpPolicy : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rcc_dump_policy_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    setenv("RCC_FLIGHT_DIR", dir_.c_str(), 1);
    obs::flight::SetEnabled(true);
  }
  void TearDown() override {
    unsetenv("RCC_FLIGHT_DIR");
    fs::remove_all(dir_);
  }

  std::vector<std::string> Dumps() const {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.find("flight_rank") != std::string::npos) out.push_back(name);
    }
    return out;
  }

  fs::path dir_;
};

TEST_F(DumpPolicy, ScheduledKillsInAChaosCampaignWriteNoDumps) {
  chaos::Schedule s;
  s.shape.world = 6;
  s.shape.epochs = 2;
  s.shape.steps_per_epoch = 4;
  const double horizon = chaos::EstimateHorizon(s);
  ASSERT_GT(horizon, 0.0);
  s.timed.push_back(
      chaos::TimedKill{sim::FailScope::kProcess, /*target=*/2, 0.3 * horizon});
  s.timed.push_back(
      chaos::TimedKill{sim::FailScope::kProcess, /*target=*/4, 0.6 * horizon});

  const chaos::CampaignOutcome out = chaos::RunSchedule(s);
  const auto violations = chaos::CheckOracles(s, out);
  EXPECT_TRUE(violations.empty()) << chaos::FormatViolations(violations);
  EXPECT_GT(out.repairs_metric, 0.0);  // the kills landed mid-run
  EXPECT_TRUE(Dumps().empty());
}

TEST_F(DumpPolicy, ScriptedFailuresInRunUlfmElasticWriteNoDumps) {
  horovod::SyntheticPlan plan;
  plan.spec = dnn::NasNetMobileSpec();
  plan.initial_world = 12;
  plan.batch_per_worker = 32;
  plan.steps_per_epoch = 4;
  plan.epochs = 2;
  plan.max_physical_floats = 1024;
  plan.drop_policy = horovod::DropPolicy::kNode;
  // A whole-node kill (six scripted deaths plus node-drop leavers) and a
  // replacement node merged at the next epoch.
  plan.failures.push_back({0, 2, 0, 2, sim::FailScope::kNode});
  plan.joins.push_back({/*epoch=*/1, /*count=*/6, /*cold=*/false});
  sim::Cluster cluster;
  const horovod::RunStats stats = core::RunUlfmElastic(cluster, plan, nullptr);
  EXPECT_GE(stats.resets, 1);
  EXPECT_EQ(stats.final_world, 12);
  EXPECT_TRUE(Dumps().empty());
}

TEST_F(DumpPolicy, WorkerAbortingWhileAliveDumpsEveryRank) {
  constexpr int kRanks = 4;
  std::atomic<int> unexplained{0};
  sim::Cluster cluster;
  cluster.Spawn(kRanks, [&](sim::Endpoint& ep) {
    ep.log()->Record(obs::flight::Ev::kCollPost, ep.now(), ep.pid());
    // Clean exits and scheduled deaths are explained: no dump.
    if (ep.pid() == 1) ep.fabric().Kill(ep.pid());
    if (obs::DumpIfUnexplainedExit(ep, /*aborted=*/ep.pid() == 1)) {
      ++unexplained;
    }
  });
  cluster.Join();
  EXPECT_EQ(unexplained.load(), 0);
  EXPECT_TRUE(Dumps().empty());

  // A worker that gives up while its endpoint is alive left the job
  // unexplained: every rank of its simulation is dumped.
  sim::Cluster cluster2;
  cluster2.Spawn(kRanks, [&](sim::Endpoint& ep) {
    ep.log()->Record(obs::flight::Ev::kCollPost, ep.now(), ep.pid());
    if (obs::DumpIfUnexplainedExit(ep, /*aborted=*/ep.pid() == kRanks - 1)) {
      ++unexplained;
    }
  });
  cluster2.Join();
  EXPECT_EQ(unexplained.load(), 1);
  const std::vector<std::string> dumps = Dumps();
  EXPECT_EQ(dumps.size(), static_cast<size_t>(kRanks));
  for (int pid = 0; pid < kRanks; ++pid) {
    const std::string want = "flight_rank" + std::to_string(pid) + ".json";
    bool found = false;
    for (const std::string& d : dumps) found = found || d == want;
    EXPECT_TRUE(found) << want;
  }
}

}  // namespace
}  // namespace rcc
