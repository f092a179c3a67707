// Deadline / abort semantics of joiner admission: the blocking
// ExpandComm and the asynchronous ExpandBegin/ExpandTest protocol under
// missing, late and dying joiners. The ctest registration (see
// tests/CMakeLists.txt) runs this binary with a short RCC_EXPAND_TIMEOUT;
// the abandon paths resolve on engine quiescence, and every decision
// below is a pure function of virtual timestamps.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "dnn/data.h"
#include "kvstore/kvstore.h"

namespace rcc::core {
namespace {

using horovod::DropPolicy;

// A provisioned joiner that never arrives must not hang the blocking
// expand: the rendezvous aborts with kTimeout once the engine quiesces
// and the survivors keep operating on the unchanged membership.
TEST(ExpandTimeout, BlockingExpandAbandonsMissingJoiner) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    Status st = rc.Expand("missing", 1);
    EXPECT_EQ(st.code(), Code::kTimeout) << st.ToString();
    EXPECT_EQ(rc.size(), 3);  // membership unchanged
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  });
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

// Same, but the joiner process exists and dies before it reaches the
// rendezvous: indistinguishable from never-provisioned, and previously
// an infinite hang.
TEST(ExpandTimeout, BlockingExpandAbandonsJoinerDeadBeforeArrival) {
  sim::Cluster cluster;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    Status st = rc.Expand("dead-prearrival", 1);
    EXPECT_EQ(st.code(), Code::kTimeout) << st.ToString();
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    // Provisioned, then dies before ever announcing or joining.
    ep.fabric().Kill(ep.pid());
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

// Trainer-level degraded continue: a scheduled join whose workers never
// arrive must not abort the survivors' run.
TEST(ExpandTimeout, TrainerContinuesDegradedWhenJoinerNeverArrives) {
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 4;
  opts.joins[1] = 1;  // provisioned but never spawned
  std::vector<bool> flags;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {16}, 3, /*seed=*/99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                     opts.grad_buckets);
    ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(report.steps_run, 8);  // every planned step still ran
    EXPECT_EQ(report.final_world, 3);
    done++;
  });
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

// Async admission with no announced joiner: the announce grace closes
// the window empty and the first poll round aborts; survivors continue.
TEST(ExpandTimeout, AsyncExpandTimesOutAndTrainingContinues) {
  sim::Cluster cluster;
  kv::Store store;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    std::vector<uint8_t> snap{1, 2, 3};
    ASSERT_TRUE(
        rc.ExpandAsyncBegin(&store, "noshow", 1, snap, 1e6).ok());
    auto pr = rc.ExpandPoll();
    while (pr == ResilientComm::PollResult::kPending) pr = rc.ExpandPoll();
    EXPECT_EQ(pr, ResilientComm::PollResult::kAborted);
    EXPECT_FALSE(rc.expand_pending());
    EXPECT_EQ(rc.size(), 3);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  });
  cluster.Join();
  EXPECT_EQ(done.load(), 3);
}

// The full async happy path: survivors keep allreducing while the
// joiner stages the snapshot in the background, then the merged
// communicator splices in at a poll boundary.
TEST(ExpandTimeout, AsyncSpliceAdmitsStagedJoiner) {
  sim::Cluster cluster;
  kv::Store store;
  std::atomic<int> done{0};
  std::atomic<int> restored{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    std::vector<uint8_t> snap{7, 7, 7};
    ASSERT_TRUE(
        rc.ExpandAsyncBegin(&store, "grow-async", 1, snap, 4096.0).ok());
    auto pr = ResilientComm::PollResult::kPending;
    for (int step = 0; step < 2000 && pr == ResilientComm::PollResult::kPending;
         ++step) {
      float mine = 1.0f, sum = 0.0f;
      ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
      pr = rc.ExpandPoll();
    }
    ASSERT_EQ(pr, ResilientComm::PollResult::kSpliced);
    EXPECT_EQ(rc.size(), 4);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 4.0f);
    done++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto rc = ResilientComm::JoinAsync(
        ep, &store, "grow-async", DropPolicy::kProcess, nullptr,
        [&](const std::vector<uint8_t>& blob) -> Status {
          EXPECT_EQ(blob.size(), 3u);
          EXPECT_EQ(blob[0], 7);
          restored++;
          return Status::Ok();
        });
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->size(), 4);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc->Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 4.0f);
    done++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(restored.load(), 1);
}

// Kill-point: the joiner announces and then dies in the middle of
// staging (before it marks itself staged). The poll round sees a dead
// announced joiner, admits nobody, and aborts; survivors continue.
TEST(ExpandTimeout, JoinerDyingWhileStagingAbortsAdmission) {
  sim::Cluster cluster;
  kv::Store store;
  std::atomic<int> done{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    std::vector<uint8_t> snap{1};
    ASSERT_TRUE(
        rc.ExpandAsyncBegin(&store, "die-staging", 1, snap, 1e9).ok());
    auto pr = ResilientComm::PollResult::kPending;
    for (int step = 0; step < 2000 && pr == ResilientComm::PollResult::kPending;
         ++step) {
      float mine = 1.0f, sum = 0.0f;
      ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
      pr = rc.ExpandPoll();
    }
    EXPECT_EQ(pr, ResilientComm::PollResult::kAborted);
    EXPECT_EQ(rc.size(), 3);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    done++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    // Dies partway through the staged download (1e9 declared bytes take
    // ~43ms of virtual transfer; the kill matures at 10ms).
    ep.ArmKillAt(0.010);
    auto rc = ResilientComm::JoinAsync(
        ep, &store, "die-staging", DropPolicy::kProcess, nullptr,
        [](const std::vector<uint8_t>&) { return Status::Ok(); });
    EXPECT_EQ(rc, nullptr);
    done++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(done.load(), 4);
}

// Kill-point: a survivor dies at a poll boundary while the admission is
// pending. The remaining survivors and the staged joiner still splice;
// the dead survivor is simply absent from the merged membership.
TEST(ExpandTimeout, SurvivorDyingMidAdmissionStillSplices) {
  sim::Cluster cluster;
  kv::Store store;
  std::atomic<int> spliced{0};
  std::atomic<int> died{0};
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, DropPolicy::kProcess, nullptr);
    if (ep.pid() == 2) ep.ArmKillAt(0.020);
    std::vector<uint8_t> snap{9};
    Status begun = rc.ExpandAsyncBegin(&store, "lose-survivor", 1, snap, 4096.0);
    if (!begun.ok()) {
      died++;
      return;
    }
    auto pr = ResilientComm::PollResult::kPending;
    while (pr == ResilientComm::PollResult::kPending) {
      float mine = 1.0f, sum = 0.0f;
      Status st = rc.Allreduce(&mine, &sum, 1);
      if (!st.ok()) {
        died++;
        return;
      }
      pr = rc.ExpandPoll();
    }
    if (!ep.alive()) {
      died++;
      return;
    }
    ASSERT_EQ(pr, ResilientComm::PollResult::kSpliced);
    EXPECT_EQ(rc.size(), 3);  // 2 live survivors + the joiner
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc.Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    spliced++;
  });
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    auto rc = ResilientComm::JoinAsync(
        ep, &store, "lose-survivor", DropPolicy::kProcess, nullptr,
        [](const std::vector<uint8_t>&) { return Status::Ok(); });
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->size(), 3);
    float mine = 1.0f, sum = 0.0f;
    ASSERT_TRUE(rc->Allreduce(&mine, &sum, 1).ok());
    EXPECT_EQ(sum, 3.0f);
    spliced++;
  }, 0.0);
  cluster.Join();
  EXPECT_EQ(spliced.load(), 3);
  EXPECT_EQ(died.load(), 1);
}

}  // namespace
}  // namespace rcc::core
