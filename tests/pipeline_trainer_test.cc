// PipelineTrainer: 1F1B schedule structure, exactly-once commits on a
// clean run, the three recovery arms (re-route / shrink / restore) under
// a deterministic mid-schedule kill, and byte-identical replay of that
// kill under both simulator engines.
#include "core/pipeline_trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "core/grid.h"
#include "core/resilient.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace rcc::core {
namespace {

struct PipeOutcome {
  std::vector<PipelineReport> reports;  // indexed by pid
  double horizon = 0.0;
};

PipeOutcome RunPipeline(int world, const PipelineOptions& opts,
                        double kill_at = -1.0, int victim = -1) {
  sim::Cluster cluster;
  if (kill_at >= 0.0 && victim >= 0) {
    cluster.AddPendingFailure(
        sim::FailureEvent{sim::FailScope::kProcess, victim, kill_at});
  }
  std::vector<int> pids(world);
  std::iota(pids.begin(), pids.end(), 0);
  trace::Recorder rec;
  std::mutex mu;
  PipeOutcome out;
  out.reports.resize(static_cast<size_t>(world));
  cluster.Spawn(world, [&](sim::Endpoint& ep) {
    ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess, &rec);
    PipelineTrainer trainer(&rc, opts);
    PipelineReport r = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    out.horizon = std::max(out.horizon, ep.now());
    out.reports[static_cast<size_t>(ep.pid())] = std::move(r);
  });
  cluster.Join();
  return out;
}

PipelineOptions SmallOptions() {
  PipelineOptions o;
  o.dims = GridDims{0, 2, 1};  // dp derived from the world
  o.microbatches = 4;
  o.steps = 6;
  o.checkpoint_interval = 2;
  return o;
}

TEST(PipelineSchedule, OneFOneBCoversEveryMicrobatchOncePerStage) {
  std::vector<int> pids(6);
  std::iota(pids.begin(), pids.end(), 0);
  ProcessGroupGrid grid(GridDims{2, 3, 1}, pids);
  const int M = 4;
  auto sched = PipelineTrainer::BuildSchedule(grid, M);
  ASSERT_EQ(sched.size(), 6u);
  for (int d = 0; d < 2; ++d) {
    for (int p = 0; p < 3; ++p) {
      const auto& ops = sched[static_cast<size_t>(d) * 3 + p];
      std::set<int> fwd;
      std::set<int> bwd;
      int seen_fwd = 0;
      for (const auto& op : ops) {
        EXPECT_EQ(op.p, p);
        EXPECT_EQ(grid.OwnerReplica(p, op.m), d);
        if (op.bwd) {
          // 1F1B: the matching forward always precedes the backward.
          EXPECT_TRUE(fwd.count(op.m)) << "d" << d << " p" << p;
          EXPECT_TRUE(bwd.insert(op.m).second);
        } else {
          EXPECT_TRUE(fwd.insert(op.m).second);
          ++seen_fwd;
        }
      }
      // Home owner of this replica: microbatches m % 2 == d, each
      // exactly once forward and once backward.
      EXPECT_EQ(static_cast<int>(fwd.size()), M / 2);
      EXPECT_EQ(fwd, bwd);
      (void)seen_fwd;
    }
  }
}

TEST(PipelineSchedule, BrokenReplicaRoutesToTheSurvivor) {
  std::vector<int> pids(4);
  std::iota(pids.begin(), pids.end(), 0);
  ProcessGroupGrid grid(GridDims{2, 2, 1}, pids);
  grid.Update({0, 2, 3});  // replica 0 loses stage 1 (pid 1)
  const int M = 4;
  auto sched = PipelineTrainer::BuildSchedule(grid, M);
  // The broken replica's stage-1 slot runs nothing; replica 1's stage 1
  // adopts every microbatch of the stage.
  EXPECT_TRUE(sched[0 * 2 + 1].empty());
  std::set<int> bwd;
  for (const auto& op : sched[1 * 2 + 1]) {
    if (op.bwd) bwd.insert(op.m);
  }
  EXPECT_EQ(static_cast<int>(bwd.size()), M);
}

TEST(PipelineTrainer, CleanRunCommitsEveryStepExactlyOnce) {
  PipelineOptions opts = SmallOptions();
  // 5 pids over 2x2x1: dp=2 (4 slots) + 1 spare.
  PipeOutcome out = RunPipeline(5, opts);
  const std::string ref = FormatCommitLog(out.reports[0].commits);
  for (int pid = 0; pid < 5; ++pid) {
    const PipelineReport& r = out.reports[static_cast<size_t>(pid)];
    EXPECT_FALSE(r.aborted) << "pid " << pid;
    EXPECT_EQ(r.steps_run, opts.steps);
    EXPECT_EQ(r.rollback_steps, 0);
    EXPECT_EQ(r.repairs, 0);
    EXPECT_EQ(r.adopted_microbatches, 0);
    EXPECT_EQ(r.final_world, 5);
    ASSERT_EQ(r.commits.size(), static_cast<size_t>(opts.steps));
    EXPECT_EQ(FormatCommitLog(r.commits), ref);
    // Exactly-once execution: this rank ran precisely the microbatches
    // the agreed mapping assigned to its slot, each once.
    std::set<std::tuple<int64_t, int, int>> got;
    for (const ExecRecord& e : r.execs) {
      EXPECT_TRUE(got.emplace(e.gstep, e.stage, e.mb).second);
    }
    size_t expect = 0;
    for (const StepCommit& c : r.commits) {
      int my_slot = -1;
      for (size_t i = 0; i < c.slot_pids.size(); ++i) {
        if (c.slot_pids[i] == pid) my_slot = static_cast<int>(i);
      }
      if (my_slot < 0) continue;  // spare
      const int d = my_slot / 2;
      for (int m = 0; m < opts.microbatches; ++m) {
        const int p = (my_slot / 1) % 2;
        if (c.owner[p * opts.microbatches + m] == d) ++expect;
      }
    }
    EXPECT_EQ(got.size(), expect) << "pid " << pid;
    if (pid == 4) {
      EXPECT_TRUE(r.execs.empty());  // the spare idles
    }
  }
}

TEST(PipelineTrainer, RerouteAdoptsTheDeadReplicasMicrobatches) {
  PipelineOptions opts = SmallOptions();
  opts.policy_mode = policy::Mode::kRerouteOnly;
  // Clean horizon first, then land the kill mid-schedule. Victim pid 3
  // holds slot (d=1, p=1): replica 1 breaks, replica 0 must adopt its
  // microbatches while stage 0's sub-groups keep streaming.
  const double horizon = RunPipeline(4, opts).horizon;
  ASSERT_GT(horizon, 0.0);
  PipeOutcome out = RunPipeline(4, opts, 0.5 * horizon, /*victim=*/3);

  const PipelineReport* ref = nullptr;
  int finishers = 0;
  for (int pid = 0; pid < 4; ++pid) {
    const PipelineReport& r = out.reports[static_cast<size_t>(pid)];
    if (r.aborted) continue;
    ++finishers;
    if (ref == nullptr) ref = &r;
    EXPECT_GE(r.repairs, 1) << "pid " << pid;
    EXPECT_GE(r.reroutes, 1) << "pid " << pid;
    EXPECT_EQ(r.reforms, 0);
    EXPECT_EQ(r.restores, 0);
    EXPECT_EQ(r.steps_run, opts.steps + r.rollback_steps);
    EXPECT_EQ(r.final_world, 3);
    ASSERT_EQ(r.commits.size(), static_cast<size_t>(opts.steps));
    EXPECT_EQ(FormatCommitLog(r.commits), FormatCommitLog(ref->commits));
  }
  ASSERT_GE(finishers, 3);
  EXPECT_TRUE(out.reports[3].aborted);
  // After the re-route the post-failure commits keep dp=2 slots with a
  // vacancy, and every stage-1 microbatch is owned by replica 0.
  const StepCommit& last = ref->commits.back();
  EXPECT_EQ(last.slot_pids.size(), 4u);
  EXPECT_EQ(std::count(last.slot_pids.begin(), last.slot_pids.end(), -1), 1);
  for (int m = 0; m < opts.microbatches; ++m) {
    EXPECT_EQ(last.owner[1 * opts.microbatches + m], 0);
  }
  // ReCycle actually happened: replica 0's stage ranks ran foreign
  // microbatches.
  EXPECT_GT(out.reports[0].adopted_microbatches +
                out.reports[1].adopted_microbatches,
            0);
}

TEST(PipelineTrainer, ShrinkReformsTheGridOverSurvivors) {
  PipelineOptions opts = SmallOptions();
  opts.policy_mode = policy::Mode::kShrinkOnly;
  const double horizon = RunPipeline(4, opts).horizon;
  PipeOutcome out = RunPipeline(4, opts, 0.5 * horizon, /*victim=*/3);
  const PipelineReport* ref = nullptr;
  for (int pid = 0; pid < 3; ++pid) {
    const PipelineReport& r = out.reports[static_cast<size_t>(pid)];
    ASSERT_FALSE(r.aborted) << "pid " << pid;
    if (ref == nullptr) ref = &r;
    EXPECT_GE(r.reforms, 1);
    EXPECT_EQ(r.reroutes, 0);
    EXPECT_EQ(r.steps_run, opts.steps + r.rollback_steps);
    EXPECT_EQ(FormatCommitLog(r.commits), FormatCommitLog(ref->commits));
  }
  // The reformed ledger ends on a dp=1 grid: 2 slots, no vacancies.
  const StepCommit& last = ref->commits.back();
  EXPECT_EQ(last.slot_pids.size(), 2u);
  EXPECT_EQ(std::count(last.slot_pids.begin(), last.slot_pids.end(), -1), 0);
}

TEST(PipelineTrainer, RestoreRollsBackToTheLastCheckpoint) {
  PipelineOptions opts = SmallOptions();
  opts.policy_mode = policy::Mode::kRestoreOnly;
  const double horizon = RunPipeline(4, opts).horizon;
  PipeOutcome out = RunPipeline(4, opts, 0.6 * horizon, /*victim=*/3);
  bool rolled_back = false;
  for (int pid = 0; pid < 3; ++pid) {
    const PipelineReport& r = out.reports[static_cast<size_t>(pid)];
    ASSERT_FALSE(r.aborted) << "pid " << pid;
    EXPECT_GE(r.restores, 1);
    EXPECT_EQ(r.steps_run, opts.steps + r.rollback_steps);
    ASSERT_EQ(r.commits.size(), static_cast<size_t>(opts.steps));
    if (r.rollback_steps > 0) rolled_back = true;
    // The final ledger still covers each gstep exactly once, in order.
    for (int g = 0; g < opts.steps; ++g) {
      EXPECT_EQ(r.commits[static_cast<size_t>(g)].gstep, g);
    }
  }
  EXPECT_TRUE(rolled_back);
}

TEST(PipelineTrainer, MidScheduleKillReplaysByteIdentically) {
  PipelineOptions opts = SmallOptions();
  const double horizon = RunPipeline(4, opts).horizon;
  PipeOutcome x = RunPipeline(4, opts, 0.5 * horizon, 3);
  PipeOutcome y = RunPipeline(4, opts, 0.5 * horizon, 3);
  EXPECT_EQ(x.horizon, y.horizon);
  for (int pid = 0; pid < 4; ++pid) {
    const PipelineReport& a = x.reports[static_cast<size_t>(pid)];
    const PipelineReport& b = y.reports[static_cast<size_t>(pid)];
    EXPECT_EQ(a.aborted, b.aborted) << "pid " << pid;
    EXPECT_EQ(a.steps_run, b.steps_run);
    EXPECT_EQ(a.rollback_steps, b.rollback_steps);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.reforms, b.reforms);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.adopted_microbatches, b.adopted_microbatches);
    EXPECT_EQ(FormatCommitLog(a.commits), FormatCommitLog(b.commits));
    EXPECT_EQ(FormatExecLog(a.execs), FormatExecLog(b.execs));
    EXPECT_EQ(policy::FormatDecisionLog(a.decisions),
              policy::FormatDecisionLog(b.decisions));
  }
}

TEST(PipelineTrainer, TensorParallelGridRunsAndCommitsConsistently) {
  PipelineOptions opts;
  opts.dims = GridDims{0, 2, 2};  // dp=2 over 8 pids
  opts.microbatches = 4;
  opts.steps = 4;
  opts.checkpoint_interval = 2;
  PipeOutcome out = RunPipeline(8, opts);
  const std::string ref = FormatCommitLog(out.reports[0].commits);
  for (int pid = 0; pid < 8; ++pid) {
    const PipelineReport& r = out.reports[static_cast<size_t>(pid)];
    ASSERT_FALSE(r.aborted) << "pid " << pid;
    EXPECT_EQ(r.steps_run, opts.steps);
    EXPECT_EQ(FormatCommitLog(r.commits), ref);
    // Both TP shards of a stage replica execute its microbatches.
    EXPECT_FALSE(r.execs.empty()) << "pid " << pid;
  }
}

}  // namespace
}  // namespace rcc::core
