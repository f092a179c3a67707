// Cross-rank post-mortem forensics, end to end: the two acceptance
// scenarios (a deterministic mid-allreduce kill and a planted stall)
// plus unit coverage of the analysis rules on synthetic dumps.
//
// Scenario (a) additionally checks the phase-sum == metric-delta
// contract: the revoke/agree/shrink/rebuild/replay durations summed
// from the flight dumps must equal the rcc_recovery_phase_seconds
// histogram deltas, because both are fed the identical double at the
// recording site. When RCC_POSTMORTEM_TOOL points at the built CLI
// (ctest sets it), the real binary is executed on the dumps and its
// ROOT-CAUSE line asserted.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/elastic_trainer.h"
#include "core/pipeline_trainer.h"
#include "core/resilient.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/failure_event.h"

namespace rcc::obs::postmortem {
namespace {

flight::Event Ev(flight::Ev kind, double t, int64_t a = 0, int64_t b = 0,
                 double c = 0.0) {
  flight::Event e;
  e.t = t;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  return e;
}

RankDump Dump(int pid, std::vector<flight::Event> events) {
  RankDump d;
  d.pid = pid;
  d.reason = "test";
  d.ring = 4096;
  d.recorded = events.size();
  for (size_t i = 0; i < events.size(); ++i) events[i].index = i;
  d.events = std::move(events);
  return d;
}

// ---------------------------------------------------------------------
// Analysis rules on synthetic dumps
// ---------------------------------------------------------------------

TEST(PostmortemAnalysis, SelfAbortWinsOverFailureDetection) {
  Report rep = Analyze({
      Dump(0, {Ev(flight::Ev::kFailureDetected, 2.0, /*victim=*/3)}),
      Dump(1, {Ev(flight::Ev::kSelfAbort, 1.0)}),
  });
  EXPECT_EQ(rep.root_cause.kind, "self_abort");
  EXPECT_EQ(rep.root_cause.rank, 1);
}

TEST(PostmortemAnalysis, FirstFailureNamesTheVictim) {
  Report rep = Analyze({
      Dump(0, {Ev(flight::Ev::kFailureDetected, 2.0, /*victim=*/3)}),
      Dump(1, {Ev(flight::Ev::kFailureDetected, 1.5, /*victim=*/3)}),
  });
  EXPECT_EQ(rep.root_cause.kind, "first_failure");
  EXPECT_EQ(rep.root_cause.rank, 3);
}

TEST(PostmortemAnalysis, StragglerIsTheRankThatNeverPosted) {
  // Op 7 posted by ranks 0 and 2, completed by nobody; rank 1 went
  // quiet (its last event is earliest and it never posted op 7).
  Report rep = Analyze({
      Dump(0, {Ev(flight::Ev::kCollPost, 1.0, 7),
               Ev(flight::Ev::kKvWaitBegin, 1.5, 99)}),
      Dump(1, {Ev(flight::Ev::kCollComplete, 0.5, 6)}),
      Dump(2, {Ev(flight::Ev::kCollPost, 1.1, 7)}),
  });
  ASSERT_TRUE(rep.ops.count(7));
  EXPECT_TRUE(rep.ops.at(7).stalled);
  EXPECT_EQ(rep.root_cause.kind, "straggler");
  EXPECT_EQ(rep.root_cause.rank, 1);
}

TEST(PostmortemAnalysis, TimelineMergesSortedByTimeThenOp) {
  Report rep = Analyze({
      Dump(0, {Ev(flight::Ev::kCollPost, 2.0, 5),
               Ev(flight::Ev::kCollComplete, 3.0, 5)}),
      Dump(1, {Ev(flight::Ev::kCollPost, 1.0, 4)}),
  });
  ASSERT_EQ(rep.timeline.size(), 3u);
  EXPECT_DOUBLE_EQ(rep.timeline[0].t, 1.0);
  EXPECT_EQ(rep.timeline[0].pid, 1);
  EXPECT_DOUBLE_EQ(rep.timeline[2].t, 3.0);
  // Lifecycles: op 5 completed, op 4 stalled.
  EXPECT_FALSE(rep.ops.at(5).stalled);
  EXPECT_TRUE(rep.ops.at(4).stalled);
}

TEST(PostmortemAnalysis, RepairBreakdownCriticalAndTotals) {
  const auto phase = [](flight::Phase p, int64_t repair, double dur,
                        double t) {
    return Ev(flight::Ev::kRecoveryPhase, t, static_cast<int64_t>(p),
              repair, dur);
  };
  Report rep = Analyze({
      Dump(0, {phase(flight::Phase::kRevoke, 1, 0.010, 1.0),
               phase(flight::Phase::kShrink, 1, 0.200, 1.3)}),
      Dump(1, {phase(flight::Phase::kRevoke, 1, 0.030, 1.0),
               phase(flight::Phase::kShrink, 1, 0.100, 1.3)}),
  });
  ASSERT_EQ(rep.repairs.size(), 1u);
  const RepairBreakdown& rb = rep.repairs.at(1);
  EXPECT_EQ(rb.ranks, 2);
  const int rev = static_cast<int>(flight::Phase::kRevoke);
  const int shr = static_cast<int>(flight::Phase::kShrink);
  EXPECT_DOUBLE_EQ(rb.critical[rev], 0.030);  // slowest rank
  EXPECT_DOUBLE_EQ(rb.total[rev], 0.040);     // rank-seconds
  EXPECT_DOUBLE_EQ(rb.critical[shr], 0.200);
  EXPECT_DOUBLE_EQ(rb.total[shr], 0.300);
}

TEST(PostmortemAnalysis, FormatReportLeadsWithRootCause) {
  Report rep = Analyze({
      Dump(0, {Ev(flight::Ev::kFailureDetected, 1.0, 2)}),
  });
  const std::string text = FormatReport(rep);
  EXPECT_EQ(text.rfind("ROOT-CAUSE rank=2 kind=first_failure", 0), 0u)
      << text;
}

// ---------------------------------------------------------------------
// Acceptance (a): deterministic mid-allreduce kill
// ---------------------------------------------------------------------

constexpr const char* kKillDumpDir = "postmortem_kill_dumps";

TEST(PostmortemEndToEnd, MidAllreduceKillNamesVictimAndPhaseSumsMatch) {
  ASSERT_TRUE(flight::Enabled());
  ::mkdir(kKillDumpDir, 0755);
  for (const std::string& old : ListDumpFiles(kKillDumpDir)) {
    std::remove(old.c_str());
  }

  const char* phases[] = {"", "revoke", "agree", "shrink", "rebuild",
                          "replay"};

  constexpr int kWorld = 4;
  constexpr int kVictim = 2;
  sim::Cluster cluster;
  // Mid-run process kill in virtual time: the victim dies inside one of
  // the step allreduces, not at a collective boundary.
  cluster.AddPendingFailure(
      sim::FailureEvent{sim::FailScope::kProcess, kVictim, 0.02});

  std::atomic<int> survivors{0};
  std::vector<int> pids{0, 1, 2, 3};
  cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess,
                           nullptr);
    std::vector<float> in(512, 1.0f), out(512);
    for (int i = 0; i < 20; ++i) {
      if (!rc.Allreduce(in.data(), out.data(), in.size()).ok()) {
        return;  // the victim, dead mid-op
      }
    }
    EXPECT_EQ(rc.repairs(), 1);
    survivors++;
  });
  cluster.Join();
  ASSERT_EQ(survivors.load(), kWorld - 1);

  // Every surviving rank dumps its ring (the victim's ring holds what
  // it recorded before dying and rides along).
  const std::vector<std::string> paths =
      flight::DumpAll(cluster.fabric().logs(), "test: mid-allreduce kill",
                      kKillDumpDir);
  ASSERT_EQ(paths.size(), static_cast<size_t>(kWorld));

  std::vector<RankDump> dumps;
  for (const std::string& p : ListDumpFiles(kKillDumpDir)) {
    RankDump d;
    std::string err;
    ASSERT_TRUE(ParseDumpFile(p, &d, &err)) << p << ": " << err;
    dumps.push_back(std::move(d));
  }
  ASSERT_EQ(dumps.size(), static_cast<size_t>(kWorld));

  Report rep = Analyze(std::move(dumps));
  EXPECT_EQ(rep.root_cause.kind, "first_failure");
  EXPECT_EQ(rep.root_cause.rank, kVictim);
  ASSERT_EQ(rep.repairs.size(), 1u);
  const RepairBreakdown& rb = rep.repairs.begin()->second;
  EXPECT_EQ(rb.ranks, kWorld - 1);

  // Phase-sum == metric-sum: the dumps' per-phase rank-second totals
  // must equal the simulation's histogram sums (identical doubles at the
  // recording site; only summation order differs).
  const Registry& reg = cluster.fabric().metrics();
  for (int p = 1; p <= 5; ++p) {
    double dump_sum = 0.0;
    for (const auto& [repair, breakdown] : rep.repairs) {
      dump_sum += breakdown.total[p];
    }
    const double metric_sum =
        reg.HistogramSnapshot("rcc_recovery_phase_seconds",
                              {{"phase", phases[p]}})
            .sum;
    EXPECT_NEAR(dump_sum, metric_sum,
                1e-12 * std::max(1.0, std::abs(metric_sum)))
        << "phase " << phases[p];
  }
  // The repair actually spent time somewhere.
  double critical = 0.0;
  for (int p = 1; p <= 5; ++p) critical += rb.critical[p];
  EXPECT_GT(critical, 0.0);

  // Run the real CLI on the dumps when ctest tells us where it is.
  if (const char* tool = std::getenv("RCC_POSTMORTEM_TOOL")) {
    const std::string out_path = std::string(kKillDumpDir) + "/report.txt";
    const std::string cmd = std::string(tool) + " --dir " + kKillDumpDir +
                            " > " + out_path;
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(out_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("ROOT-CAUSE rank=2 kind=first_failure"),
              std::string::npos)
        << ss.str();
  }
}

// ---------------------------------------------------------------------
// Acceptance (b): planted stall (a rank goes quiet without dying)
// ---------------------------------------------------------------------

constexpr const char* kStallDumpDir = "postmortem_stall_dumps";

// Child body for the death test: rank 1 silently never enters the
// collective while staying alive; the scheduler proves quiescence, the
// fabric's stall observer dumps every rank's log, and
// the stall handler exits 3.
void RunPlantedStall() {
  ::setenv("RCC_FLIGHT_DIR", kStallDumpDir, 1);
  sim::SetStallHandler([](const std::string&) { std::_Exit(3); });
  sim::Cluster cluster;
  std::vector<int> pids{0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess,
                           nullptr);
    if (rc.rank() == 1) return;  // planted stall: alive but gone quiet
    std::vector<float> in(64, 1.0f), out(64);
    (void)rc.Allreduce(in.data(), out.data(), in.size());
  });
  cluster.Join();
  std::_Exit(0);  // not reached: the stall fires first
}

TEST(PostmortemEndToEnd, PlantedStallDumpsAndNamesTheStraggler) {
  ASSERT_TRUE(flight::Enabled());
  ::mkdir(kStallDumpDir, 0755);
  for (const std::string& old : ListDumpFiles(kStallDumpDir)) {
    std::remove(old.c_str());
  }

  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(RunPlantedStall(), ::testing::ExitedWithCode(3), "");

  std::vector<RankDump> dumps;
  for (const std::string& p : ListDumpFiles(kStallDumpDir)) {
    RankDump d;
    std::string err;
    ASSERT_TRUE(ParseDumpFile(p, &d, &err)) << p << ": " << err;
    EXPECT_EQ(d.reason.rfind("stall", 0), 0u) << d.reason;
    dumps.push_back(std::move(d));
  }
  ASSERT_EQ(dumps.size(), 3u);

  Report rep = Analyze(std::move(dumps));
  EXPECT_EQ(rep.root_cause.kind, "straggler");
  EXPECT_EQ(rep.root_cause.rank, 1);

  if (const char* tool = std::getenv("RCC_POSTMORTEM_TOOL")) {
    const std::string out_path = std::string(kStallDumpDir) + "/report.txt";
    const std::string cmd = std::string(tool) + " --dir " + kStallDumpDir +
                            " > " + out_path;
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(out_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("ROOT-CAUSE rank=1 kind=straggler"),
              std::string::npos)
        << ss.str();
  }
}

// ---------------------------------------------------------------------
// Policy-decision attribution: the causal timeline names the recovery
// decision the controller took at the failure boundary
// ---------------------------------------------------------------------

constexpr const char* kPolicyDumpDir = "postmortem_policy_dumps";

TEST(PostmortemEndToEnd, PolicyDecisionLineMatchesFlightEvent) {
  ASSERT_TRUE(flight::Enabled());
  ::mkdir(kPolicyDumpDir, 0755);
  for (const std::string& old : ListDumpFiles(kPolicyDumpDir)) {
    std::remove(old.c_str());
  }

  // Adaptive trainer with a scripted mid-epoch failure: the surviving
  // members tick the controller at the next step boundary and record
  // the kPolicyInputs/kPolicyDecision pair on their rings.
  constexpr int kWorld = 3;
  sim::Cluster cluster;
  dnn::ClusterDataset data(8, 3, 512, 7);
  core::TrainerOptions opts;
  opts.epochs = 2;
  opts.steps_per_epoch = 3;
  opts.policy_mode = policy::Mode::kAdaptive;
  opts.failures.push_back({0, 1, 0, 1, sim::FailScope::kProcess});
  std::vector<bool> flags(1);
  std::vector<int> pids{0, 1, 2};
  std::mutex mu;
  std::vector<core::TrainerReport> reports;
  cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, 99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    core::ResilientComm rc(ep, pids, opts.drop_policy, nullptr);
    core::ElasticTrainer trainer(&rc, &work, opts, &flags);
    auto report = trainer.Run();
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(report));
  });
  cluster.Join();

  const core::TrainerReport* survivor = nullptr;
  for (const auto& r : reports) {
    if (!r.aborted) survivor = &r;
  }
  ASSERT_NE(survivor, nullptr);
  ASSERT_FALSE(survivor->decisions.empty());
  const policy::Decision& d = survivor->decisions.front();

  // One ring per member of this simulation.
  const std::vector<std::string> paths = flight::DumpAll(
      cluster.fabric().logs(), "test: policy decision", kPolicyDumpDir);
  ASSERT_EQ(paths.size(), static_cast<size_t>(kWorld));
  std::vector<RankDump> dumps;
  for (const std::string& p : ListDumpFiles(kPolicyDumpDir)) {
    RankDump dmp;
    std::string err;
    ASSERT_TRUE(ParseDumpFile(p, &dmp, &err)) << p << ": " << err;
    dumps.push_back(std::move(dmp));
  }

  Report rep = Analyze(std::move(dumps));
  // Every surviving member recorded the same decision; the notes must
  // agree with the trainer's own decision log on every attributed field.
  ASSERT_GE(rep.policy.size(), static_cast<size_t>(kWorld - 1));
  for (const PolicyNote& n : rep.policy) {
    EXPECT_EQ(n.seq, d.in.seq);
    EXPECT_EQ(n.event, d.in.event);
    EXPECT_EQ(n.world, d.in.world);
    EXPECT_EQ(n.strategy, static_cast<int>(d.chosen));
    EXPECT_DOUBLE_EQ(n.mtbf, d.in.mtbf_seconds);
    EXPECT_DOUBLE_EQ(n.cost, d.cost[static_cast<int>(d.chosen)]);
  }

  // The grep-able POLICY line in the rendered report names the chosen
  // strategy the flight events carry.
  const std::string text = FormatReport(rep);
  std::ostringstream want;
  want << "POLICY rank=";
  EXPECT_NE(text.find(want.str()), std::string::npos) << text;
  std::ostringstream chosen;
  chosen << "chosen=" << policy::StrategyName(d.chosen);
  EXPECT_NE(text.find(chosen.str()), std::string::npos) << text;

  // And through the real CLI when ctest points at it.
  if (const char* tool = std::getenv("RCC_POSTMORTEM_TOOL")) {
    const std::string out_path = std::string(kPolicyDumpDir) + "/report.txt";
    const std::string cmd = std::string(tool) + " --dir " + kPolicyDumpDir +
                            " > " + out_path;
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(out_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find(chosen.str()), std::string::npos) << ss.str();
  }
}


constexpr const char* kPipelinePolicyDumpDir =
    "postmortem_pipeline_policy_dumps";

TEST(PostmortemEndToEnd, PipelineDecisionsRenderOnePolicyLineEach) {
  ASSERT_TRUE(flight::Enabled());
  ::mkdir(kPipelinePolicyDumpDir, 0755);
  for (const std::string& old : ListDumpFiles(kPipelinePolicyDumpDir)) {
    std::remove(old.c_str());
  }

  // A 2-stage pipeline over 4 ranks; pid 3 dies mid-run. Every surviving
  // member decides the recovery at the step boundary and records the
  // decision's kPolicyInputs/kPolicyDecision pair.
  core::PipelineOptions opts;
  opts.dims = core::GridDims{0, 2, 1};
  opts.microbatches = 4;
  opts.steps = 6;
  opts.checkpoint_interval = 2;
  constexpr int kWorld = 4;
  auto run = [&](double kill_at, std::vector<core::PipelineReport>* reports,
                 std::vector<std::string>* paths) {
    sim::Cluster cluster;
    if (kill_at > 0.0) {
      cluster.AddPendingFailure(
          sim::FailureEvent{sim::FailScope::kProcess, 3, kill_at});
    }
    std::vector<int> pids(kWorld);
    std::iota(pids.begin(), pids.end(), 0);
    double horizon = 0.0;
    reports->assign(kWorld, {});
    cluster.Spawn(kWorld, [&](sim::Endpoint& ep) {
      core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess,
                             nullptr);
      core::PipelineTrainer trainer(&rc, opts);
      (*reports)[static_cast<size_t>(ep.pid())] = trainer.Run();
      horizon = std::max(horizon, ep.now());
    });
    cluster.Join();
    if (paths != nullptr) {
      *paths = flight::DumpAll(cluster.fabric().logs(),
                               "test: pipeline policy",
                               kPipelinePolicyDumpDir);
    }
    return horizon;
  };
  std::vector<core::PipelineReport> reports;
  const double horizon = run(0.0, &reports, nullptr);
  ASSERT_GT(horizon, 0.0);
  std::vector<std::string> paths;
  run(0.5 * horizon, &reports, &paths);
  ASSERT_EQ(paths.size(), static_cast<size_t>(kWorld));

  size_t decisions = 0;
  for (const core::PipelineReport& r : reports) {
    if (!r.aborted) decisions += r.decisions.size();
  }
  ASSERT_GE(decisions, 3u);  // one decision on each of three survivors

  std::vector<RankDump> dumps;
  for (const std::string& p : ListDumpFiles(kPipelinePolicyDumpDir)) {
    RankDump dmp;
    std::string err;
    ASSERT_TRUE(ParseDumpFile(p, &dmp, &err)) << p << ": " << err;
    dumps.push_back(std::move(dmp));
  }
  Report rep = Analyze(std::move(dumps));
  ASSERT_EQ(rep.policy.size(), decisions);
  for (const PolicyNote& n : rep.policy) {
    const core::PipelineReport& r = reports[static_cast<size_t>(n.pid)];
    ASSERT_FALSE(r.aborted) << "pid " << n.pid;
    const policy::Decision* d = nullptr;
    for (const policy::Decision& x : r.decisions) {
      if (x.in.seq == n.seq) d = &x;
    }
    ASSERT_NE(d, nullptr) << "pid " << n.pid << " seq " << n.seq;
    EXPECT_EQ(n.event, d->in.event);
    EXPECT_EQ(n.world, d->in.world);
    EXPECT_EQ(n.strategy, static_cast<int>(d->chosen));
    EXPECT_DOUBLE_EQ(n.cost, d->cost[static_cast<int>(d->chosen)]);
  }

  // The rendered report prints exactly one POLICY line per decision.
  const std::string text = FormatReport(rep);
  size_t lines = 0;
  for (size_t at = text.find("POLICY rank="); at != std::string::npos;
       at = text.find("POLICY rank=", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, decisions) << text;
}

}  // namespace
}  // namespace rcc::obs::postmortem
