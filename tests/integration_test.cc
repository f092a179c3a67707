// Cross-stack integration tests over the bench harness itself: the
// scenario builder, the cost extraction, and the paper's headline
// comparisons as executable assertions.
#include <gtest/gtest.h>

#include "bench_util.h"
#include "costmodel/costmodel.h"

namespace rcc::bench {
namespace {

TEST(ScenarioPlan, DownInjectsOneMidEpochFailure) {
  auto plan = MakeScenarioPlan(dnn::ResNet50V2Spec(), Scenario::kDown,
                               horovod::DropPolicy::kProcess, 24);
  ASSERT_EQ(plan.failures.size(), 1u);
  EXPECT_EQ(plan.failures[0].epoch, 1);
  EXPECT_TRUE(plan.joins.empty());
  EXPECT_EQ(plan.initial_world, 24);
}

TEST(ScenarioPlan, SameAddsWarmReplacementAfterFailure) {
  auto plan = MakeScenarioPlan(dnn::ResNet50V2Spec(), Scenario::kSame,
                               horovod::DropPolicy::kNode, 24);
  ASSERT_EQ(plan.failures.size(), 1u);
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_EQ(plan.joins[0].count, 6);  // whole node
  EXPECT_FALSE(plan.joins[0].cold);
  EXPECT_GT(plan.joins[0].epoch, plan.failures[0].epoch);
}

TEST(ScenarioPlan, UpDoublesWithColdJoiners) {
  auto plan = MakeScenarioPlan(dnn::NasNetMobileSpec(), Scenario::kUp,
                               horovod::DropPolicy::kNode, 12);
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_EQ(plan.joins[0].count, 12);
  EXPECT_TRUE(plan.joins[0].cold);
  EXPECT_TRUE(plan.failures.empty());
}

TEST(ScenarioPlan, EpochPaddingMatchesImageNetScale) {
  auto plan = MakeScenarioPlan(dnn::ResNet50V2Spec(), Scenario::kDown,
                               horovod::DropPolicy::kProcess, 24);
  const int total = plan.steps_per_epoch + plan.padded_steps_per_epoch;
  EXPECT_NEAR(total, 1.28e6 / (32.0 * 24.0), 2.0);
  EXPECT_GT(plan.padded_step_seconds, 0.0);
  // More workers -> fewer steps per epoch.
  auto big = MakeScenarioPlan(dnn::ResNet50V2Spec(), Scenario::kDown,
                              horovod::DropPolicy::kProcess, 192);
  EXPECT_LT(big.padded_steps_per_epoch, plan.padded_steps_per_epoch);
}

TEST(Headline, UlfmBeatsElasticHorovodOnDownscaling) {
  // The paper's central claim at the Fig. 4 configuration.
  auto eh = RunScenario(Stack::kElasticHorovod, dnn::ResNet50V2Spec(),
                        Scenario::kDown, horovod::DropPolicy::kNode, 24);
  auto ulfm = RunScenario(Stack::kUlfm, dnn::ResNet50V2Spec(),
                          Scenario::kDown, horovod::DropPolicy::kNode, 24);
  EXPECT_GT(eh.total_overhead, 4.0 * ulfm.total_overhead)
      << "eh=" << eh.total_overhead << " ulfm=" << ulfm.total_overhead;
  EXPECT_GT(eh.reconstruction, 4.0 * ulfm.reconstruction);
  // EH re-computes a full mini-batch; ULFM one collective.
  EXPECT_GT(eh.recompute, 5.0 * ulfm.recompute);
  EXPECT_EQ(eh.final_world, 18);
  EXPECT_EQ(ulfm.final_world, 18);
}

TEST(Headline, UpscalingOverlapKeepsUlfmOverheadSmall) {
  // Scenario III: both stacks pay the 28 s cold start, but ULFM overlaps
  // it with the preceding (degraded) epoch.
  auto eh = RunScenario(Stack::kElasticHorovod, dnn::NasNetMobileSpec(),
                        Scenario::kUp, horovod::DropPolicy::kNode, 12);
  auto ulfm = RunScenario(Stack::kUlfm, dnn::NasNetMobileSpec(),
                          Scenario::kUp, horovod::DropPolicy::kNode, 12);
  sim::SimConfig cfg;
  EXPECT_GT(eh.total_overhead, cfg.costs.worker_coldstart);
  EXPECT_LT(ulfm.total_overhead, 0.5 * cfg.costs.worker_coldstart);
  EXPECT_EQ(eh.final_world, 24);
  EXPECT_EQ(ulfm.final_world, 24);
}

TEST(Headline, AbsoluteGapGrowsWithScale) {
  auto gap = [](int world) {
    auto eh = RunScenario(Stack::kElasticHorovod, dnn::NasNetMobileSpec(),
                          Scenario::kDown, horovod::DropPolicy::kNode,
                          world);
    auto ulfm = RunScenario(Stack::kUlfm, dnn::NasNetMobileSpec(),
                            Scenario::kDown, horovod::DropPolicy::kNode,
                            world);
    return eh.total_overhead - ulfm.total_overhead;
  };
  EXPECT_GT(gap(48), gap(12));
}

TEST(Headline, ProcessGranularityCostsNoMoreThanNodeForUlfm) {
  auto proc = RunScenario(Stack::kUlfm, dnn::NasNetMobileSpec(),
                          Scenario::kDown, horovod::DropPolicy::kProcess,
                          12);
  auto node = RunScenario(Stack::kUlfm, dnn::NasNetMobileSpec(),
                          Scenario::kDown, horovod::DropPolicy::kNode, 12);
  // Flexibility claim: per-process management is not pricier than
  // whole-node management (Table 2 / Section 3.3).
  EXPECT_LT(proc.total_overhead, node.total_overhead + 1.0);
  EXPECT_EQ(proc.final_world, 11);
  EXPECT_EQ(node.final_world, 6);
}

TEST(Eq1CrossCheck, AnalyticReconfigMatchesMeasuredOrder) {
  // Eq. (1)'s reconfiguration term, fed with the measured EH Fig. 4
  // value, should match the measured per-fault overhead within 2x.
  auto eh = RunScenario(Stack::kElasticHorovod, dnn::ResNet50V2Spec(),
                        Scenario::kDown, horovod::DropPolicy::kNode, 24);
  sim::SimConfig cfg;
  costmodel::RecoveryParams params;
  params.checkpoint_bytes = dnn::ResNet50V2Spec().size_mb * 1e6;
  params.steps_per_second =
      1.0 / dnn::StepComputeSeconds(dnn::ResNet50V2Spec(), 32,
                                    cfg.net.gpu_flops);
  params.checkpoint_interval_steps = 1;
  params.reconfiguration_cost = eh.reconstruction;
  params.fault_rate_per_hour = 1.0;
  auto breakdown = costmodel::Evaluate(cfg, params);
  const double analytic_per_fault =
      breakdown.loading + breakdown.reconfigure + breakdown.recompute;
  EXPECT_GT(eh.total_overhead, 0.5 * analytic_per_fault);
  EXPECT_LT(eh.total_overhead, 2.0 * analytic_per_fault);
}

TEST(CostExtraction, CleanRunHasNoRecoveryPhases) {
  horovod::SyntheticPlan plan = MakeScenarioPlan(
      dnn::NasNetMobileSpec(), Scenario::kDown,
      horovod::DropPolicy::kProcess, 12);
  plan.failures.clear();
  trace::Recorder rec;
  sim::Cluster cluster;
  horovod::RunElasticHorovod(cluster, plan, &rec);
  for (const auto& e : rec.events()) {
    EXPECT_NE(e.phase.rfind("recovery/", 0), 0u)
        << "unexpected recovery phase in clean run: " << e.phase;
  }
}

TEST(CostExtraction, RecoveryGroupsCoverDisjointPhases) {
  trace::Recorder rec;
  sim::Fabric fabric(sim::SimConfig{});
  sim::Endpoint ep(&fabric, fabric.RegisterProcess(0));
  rec.Attach(ep);
  auto span = [&](const char* phase, double start, double end) {
    ep.log()->Record(obs::flight::Ev::kSpan, end, 0, 0, start,
                     obs::flight::Intern(phase));
  };
  span("recovery/ulfm_repair", 0, 1);
  span("recovery/nccl_reinit", 1, 3);
  span("recovery/retry_collective", 3, 3.5);
  EXPECT_DOUBLE_EQ(
      SumRecoveryGroup(rec, {horovod::phase::kUlfmRepair,
                             horovod::phase::kNcclReinit}),
      3.0);
  EXPECT_DOUBLE_EQ(RecoveryPhaseMean(rec, horovod::phase::kRetryCollective),
                   0.5);
  EXPECT_DOUBLE_EQ(RecoveryPhaseMin(rec, "absent_phase"), 0.0);
}

}  // namespace
}  // namespace rcc::bench
