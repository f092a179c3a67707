// Per-PR chaos smoke: a small seeded campaign batch that must violate
// no oracle, byte-for-byte determinism of the generator and the runner,
// and an end-to-end check that the fuzzer catches a planted replay bug
// and shrinks it to a tiny reproducer (ISSUE acceptance criteria).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/generator.h"
#include "chaos/oracle.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "core/pipeline_trainer.h"
#include "core/resilient.h"
#include "obs/metrics.h"
#include "policy/policy.h"

namespace rcc::chaos {
namespace {

constexpr uint64_t kSmokeSeedBase = 1;
constexpr int kSmokeCampaigns = 10;

TEST(ChaosSmoke, TenSeededCampaignsViolateNoOracle) {
  GenConfig cfg;  // defaults, not FromEnv: the smoke batch is pinned
  int with_phase_kills = 0;
  int with_node_scope = 0;
  int low_window = 0;   // inflight_window <= 1 (incl. blocking mode)
  int high_window = 0;  // inflight_window >= 2 (pipelined replay path)
  for (int k = 0; k < kSmokeCampaigns; ++k) {
    Schedule s = GenerateSchedule(kSmokeSeedBase + static_cast<uint64_t>(k),
                                  cfg);
    EXPECT_GE(s.shape.inflight_window, 0);
    EXPECT_LE(s.shape.inflight_window, 4);
    if (!s.phased.empty()) ++with_phase_kills;
    for (const auto& t : s.timed) {
      if (t.scope == sim::FailScope::kNode) ++with_node_scope;
    }
    if (s.shape.policy == horovod::DropPolicy::kNode) ++with_node_scope;
    if (s.shape.inflight_window <= 1) ++low_window;
    if (s.shape.inflight_window >= 2) ++high_window;

    CampaignOutcome outcome = RunSchedule(s);
    auto violations = CheckOracles(s, outcome);
    EXPECT_TRUE(violations.empty())
        << "seed " << s.seed << ":\n" << FormatViolations(violations);
  }
  // The pinned seed range must exercise the interesting axes: phase-locked
  // injections, node-granularity failure, and both window regimes.
  EXPECT_GE(with_phase_kills, 1);
  EXPECT_GE(with_node_scope, 1);
  EXPECT_GE(low_window, 1);
  EXPECT_GE(high_window, 1);
}

// P7 audits the registry counters against the run's event log: an
// outcome whose replayed-op counter disagrees with its replay events (a
// replay the log never recorded) violates it, and nothing else does.
TEST(ChaosSmoke, ReplayCounterWithoutReplayEventViolatesP7) {
  Schedule s;
  s.shape.world = 4;
  s.shape.epochs = 2;
  s.shape.steps_per_epoch = 4;
  s.shape.grad_buckets = 2;
  s.shape.inflight_window = 2;
  CampaignOutcome outcome = RunSchedule(s);
  const std::vector<Violation> clean = CheckOracles(s, outcome);
  ASSERT_TRUE(clean.empty()) << FormatViolations(clean);
  outcome.replayed_metric += 1.0;
  const std::vector<Violation> violations = CheckOracles(s, outcome);
  ASSERT_EQ(violations.size(), 1u) << FormatViolations(violations);
  EXPECT_EQ(violations[0].oracle, "P7");
  EXPECT_NE(violations[0].detail.find("replayed counter != replay events"),
            std::string::npos)
      << violations[0].detail;
}

TEST(ChaosSmoke, SameSeedIsByteDeterministic) {
  // Seed 2 is a repair-heavy campaign (windowed replay after a kill).
  const uint64_t seed = 2;
  Schedule a = GenerateSchedule(seed);
  Schedule b = GenerateSchedule(seed);
  ASSERT_TRUE(a == b);
  ASSERT_EQ(a.ToJson(), b.ToJson());

  CampaignOutcome x = RunSchedule(a);
  CampaignOutcome y = RunSchedule(b);
  ASSERT_EQ(x.results.size(), y.results.size());
  for (size_t i = 0; i < x.results.size(); ++i) {
    const WorkerResult& wx = x.results[i];
    const WorkerResult& wy = y.results[i];
    EXPECT_EQ(wx.pid, wy.pid);
    EXPECT_EQ(wx.join_epoch, wy.join_epoch);
    EXPECT_EQ(wx.joined_ok, wy.joined_ok);
    EXPECT_EQ(wx.report.aborted, wy.report.aborted);
    EXPECT_EQ(wx.report.steps_run, wy.report.steps_run);
    EXPECT_EQ(wx.report.final_world, wy.report.final_world);
    EXPECT_EQ(wx.report.repairs, wy.report.repairs);
    EXPECT_EQ(wx.report.first_loss, wy.report.first_loss);  // bitwise
    EXPECT_EQ(wx.report.last_loss, wy.report.last_loss);
    EXPECT_EQ(wx.report.final_params, wy.report.final_params);
    EXPECT_EQ(wx.end_time, wy.end_time);
  }
  EXPECT_EQ(x.horizon, y.horizon);
  EXPECT_EQ(x.repairs_metric, y.repairs_metric);
  EXPECT_EQ(x.replayed_metric, y.replayed_metric);
  EXPECT_EQ(x.repair_span_count, y.repair_span_count);
  ASSERT_EQ(x.replay_events.size(), y.replay_events.size());
  for (size_t i = 0; i < x.replay_events.size(); ++i) {
    EXPECT_EQ(x.replay_events[i].pid, y.replay_events[i].pid);
    EXPECT_EQ(x.replay_events[i].op_id, y.replay_events[i].op_id);
    EXPECT_EQ(x.replay_events[i].min_id, y.replay_events[i].min_id);
  }
  // The campaign actually went through recovery, so the determinism
  // claim covers the repair + windowed-replay machinery.
  EXPECT_GT(x.repairs_metric, 0.0);
}

TEST(ChaosSmoke, BothSeedFormatsReplayIdentically) {
  // The seed format is a validated version stamp. A format-1 schedule
  // serializes with no format field and a format-2 one with it; both
  // round-trip exactly through JSON, any other format is rejected on
  // load, and both formats replay to the same outcome stream on the one
  // engine.
  const uint64_t seed = 2;
  Schedule legacy = GenerateSchedule(seed);
  EXPECT_EQ(legacy.format, 1);
  EXPECT_EQ(legacy.ToJson().find("format"), std::string::npos);
  Schedule s = legacy;
  s.format = 2;
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"format\": 2"), std::string::npos);
  Schedule rt;
  std::string err;
  ASSERT_TRUE(Schedule::FromJson(json, &rt, &err)) << err;
  ASSERT_TRUE(rt == s);
  Schedule rt_legacy;
  ASSERT_TRUE(Schedule::FromJson(legacy.ToJson(), &rt_legacy, &err)) << err;
  ASSERT_TRUE(rt_legacy == legacy);
  std::string unknown = json;
  unknown.replace(unknown.find("\"format\": 2"), 11, "\"format\": 3");
  EXPECT_FALSE(Schedule::FromJson(unknown, &rt, &err));

  CampaignOutcome x = RunSchedule(rt_legacy);
  CampaignOutcome y = RunSchedule(s);
  auto violations = CheckOracles(s, x);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  ASSERT_EQ(x.results.size(), y.results.size());
  for (size_t i = 0; i < x.results.size(); ++i) {
    const WorkerResult& wx = x.results[i];
    const WorkerResult& wy = y.results[i];
    EXPECT_EQ(wx.pid, wy.pid);
    EXPECT_EQ(wx.joined_ok, wy.joined_ok);
    EXPECT_EQ(wx.report.aborted, wy.report.aborted);
    EXPECT_EQ(wx.report.steps_run, wy.report.steps_run);
    EXPECT_EQ(wx.report.final_world, wy.report.final_world);
    EXPECT_EQ(wx.report.repairs, wy.report.repairs);
    EXPECT_EQ(wx.report.first_loss, wy.report.first_loss);  // bitwise
    EXPECT_EQ(wx.report.last_loss, wy.report.last_loss);
    EXPECT_EQ(wx.report.final_params, wy.report.final_params);
    EXPECT_EQ(wx.end_time, wy.end_time);
  }
  EXPECT_EQ(x.horizon, y.horizon);
  EXPECT_EQ(x.repairs_metric, y.repairs_metric);
  ASSERT_EQ(x.replay_events.size(), y.replay_events.size());
  for (size_t i = 0; i < x.replay_events.size(); ++i) {
    EXPECT_EQ(x.replay_events[i].pid, y.replay_events[i].pid);
    EXPECT_EQ(x.replay_events[i].op_id, y.replay_events[i].op_id);
    EXPECT_EQ(x.replay_events[i].min_id, y.replay_events[i].min_id);
  }
  EXPECT_GT(x.repairs_metric, 0.0);
}

TEST(ChaosSmoke, AsyncAdmissionCampaignsViolateNoOracle) {
  // Pinned multi-seed batch with the async-admission draws enabled: the
  // nonblocking join-in-flight machinery must hold every oracle,
  // including the campaigns that kill the joiner mid-staging or a
  // survivor at the splice.
  GenConfig cfg;
  cfg.allow_async = true;
  int async_campaigns = 0;
  int async_phase_kills = 0;
  for (uint64_t seed = 101; seed < 116; ++seed) {
    Schedule s = GenerateSchedule(seed, cfg);
    if (s.shape.async_admission) ++async_campaigns;
    for (const auto& p : s.phased) {
      if (p.phase == "recovery/state_stage" ||
          p.phase == "recovery/expand_splice") {
        ++async_phase_kills;
      }
    }
    CampaignOutcome outcome = RunSchedule(s);
    auto violations = CheckOracles(s, outcome);
    EXPECT_TRUE(violations.empty())
        << "seed " << s.seed << ":\n" << FormatViolations(violations);
  }
  // The pinned range must actually exercise the new machinery.
  EXPECT_GE(async_campaigns, 2);
  EXPECT_GE(async_phase_kills, 1);
}

TEST(ChaosSmoke, AsyncDrawsAreGatedAndSchedulesRoundTrip) {
  // Old seeds keep generating byte-identical schedules with the async
  // draws off (the default): pre-async reproducers stay valid.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = GenerateSchedule(seed);
    EXPECT_FALSE(s.shape.async_admission);
  }
  // The new shape field survives the JSON round-trip...
  Schedule s = GenerateSchedule(3);
  s.shape.joins[1] = 1;
  s.shape.async_admission = true;
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(Schedule::FromJson(s.ToJson(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == s);
  // ...and JSON recorded before the field existed parses with it off.
  std::string legacy = GenerateSchedule(3).ToJson();
  const std::string field = "\"async_admission\": false, ";
  auto pos = legacy.find(field);
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, field.size());
  ASSERT_TRUE(Schedule::FromJson(legacy, &parsed, &error)) << error;
  EXPECT_FALSE(parsed.shape.async_admission);
}

TEST(ChaosSmoke, JoinerDyingWhileStagingKeepsOraclesGreen) {
  // Hand-built deterministic kill-point: the joiner announces, starts
  // staging, and dies before marking itself staged. The admission must
  // abort at its deadline and the survivors finish degraded.
  Schedule s;
  s.shape.world = 4;
  s.shape.epochs = 2;
  s.shape.steps_per_epoch = 4;
  s.shape.grad_buckets = 2;
  s.shape.inflight_window = 2;
  s.shape.joins[1] = 1;
  s.shape.async_admission = true;
  s.phased.push_back(
      PhaseKill{/*victim=*/4, "recovery/state_stage", 1, 0.0});
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  ASSERT_EQ(outcome.results.size(), 5u);
  const WorkerResult& joiner = outcome.results[4];
  EXPECT_EQ(joiner.join_epoch, 1);
  EXPECT_FALSE(joiner.joined_ok);
  EXPECT_TRUE(joiner.report.aborted);
  // Every founder finished on the unchanged membership.
  for (int pid = 0; pid < 4; ++pid) {
    EXPECT_FALSE(outcome.results[pid].report.aborted);
    EXPECT_EQ(outcome.results[pid].report.final_world, 4);
  }
}

TEST(ChaosSmoke, SurvivorDyingMidSpliceKeepsOraclesGreen) {
  // Hand-built deterministic kill-point: a survivor dies as it enters
  // the splice. The remaining survivors and the staged joiner carry the
  // merged membership; the victim is repaired away.
  Schedule s;
  s.shape.world = 4;
  s.shape.epochs = 2;
  s.shape.steps_per_epoch = 4;
  s.shape.grad_buckets = 2;
  s.shape.inflight_window = 2;
  s.shape.joins[1] = 1;
  s.shape.async_admission = true;
  s.phased.push_back(
      PhaseKill{/*victim=*/2, "recovery/expand_splice", 1, 0.0});
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  ASSERT_EQ(outcome.results.size(), 5u);
  EXPECT_TRUE(outcome.results[2].report.aborted);  // the splice victim
  const WorkerResult& joiner = outcome.results[4];
  EXPECT_TRUE(joiner.joined_ok);
  EXPECT_FALSE(joiner.report.aborted);
  for (int pid : {0, 1, 3}) {
    EXPECT_FALSE(outcome.results[pid].report.aborted);
    EXPECT_EQ(outcome.results[pid].report.final_world, 4);  // 3 + joiner
  }
}

TEST(ChaosSmoke, AsyncJoinerAdmitsWithANonzeroCatchUpDelta) {
  // Regression pin for the hardcoded-zero catch-up bug: the async
  // joiner used to contribute steps_behind = 0 to the delta-sync
  // agreement, so the spread collapsed to "joiner is current" and the
  // catch-up was priced as free. Members now contribute absolute
  // global-step POSITIONS (the joiner its staged snapshot's), so this
  // campaign — a joiner staging a boundary snapshot while the
  // survivors keep stepping — must record a nonzero agreed spread and
  // still replay clean under every oracle.
  Schedule s;
  s.shape.world = 4;
  s.shape.epochs = 3;
  s.shape.steps_per_epoch = 6;
  s.shape.grad_buckets = 2;
  s.shape.inflight_window = 2;
  s.shape.joins[1] = 1;
  s.shape.async_admission = true;
  const obs::Histogram::Snapshot before =
      obs::ExportSinkSnapshot().HistogramSnapshot(
          "rcc_delta_sync_steps_behind");
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  ASSERT_EQ(outcome.results.size(), 5u);
  const WorkerResult& joiner = outcome.results[4];
  EXPECT_TRUE(joiner.joined_ok);
  EXPECT_FALSE(joiner.report.aborted);
  // The campaign's simulation folded its metrics into the export sink
  // when it ended: the admission observed a real gap (every observation
  // is a non-negative spread, so a sum of at least 1 means a gap).
  const obs::Histogram::Snapshot after =
      obs::ExportSinkSnapshot().HistogramSnapshot(
          "rcc_delta_sync_steps_behind");
  ASSERT_GE(after.count, before.count + 1);
  EXPECT_GE(after.sum - before.sum, 1.0);
}

TEST(ChaosSmoke, ServingCampaignsViolateNoOracle) {
  // Pinned multi-seed batch with the serving-plane draws enabled: the
  // continuous-batching serving campaigns must hold P0/P3/P6/P7 plus the
  // serving exactly-once oracle P8 under the generator's background
  // kills, including campaigns that park autoscaler standbys.
  GenConfig cfg;
  cfg.allow_serving = true;
  int serving_campaigns = 0;
  int serving_with_kills = 0;
  int standby_campaigns = 0;
  for (uint64_t seed = 201; seed < 209; ++seed) {
    Schedule s = GenerateSchedule(seed, cfg);
    if (s.shape.serving) {
      ++serving_campaigns;
      if (s.EventCount() > 0) ++serving_with_kills;
      if (s.shape.serve_standbys > 0) ++standby_campaigns;
    }
    CampaignOutcome outcome = RunSchedule(s);
    auto violations = CheckOracles(s, outcome);
    EXPECT_TRUE(violations.empty())
        << "seed " << s.seed << ":\n" << FormatViolations(violations);
  }
  // The pinned range must actually exercise the serving plane.
  EXPECT_GE(serving_campaigns, 3);
  EXPECT_GE(serving_with_kills, 1);
  EXPECT_GE(standby_campaigns, 1);
}

TEST(ChaosSmoke, GracefulLeaveIsNotANodeFailure) {
  // Pinned serving seed 6023: world 3 on one 3-GPU node, node-drop
  // policy, no kills. The autoscaler's voluntary scale-down leaves
  // through ulfm::LeaveGracefully; the leaver's node-mates must keep
  // serving instead of dropping out as if their node had failed.
  GenConfig cfg;
  cfg.allow_serving = true;
  Schedule s = GenerateSchedule(6023, cfg);
  ASSERT_TRUE(s.shape.serving);
  ASSERT_EQ(s.shape.policy, horovod::DropPolicy::kNode);
  ASSERT_EQ(s.EventCount(), 0);
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  int finishers = 0;
  for (const WorkerResult& r : outcome.results) {
    if (!r.report.aborted) ++finishers;
  }
  EXPECT_EQ(finishers, static_cast<int>(outcome.results.size()));
}

TEST(ChaosSmoke, ServingDrawsAreGatedAndSchedulesRoundTrip) {
  // Old seeds keep generating byte-identical schedules with the serving
  // draws off (the default): pre-serving reproducers stay valid, and
  // their JSON carries no serving fields at all.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = GenerateSchedule(seed);
    EXPECT_FALSE(s.shape.serving);
    EXPECT_EQ(s.ToJson().find("serving"), std::string::npos);
  }
  // The serving shape fields survive the JSON round-trip...
  Schedule s = GenerateSchedule(3);
  s.shape.serving = true;
  s.shape.serve_requests = 32;
  s.shape.serve_rps = 87.5;
  s.shape.serve_max_batch = 4;
  s.shape.serve_standbys = 1;
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(Schedule::FromJson(s.ToJson(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == s);
  // ...and JSON recorded before the fields existed parses with them off.
  ASSERT_TRUE(
      Schedule::FromJson(GenerateSchedule(3).ToJson(), &parsed, &error))
      << error;
  EXPECT_FALSE(parsed.shape.serving);
}

TEST(ChaosSmoke, ServingKillMidDecodeKeepsEveryAdmittedRequest) {
  // Hand-built P8 probe: one founder dies mid-service. The survivors
  // must finish every admitted request exactly once (no drops, no
  // double-completions), and two replays of the same schedule must
  // agree on the replicated-state digests bit for bit.
  Schedule s;
  s.shape.world = 4;
  s.shape.serving = true;
  s.shape.serve_requests = 32;
  s.shape.serve_rps = 120.0;
  s.shape.serve_max_batch = 4;
  s.shape.serve_standbys = 1;
  const double horizon = EstimateHorizon(s);
  ASSERT_GT(horizon, 0.0);
  s.timed.push_back(
      TimedKill{sim::FailScope::kProcess, /*target=*/2, 0.5 * horizon});

  CampaignOutcome x = RunSchedule(s);
  auto violations = CheckOracles(s, x);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  EXPECT_GT(x.repairs_metric, 0.0);  // the kill really landed mid-service
  int finishers = 0;
  for (const WorkerResult& r : x.results) {
    if (r.serve.aborted || r.serve.left || r.serve.idle_standby) continue;
    ++finishers;
    EXPECT_EQ(r.serve.completed, 32);
  }
  EXPECT_GE(finishers, 2);

  CampaignOutcome y = RunSchedule(s);
  ASSERT_EQ(x.results.size(), y.results.size());
  for (size_t i = 0; i < x.results.size(); ++i) {
    EXPECT_EQ(x.results[i].pid, y.results[i].pid);
    EXPECT_EQ(x.results[i].serve.digest, y.results[i].serve.digest);
    EXPECT_EQ(x.results[i].serve.completed, y.results[i].serve.completed);
    EXPECT_EQ(x.results[i].serve.repairs, y.results[i].serve.repairs);
    EXPECT_EQ(x.results[i].end_time, y.results[i].end_time);
  }
  EXPECT_EQ(x.horizon, y.horizon);
  EXPECT_EQ(x.repairs_metric, y.repairs_metric);
}

TEST(ChaosSmoke, PolicyCampaignsViolateNoOracleIncludingP9) {
  // Pinned multi-seed batch with the adaptive-policy draws enabled:
  // every decision the controller takes must re-derive bitwise from its
  // broadcast inputs and beat every applicable static alternative (the
  // P9 decision oracle), alongside the standard trainer oracles. Seed
  // 108 is the regression pin for the replacement-splice-at-join-
  // boundary deadlock.
  GenConfig cfg;
  cfg.allow_policy = true;
  int policy_campaigns = 0;
  int replacements_drawn = 0;
  int decisions_total = 0;
  for (uint64_t seed = 100; seed <= 108; ++seed) {
    Schedule s = GenerateSchedule(seed, cfg);
    if (!s.shape.policy_mode.empty()) ++policy_campaigns;
    replacements_drawn += s.shape.replacements;
    CampaignOutcome outcome = RunSchedule(s);
    for (const auto& r : outcome.results) {
      decisions_total += static_cast<int>(r.report.decisions.size());
    }
    auto violations = CheckOracles(s, outcome);
    EXPECT_TRUE(violations.empty())
        << "seed " << s.seed << ":\n" << FormatViolations(violations);
  }
  // The pinned range must actually exercise the controller: adaptive
  // campaigns with provisioned replacement slots and logged decisions.
  EXPECT_GE(policy_campaigns, 8);
  EXPECT_GE(replacements_drawn, 8);
  EXPECT_GE(decisions_total, 8);
}

TEST(ChaosSmoke, RootDeathInsidePolicyBroadcastHandsOverTheTick) {
  // Pinned ASYNC+POLICY seed 1010: rank 0 dies inside a policy tick's
  // input broadcast. The repaired attempt's new rank 0 composes the
  // inputs itself; when the survivors instead received an empty blob,
  // both failed to decode it and the campaign stalled the engine.
  GenConfig cfg;
  cfg.allow_async = true;
  cfg.allow_policy = true;
  Schedule s = GenerateSchedule(1010, cfg);
  ASSERT_FALSE(s.shape.policy_mode.empty());
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  int finishers = 0;
  for (const WorkerResult& r : outcome.results) {
    if (!r.report.aborted) ++finishers;
  }
  EXPECT_EQ(finishers, 6);
  EXPECT_EQ(outcome.results.size(), 8u);
}

TEST(ChaosSmoke, PolicyDrawsAreGatedAndSchedulesRoundTrip) {
  // Old seeds keep generating byte-identical schedules with the policy
  // draws off (the default): pre-policy reproducers stay valid.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = GenerateSchedule(seed);
    EXPECT_TRUE(s.shape.policy_mode.empty());
    EXPECT_EQ(s.shape.replacements, 0);
    EXPECT_EQ(s.ToJson().find("policy_mode"), std::string::npos);
  }
  // The policy draws are appended after every existing draw, so turning
  // them on never perturbs the pre-existing fields — only the policy
  // fields and the extra failure-regime kills appended to `timed`.
  GenConfig cfg;
  cfg.allow_policy = true;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule legacy = GenerateSchedule(seed);
    Schedule pol = GenerateSchedule(seed, cfg);
    EXPECT_EQ(pol.shape.world, legacy.shape.world);
    EXPECT_EQ(pol.shape.epochs, legacy.shape.epochs);
    EXPECT_EQ(pol.shape.steps_per_epoch, legacy.shape.steps_per_epoch);
    EXPECT_EQ(pol.shape.inflight_window, legacy.shape.inflight_window);
    EXPECT_EQ(pol.shape.async_admission, legacy.shape.async_admission);
    EXPECT_TRUE(pol.shape.joins == legacy.shape.joins);
    // The events are NOT asserted identical: the appended regime kills
    // feed the liveness trim, which may drop tail events it kept in the
    // legacy schedule. The draw order still guarantees the pre-policy
    // prefix of the rng stream (everything above) is untouched.
  }
  // The new shape fields survive the JSON round-trip...
  Schedule s = GenerateSchedule(3);
  s.shape.policy_mode = "adaptive";
  s.shape.replacements = 2;
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(Schedule::FromJson(s.ToJson(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == s);
  // ...and JSON recorded before the fields existed parses with them off.
  ASSERT_TRUE(
      Schedule::FromJson(GenerateSchedule(3).ToJson(), &parsed, &error))
      << error;
  EXPECT_TRUE(parsed.shape.policy_mode.empty());
  EXPECT_EQ(parsed.shape.replacements, 0);
}

TEST(ChaosSmoke, PolicyDecisionLogIsByteDeterministic) {
  // The decision log — the canonical %.17g rendering included — must
  // replay byte for byte, which is what makes shrunk policy reproducers
  // trustworthy.
  GenConfig cfg;
  cfg.allow_policy = true;
  Schedule s = GenerateSchedule(302, cfg);
  ASSERT_FALSE(s.shape.policy_mode.empty());
  CampaignOutcome x = RunSchedule(s);
  CampaignOutcome y = RunSchedule(s);
  auto violations = CheckOracles(s, x);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  ASSERT_EQ(x.results.size(), y.results.size());
  int logged = 0;
  for (size_t i = 0; i < x.results.size(); ++i) {
    const WorkerResult& wx = x.results[i];
    const WorkerResult& wy = y.results[i];
    EXPECT_EQ(wx.pid, wy.pid);
    EXPECT_EQ(wx.report.aborted, wy.report.aborted);
    EXPECT_EQ(wx.report.steps_run, wy.report.steps_run);
    EXPECT_EQ(wx.report.rollback_steps, wy.report.rollback_steps);
    EXPECT_EQ(wx.report.final_params, wy.report.final_params);
    EXPECT_EQ(wx.end_time, wy.end_time);
    EXPECT_EQ(policy::FormatDecisionLog(wx.report.decisions),
              policy::FormatDecisionLog(wy.report.decisions));
    if (!wx.report.aborted && !wx.report.decisions.empty()) ++logged;
  }
  EXPECT_GE(logged, 1);
  EXPECT_EQ(x.horizon, y.horizon);
}

TEST(ChaosSmoke, PipelineCampaignsViolateNoOracleIncludingP10) {
  // Pinned multi-seed batch with the hybrid-parallel draws enabled:
  // every campaign founds a DP x PP x TP grid and must hold
  // P0/P1/P3/P6/P7/P9 plus the pipeline exactly-once oracle P10 across
  // the generator's background kills (re-routes, shrinks and restores
  // included).
  GenConfig cfg;
  cfg.allow_pp = true;
  int pp_with_kills = 0;
  int with_tp = 0;
  int three_stage = 0;
  int decisions_total = 0;
  for (uint64_t seed = 401; seed < 409; ++seed) {
    Schedule s = GenerateSchedule(seed, cfg);
    ASSERT_TRUE(s.shape.pipeline) << "seed " << seed;
    EXPECT_GE(s.shape.world, 2 * s.shape.pp_stages * s.shape.tp_size);
    EXPECT_TRUE(s.shape.joins.empty());  // pipeline campaigns never join
    if (s.EventCount() > 0) ++pp_with_kills;
    if (s.shape.tp_size >= 2) ++with_tp;
    if (s.shape.pp_stages >= 3) ++three_stage;
    CampaignOutcome outcome = RunSchedule(s);
    for (const auto& r : outcome.results) {
      decisions_total += static_cast<int>(r.pipe.decisions.size());
    }
    auto violations = CheckOracles(s, outcome);
    EXPECT_TRUE(violations.empty())
        << "seed " << s.seed << ":\n" << FormatViolations(violations);
  }
  // The pinned range must actually exercise the grid axes: campaigns
  // with kills (so recovery decisions fire), TP > 1 and 3-stage pipes.
  EXPECT_GE(pp_with_kills, 2);
  EXPECT_GE(with_tp, 1);
  EXPECT_GE(three_stage, 1);
  EXPECT_GE(decisions_total, 1);
}

// Tampers one finisher's first decision and returns the violations: a
// logged strategy its inputs do not derive (`rederive`), or a
// self-consistent decision on perturbed inputs under the same seq, which
// another finisher logged differently. Empty when the seed has fewer
// than two finishers sharing a decision.
std::vector<Violation> TamperedDecisionViolations(const Schedule& s,
                                                  bool rederive) {
  CampaignOutcome o = RunSchedule(s);
  std::vector<std::vector<policy::Decision>*> logs;
  for (WorkerResult& r : o.results) {
    const bool finisher = s.shape.pipeline
                              ? !r.pipe.aborted
                              : !(r.report.aborted || r.idle_replacement);
    auto* log = s.shape.pipeline ? &r.pipe.decisions : &r.report.decisions;
    if (finisher && !log->empty()) logs.push_back(log);
  }
  if (logs.size() < 2 || logs[0]->front().in.seq != logs[1]->front().in.seq) {
    return {};
  }
  policy::Decision& d = logs[0]->front();
  if (rederive) {
    d.chosen = d.chosen == policy::Strategy::kShrink
                   ? policy::Strategy::kRestore
                   : policy::Strategy::kShrink;
  } else {
    policy::PolicyInputs in = d.in;
    in.step_seconds = 2.0 * in.step_seconds + 1.0;
    d = policy::Decide(d.mode, in);
  }
  return CheckOracles(s, o);
}

TEST(ChaosSmoke, TamperedDecisionsViolateP9ForTrainerAndPipeline) {
  // P9's two reachable verdicts, with their exact text, on both the
  // trainer's and the pipeline's decision logs.
  for (const bool pipe : {false, true}) {
    GenConfig cfg;
    cfg.allow_policy = !pipe;
    cfg.allow_pp = pipe;
    bool checked = false;
    for (uint64_t seed = pipe ? 401 : 100; seed < (pipe ? 420 : 120) &&
                                           !checked;
         ++seed) {
      const Schedule s = GenerateSchedule(seed, cfg);
      const std::vector<Violation> rederived =
          TamperedDecisionViolations(s, /*rederive=*/true);
      if (rederived.empty()) continue;
      checked = true;
      ASSERT_EQ(rederived.size(), 1u) << FormatViolations(rederived);
      EXPECT_EQ(rederived[0].oracle, "P9");
      EXPECT_NE(rederived[0].detail.find(" does not re-derive from its "
                                         "inputs (logged "),
                std::string::npos)
          << rederived[0].detail;
      const std::vector<Violation> differ =
          TamperedDecisionViolations(s, /*rederive=*/false);
      ASSERT_EQ(differ.size(), 1u) << FormatViolations(differ);
      EXPECT_EQ(differ[0].oracle, "P9");
      EXPECT_EQ(differ[0].detail.rfind("decision seq ", 0), 0u)
          << differ[0].detail;
      EXPECT_NE(differ[0].detail.find(" differs between pid "),
                std::string::npos)
          << differ[0].detail;
    }
    EXPECT_TRUE(checked) << (pipe ? "pipeline" : "trainer")
                         << ": no seed with two finishers sharing a decision";
  }
}

TEST(ChaosSmoke, PipelineDrawsAreGatedAndSchedulesRoundTrip) {
  // Old seeds keep generating byte-identical schedules with the
  // pipeline draws off (the default): pre-pipeline reproducers stay
  // valid, and their JSON carries no pipeline fields at all.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = GenerateSchedule(seed);
    EXPECT_FALSE(s.shape.pipeline);
    EXPECT_EQ(s.ToJson().find("pipeline"), std::string::npos);
  }
  // The pipeline shape fields survive the JSON round-trip...
  Schedule s = GenerateSchedule(3);
  s.shape.pipeline = true;
  s.shape.pp_stages = 2;
  s.shape.tp_size = 2;
  s.shape.pp_microbatches = 6;
  s.shape.joins.clear();
  s.shape.async_admission = false;
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(Schedule::FromJson(s.ToJson(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == s);
  // ...and JSON recorded before the fields existed parses with them off.
  ASSERT_TRUE(
      Schedule::FromJson(GenerateSchedule(3).ToJson(), &parsed, &error))
      << error;
  EXPECT_FALSE(parsed.shape.pipeline);
  EXPECT_EQ(parsed.shape.pp_stages, 0);
}

TEST(ChaosSmoke, PipelineKillReplayIsByteDeterministicWithLedgers) {
  // Hand-built deterministic mid-1F1B kill on a 2-stage grid with a
  // spare: two replays must agree on every finisher's commit ledger,
  // exec log and decision log byte for byte (the property that makes
  // shrunk pipeline reproducers trustworthy).
  Schedule s;
  s.shape.world = 5;  // 2x2x1 slots + 1 spare
  s.shape.epochs = 2;
  s.shape.steps_per_epoch = 4;
  s.shape.pipeline = true;
  s.shape.pp_stages = 2;
  s.shape.tp_size = 1;
  s.shape.pp_microbatches = 4;
  s.shape.policy_mode = "adaptive";
  const double horizon = EstimateHorizon(s);
  ASSERT_GT(horizon, 0.0);
  s.timed.push_back(
      TimedKill{sim::FailScope::kProcess, /*target=*/1, 0.4 * horizon});

  CampaignOutcome x = RunSchedule(s);
  auto violations = CheckOracles(s, x);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
  EXPECT_GT(x.repairs_metric, 0.0);  // the kill landed mid-run
  CampaignOutcome y = RunSchedule(s);
  ASSERT_EQ(x.results.size(), y.results.size());
  int finishers = 0;
  for (size_t i = 0; i < x.results.size(); ++i) {
    const WorkerResult& wx = x.results[i];
    const WorkerResult& wy = y.results[i];
    EXPECT_EQ(wx.pid, wy.pid);
    EXPECT_EQ(wx.pipe.aborted, wy.pipe.aborted);
    EXPECT_EQ(core::FormatCommitLog(wx.pipe.commits),
              core::FormatCommitLog(wy.pipe.commits));
    EXPECT_EQ(core::FormatExecLog(wx.pipe.execs),
              core::FormatExecLog(wy.pipe.execs));
    EXPECT_EQ(policy::FormatDecisionLog(wx.pipe.decisions),
              policy::FormatDecisionLog(wy.pipe.decisions));
    EXPECT_EQ(wx.end_time, wy.end_time);
    if (!wx.pipe.aborted) ++finishers;
  }
  EXPECT_GE(finishers, 2);
  EXPECT_EQ(x.horizon, y.horizon);
}

TEST(ChaosSmoke, PlantedReplayBugIsCaughtAndShrunk) {
  // Plant: pid 0 participates in replayed collectives but never applies
  // the result (stale recvbuf) — a "replayed but not restored" bug.
  core::ResilientComm::TestOnlySetReplaySkip(
      [](int pid, int64_t) { return pid == 0; });

  Schedule s = GenerateSchedule(2);  // known to exercise windowed replay
  CampaignOutcome outcome = RunSchedule(s);
  auto violations = CheckOracles(s, outcome);
  ASSERT_TRUE(HasViolation(violations, "P2"))
      << "planted bug not caught:\n" << FormatViolations(violations);

  ShrinkResult shrunk = ShrinkSchedule(s, "P2");
  EXPECT_LE(shrunk.schedule.EventCount(), 2);
  EXPECT_TRUE(HasViolation(shrunk.violations, "P2"));

  // Reproducer JSON round-trips exactly and still violates on replay.
  std::string json = shrunk.schedule.ToJson();
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(Schedule::FromJson(json, &parsed, &error)) << error;
  ASSERT_TRUE(parsed == shrunk.schedule);
  CampaignOutcome replayed = RunSchedule(parsed);
  EXPECT_TRUE(HasViolation(CheckOracles(parsed, replayed), "P2"));

  core::ResilientComm::TestOnlySetReplaySkip(nullptr);

  // With the plant removed the same schedule is clean again.
  CampaignOutcome clean = RunSchedule(parsed);
  EXPECT_TRUE(CheckOracles(parsed, clean).empty());
}

// The plant applies to every allreduce entry, blocking or windowed: the
// same schedule run blocking (inflight_window 0, a window of one per
// bucket) is caught as well.
TEST(ChaosSmoke, PlantedReplayBugIsCaughtOnABlockingSchedule) {
  Schedule s = GenerateSchedule(2);
  s.shape.inflight_window = 0;
  core::ResilientComm::TestOnlySetReplaySkip(
      [](int pid, int64_t) { return pid == 0; });
  CampaignOutcome planted = RunSchedule(s);
  core::ResilientComm::TestOnlySetReplaySkip(nullptr);
  EXPECT_TRUE(HasViolation(CheckOracles(s, planted), "P2"))
      << "planted bug not caught:\n"
      << FormatViolations(CheckOracles(s, planted));

  CampaignOutcome clean = RunSchedule(s);
  EXPECT_TRUE(CheckOracles(s, clean).empty());
}

}  // namespace
}  // namespace rcc::chaos
