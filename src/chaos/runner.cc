#include "chaos/runner.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <numeric>

#include "kvstore/kvstore.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/failure.h"

namespace rcc::chaos {

namespace {

// A phase-locked injection in flight: victim entry counting is per
// trigger (pk.victim fixed), so `count` tracks how many times the victim
// has entered the phase — deterministic in the victim's program order.
struct Trigger {
  PhaseKill pk;
  int count = 0;
  explicit Trigger(const PhaseKill& p) : pk(p) {}
};

}  // namespace

// Deterministic serving configuration for a serving-shape campaign.
serve::ServeOptions ServeOptionsFromSchedule(const Schedule& s) {
  const Shape& sh = s.shape;
  serve::ServeOptions o;
  o.traffic.seed = s.seed + 1;  // decoupled from the kill-placement rng
  o.traffic.requests = sh.serve_requests < 8 ? 8 : sh.serve_requests;
  o.traffic.base_rps = sh.serve_rps > 0 ? sh.serve_rps : 50.0;
  o.traffic.min_prompt = 4;
  o.traffic.max_prompt = 8;
  o.traffic.min_decode = 4;
  o.traffic.max_decode = 8;
  o.max_batch = sh.serve_max_batch < 2 ? 2 : sh.serve_max_batch;
  o.hidden = 64;
  o.model_bytes = 1e6;
  o.policy = sh.policy;
  o.autoscale.enabled = true;
  o.autoscale.queue_high = 6;
  o.autoscale.queue_low = 1;
  o.autoscale.low_steps = 16;
  o.autoscale.cooldown_steps = 8;
  o.autoscale.min_world = 2;
  o.autoscale.standby_pool = sh.serve_standbys;
  o.session = "serve-chaos";
  return o;
}

CampaignOutcome RunSchedule(const Schedule& schedule) {
  // Each schedule runs in a fresh simulation with its own event logs and
  // metrics, so a post-abort dump holds only this reproducer's history
  // and the policy inputs read only this campaign's failures.
  const Shape& sh = schedule.shape;
  sim::SimConfig cfg;
  cfg.gpus_per_node = sh.gpus_per_node;
  // Serving replicas warm-start: the weights arrive via the admission
  // protocol's background staging, not a full framework cold boot, so a
  // standby can realistically splice inside a serving campaign horizon.
  if (sh.serving) cfg.costs.worker_coldstart = 0.25;
  // Virtual-time compute inflation (policy bench): slows the simulated
  // GPU so step time matches paper-scale models; real time is unchanged.
  if (sh.compute_scale > 1.0) cfg.net.gpu_flops /= sh.compute_scale;
  sim::Cluster cluster(cfg);
  dnn::ClusterDataset data(8, 3, 512, 7);

  core::TrainerOptions opts;
  opts.epochs = sh.epochs;
  opts.steps_per_epoch = sh.steps_per_epoch;
  opts.grad_buckets = sh.grad_buckets;
  opts.inflight_window = sh.inflight_window;
  opts.drop_policy = sh.policy;
  opts.joins = sh.joins;
  kv::Store store;
  opts.store = &store;
  opts.async_admission = sh.async_admission;
  // Adaptive recovery policy: thread the mode + replacement pool into
  // every trainer (founders, joiners and replacements all tick
  // collectively).
  policy::Mode pmode = policy::Mode::kLegacy;
  if (!sh.policy_mode.empty()) {
    if (!policy::ModeFromName(sh.policy_mode, &pmode)) {
      pmode = policy::Mode::kAdaptive;
    }
  }
  const bool policy_on = pmode != policy::Mode::kLegacy && !sh.serving;
  if (policy_on) {
    opts.policy_mode = pmode;
    opts.replacement_pool = sh.replacements;
  }

  std::vector<bool> flags;  // no scripted failures

  trace::Recorder rec;
  std::deque<Trigger> triggers;
  for (const PhaseKill& pk : schedule.phased) triggers.emplace_back(pk);
  rec.SetPhaseStartHook(
      [&triggers](sim::Endpoint& ep, const std::string& phase) {
        for (Trigger& t : triggers) {
          if (t.pk.victim != ep.pid() || t.pk.phase != phase) continue;
          if (++t.count == t.pk.occurrence) {
            ep.ArmKillAt(ep.now() + t.pk.delay);
          }
        }
      });

  // Timed kills go through the pending-failure list *before* any spawn:
  // founders are armed at registration (before their tasks start) and
  // late-spawned joiners are armed the moment they register — no race
  // between arming and victim progress.
  for (const TimedKill& k : schedule.timed) {
    cluster.AddPendingFailure(sim::FailureEvent{k.scope, k.target, k.at});
  }

  std::vector<int> pids(sh.world);
  std::iota(pids.begin(), pids.end(), 0);
  std::vector<WorkerResult> results;

  // Joins the cluster and assembles the outcome; shared by the serving
  // and trainer campaign paths.
  auto finalize = [&]() {
    cluster.Join();
    rec.SetPhaseStartHook(nullptr);
    CampaignOutcome out;
    out.results = std::move(results);
    // Results land in task completion order; pid order is the stream
    // the oracles and determinism tests consume.
    std::sort(out.results.begin(), out.results.end(),
              [](const WorkerResult& a, const WorkerResult& b) {
                return a.pid < b.pid;
              });
    for (const WorkerResult& r : out.results) {
      out.horizon = std::max(out.horizon, r.end_time);
    }
    const obs::Registry& reg = cluster.fabric().metrics();
    out.repairs_metric = reg.CounterValue("rcc_recovery_repairs_total");
    out.replayed_metric = reg.CounterValue("rcc_recovery_replayed_ops_total");
    out.repair_span_count = static_cast<int>(
        rec.EventsForPhase(std::string("recovery/") +
                           horovod::phase::kUlfmRepair)
            .size());
    out.replay_events = rec.replay_events();
    out.logs = cluster.fabric().shared_logs();
    std::sort(out.replay_events.begin(), out.replay_events.end(),
              [](const trace::ReplayEvent& a, const trace::ReplayEvent& b) {
                return a.pid != b.pid ? a.pid < b.pid : a.op_id < b.op_id;
              });
    return out;
  };

  if (sh.serving) {
    // Serving-plane campaign: founders drive the continuous batcher over
    // the same resilient substrate; standbys park on the autoscaler's
    // kvstore keys and join through the async admission when queue
    // pressure opens an expand.
    serve::ServeOptions so = ServeOptionsFromSchedule(schedule);
    so.store = &store;
    cluster.Spawn(sh.world, [&, so](sim::Endpoint& ep) {
      core::ResilientComm rc(ep, pids, so.policy, &rec);
      serve::ServingDriver driver(&rc, so);
      WorkerResult r;
      r.pid = ep.pid();
      r.serve = driver.Run();
      r.report.aborted = r.serve.aborted;
      // The serving driver applies the exit dump rule itself.
      if (r.serve.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
      r.end_time = ep.now();
      results.push_back(std::move(r));
    });
    for (int i = 0; i < sh.serve_standbys; ++i) {
      cluster.SpawnOnFreshNodes(
          1,
          [&, so, i](sim::Endpoint& ep) {
            WorkerResult r;
            r.pid = ep.pid();
            r.join_epoch = 0;  // standby: a (potential) joiner worker
            r.serve = serve::ServingDriver::RunStandbyJoiner(ep, &store, so,
                                                             i, &rec);
            r.report.aborted = r.serve.aborted;
            if (r.serve.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
            r.end_time = ep.now();
            results.push_back(std::move(r));
          },
          /*start_time=*/0.0);
    }
    return finalize();
  }

  if (sh.pipeline) {
    // Hybrid-parallel pipeline campaign: every founder runs the
    // PipelineTrainer over the DP x PP x TP grid. All recovery
    // (re-route / shrink / restore) happens inside the world — no
    // joiner or replacement workers apply here.
    core::PipelineOptions po;
    po.dims.dp = 0;  // derive dp from the founding world
    po.dims.pp = sh.pp_stages > 0 ? sh.pp_stages : 2;
    po.dims.tp = sh.tp_size > 0 ? sh.tp_size : 1;
    po.microbatches = sh.pp_microbatches > 0 ? sh.pp_microbatches : 8;
    po.steps = sh.epochs * sh.steps_per_epoch;
    po.checkpoint_interval = std::max(1, sh.steps_per_epoch);
    po.policy_mode = policy_on ? pmode : policy::Mode::kAdaptive;
    cluster.Spawn(sh.world, [&, po](sim::Endpoint& ep) {
      core::ResilientComm rc(ep, pids, sh.policy, &rec);
      core::PipelineTrainer trainer(&rc, po);
      WorkerResult r;
      r.pid = ep.pid();
      r.pipe = trainer.Run();
      r.report.aborted = r.pipe.aborted;
      if (obs::DumpIfUnexplainedExit(ep, r.pipe.aborted)) {
        ep.fabric().Kill(ep.pid());
      }
      r.end_time = ep.now();
      results.push_back(std::move(r));
    });
    return finalize();
  }

  cluster.Spawn(sh.world, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, /*seed=*/99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    core::ResilientComm rc(ep, pids, opts.drop_policy, &rec);
    core::ElasticTrainer trainer(&rc, &work, opts, &flags);
    WorkerResult r;
    r.pid = ep.pid();
    r.report = trainer.Run();
    // A worker that aborts while its endpoint is still alive has exited
    // the job (e.g. an unrecoverable state-sync error): it dumps, and
    // peers must observe a process failure, not block forever on a
    // silent leaver.
    if (obs::DumpIfUnexplainedExit(ep, r.report.aborted)) {
      ep.fabric().Kill(ep.pid());
    }
    r.end_time = ep.now();
    results.push_back(std::move(r));
  });

  // Admits a joiner through `session` and trains it to the end. A
  // scheduled joiner does not re-run the boundary it entered through; a
  // replacement (`scheduled` false) spliced exactly at an epoch boundary
  // must take part in that boundary's scheduled-join collectives.
  auto join_and_train = [&](sim::Endpoint& ep, const std::string& session,
                            int count, bool async, bool scheduled,
                            WorkerResult* r) {
    dnn::Model model = dnn::BuildMlp(8, {12}, 3, /*seed=*/99);
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    core::TrainerState state(&work, opts.steps_per_epoch);
    core::StepBoundary::Admission adm = core::StepBoundary::Join(
        ep, &state, opts.store, session, count, async, opts.drop_policy, &rec);
    r->joined_ok = adm.rc != nullptr;
    if (adm.rc == nullptr || !adm.synced.ok()) {
      r->report.aborted = true;
    } else {
      r->start_epoch = state.cursor.epoch;
      r->start_step = state.cursor.step;
      core::ElasticTrainer trainer(adm.rc.get(), &work, opts, &flags);
      r->report =
          trainer.Run(state.cursor, scheduled ? state.cursor.epoch : -1);
    }
    // Same exit-is-a-failure rule as the founders: an aborted joiner
    // still registered in the fabric must die visibly.
    if (obs::DumpIfUnexplainedExit(ep, r->report.aborted)) {
      ep.fabric().Kill(ep.pid());
    }
  };

  for (const auto& [epoch, count] : sh.joins) {
    cluster.SpawnOnFreshNodes(
        count,
        [&, epoch, count](sim::Endpoint& ep) {
          WorkerResult r;
          r.pid = ep.pid();
          r.join_epoch = epoch;
          bool async_path = sh.async_admission;
          if (policy_on) {
            // The members decide wait-vs-async at the boundary and
            // publish the path; a provisioned joiner reads it before
            // picking its admission protocol.
            // Blocking kv wait, NOT a poll: the joiner's virtual clock
            // merges with the members' publication time, so the
            // rendezvous is a pure function of virtual time (a poll
            // loop would race its own clock ahead of the publication).
            auto path = store.Wait(&ep, "policy/join/" + std::to_string(epoch));
            if (path.ok()) {
              async_path = std::string(path.value().begin(),
                                       path.value().end()) == "async";
            }
          }
          join_and_train(ep, core::ElasticTrainer::JoinSession(epoch), count,
                         async_path, /*scheduled=*/true, &r);
          r.end_time = ep.now();
          results.push_back(std::move(r));
        },
        /*start_time=*/0.0);
  }

  // Replacement pool: one parked worker per policy slot. Each polls its
  // slot key until the controller consumes the slot (wait/async
  // admission), the run releases it ("done"), or the deadline passes.
  if (policy_on) {
    for (int slot = 0; slot < sh.replacements; ++slot) {
      cluster.SpawnOnFreshNodes(
          1,
          [&, slot](sim::Endpoint& ep) {
            WorkerResult r;
            r.pid = ep.pid();
            r.join_epoch = 0;  // a (potential) joiner worker
            // Park on the slot key with a blocking kv wait (same
            // deterministic-rendezvous reasoning as the joiner path;
            // the serving standbys park the same way). The run always
            // publishes a terminal value: a consumption ("wait:"/
            // "async:") or the end-of-run "done" release.
            std::string val;
            auto res =
                store.Wait(&ep, "policy/replace/" + std::to_string(slot));
            if (res.ok()) {
              val.assign(res.value().begin(), res.value().end());
            }
            if (val.empty() || val == "done") {
              r.idle_replacement = true;
            } else {
              join_and_train(ep, val.substr(val.find(':') + 1), 1,
                             /*async=*/val.rfind("async:", 0) == 0,
                             /*scheduled=*/false, &r);
            }
            r.end_time = ep.now();
            results.push_back(std::move(r));
          },
          /*start_time=*/0.0);
    }
  }

  return finalize();
}

double EstimateHorizon(const Schedule& schedule) {
  Schedule clean = schedule;
  clean.timed.clear();
  clean.phased.clear();
  return RunSchedule(clean).horizon;
}

}  // namespace rcc::chaos
