#include "bench_util.h"

#include <filesystem>

#include "core/ulfm_elastic.h"
#include "obs/export.h"

namespace rcc::bench {

const char* StackName(Stack stack) {
  return stack == Stack::kUlfm ? "ULFM MPI" : "Elastic Horovod";
}

const char* ScenarioName(Scenario scenario) {
  switch (scenario) {
    case Scenario::kDown: return "Down";
    case Scenario::kSame: return "Same";
    case Scenario::kUp: return "Up";
  }
  return "?";
}

horovod::SyntheticPlan MakeScenarioPlan(const dnn::ModelSpec& spec,
                                        Scenario scenario,
                                        horovod::DropPolicy level,
                                        int world) {
  horovod::SyntheticPlan plan;
  plan.spec = spec;
  plan.initial_world = world;
  plan.batch_per_worker = 32;
  plan.steps_per_epoch = 2;
  plan.epochs = scenario == Scenario::kSame ? 3 : 2;
  plan.max_physical_floats = 1024;
  plan.drop_policy = level;
  // ImageNet-scale epochs: 1.28M images split over the workers; the
  // simulated steps cover the mini-batches around the scripted events,
  // the rest is charged analytically (see SyntheticPlan).
  const double dataset = 1.28e6;
  const int total_steps = std::max(
      plan.steps_per_epoch,
      static_cast<int>(dataset / (plan.batch_per_worker * world)));
  plan.padded_steps_per_epoch = total_steps - plan.steps_per_epoch;
  sim::SimConfig cfg;
  const auto buckets =
      dnn::FusionBucketBytes(dnn::TensorParameterCounts(spec), plan.fusion_bytes);
  double ar_seconds = 0.0;
  for (size_t bytes : buckets) {
    ar_seconds += 2.0 * (world - 1) *
                  (cfg.net.inter_latency +
                   static_cast<double>(bytes) / world / cfg.net.inter_bandwidth);
  }
  plan.padded_step_seconds =
      dnn::StepComputeSeconds(spec, plan.batch_per_worker, cfg.net.gpu_flops) +
      ar_seconds;
  const int gpus_per_node = 6;  // Summit
  switch (scenario) {
    case Scenario::kDown:
      plan.failures.push_back({/*epoch=*/1, /*step=*/0, /*bucket=*/0,
                               /*victim_rank=*/world / 2,
                               sim::FailScope::kProcess});
      break;
    case Scenario::kSame:
      plan.failures.push_back(
          {1, 0, 0, world / 2, sim::FailScope::kProcess});
      plan.joins.push_back(
          {/*epoch=*/2,
           /*count=*/level == horovod::DropPolicy::kNode ? gpus_per_node : 1,
           /*cold=*/false});
      break;
    case Scenario::kUp:
      // Automated doubling of the worker count at the epoch boundary.
      plan.joins.push_back({/*epoch=*/1, /*count=*/world, /*cold=*/true});
      break;
  }
  return plan;
}

double RecoveryPhaseMean(const trace::Recorder& rec,
                         const std::string& name) {
  auto mean = rec.MeanByPhase();
  auto it = mean.find("recovery/" + name);
  return it == mean.end() ? 0.0 : it->second;
}

double RecoveryPhaseMin(const trace::Recorder& rec, const std::string& name) {
  auto by_min = rec.MinByPhase();
  auto it = by_min.find("recovery/" + name);
  return it == by_min.end() ? 0.0 : it->second;
}

double SumRecoveryGroup(const trace::Recorder& rec,
                        const std::vector<std::string>& names) {
  // Min per phase: rendezvous/expand events *wait* for slower
  // participants (e.g. a joiner blocks until the survivors reach the
  // epoch boundary); the fastest participant's duration is the pure
  // reconstruction work. Waiting shows up - correctly - in the
  // end-to-end overhead instead. One table for the whole group: each
  // table is a pass over the run's event log.
  const auto by_min = rec.MinByPhase();
  double total = 0;
  for (const std::string& name : names) {
    auto it = by_min.find("recovery/" + name);
    if (it != by_min.end()) total += it->second;
  }
  return total;
}

namespace {

horovod::RunStats RunPlan(Stack stack, const horovod::SyntheticPlan& plan,
                          trace::Recorder* rec) {
  sim::Cluster cluster;  // fresh Summit-like cluster per run
  if (stack == Stack::kUlfm) {
    return core::RunUlfmElastic(cluster, plan, rec);
  }
  return horovod::RunElasticHorovod(cluster, plan, rec);
}

}  // namespace

ScenarioCosts RunScenario(Stack stack, const dnn::ModelSpec& spec,
                          Scenario scenario, horovod::DropPolicy level,
                          int world) {
  namespace ph = horovod::phase;
  horovod::SyntheticPlan faulty = MakeScenarioPlan(spec, scenario, level, world);
  horovod::SyntheticPlan clean = faulty;
  clean.failures.clear();
  clean.joins.clear();

  // Only the faulty run's phases are read; the clean run needs no
  // recorder (its logs then keep only the always-on window).
  auto clean_stats = RunPlan(stack, clean, nullptr);
  trace::Recorder rec;
  auto stats = RunPlan(stack, faulty, &rec);

  ScenarioCosts costs;
  costs.stack = stack;
  costs.scenario = scenario;
  costs.level = level;
  costs.world = world;
  costs.final_world = stats.final_world;
  if (stack == Stack::kElasticHorovod) {
    costs.reconstruction = SumRecoveryGroup(
        rec, {ph::kCatchException, ph::kShutdown, ph::kBlacklist,
              ph::kElasticReinit, ph::kGlooReinit, ph::kRendezvousLocal,
              ph::kRendezvousGlobal, ph::kNcclReinit});
    costs.recompute = RecoveryPhaseMean(rec, ph::kRecompute);
  } else {
    costs.reconstruction = SumRecoveryGroup(
        rec, {ph::kUlfmRepair, ph::kUlfmExpand, ph::kNcclReinit});
    costs.recompute = RecoveryPhaseMean(rec, ph::kRetryCollective);
  }
  costs.worker_and_state =
      SumRecoveryGroup(rec, {ph::kWorkerInit, ph::kStateSync});
  costs.clean_time = clean_stats.completion_time;
  costs.faulty_time = stats.completion_time;
  costs.total_overhead = stats.completion_time - clean_stats.completion_time;
  // Env-driven observability dump: each scenario overwrites the files,
  // so they hold the final scenario's faulty-run trace and the metrics
  // accumulated over the whole bench.
  obs::DumpIfRequested(&rec);
  return costs;
}

void DumpObservability(const trace::Recorder& rec) {
  obs::DumpIfRequested(&rec);
}

void EmitTable(const Table& table, const std::string& title,
               const std::string& csv_name) {
  table.Print(title);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    table.WriteCsv("bench_results/" + csv_name);
    std::printf("(csv: bench_results/%s)\n", csv_name.c_str());
  }
}

void RunCostFigure(const dnn::ModelSpec& spec, const std::vector<int>& scales,
                   const std::string& figure_id) {
  Table table({"GPUs", "scenario", "level", "stack",
               "reconstruct+rendezvous (s)", "worker init+state (s)",
               "recompute (s)", "total overhead (s)"});
  for (int world : scales) {
    for (Scenario scenario :
         {Scenario::kDown, Scenario::kSame, Scenario::kUp}) {
      for (auto level :
           {horovod::DropPolicy::kProcess, horovod::DropPolicy::kNode}) {
        // Upscaling is level-independent (whole nodes join); run once.
        if (scenario == Scenario::kUp &&
            level == horovod::DropPolicy::kProcess) {
          continue;
        }
        for (Stack stack : {Stack::kElasticHorovod, Stack::kUlfm}) {
          ScenarioCosts c = RunScenario(stack, spec, scenario, level, world);
          table.AddRow(
              {std::to_string(world), ScenarioName(scenario),
               level == horovod::DropPolicy::kNode ? "node" : "process",
               StackName(stack), FormatDouble(c.reconstruction, 3),
               FormatDouble(c.worker_and_state, 3),
               FormatDouble(c.recompute, 3),
               FormatDouble(c.total_overhead, 3)});
          std::printf(".");
          std::fflush(stdout);
        }
      }
    }
  }
  std::printf("\n");
  EmitTable(table,
            figure_id + ": recovery/reconfiguration costs, " + spec.name +
                " (three scenarios, process vs node level)",
            figure_id + "_" + spec.name + ".csv");
}

}  // namespace rcc::bench
