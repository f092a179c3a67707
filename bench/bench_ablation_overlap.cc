// Ablation: nonblocking bucket pipeline vs blocking allreduce. Sweeps
// the in-flight window on the ULFM stack (clean runs, no failures):
// window 0 runs compute then every bucket allreduce back-to-back; window
// W >= 1 submits each fused bucket's allreduce as soon as its backward
// slice produces it, keeping at most W requests outstanding, and only
// the optimizer step drains the window. Reports the marginal per-step
// time (fixed init cost differenced out), the modeled step-time
// reduction vs the blocking baseline, and the fraction of communication
// hidden under backprop — computed two independent ways: from the
// bench's own wall-clock differencing and from the driver's rcc_step_*
// counters (1 - exposed/service). The two must agree within 2 points;
// the overlap_trace_check ctest greps for the verdict line.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/ulfm_elastic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/params.h"

namespace {

using namespace rcc;

horovod::SyntheticPlan BasePlan(const dnn::ModelSpec& spec, int world) {
  horovod::SyntheticPlan plan;
  plan.spec = spec;
  plan.initial_world = world;
  plan.batch_per_worker = 32;
  plan.epochs = 1;
  plan.fusion_bytes = 16u << 20;  // finer buckets: pipeline has stages
  plan.drop_policy = horovod::DropPolicy::kProcess;
  return plan;
}

// Marginal per-step cost of one window setting: two clean runs differing
// only in step count, so rendezvous/init and the final sync difference
// out. The same differencing applies to each run's rcc_step_* counters
// (read from its simulation's registry), yielding the marginal comm
// service/exposed seconds behind the metrics-derived overlap fraction.
struct StepCost {
  double wall = 0;     // per-step seconds (virtual time)
  double service = 0;  // per-step comm engine seconds
  double exposed = 0;  // per-step exposed (non-overlapped) comm seconds
};

// `last_rec` receives the longer run's trace (cleared first), so after
// the sweep it holds the final configuration's timeline for
// RCC_TRACE_JSON.
StepCost MeasureStep(const horovod::SyntheticPlan& base, int window,
                     trace::Recorder* last_rec) {
  horovod::SyntheticPlan plan = base;
  plan.inflight_window = window;
  const obs::Labels labels{{"stack", "ulfm"}};
  const char* kService = "rcc_step_comm_service_seconds_total";
  const char* kExposed = "rcc_step_comm_exposed_seconds_total";
  double completion[2] = {0, 0}, service[2] = {0, 0}, exposed[2] = {0, 0};
  const int steps[2] = {2, 10};
  for (int i = 0; i < 2; ++i) {
    plan.steps_per_epoch = steps[i];
    trace::Recorder local;
    trace::Recorder* rec = (i == 1 && last_rec != nullptr) ? last_rec : &local;
    rec->Clear();
    sim::Cluster cluster;
    completion[i] = core::RunUlfmElastic(cluster, plan, rec).completion_time;
    const obs::Registry& reg = cluster.fabric().metrics();
    service[i] = reg.CounterValue(kService, labels);
    exposed[i] = reg.CounterValue(kExposed, labels);
  }
  const double dsteps = steps[1] - steps[0];
  StepCost cost;
  cost.wall = (completion[1] - completion[0]) / dsteps;
  cost.service = (service[1] - service[0]) / dsteps;
  cost.exposed = (exposed[1] - exposed[0]) / dsteps;
  return cost;
}

}  // namespace

int main() {
  using namespace rcc;
  const int world = 24;
  const sim::SimConfig cfg;

  trace::Recorder last_rec;
  Table table({"model", "buckets", "window", "step (s)", "vs blocking",
               "overlap ratio", "overlap (metrics)"});
  double max_delta = 0.0;
  bool all_ok = true;
  for (const auto& spec : {dnn::Vgg16Spec(), dnn::ResNet50V2Spec()}) {
    const horovod::SyntheticPlan base = BasePlan(spec, world);
    const size_t buckets =
        dnn::FusionBucketBytes(dnn::TensorParameterCounts(spec),
                               base.fusion_bytes)
            .size();
    const double compute = dnn::StepComputeSeconds(
        spec, base.batch_per_worker, cfg.net.gpu_flops);
    const StepCost blocking = MeasureStep(base, /*window=*/0, &last_rec);
    const double comm = blocking.wall - compute;  // exposed comm, blocking
    for (int window : {0, 1, 2, 4, 8}) {
      const StepCost cost =
          window == 0 ? blocking : MeasureStep(base, window, &last_rec);
      const double hidden = blocking.wall - cost.wall;
      const double bench_ratio = window == 0 ? 0.0 : hidden / comm;
      const double metrics_ratio =
          cost.service > 0 ? 1.0 - cost.exposed / cost.service : 0.0;
      if (window > 0) {
        const double delta = std::abs(bench_ratio - metrics_ratio);
        max_delta = std::max(max_delta, delta);
        all_ok = all_ok && delta <= 0.02;
      }
      table.AddRow(
          {spec.name, std::to_string(buckets), std::to_string(window),
           FormatDouble(cost.wall, 4),
           window == 0
               ? "baseline"
               : "-" + FormatDouble(100.0 * hidden / blocking.wall, 1) + "%",
           window == 0 ? "0%" : FormatDouble(100.0 * bench_ratio, 1) + "%",
           FormatDouble(100.0 * metrics_ratio, 1) + "%"});
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  bench::EmitTable(table,
                   "Ablation: allreduce/backprop overlap window, 24 GPUs "
                   "(ULFM stack, clean run, 16 MB fusion buckets)",
                   "ablation_overlap.csv");
  // Cross-check verdict: the counter-derived comm-hidden fraction must
  // track the wall-clock one (|delta| <= 0.02 per pipelined row).
  std::printf("overlap metrics check: %s (max |bench - metrics| = %.4f)\n",
              all_ok ? "OK" : "FAIL", max_delta);
  obs::DumpIfRequested(&last_rec);
  return all_ok ? 0 : 1;
}
