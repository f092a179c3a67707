// Quickstart: elastic data-parallel training that survives a worker
// failure mid-epoch with forward recovery.
//
// Four simulated workers train a small MLP on the spiral dataset through
// the resilient collectives. Halfway through training one worker dies;
// the survivors revoke/agree/shrink, re-execute only the failed gradient
// allreduce, and keep training - no checkpoint, no rollback, no restart.
//
//   ./examples/quickstart
#include <cstdio>

#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "dnn/data.h"
#include "dnn/model.h"

using namespace rcc;

int main() {
  const int kWorkers = 4;
  const int kClasses = 3;
  dnn::ClusterDataset data(/*dim=*/8, kClasses, /*num_samples=*/2048,
                           /*seed=*/2026);

  core::TrainerOptions opts;
  opts.batch_per_worker = 16;
  opts.steps_per_epoch = 20;
  opts.epochs = 4;
  opts.sgd = {0.08f, 0.9f, 0.0f};
  // Scripted fault: the worker holding rank 2 dies at epoch 1, step 10.
  opts.failures.push_back({/*epoch=*/1, /*step=*/10, /*bucket=*/0,
                           /*victim_rank=*/2, sim::FailScope::kProcess});

  std::vector<bool> failure_flags(1);

  sim::Cluster cluster;  // Summit-like simulated cluster (see rcc::sim)
  std::vector<int> pids{0, 1, 2, 3};
  std::vector<core::TrainerReport> reports;

  cluster.Spawn(kWorkers, [&](sim::Endpoint& ep) {
    dnn::Model model = dnn::BuildMlp(8, {32, 16}, kClasses, /*seed=*/7);
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess,
                           /*rec=*/nullptr);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    core::ElasticTrainer trainer(&rc, &work, opts, &failure_flags);
    reports.push_back(trainer.Run());
  });
  cluster.Join();

  std::printf("worker reports:\n");
  for (const auto& r : reports) {
    if (r.aborted) {
      std::printf("  [failed worker] executed %d steps, then died\n",
                  r.steps_run);
    } else {
      std::printf(
          "  [survivor] %d steps, loss %.3f -> %.3f, final world %d, "
          "repairs %d\n",
          r.steps_run, r.first_loss, r.last_loss, r.final_world, r.repairs);
    }
  }

  // Every survivor executed every planned step exactly once (forward
  // recovery re-runs collectives, never training steps) and all replicas
  // hold bit-identical parameters.
  const core::TrainerReport* ref = nullptr;
  bool consistent = true;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    if (ref == nullptr) {
      ref = &r;
    } else if (r.final_params != ref->final_params) {
      consistent = false;
    }
  }
  std::printf("replicas consistent after recovery: %s\n",
              consistent ? "yes" : "NO");
  std::printf("loss decreased across the failure: %s\n",
              (ref != nullptr && ref->last_loss < ref->first_loss) ? "yes"
                                                                   : "NO");
  return consistent ? 0 : 1;
}
