// Scenario II (replacement recovery) on a real model: a worker fails
// mid-epoch; the survivors finish the epoch in degraded mode (forward
// recovery), and at the next epoch boundary a pre-provisioned
// replacement joins, receives the full training state (model + optimizer
// + cursor) from rank 0, and training continues at the original world
// size - exactly the paper's Section 3.3.2.
//
//   ./examples/replacement_recovery
#include <cstdio>

#include "core/elastic_trainer.h"
#include "core/resilient.h"
#include "dnn/data.h"
#include "dnn/model.h"

using namespace rcc;

namespace {
dnn::Model MakeModel() { return dnn::BuildMlp(8, {24}, 3, /*seed=*/31); }
}  // namespace

int main() {
  dnn::ClusterDataset data(8, 3, 2048, /*seed=*/11);
  core::TrainerOptions opts;
  opts.batch_per_worker = 16;
  opts.steps_per_epoch = 12;
  opts.epochs = 3;
  // Epoch 0: rank 1 dies at step 6. Epoch 1 boundary: one replacement.
  opts.failures.push_back({0, 6, 0, 1, sim::FailScope::kProcess});
  opts.joins[1] = 1;

  std::vector<bool> flags(1);
  sim::Cluster cluster;
  std::vector<int> pids{0, 1, 2, 3};
  std::vector<core::TrainerReport> reports;

  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    dnn::Model model = MakeModel();
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess, nullptr);
    core::ElasticTrainer trainer(&rc, &work, opts, &flags);
    reports.push_back(trainer.Run());
  });
  // The replacement: joins the session named by the merge epoch, then
  // restores the broadcast state before training.
  cluster.SpawnOnFreshNodes(1, [&](sim::Endpoint& ep) {
    dnn::Model model = MakeModel();
    dnn::Sgd opt(model.Params(), opts.sgd);
    core::DnnWorkload work(ep, &model, &opt, &data, opts.batch_per_worker,
                           opts.grad_buckets);
    // Warm start: the standby process only re-creates its device context.
    auto provision = [&] {
      ep.Busy(ep.fabric().config().costs.worker_warmstart);
      return true;
    };
    core::TrainerState state(&work, opts.steps_per_epoch);
    core::StepBoundary::Admission adm = core::StepBoundary::Join(
        ep, &state, opts.store, core::ElasticTrainer::JoinSession(1),
        /*joiners=*/1, /*async=*/false, opts.drop_policy, nullptr, provision);
    if (adm.rc == nullptr || !adm.synced.ok()) return;
    std::printf("[replacement] joined at epoch %d with synced state\n",
                state.cursor.epoch);
    core::ElasticTrainer trainer(adm.rc.get(), &work, opts, &flags);
    reports.push_back(
        trainer.Run(state.cursor, /*joined_at_epoch=*/state.cursor.epoch));
  }, /*start_time=*/0.0);
  cluster.Join();

  int final_world = -1;
  int finishers = 0;
  bool consistent = true;
  const core::TrainerReport* ref = nullptr;
  for (const auto& r : reports) {
    if (r.aborted) continue;
    ++finishers;
    final_world = r.final_world;
    if (ref == nullptr) {
      ref = &r;
    } else if (r.final_params != ref->final_params) {
      consistent = false;
    }
  }
  std::printf(
      "finishers: %d, final world: %d (original 4), replicas consistent: "
      "%s\n",
      finishers, final_world, consistent ? "yes" : "NO");
  return (final_world == 4 && consistent) ? 0 : 1;
}
