// What one data-parallel rank trains. ElasticTrainer owns the training
// loop: the per-step bucket reduction, scripted failures, admission,
// state sync and the policy tick. A Workload owns the numbers that loop
// moves and what they cost:
//
//  * DnnWorkload - real numerics: forward/backward on a dnn::Model, the
//    flat gradient split into contiguous buckets, an Sgd step, and the
//    serialized (model, optimizer, cursor) as the state. Used by the
//    tests, the examples and the chaos harness.
//  * SyntheticWorkload - declared sizes: a horovod::SyntheticPlan's
//    fusion buckets (small physical buffers priced at their declared
//    bytes), the model's step compute charged analytically, and a
//    4096-byte cursor blob priced at the model's declared size. Used by
//    the figure benches (core/ulfm_elastic.h).
#pragma once

#include <cstdint>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/status.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "horovod/plan.h"
#include "kvstore/kvstore.h"
#include "sim/endpoint.h"

namespace rcc::core {

class Workload {
 public:
  // One gradient bucket: `count` floats at `data`, priced on the wire at
  // `cost_scale` times their physical bytes.
  struct Bucket {
    const float* data = nullptr;
    size_t count = 0;
    double cost_scale = 1.0;
  };

  Workload() = default;
  virtual ~Workload() = default;
  // Implementations hand out views of their own buffers (Buckets).
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Stack label of the per-step metrics (obs::StepMetrics).
  virtual const char* stack() const = 0;

  // --- one training step ---
  // Runs step (epoch, step) as rank `rank` of `world` up to the gradient
  // reduction and charges the compute not split per bucket. Returns the
  // loss (0 without real numerics).
  virtual float Forward(int epoch, int step, int rank, int world) = 0;
  // The step's gradient buckets, reduced in this order.
  virtual const std::vector<Bucket>& Buckets() const = 0;
  // Backward slice producing bucket `b`, charged right before its
  // reduction is submitted.
  virtual void Backward(size_t /*b*/) {}
  // Optimizer step from the summed gradients (`reduced` holds the buckets
  // back to back), averaged by `inv`, learning rate scaled by `lr_scale`.
  virtual void Apply(const std::vector<float>& reduced, float inv,
                     float lr_scale) = 0;
  // Compute seconds the last step charged.
  virtual double ComputeSeconds() const = 0;

  // --- training state ---
  virtual std::vector<uint8_t> Capture(
      const checkpoint::TrainingCursor& cursor) const = 0;
  // Declared size of a captured state (async snapshot publication).
  virtual double StateBytes(const std::vector<uint8_t>& blob) const = 0;
  // Broadcast cost scale of a state sync moving `fraction` of the state.
  virtual double SyncCostScale(double fraction) const = 0;
  // Restores a received state of which `fraction` travelled (0 for a
  // local rewind) and sets *cursor to its position.
  virtual Status Restore(const std::vector<uint8_t>& blob, double fraction,
                         checkpoint::TrainingCursor* cursor) = 0;
  // Parameters for cross-rank consistency checks (none by default).
  virtual void CopyParams(std::vector<float>* /*out*/) const {}

  // --- run bookkeeping at the loop's boundaries (no-ops by default) ---
  virtual void EpochBegin(int /*epoch*/, int /*rank*/) {}
  virtual void EpochEnd() {}
  // A step completed after one or more repairs of the communicator.
  virtual void Repaired(int /*rank*/) {}
};

class DnnWorkload : public Workload {
 public:
  // The flat gradient is split into `grad_buckets` contiguous buckets;
  // each rank trains on its shard of a `batch_per_worker` batch.
  DnnWorkload(sim::Endpoint& ep, dnn::Model* model, dnn::Sgd* opt,
              const dnn::ClusterDataset* data, int batch_per_worker,
              int grad_buckets);

  const char* stack() const override { return "elastic_trainer"; }
  float Forward(int epoch, int step, int rank, int world) override;
  const std::vector<Bucket>& Buckets() const override { return buckets_; }
  void Apply(const std::vector<float>& reduced, float inv,
             float lr_scale) override;
  double ComputeSeconds() const override;
  std::vector<uint8_t> Capture(
      const checkpoint::TrainingCursor& cursor) const override;
  double StateBytes(const std::vector<uint8_t>& blob) const override {
    return static_cast<double>(blob.size());
  }
  double SyncCostScale(double fraction) const override { return fraction; }
  Status Restore(const std::vector<uint8_t>& blob, double fraction,
                 checkpoint::TrainingCursor* cursor) override;
  void CopyParams(std::vector<float>* out) const override {
    model_->CopyParamsTo(out);
  }

 private:
  sim::Endpoint& ep_;
  dnn::Model* model_;
  dnn::Sgd* opt_;
  const dnn::ClusterDataset* data_;
  int batch_per_worker_;
  int grad_buckets_;
  std::vector<float> flat_;  // this step's flattened gradient
  std::vector<Bucket> buckets_;
};

class SyntheticWorkload : public Workload {
 public:
  // `buckets` are the plan's fusion buckets (horovod::MakeBuckets, built
  // once per run); `store` carries the rank-0 progress beacons joiners
  // provision on (see EpochBegin / Repaired).
  SyntheticWorkload(sim::Endpoint& ep, const horovod::SyntheticPlan& plan,
                    std::vector<horovod::Bucket> buckets, kv::Store* store);

  const char* stack() const override { return "ulfm"; }
  // Blocking: the whole step's compute. Pipelined: the forward third;
  // the backward two thirds are sliced per bucket by declared bytes.
  float Forward(int epoch, int step, int rank, int world) override;
  const std::vector<Bucket>& Buckets() const override { return views_; }
  void Backward(size_t b) override;
  void Apply(const std::vector<float>& reduced, float inv,
             float lr_scale) override;
  double ComputeSeconds() const override { return step_seconds_; }
  std::vector<uint8_t> Capture(
      const checkpoint::TrainingCursor& cursor) const override;
  double StateBytes(const std::vector<uint8_t>& /*blob*/) const override {
    return model_bytes_;
  }
  double SyncCostScale(double fraction) const override;
  // Decodes the cursor and charges materialising the received tensors
  // at host memory bandwidth.
  Status Restore(const std::vector<uint8_t>& blob, double fraction,
                 checkpoint::TrainingCursor* cursor) override;
  // Rank 0 marks epoch `epoch` begun: cold joiners for epoch + 1 start
  // provisioning then (resource-availability model, DESIGN.md).
  void EpochBegin(int epoch, int rank) override;
  // The rest of the epoch, charged analytically (plan padding).
  void EpochEnd() override;
  // Rank 0 signals the confirmed failure: warm replacements (Scenario
  // II) start provisioning.
  void Repaired(int rank) override;

 private:
  sim::Endpoint& ep_;
  const horovod::SyntheticPlan& plan_;
  std::vector<horovod::Bucket> buckets_;
  std::vector<Bucket> views_;
  kv::Store* store_;
  double step_seconds_;
  double model_bytes_;
  double total_bucket_bytes_ = 0;  // declared, over every bucket
};

}  // namespace rcc::core
