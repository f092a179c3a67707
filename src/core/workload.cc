#include "core/workload.h"

#include <string>

#include "common/serial.h"
#include "dnn/layers.h"

namespace rcc::core {

DnnWorkload::DnnWorkload(sim::Endpoint& ep, dnn::Model* model, dnn::Sgd* opt,
                         const dnn::ClusterDataset* data,
                         int batch_per_worker, int grad_buckets)
    : ep_(ep),
      model_(model),
      opt_(opt),
      data_(data),
      batch_per_worker_(batch_per_worker),
      grad_buckets_(grad_buckets < 1 ? 1 : grad_buckets) {}

float DnnWorkload::Forward(int epoch, int step, int rank, int world) {
  // Per-worker shard of the global batch under the *current* membership
  // (after a shrink the survivors re-partition the data - degraded mode).
  dnn::Batch batch =
      data_->ShardBatch(epoch, step, batch_per_worker_, rank, world);
  model_->ZeroGrad();
  dnn::Tensor logits = model_->Forward(batch.x, /*train=*/true);
  dnn::SoftmaxCrossEntropy loss;
  const float value = loss.Forward(logits, batch.labels);
  model_->Backward(loss.Backward());
  ep_.Compute(3.0 * model_->LastForwardFlops());
  // Flatten the gradients into contiguous fusion buckets.
  flat_.clear();
  for (dnn::Param* p : model_->Params()) {
    flat_.insert(flat_.end(), p->grad.data(), p->grad.data() + p->grad.size());
  }
  buckets_.clear();
  for (int b = 0; b < grad_buckets_; ++b) {
    const size_t begin = flat_.size() * static_cast<size_t>(b) / grad_buckets_;
    const size_t end =
        flat_.size() * static_cast<size_t>(b + 1) / grad_buckets_;
    buckets_.push_back({flat_.data() + begin, end - begin, 1.0});
  }
  return value;
}

void DnnWorkload::Apply(const std::vector<float>& reduced, float inv,
                        float lr_scale) {
  size_t off = 0;
  for (dnn::Param* p : model_->Params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      p->grad[i] = reduced[off + i] * inv;
    }
    off += p->grad.size();
  }
  opt_->Step(lr_scale);
}

double DnnWorkload::ComputeSeconds() const {
  return 3.0 * model_->LastForwardFlops() /
         ep_.fabric().config().net.gpu_flops;
}

std::vector<uint8_t> DnnWorkload::Capture(
    const checkpoint::TrainingCursor& cursor) const {
  return checkpoint::Capture(*model_, *opt_, cursor).blob;
}

Status DnnWorkload::Restore(const std::vector<uint8_t>& blob,
                            double /*fraction*/,
                            checkpoint::TrainingCursor* cursor) {
  checkpoint::Snapshot snap;
  snap.blob = blob;
  return checkpoint::Restore(snap, model_, opt_, cursor);
}

namespace {

// Physical stand-in for the model state: the cursor, zero-padded.
constexpr size_t kCursorBlobBytes = 4096;

}  // namespace

SyntheticWorkload::SyntheticWorkload(sim::Endpoint& ep,
                                     const horovod::SyntheticPlan& plan,
                                     std::vector<horovod::Bucket> buckets,
                                     kv::Store* store)
    : ep_(ep),
      plan_(plan),
      buckets_(std::move(buckets)),
      store_(store),
      step_seconds_(dnn::StepComputeSeconds(
          plan.spec, plan.batch_per_worker,
          ep.fabric().config().net.gpu_flops)),
      model_bytes_(plan.spec.size_mb * 1e6) {
  for (const horovod::Bucket& b : buckets_) {
    views_.push_back({b.data.data(), b.data.size(), b.cost_scale()});
    total_bucket_bytes_ += b.virtual_bytes;
  }
}

float SyntheticWorkload::Forward(int /*epoch*/, int /*step*/, int /*rank*/,
                                 int /*world*/) {
  ep_.Busy(plan_.inflight_window < 1 ? step_seconds_ : step_seconds_ / 3.0);
  return 0.0f;
}

void SyntheticWorkload::Backward(size_t b) {
  if (plan_.inflight_window < 1) return;
  const double backward = step_seconds_ * 2.0 / 3.0;
  const double frac =
      total_bucket_bytes_ > 0
          ? buckets_[b].virtual_bytes / total_bucket_bytes_
          : 1.0 / static_cast<double>(buckets_.size());
  ep_.Busy(backward * frac);
}

void SyntheticWorkload::Apply(const std::vector<float>& reduced, float inv,
                              float /*lr_scale*/) {
  size_t off = 0;
  for (horovod::Bucket& b : buckets_) {
    for (size_t i = 0; i < b.data.size(); ++i) {
      b.data[i] = reduced[off + i] * inv;
    }
    off += b.data.size();
  }
}

std::vector<uint8_t> SyntheticWorkload::Capture(
    const checkpoint::TrainingCursor& cursor) const {
  ByteWriter w;
  w.WriteI32(cursor.epoch);
  w.WriteI32(cursor.step);
  std::vector<uint8_t> blob = w.Take();
  blob.resize(kCursorBlobBytes, 0);
  return blob;
}

double SyntheticWorkload::SyncCostScale(double fraction) const {
  return fraction * model_bytes_ / static_cast<double>(kCursorBlobBytes);
}

Status SyntheticWorkload::Restore(const std::vector<uint8_t>& blob,
                                  double fraction,
                                  checkpoint::TrainingCursor* cursor) {
  ByteReader r(blob);
  int32_t epoch = 0;
  int32_t step = 0;
  RCC_RETURN_IF_ERROR(r.ReadI32(&epoch));
  RCC_RETURN_IF_ERROR(r.ReadI32(&step));
  cursor->epoch = epoch;
  cursor->step = step;
  ep_.Busy(fraction * model_bytes_ /
           ep_.fabric().config().net.host_mem_bandwidth);
  return ep_.alive() ? Status::Ok()
                     : Status(Code::kAborted, "died materialising state");
}

void SyntheticWorkload::EpochBegin(int epoch, int rank) {
  if (rank != 0) return;
  store_->CompareAndSwap(&ep_, "epoch_start/" + std::to_string(epoch), 0,
                         {1});
}

void SyntheticWorkload::EpochEnd() {
  if (plan_.padded_steps_per_epoch > 0) {
    ep_.Busy(plan_.padded_steps_per_epoch * plan_.padded_step_seconds);
  }
}

void SyntheticWorkload::Repaired(int rank) {
  if (rank != 0) return;
  store_->CompareAndSwap(&ep_, "provision/failure", 0, {1});
}

}  // namespace rcc::core
