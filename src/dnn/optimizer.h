// SGD with momentum and weight decay, plus the large-batch learning-rate
// schedule (linear scaling + gradual warmup, Goyal et al. 2017) the
// elastic trainer uses to stay stable when the worker count changes.
#pragma once

#include <vector>

#include "common/serial.h"
#include "dnn/tensor.h"

namespace rcc::dnn {

struct SgdOptions {
  float lr = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
};

class Sgd {
 public:
  Sgd(std::vector<Param*> params, SgdOptions opts);

  // Applies one update using Param::grad. `lr_scale` multiplies the base
  // learning rate (warmup / worker scaling).
  void Step(float lr_scale = 1.0f);

  const SgdOptions& options() const { return opts_; }
  void set_lr(float lr) { opts_.lr = lr; }

  // Momentum buffers are part of the training state (checkpointed and
  // synced to joiners alongside the parameters).
  void Serialize(ByteWriter* w) const;
  Status Deserialize(ByteReader* r);

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> velocity_;  // one per param, same shape
  SgdOptions opts_;
};

// Linear-scaling learning-rate rule with gradual warmup: the effective
// rate ramps from base_lr to base_lr * (workers / base_workers) over
// `warmup_steps`, then stays at the scaled value. Recomputed whenever
// the worker count changes (elastic rescaling).
class LinearScalingLr {
 public:
  LinearScalingLr(float base_lr, int base_workers, int warmup_steps)
      : base_lr_(base_lr),
        base_workers_(base_workers),
        warmup_steps_(warmup_steps) {}

  float LrAt(int step, int workers) const {
    const float target =
        base_lr_ * static_cast<float>(workers) / static_cast<float>(base_workers_);
    if (warmup_steps_ <= 0 || step >= warmup_steps_) return target;
    const float frac = static_cast<float>(step) / static_cast<float>(warmup_steps_);
    return base_lr_ + (target - base_lr_) * frac;
  }

 private:
  float base_lr_;
  int base_workers_;
  int warmup_steps_;
};

}  // namespace rcc::dnn
