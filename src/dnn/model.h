// Sequential model container: forward/backward over a layer stack,
// flattened parameter access for the data-parallel trainer, and stable
// serialisation for checkpoints and joiner state sync.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dnn/layers.h"
#include "dnn/tensor.h"

namespace rcc::dnn {

class Model {
 public:
  Model() = default;

  Model& Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Model& Emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  Tensor Forward(const Tensor& x, bool train);
  // Backward through every layer; gradients accumulate into Param::grad.
  void Backward(const Tensor& loss_grad);

  std::vector<Param*> Params() const;
  void ZeroGrad();

  size_t ParameterCount() const;
  // MACs of the last forward pass (drives the simulated compute time).
  double LastForwardFlops() const;

  // Copies all parameter values into / out of one flat buffer (rank->rank
  // state sync). Order is the layer/param declaration order.
  void CopyParamsTo(std::vector<float>* flat) const;
  Status CopyParamsFrom(const std::vector<float>& flat);

  // Full state (parameter tensors) serialisation.
  void Serialize(ByteWriter* w) const;
  Status Deserialize(ByteReader* r);

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// Builders used by tests and examples (small, fully-physical models).
Model BuildMlp(int in_features, const std::vector<int>& hidden, int classes,
               uint64_t seed);
Model BuildSmallCnn(int in_channels, int image_size, int classes,
                    uint64_t seed);

}  // namespace rcc::dnn
