#include "dnn/optimizer.h"

namespace rcc::dnn {

Sgd::Sgd(std::vector<Param*> params, SgdOptions opts)
    : params_(std::move(params)), opts_(opts) {
  velocity_.reserve(params_.size());
  for (Param* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::Step(float lr_scale) {
  const float lr = opts_.lr * lr_scale;
  for (size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    Tensor& v = velocity_[k];
    for (size_t i = 0; i < p->value.size(); ++i) {
      float g = p->grad[i];
      if (opts_.weight_decay != 0.0f) g += opts_.weight_decay * p->value[i];
      v[i] = opts_.momentum * v[i] - lr * g;
      p->value[i] += v[i];
    }
  }
}

void Sgd::Serialize(ByteWriter* w) const {
  w->WriteF32(opts_.lr);
  w->WriteF32(opts_.momentum);
  w->WriteF32(opts_.weight_decay);
  w->WriteU64(velocity_.size());
  for (const Tensor& v : velocity_) v.Serialize(w);
}

Status Sgd::Deserialize(ByteReader* r) {
  RCC_RETURN_IF_ERROR(r->ReadF32(&opts_.lr));
  RCC_RETURN_IF_ERROR(r->ReadF32(&opts_.momentum));
  RCC_RETURN_IF_ERROR(r->ReadF32(&opts_.weight_decay));
  uint64_t count = 0;
  RCC_RETURN_IF_ERROR(r->ReadU64(&count));
  if (count != velocity_.size()) {
    return Status(Code::kIoError, "optimizer state layout mismatch");
  }
  for (Tensor& v : velocity_) {
    Tensor t;
    RCC_RETURN_IF_ERROR(t.Deserialize(r));
    if (t.shape() != v.shape()) {
      return Status(Code::kIoError, "optimizer tensor shape mismatch");
    }
    v = std::move(t);
  }
  return Status::Ok();
}

}  // namespace rcc::dnn
