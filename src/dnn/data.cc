#include "dnn/data.h"

#include <algorithm>
#include <cmath>

namespace rcc::dnn {

ClusterDataset::ClusterDataset(int dim, int classes, int num_samples,
                               uint64_t seed, float noise)
    : dim_(dim), classes_(classes), num_samples_(num_samples) {
  std::vector<float> centroids(static_cast<size_t>(classes) * dim);
  Rng centroid_rng(seed, /*stream=*/1);
  for (float& c : centroids) c = centroid_rng.NextFloat(-2.0f, 2.0f);
  samples_.resize(static_cast<size_t>(num_samples) * dim);
  labels_.resize(num_samples);
  for (int i = 0; i < num_samples; ++i) {
    Rng rng(seed, /*stream=*/1000 + static_cast<uint64_t>(i));
    const int label = static_cast<int>(rng.NextBelow(classes));
    const float* c = centroids.data() + static_cast<size_t>(label) * dim;
    float* x = samples_.data() + static_cast<size_t>(i) * dim;
    for (int d = 0; d < dim; ++d) {
      x[d] = c[d] + static_cast<float>(rng.NextGaussian()) * noise;
    }
    labels_[i] = label;
  }
}

int ClusterDataset::Sample(int i, float* x) const {
  const float* src = samples_.data() + static_cast<size_t>(i) * dim_;
  std::copy(src, src + dim_, x);
  return labels_[i];
}

Batch ClusterDataset::GetBatch(int start, int count) const {
  Batch batch;
  batch.x = Tensor({count, dim_});
  batch.labels.resize(count);
  for (int n = 0; n < count; ++n) {
    const int i = (start + n) % num_samples_;
    batch.labels[n] =
        Sample(i, batch.x.data() + static_cast<size_t>(n) * dim_);
  }
  return batch;
}

Batch ClusterDataset::ShardBatch(int epoch, int step, int batch_per_worker,
                                 int rank, int world) const {
  Batch batch;
  batch.x = Tensor({batch_per_worker, dim_});
  batch.labels.resize(batch_per_worker);
  // Round-robin shard with an epoch-dependent offset so successive
  // epochs visit samples in a different order.
  const int base = epoch * 7919 + step * batch_per_worker * world;
  for (int n = 0; n < batch_per_worker; ++n) {
    const int i = (base + n * world + rank) % num_samples_;
    batch.labels[n] =
        Sample(i, batch.x.data() + static_cast<size_t>(n) * dim_);
  }
  return batch;
}

SpiralDataset::SpiralDataset(int classes, int samples_per_class,
                             uint64_t seed, float noise)
    : classes_(classes) {
  Rng rng(seed, /*stream=*/2);
  const int n = samples_per_class;
  points_.reserve(static_cast<size_t>(classes) * n * 2);
  labels_.reserve(static_cast<size_t>(classes) * n);
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < n; ++i) {
      const float t = static_cast<float>(i) / static_cast<float>(n);
      const float radius = 0.1f + 0.9f * t;
      const float angle =
          t * 4.0f + static_cast<float>(c) * 6.2831853f / classes_ +
          static_cast<float>(rng.NextGaussian()) * noise;
      points_.push_back(radius * std::cos(angle));
      points_.push_back(radius * std::sin(angle));
      labels_.push_back(c);
    }
  }
}

Batch SpiralDataset::GetBatch(int start, int count) const {
  Batch batch;
  batch.x = Tensor({count, 2});
  batch.labels.resize(count);
  const int total = size();
  for (int n = 0; n < count; ++n) {
    const int i = (start + n) % total;
    batch.x.data()[2 * n] = points_[2 * i];
    batch.x.data()[2 * n + 1] = points_[2 * i + 1];
    batch.labels[n] = labels_[i];
  }
  return batch;
}

SyntheticImageDataset::SyntheticImageDataset(int channels, int hw,
                                             int classes, int num_samples,
                                             uint64_t seed)
    : channels_(channels),
      hw_(hw),
      classes_(classes),
      num_samples_(num_samples),
      seed_(seed) {}

Batch SyntheticImageDataset::GetBatch(int start, int count) const {
  Batch batch;
  batch.x = Tensor({count, channels_, hw_, hw_});
  batch.labels.resize(count);
  for (int n = 0; n < count; ++n) {
    const int i = (start + n) % num_samples_;
    Rng rng(seed_, /*stream=*/5000 + static_cast<uint64_t>(i));
    const int label = static_cast<int>(rng.NextBelow(classes_));
    batch.labels[n] = label;
    // Class signature: a horizontal wave whose frequency encodes the
    // class, plus noise.
    const float freq = 1.0f + static_cast<float>(label);
    float* img = batch.x.data() +
                 static_cast<size_t>(n) * channels_ * hw_ * hw_;
    for (int c = 0; c < channels_; ++c) {
      for (int y = 0; y < hw_; ++y) {
        for (int x = 0; x < hw_; ++x) {
          const float wave =
              std::sin(freq * 6.2831853f * static_cast<float>(x) / hw_);
          img[(static_cast<size_t>(c) * hw_ + y) * hw_ + x] =
              wave + 0.3f * static_cast<float>(rng.NextGaussian());
        }
      }
    }
  }
  return batch;
}

}  // namespace rcc::dnn
