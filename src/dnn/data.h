// Deterministic synthetic datasets: substitutes for ImageNet in the
// paper's experiments (see DESIGN.md - pixel contents are irrelevant to
// the measured recovery/reconfiguration costs; tests and examples use
// these for real end-to-end numerics and convergence checks).
//
// Sample i is a pure function of (seed, i), so any worker can
// materialise any shard without data movement - exactly how the
// elastic trainer re-shards after a worker-count change.
// ClusterDataset computes every sample once at construction; its
// batches are copies.
#pragma once

#include <vector>

#include "common/rng.h"
#include "dnn/tensor.h"

namespace rcc::dnn {

struct Batch {
  Tensor x;
  std::vector<int> labels;
  int size() const { return static_cast<int>(labels.size()); }
};

// Gaussian-cluster classification in `dim` dimensions: class c has a
// deterministic random centroid; samples are centroid + noise. Sample i
// draws its label and noise from Rng(seed, stream 1000 + i).
class ClusterDataset {
 public:
  ClusterDataset(int dim, int classes, int num_samples, uint64_t seed,
                 float noise = 0.6f);

  int size() const { return num_samples_; }
  int dim() const { return dim_; }
  int classes() const { return classes_; }

  // Sample i (deterministic): fills `x` (dim floats) and returns label.
  int Sample(int i, float* x) const;

  // Batch [start, start+count), indices mod size().
  Batch GetBatch(int start, int count) const;

  // Data-parallel shard: worker `rank` of `world` draws sample indices
  // rank, rank+world, rank+2*world, ... within one epoch of `size()`
  // samples. Deterministic for any (rank, world) split.
  Batch ShardBatch(int epoch, int step, int batch_per_worker, int rank,
                   int world) const;

 private:
  int dim_, classes_, num_samples_;
  std::vector<float> samples_;  // [num_samples, dim]
  std::vector<int> labels_;     // [num_samples]
};

// 2-D interleaved spirals, `classes` arms: the classic nonlinearly
// separable toy problem used by the quickstart example to show real
// convergence across elastic events.
class SpiralDataset {
 public:
  SpiralDataset(int classes, int samples_per_class, uint64_t seed,
                float noise = 0.15f);
  int size() const { return static_cast<int>(labels_.size()); }
  int classes() const { return classes_; }
  Batch GetBatch(int start, int count) const;
  Batch All() const { return GetBatch(0, size()); }

 private:
  int classes_;
  std::vector<float> points_;  // [n, 2]
  std::vector<int> labels_;
};

// Image-like dataset for CNN paths: [channels, hw, hw] tensors whose
// per-class frequency signature makes them learnable.
class SyntheticImageDataset {
 public:
  SyntheticImageDataset(int channels, int hw, int classes, int num_samples,
                        uint64_t seed);
  int size() const { return num_samples_; }
  Batch GetBatch(int start, int count) const;

 private:
  int channels_, hw_, classes_, num_samples_;
  uint64_t seed_;
};

}  // namespace rcc::dnn
