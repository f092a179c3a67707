// Training substrate: tensor ops, layer forward/backward (numerically
// grad-checked), optimizer, model serialisation, datasets, model zoo.
#include <gtest/gtest.h>

#include <cmath>

#include "dnn/data.h"
#include "dnn/layers.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "dnn/tensor.h"
#include "dnn/zoo.h"
#include "sim/params.h"

namespace rcc::dnn {
namespace {

// Central-difference gradient check: perturb each input element, compare
// loss slope with the backward pass. Loss = sum(y * w_loss) for a fixed
// random weighting so every output contributes.
void GradCheckInput(Layer& layer, Tensor x, float tolerance = 2e-2f) {
  Rng rng(17);
  Tensor y = layer.Forward(x, /*train=*/true);
  std::vector<float> loss_w(y.size());
  for (auto& w : loss_w) w = rng.NextFloat(-1.0f, 1.0f);
  Tensor grad_out(y.shape());
  for (size_t i = 0; i < y.size(); ++i) grad_out[i] = loss_w[i];
  Tensor grad_in = layer.Backward(grad_out);
  ASSERT_EQ(grad_in.size(), x.size());

  const float eps = 1e-2f;
  // Spot-check a deterministic subset to keep runtime bounded.
  for (size_t i = 0; i < x.size(); i += std::max<size_t>(1, x.size() / 37)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    Tensor yp = layer.Forward(xp, true);
    // Forward caches input; recompute the minus side after.
    float lp = 0;
    for (size_t k = 0; k < yp.size(); ++k) lp += yp[k] * loss_w[k];
    Tensor ym = layer.Forward(xm, true);
    float lm = 0;
    for (size_t k = 0; k < ym.size(); ++k) lm += ym[k] * loss_w[k];
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "input index " << i;
  }
  layer.Forward(x, true);  // restore cached state
}

Tensor RandomTensor(std::vector<int> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.NextFloat(-1.0f, 1.0f);
  return t;
}

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.bytes(), 96u);
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(1), 3);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[7] = 3.5f;
  t.Reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t[7], 3.5f);
}

TEST(Tensor, SerializeRoundTrip) {
  Tensor t = RandomTensor({3, 5}, 1);
  ByteWriter w;
  t.Serialize(&w);
  ByteReader r(w.data());
  Tensor u;
  ASSERT_TRUE(u.Deserialize(&r).ok());
  EXPECT_EQ(u.shape(), t.shape());
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Tensor, DeserializeRejectsShapeMismatch) {
  ByteWriter w;
  w.WriteU64(1);
  w.WriteI32(10);             // claims 10 elements
  w.WriteFloats(nullptr, 0);  // but none follow
  ByteReader r(w.data());
  Tensor t;
  EXPECT_FALSE(t.Deserialize(&r).ok());
}

TEST(Dense, ForwardComputesAffine) {
  Dense layer(2, 3, 42);
  // Overwrite weights with known values.
  auto params = layer.Params();
  Tensor& w = params[0]->value;  // [2,3]
  Tensor& b = params[1]->value;  // [3]
  for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  b[0] = 1;
  b[1] = 2;
  b[2] = 3;
  Tensor x({1, 2});
  x[0] = 1;
  x[1] = 2;
  Tensor y = layer.Forward(x, false);
  // y = x @ w + b = [1*0+2*3+1, 1*1+2*4+2, 1*2+2*5+3]
  EXPECT_EQ(y[0], 7.0f);
  EXPECT_EQ(y[1], 11.0f);
  EXPECT_EQ(y[2], 15.0f);
}

TEST(Dense, GradCheck) {
  Dense layer(4, 3, 7);
  GradCheckInput(layer, RandomTensor({2, 4}, 3));
}

TEST(Dense, WeightGradAccumulates) {
  Dense layer(2, 2, 1);
  Tensor x = RandomTensor({1, 2}, 5);
  layer.Forward(x, true);
  Tensor g({1, 2});
  g.Fill(1.0f);
  layer.Backward(g);
  auto params = layer.Params();
  const float first = params[0]->grad[0];
  layer.Forward(x, true);
  layer.Backward(g);
  EXPECT_NEAR(params[0]->grad[0], 2 * first, 1e-5);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1;
  x[1] = 2;
  x[2] = 0;
  x[3] = -0.5;
  Tensor y = relu.Forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[2], 0.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, GradCheck) {
  ReLU relu;
  // Offset inputs away from the kink to keep finite differences valid.
  Tensor x = RandomTensor({2, 8}, 9);
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  GradCheckInput(relu, x);
}

TEST(Conv2D, OutputShape) {
  Conv2D conv(3, 8, 3, 1, 1, 11);
  Tensor x = RandomTensor({2, 3, 8, 8}, 13);
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 8, 8}));
  Conv2D strided(3, 4, 3, 2, 0, 12);
  Tensor y2 = strided.Forward(x, false);
  EXPECT_EQ(y2.shape(), (std::vector<int>{2, 4, 3, 3}));
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Conv2D conv(1, 1, 1, 1, 0, 3);
  auto params = conv.Params();
  params[0]->value[0] = 1.0f;  // 1x1 kernel = identity
  params[1]->value[0] = 0.0f;
  Tensor x = RandomTensor({1, 1, 4, 4}, 21);
  Tensor y = conv.Forward(x, false);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, GradCheck) {
  Conv2D conv(2, 3, 3, 1, 1, 31);
  GradCheckInput(conv, RandomTensor({1, 2, 5, 5}, 33));
}

TEST(Conv2D, GradCheckStridedNoPad) {
  Conv2D conv(1, 2, 3, 2, 0, 41);
  GradCheckInput(conv, RandomTensor({1, 1, 7, 7}, 43));
}

TEST(MaxPool2D, SelectsMaxAndRoutesGradient) {
  MaxPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  Tensor y = pool.Forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1});
  g[0] = 2.5f;
  Tensor gx = pool.Backward(g);
  EXPECT_EQ(gx[1], 2.5f);
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(GlobalAvgPool, AveragesAndGradChecks) {
  GlobalAvgPool pool;
  Tensor x = RandomTensor({2, 3, 4, 4}, 51);
  Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3}));
  float manual = 0;
  for (int i = 0; i < 16; ++i) manual += x[i];
  EXPECT_NEAR(y[0], manual / 16.0f, 1e-5);
  GradCheckInput(pool, x);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Tensor x = RandomTensor({2, 3, 2, 2}, 55);
  Tensor y = flat.Forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 12}));
  Tensor gx = flat.Backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(BatchNorm2D, NormalisesTrainingBatch) {
  BatchNorm2D bn(2);
  Tensor x = RandomTensor({4, 2, 3, 3}, 61);
  Tensor y = bn.Forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    int n = 0;
    for (int b = 0; b < 4; ++b) {
      for (int i = 0; i < 9; ++i) {
        const float v = y[(b * 2 + c) * 9 + i];
        sum += v;
        sq += v * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm2D, GradCheck) {
  BatchNorm2D bn(2);
  GradCheckInput(bn, RandomTensor({3, 2, 2, 2}, 63), /*tolerance=*/5e-2f);
}

TEST(BatchNorm2D, EvalUsesRunningStats) {
  BatchNorm2D bn(1);
  Tensor x({8, 1, 2, 2});
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i % 7);
  for (int it = 0; it < 50; ++it) bn.Forward(x, true);
  Tensor y_train = bn.Forward(x, true);
  Tensor y_eval = bn.Forward(x, false);
  for (size_t i = 0; i < y_eval.size(); ++i) {
    EXPECT_NEAR(y_eval[i], y_train[i], 0.15f);
  }
}

TEST(Dropout, TrainMasksAndRescales) {
  Dropout drop(0.5f, 77);
  Tensor x({1, 1000});
  x.Fill(1.0f);
  Tensor y = drop.Forward(x, true);
  int zeros = 0;
  double sum = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);
    }
    sum += y[i];
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  EXPECT_NEAR(sum / y.size(), 1.0, 0.15);  // expectation preserved
}

TEST(Dropout, EvalIsIdentity) {
  Dropout drop(0.5f, 78);
  Tensor x = RandomTensor({2, 10}, 79);
  Tensor y = drop.Forward(x, false);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});
  logits.Fill(0.0f);
  const float l = loss.Forward(logits, {1, 3});
  EXPECT_NEAR(l, std::log(4.0f), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerSample) {
  SoftmaxCrossEntropy loss;
  Tensor logits = RandomTensor({3, 5}, 81);
  loss.Forward(logits, {0, 2, 4});
  Tensor g = loss.Backward();
  for (int n = 0; n < 3; ++n) {
    float sum = 0;
    for (int c = 0; c < 5; ++c) sum += g[n * 5 + c];
    EXPECT_NEAR(sum, 0.0f, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, NumericGradCheck) {
  SoftmaxCrossEntropy loss;
  Tensor logits = RandomTensor({2, 3}, 83);
  std::vector<int> labels{1, 2};
  loss.Forward(logits, labels);
  Tensor g = loss.Backward();
  const float eps = 1e-3f;
  for (size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    SoftmaxCrossEntropy tmp;
    const float fp = tmp.Forward(lp, labels);
    const float fm = tmp.Forward(lm, labels);
    EXPECT_NEAR(g[i], (fp - fm) / (2 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, CorrectCountTracksArgmax) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  logits[0] = 5;  // sample 0 predicts class 0
  logits[4] = 5;  // sample 1 predicts class 1
  loss.Forward(logits, {0, 2});
  EXPECT_EQ(loss.CorrectCount(), 1);
}

TEST(Model, MlpTrainsOnClusters) {
  ClusterDataset data(8, 3, 512, 99);
  Model model = BuildMlp(8, {32}, 3, 5);
  Sgd opt(model.Params(), SgdOptions{0.1f, 0.9f, 0.0f});
  SoftmaxCrossEntropy loss;
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 60; ++step) {
    Batch batch = data.GetBatch(step * 32, 32);
    model.ZeroGrad();
    Tensor logits = model.Forward(batch.x, true);
    const float l = loss.Forward(logits, batch.labels);
    model.Backward(loss.Backward());
    opt.Step();
    if (step == 0) first_loss = l;
    last_loss = l;
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);
}

TEST(Model, SmallCnnLearnsImageSignatures) {
  SyntheticImageDataset data(1, 8, 2, 256, 123);
  Model model = BuildSmallCnn(1, 8, 2, 7);
  Sgd opt(model.Params(), SgdOptions{0.05f, 0.9f, 0.0f});
  SoftmaxCrossEntropy loss;
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 30; ++step) {
    Batch batch = data.GetBatch(step * 16, 16);
    model.ZeroGrad();
    Tensor logits = model.Forward(batch.x, true);
    const float l = loss.Forward(logits, batch.labels);
    model.Backward(loss.Backward());
    opt.Step();
    if (step == 0) first_loss = l;
    last_loss = l;
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST(Model, ParamRoundTripThroughFlatBuffer) {
  Model a = BuildMlp(4, {8}, 2, 1);
  Model b = BuildMlp(4, {8}, 2, 2);  // different init
  std::vector<float> flat;
  a.CopyParamsTo(&flat);
  ASSERT_TRUE(b.CopyParamsFrom(flat).ok());
  Tensor x = RandomTensor({3, 4}, 5);
  Tensor ya = a.Forward(x, false);
  Tensor yb = b.Forward(x, false);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Model, SerializeDeserializeMatches) {
  Model a = BuildMlp(4, {6}, 2, 3);
  ByteWriter w;
  a.Serialize(&w);
  Model b = BuildMlp(4, {6}, 2, 4);
  ByteReader r(w.data());
  ASSERT_TRUE(b.Deserialize(&r).ok());
  Tensor x = RandomTensor({2, 4}, 6);
  Tensor ya = a.Forward(x, false);
  Tensor yb = b.Forward(x, false);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Model, DeserializeRejectsWrongArchitecture) {
  Model a = BuildMlp(4, {6}, 2, 3);
  ByteWriter w;
  a.Serialize(&w);
  Model b = BuildMlp(4, {7}, 2, 3);
  ByteReader r(w.data());
  EXPECT_FALSE(b.Deserialize(&r).ok());
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Model m = BuildMlp(2, {}, 2, 1);
  Sgd opt(m.Params(), SgdOptions{0.5f, 0.0f, 0.0f});
  auto params = m.Params();
  const float w0 = params[0]->value[0];
  params[0]->grad[0] = 1.0f;
  opt.Step();
  EXPECT_FLOAT_EQ(params[0]->value[0], w0 - 0.5f);
}

TEST(Sgd, MomentumAccumulates) {
  Model m = BuildMlp(1, {}, 1, 1);
  Sgd opt(m.Params(), SgdOptions{0.1f, 0.9f, 0.0f});
  auto params = m.Params();
  params[0]->value[0] = 0.0f;
  params[0]->grad[0] = 1.0f;
  opt.Step();
  EXPECT_NEAR(params[0]->value[0], -0.1f, 1e-6);
  opt.Step();  // v = 0.9*(-0.1) - 0.1 = -0.19
  EXPECT_NEAR(params[0]->value[0], -0.29f, 1e-6);
}

TEST(Sgd, StateSerializationRoundTrip) {
  Model m = BuildMlp(3, {4}, 2, 1);
  Sgd a(m.Params(), SgdOptions{0.1f, 0.9f, 1e-4f});
  for (Param* p : m.Params()) p->grad.Fill(0.5f);
  a.Step();
  ByteWriter w;
  a.Serialize(&w);
  Sgd b(m.Params(), SgdOptions{});
  ByteReader r(w.data());
  ASSERT_TRUE(b.Deserialize(&r).ok());
  EXPECT_FLOAT_EQ(b.options().lr, 0.1f);
  EXPECT_FLOAT_EQ(b.options().momentum, 0.9f);
}

TEST(LinearScalingLr, WarmupRampsToScaledRate) {
  LinearScalingLr sched(0.1f, 4, 100);
  EXPECT_FLOAT_EQ(sched.LrAt(0, 8), 0.1f);
  EXPECT_FLOAT_EQ(sched.LrAt(100, 8), 0.2f);
  EXPECT_NEAR(sched.LrAt(50, 8), 0.15f, 1e-6);
  // After a shrink the target falls with the worker count.
  EXPECT_FLOAT_EQ(sched.LrAt(200, 2), 0.05f);
}

TEST(Data, ClusterSamplesDeterministic) {
  ClusterDataset d(4, 3, 100, 7);
  std::vector<float> a(4), b(4);
  const int la = d.Sample(42, a.data());
  const int lb = d.Sample(42, b.data());
  EXPECT_EQ(la, lb);
  EXPECT_EQ(a, b);
}

TEST(Data, ClusterSamplesMatchAFreshRngReference) {
  // Samples are computed once at construction; each must equal the
  // pure function of (seed, i) it is documented to be, bit for bit.
  const int dim = 8, classes = 3, n = 512;
  const uint64_t seed = 7;
  const float noise = 0.6f;
  ClusterDataset d(dim, classes, n, seed);
  std::vector<float> centroids(static_cast<size_t>(classes) * dim);
  Rng centroid_rng(seed, /*stream=*/1);
  for (float& c : centroids) c = centroid_rng.NextFloat(-2.0f, 2.0f);
  std::vector<float> got(dim);
  for (int i = 0; i < n; ++i) {
    Rng rng(seed, /*stream=*/1000 + static_cast<uint64_t>(i));
    const int label = static_cast<int>(rng.NextBelow(classes));
    ASSERT_EQ(d.Sample(i, got.data()), label) << "sample " << i;
    for (int k = 0; k < dim; ++k) {
      const float want = centroids[static_cast<size_t>(label) * dim + k] +
                         static_cast<float>(rng.NextGaussian()) * noise;
      ASSERT_EQ(got[k], want) << "sample " << i << " dim " << k;
    }
  }
}

TEST(Data, ShardsPartitionWithoutOverlap) {
  ClusterDataset d(2, 2, 1000, 9);
  // Two workers of a world of 2 must draw disjoint index sets within a
  // step; verify via the deterministic sample values.
  Batch b0 = d.ShardBatch(0, 0, 8, 0, 2);
  Batch b1 = d.ShardBatch(0, 0, 8, 1, 2);
  for (int i = 0; i < 8; ++i) {
    bool identical = true;
    for (int k = 0; k < 2; ++k) {
      if (b0.x[i * 2 + k] != b1.x[i * 2 + k]) identical = false;
    }
    EXPECT_FALSE(identical) << "shards overlap at row " << i;
  }
}

TEST(Data, SpiralHasBalancedClasses) {
  SpiralDataset d(3, 50, 11);
  EXPECT_EQ(d.size(), 150);
  Batch all = d.All();
  std::vector<int> counts(3, 0);
  for (int label : all.labels) counts[label]++;
  for (int c = 0; c < 3; ++c) EXPECT_EQ(counts[c], 50);
}

TEST(Zoo, Table1FootprintsMatchPaper) {
  auto zoo = KerasZoo();
  ASSERT_EQ(zoo.size(), 3u);
  EXPECT_EQ(zoo[0].name, "VGG-16");
  EXPECT_NEAR(zoo[0].total_parameters, 143.7e6, 1e5);
  EXPECT_EQ(zoo[0].trainable_tensors, 32);
  EXPECT_EQ(zoo[1].name, "ResNet50V2");
  EXPECT_NEAR(zoo[1].total_parameters, 25.6e6, 1e5);
  EXPECT_EQ(zoo[2].name, "NasNetMobile");
  EXPECT_NEAR(zoo[2].total_parameters, 5.3e6, 1e5);
  EXPECT_GT(zoo[0].size_mb, zoo[1].size_mb);
  EXPECT_GT(zoo[1].size_mb, zoo[2].size_mb);
}

TEST(Zoo, TensorCountsSumToTotal) {
  for (const auto& spec : KerasZoo()) {
    auto counts = TensorParameterCounts(spec);
    EXPECT_EQ(counts.size(), static_cast<size_t>(spec.trainable_tensors));
    size_t total = 0;
    for (size_t c : counts) {
      EXPECT_GE(c, 1u);
      total += c;
    }
    EXPECT_EQ(total, static_cast<size_t>(spec.total_parameters));
  }
}

TEST(Zoo, FusionRespectsBucketThreshold) {
  auto counts = TensorParameterCounts(ResNet50V2Spec());
  const size_t threshold = 64u << 20;
  auto buckets = FusionBucketBytes(counts, threshold);
  size_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i];
    // A bucket only exceeds the threshold if a single tensor does.
    if (buckets[i] > threshold) {
      EXPECT_GT(buckets[i] / sizeof(float),
                threshold / sizeof(float));
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(ResNet50V2Spec().total_parameters) *
                       sizeof(float));
}

TEST(Zoo, SmallerFusionThresholdMakesMoreBuckets) {
  auto counts = TensorParameterCounts(Vgg16Spec());
  EXPECT_GE(FusionBucketBytes(counts, 8u << 20).size(),
            FusionBucketBytes(counts, 64u << 20).size());
}

TEST(Zoo, StepComputeScalesWithBatchAndModel) {
  sim::SimConfig cfg;
  const double vgg = StepComputeSeconds(Vgg16Spec(), 32, cfg.net.gpu_flops);
  const double nas =
      StepComputeSeconds(NasNetMobileSpec(), 32, cfg.net.gpu_flops);
  EXPECT_GT(vgg, 10 * nas);
  EXPECT_NEAR(StepComputeSeconds(Vgg16Spec(), 64, cfg.net.gpu_flops),
              2 * vgg, 1e-9);
}

}  // namespace
}  // namespace rcc::dnn
