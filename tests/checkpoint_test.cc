#include <gtest/gtest.h>

#include "checkpoint/checkpoint.h"
#include "dnn/data.h"

namespace rcc::checkpoint {
namespace {

struct Rig {
  dnn::Model model = dnn::BuildMlp(4, {8}, 3, 1);
  std::unique_ptr<dnn::Sgd> opt;
  Rig() {
    opt = std::make_unique<dnn::Sgd>(model.Params(),
                                     dnn::SgdOptions{0.1f, 0.9f, 0.0f});
  }
  void TrainSteps(int n, uint64_t seed) {
    dnn::ClusterDataset data(4, 3, 128, seed);
    dnn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < n; ++s) {
      auto batch = data.GetBatch(s * 16, 16);
      model.ZeroGrad();
      auto logits = model.Forward(batch.x, true);
      loss.Forward(logits, batch.labels);
      model.Backward(loss.Backward());
      opt->Step();
    }
  }
};

TEST(Checkpoint, CaptureRestoreRoundTrip) {
  Rig a;
  a.TrainSteps(5, 7);
  TrainingCursor cursor{2, 3, 19};
  Snapshot snap = Capture(a.model, *a.opt, cursor);

  Rig b;
  TrainingCursor restored;
  ASSERT_TRUE(Restore(snap, &b.model, b.opt.get(), &restored).ok());
  EXPECT_EQ(restored.epoch, 2);
  EXPECT_EQ(restored.step, 3);
  EXPECT_EQ(restored.global_step, 19);

  // Restored model computes identical outputs.
  dnn::ClusterDataset data(4, 3, 32, 3);
  auto batch = data.GetBatch(0, 8);
  auto ya = a.model.Forward(batch.x, false);
  auto yb = b.model.Forward(batch.x, false);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Checkpoint, RestoredTrainingContinuesIdentically) {
  // Train 5 steps, snapshot, train 5 more; restoring and re-running the
  // last 5 must land on identical parameters (optimizer state included).
  Rig a;
  a.TrainSteps(5, 7);
  Snapshot snap = Capture(a.model, *a.opt, TrainingCursor{0, 5, 5});
  a.TrainSteps(5, 11);
  std::vector<float> direct;
  a.model.CopyParamsTo(&direct);

  Rig b;
  TrainingCursor cur;
  ASSERT_TRUE(Restore(snap, &b.model, b.opt.get(), &cur).ok());
  b.TrainSteps(5, 11);
  std::vector<float> replayed;
  b.model.CopyParamsTo(&replayed);
  ASSERT_EQ(direct.size(), replayed.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(direct[i], replayed[i]) << "param " << i;
  }
}

TEST(Checkpoint, RestoreRejectsWrongLayout) {
  Rig a;
  Snapshot snap = Capture(a.model, *a.opt, TrainingCursor{});
  dnn::Model other = dnn::BuildMlp(4, {16}, 3, 1);
  dnn::Sgd opt(other.Params(), dnn::SgdOptions{});
  TrainingCursor cur;
  EXPECT_FALSE(Restore(snap, &other, &opt, &cur).ok());
}

}  // namespace
}  // namespace rcc::checkpoint
