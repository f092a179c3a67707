// In-memory checkpoints (the paper's evaluation explicitly limits
// itself to memory checkpoints). A snapshot captures the full training
// state: model parameters, optimizer state, and the training cursor
// (epoch/step).
//
// Copying a snapshot is priced at host memory bandwidth on its
// *declared* size (CopyCost), so checkpoint cost participates in the
// Eq. (1) trade-off exactly as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "sim/params.h"

namespace rcc::checkpoint {

struct TrainingCursor {
  int epoch = 0;
  int step = 0;            // step within the epoch
  int global_step = 0;     // monotonic across epochs
};

struct Snapshot {
  std::vector<uint8_t> blob;  // serialized model + optimizer + cursor
  TrainingCursor cursor;
  double declared_bytes = 0;  // size used by the time model
};

// Serialises (model, optimizer, cursor) into a snapshot blob.
Snapshot Capture(const dnn::Model& model, const dnn::Sgd& opt,
                 const TrainingCursor& cursor, double declared_bytes = -1);

// Restores a snapshot into an existing model/optimizer (layouts must
// match).
Status Restore(const Snapshot& snap, dnn::Model* model, dnn::Sgd* opt,
               TrainingCursor* cursor);

// Time to save or load a state of `bytes` at host memory bandwidth
// (the checkpoint term of Eq. (1)).
inline double CopyCost(const sim::SimConfig& cfg, double bytes) {
  return bytes / cfg.net.host_mem_bandwidth;
}

}  // namespace rcc::checkpoint
