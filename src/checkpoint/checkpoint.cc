#include "checkpoint/checkpoint.h"

namespace rcc::checkpoint {

Snapshot Capture(const dnn::Model& model, const dnn::Sgd& opt,
                 const TrainingCursor& cursor, double declared_bytes) {
  ByteWriter w;
  w.WriteI32(cursor.epoch);
  w.WriteI32(cursor.step);
  w.WriteI32(cursor.global_step);
  model.Serialize(&w);
  opt.Serialize(&w);
  Snapshot snap;
  snap.cursor = cursor;
  snap.blob = w.Take();
  snap.declared_bytes = declared_bytes < 0
                            ? static_cast<double>(snap.blob.size())
                            : declared_bytes;
  return snap;
}

Status Restore(const Snapshot& snap, dnn::Model* model, dnn::Sgd* opt,
               TrainingCursor* cursor) {
  ByteReader r(snap.blob);
  int32_t epoch = 0, step = 0, global_step = 0;
  RCC_RETURN_IF_ERROR(r.ReadI32(&epoch));
  RCC_RETURN_IF_ERROR(r.ReadI32(&step));
  RCC_RETURN_IF_ERROR(r.ReadI32(&global_step));
  RCC_RETURN_IF_ERROR(model->Deserialize(&r));
  RCC_RETURN_IF_ERROR(opt->Deserialize(&r));
  cursor->epoch = epoch;
  cursor->step = step;
  cursor->global_step = global_step;
  return Status::Ok();
}

}  // namespace rcc::checkpoint
