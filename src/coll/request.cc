#include "coll/request.h"

#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace rcc::coll {

RequestMetrics::Algo::Algo(const char* algo, obs::Registry& reg)
    : queue_wait(reg, "rcc_coll_queue_wait_seconds", {{"algo", algo}}),
      service(reg, "rcc_coll_service_seconds", {{"algo", algo}}),
      ops(reg, "rcc_coll_ops_total", {{"algo", algo}}),
      ops_failed(reg, "rcc_coll_ops_failed_total", {{"algo", algo}}) {}

StackMetrics::StackMetrics(const char* algo, const char* stack,
                           obs::Registry& reg)
    : latency(reg, "rcc_collective_latency_seconds",
              {{"algo", algo}, {"stack", stack}}),
      bytes(reg, "rcc_collective_bytes_total",
            {{"algo", algo}, {"stack", stack}}),
      ops(reg, "rcc_collective_ops_total",
          {{"algo", algo}, {"stack", stack}}) {}

void StackMetrics::Record(double latency_s, double op_bytes) {
  latency->Observe(latency_s);
  bytes->Add(op_bytes);
  ops->Increment();
}

void Request::Launch(Info info, sim::Seconds submit, sim::Endpoint& ep,
                     RequestMetrics& metrics, const Request* after) {
  State* st = state_.get();
  st->info = info;
  st->submit = submit;
  st->start = submit;
  st->complete = submit;
  st->inflight = metrics.inflight.Get();
  st->inflight->Add(1.0);
  // Queue-wait vs service breakdown per algo; the gauge is shared by
  // every communicator of the simulation.
  st->metrics = metrics.algos.For(info.algo, ep.metrics());
  st->log = ep.log();
  if (after != nullptr) st->pred = after->state_;
  sim::TaskOptions opts;
  opts.pid = ep.pid();
  // The op task's run-queue position follows its virtual completion
  // clock (== the effective start time while the body runs).
  opts.clock = &st->complete;
  // One pointer: std::function keeps it inline.
  st->worker = ep.fabric().engine().Spawn(opts, [st] { st->Run(); });
}

void Request::State::Run() {
  if (pred) {
    while (!pred->done) pred->wp.Wait();
    // In-order engine: start no earlier than the predecessor's
    // completion.
    if (pred->complete > complete) complete = pred->complete;
  }
  pred.reset();
  start = complete;
  Status s = RunBody(&complete);
  metrics->queue_wait->Observe(start - submit);
  metrics->service->Observe(complete - start);
  (s.ok() ? metrics->ops : metrics->ops_failed)->Increment();
  log->Record(obs::flight::Ev::kCollSvc, complete,
              static_cast<int64_t>(info.op_id), s.ok() ? 1 : 0,
              complete - start);
  inflight->Add(-1.0);
  status = std::move(s);
  done = true;
  wp.NotifyAll();
}

Request Request::Failed(Info info, sim::Seconds submit, Status status) {
  Request req;
  req.state_ = std::allocate_shared<State>(common::PoolAllocator<State>());
  State* st = req.state_.get();
  st->info = info;
  st->submit = submit;
  st->start = submit;
  st->complete = submit;
  st->status = std::move(status);
  st->done = true;
  return req;
}

Status Request::Join() {
  if (!state_) return Status(Code::kInvalid, "join on empty request");
  while (!state_->done) state_->wp.Wait();
  return state_->status;
}

Status FabricChannel::SendTo(int dst_rank, int tag, const void* data,
                             size_t bytes) {
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Status(Code::kRevoked, "communicator revoked");
  }
  if (dst_rank < 0 || dst_rank >= size()) {
    return Status(Code::kInvalid, "dst rank out of range");
  }
  return ep_->Send((*pids_)[dst_rank], channel_, tag, data, bytes,
                   static_cast<double>(bytes) * cost_scale_, now_);
}

Status FabricChannel::RecvInto(int src_rank, int tag,
                               sim::RecvBuffer* into) {
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Status(Code::kRevoked, "communicator revoked");
  }
  if (src_rank < 0 || src_rank >= size()) {
    return Status(Code::kInvalid, "src rank out of range");
  }
  return ep_->Recv((*pids_)[src_rank], channel_, tag, into, cancel_,
                   death_watch_, now_);
}

}  // namespace rcc::coll
