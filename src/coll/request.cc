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

Request Request::Start(Info info, sim::Seconds submit, Body body,
                       sim::Endpoint& ep, RequestMetrics& metrics,
                       const Request* after) {
  Request req;
  req.state_ = std::make_shared<State>();
  State* st = req.state_.get();
  st->info = info;
  st->submit = submit;
  st->start = submit;
  st->complete = submit;
  obs::Gauge* inflight = metrics.inflight.Get();
  inflight->Add(1.0);
  // Queue-wait vs service breakdown per algo; the gauge is shared by
  // every communicator of the simulation.
  std::shared_ptr<RequestMetrics::Algo> algo_metrics =
      metrics.algos.For(info.algo, ep.metrics());
  std::shared_ptr<State> pred =
      (after != nullptr) ? after->state_ : nullptr;
  sim::TaskOptions opts;
  opts.pid = ep.pid();
  // The op task's run-queue position follows its virtual completion
  // clock (== the effective start time while the body runs).
  opts.clock = &st->complete;
  st->worker = ep.fabric().engine().Spawn(
      opts,
      [st, inflight, log = ep.log(), m = std::move(algo_metrics),
       pred = std::move(pred), body = std::move(body)]() mutable {
        if (pred) {
          while (!pred->done) pred->wp.Wait();
          // In-order engine: start no earlier than the predecessor's
          // completion.
          if (pred->complete > st->complete) st->complete = pred->complete;
        }
        pred.reset();
        st->start = st->complete;
        Status s = body(&st->complete);
        m->queue_wait->Observe(st->start - st->submit);
        m->service->Observe(st->complete - st->start);
        (s.ok() ? m->ops : m->ops_failed)->Increment();
        log->Record(obs::flight::Ev::kCollSvc, st->complete,
                    static_cast<int64_t>(st->info.op_id), s.ok() ? 1 : 0,
                    st->complete - st->start);
        inflight->Add(-1.0);
        st->status = std::move(s);
        st->done = true;
        st->wp.NotifyAll();
      });
  return req;
}

Request Request::Failed(Info info, sim::Seconds submit, Status status) {
  Request req;
  req.state_ = std::make_shared<State>();
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
