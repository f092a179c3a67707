// Nonblocking collective requests.
//
// A Request is a shared handle onto one in-flight collective op. Each op
// body runs as a fiber on the discrete-event engine (see sim/engine.h)
// over the timestamped fabric with a *private* virtual clock: the
// fabric's Recv already takes the clock by pointer, which keeps the
// virtual-time cost model exact while the submitting rank's own clock
// keeps advancing through compute.
//
// Ops submitted on one communicator are chained (each op task starts at
// max(submit time, predecessor completion)): the modeled engine executes
// collectives in order, like a NCCL stream, so the in-flight window size
// controls how far compute can run ahead of communication rather than
// how many ops transfer concurrently. The chain is driven by virtual
// completion time — a successor parks until its predecessor's completion
// is known, with no background threads involved.
//
// An op task allocates nothing in steady state: the op body lives in the
// request's own state, one object from the host thread's free lists (see
// common/pool.h), and the task's closure holds only that state's pointer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coll/transport.h"
#include "common/pool.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/endpoint.h"
#include "sim/engine.h"

namespace rcc::coll {

// Request-pipeline instruments of one communicator, in its simulation's
// registry: the in-flight gauge plus, per algo, the queue-wait and
// service histograms and the op counters. Owned by the communicator and
// handed to Request::Start, so each series is resolved once per
// communicator rather than per op.
struct RequestMetrics {
  struct Algo {
    Algo(const char* algo, obs::Registry& registry);
    obs::HistogramHandle queue_wait, service;
    obs::CounterHandle ops, ops_failed;
  };
  explicit RequestMetrics(obs::Registry& registry)
      : inflight(registry, "rcc_coll_inflight") {}
  obs::GaugeHandle inflight;
  obs::ByAlgo<Algo> algos;
};

// Completed-collective instruments of one algo on one stack (mpi, nccl,
// gloo): the latency histogram and the byte and op counters, all
// labelled {algo, stack}. Communicators keep an obs::ByAlgo of these.
struct StackMetrics {
  StackMetrics(const char* algo, const char* stack, obs::Registry& registry);
  void Record(double latency, double bytes);

  obs::HistogramHandle latency;
  obs::CounterHandle bytes, ops;
};

class Request {
 public:
  struct Info {
    uint64_t op_id = 0;       // communicator-local sequence number
    const char* algo = "";    // kernel name ("ring", "binomial_bcast", ...)
    double bytes = 0.0;       // modeled wire payload
  };

  Request() = default;

  // Starts the op as a task on the submitting rank `ep`'s engine, with
  // its pid as the deterministic run-queue tie-break. `body` is a
  // callable `Status(sim::Seconds* now)` run on the op task: it receives
  // the op's private virtual clock (pre-advanced to the effective start
  // time) and leaves the completion time in it. `submit` is the rank's
  // clock at submission; if `after` holds an active request, the op task
  // first waits for it and starts no earlier than its completion. The op
  // records into the submitting communicator's `metrics` and the rank's
  // event log.
  template <typename Body>
  static Request Start(Info info, sim::Seconds submit, Body body,
                       sim::Endpoint& ep, RequestMetrics& metrics,
                       const Request* after = nullptr) {
    Request req;
    req.state_ = std::allocate_shared<Op<Body>>(
        common::PoolAllocator<Op<Body>>(), std::move(body));
    req.Launch(info, submit, ep, metrics, after);
    return req;
  }

  // An already-completed failed request (submission-time errors such as
  // a revoked or aborted communicator).
  static Request Failed(Info info, sim::Seconds submit, Status status);

  bool active() const { return state_ != nullptr; }
  const Info& info() const { return state_->info; }
  sim::Seconds submit_time() const { return state_->submit; }
  // Valid once the op completed (Test() true or Join() returned).
  sim::Seconds complete_time() const { return state_->complete; }
  // Effective start time: max(submit, predecessor completion), i.e. when
  // the modeled engine actually began executing the op. complete - start
  // is the service time, start - submit the queue wait. Valid once the
  // op completed.
  sim::Seconds start_time() const { return state_->start; }

  // Nonblocking completion probe.
  bool Test() const { return state_ != nullptr && state_->done; }

  // Blocks (in zero virtual time) until the op completes; idempotent;
  // returns the op status. Virtual-clock merging is the communicator's
  // job (mpi::Comm::Wait / nccl::Comm::Wait).
  Status Join();

 private:
  // One op: its timing, status and completion wait point, and what the
  // op task needs to run it. The task holds a raw pointer, so whoever
  // drops the last handle first joins the task.
  struct State {
    State() = default;
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    virtual ~State() { JoinWorker(); }
    // The op body (see Start); a failed request has none.
    virtual Status RunBody(sim::Seconds*) { return Status::Ok(); }
    // The op task: waits for the predecessor, runs the body, records.
    void Run();
    void JoinWorker() {
      if (worker.joinable()) worker.Join();
    }

    Info info;
    sim::Seconds submit = 0.0;
    sim::Seconds start = 0.0;
    sim::Seconds complete = 0.0;
    Status status;
    sim::WaitPoint wp;
    bool done = false;
    sim::TaskHandle worker;
    std::shared_ptr<State> pred;  // released once it completed
    obs::Gauge* inflight = nullptr;
    obs::flight::Ring* log = nullptr;
    std::shared_ptr<RequestMetrics::Algo> metrics;
  };

  template <typename B>
  struct Op final : State {
    explicit Op(B b) : body(std::move(b)) {}
    // Joins before `body` goes: the task may still be running it.
    ~Op() override { JoinWorker(); }
    Status RunBody(sim::Seconds* now) override { return body(now); }
    B body;
  };

  // Fills in a fresh state_ and spawns its op task.
  void Launch(Info info, sim::Seconds submit, sim::Endpoint& ep,
              RequestMetrics& metrics, const Request* after);

  std::shared_ptr<State> state_;
};

// A Transport over the raw fabric for background op workers: the
// endpoint's own send and receive (self-kill checks, per-byte cost
// scaling, cancel token or death watch), but advancing a private clock
// instead of the rank's clock, so deterministic virtual-time failure
// injection still fires when the blocking wrappers run Start + Wait.
class FabricChannel : public Transport {
 public:
  // `pids` must outlive the channel (the op body keeps the owning group
  // alive via shared_ptr). Exactly one of `cancel` / `death_watch` is
  // normally set (mpi-style revocation vs nccl-style peer watching);
  // both may be null.
  FabricChannel(sim::Endpoint& ep, const std::vector<int>& pids, int rank,
                uint64_t channel, double cost_scale, sim::Seconds* now,
                const sim::CancelToken* cancel,
                const std::vector<int>* death_watch)
      : ep_(&ep),
        pids_(&pids),
        rank_(rank),
        channel_(channel),
        cost_scale_(cost_scale),
        now_(now),
        cancel_(cancel),
        death_watch_(death_watch) {}

  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(pids_->size()); }

  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override;
  Status RecvInto(int src_rank, int tag, sim::RecvBuffer* into) override;
  Status SizeMismatch() const override {
    return Status(Code::kInvalid, "payload size mismatch");
  }

 private:

  sim::Endpoint* ep_;
  const std::vector<int>* pids_;
  int rank_;
  uint64_t channel_;
  double cost_scale_;
  sim::Seconds* now_;
  const sim::CancelToken* cancel_;
  const std::vector<int>* death_watch_;
};

}  // namespace rcc::coll
