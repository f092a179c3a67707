// Phase-tagged event tracing: each recovery step (catch exception,
// shutdown, rendezvous, shrink, state sync, recompute, ...) records its
// per-rank [start, end] interval in virtual time as a kSpan on the
// rank's event log (obs/flight.h). Benches aggregate these into the
// paper's per-phase cost breakdowns. The Recorder stores nothing: it
// computes every table from the logs of the runs it is attached to.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/flight.h"
#include "sim/endpoint.h"

namespace rcc::trace {

struct Event {
  int pid = -1;
  std::string phase;
  sim::Seconds start = 0.0;
  sim::Seconds end = 0.0;
  double duration() const { return end - start; }
};

// One traced windowed collective as seen by a rank: submission and
// completion in virtual time, plus the op identity the resilient layer
// replays by.
struct OpEvent {
  int pid = -1;
  uint64_t op_id = 0;
  std::string algo;
  double bytes = 0.0;
  sim::Seconds submit = 0.0;
  sim::Seconds complete = 0.0;
  double latency() const { return complete - submit; }
};

// One op re-executed by the resilient layer during replay-from-MIN.
// Chaos oracles check every replayed id against the agreed MIN.
struct ReplayEvent {
  int pid = -1;
  int64_t op_id = 0;
  int64_t min_id = 0;  // the MIN agreed for the repair that replayed this op
};

// One sample of a named per-rank time series (world size, in-flight
// window depth). Exported as Chrome trace counter events (ph:"C").
struct CounterSample {
  int pid = -1;
  std::string name;
  sim::Seconds t = 0.0;
  double value = 0.0;
};

class Recorder {
 public:
  // Attaches to the logs of the simulation `ep` runs in and makes them
  // keep every event; the recorder holds them, so it stays readable
  // after the simulation is gone. Every obs::Span and ResilientComm
  // given this recorder calls it; a later simulation is read after the
  // earlier ones.
  void Attach(const sim::Endpoint& ep);

  // --- phase-start hook -------------------------------------------------
  // Invoked on the *entering* rank's own task the moment an obs::Span
  // opens, before any phase work runs. The chaos harness uses this to
  // arm deterministic self-kills phase-locked to protocol spans
  // (mid-revoke, mid-agree, mid-join, ...). At most one hook, set before
  // the run's ranks start and cleared (nullptr) after they finish. The
  // hook must be cheap and must not re-enter the recorder.
  using PhaseStartHook =
      std::function<void(sim::Endpoint& ep, const std::string& phase)>;
  void SetPhaseStartHook(PhaseStartHook hook) { hook_ = std::move(hook); }
  void PhaseStarted(sim::Endpoint& ep, const std::string& phase) {
    if (hook_) hook_(ep, phase);
  }

  // Every span, in (attached run, pid, record) order.
  std::vector<Event> events() const;
  std::vector<Event> EventsForPhase(const std::string& phase) const;
  // Traced windowed collectives (the nonblocking pipelines).
  std::vector<OpEvent> op_events() const;
  // Replay audit trail for the chaos oracles.
  std::vector<ReplayEvent> replay_events() const;
  // Counter time series (world size, in-flight window, ...).
  std::vector<CounterSample> counter_samples() const;

  // Critical-path duration: the longest single-rank duration per phase
  // (what an observer of the stalled training job experiences).
  std::map<std::string, double> MaxByPhase() const;
  // Mean duration per phase across ranks.
  std::map<std::string, double> MeanByPhase() const;
  // Shortest single event per phase: for phases that *wait* for slower
  // participants (rendezvous, expand), this is the pure work component.
  std::map<std::string, double> MinByPhase() const;
  // Latest end time recorded for a phase.
  double PhaseEnd(const std::string& phase) const;

  // Detaches from every log: the tables are empty until the next Attach.
  void Clear();
  Table ToTable() const;

 private:
  struct PhaseAgg {
    double max = 0.0;
    double min = 0.0;
    double sum = 0.0;
    int count = 0;
    double latest_end = 0.0;
  };

  // fn(pid, event) for each event of `kind` in the attached logs, as T.
  template <class T, class Fn>
  std::vector<T> Collect(obs::flight::Ev kind, Fn fn) const;
  std::map<std::string, PhaseAgg> Aggregate() const;
  template <class Fn>
  std::map<std::string, double> ByPhase(Fn fn) const;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<obs::flight::Logs>> logs_;
  PhaseStartHook hook_;
};

}  // namespace rcc::trace
