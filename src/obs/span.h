// Instrumentation span: on destruction the [construction, destruction]
// interval of the endpoint's virtual clock is (a) recorded as a kSpan on
// the rank's event log (read by trace::Recorder and the Perfetto export)
// and (b) observed into the simulation's `metric{phase=...}` histogram.
// A span marked with SetRecoveryPhase is also that recovery phase (the
// event carries the code; rcc_recovery_phase_seconds observes it too).
// Spans on per-step or per-op paths take a SpanPhase their owner keeps,
// so the name and histogram are resolved once rather than per span.
#pragma once

#include <string>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "sim/endpoint.h"
#include "trace/trace.h"

namespace rcc::obs {

// A span phase with its interned name and histogram handle, kept by the
// owner of a hot path and passed to every Span of that phase. `registry`
// is the owner's simulation's (sim::Endpoint::metrics()).
struct SpanPhase {
  // `metric` defaults to the cross-layer phase-duration family.
  SpanPhase(Registry& registry, std::string phase,
            const char* metric = "rcc_phase_seconds")
      : name(flight::Intern(phase)),
        hist(registry, metric, {{"phase", phase}}) {}

  uint32_t name;
  HistogramHandle hist;
};

class Span {
 public:
  // `metric` defaults to the cross-layer phase-duration family. A
  // non-null `rec` is attached to the run and gets the phase-start hook.
  Span(trace::Recorder* rec, sim::Endpoint& ep, const std::string& phase,
       const char* metric = "rcc_phase_seconds")
      : Span(rec, ep, flight::Intern(phase),
             ep.metrics().GetHistogram(metric, {{"phase", phase}})) {}

  Span(trace::Recorder* rec, sim::Endpoint& ep, const SpanPhase& phase)
      : Span(rec, ep, phase.name, phase.hist.Get()) {}

  ~Span() {
    const sim::Seconds end = ep_.now();
    ep_.log()->Record(flight::Ev::kSpan, end, static_cast<int64_t>(recovery_),
                      repair_, start_, name_);
    hist_->Observe(end - start_);
    if (recovery_ != flight::Phase{}) {
      flight::RecordRecoveryPhase(ep_.metrics(), nullptr, recovery_, end,
                                  repair_, end - start_);
    }
  }

  // Marks this span as recovery phase `phase` of repair `repair`,
  // completed (call it on the success path only).
  void SetRecoveryPhase(flight::Phase phase, int64_t repair) {
    recovery_ = phase;
    repair_ = repair;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Span(trace::Recorder* rec, sim::Endpoint& ep, uint32_t name,
       Histogram* hist)
      : ep_(ep), name_(name), start_(ep.now()), hist_(hist) {
    if (rec != nullptr) {
      rec->Attach(ep_);
      rec->PhaseStarted(ep_, flight::NameOf(name_));
    }
  }

  sim::Endpoint& ep_;
  uint32_t name_;
  sim::Seconds start_;
  Histogram* hist_;
  flight::Phase recovery_{};
  int64_t repair_ = 0;
};

}  // namespace rcc::obs
