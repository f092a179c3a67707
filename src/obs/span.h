// Instrumentation span: trace::Scope plus a registry histogram in one
// RAII object. On destruction the [construction, destruction] interval
// of the endpoint's virtual clock is (a) recorded into the trace
// recorder under `phase` (when a recorder is attached, so the interval
// shows up in the Perfetto export) and (b) observed into the
// `metric{phase=...}` histogram (always, so metrics work even in
// recorder-less paths). Spans on per-step or per-op paths take a
// SpanPhase their owner keeps, so the histogram is resolved once rather
// than looked up per span.
#pragma once

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "sim/endpoint.h"
#include "trace/trace.h"

namespace rcc::obs {

// A span phase with its histogram handle, kept by the owner of a hot
// path and passed to every Span of that phase.
struct SpanPhase {
  // `metric` defaults to the cross-layer phase-duration family.
  explicit SpanPhase(std::string phase,
                     const char* metric = "rcc_phase_seconds")
      : name(std::move(phase)), hist(metric, {{"phase", name}}) {}

  std::string name;
  HistogramHandle hist;
};

class Span {
 public:
  // `metric` defaults to the cross-layer phase-duration family.
  Span(trace::Recorder* rec, sim::Endpoint& ep, std::string phase,
       const char* metric = "rcc_phase_seconds")
      : rec_(rec), ep_(ep), phase_(std::move(phase)), start_(ep.now()),
        hist_(Registry::Global().GetHistogram(metric, {{"phase", phase_}})) {
    if (rec_ != nullptr) rec_->PhaseStarted(ep_, phase_);
  }

  Span(trace::Recorder* rec, sim::Endpoint& ep, const SpanPhase& phase)
      : rec_(rec), ep_(ep), phase_(phase.name), start_(ep.now()),
        hist_(phase.hist.Get()) {
    if (rec_ != nullptr) rec_->PhaseStarted(ep_, phase_);
  }

  ~Span() {
    const sim::Seconds end = ep_.now();
    if (rec_ != nullptr) rec_->Record(ep_.pid(), phase_, start_, end);
    hist_->Observe(end - start_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  trace::Recorder* rec_;
  sim::Endpoint& ep_;
  std::string phase_;
  sim::Seconds start_;
  Histogram* hist_;
};

}  // namespace rcc::obs
