// Environment-driven observability dumps shared by benches, examples
// and tests:
//
//   RCC_TRACE_JSON=<path>   write the run's trace::Recorder as Chrome
//                           trace-event JSON (open in Perfetto)
//   RCC_METRICS_OUT=<path>  write the metrics export sink (every
//                           finished simulation's registry, folded;
//                           see obs/metrics.h) as Prometheus text at
//                           <path> and CSV at <path>.csv (or, when
//                           <path> ends in .csv, CSV there and
//                           Prometheus alongside)
//
// Callers invoke DumpIfRequested once per run, after its sim::Cluster is
// gone (a live simulation has not folded yet); a later call overwrites
// an earlier one, so the files hold every simulation finished so far.
//
// DumpIfUnexplainedExit is the flight-dump rule for worker exits
// (RCC_FLIGHT_DIR, see obs/flight.h).
#pragma once

#include <string>

#include "sim/endpoint.h"
#include "trace/trace.h"

namespace rcc::obs {

// Writes whichever outputs the environment asks for. `rec` may be null
// (metrics only). Returns false if any requested write failed.
bool DumpIfRequested(const trace::Recorder* rec);

// Unconditional writer of the export sink, for callers managing their
// own paths.
bool WriteMetricsFiles(const std::string& path);

// The worker-exit rule, shared by every driver that runs workers (chaos
// runner, serving driver, ULFM figure driver). A worker that exits
// aborted while its endpoint is still alive left the job for a reason
// nothing scheduled: every rank's log of its simulation is dumped
// (reason "abort"; a later unexplained exit overwrites with more
// history) and the call returns true, so the caller can make the exit
// visible to its peers. A death delivered by the failure schedule
// (FailurePlan, ScriptedFailure, ArmKillAt, node kills) leaves the
// endpoint dead: that is the experiment, not a failure, and it never
// dumps. Only the dump respects flight::Enabled().
bool DumpIfUnexplainedExit(const sim::Endpoint& ep, bool aborted);

}  // namespace rcc::obs
