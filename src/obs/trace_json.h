// Chrome trace-event JSON export for trace::Recorder, loadable in
// Perfetto / chrome://tracing, plus a schema validator used by tests
// and the ctest check.
//
// Mapping: every trace::Event becomes a complete event (ph:"X") with
// ts/dur in microseconds of virtual time, pid = rank, tid 0 ("phases"
// track). Every trace::OpEvent becomes a ph:"X" on tid 1 ("collectives"
// track) named by its algorithm with {op_id, bytes, algo} args. Every
// trace::CounterSample becomes a counter event (ph:"C") named by its
// series ("world_size", "in_flight_window"), rendered by Perfetto as a
// per-rank step chart. Process/thread name metadata events (ph:"M")
// label the tracks.
#pragma once

#include <string>

#include "trace/trace.h"

namespace rcc::obs {

// Serializes the recorder's contents as a Chrome trace-event JSON
// object ({"traceEvents":[...],"displayTimeUnit":"ms"}).
std::string ToChromeTraceJson(const trace::Recorder& rec);

// Validates that `json` parses and is a Chrome trace-event document:
// a traceEvents array whose ph:"X" entries all carry numeric ts, dur,
// pid, tid and a string name, and whose ph:"C" entries carry a string
// name, finite ts/pid, and an args object with at least one finite
// numeric series value. On failure returns false and sets `error` to a
// description; on success `events_checked` (if non-null) receives the
// number of complete events validated and `counters_checked` (if
// non-null) the number of counter events validated.
bool ValidateChromeTraceJson(const std::string& json, std::string* error,
                             size_t* events_checked = nullptr,
                             size_t* counters_checked = nullptr);

}  // namespace rcc::obs
