// Campaign runner: executes one chaos Schedule against the real-numerics
// elastic trainer on the virtual-time simulator and collects everything
// the oracles need. Deterministic: same schedule -> same outcome, byte
// for byte (results are keyed and sorted by pid, never by thread
// completion order).
#pragma once

#include <memory>
#include <vector>

#include "chaos/schedule.h"
#include "core/elastic_trainer.h"
#include "core/pipeline_trainer.h"
#include "serve/server.h"
#include "trace/trace.h"

namespace rcc::chaos {

// One worker's run: founders have join_epoch == -1; joiners record
// whether JoinExisting + state sync succeeded.
struct WorkerResult {
  int pid = -1;
  int join_epoch = -1;
  bool joined_ok = true;
  // Cursor the worker actually started training from. Founders start at
  // {0, 0}; blocking joiners at {join_epoch, 0}; async joiners at
  // whatever step boundary the splice landed on (possibly mid-epoch, or
  // the end of the run for a finalize splice). The P1 oracle plans
  // steps from here, not from join_epoch.
  int start_epoch = 0;
  int start_step = 0;
  // Policy campaigns: a provisioned replacement whose slot was never
  // consumed (released with "done" or deadline-expired). Idle
  // replacements finish cleanly but hold no training state, so the
  // trainer oracles skip them like the serving oracles skip idle
  // standbys.
  bool idle_replacement = false;
  core::TrainerReport report;
  // Serving campaigns (shape.serving) fill this instead of `report`;
  // report.aborted mirrors serve.aborted so shared bookkeeping (the
  // exit-is-a-failure rule, result counting) stays uniform.
  serve::ServeReport serve;
  // Pipeline campaigns (shape.pipeline) fill this instead of `report`;
  // report.aborted mirrors pipe.aborted for the same reason.
  core::PipelineReport pipe;
  double end_time = 0.0;  // virtual clock when the worker finished/died
};

struct CampaignOutcome {
  std::vector<WorkerResult> results;  // sorted by pid
  double horizon = 0.0;               // max end_time over all workers
  // The campaign simulation's own counters (sim::Fabric::metrics()).
  double repairs_metric = 0.0;   // rcc_recovery_repairs_total
  double replayed_metric = 0.0;  // rcc_recovery_replayed_ops_total
  // Trace-derived evidence.
  int repair_span_count = 0;                      // recovery/ulfm_repair
  std::vector<trace::ReplayEvent> replay_events;  // replays vs agreed MIN
  // The run's event logs, for a dump after the run (chaos_fuzz parks a
  // violating reproducer's logs next to its schedule).
  std::shared_ptr<const obs::flight::Logs> logs;
};

CampaignOutcome RunSchedule(const Schedule& schedule);

// Virtual completion time of the schedule with every event stripped;
// the generator places background kills inside this window.
double EstimateHorizon(const Schedule& schedule);

}  // namespace rcc::chaos
