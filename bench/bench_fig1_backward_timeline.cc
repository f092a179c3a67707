// Fig. 1 (conceptual): backward recovery based on the checkpointed
// training state. Rendered as the measured event timeline of one
// Elastic Horovod failure-recovery episode: the training rolls back to
// the last per-mini-batch commit and re-computes from there.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rcc;
  const auto spec = dnn::ResNet50V2Spec();
  auto plan = bench::MakeScenarioPlan(spec, bench::Scenario::kDown,
                                      horovod::DropPolicy::kNode, 24);
  trace::Recorder rec;
  sim::Cluster cluster;
  horovod::RunElasticHorovod(cluster, plan, &rec);

  // One rank's recovery episode, ordered by virtual time: the rank that
  // finished catching the exception first (lowest pid on a tie).
  auto events = rec.events();
  int witness = -1;
  double witness_end = 0.0;
  for (const auto& e : rec.EventsForPhase(std::string("recovery/") +
                                          horovod::phase::kCatchException)) {
    if (witness < 0 || e.end < witness_end ||
        (e.end == witness_end && e.pid < witness)) {
      witness = e.pid;
      witness_end = e.end;
    }
  }
  std::vector<trace::Event> mine;
  for (const auto& e : events) {
    if (e.pid == witness && e.phase.rfind("recovery/", 0) == 0) {
      mine.push_back(e);
    }
  }
  std::sort(mine.begin(), mine.end(),
            [](const trace::Event& a, const trace::Event& b) {
              return a.start < b.start;
            });

  Table table({"t_start (s)", "t_end (s)", "phase", "duration"});
  for (const auto& e : mine) {
    table.AddRow({FormatDouble(e.start, 3), FormatDouble(e.end, 3),
                  e.phase.substr(9), FormatSeconds(e.duration())});
  }
  bench::EmitTable(table,
                   "Fig. 1: backward recovery timeline (Elastic Horovod, "
                   "node failure during ResNet-50 training on 24 GPUs, "
                   "one survivor's view)",
                   "fig1_backward_timeline.csv");
  std::printf(
      "\nThe training state rolls back to the last mini-batch commit and\n"
      "the lost mini-batch is re-computed after the full context rebuild\n"
      "(the paper's Fig. 1 checkpoint-rollback arc).\n");
  bench::DumpObservability(rec);
  return 0;
}
