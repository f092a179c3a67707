// Scale smoke: N simulated ranks (default 1024) found a resilient
// communicator, allreduce for a few rounds, lose one rank mid-run,
// repair/shrink, and keep reducing. Verifies every survivor saw the
// repair, ends at world N-1, and holds bit-identical final reductions.
//
//   ./tools/scale_smoke [--ranks N] [--max-rss-mb M]
//
// Distinct exit codes so CI can tell failure classes apart:
//   0  pass
//   1  resource budget exceeded (peak RSS above --max-rss-mb)
//   2  verification mismatch (divergent replicas, wrong membership, or
//      a survivor that missed the repair)
//   3  stall — the scheduler proved a deadlock (via the
//      sim::SetStallHandler hook)
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/resilient.h"
#include "sim/cluster.h"
#include "sim/engine.h"

using namespace rcc;

namespace {

struct Report {
  bool aborted = false;
  int repairs = 0;
  int final_world = 0;
  std::vector<float> last;
};

}  // namespace

int main(int argc, char** argv) {
  int ranks = 1024;
  double max_rss_mb = 0;       // 0 = no budget check
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--ranks") == 0) ranks = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--max-rss-mb") == 0)
      max_rss_mb = std::atof(argv[i + 1]);
  }

  // The scheduler proves a deadlock deterministically and calls the
  // handler instead of aborting.
  sim::SetStallHandler([](const std::string& report) {
    std::fprintf(stderr, "scale_smoke: STALL: %s\n", report.c_str());
    std::exit(3);
  });

  constexpr int kRounds = 8;
  constexpr size_t kCount = 256;
  constexpr double kRoundBusy = 0.01;   // virtual seconds per round
  const int victim = ranks / 3;
  // Dies during round 4's reduction (clock passes 0.035 inside it).
  const sim::Seconds kKillAt = 3 * kRoundBusy + kRoundBusy / 2;

  std::vector<int> pids(ranks);
  for (int i = 0; i < ranks; ++i) pids[i] = i;

  std::mutex mu;
  std::vector<Report> reports;

  sim::Cluster cluster;
  cluster.AddPendingFailure(
      {sim::FailScope::kProcess, victim, kKillAt});
  cluster.Spawn(ranks, [&](sim::Endpoint& ep) {
    core::ResilientComm rc(ep, pids, horovod::DropPolicy::kProcess,
                           /*rec=*/nullptr);
    Report rep;
    std::vector<float> send(kCount), recv(kCount);
    for (int round = 0; round < kRounds && !rep.aborted; ++round) {
      ep.Busy(kRoundBusy);
      for (size_t i = 0; i < kCount; ++i) {
        send[i] = static_cast<float>((ep.pid() % 7) + round) +
                  static_cast<float>(i) * 0.001f;
      }
      if (!rc.Allreduce(send.data(), recv.data(), kCount).ok()) {
        rep.aborted = true;
      }
    }
    rep.repairs = rc.repairs();
    rep.final_world = rc.size();
    rep.last = recv;
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(std::move(rep));
  });
  cluster.Join();
  sim::SetStallHandler(nullptr);

  int survivors = 0, aborted = 0, repaired = 0;
  const Report* ref = nullptr;
  bool identical = true, world_ok = true;
  for (const auto& r : reports) {
    if (r.aborted) {
      ++aborted;
      continue;
    }
    ++survivors;
    if (r.repairs > 0) ++repaired;
    if (r.final_world != ranks - 1) world_ok = false;
    if (ref == nullptr) {
      ref = &r;
    } else if (r.last != ref->last) {
      identical = false;
    }
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = ru.ru_maxrss / 1024.0;  // Linux: ru_maxrss in KB

  const bool verified = survivors == ranks - 1 && aborted == 1 &&
                        repaired == survivors && world_ok && identical;
  const bool rss_ok = max_rss_mb <= 0 || rss_mb <= max_rss_mb;
  std::printf(
      "scale_smoke: ranks=%d survivors=%d aborted=%d repaired=%d "
      "world_ok=%d identical=%d peak_rss_mb=%.1f -> %s\n",
      ranks, survivors, aborted, repaired, static_cast<int>(world_ok),
      static_cast<int>(identical), rss_mb,
      verified && rss_ok ? "PASS" : "FAIL");
  if (!verified) return 2;
  return rss_ok ? 0 : 1;
}
