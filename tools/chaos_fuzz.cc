// chaos_fuzz: seeded failure-schedule fuzzing over the virtual-time
// simulator.
//
//   chaos_fuzz [--campaigns N] [--seed-base S] [--out DIR] [--no-shrink]
//              [--max-shrink-runs N] [--plant-skip-replay]
//   chaos_fuzz --replay FILE [--plant-skip-replay]
//
// Default mode generates and runs N seeded campaigns (seeds S..S+N-1),
// checks every oracle, and on a violation shrinks the schedule to a
// minimal reproducer written as JSON under --out (replayable with
// --replay, byte-deterministically), created with its parents if
// missing. Exit status: 0 clean, 1 any violation, 2 usage/IO error.
//
// Env knobs: RCC_CHAOS_CAMPAIGNS, RCC_CHAOS_SEED_BASE, RCC_CHAOS_OUT
// mirror the flags (flags win); RCC_CHAOS_MIN_WORLD, RCC_CHAOS_MAX_WORLD,
// RCC_CHAOS_MAX_TIMED, RCC_CHAOS_MAX_PHASED, RCC_CHAOS_RATE,
// RCC_CHAOS_NODE_SCOPE shape the generator (see chaos/generator.h).
//
// --plant-skip-replay arms the deliberate replay-skipping bug in
// ResilientComm (pid 0 silently skips every replayed op) to prove the
// oracle + shrinker pipeline catches a real recovery bug end to end.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/generator.h"
#include "chaos/oracle.h"
#include "chaos/runner.h"
#include "chaos/shrink.h"
#include "core/resilient.h"
#include "obs/flight.h"

namespace {

using rcc::chaos::CampaignOutcome;
using rcc::chaos::CheckOracles;
using rcc::chaos::FormatViolations;
using rcc::chaos::GenConfig;
using rcc::chaos::GenerateSchedule;
using rcc::chaos::RunSchedule;
using rcc::chaos::Schedule;
using rcc::chaos::ShrinkResult;
using rcc::chaos::ShrinkSchedule;
using rcc::chaos::Violation;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

std::string EnvStr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void PrintOutcome(const Schedule& s, const CampaignOutcome& o) {
  int finishers = 0;
  for (const auto& r : o.results) {
    if (!r.report.aborted) ++finishers;
  }
  std::printf(
      "  world=%d window=%d buckets=%d policy=%s events=%d "
      "finishers=%d/%zu repairs=%.0f replays=%zu horizon=%.4fs\n",
      s.shape.world, s.shape.inflight_window, s.shape.grad_buckets,
      s.shape.policy == rcc::horovod::DropPolicy::kNode ? "node" : "process",
      s.EventCount(), finishers, o.results.size(), o.repairs_metric,
      o.replay_events.size(), o.horizon);
}

int WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "chaos_fuzz: cannot write %s\n", path.c_str());
    return 2;
  }
  out << body;
  return 0;
}

int Replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "chaos_fuzz: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream body;
  body << in.rdbuf();
  Schedule s;
  std::string error;
  if (!Schedule::FromJson(body.str(), &s, &error)) {
    std::fprintf(stderr, "chaos_fuzz: bad schedule %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("replaying %s (seed %llu)\n", path.c_str(),
              static_cast<unsigned long long>(s.seed));
  CampaignOutcome o = RunSchedule(s);
  const std::vector<Violation> v = CheckOracles(s, o);
  PrintOutcome(s, o);
  if (v.empty()) {
    std::printf("  no oracle violations\n");
    return 0;
  }
  std::printf("%s", FormatViolations(v).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int campaigns = EnvInt("RCC_CHAOS_CAMPAIGNS", 10);
  int seed_base = EnvInt("RCC_CHAOS_SEED_BASE", 1);
  std::string out_dir = EnvStr("RCC_CHAOS_OUT", ".");
  std::string replay_path;
  bool shrink = true;
  int max_shrink_runs = 80;
  bool plant = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaos_fuzz: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--campaigns") == 0) {
      campaigns = std::atoi(next(a));
    } else if (std::strcmp(a, "--seed-base") == 0) {
      seed_base = std::atoi(next(a));
    } else if (std::strcmp(a, "--out") == 0) {
      out_dir = next(a);
    } else if (std::strcmp(a, "--replay") == 0) {
      replay_path = next(a);
    } else if (std::strcmp(a, "--no-shrink") == 0) {
      shrink = false;
    } else if (std::strcmp(a, "--max-shrink-runs") == 0) {
      max_shrink_runs = std::atoi(next(a));
    } else if (std::strcmp(a, "--plant-skip-replay") == 0) {
      plant = true;
    } else {
      std::fprintf(stderr, "chaos_fuzz: unknown flag %s\n", a);
      return 2;
    }
  }

  if (plant) {
    rcc::core::ResilientComm::TestOnlySetReplaySkip(
        [](int pid, int64_t) { return pid == 0; });
  }

  if (!replay_path.empty()) return Replay(replay_path);

  // A violation writes its reproducer and flight dumps here.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "chaos_fuzz: cannot create %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const GenConfig cfg = GenConfig::FromEnv();
  int violated = 0;
  for (int i = 0; i < campaigns; ++i) {
    const uint64_t seed = static_cast<uint64_t>(seed_base) + i;
    const Schedule s = GenerateSchedule(seed, cfg);
    CampaignOutcome o = RunSchedule(s);
    const std::vector<Violation> v = CheckOracles(s, o);
    std::printf("campaign seed=%llu %s\n",
                static_cast<unsigned long long>(seed),
                v.empty() ? "ok" : "VIOLATION");
    PrintOutcome(s, o);
    if (v.empty()) continue;
    ++violated;
    std::printf("%s", FormatViolations(v).c_str());

    Schedule repro = s;
    if (shrink) {
      ShrinkResult shrunk = ShrinkSchedule(s, v.front().oracle,
                                           max_shrink_runs);
      std::printf("  shrunk %d -> %d events in %d runs\n", s.EventCount(),
                  shrunk.schedule.EventCount(), shrunk.runs);
      repro = shrunk.schedule;
    }
    const std::string path = out_dir + "/chaos_repro_seed" +
                             std::to_string(seed) + ".json";
    if (WriteFile(path, repro.ToJson()) != 0) return 2;
    std::printf("  reproducer: %s (replay with --replay)\n", path.c_str());

    // Re-run the minimized reproducer once and park its flight-recorder
    // rings next to the schedule JSON: seed<N>_flight_rank<P>.json, ready
    // for tools/postmortem without re-running anything.
    if (rcc::obs::flight::Enabled()) {
      rcc::obs::flight::DumpAll(*RunSchedule(repro).logs,
                                "oracle violation seed=" +
                                    std::to_string(seed),
                                out_dir,
                                "seed" + std::to_string(seed) + "_");
    }
  }

  std::printf("%d/%d campaigns violated an oracle\n", violated, campaigns);
  return violated == 0 ? 0 : 1;
}
