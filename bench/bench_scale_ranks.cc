// Engine scaling: Scenario III (upscale) from 12 ranks to N for N up to
// 4096. For each size the bench reports wall-clock, peak RSS, and both
// amortised per simulated rank — the point of the fiber engine is that
// 4096 cooperative ranks fit in one process on one core.
//
// Each size runs in a forked child (re-exec of this binary with
// `--one <ranks>`) so peak RSS is per-run rather than the
// monotone process-wide high-water mark, and the parent reads it from
// wait4()'s rusage. The child prints a single RESULT line on stdout.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/ulfm_elastic.h"

namespace {

using namespace rcc;

// Small synthetic spec: one fusion bucket per step, negligible physical
// buffers, so the run time is dominated by the engine (scheduling +
// message passing), which is what this bench measures.
dnn::ModelSpec ScaleProbeSpec() {
  dnn::ModelSpec spec;
  spec.name = "ScaleProbe";
  spec.trainable_tensors = 8;
  spec.depth = 8;
  spec.total_parameters = 2.0e6;
  spec.size_mb = 8.0;
  spec.forward_flops_per_sample = 1.0e8;
  return spec;
}

struct OneResult {
  bool ok = false;
  double wall_s = 0;
  double completion_virtual_s = 0;
  int final_world = 0;
  int steps = 0;
  long maxrss_kb = 0;
};

// Child mode: one size. Scenario III shape: 12 workers train epoch 0,
// `ranks - 12` cold joiners are admitted at the epoch-1 boundary, epoch
// 1 runs at the full size.
int RunOne(int ranks) {
  horovod::SyntheticPlan plan;
  plan.spec = ScaleProbeSpec();
  plan.initial_world = 12;
  plan.batch_per_worker = 32;
  plan.steps_per_epoch = 2;
  plan.epochs = 2;
  plan.max_physical_floats = 2048;
  if (ranks > plan.initial_world) {
    plan.joins.push_back({/*epoch=*/1, /*count=*/ranks - plan.initial_world,
                          /*cold=*/true});
  }

  trace::Recorder rec;
  horovod::RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  {
    sim::Cluster cluster;
    stats = core::RunUlfmElastic(cluster, plan, &rec);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("RESULT wall_s=%.6f completion=%.6f final_world=%d steps=%d\n",
              wall, stats.completion_time, stats.final_world,
              stats.steps_executed);
  std::fflush(stdout);
  return stats.final_world == ranks ? 0 : 1;
}

// Parent mode: fork + re-exec `--one`, parse the child's RESULT line,
// take peak RSS from wait4's rusage.
OneResult Dispatch(const char* self, int ranks) {
  OneResult r;
  int fds[2];
  if (pipe(fds) != 0) return r;

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return r;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    const std::string ranks_str = std::to_string(ranks);
    execl(self, self, "--one", ranks_str.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }

  close(fds[1]);
  std::string out;
  char buf[512];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) out.append(buf, n);
  close(fds[0]);

  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  if (wait4(pid, &status, 0, &ru) != pid) return r;

  const char* line = std::strstr(out.c_str(), "RESULT ");
  if (line == nullptr || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "child failed (status %d): %s\n", status,
                 out.c_str());
    return r;
  }
  if (std::sscanf(line,
                  "RESULT wall_s=%lf completion=%lf final_world=%d steps=%d",
                  &r.wall_s, &r.completion_virtual_s, &r.final_world,
                  &r.steps) != 4) {
    return r;
  }
  r.maxrss_kb = ru.ru_maxrss;  // Linux: kilobytes
  r.ok = true;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcc;

  if (argc == 3 && std::strcmp(argv[1], "--one") == 0) {
    return RunOne(std::atoi(argv[2]));
  }

  Table table({"ranks", "wall (s)", "peak RSS (MB)", "wall/rank (ms)",
               "RSS/rank (KB)", "virtual completion (s)", "final world"});
  bool ok_4096 = false;
  for (int ranks : {12, 48, 192, 1024, 4096}) {
    std::printf("running %d ranks ...\n", ranks);
    std::fflush(stdout);
    const OneResult r = Dispatch(argv[0], ranks);
    if (!r.ok) {
      std::fprintf(stderr, "%d ranks failed\n", ranks);
      continue;
    }
    if (ranks == 4096 && r.final_world == 4096) ok_4096 = true;
    table.AddRow({std::to_string(ranks), FormatDouble(r.wall_s, 3),
                  FormatDouble(r.maxrss_kb / 1024.0, 1),
                  FormatDouble(r.wall_s * 1000.0 / ranks, 3),
                  FormatDouble(static_cast<double>(r.maxrss_kb) / ranks, 1),
                  FormatDouble(r.completion_virtual_s, 3),
                  std::to_string(r.final_world)});
  }

  bench::EmitTable(table,
                   "Engine scaling, Scenario III upscale 12 -> N "
                   "(ScaleProbe model, 2 epochs x 2 steps)",
                   "scale_ranks.csv");
  return ok_4096 ? 0 : 1;
}
