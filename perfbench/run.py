#!/usr/bin/env python3
"""Benchmark of the rcc simulator on both of its clocks.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

It builds perfbench/ (which links the repository's libraries) into
.bench_build/, derives the workload's inputs from --seed, and runs the
workload's units for about --seconds seconds, each unit in its own driver
process with a private working directory. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. README.md documents the workloads and metrics.
"""

import argparse
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
DRIVER = os.path.join(CMAKE_DIR, "rcc_perfbench")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")

UNIT_TIMEOUT_S = 150  # a unit that runs longer counts as failed
SETUPS_PER_PASS = 4   # set-up-only launches per pass, for setup_s

GRID_WORLD = 96         # paper_grid: Figs. 5-7 scale, NasNetMobile
SERVE_WORLD = 8
SERVE_RUNS = 2          # serving units per pass
SERVE_REQUESTS = 1000   # per serving unit
SERVE_RPS = 60.0        # base arrival rate, matches driver.cc
SERVE_PERIOD_S = 3.0    # diurnal period, matches driver.cc
SERVE_KILLS = 2
CHURN_WORLD = 96
CHURN_CAMPAIGNS = 4
CHURN_KILLS = 4

WORKLOADS = ("paper_grid", "serve_failover", "train_churn")

# name -> unit, for the human-readable table.
E2E_UNITS = {
    "setup_s": "s",
    "host_wall_s": "s",
    "host_cpu_s": "s",
    "peak_rss_mb": "MB",
    "modeled_completion_s": "s",
    "modeled_ulfm_overhead_s": "s",
    "modeled_goodput_steps_per_s": "1/s",
}
PHASES = ("revoke", "agree", "shrink", "rebuild", "replay")
LAYER_UNITS = {
    "sim.recv_probe_us": "us",
    "sim.yield_probe_us": "us",
    "coll.ops": "count",
    "coll.ops_failed": "count",
    "coll.queue_wait_s": "s",
    "coll.service_s": "s",
    "coll.replay_ratio": "ratio",
    "coll.allreduce_probe_us": "us",
    "mpi.bytes": "B",
    "nccl.bytes": "B",
    "gloo.bytes": "B",
    "gloo.rendezvous_s": "s",
    "ulfm.repairs": "count",
    "ulfm.replayed_ops": "count",
    **{"ulfm.phase_s." + p: "s" for p in PHASES},
    "ulfm.admission_latency_s": "s",
    "horovod.modeled_overhead_s": "s",
    "kvstore.ops": "count",
    "kvstore.probe_us": "us",
    "core.step_compute_s": "s",
    "core.step_comm_service_s": "s",
    "core.step_comm_exposed_s": "s",
    "dnn.fwd_bwd_probe_us": "us",
    "policy.decisions": "count",
    "policy.decide_probe_us": "us",
    "checkpoint.rollback_ratio": "ratio",
    "serve.ttft_p50_ms": "ms",
    "serve.ttft_p99_ms": "ms",
    "serve.token_p99_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.decode_replays": "count",
    "serve.recovery_steps": "count",
    "obs.flight_dump_files": "count",
    "obs.flight_dump_mb": "MB",
    "obs.registry_lookup_probe_ns": "ns",
    "obs.tracing_overhead_frac": "ratio",
    "chaos.oracle_check_s": "s",
}


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: %s is not an rcc source checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "rcc_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.exit("perfbench: build failed, see %s" % build_log)


# --------------------------------------------------------------------
# Workload inputs: a pure function of (workload, seed).
#
# Each input function returns (twins, units). `twins` are the failure-free
# runs of the same inputs, run once per benchmark run as the reference for
# the recovery overhead (none where bench::RunScenario runs its own clean
# twin); `units(twin_results)` gives the units every pass runs.


def grid_units(rng):
    # The seed scales NasNetMobile's declared size by up to +-1%: every
    # seed is a distinct input, while the physical buffers (and so the
    # host cost) stay the same.
    scale = repr(1.0 + 0.01 * (2.0 * rng.random() - 1.0))
    units = []
    for scenario in ("down", "same", "up"):
        for level in ("process", "node"):
            # Upscaling admits whole nodes at either level, so the paper's
            # figures (and bench::RunCostFigure) run it once.
            if scenario == "up" and level == "process":
                continue
            for stack in ("ulfm", "eh"):
                w = GRID_WORLD
                expect = {"down": w - (6 if level == "node" else 1),
                          "same": w, "up": 2 * w}[scenario]
                units.append({
                    "kind": "scenario", "stack": stack, "expect": expect,
                    "attempts": 1,
                    "args": ["scenario", "nasnet", stack, scenario, level,
                             str(w), scale]})
    return [], lambda _: units


def serve_units(rng):
    twins, units = [], []
    for _ in range(SERVE_RUNS):
        base = ["serve", str(rng.randrange(1, 2 ** 31)), str(SERVE_REQUESTS)]
        # The kills land within 5% of a period after the diurnal peaks of
        # cycles 2 and 4 (of ~5.5): how long the plane runs degraded, and
        # the load each repair meets, then vary little across seeds, and so
        # do the host cost and the recovery overhead.
        args = list(base)
        for pid, cycle in zip(rng.sample(range(1, SERVE_WORLD), SERVE_KILLS), (2, 4)):
            args += [str(pid), repr((cycle + 0.05 * rng.random()) * SERVE_PERIOD_S)]
        twins.append({"kind": "serve", "attempts": SERVE_REQUESTS, "args": base})
        units.append({"kind": "serve", "attempts": SERVE_REQUESTS, "args": args})
    return twins, lambda _: units


def churn_units(rng):
    draws = []
    for _ in range(CHURN_CAMPAIGNS):
        seed = str(rng.randrange(1, 2 ** 31))
        pids = rng.sample(range(1, CHURN_WORLD), CHURN_KILLS)
        # Kill k lands in [0.1 + 0.2k, 0.2 + 0.2k] of the clean horizon,
        # the way the chaos generator places background kills.
        fracs = [0.1 + 0.2 * k + 0.1 * rng.random() for k in range(CHURN_KILLS)]
        draws.append((seed, pids, fracs))

    def units(twin_results):
        horizon = twin_results[0]["horizon_s"]
        out = []
        for seed, pids, fracs in draws:
            args = ["churn", seed]
            for pid, frac in zip(pids, fracs):
                args += [str(pid), repr(frac * horizon)]
            out.append({"kind": "churn", "attempts": 1, "args": args})
        return out

    return [{"kind": "churn", "attempts": 1, "args": ["churn", "0"]}], units


WORKLOAD_INPUTS = {
    "paper_grid": grid_units,
    "serve_failover": serve_units,
    "train_churn": churn_units,
}

# World size the layer probes run at, per workload.
PROBE_WORLD = {
    "paper_grid": 2 * GRID_WORLD,
    "serve_failover": SERVE_WORLD,
    "train_churn": CHURN_WORLD,
}


# --------------------------------------------------------------------
# Running one unit in its own process


_child = None  # pid of the running unit, for the timeout and exit paths


def _kill_child():
    if _child is not None:
        try:
            os.kill(_child, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_unit(args, traced):
    """Runs the driver with `args`; returns the unit's measurements."""
    global _child
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="unit-", dir=RUNS_DIR)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCC_")}
    env["RCC_SIM_ENGINE"] = "fibers"
    env["RCC_FLIGHT_DIR"] = workdir
    if traced:
        env["RCC_METRICS_OUT"] = os.path.join(workdir, "metrics.prom")
        env["RCC_TRACE_JSON"] = os.path.join(workdir, "trace.json")
    # posix_spawn rather than fork: forking the interpreter costs about
    # 2 ms, more than the driver's own set-up, and it is noisy. The child
    # takes the parent's cwd at spawn, so the parent steps into the
    # unit's directory around the call.
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    outputs = [(os.POSIX_SPAWN_OPEN, 1, "stdout.txt", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", flags, 0o644)]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        t_spawn = time.monotonic_ns()
        pid = os.posix_spawn(DRIVER, [DRIVER] + args, env, file_actions=outputs)
    finally:
        os.chdir(cwd)
    _child = pid
    timed_out = []
    old = signal.signal(signal.SIGALRM,
                        lambda *_: (timed_out.append(True), _kill_child()))
    signal.setitimer(signal.ITIMER_REAL, UNIT_TIMEOUT_S)
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:  # SIGTERM or ^C: never leave the child behind
        _kill_child()
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        _child = None
    t_end = time.monotonic_ns()

    out = {"ok": False, "error": None, "result": None}
    with open(os.path.join(workdir, "stdout.txt")) as f:
        lines = f.read().splitlines()
    ready = [l for l in lines if l.startswith("READY ")]
    result = [l for l in lines if l.startswith("RESULT ")]
    if timed_out:
        out["error"] = "timeout after %ds" % UNIT_TIMEOUT_S
    elif not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        with open(os.path.join(workdir, "stderr.txt")) as f:
            tail = f.read().strip().splitlines()[-1:] or [""]
        out["error"] = "status %d: %s" % (status, tail[0][:200])
    elif not ready or not result:
        out["error"] = "no READY/RESULT line"
    else:
        out["ok"] = True
        out["result"] = json.loads(result[-1][len("RESULT "):])
        t_ready = int(ready[-1].split()[1])
        out["setup_s"] = (t_ready - t_spawn) / 1e9
        # Oracle checking is the benchmark's own work, not the program's.
        out["wall_s"] = (t_end - t_ready) / 1e9 - out["result"].get("oracle_s", 0.0)
        out["cpu_s"] = ru.ru_utime + ru.ru_stime
        out["rss_mb"] = ru.ru_maxrss / 1024.0
    dumps = [n for n in os.listdir(workdir)
             if n.startswith("flight_") and n.endswith(".json")]
    out["dump_files"] = len(dumps)
    out["dump_mb"] = sum(os.path.getsize(os.path.join(workdir, n))
                         for n in dumps) / 1e6
    out["metrics"] = []
    csv_path = os.path.join(workdir, "metrics.prom.csv")
    if traced and os.path.isfile(csv_path):
        with open(csv_path, newline="") as f:
            out["metrics"] = list(csv.DictReader(f))
    shutil.rmtree(workdir, ignore_errors=True)
    return out


# --------------------------------------------------------------------
# Checks and modeled metrics, from the units' outputs


def check_unit(unit, res):
    """Returns None when the unit's output is correct, else why not."""
    r = res["result"]
    if unit["kind"] == "scenario":
        if r["final_world"] != unit["expect"]:
            return "final_world %d, plan says %d" % (r["final_world"], unit["expect"])
    elif unit["kind"] == "serve":
        expect = SERVE_WORLD - (len(unit["args"]) - 3) // 2
        if not r["exactly_once"]:
            return "serving survivors disagree or dropped requests (P8)"
        if r["survivors"] != expect:
            return "%d survivors, expected %d" % (r["survivors"], expect)
    elif unit["kind"] == "churn":
        if r["violations"]:
            return "oracle violations: " + r["violation_detail"]
    return None


def modeled(workload, units, results, twins):
    """End-to-end modeled metrics of one pass (virtual-time clock)."""
    rs = [res["result"] for res in results]
    if workload == "paper_grid":
        ulfm = [r for u, r in zip(units, rs) if u["stack"] == "ulfm"]
        completion = sum(r["faulty_s"] for r in ulfm)
        overhead = sum(r["overhead_s"] for r in ulfm)
        steps = sum(r["planned_steps"] for r in ulfm)
    elif workload == "serve_failover":
        completion = sum(r["completion_s"] for r in rs)
        # The longest delay the repairs added to any request.
        overhead = sum(max(f - c for f, c in zip(r["done_s"], t["done_s"]))
                       for r, t in zip(rs, twins))
        steps = sum(r["decode_steps"] for r in rs)
    else:
        completion = sum(r["horizon_s"] for r in rs)
        overhead = sum(r["horizon_s"] - twins[0]["horizon_s"] for r in rs)
        steps = sum(r["useful_steps"] for r in rs)
    return {
        "modeled_completion_s": completion,
        "modeled_ulfm_overhead_s": overhead,
        "modeled_goodput_steps_per_s": steps / completion if completion else 0.0,
    }


def host(results):
    """End-to-end host-clock metrics of one pass."""
    return {
        "host_wall_s": sum(r["wall_s"] for r in results),
        "host_cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def layer_metrics(units, traced, probe, overhead_frac):
    """Per-layer metrics from one traced pass plus the probes."""
    rows = [row for res in traced for row in res["metrics"]]

    def total(metric, field="value", label=""):
        return sum(float(row[field] or 0.0) for row in rows
                   if row["metric"] == metric and label in row["labels"])

    rs = [res["result"] for res in traced]
    coll_ops = total("rcc_coll_ops_total")
    replayed = total("rcc_recovery_replayed_ops_total")
    m = {
        "sim.recv_probe_us": probe["sim_recv_us"],
        "sim.yield_probe_us": probe["sim_yield_us"],
        "coll.ops": coll_ops,
        "coll.ops_failed": total("rcc_coll_ops_failed_total"),
        "coll.queue_wait_s": total("rcc_coll_queue_wait_seconds", "sum"),
        "coll.service_s": total("rcc_coll_service_seconds", "sum"),
        "coll.replay_ratio": replayed / coll_ops if coll_ops else 0.0,
        "coll.allreduce_probe_us": probe["coll_allreduce_us"],
        "gloo.rendezvous_s": total("rcc_rendezvous_seconds", "sum"),
        "ulfm.repairs": total("rcc_recovery_repairs_total"),
        "ulfm.replayed_ops": replayed,
        "ulfm.admission_latency_s": total("rcc_admission_latency_seconds", "sum"),
        "horovod.modeled_overhead_s": sum(
            r["overhead_s"] for u, r in zip(units, rs)
            if u["kind"] == "scenario" and u["stack"] == "eh"),
        "kvstore.ops": total("rcc_kv_ops_total"),
        "kvstore.probe_us": probe["kv_us"],
        "core.step_compute_s": total("rcc_step_compute_seconds_total"),
        "core.step_comm_service_s": total("rcc_step_comm_service_seconds_total"),
        "core.step_comm_exposed_s": total("rcc_step_comm_exposed_seconds_total"),
        "dnn.fwd_bwd_probe_us": probe["dnn_fwd_bwd_us"],
        "policy.decisions": sum(r.get("decisions", 0) for r in rs),
        "policy.decide_probe_us": probe["policy_decide_us"],
        "serve.decode_replays": total("rcc_serve_decode_replays_total"),
        "serve.recovery_steps": total("rcc_serve_recovery_steps_total"),
        "obs.flight_dump_files": sum(res["dump_files"] for res in traced),
        "obs.flight_dump_mb": sum(res["dump_mb"] for res in traced),
        "obs.registry_lookup_probe_ns": probe["registry_lookup_ns"],
        "obs.tracing_overhead_frac": overhead_frac,
        "chaos.oracle_check_s": sum(r.get("oracle_s", 0.0) for r in rs),
    }
    for stack in ("mpi", "nccl", "gloo"):
        m[stack + ".bytes"] = total("rcc_collective_bytes_total",
                                    label='stack="%s"' % stack)
    for p in PHASES:
        m["ulfm.phase_s." + p] = total("rcc_recovery_phase_seconds", "sum",
                                       'phase="%s"' % p)
    steps_run = sum(r.get("steps_run", 0) for r in rs)
    m["checkpoint.rollback_ratio"] = (
        sum(r.get("rollback_steps", 0) for r in rs) / steps_run if steps_run else 0.0)
    # Latency quantiles are per serving run: the mean over the pass's runs.
    served = [r for r in rs if "ttft_p50_s" in r]
    for key in ("ttft_p50", "ttft_p99", "token_p99", "queue_wait_p99"):
        m["serve.%s_ms" % key] = (
            statistics.mean(r[key + "_s"] for r in served) * 1e3 if served else 0.0)
    return m


# --------------------------------------------------------------------
# One benchmark run


class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None  # modeled outputs every pass must reproduce

    def run_units(self, units, traced):
        """Runs each unit once; returns the results, or None on a failure."""
        results = []
        for unit in units:
            res = run_unit(unit["args"], traced)
            problem = check_unit(unit, res) if res["ok"] else res["error"]
            self.attempted += unit["attempts"]
            if not res["ok"]:
                self.failed += unit["attempts"]
            elif unit["kind"] == "serve":  # a serving unit's attempts are requests
                self.failed += SERVE_REQUESTS - res["result"]["completed"]
            elif problem:
                self.failed += 1
            if problem:
                self.errors.append("%s: %s" % (" ".join(unit["args"][:6]), problem))
            results.append(res)
        return results if all(res["ok"] for res in results) else None

    def run_pass(self, units, traced):
        results = self.run_units(units, traced)
        if results is None:
            return None
        # Determinism: modeled outputs are bit-identical across passes,
        # traced or not (host-clock fields are excluded).
        outputs = [{k: v for k, v in res["result"].items() if k != "oracle_s"}
                   for res in results]
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.errors.append("modeled outputs differ between passes")
        return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run_unit reaps the child
    rng = random.Random("%s:%d" % (a.workload, a.seed))
    twin_units, make_units = WORKLOAD_INPUTS[a.workload](rng)
    run = Run()
    units, setups = [], []
    twins = run.run_units(twin_units, traced=False)
    if twins is not None:
        twins = [res["result"] for res in twins]
        units = make_units(twins)
    log("perfbench %s seed=%d: %d unit(s) per pass" % (a.workload, a.seed, len(units)))

    t0 = time.monotonic()
    passes, traced_passes, untraced_walls, traced_walls = [], [], [], []
    probe = None
    while units:
        t_pass = time.monotonic()
        # Set-up samples are spread over the whole run, like the passes,
        # so that one busy moment of the host does not set setup_s.
        for _ in range(SETUPS_PER_PASS):
            res = run_unit(["setup"] + units[0]["args"], False)
            if res["ok"]:
                setups.append(res["setup_s"])
            else:
                run.errors.append("set-up: %s" % res["error"])
        res = run.run_pass(units, traced=False)
        if res:
            passes.append(res)
            untraced_walls.append(host(res)["host_wall_s"])
        if a.trace:
            res = run.run_pass(units, traced=True)
            if res:
                traced_passes.append(res)
                traced_walls.append(host(res)["host_wall_s"])
            if probe is None:
                p = run_unit(["probe", str(PROBE_WORLD[a.workload])], False)
                probe = p["result"] if p["ok"] else None
                if not p["ok"]:
                    run.errors.append("probe: %s" % p["error"])
        elapsed = time.monotonic() - t0
        if elapsed + (time.monotonic() - t_pass) > a.seconds:
            break

    ok_units = [res for p in passes + traced_passes for res in p]
    if a.trace and traced_passes and passes and probe:
        overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        metrics = layer_metrics(units, traced_passes[0], probe, overhead)
        units_of = LAYER_UNITS
    elif not a.trace and passes:
        per_pass = [dict(host(p), **modeled(a.workload, units, p, twins)) for p in passes]
        metrics = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
        # Other tenants of a shared host only ever add time, in bursts of
        # seconds: each unit's fastest run is the program's own cost, and
        # it moves far less from run to run than a median does.
        for k, field in (("host_wall_s", "wall_s"), ("host_cpu_s", "cpu_s")):
            metrics[k] = sum(min(p[i][field] for p in passes)
                             for i in range(len(units)))
        metrics["setup_s"] = statistics.median(
            setups + [res["setup_s"] for res in ok_units])
        units_of = E2E_UNITS
    else:
        metrics, units_of = {}, {}

    correct = bool(metrics) and not run.errors
    for e in run.errors[:10]:
        log("ERROR " + e)
    log("pass walls (s): " + " ".join("%.3f" % w for w in untraced_walls))
    log("%d pass(es) in %.1f s; failed %d of %d attempted (failed_frac %.4f)" % (
        len(passes) + len(traced_passes), time.monotonic() - t0, run.failed,
        run.attempted, run.failed / max(1, run.attempted)))
    for name in units_of:
        log("  %-32s %16.6g %s" % (name, metrics[name], units_of[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
