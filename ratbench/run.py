#!/usr/bin/env python3
"""The RAT benchmark: one command per workload run.

    python3 ratbench/run.py --workload direct_hot|routed_cold|explore \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds ratbench/ (which compiles the
repository's servers and libraries from source, unmodified) into
.bench_build/, runs one workload, checks the outputs, prints every
metric by name with its unit, and ends its standard output with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics (all tracing off); --trace 1 repeats the workload
with the programs' observability on plus the benchmark's own spans and
reports the per-layer metrics. See ratbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was
import metrics as M  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "ratbench"
RUNS = ROOT / ".bench_build" / "runs"
FIXTURES = ROOT / "tests" / "fixtures" / "worksheets"
DRIVER = BUILD / "ratbench_driver"
RAT_SERVE = BUILD / "rat" / "src" / "apps" / "rat_serve"
RAT_ROUTER = BUILD / "rat" / "src" / "apps" / "rat_router"

SETUP_REPEATS = 15     # spawns per run; setup_s is their median
INSTANCES = 4          # of them carry the fixed step, PARTS sub-steps each
PARTS = 2
CHECK_SAMPLES = 48     # served responses compared byte for byte
STEP_TIMEOUT_S = 5.0   # generator gives up this long after its last send
MIN_ACHIEVED = 0.9     # achieved / offered for a valid fixed sub-step
# Achieved / offered for a passing ladder step. A short step's achieved
# rate also counts the drain of its last responses (delayed-ACK stalls
# add up to 44 ms), so the bar is lower; overload shows as errors first.
LADDER_MIN_ACHIEVED = 0.85
FIXED_SHARE = 0.8      # of --seconds, for the fixed-rate step (--trace 0)
BASE_SHARE = 0.25      # ... of the traced run's untraced instance
TRACED_SHARE = 0.2     # ... of the traced run's traced instance
LADDERS = 3            # capacity_per_s is the median of their knees
LADDER_STEP_SHARE = 0.02  # of --seconds, per ladder step
MAX_LADDER_STEPS = 10
GROWTH = 1.06

# The admission queue of the repository's own serving headline
# (scripts/check.sh): a short host stall must not turn into E_OVERLOADED
# at half the knee.
QUEUE = "--queue-capacity=4096"

# Rates measured on the reference host (4 cores): the fixed step runs at
# about half the knee, each ladder starts below the knee and climbs by
# GROWTH until its first failing step. The p99 limit sits above the
# 40-44 ms delayed-ACK stalls every rate shows (see README.md), so a
# ladder step fails on queueing, errors or lost requests.
SERVING = {
    "direct_hot": {
        "argv": lambda pid_file: [str(RAT_SERVE), "--port=0", "--threads=2", QUEUE],
        "threads": "2",
        "fixed_hz": 6000.0,
        "ladder_from_hz": 11000.0,
        "warm_requests": 2000,
        "p99_limit_ms": 50.0,
        "path": ["svc.protocol.parse", "core.parse",
                 "svc.fingerprint.canonical", "svc.cache.get",
                 "svc.protocol.render"],
        "remainder": "svc.server.transport_ms",
    },
    "routed_cold": {
        "argv": lambda pid_file: [
            str(RAT_ROUTER), "--workers=2", "--threads=1", QUEUE, "--port=0",
            f"--worker-pid-file={pid_file}"],
        "threads": "1",
        "fixed_hz": 4500.0,
        "ladder_from_hz": 8000.0,
        "warm_requests": 3000,
        "p99_limit_ms": 50.0,
        "path": ["svc.protocol.parse", "core.parse",
                 "svc.fingerprint.canonical", "svc.cache.get",
                 "core.predict_all", "svc.cache.put", "svc.protocol.render"],
        "remainder": "svc.router.hop_ms",
    },
}
# Admission control answers E_OVERLOADED above the knee (or in a long
# host stall): a failed request, not a wrong one. Any other code is.
EXPECTED_CODES = {"E_OVERLOADED"}

END_TO_END = {"cpu_us_per_op": "us", "setup_s": "s", "rss_mb": "MiB"}
PER_LAYER = {
    "load.p50_ms": "ms",
    "load.tail_ms": "ms",
    "load.capacity_per_s": "1/s",
    "load.achieved_ratio": "ratio",
    "svc.protocol.parse_us": "us",
    "core.parse_us": "us",
    "svc.fingerprint.canonical_us": "us",
    "svc.cache.get_us": "us",
    "svc.cache.put_us": "us",
    "svc.cache.hit_ratio": "ratio",
    "svc.cache.evictions_per_req": "ratio",
    "core.predict_all_us": "us",
    "svc.protocol.render_us": "us",
    "svc.service.eval_us": "us",
    "util.pool.wait_us": "us",
    "svc.server.transport_ms": "ms",
    "svc.router.route_us": "us",
    "svc.router.encode_us": "us",
    "svc.router.splice_us": "us",
    "svc.router.hop_ms": "ms",
    "svc.router.overloaded_local": "count",
    "svc.router.responses_dropped": "count",
    "svc.server.slow_client_dropped": "count",
    "core.designspace.enumerate_ms": "ms",
    "core.batch.ns_per_point": "ns",
    "core.evaluation.candidate_us": "us",
    "core.evaluation.gate_us": "us",
    "explore.assemble_ms": "ms",
    "explore.points_evaluated": "count",
    "explore.points_bounded": "count",
    "explore.corner_evaluations": "count",
    "explore.eval_share": "ratio",
    "explore.plan_cache.hit_ratio": "ratio",
    "explore.plan_cache.insert_us": "us",
    "store.open_ms": "ms",
    "obs.overhead_pct": "%",
    "run.fail_share": "ratio",
}
# Serving-layer metrics read from the in-process replay's self times.
REPLAY = {
    "svc.protocol.parse_us": "svc.protocol.parse",
    "core.parse_us": "core.parse",
    "svc.fingerprint.canonical_us": "svc.fingerprint.canonical",
    "svc.cache.get_us": "svc.cache.get",
    "svc.cache.put_us": "svc.cache.put",
    "core.predict_all_us": "core.predict_all",
    "svc.protocol.render_us": "svc.protocol.render",
    "svc.service.eval_us": "svc.service.eval",
    "svc.router.route_us": "svc.router.route",
    "svc.router.encode_us": "svc.router.encode",
    "svc.router.splice_us": "svc.router.splice",
}


class RunInvalid(Exception):
    """The run cannot be recorded as data (e.g. the generator fell behind)."""


def report(msg=""):
    print(msg, flush=True)


# ---- build and host record ----

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit(f"ratbench: no RAT sources under {ROOT / 'src'}")
    tmp = BUILD.parent / "tmp"  # the compiler's scratch files stay in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def host_record():
    facts = json.loads(subprocess.run([str(DRIVER), "host"], check=True,
                                      capture_output=True, text=True).stdout)
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    compiler = "unknown"
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            compiler = line.split("=", 1)[1]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": f"{compiler} {facts['compiler']}",
            "build_type": facts["build_type"],
            "simd_backend": facts["simd_backend"],
            "kernel": platform.release()}


# ---- processes under test ----

CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid):
    """User + system CPU time of a process so far (/proc/<pid>/stat)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def vm_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def one_line(port, line, timeout=10.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("closed before a reply")
            buf += chunk
        return buf.decode()


class Server:
    """rat_serve or rat_router, spawned and timed to its first pong."""

    def __init__(self, workload, run_dir, tag, extra=()):
        self.pid_file = run_dir / f"{tag}.pids"
        argv = SERVING[workload]["argv"](self.pid_file)
        self.stderr = open(run_dir / f"{tag}.stderr", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv + list(extra), stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        # Both servers announce "... listening on 127.0.0.1:<port>" on
        # stdout once bound; a ping then waits for every worker.
        announced = re.search(r"127\.0\.0\.1:(\d+)", self.proc.stdout.readline())
        if not announced:
            self.stop()
            raise RuntimeError(f"{argv[0]} did not announce a port")
        self.port = int(announced.group(1))
        if '"status":"ok"' not in one_line(self.port, '{"id":"p","op":"ping"}'):
            self.stop()
            raise RuntimeError(f"{argv[0]} did not answer ping")
        self.setup_s = time.perf_counter() - start

    def pids(self):
        pids = [self.proc.pid]
        if self.pid_file.exists():
            pids += [int(p) for p in self.pid_file.read_text().split() if int(p) > 0]
        return pids

    def rss_mb(self):
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def cpu_s(self):
        return sum(cpu_seconds(pid) for pid in self.pids())

    def stop(self):
        """SIGTERM drains and exits (a router reaps its workers first)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                workers = self.pids()[1:]
                self.proc.kill()
                self.proc.wait()
                for pid in workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        self.proc.stdout.close()
        self.stderr.close()


class Session:
    """The driver's load-generator session against one live server."""

    def __init__(self, workload, port, seed):
        self.proc = subprocess.Popen(
            [str(DRIVER), "session", f"--workload={workload}", f"--port={port}",
             f"--seed={seed}", f"--fixtures={FIXTURES}"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if "error" in reply:
            raise RuntimeError(f"session {line!r}: {reply['error']}")
        return reply

    def step(self, rate_hz, seconds, seed):
        n = max(1, int(rate_hz * seconds))
        return self.call(f"step {rate_hz} {n} {STEP_TIMEOUT_S} {seed}")

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Attempted / failed counts and the correctness verdict of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.probe_attempted = 0
        self.probe_failed = 0
        self.problems = []

    def step(self, step, probe=False):
        if probe:
            self.probe_attempted += step["sent"] + step["lost"]
            self.probe_failed += M.step_failures(step)
        else:
            self.attempted += step["sent"] + step["lost"]
            self.failed += M.step_failures(step)
        for code in step["error_codes"]:
            if code not in EXPECTED_CODES:
                self.problems.append(f"unexpected {code} in a load step")

    def check(self, check):
        self.attempted += check["checked"]
        self.failed += check["mismatches"]
        if check["mismatches"]:
            self.problems.append(f"{check['mismatches']} served responses differ "
                                 f"from Service::submit: {check['first_mismatch']}")
        if check["error_codes"]:
            self.problems.append(f"error answers in the identity check: "
                                 f"{check['error_codes']}")


def drive(workload, server, seed, seconds, fixed_s, parts, tally,
          ladders=0, final=False):
    """Against one live server: a warm-up, `parts` fixed-rate sub-steps
    taking `fixed_s` seconds together, `ladders` rate ladders and, when
    `final`, the stats op and the identity check. The ladders probe past
    the knee by design, so their requests are tallied apart
    (Tally.probe_*)."""
    cfg = SERVING[workload]
    session = Session(workload, server.port, seed)
    out = {"parts": [], "ladders": []}
    try:
        out["warm"] = session.step(cfg["fixed_hz"],
                                   cfg["warm_requests"] / cfg["fixed_hz"], seed)
        tally.step(out["warm"])
        cpu0 = server.cpu_s()
        for k in range(parts):
            out["parts"].append(session.step(cfg["fixed_hz"], fixed_s / parts,
                                             seed + 1 + k))
            tally.step(out["parts"][-1])
        out["cpu_s"] = server.cpu_s() - cpu0
        out["answered"] = sum(p["ok"] + p["errors"] for p in out["parts"])
        for k in range(ladders):
            steps = []
            rate = cfg["ladder_from_hz"]
            while len(steps) < MAX_LADDER_STEPS:
                step = session.step(rate, LADDER_STEP_SHARE * seconds,
                                    seed + 100 + 20 * k + len(steps))
                tally.step(step, probe=True)
                steps.append(step)
                if not M.step_passes(step, cfg["p99_limit_ms"], LADDER_MIN_ACHIEVED):
                    break
                rate *= GROWTH
            out["ladders"].append(steps)
        if final:
            out["stats"] = session.call("stats")["stats"]
            out["check"] = session.call(f"check {CHECK_SAMPLES}")
            tally.check(out["check"])
    finally:
        session.close()
    out["rss_mb"] = server.rss_mb()
    return out


def validate_fixed(parts):
    """Raise RunInvalid when the fixed step cannot be recorded as data."""
    for part in parts:
        ratio = M.achieved_ratio(part)
        if part["timed_out"]:
            raise RunInvalid("the fixed-rate step timed out")
        if ratio < MIN_ACHIEVED:
            raise RunInvalid(f"the generator fell behind: achieved/offered {ratio:.4f}")
        if not M.percentile_supported(part["samples"], 99.0):
            raise RunInvalid(f"{part['samples']} samples cannot support p99")


def print_step(label, s):
    report(f"  {label:<8} offered {s['offered_hz']:9.1f} req/s  achieved "
           f"{s['achieved_hz']:9.1f} req/s  n={s['samples']:<6} p50 "
           f"{s['p50_ms']:.4f} ms  p99 {s['p99_ms']:.4f} ms  max {s['max_ms']:.2f} ms"
           f"  errors {s['errors']} lost {s['lost']} {s['error_codes'] or ''}")


def report_fixed(label, runs):
    """Print the fixed step of one or more instances; return its summary."""
    parts = [p for run in runs for p in run["parts"]]
    for run in runs:
        print_step("warm-up", run["warm"])
        for part in run["parts"]:
            print_step(label, part)
    validate_fixed(parts)
    fixed = M.combine_parts(parts)
    cpu_s = sum(run["cpu_s"] for run in runs)
    answered = sum(run["answered"] for run in runs)
    fixed["cpu_us"] = 1e6 * cpu_s / answered
    report(f"  {label} step: p50 {fixed['p50_ms']:.4f} ms, p99 {fixed['p99_ms']:.4f} ms "
           f"(medians over {len(parts)} sub-steps, {fixed['samples']} samples); "
           f"CPU of the processes under test {fixed['cpu_us']:.2f} us per request")
    return fixed


def report_ladders(cfg, run, base_hz):
    """Print the ladders of one instance; return the median knee."""
    knees = []
    for k, steps in enumerate(run["ladders"]):
        for s in steps:
            print_step(f"ladder{k}", s)
        if M.step_passes(steps[-1], cfg["p99_limit_ms"], LADDER_MIN_ACHIEVED):
            report("  note: a ladder ended without a failing step; its knee is a lower bound")
        knees.append(M.knee(steps, cfg["p99_limit_ms"], LADDER_MIN_ACHIEVED, base_hz))
    knee = statistics.median(knees)
    report(f"  knee: {knee:.1f} req/s (median of {len(knees)} ladders)")
    return knee


def serving_e2e(workload, seed, seconds, run_dir, tally):
    """SETUP_REPEATS spawns; the last INSTANCES of them each run a share
    of the fixed-rate step, and the last one answers the stats op and
    the identity check."""
    setups, runs = [], []
    for k in range(SETUP_REPEATS):
        server = Server(workload, run_dir, f"setup{k}")
        setups.append(server.setup_s)
        try:
            if k >= SETUP_REPEATS - INSTANCES:
                runs.append(drive(workload, server, seed * 1000 + 100 * k, seconds,
                                  FIXED_SHARE * seconds / INSTANCES, PARTS, tally,
                                  final=k == SETUP_REPEATS - 1))
        finally:
            server.stop()
    fixed = report_fixed("fixed", runs)
    stats = runs[-1]["stats"]
    report(f"  stats: cache {stats['stats']['cache']}  router {stats.get('router', {})}")
    return {"cpu_us_per_op": fixed["cpu_us"],
            "setup_s": statistics.median(setups),
            "rss_mb": statistics.median(run["rss_mb"] for run in runs)}, \
        {"setups_s": setups, "runs": runs}


def read_metrics_files(paths):
    """Pool task wait (count-weighted mean, us) and counters summed over
    the rat.metrics.v1 files the servers wrote on exit."""
    waits, count, counters = 0.0, 0, {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        t = doc.get("timers", {}).get("pool.task_wait")
        if t and t["count"]:
            waits += t["total_sec"] * 1e6
            count += t["count"]
        for name, value in doc.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return (waits / count if count else 0.0), counters


def serving_layers(workload, seed, seconds, run_dir, tally):
    """The traced run: an untraced instance measures the client-side
    figures (fixed step and ladders), a second instance repeats the fixed
    step with the programs' metrics export on, and the driver replays the
    request stream in-process under spans."""
    cfg = SERVING[workload]
    out = {name: 0.0 for name in PER_LAYER}
    server = Server(workload, run_dir, "base")
    try:
        base = drive(workload, server, seed * 1000, seconds, BASE_SHARE * seconds,
                     2 * PARTS, tally, ladders=LADDERS, final=True)
    finally:
        server.stop()
    mdir = run_dir / "metrics"
    mdir.mkdir()
    extra = [f"--metrics={mdir / 'server.json'}"]
    if workload == "routed_cold":
        # Each worker exports its own metrics file: rat_serve reads the
        # RAT_METRICS variable, set per worker by this wrapper.
        wrapper = run_dir / "worker.sh"
        wrapper.write_text("#!/bin/sh\nexec env RAT_METRICS=\"%s/worker-$$.json\" "
                           "\"%s\" \"$@\"\n" % (mdir, RAT_SERVE))
        wrapper.chmod(0o755)
        extra.append(f"--worker-bin={wrapper}")
    server = Server(workload, run_dir, "traced", extra)
    try:
        traced = drive(workload, server, seed * 1000 + 500, seconds,
                       TRACED_SHARE * seconds, 2 * PARTS, tally, final=True)
    finally:
        server.stop()
    pool_wait_us, counters = read_metrics_files(sorted(mdir.glob("*.json")))
    # In-process replay of the same stream under benchmark spans.
    layers = json.loads(subprocess.run(
        [str(DRIVER), "layers", f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds * 0.2}", f"--fixtures={FIXTURES}",
         f"--spans={run_dir / 'spans.jsonl'}"],
        # the in-process pool gets the served pool's size
        env=dict(os.environ, RAT_THREADS=cfg["threads"]),
        check=True, capture_output=True, text=True).stdout)
    self_us = layers["self_us"]
    for metric, span in REPLAY.items():
        out[metric] = self_us[span]
    untraced = report_fixed("base", [base])
    out["load.capacity_per_s"] = report_ladders(cfg, base, untraced["offered_real_hz"])
    fixed = report_fixed("traced", [traced])
    st = traced["stats"]["stats"]
    # The router's own counters after the ladders drove it past the knee.
    router = base["stats"].get("router", {})
    report(f"  stats: cache {st['cache']}  router after the ladders {router}")
    out["load.p50_ms"] = untraced["p50_ms"]
    out["load.tail_ms"] = untraced["p99_ms"]
    out["load.achieved_ratio"] = untraced["achieved_ratio"]
    out["svc.cache.hit_ratio"] = st["cache"]["hit_ratio"]
    out["svc.cache.evictions_per_req"] = st["cache"]["evictions"] / st["requests"]
    out["util.pool.wait_us"] = pool_wait_us
    out[cfg["remainder"]] = M.remainder_ms(fixed["p50_ms"], self_us["svc.service.eval"])
    out["svc.router.overloaded_local"] = router.get("overloaded_local", 0)
    out["svc.router.responses_dropped"] = router.get("responses_dropped", 0)
    out["svc.server.slow_client_dropped"] = counters.get(
        "svc.server.slow_client_dropped", 0) + router.get("slow_clients_dropped", 0)
    out["obs.overhead_pct"] = M.overhead_pct(fixed["p50_ms"], untraced["p50_ms"])

    # Stage table: self-time medians and the budget against eval_us. The
    # round trip's pool handoff is the in-process pool's own task wait.
    stages = cfg["path"] + ["util.pool.wait"]
    self_us["util.pool.wait"] = layers["pool_wait_us"]
    budget = M.stage_budget(self_us, stages, self_us["svc.service.eval"])
    report(f"  stage budget ({layers['requests']} replayed requests, self-time medians):")
    for name in sorted(self_us):
        on_path = "path" if name in stages else ""
        report(f"    {name:<30} {self_us[name]:10.3f} us  {on_path}")
    report(f"    sum of path stages {budget['sum_us']:.3f} us vs svc.service.eval "
           f"{budget['eval_us']:.3f} us: closure {budget['closure']:.3f} "
           f"({'closes' if budget['closes'] else 'does NOT close'} within 10%)")
    report(f"    remainder {cfg['remainder']} = p50 {fixed['p50_ms']:.4f} ms - eval = "
           f"{out[cfg['remainder']]:.4f} ms")
    if workload == "routed_cold":
        twice = self_us["core.parse"] + self_us["svc.fingerprint.canonical"]
        report(f"    parse twice: the router's route_fingerprint costs "
               f"{self_us['svc.router.route']:.2f} us (worker parse+fingerprint "
               f"{twice:.2f} us), {100 * self_us['svc.router.route'] / 1000 / fixed['p50_ms']:.2f}% "
               f"of p50")
    return out, {"budget": budget, "layers": layers, "traced": traced, "base": base}


def explore_run(seed, seconds, trace, run_dir, tally):
    res = json.loads(subprocess.run(
        [str(DRIVER), "explore", f"--seed={seed}", f"--seconds={seconds}",
         f"--trace={trace}", f"--dir={run_dir / 'explore'}",
         f"--setup-repeats={SETUP_REPEATS}", f"--spans={run_dir / 'spans.jsonl'}"],
        check=True, capture_output=True, text=True).stdout)
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    if res["oracle_mismatches"]:
        tally.problems.append(f"{res['oracle_mismatches']} campaigns differ from "
                              f"the unpruned oracle")
    report(f"  campaigns {res['campaigns']}  oracle-checked {res['oracle_checked']}  "
           f"median {res['campaign_ms']:.3f} ms  p95 {res['campaign_p95_ms']:.3f} ms")
    if not M.percentile_supported(res["campaigns"], 95.0):
        raise RunInvalid(f"{res['campaigns']} campaigns cannot support p95")
    report(f"  CPU per campaign {res['campaign_cpu_us']:.1f} us (mean)")
    if not trace:
        return {"cpu_us_per_op": res["campaign_cpu_us"],
                "setup_s": res["setup_s"], "rss_mb": res["rss_mb"]}, res
    lay = res["layers"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "core.designspace.enumerate_ms": lay["enumerate_ms"],
        "core.batch.ns_per_point": lay["ns_per_point"],
        "core.evaluation.candidate_us": lay["candidate_us"],
        "core.evaluation.gate_us": lay["gate_us"],
        "explore.assemble_ms": lay["assemble_ms"],
        "load.p50_ms": res["campaign_ms"],
        "load.tail_ms": res["campaign_p95_ms"],
        "load.capacity_per_s": res["campaigns"] / res["campaigns_s"],
        "explore.points_evaluated": lay["points_evaluated"],
        "explore.points_bounded": lay["points_bounded"],
        "explore.corner_evaluations": lay["corner_evaluations"],
        "explore.eval_share": lay["points_evaluated"] / lay["points_total"],
        "explore.plan_cache.hit_ratio": lay["plan_cache_hit_ratio"],
        "explore.plan_cache.insert_us": lay["insert_us"],
        "store.open_ms": lay["open_ms"],
        "obs.overhead_pct": M.overhead_pct(lay["campaign_ms_traced"],
                                           lay["campaign_ms_untraced"]),
    })
    report(f"  traced head of the list: {lay['campaigns']} campaigns, median "
           f"{lay['campaign_ms_traced']:.3f} ms traced vs "
           f"{lay['campaign_ms_untraced']:.3f} ms untraced")
    return out, res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["direct_hot", "routed_cold", "explore"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seed = args.seed

    build()
    host = host_record()
    run_dir = RUNS / f"{args.workload}-trace{args.trace}"  # the latest run of each kind
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    report(f"ratbench {args.workload} seed={args.seed} seconds={args.seconds} "
           f"trace={args.trace}")
    report(f"host: {json.dumps(host)}")

    tally = Tally()
    steal0, total0 = cpu_times()
    try:
        if args.workload == "explore":
            values, detail = explore_run(seed, args.seconds, args.trace, run_dir, tally)
        elif args.trace:
            values, detail = serving_layers(args.workload, seed, args.seconds,
                                            run_dir, tally)
        else:
            values, detail = serving_e2e(args.workload, seed, args.seconds,
                                         run_dir, tally)
    except RunInvalid as e:
        report(f"run INVALID, not recorded: {e}")
        return 3
    steal1, total1 = cpu_times()
    host["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    report(f"host CPU time stolen by the hypervisor during the run: "
           f"{host['steal_pct']:.2f}%")
    all_attempted = tally.attempted + tally.probe_attempted
    all_failed = tally.failed + tally.probe_failed
    if args.trace:
        values["run.fail_share"] = all_failed / max(1, all_attempted)
    declared = PER_LAYER if args.trace else END_TO_END
    result = {name: {"value": values[name], "unit": unit}
              for name, unit in declared.items()}
    M.check_metric_set(declared, result)

    report(f"fail_share {all_failed / max(1, all_attempted):.6f} ratio "
           f"({all_failed} of {all_attempted}; the ladders past the knee "
           f"{tally.probe_failed} of {tally.probe_attempted})")
    for name, entry in result.items():
        report(f"{name} {entry['value']} {entry['unit']}")
    for problem in tally.problems:
        report(f"CHECK FAILED: {problem}")
    correct = not tally.problems
    (run_dir / "result.json").write_text(json.dumps(
        {"host": host, "workload": args.workload, "seed": args.seed,
         "trace": args.trace, "metrics": result, "detail": detail}, indent=1))
    report(json.dumps({"correct": correct, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
