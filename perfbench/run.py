#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for legoc (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload tune-default --seed 1 --seconds 25 --trace 0

It builds the worker and legoc with dune, starts one fresh worker
process per unit of work, checks every output, and prints a report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a traced replay.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("tune-scale", "tune-default", "compile-verify", "serve-mix")
TUNE = ("tune-scale", "tune-default")
# Domains per workload: the tuner at -j 2 as `make tune-smoke` runs it,
# compile-verify in one domain, and a one-domain daemon (its batches of
# eight gain nothing from a second domain, whose GC timing makes the
# daemon's peak RSS vary by +-10% between sessions).
JOBS = {"tune-scale": 2, "tune-default": 2, "compile-verify": 1, "serve-mix": 1}
OUT = os.path.join("perfbench", "out")
WORKER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
LEGOC = os.path.join("_build", "default", "bin", "legoc.exe")
# Fresh-process set-up samples taken before the timed units of a run:
# for up to one second, between 9 and 31 of them (serve-mix's daemon
# starts take about 0.3 s each, so it takes 9).
PROBE_S, PROBES_MIN, PROBES_MAX = 1.0, 9, 31

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "items_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "emit_ops": "count",
    "emit_bytes": "bytes",
}

PER_LAYER = {
    "tune.stream_s": "s",
    "tune.fingerprint_s": "s",
    "tune.ops_s": "s",
    "tune.score_s": "s",
    "tune.candidates": "count",
    "tune.rung_members": "count",
    "symbolic.instantiate_s": "s",
    "symbolic.simplify_s": "s",
    "symbolic.prover.queries": "count",
    "symbolic.prover.proved_ratio": "ratio",
    "symbolic.cache.hit_ratio": "ratio",
    "lang.parse_s": "s",
    "lang.parse_failed": "count",
    "codegen.c_s": "s",
    "codegen.triton_s": "s",
    "codegen.mlir_s": "s",
    "codegen.bytes": "bytes",
    "conform.check_s": "s",
    "conform.points": "count",
    "conform.f2_covered": "count",
    "conform.leg.interp_s": "s",
    "conform.leg.symbolic_s": "s",
    "conform.leg.c_s": "s",
    "conform.leg.mlir_s": "s",
    "conform.leg.f2_s": "s",
    "gpusim.baseline_s": "s",
    "gpusim.sampled_s": "s",
    "gpusim.full_s": "s",
    "gpusim.sims": "count",
    "exec.speedup": "x",
    "serve.store.load_s": "s",
    "serve.warm_start_s": "s",
    "serve.handle_s": "s",
    "serve.json_s": "s",
    "serve.wire_s": "s",
    "serve.hit_ms.p50": "ms",
    "serve.miss_ms.p50": "ms",
    "serve.hit_ratio": "ratio",
    "serve.store.appends": "count",
    "serve.store.db_bytes": "bytes",
    "trace.coverage": "ratio",
}

# Reported beside the end-to-end metrics but not gated: each is defined
# on some workloads only (see README.md).
REPORTED = {
    "items_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "winner_us": "us",
    "legs_skipped": "count",
    "fail_ratio": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the worker and legoc from source; the checkout has no _build."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the repository root: no dune-project or lib/ here")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./" + WORKER, "./" + LEGOC],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        raise BenchError("dune build failed")


def run_worker(args):
    """Runs one worker process to completion.  Returns its RESULT object,
    its rusage, and its wall time."""
    t0 = time.monotonic()
    p = subprocess.Popen(["./" + WORKER] + args, stdout=subprocess.PIPE)
    out = p.stdout.read().decode()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise BenchError("worker %s exited with %d" % (" ".join(args), p.returncode))
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker %s printed no result" % " ".join(args))
    return json.loads(lines[-1][len("RESULT "):]), ru, wall


def ready_probe(args):
    """CPU time of a worker that sets up, prints READY and exits: set-up
    as a `legoc` invocation pays it, process start included.  CPU time,
    not wall time: under hypervisor steal the wall time of these few
    milliseconds spread three times as wide between runs."""
    p = subprocess.Popen(["./" + WORKER] + args, stdout=subprocess.PIPE)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0 or out.strip() != b"READY":
        raise BenchError("ready probe failed")
    return cpu_s(ru)


def setup_probe(workload, serve):
    """One set-up sample in a fresh process.  serve-mix starts a daemon
    on a fresh fixture copy and reports its CPU time to the first reply."""
    if serve:
        args = ["setup", "--workload", workload, "--jobs", str(JOBS[workload])]
        return run_worker(args + serve.args())[0]["setup_s"]
    return ready_probe(["ready"] if workload == "compile-verify"
                       else ["setup", "--workload", workload])


def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


def percentile(xs, q):
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    xs = sorted(xs)
    if len(xs) * (1.0 - q) < 10:
        return None
    return xs[min(len(xs) - 1, int(q * len(xs)))]


class Serve:
    """The serve-mix fixture: built once per run from fixed inputs, then
    copied fresh for every daemon start."""

    def __init__(self):
        self.work = os.path.join(OUT, "serve")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.fixture = os.path.join(self.work, "fixture.db")
        self.expect = os.path.join(self.work, "expect.json")
        self.info, _, _ = run_worker(
            ["fixture", "--fixture", self.fixture, "--expect", self.expect])

    def args(self):
        return ["--legoc", "./" + LEGOC, "--fixture", self.fixture,
                "--expect", self.expect, "--work", self.work]


def unit_args(workload, seed, serve):
    args = ["unit", "--workload", workload, "--seed", str(seed),
            "--jobs", str(JOBS[workload])]
    return args + (serve.args() if serve else [])


def measure(workload, seed, seconds):
    """Untraced run: set-up probes, then fresh-process units until the
    time is used (at least one).  Returns the per-unit records."""
    start = time.monotonic()
    serve = Serve() if workload == "serve-mix" else None
    setups = []
    t0 = time.monotonic()
    while len(setups) < PROBES_MAX and (
            len(setups) < PROBES_MIN or time.monotonic() - t0 < PROBE_S):
        setups.append(setup_probe(workload, serve))
    units = []
    while True:
        # Each unit draws its own inputs from the run's seed, so the
        # run's medians average over several draws.
        r, ru, wall = run_worker(unit_args(workload, seed * 1000 + len(units), serve))
        r.setdefault("peak_rss_mb", ru.ru_maxrss / 1024.0)
        units.append(r)
        if "setup_s" in r:  # serve-mix: the daemon's CPU time to its first reply
            setups.append(r["setup_s"])
        if time.monotonic() - start + wall > seconds:
            break
    return units, setups, serve


def verdicts(units):
    """The run's operation counts: those of its first unit.  Every unit
    of a run performs the same operations (its seed only reorders them
    or moves sampled points) and is checked in full, so these counts do
    not depend on how many units fit in --seconds.  A unit whose
    verdicts differ from the first's is a failure no known defect
    explains; it is returned as such."""
    key = ("attempted", "failed", "known_defects")
    first = {k: units[0].get(k) for k in key}
    odd = ["unit %d: %s, unit 0: %s" % (i, json.dumps(v, sort_keys=True),
                                       json.dumps(first, sort_keys=True))
           for i, v in enumerate({k: u.get(k) for k in key} for u in units)
           if v != first]
    return first["attempted"], first["failed"], odd


def end_to_end(units, setups):
    lat = [x for u in units for x in u.get("latencies_ms", [])]
    attempted, failed, _ = verdicts(units)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_cpu_s": statistics.median(u["items"] / u["cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "emit_ops": statistics.median(u["emit_ops"] for u in units),
        "emit_bytes": statistics.median(u["emit_bytes"] for u in units),
    }
    reported = {
        "items_per_s": statistics.median(u["items"] / u["wall_s"] for u in units),
        "latency_ms.p50": percentile(lat, 0.5),
        "latency_ms.p99": percentile(lat, 0.99),
        "winner_us": units[0].get("winner_us"),
        "legs_skipped": units[0].get("legs_skipped"),
        "fail_ratio": failed / attempted,
    }
    return metrics, reported


def context(workload, seed, units, serve):
    ctx = {
        "nproc": os.cpu_count(),
        "ocaml": subprocess.run(["ocamlopt", "-version"], capture_output=True,
                                text=True).stdout.strip() or "unknown",
        "jobs": JOBS[workload],
        "seed": seed,
        "units": len(units),
        "host": platform.machine(),
    }
    ctx["known_defects"] = units[0].get("known_defects", {})
    if workload in TUNE:
        ctx["candidates"] = units[0]["candidates"]
        ctx["rung_members"] = units[0]["rung_members"]
        ctx["winners"] = units[0]["winners"]
    if serve:
        ctx["fixture"] = serve.info
        shares = {}
        for u in units:
            for k, n in u["shares"].items():
                shares[k] = shares.get(k, 0) + n
        total = sum(shares.values())
        ctx["shares"] = {k: round(n / total, 4) for k, n in shares.items()}
    return ctx


def print_report(workload, metrics, reported, ctx):
    print("perfbench %s: %s" % (workload, json.dumps(ctx, sort_keys=True)))
    for name, unit in list(END_TO_END.items()) + list(REPORTED.items()):
        v = metrics.get(name, reported.get(name))
        if v is None:
            v = "-"
        print("  %-16s %14s %s" % (name, v if isinstance(v, str) else "%.6g" % v, unit))


def traced(workload, seed):
    """Traced run: one untraced unit for the CPU-time baseline, then the
    traced replay.  Returns the per-layer metrics."""
    serve = Serve() if workload == "serve-mix" else None
    r, ru, _ = run_worker(unit_args(workload, seed, serve))
    cpu = r["daemon_cpu_s"] if serve else cpu_s(ru)
    prefix = os.path.join(OUT, "trace-%s-seed%d" % (workload, seed))
    args = ["trace", "--workload", workload, "--seed", str(seed),
            "--jobs", str(JOBS[workload]),
            "--out", prefix, "--untraced-cpu", repr(cpu)]
    if serve:
        args += ["--untraced-rt", repr(r["wall_s"])] + serve.args()[2:]
    t, _, _ = run_worker(args)
    log("trace written to %s.json (Chrome trace events) and %s.tsv (self times)"
        % (prefix, prefix))
    metrics = t["metrics"]
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError("replay did not report %s" % sorted(missing))
    return [r], metrics, t, serve


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        if a.trace:
            units, layer, t, serve = traced(a.workload, a.seed)
            ctx = context(a.workload, a.seed, units, serve)
            ctx["spans"] = t["spans"]
            print("perfbench %s traced: %s" % (a.workload, json.dumps(ctx, sort_keys=True)))
            metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER.items()}
            unexplained = sum(u["unexplained"] for u in units) + t["unexplained"]
            attempted = units[0]["attempted"]
            failed = units[0]["failed"]
            for n, u in PER_LAYER.items():
                print("  %-30s %14.6g %s" % (n, layer[n], u))
        else:
            units, setups, serve = measure(a.workload, a.seed, a.seconds)
            e2e, reported = end_to_end(units, setups)
            print_report(a.workload, e2e, reported, context(a.workload, a.seed, units, serve))
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
            attempted, failed, odd = verdicts(units)
            unexplained = sum(u["unexplained"] for u in units) + len(odd)
            for why in odd:
                log("unexplained failure: verdicts differ between units: " + why)
        for u in units:
            for why in u.get("failures", [])[:5]:
                log("unexplained failure: " + why)
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(1)
    print(json.dumps({"correct": unexplained == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
