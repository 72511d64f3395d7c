"""Benchmark for polyrigid: exact searches, a CLI corpus and the
structure layers.

    python3 bench/run.py --workload proof --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``, each in a fresh interpreter) from a plain
checkout, with ``src`` put on the path here.  Set-up imports polyrigid
afresh and builds the inputs: twice or more before the passes, four times
between them and again after them; the median is ``setup_s``.  Whole
passes over the workload's operations repeat until ``--seconds`` have
passed (at least one), and each operation's fastest time over the run is
its figure.  Outputs are checked after each pass.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Scratch files, results and
traces go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# Standard modules polyrigid imports, loaded before any timing so that
# every set-up repeat measures polyrigid's own import.
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import itertools  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# set-up repeats before and after the passes take at least this long in all
SETUP_SECONDS = 3.0
# set-ups between the passes, one after each equal share of the run
SETUP_SPLIT = 4
SUBMODULES = ("cli", "constructions", "fileformat", "framework", "global_rigidity",
              "graph", "linalg", "norm", "oracle", "simplex", "sparsity")
END_TO_END = {"setup_s": "s", "best_wall_s": "s", "best_cpu_s": "s", "best_op_p50_ms": "ms", "peak_rss_mb": "MB"}

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer, median_metrics  # noqa: E402


class Modules:
    """Freshly imported polyrigid modules, as attributes."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "polyrigid" or n.startswith("polyrigid.")]:
            del sys.modules[name]
        importlib.import_module("polyrigid")
        for name in SUBMODULES:
            setattr(self, name, importlib.import_module(f"polyrigid.{name}"))

    def as_dict(self):
        return {name: getattr(self, name) for name in SUBMODULES}


def cpu_seconds():
    """CPU time of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest peak resident set of this process or any waited-for child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def run_pass(plan):
    """Time each operation (wall and CPU), then check the outputs; returns
    the pass record.  The outputs themselves are dropped: a heap that grew
    with every pass would make the collector, and so each pass, slower."""
    records = []
    gc.collect()  # every pass starts without garbage left by the last
    t0 = time.perf_counter()
    for op in plan.ops:
        c = cpu_seconds()
        s = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising operation counts as failed
            result, error = None, f"{op.label}: raised {type(exc).__name__}: {exc}"
        lat = time.perf_counter() - s
        records.append((op, result, error, lat, cpu_seconds() - c))
    wall = time.perf_counter() - t0
    results, errors = {}, []
    for op, result, error, _, _ in records:
        if error is None:
            error = op.check(result)
        if error is None:
            results[op.label] = result
        else:
            errors.append(error)
    return {
        "wall": wall,
        "latencies": [lat for _, _, _, lat, _ in records],
        "cpu": [cpu for _, _, _, _, cpu in records],
        "failed": errors,
        "pass_errors": plan.check_pass(results),
        "fingerprint": plan.fingerprint(results),
    }


def timed_setups(setup, seed, workdir, times, at_least, min_seconds=0.0):
    """Set up afresh, at least at_least times and until min_seconds have
    gone by, appending each duration to times; returns the last modules
    and plan."""
    start = len(times)
    while len(times) - start < at_least or sum(times[start:]) < min_seconds:
        pr = plan = None  # each repeat starts from the same heap
        gc.collect()
        t0 = time.perf_counter()
        pr = Modules()
        plan = setup(pr, seed, workdir)
        times.append(time.perf_counter() - t0)
    return pr, plan


def run_workload(name, seed, seconds, trace, workdir):
    setup = workloads.WORKLOADS[name]
    setup_times = []
    pr, plan = timed_setups(setup, seed, workdir, setup_times, 2, SETUP_SECONDS / 2)

    def setup_again(at_least, min_seconds=0.0):
        # the modules the passes use are put back afterwards
        in_use = {n: m for n, m in sys.modules.items() if n == "polyrigid" or n.startswith("polyrigid.")}
        timed_setups(setup, seed, workdir, setup_times, at_least, min_seconds)
        sys.modules.update(in_use)

    tracer = Tracer(pr.as_dict()) if trace else None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    setups_between = 0
    while not plain or time.perf_counter() - start < seconds:
        # set-ups between the passes, evenly over the run, so that
        # setup_s samples the host's speed over the run as the passes do
        if setups_between < SETUP_SPLIT and \
                time.perf_counter() - start >= (setups_between + 1) * seconds / (SETUP_SPLIT + 1):
            setups_between += 1
            setup_again(1)
        plain.append(run_pass(plan))
        if tracer is not None:
            lo = len(tracer)
            tracer.install()
            try:
                traced.append(run_pass(plan))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(lo, len(tracer), traced[-1]["wall"], plain[-1]["wall"]))
    peak = peak_rss_mb()
    setup_again(1, SETUP_SECONDS / 2)

    passes = plain + traced
    errors = [e for p in passes for e in p["pass_errors"]]
    if any(p["fingerprint"] != passes[0]["fingerprint"] for p in passes):
        errors.append("outputs or search counts changed between passes")
    # an operation that fails in every pass is reported once, with its count
    for e, n in Counter([e for p in passes for e in p["failed"]] + errors).items():
        print(f"{name}: {e}" + (f" ({n} times)" if n > 1 else ""), file=sys.stderr)

    if trace:
        values = median_metrics(layers)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        tracer.write(OUT / f"trace-{name}-seed{seed}.bin")
    else:
        # each operation's fastest wall and CPU time over the run's passes
        best_wall = [min(lats) for lats in zip(*(p["latencies"] for p in plain))]
        best_cpu = [min(cpus) for cpus in zip(*(p["cpu"] for p in plain))]
        values = {
            "setup_s": statistics.median(setup_times),
            "best_wall_s": sum(best_wall),
            "best_cpu_s": sum(best_cpu),
            "best_op_p50_ms": 1e3 * statistics.median(best_wall),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        best = {op.label: {"wall_ms": 1e3 * w, "cpu_ms": 1e3 * c}
                for op, w, c in zip(plan.ops, best_wall, best_cpu)}
        (OUT / f"ops-{name}-seed{seed}.json").write_text(json.dumps({"passes": len(plain), "best": best}, indent=1))
    return {
        "correct": not errors,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own interpreter; prints every result line."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyrigid" / "__init__.py").is_file():
        print(f"error: no polyrigid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the worker count comes from the workload alone, not the caller's shell
    os.environ.pop("POLYRIGID_THREADS", None)
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
