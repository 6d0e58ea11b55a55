"""Benchmark of holodisc: time to a verdict, per workload and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout.  The load is closed
loop: one process, one workload iteration at a time, no extra threads.  The
seed reaches the program only as ``ExperimentSpec.seed`` (CLI ``--seed``).

Each run first measures set-up several times: importing holodisc in a
fresh interpreter whose dependencies are already loaded, and building the
workload's specs, configs, banks and weak models (``setup_s`` is the sum of
the two medians).  Then it runs one iteration at the package's default
seed and compares every accuracy value with ``golden.json``, then repeats
iterations at ``--seed`` for ``--seconds``.  Every iteration must pass its
report's own checks and reproduce the first timed iteration bit for bit.

Times are in reference seconds.  On a shared 2-vCPU VM the speed a core
gives one process drifts by up to 2x over tens of seconds, so raw medians
of 20 s runs spread by a third (IQR/median 0.32 for fig3).  Every timed
piece of work therefore sits between two runs of ``calibrate()``, a fixed
loop of the same kind of numpy dispatch, and its raw time is scaled by
``CAL_REF_S`` over their mean; the spread of the median drops to 0.01-0.05.
``wall_s`` is the median scaled iteration time, ``wall_s_tail`` the highest
order statistic with ten samples above it, ``steps_per_s`` one iteration's
steps over ``wall_s``.  Raw seconds and the sample count go to the details
line.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of ``tracing.py``,
from traced iterations alternated with untraced ones (their medians give
``trace_overhead_frac``), and the spans go to ``perfbench/out/``.  The line
before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import (BENCH, BENCH_BUILD, PER_LAYER, PREDICTIONS, Tracer,
                     build_metrics, instrumented_bindings, iteration_metrics,
                     spans_table, summarise)
from workloads import GOLDEN_SEED, WORKLOADS, golden_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 9
BUILD_TRACE_REPEATS = 3

# In a fresh interpreter: import the program's dependencies, then the
# program, then calibrate.  The dependencies (numpy, click) take about 90% of
# a cold ``import holodisc`` and no change to the program moves them, while
# their time swings with the host's I/O; so set-up counts only the rest.
IMPORT_PROBE = f"""
import statistics, sys, time
t0 = time.perf_counter()
import click, numpy
t1 = time.perf_counter()
import holodisc
t2 = time.perf_counter()
sys.path.insert(0, {str(HERE)!r})
from run import calibrate
print(t1 - t0, t2 - t1, statistics.median(calibrate() for _ in range(3)))
"""


# Bound at import, before the program loads, so the program cannot patch them.
_roll, _concatenate, _isfinite, _all = np.roll, np.concatenate, np.isfinite, np.all
# The reference second: about the median duration of calibrate() on the
# 2-vCPU Xeon VM the benchmark was defined on.  A fixed unit, never re-measured.
CAL_REF_S = 0.03


def calibrate():
    """Wall time of a fixed piece of work with the program's mix of operations.

    Small-array numpy dispatch under a Python loop: stencil rolls, an
    advection product, a matrix-vector forcing, state concatenation and a
    finiteness check, as in one explicit step of the fine and coarse
    engines.  It never calls the program, so its time tracks only the speed
    the host gives this process.
    """
    u = np.linspace(0.0, 1.0, 32)
    d = np.array([1.0, 2.0, 3.0])
    p = np.ones((1, 32))
    t0 = perf_counter()
    for _ in range(750):
        up, um = _roll(u, -1), _roll(u, 1)
        du = (up - 2.0 * u + um) - 0.3 * u * (up - um) + 0.05 * (p.T @ d[:1])
        y = _concatenate([d, u + 1e-3 * du])
        if not _all(_isfinite(y)):
            raise FloatingPointError("calibration went non-finite")
        d, u = y[:3], y[3:]
    return perf_counter() - t0


class Clock:
    """Converts raw seconds to reference seconds.

    Each measured piece of work sits between two calibrations; its raw time
    is scaled by CAL_REF_S over their mean, which removes the drift of the
    host's speed while keeping the program's own cost.
    """

    def __init__(self):
        self.before = calibrate()

    def scale(self):
        """Factor for the work done since the previous call."""
        after = calibrate()
        factor = 2.0 * CAL_REF_S / (self.before + after)
        self.before = after
        return factor


def import_program():
    """Import holodisc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import holodisc

    if Path(holodisc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"holodisc imported from {holodisc.__file__}, not {SRC}")
    return holodisc


def fresh_import_seconds():
    """Reference seconds to import (dependencies, holodisc) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    deps, program, cal = map(float, proc.stdout.split())
    return deps * CAL_REF_S / cal, program * CAL_REF_S / cal


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "holodisc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(holodisc, seed, workload):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "holodisc": holodisc.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "golden_seed": GOLDEN_SEED,
        "params": workload.params(),
    }


def load_golden(name, params):
    data = json.loads(GOLDEN.read_text())
    entry = data["workloads"][name]
    if data["seed"] != GOLDEN_SEED or entry["params"] != json.loads(json.dumps(params)):
        raise ValueError(f"golden values of {name} were recorded for other parameters")
    return entry["values"]


class Run:
    """Iteration bookkeeping shared by the traced and untraced modes."""

    def __init__(self, workload, name, golden):
        self.workload = workload
        self.name = name
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.reference = None
        self.clock = Clock()

    def timed(self, fn, *args):
        """fn(*args) timed; returns (result, raw seconds, factor to reference)."""
        gc.collect()
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            raw = perf_counter() - t0
            factor = self.clock.scale()
        return out, raw, factor

    def iterate(self, built, seed, tracer=None):
        """Run one checked iteration; returns (raw s, reference s, factor) or None."""
        self.attempted += 1
        try:
            if tracer is None:
                out, raw, factor = self.timed(self.workload.run, built, seed)
            else:
                out, raw, factor = self.timed(
                    tracer.run, BENCH, self.workload.run, built, seed, tracer)
        except Exception:  # a failing operation is counted, the run goes on
            self._fail([traceback.format_exc(limit=4)])
            return None
        problems = list(out.failures)
        if self.reference is None:
            self.reference = out.values
        elif out.values != self.reference:
            diff = sorted(k for k in self.reference if out.values.get(k) != self.reference[k])
            problems.append(f"iteration did not reproduce the first one: {diff}")
        if seed == GOLDEN_SEED:
            problems += golden_failures(self.name, out.values, self.golden)
        if problems:
            self._fail(problems)
        return raw, raw * factor, factor

    def golden_check(self, build):
        """One iteration at the golden seed, compared with every golden value."""
        self.attempted += 1
        try:
            out, _, _ = self.timed(self.workload.run, build(GOLDEN_SEED), GOLDEN_SEED)
        except Exception:
            self._fail([traceback.format_exc(limit=4)])
            return
        problems = out.failures + golden_failures(self.name, out.values, self.golden)
        if problems:
            self._fail(problems)

    def _fail(self, problems):
        self.failed += 1
        for p in problems:
            print(f"[{self.name}] failed: {p}", file=sys.stderr)
        self.failures.extend(problems[:3])


def tail(samples):
    """Highest order statistic with at least ten samples above it."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def run_untraced(run, seed, seconds):
    workload = run.workload
    deps_s, import_s = zip(*(fresh_import_seconds() for _ in range(SETUP_REPEATS)))
    build_s = []
    for _ in range(SETUP_REPEATS):
        built, raw, factor = run.timed(workload.build, seed)
        build_s.append(raw * factor)
    run.golden_check(workload.build)
    raw, ref = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        res = run.iterate(built, seed)
        if res is not None:
            raw.append(res[0])
            ref.append(res[1])
    if not ref:
        raise RuntimeError("no iteration completed")
    wall = statistics.median(ref)
    tail_s, tail_pct = tail(ref)
    metrics = {
        "wall_s": (wall, "s"),
        "wall_s_tail": (tail_s, "s"),
        "steps_per_s": (workload.steps() / wall, "1/s"),
        "setup_s": (statistics.median(import_s) + statistics.median(build_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }
    details = {
        "samples": len(ref), "tail_percentile": round(tail_pct, 2),
        "failed_frac": run.failed / run.attempted,
        "raw_wall_s": {"median": statistics.median(raw), "tail": tail(raw)[0],
                       "min": min(raw), "max": max(raw)},
        "import_s": import_s, "build_s": build_s, "dependency_import_s": deps_s,
    }
    return metrics, details


UNITS = {name: unit for name, unit, _ in PER_LAYER}


def to_reference(metrics, factor):
    return {k: v * factor if UNITS.get(k) in ("s", "us") else v
            for k, v in metrics.items()}


def run_traced(run, seed, seconds):
    workload = run.workload
    built = workload.build(seed)
    tracer = Tracer()
    t_origin = perf_counter()
    builds = []
    for i in range(BUILD_TRACE_REPEATS):
        tracer.iteration = f"build{i}"
        with tracer:
            _, _, factor = run.timed(tracer.run, BENCH_BUILD, workload.build, seed)
        builds.append(to_reference(build_metrics(tracer.take_counters()), factor))
    run.golden_check(workload.build)
    plain, traced, per_iteration = [], [], []
    deadline = perf_counter() + seconds
    k = 0
    while k < 2 or perf_counter() < deadline:
        if k % 2 == 0:
            res = run.iterate(built, seed)
            if res is not None:
                plain.append(res[1])
        else:
            tracer.iteration = k
            with tracer:
                res = run.iterate(built, seed, tracer)
            counters = tracer.take_counters()
            if res is not None:
                traced.append(res[1])
                per_iteration.append(
                    to_reference(iteration_metrics(counters, res[0]), res[2]))
        k += 1
    leftover = instrumented_bindings()
    if leftover:
        raise RuntimeError(f"wrappers left installed after the traced run: {leftover}")
    if not (plain and traced):
        raise RuntimeError("no traced and untraced iteration pair completed")
    layer = summarise(per_iteration, tracer.missing)
    layer.update(summarise(builds, tracer.missing))
    base = statistics.median(plain)
    layer["trace_overhead_frac"] = (statistics.median(traced) - base) / base
    metrics = {name: (layer.get(name), unit) for name, unit in UNITS.items()}
    trace_path = OUT / f"trace-{run.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": run.name, "seed": seed,
        "spans": spans_table(tracer.spans, t_origin),
        "per_iteration": per_iteration, "builds": builds,
        "missing_probes": sorted(tracer.missing),
    }, indent=1))
    details = {
        "traced_samples": len(traced), "untraced_samples": len(plain),
        "failed_frac": run.failed / run.attempted,
        "missing_probes": sorted(tracer.missing),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "predictions": PREDICTIONS,
    }
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        holodisc = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](str(OUT))
    run = Run(workload, args.workload, load_golden(args.workload, workload.params()))
    mode = run_traced if args.trace else run_untraced
    metrics, details = mode(run, args.seed, args.seconds)
    details.update({"workload": args.workload, "trace": args.trace,
                    "attempted": run.attempted, "failed": run.failed,
                    "failures": run.failures[:10],
                    "provenance": provenance(holodisc, args.seed, workload)})
    print(json.dumps(details, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
