#!/usr/bin/env python3
"""Benchmark of the rstab toolkit: one seeded workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload fir_h2_pipeline --seed 1 --seconds 20 --trace 0

The run imports ``rstab`` from ``src/``, sets up the workload's documents
(three times, reporting the median), then runs whole passes over its ops,
one op after another in a closed loop with one client, until ``--seconds``
of op time have passed and at least two passes are done.  Every op's
output goes through a correctness gate; gate time is not op time.

On a shared host other tenants slow the process down, by up to 2x, in bursts
of a fraction of a second to minutes.  So every time is reported in seconds
at reference speed: the run times a fixed computation (``calibrate``, exact
rational arithmetic in the standard library) right before and right after
each op, and scales the op's wall time by the reference time of that
computation over the mean of the two.  An op's latency is the median of its
scaled times over the passes.  ``ops_per_s`` is the number of ops over the
sum of their latencies; ``latency_p50_s`` and ``latency_p90_s`` are
Harrell-Davis estimates of the percentiles of the latencies, which, unlike a
single order statistic, do not jump when two ops near the percentile trade
places from one seed to the next.  ``setup_s`` is the median scaled
time a fresh interpreter takes to import ``rstab`` plus the median scaled
time of the set-ups.  The line before the last gives the same figures
unscaled.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the run makes one pass untraced and one pass
traced, and reports per-layer metrics from the spans of the traced pass plus
the tracing overhead; the spans are written to
``.perfbench_out/`` when the run ends.  The line before the last holds
details: passes, op counts and the failure ratio with its base.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
IMPORT_REPS = 5
#: each op's latency is its median over at least this many passes
MIN_PASSES = 2
MAX_LOGGED_FAILURES = 5
#: terms of the exact harmonic sum that ``calibrate`` computes; its
#: denominators grow to about 850 bits, the size of rstab's large coefficients
CALIBRATION_TERMS = 600
#: the time ``calibrate`` takes on an uncontended core of the reference
#: machine (2-vCPU x86-64 virtual machine, Python 3.11): the speed every
#: reported time is scaled to
CALIBRATION_REF_S = 0.0016


def calibrate() -> float:
    """Wall time of a fixed computation, a probe of the machine's current speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def measure(call):
    """Run ``call()``; return its result, its wall time, and the factor that
    scales a time measured during the call to reference speed."""
    before = calibrate()
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    return result, elapsed, 2 * CALIBRATION_REF_S / (before + calibrate())


class Phase:
    """Latencies of every op of a pass, over the passes run so far."""

    def __init__(self, ops: int):
        #: each op's times at reference speed, and as measured
        self.samples: list[list[float]] = [[] for _ in range(ops)]
        self.wall: list[list[float]] = [[] for _ in range(ops)]
        self.failed = 0
        self.attempted = 0
        #: op wall time of each pass
        self.pass_busy: list[float] = []

    @property
    def busy(self) -> float:
        return sum(self.pass_busy)

    def latencies(self, wall: bool = False) -> list[float]:
        """Each op's median latency over the passes, at reference speed or as measured."""
        return [statistics.median(s) for s in (self.wall if wall else self.samples)]

    def ops_per_s(self, wall: bool = False) -> float:
        latencies = self.latencies(wall)
        return len(latencies) / sum(latencies)


def _gate(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def _attempt(call):
    """``call()`` and no error, or no result and the traceback of what it raised."""
    try:
        return call(), None
    except Exception:
        return None, traceback.format_exc()


def _rooted(op, tracer):
    """``op.call`` inside a root span named after the op."""
    def call():
        root = tracer.open(tracer.name_id(f"op.{op.name}"))
        if op.group:
            tracer.groups[root] = op.group
        try:
            return op.call()
        finally:
            tracer.close(root)
    return call


def drive(ops, phase: Phase, tracer=None) -> None:
    """Run one pass: every op once, in order, each after the previous one ends."""
    busy = 0.0
    for idx, op in enumerate(ops):
        call = op.call if tracer is None else _rooted(op, tracer)
        (result, error), elapsed, scale = measure(lambda: _attempt(call))
        if error is not None or not _gate(op, result):
            if phase.failed < MAX_LOGGED_FAILURES:
                detail = error or f"gate rejected {result!r:.300}"
                print(f"perfbench: op {idx} ({op.name}) failed: {detail}", file=sys.stderr)
            phase.failed += 1
        phase.samples[idx].append(elapsed * scale)
        phase.wall[idx].append(elapsed)
        phase.attempted += 1
        busy += elapsed
    phase.pass_busy.append(busy)


def _fresh_import_s(src: Path) -> float:
    """Time a new interpreter takes to import ``rstab`` from ``src``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import rstab; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "rstab" / "__init__.py").is_file():
        print(f"perfbench: no rstab package under {src}", file=sys.stderr)
        return 2
    # one single-threaded process per workload, so that its memory is its own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import rstab  # noqa: F401

    import tracing
    import workloads

    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, setups_wall = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ops, elapsed, scale = measure(lambda: setup(args.seed, work))
            setups.append(elapsed * scale)
            setups_wall.append(elapsed)
        imports, imports_wall = [], []
        for _ in range(IMPORT_REPS):
            elapsed, _, scale = measure(lambda: _fresh_import_s(src))
            imports.append(elapsed * scale)
            imports_wall.append(elapsed)
        setup_s = statistics.median(imports) + statistics.median(setups)
        details = {"workload": args.workload, "seed": args.seed,
                   "wall_setup_s": statistics.median(imports_wall) + statistics.median(setups_wall),
                   "wall_import_runs_s": imports_wall, "wall_setup_runs_s": setups_wall,
                   "ops_per_pass": len(ops)}

        if args.trace:
            untraced, traced = Phase(len(ops)), Phase(len(ops))
            drive(ops, untraced)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                drive(ops, traced, tracer)
            phases = (untraced, traced)
            units = tracing.layer_metric_units()
            values = tracing.layer_metrics(tracer)
            metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
            metrics["trace.ops"] = _metric(traced.attempted, "count")
            metrics["trace.spans"] = _metric(len(tracer), "count")
            metrics["trace.ops_per_s"] = _metric(traced.ops_per_s(), "ops/s")
            metrics["trace.untraced_ops_per_s"] = _metric(untraced.ops_per_s(), "ops/s")
            metrics["trace.overhead_ratio"] = _metric(
                untraced.ops_per_s() / traced.ops_per_s(), "ratio")
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(spans_path)
            details["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            phase = Phase(len(ops))
            while len(phase.pass_busy) < MIN_PASSES or phase.busy < args.seconds:
                drive(ops, phase)
            phases = (phase,)
            latencies, wall = phase.latencies(), phase.latencies(wall=True)
            p90 = tracing.harrell_davis(latencies, 90)
            metrics = {
                "ops_per_s": _metric(phase.ops_per_s(), "ops/s"),
                "latency_p50_s": _metric(tracing.harrell_davis(latencies, 50), "s"),
                "latency_p90_s": _metric(p90, "s"),
                "ok_ratio": _metric(1 - phase.failed / phase.attempted, "ratio"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            details.update(wall_ops_per_s=phase.ops_per_s(wall=True),
                           wall_latency_p50_s=tracing.harrell_davis(wall, 50),
                           wall_latency_p90_s=tracing.harrell_davis(wall, 90),
                           pass_busy_s=phase.pass_busy, op_latencies=len(latencies),
                           op_latencies_above_p90=sum(v > p90 for v in latencies),
                           failed_ratio=phase.failed / phase.attempted,
                           failed_ratio_base=phase.attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
