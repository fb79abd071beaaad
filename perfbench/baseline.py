#!/usr/bin/env python3
"""Measure the benchmark's baseline and the spread of its end-to-end metrics.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 201-210 --seconds 20

For each workload of ``BENCHMARK.json`` it runs the benchmark once per seed
with ``--trace 0``, one run after another, and once with ``--trace 1`` on the
first seed.  It prints, for each end-to-end metric, the median of the runs
and the distance between their first and third quartiles as a share of the
median, and writes ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return result["metrics"]


def _commit() -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="201-210", help="a seed or a range first-last")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--about", default="", help="where and how the runs were made")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        end_to_end[workload] = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[workload][name] = {
                "unit": runs[0][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median}
            print(f"{workload} {name}: median {median:.6g}, "
                  f"spread {(q3 - q1) / median:.3f}", flush=True)
        traced = _run(workload, seeds[0], args.seconds, 1)
        per_layer[workload] = {name: m["value"] for name, m in traced.items()}
    baseline = {"about": args.about, "measured_at_commit": _commit(), "seeds": seeds,
                "seconds": args.seconds, "end_to_end": end_to_end, "per_layer": per_layer}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
