"""Tests of the benchmark itself: statistics, tracing, gates and seeding.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rstab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(t: tracing.Tracer, name: str, parent: int, start: float, end: float) -> int:
    idx = len(t)
    t.name.append(t.name_id(name))
    t.parent.append(parent)
    t.start.append(start)
    t.end.append(end)
    return idx


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert tracing.percentile(values, 50) == 5.0
    assert tracing.percentile(values, 90) == 9.0
    assert tracing.percentile(values, 100) == 10.0
    assert tracing.percentile(values, 0) == 1.0
    assert tracing.percentile([0.25], 90) == 0.25
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def test_harrell_davis_percentile():
    values = [float(v) for v in range(1, 100)]
    assert tracing.harrell_davis(values, 50) == pytest.approx(50.0)
    # the weights' mean rank is 0.9 n + 1/2 for n samples
    assert tracing.harrell_davis(values, 90) == pytest.approx(0.9 * 99 + 0.5, abs=0.01)
    assert tracing.harrell_davis([3.0] * 7, 90) == pytest.approx(3.0)
    assert tracing.harrell_davis([0.25], 50) == 0.25
    # a sample that crosses the median moves the estimate a little, not a whole gap
    low, high = [1.0] * 10 + [2.0] * 11, [1.0] * 11 + [2.0] * 10
    assert tracing.percentile(low, 50) - tracing.percentile(high, 50) == 1.0
    assert 0 < tracing.harrell_davis(low, 50) - tracing.harrell_davis(high, 50) < 0.2
    with pytest.raises(ValueError):
        tracing.harrell_davis([], 50)
    with pytest.raises(ValueError):
        tracing.harrell_davis([1.0], 100)


def test_self_time_and_busy_time_on_synthetic_spans():
    t = tracing.Tracer()
    a = _span(t, "A", -1, 0.0, 10.0)
    _span(t, "B", a, 1.0, 4.0)
    b2 = _span(t, "B", a, 5.0, 9.0)
    _span(t, "A", b2, 6.0, 8.0)  # re-entrant A inside B inside A
    c = _span(t, "C", -1, 20.0, 21.5)  # a second root, in another group
    t.groups[a] = "g"
    t.groups[c] = "h"
    stats, grouped = tracing.span_stats(t)
    calls, busy, self_s = stats["A"]
    assert calls == 2
    assert busy == pytest.approx(10.0)  # the inner A lies inside the outer one
    assert self_s == pytest.approx((10 - 3 - 4) + 2)
    assert stats["B"] == pytest.approx([2, 7.0, 3 + (4 - 2)])
    assert stats["C"] == pytest.approx([1, 1.5, 1.5])
    assert grouped == {("A", "g"): 2, ("B", "g"): 2, ("C", "h"): 1}


def test_measure_scales_by_the_calibration_around_the_call(monkeypatch):
    probes = iter([1.0, 3.0])  # the machine runs at half the reference speed
    monkeypatch.setattr(run, "calibrate", lambda: next(probes) * run.CALIBRATION_REF_S)
    result, elapsed, scale = run.measure(lambda: "done")
    assert result == "done"
    assert elapsed >= 0
    assert scale == pytest.approx(0.5)


def test_phase_reports_median_latencies_scaled_and_as_measured():
    phase = run.Phase(2)
    phase.samples = [[1.0, 3.0, 2.0], [4.0, 4.0, 5.0]]
    phase.wall = [[2.0, 6.0, 4.0], [8.0, 8.0, 10.0]]
    assert phase.latencies() == [2.0, 4.0]
    assert phase.latencies(wall=True) == [4.0, 8.0]
    assert phase.ops_per_s() == pytest.approx(2 / 6.0)
    assert phase.ops_per_s(wall=True) == pytest.approx(2 / 12.0)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {k: v for k, v in per_layer.items() if not k.startswith("trace.")}
    assert traced == tracing.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_names_real_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    traced = tracing.layer_metric_units()
    mapping = json.loads((Path(__file__).parent / "layers.json").read_text())["mapping"]
    for entry in mapping:
        for layer in entry["layers"]:
            assert any(m == layer or m.startswith(layer + ".") for m in traced), layer
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) | set(entry["little_work_on"]) <= set(workloads.WORKLOADS)


def _small_plant(rng: random.Random, schur: bool):
    radius = workloads.STABLE_RADIUS if schur else workloads.UNSTABLE_RADIUS
    return workloads._random_plant(rng, 2, radius)


@pytest.mark.parametrize("schur", [True, False])
def test_fir_pipeline_passes_its_gates(tmp_path, schur):
    a, b = _small_plant(random.Random(3), schur)
    ops = workloads._pipeline(tmp_path, 0, a, b, 4)
    phase = run.Phase(len(ops))
    run.drive(ops, phase)
    assert phase.attempted == len(ops) == 8
    assert phase.failed == 0


def test_corrupted_tap_is_counted_as_failed(tmp_path):
    """Negative control: Phi_u[1] + 1e-1 in the synthesized document."""
    a, b = _small_plant(random.Random(3), True)
    ops = workloads._pipeline(tmp_path, 0, a, b, 4)
    synthesize = ops[0].call

    def corrupted():
        result = synthesize()
        path = tmp_path / "fir0.json"
        doc = json.loads(path.read_text())
        doc["phi_u"][0][0][0] = str(Fraction(doc["phi_u"][0][0][0]) + Fraction(1, 10))
        path.write_text(json.dumps(doc))
        return result

    ops[0].call = corrupted
    phase = run.Phase(len(ops))
    run.drive(ops, phase)
    assert phase.failed >= 1
    assert not ops[0].check(ops[0].call())


def test_response_identity_rejects_a_broken_recursion():
    a = [[Fraction(1, 2)]]
    b = [[Fraction(1)]]
    phi_x = [[[Fraction(1)]], [[Fraction(0)]]]
    phi_u = [[[Fraction(-1, 2)]], [[Fraction(0)]]]
    assert workloads.response_identity_holds(a, b, phi_x, phi_u)
    phi_u[0][0][0] += Fraction(1, 10)
    assert not workloads.response_identity_holds(a, b, phi_x, phi_u)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "FIR_SCHEDULE", ((2, 4),))
    monkeypatch.setattr(workloads, "VERIFY_CYCLES", 1)
    monkeypatch.setattr(workloads, "CONVERT_PLANTS", ((1, 1), (2, 1)))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_documents(tmp_path, small_workloads, name):
    setup = workloads.WORKLOADS[name]
    runs = {}
    for label, seed in (("first", 7), ("again", 7), ("other", 8)):
        (tmp_path / label).mkdir()
        setup(seed, tmp_path / label)
        runs[label] = _files(tmp_path / label)
    assert runs["first"] == runs["again"]
    assert runs["first"] != runs["other"]


def test_trace_splits_verify_documents_and_restores_the_program(tmp_path, small_workloads):
    originals = (rstab.ratfun.poly_gcd, rstab.poly_gcd, rstab.cli.run,
                 rstab.ratfun.RatFun.__dict__["__mul__"],
                 rstab.parameterizations.YoulaParam.__dict__["checked"])
    ops = workloads.setup_verify_corpus(5, tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert rstab.ratfun.poly_gcd is not originals[0]
        assert rstab.ratfun.RatFun.__rmul__ is rstab.ratfun.RatFun.__mul__
        phase = run.Phase(len(ops))
        run.drive(ops, phase, tracer)
    assert phase.failed == 0
    assert originals == (rstab.ratfun.poly_gcd, rstab.poly_gcd, rstab.cli.run,
                         rstab.ratfun.RatFun.__dict__["__mul__"],
                         rstab.parameterizations.YoulaParam.__dict__["checked"])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.verify.calls"] == len(ops)
    assert metrics["tfmatrix.TFMatrix.inverse.calls_with_s"] == 0
    assert metrics["tfmatrix.TFMatrix.inverse.calls_without_s"] == sum(
        not ship_s for _, ship_s in workloads.VERIFY_CYCLE)
    assert metrics["sls.synthesize_sf_h2.calls"] == 0
    assert metrics["parameterizations.from_controller.calls"] == 0
    assert metrics["serialize.bytes_read"] == sum(
        p.stat().st_size for p in tmp_path.glob("loop*.json"))
