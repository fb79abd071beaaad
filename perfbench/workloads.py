"""Seeded workloads: input generation (set-up), the op sequence, and the gates.

An op is one CLI command run in process through ``rstab.cli.run`` (or, in
``fir_h2_pipeline``, the library call ``impulse_match``).  A workload's
set-up writes every input document under ``work`` and returns the ops of one
pass; the benchmark runs whole passes.  Each op carries a gate that checks its
output: against an exact identity recomputed from the document (synthesize,
simulate), against what set-up computed directly from the same inputs
(convert, factorize), or against the verdict the input calls for (certify,
verify, impulse_match).  A gate returning False, an unexpected exit code, or
an exception counts as a failed op.

The program receives only the generated documents.  Every random choice
comes from ``random.Random(f"{workload}:{seed}")``, so one seed always gives
byte-identical documents.  The sizes follow a fixed schedule and only the
coefficients are random, so that runs with different seeds do the same
amount of work.  Each pass mixes its sizes so that the median and the 90th
percentile of op latency fall inside a cluster of similar ops, not in a gap
between two clusters, which keeps them steady from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rstab import cli, serialize, sls
from rstab.errors import ConvergenceError
from rstab.parameterizations import (
    PlantSS,
    YoulaParam,
    controller_to_youla,
    coprime_factorize,
    iop_from_controller,
    mixed1_from_controller,
    mixed2_from_controller,
    slp_of_from_controller,
    slp_sf_from_controller,
    youla_to_controller,
)
from rstab.ratfun import Poly, RatFun
from rstab.realization import Realization, stability_from_realization
from rstab.tfmatrix import SignalSpace, TFMatrix

VARIANTS = ("original_sls", "deployment", "design_separation")
IMPULSE_TOL = 1e-9


@dataclass
class Op:
    """One timed call and the gate that checks what it returned."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    #: label for traced counts that must differ between kinds of input
    group: str = ""


# -- shared helpers -------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _small_rational(rng: random.Random) -> Fraction:
    """A nonzero rational with a small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 6))


def _spectral_radius(a) -> float:
    return float(max(abs(np.linalg.eigvals(np.array(a, dtype=float)))))


def _controllable(a, b) -> bool:
    """Exact rank test of [B, AB, ..., A^{n-1} B] for a single input."""
    n = len(a)
    cols, v = [], [row[0] for row in b]
    for _ in range(n):
        cols.append(v)
        v = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
    return _det([[cols[j][i] for j in range(n)] for i in range(n)]) != 0


def _det(m: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction elimination."""
    m = [list(row) for row in m]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def _random_plant(rng: random.Random, n: int, radius: tuple[float, float]) -> tuple[list, list]:
    """Controllable single-input (A, B) whose spectral radius lies in ``radius``."""
    while True:
        a = [[_small_rational(rng) for _ in range(n)] for _ in range(n)]
        b = [[_small_rational(rng)] for _ in range(n)]
        if radius[0] < _spectral_radius(a) < radius[1] and _controllable(a, b):
            return a, b


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _taps(doc_taps) -> list[list[list[Fraction]]]:
    return [[[Fraction(v) for v in row] for row in tap] for tap in doc_taps]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _run_cli(command: str, inputs: dict[str, Path], **options) -> Callable[[], Any]:
    job = cli.JobSpec(command, {k: str(v) for k, v in inputs.items()},
                      {k: str(v) if isinstance(v, Path) else v for k, v in options.items()})
    return lambda: cli.run(job)


# -- fir_h2_pipeline ---------------------------------------------------------------

#: (states, horizon) per pipeline, each once Schur-stable and once not: 128
#: ops, so that more than ten op latencies lie above the 90th percentile.  The
#: eight certify ops of (2, 10) and (3, 4) are the slowest; the twelve of the
#: three (2, 8) pairs come next, and the 90th percentile falls among them.
FIR_SCHEDULE = ((2, 4), (2, 10), (2, 5), (3, 4), (2, 8), (2, 6), (2, 8), (2, 8))
STABLE_RADIUS = (0.5, 0.9)
UNSTABLE_RADIUS = (1.1, 1.6)


def response_identity_holds(a, b, phi_x, phi_u) -> bool:
    """Phi_x[1] = I, Phi_x[k+1] = A Phi_x[k] + B Phi_u[k], A Phi_x[T] + B Phi_u[T] = 0."""
    n, horizon = len(a), len(phi_x)
    if len(phi_u) != horizon:
        return False
    if phi_x[0] != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
        return False
    for k in range(horizon):
        ax, bu = _matmul(a, phi_x[k]), _matmul(b, phi_u[k])
        nxt = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ax, bu)]
        want = phi_x[k + 1] if k + 1 < horizon else [[0] * n for _ in range(n)]
        if nxt != want:
            return False
    return True


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= IMPULSE_TOL * max(1.0, abs(ref))


def _pipeline(work: Path, idx: int, a, b, horizon: int) -> list[Op]:
    """synthesize, certify x3, simulate, impulse_match x3 on one plant."""
    plant_path = work / f"plant{idx}.json"
    fir_path = work / f"fir{idx}.json"
    ds_path = work / f"fir{idx}_ds.json"
    trace_path = work / f"trace{idx}.json"
    plant = PlantSS.state_feedback(a, b)
    serialize.dump_document(serialize.plant_to_doc(plant), plant_path)
    schur = _spectral_radius(a) < 1.0
    taps: dict[str, list] = {}
    sim_horizon = horizon + 2

    def check_synthesize(result) -> bool:
        code, _ = result
        doc = _read(fir_path)
        # the input of the design-separation ops: (P_c, M_c) = (Phi_x, Phi_u)
        # satisfies its fixed-point constraint whenever the response identity
        # holds.  Gates stay outside rstab, so that traced spans are all ops'.
        ds_path.write_text(json.dumps({**doc, "p_c": doc["phi_x"], "m_c": doc["phi_u"]}))
        taps["phi_x"], taps["phi_u"] = _taps(doc["phi_x"]), _taps(doc["phi_u"])
        return code == 0 and response_identity_holds(a, b, taps["phi_x"], taps["phi_u"])

    def check_certify(variant: str):
        def check(result) -> bool:
            code, report = result
            if variant == "deployment":
                if report["details"].get("schur_stable") is not schur:
                    return False
                if not schur:
                    return code == 1 and not report["passed"]
            return code == 0 and report["passed"]
        return check

    def check_simulate(result) -> bool:
        code, _ = result
        signals = _read(trace_path)["signals"]
        if code != 0 or not taps:
            return False
        for name, key in (("x", "phi_x"), ("u", "phi_u")):
            rows = signals[name]
            if len(rows) != sim_horizon + 1:
                return False
            for t, row in enumerate(rows):
                want = taps[key][t - 1] if 1 <= t <= horizon else None
                for i, value in enumerate(row):
                    ref = float(want[i][0]) if want is not None else 0.0
                    if not _close(value, ref):
                        return False
        return True

    def impulse_call(variant: str):
        def call():
            p = serialize.plant_from_doc(serialize.load_document(plant_path))
            doc_path = ds_path if variant == "design_separation" else fir_path
            parts = serialize.fir_bundle_from_doc(serialize.load_document(doc_path))
            if variant == "design_separation":
                v = sls.RealizationVariant.design_separation(
                    parts["p_c"], parts["m_c"], parts["phi_x"], parts["phi_u"])
            else:
                v = sls.RealizationVariant(variant, parts["phi_x"], parts["phi_u"])
            return sls.impulse_match(v, p, sim_horizon, IMPULSE_TOL)
        return call

    ops = [Op("synthesize", _run_cli("synthesize", {"plant": plant_path},
                                     horizon=horizon, out=fir_path), check_synthesize)]
    for variant in VARIANTS:
        fir = ds_path if variant == "design_separation" else fir_path
        ops.append(Op("certify", _run_cli("certify", {"plant": plant_path, "fir": fir},
                                          variant=variant), check_certify(variant)))
    ops.append(Op("simulate", _run_cli("simulate", {"plant": plant_path, "fir": fir_path},
                                       variant="original_sls", horizon=sim_horizon,
                                       out=trace_path), check_simulate))
    for variant in VARIANTS:
        ops.append(Op("impulse_match", impulse_call(variant), lambda rep: rep.passed))
    return ops


def setup_fir_h2_pipeline(seed: int, work: Path) -> list[Op]:
    rng = _rng("fir_h2_pipeline", seed)
    ops: list[Op] = []
    for n, horizon in FIR_SCHEDULE:
        for radius in (STABLE_RADIUS, UNSTABLE_RADIUS):
            a, b = _random_plant(rng, n, radius)
            ops += _pipeline(work, len(ops) // 8, a, b, horizon)
    return ops


# -- verify_corpus -------------------------------------------------------------------

#: (blocks, ships S) per document of a 12-document cycle.  Entry degrees fall
#: as the blocks grow, so every class costs about as much as the next:
#: in order of cost 2S, 2N, 3S, then 4S with 3N, then 4N.  The median lies
#: inside the 4S/3N cluster and the 90th percentile inside 4N.
VERIFY_CYCLE = ((2, True), (2, True), (2, False), (3, True), (3, False), (3, False),
                (4, True), (4, True), (4, True), (4, False), (4, False), (4, False))
VERIFY_CYCLES = 15
#: (numerator, denominator) degree of every entry, by number of blocks
VERIFY_DEGREES = {2: (3, 3), 3: (2, 2), 4: (1, 1)}


def _random_ratfun(rng: random.Random, num_degree: int, den_degree: int) -> RatFun:
    """Small rational coefficients, a nonzero leading numerator coefficient, monic denominator."""
    def coeff():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    lead = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    num = [coeff() for _ in range(num_degree)] + [lead]
    den = [coeff() for _ in range(den_degree)] + [Fraction(1)]
    return RatFun(num, den)


def _nonsingular(ent: list[list[RatFun]], rng: random.Random) -> bool:
    """det(I - R) != 0, tested exactly at a random rational point."""
    while True:
        z0 = Fraction(rng.randint(-50, 50), rng.randint(7, 40))
        if all(e.den(z0) != 0 for row in ent for e in row):
            break
    m = [[int(i == j) - e.num(z0) / e.den(z0) for j, e in enumerate(row)]
         for i, row in enumerate(ent)]
    return _det(m) != 0


def _check_verify(result) -> bool:
    code, report = result
    if report["details"].get("lemma_holds") is not True:
        return False
    if code == 0:
        return report["passed"] and not report["findings"]
    return code == 1 and bool(report["findings"])


def setup_verify_corpus(seed: int, work: Path) -> list[Op]:
    rng = _rng("verify_corpus", seed)
    ops = []
    for idx, (blocks, ship_s) in enumerate(VERIFY_CYCLE * VERIFY_CYCLES):
        space = SignalSpace(tuple((f"s{i}", 1) for i in range(blocks)))
        degrees = VERIFY_DEGREES[blocks]
        while True:
            ent = [[_random_ratfun(rng, *degrees) for _ in range(blocks)] for _ in range(blocks)]
            if _nonsingular(ent, rng):
                break
        r = Realization(space, TFMatrix(space, space, ent))
        s = stability_from_realization(r) if ship_s else None
        path = work / f"loop{idx}.json"
        serialize.dump_document(serialize.realization_to_doc(r, s), path)
        ops.append(Op("verify", _run_cli("verify", {"realization": path}), _check_verify,
                      group="with_s" if ship_s else "without_s"))
    return ops


# -- convert_matrix ------------------------------------------------------------------

#: (states, FIR order of the Youla parameter Q) per plant.  Each plant has a
#: third of the ops, so the median lies among the 2-state conversions and the
#: 90th percentile among the 3-state ones.
CONVERT_PLANTS = ((1, 3), (2, 2), (3, 1))
CONVERT_RADIUS = (0.3, 1.5)


def _bundle_entries(doc: dict) -> dict[str, Any]:
    """Blocks entry by entry, without the signal labels of their spaces."""
    return {name: block["entries"] for name, block in doc["blocks"].items()}


def _convert_plant(rng: random.Random, work: Path, idx: int, n: int, order: int):
    """Plant documents, coprime factors, and every bundle of one controller."""
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    while True:
        a, b = _random_plant(rng, n, CONVERT_RADIUS)
        plant = PlantSS(a, b, eye, [[Fraction(0)] for _ in range(n)])
        # the gains `rstab factorize` computes itself; a plant on which the
        # Riccati iteration does not converge is drawn again
        try:
            f_gain = sls.dare_lqr(plant, np.eye(plant.n), np.eye(plant.m))
            dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
            l_gain = sls.dare_lqr(dual, np.eye(plant.n), np.eye(plant.p)).T
        except ConvergenceError:
            continue
        break
    factors = coprime_factorize(plant, f_gain, l_gain)
    den = Poly.z(order)
    q = TFMatrix(plant.u_space, plant.y_space, [[
        RatFun(Poly([_small_rational(rng) for _ in range(order)]), den) for _ in range(n)
    ]])
    k = youla_to_controller(factors, YoulaParam.checked(q))
    k_x = k.relabel(plant.u_space, plant.x_space)
    bundles = {
        "youla": controller_to_youla(factors, k),
        "iop": iop_from_controller(plant.transfer(), k),
        "slp_sf": slp_sf_from_controller(plant, k_x),
        "slp_of": slp_of_from_controller(plant, k),
        "mixed1": mixed1_from_controller(plant, k),
        "mixed2": mixed2_from_controller(plant, k),
    }
    if bundles["youla"].Q != q:
        raise RuntimeError("set-up: the controller does not map back to its Youla parameter")
    paths = {
        "plant": work / f"plant{idx}.json",
        "factors": work / f"factors{idx}.json",
        **{name: work / f"bundle{idx}_{name}.json" for name in bundles},
    }
    serialize.dump_document(serialize.plant_to_doc(plant), paths["plant"])
    serialize.dump_document(serialize.coprime_to_doc(factors), paths["factors"])
    expected = {}
    for name, bundle in bundles.items():
        doc = serialize.bundle_to_doc(name, bundle)
        serialize.dump_document(doc, paths[name])
        expected[name] = _bundle_entries(doc)
    return paths, expected


def _plant_ops(work: Path, idx: int, paths: dict, expected: dict, pairs) -> list[Op]:
    factors_bytes = paths["factors"].read_bytes()
    out_path = work / f"out{idx}.json"
    factorize_out = work / f"factors{idx}_out.json"

    def check_factorize(result) -> bool:
        return result[0] == 0 and factorize_out.read_bytes() == factors_bytes

    def check_convert(target: str):
        def check(result) -> bool:
            doc = _read(out_path)
            return (result[0] == 0 and doc["parameterization"] == target
                    and _bundle_entries(doc) == expected[target])
        return check

    ops = [Op("factorize", _run_cli("factorize", {"plant": paths["plant"]},
                                    out=factorize_out), check_factorize)]
    for source, target in pairs:
        inputs = {"bundle": paths[source], "plant": paths["plant"], "factors": paths["factors"]}
        ops.append(Op("convert", _run_cli("convert", inputs, target=target, out=out_path),
                      check_convert(target)))
    return ops


def setup_convert_matrix(seed: int, work: Path) -> list[Op]:
    rng = _rng("convert_matrix", seed)
    names = tuple(serialize.BUNDLE_FIELDS)
    pairs = [(source, target) for source in names for target in names]
    ops = []
    for idx, (n, order) in enumerate(CONVERT_PLANTS):
        paths, expected = _convert_plant(rng, work, idx, n, order)
        ops += _plant_ops(work, idx, paths, expected, pairs)
    return ops


#: set-up of each workload, by name
WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "fir_h2_pipeline": setup_fir_h2_pipeline,
    "verify_corpus": setup_verify_corpus,
    "convert_matrix": setup_convert_matrix,
}
