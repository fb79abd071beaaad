"""Spans around the public functions of each rstab layer, kept in memory.

The benchmark records spans from its own files: ``installed`` replaces each
traced function with a wrapper in every ``rstab`` module namespace that
holds it, and each traced method on its class, then restores the originals.
A span has a name, a start, an end and the index of the span that caused it
(its parent, the innermost span open when it started).  Spans are appended
when they open, so a parent always precedes its children.

Size counters are taken at the same boundaries, from outside the program:
degrees and coefficient bits at ``poly_gcd`` inputs and ``TFMatrix.inverse``
outputs, the KKT dimension of each synthesis, and document bytes read and
written.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

STATS = ("calls", "busy_s", "self_s")
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


class Tracer:
    """Append-only span store plus named size counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: root span index -> the op group it belongs to
        self.groups: dict[int, str] = {}
        self.counters: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def write(self, path: Path) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "groups": {str(k): v for k, v in self.groups.items()},
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- size observations ---------------------------------------------------------


def _coeff_bits(coeffs) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0
    )


def _gcd_inputs(t: Tracer, args) -> None:
    a, b = args[0], args[1]
    t.peak("ratfun.poly_gcd.max_in_degree", max(a.degree, b.degree))
    t.peak("ratfun.poly_gcd.max_in_coeff_bits", max(_coeff_bits(a.coeffs), _coeff_bits(b.coeffs)))


def _gcd_result(t: Tracer, args, result) -> None:
    if result.degree > 0:
        t.add("ratfun.poly_gcd.nontrivial", 1)


def _inverse_result(t: Tracer, args, result) -> None:
    t.peak("tfmatrix.TFMatrix.inverse.max_dim", result.rows.total)
    for row in result.entries:
        for e in row:
            t.peak("tfmatrix.peak_entry_degree", max(e.num.degree, e.den.degree))
            t.peak("tfmatrix.peak_coeff_bits", max(_coeff_bits(e.num.coeffs), _coeff_bits(e.den.coeffs)))


def _kkt_dim(t: Tracer, args) -> None:
    plant, horizon = args[0], args[3]
    t.peak("sls.kkt_dim", (plant.n + plant.m) * horizon + plant.n * (horizon + 1))


def _bytes_read(t: Tracer, args, result) -> None:
    t.add("serialize.bytes_read", os.path.getsize(args[0]))


def _bytes_written(t: Tracer, args, result) -> None:
    t.add("serialize.bytes_written", os.path.getsize(args[1]))


def _cli_span_name(args) -> str:
    return f"cli.{args[0].command}"


# -- the traced layers -----------------------------------------------------------

_RATFUN_ARITH = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__")
_BUNDLES = ("YoulaParam", "IOPParam", "SLPStateFeedback", "SLPOutputFeedback",
            "MixedParam1", "MixedParam2")
_FROM_CONTROLLER = ("controller_to_youla", "iop_from_controller", "slp_sf_from_controller",
                    "slp_of_from_controller", "mixed1_from_controller", "mixed2_from_controller")
_TO_CONTROLLER = ("youla_to_controller", "iop_to_controller", "slp_sf_to_controller",
                  "slp_of_to_controller", "mixed1_to_controller", "mixed2_to_controller")
_FROM_DOC = ("plant_from_doc", "realization_from_doc", "bundle_from_doc", "coprime_from_doc",
             "fir_bundle_from_doc", "disturbance_from_doc", "weights_from_doc", "gains_from_doc")
_TO_DOC = ("plant_to_doc", "realization_to_doc", "bundle_to_doc", "coprime_to_doc",
           "fir_bundle_to_doc", "trace_to_doc")

#: (span name, module, attributes, stats reported, before hook, after hook).
#: An attribute "Class.method" is patched on the class under every name that
#: holds the same function (so ``__rmul__ = __mul__`` is traced too).
LAYERS = (
    ("ratfun.poly_gcd", "rstab.ratfun", ("poly_gcd",), ("calls", "busy_s"),
     _gcd_inputs, _gcd_result),
    ("ratfun.Poly.mul", "rstab.ratfun", ("Poly.__mul__",), STATS, None, None),
    ("ratfun.Poly.divmod", "rstab.ratfun", ("Poly.__divmod__",), STATS, None, None),
    ("ratfun.RatFun.arith", "rstab.ratfun", tuple(f"RatFun.{m}" for m in _RATFUN_ARITH),
     STATS, None, None),
    ("ratfun.RatFun.is_stable", "rstab.ratfun", ("RatFun.is_stable",), ("calls", "busy_s"),
     None, None),
    ("tfmatrix.TFMatrix.inverse", "rstab.tfmatrix", ("TFMatrix.inverse",), STATS,
     None, _inverse_result),
    ("tfmatrix.TFMatrix.matmul", "rstab.tfmatrix", ("TFMatrix.__matmul__",), STATS, None, None),
    ("tfmatrix.TFMatrix.eq", "rstab.tfmatrix", ("TFMatrix.__eq__",), STATS, None, None),
    ("tfmatrix.TFMatrix.classify", "rstab.tfmatrix", ("TFMatrix.classify",), STATS, None, None),
    ("realization.stability_from_realization", "rstab.realization",
     ("stability_from_realization",), STATS, None, None),
    ("realization.verify_lemma", "rstab.realization", ("verify_lemma",), STATS, None, None),
    ("realization.check_conditions", "rstab.realization", ("check_conditions",), STATS,
     None, None),
    ("parameterizations.checked", "rstab.parameterizations",
     tuple(f"{c}.checked" for c in _BUNDLES) + ("CoprimeFactors.validate",), STATS, None, None),
    ("parameterizations.from_controller", "rstab.parameterizations", _FROM_CONTROLLER, STATS,
     None, None),
    ("parameterizations.to_controller", "rstab.parameterizations", _TO_CONTROLLER, STATS,
     None, None),
    ("parameterizations.direct_map", "rstab.parameterizations",
     ("youla_to_iop", "slp_sf_to_iop", "slp_of_to_iop"), STATS, None, None),
    ("parameterizations.coprime_factorize", "rstab.parameterizations", ("coprime_factorize",),
     STATS, None, None),
    ("sls.synthesize_sf_h2", "rstab.sls", ("synthesize_sf_h2",), STATS, _kkt_dim, None),
    ("sls.build_realization", "rstab.sls", ("build_realization",), STATS, None, None),
    ("sls.certify_realization", "rstab.sls", ("certify_realization",), STATS, None, None),
    ("sls.simulate", "rstab.sls", ("simulate",), STATS, None, None),
    ("sls.impulse_match", "rstab.sls", ("impulse_match",), STATS, None, None),
    ("sls.dare_lqr", "rstab.sls", ("dare_lqr",), STATS, None, None),
    ("serialize.load_document", "rstab.serialize", ("load_document",), STATS, None, _bytes_read),
    ("serialize.dump_document", "rstab.serialize", ("dump_document",), STATS,
     None, _bytes_written),
    ("serialize.from_doc", "rstab.serialize", _FROM_DOC, STATS, None, None),
    ("serialize.to_doc", "rstab.serialize", _TO_DOC, STATS, None, None),
)

CLI_COMMANDS = ("verify", "convert", "synthesize", "certify", "simulate", "factorize")

#: Size counters and their units; every one is reported, 0 when never touched.
COUNTERS = {
    "ratfun.poly_gcd.max_in_degree": "degree",
    "ratfun.poly_gcd.max_in_coeff_bits": "bits",
    "tfmatrix.TFMatrix.inverse.max_dim": "rows",
    "tfmatrix.peak_entry_degree": "degree",
    "tfmatrix.peak_coeff_bits": "bits",
    "sls.kkt_dim": "rows",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
}

#: Inverse calls split by the op group of the verify document (with or without S).
GROUP_COUNTS = {
    "tfmatrix.TFMatrix.inverse.calls_with_s": ("tfmatrix.TFMatrix.inverse", "with_s"),
    "tfmatrix.TFMatrix.inverse.calls_without_s": ("tfmatrix.TFMatrix.inverse", "without_s"),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _, stats, _, _ in LAYERS:
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
        if name == "ratfun.poly_gcd":
            units["ratfun.poly_gcd.nontrivial_ratio"] = "ratio"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.calls"] = "count"
        units[f"cli.{command}.busy_s"] = "s"
    units.update(COUNTERS)
    units.update({name: "count" for name in GROUP_COUNTS})
    return units


def _wrap(tracer: Tracer, fn, name, before, after):
    nid = tracer.name_id(name) if isinstance(name, str) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        idx = tracer.open(nid if nid is not None else tracer.name_id(name(args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _rstab_modules() -> list:
    return [m for key, m in sys.modules.items() if key == "rstab" or key.startswith("rstab.")]


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer of ``LAYERS`` and ``cli.run`` while the block runs."""
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(owners, raw, new):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, key, new)
                    undo.append((owner, key, raw))

    modules = _rstab_modules()
    targets = [(n, mod, attrs, b, a) for n, mod, attrs, _, b, a in LAYERS]
    targets.append((_cli_span_name, "rstab.cli", ("run",), None, None))
    try:
        for name, module, attrs, before, after in targets:
            mod = sys.modules[module]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(_wrap(tracer, raw.__func__, name, before, after))
                    else:
                        new = _wrap(tracer, raw, name, before, after)
                    replace_everywhere([cls], raw, new)
                else:
                    raw = getattr(mod, attr)
                    replace_everywhere(modules, raw, _wrap(tracer, raw, name, before, after))
        yield tracer
    finally:
        for owner, key, raw in reversed(undo):
            setattr(owner, key, raw)


# -- analysis -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


#: steps per sample of the numerical integral behind ``harrell_davis``
_HD_STEPS = 64


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100.

    A mean of all the order statistics, the i-th of n weighted by the mass of
    Beta(q (n+1), (100-q) (n+1)) / 100 on ((i-1)/n, i/n).  Unlike a single
    order statistic it does not jump when two samples near the percentile
    trade places, so it varies less between inputs of the same kind.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("the Harrell-Davis percentile needs 0 < q < 100")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100.0 * (n + 1), (1 - q / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = _HD_STEPS * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps  # midpoint rule: never evaluated at 0 or 1
        density = math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights[k // _HD_STEPS] += density
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def span_stats(tracer: Tracer) -> tuple[dict[str, list], dict[tuple[str, str], int]]:
    """Per span name: [calls, busy_s, self_s]; and calls per (name, root group).

    ``busy_s`` sums the spans that have no ancestor of the same name, so a
    recursive or re-entrant layer is not counted twice.  ``self_s`` is each
    span's duration minus the part its child spans cover.
    """
    n = len(tracer)
    name, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    stats = [[0, 0.0, 0.0] for _ in tracer.names]
    grouped: dict[tuple[str, str], int] = {}
    open_names = [0] * len(tracer.names)
    stack: list[int] = []
    root = [0] * n
    for i in range(n):
        p = parent[i]
        while stack and stack[-1] != p:
            open_names[name[stack.pop()]] -= 1
        nid = name[i]
        dur = end[i] - start[i]
        s = stats[nid]
        s[0] += 1
        if open_names[nid] == 0:
            s[1] += dur
        s[2] += dur - child[i]
        root[i] = i if p < 0 else root[p]
        group = tracer.groups.get(root[i])
        if group:
            key = (tracer.names[nid], group)
            grouped[key] = grouped.get(key, 0) + 1
        open_names[nid] += 1
        stack.append(i)
    return {tracer.names[k]: v for k, v in enumerate(stats)}, grouped


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of ``layer_metric_units`` computed from the recorded spans."""
    by_name, grouped = span_stats(tracer)
    out: dict[str, float] = {}
    for metric in layer_metric_units():
        if metric in COUNTERS:
            out[metric] = tracer.counters.get(metric, 0)
        elif metric in GROUP_COUNTS:
            out[metric] = grouped.get(GROUP_COUNTS[metric], 0)
        elif metric == "ratfun.poly_gcd.nontrivial_ratio":
            calls = by_name.get("ratfun.poly_gcd", [0])[0]
            nontrivial = tracer.counters.get("ratfun.poly_gcd.nontrivial", 0)
            out[metric] = nontrivial / calls if calls else 0.0
        else:
            span, stat = metric.rsplit(".", 1)
            out[metric] = by_name.get(span, [0, 0.0, 0.0])[STATS.index(stat)]
    return out
