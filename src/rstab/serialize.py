"""JSON document schemas for every on-disk artifact.

All documents are self-describing: a top-level ``kind`` selects the payload
(plant / realization / parameter_bundle / coprime_factors / fir_bundle /
weights / gains / disturbance / sim_trace / report) and ``schema_version``
pins the layout.  Rational functions are two ascending coefficient arrays
named ``num`` and ``den``, and simulation data travels as JSON numbers.

Exact rationals travel as "p/q" or "p" strings, written from ``Poly``'s
integer form by ``ratfun._pair_str``, and one scalar rule
(``ratfun._as_pair``) reads them back: the canonical "p/q" (an optional minus
sign, ASCII digits) is read as two integers, any other string as
``fractions.Fraction`` reads it (decimals such as "0.25" or "1e-3" among
them), and a JSON integer as itself.  A JSON number with a fraction or an
exponent is the decimal it is written as, so 1.2 reads as 6/5.  A number
whose double reading is not finite is refused, and one too small for a
double reads as 0, as that double does; quoted, either is read exactly.

``sys.get_int_max_str_digits()`` bounds both directions: a quoted decimal
whose exponent exceeds it is refused before its power of ten is built, and
a coefficient with more digits than it is refused instead of written, since
no reader could read it back.  A document nested deeper than the JSON
parser allows is refused as invalid JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .errors import SchemaError, ToolkitError
from .parameterizations import REGISTRY, CoprimeFactors, PlantSS
from .ratfun import Poly, RatFun, _as_coeff, _as_pair, _coeff_strs, _pair_str
from .realization import Realization, StabilityMatrix
from .sls import FIR_PARTS, FIRPhi, SimTrace, _fir_horizon, part_shape
from .tfmatrix import SignalSpace, TFMatrix

SCHEMA_VERSION = 1

#: block names of each parameter bundle, in document order
BUNDLE_FIELDS: dict[str, tuple[str, ...]] = {name: p.fields for name, p in REGISTRY.items()}

#: block names of a coprime factorization, in document order
COPRIME_FIELDS: tuple[str, ...] = tuple(f.name for f in dataclasses.fields(CoprimeFactors))


@contextmanager
def _parsing(what: str):
    """The one place where a failure while reading a document becomes a SchemaError.

    An explicit SchemaError passes through; a lookup, type, value, arithmetic
    or toolkit error raised while reading ``what`` becomes a SchemaError that
    names it.  Validation of what was read happens outside this block.
    """
    try:
        yield
    except (LookupError, TypeError, ValueError, ArithmeticError, ToolkitError) as exc:
        if isinstance(exc, SchemaError):
            raise
        if isinstance(exc, KeyError):
            raise SchemaError(f"{what} is missing {exc}") from exc
        raise SchemaError(f"malformed {what}: {exc}") from exc


def scalar_str(value) -> str:
    return _pair_str(*_as_pair(value))


def real_matrix_to_doc(m) -> list[list[str]]:
    arr = np.atleast_2d(np.asarray(m, dtype=object))
    return [[scalar_str(v) for v in row] for row in arr]


def real_matrix_from_doc(doc) -> list[list[Fraction]]:
    """Read a real matrix inside a document reader, whose ``_parsing`` names
    the document when an entry is not a scalar."""
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise SchemaError("expected a nested list for a real matrix")
    if any(len(r) != len(doc[0]) for r in doc):
        raise SchemaError("the rows of a real matrix must have equal lengths")
    return [[_as_coeff(v) for v in row] for row in doc]


def ratfun_to_doc(r: RatFun) -> dict:
    return {"num": _coeff_strs(r.num), "den": _coeff_strs(r.den)}


def ratfun_from_doc(doc) -> RatFun:
    with _parsing("rational function document"):
        return RatFun(Poly(doc["num"]), Poly(doc["den"]))


def space_to_doc(s: SignalSpace) -> list[list]:
    return [[n, d] for n, d in s.blocks]


def space_from_doc(doc) -> SignalSpace:
    with _parsing("signal space document"):
        return SignalSpace(tuple((str(n), int(d)) for n, d in doc))


def tfmatrix_to_doc(m: TFMatrix) -> dict:
    return {
        "rows": space_to_doc(m.rows),
        "cols": space_to_doc(m.cols),
        "entries": [[ratfun_to_doc(e) for e in row] for row in m.entries],
    }


def tfmatrix_from_doc(doc) -> TFMatrix:
    with _parsing("transfer matrix document"):
        rows = space_from_doc(doc["rows"])
        cols = space_from_doc(doc["cols"])
        entries = [[ratfun_from_doc(e) for e in row] for row in doc["entries"]]
        return TFMatrix(rows, cols, entries)


def _with_header(kind: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def _check_header(doc, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, found {doc.get('kind')!r}")
    return doc


def plant_to_doc(plant: PlantSS) -> dict:
    return _with_header("plant", {name: real_matrix_to_doc(getattr(plant, name)) for name in "ABCD"})


def plant_from_doc(doc) -> PlantSS:
    _check_header(doc, "plant")
    with _parsing("plant document"):
        return PlantSS(*(real_matrix_from_doc(doc[name]) for name in "ABCD"))


def realization_to_doc(r: Realization, s: StabilityMatrix | None = None) -> dict:
    payload = {
        "space": space_to_doc(r.space),
        "entries": [[ratfun_to_doc(e) for e in row] for row in r.R.entries],
        "structural_zeros": sorted([a, b] for a, b in r.structural_zeros),
    }
    if s is not None:
        payload["stability"] = [[ratfun_to_doc(e) for e in row] for row in s.S.entries]
    return _with_header("realization", payload)


def realization_from_doc(doc) -> tuple[Realization, StabilityMatrix | None]:
    _check_header(doc, "realization")
    with _parsing("realization document"):
        space = space_from_doc(doc["space"])
        entries = [[ratfun_from_doc(e) for e in row] for row in doc["entries"]]
        zeros = frozenset((str(a), str(b)) for a, b in doc.get("structural_zeros", []))
        r = Realization(space, TFMatrix(space, space, entries), zeros)
        s = None
        if "stability" in doc:
            sm = [[ratfun_from_doc(e) for e in row] for row in doc["stability"]]
            s = StabilityMatrix(space, TFMatrix(space, space, sm))
        return r, s


def bundle_to_doc(parameterization: str, bundle) -> dict:
    fields = BUNDLE_FIELDS[parameterization]
    return _with_header(
        "parameter_bundle",
        {
            "parameterization": parameterization,
            "blocks": {f: tfmatrix_to_doc(getattr(bundle, f)) for f in fields},
        },
    )


def bundle_from_doc(doc, plant: PlantSS | None = None):
    """Load and validate a parameter bundle.

    Returns (parameterization, bundle).  Bundles whose invariants involve
    the plant require one; the Youla bundle validates on its own.  IOP
    bundles name their output blocks, so a bundle produced in the
    state-feedback setting (blocks over "x") is validated against
    (zI - A)^{-1} B rather than the full plant map.
    """
    _check_header(doc, "parameter_bundle")
    kind = doc.get("parameterization")
    entry = REGISTRY.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise SchemaError(f"unknown parameterization {kind!r}")
    with _parsing("parameter bundle"):
        blocks = [tfmatrix_from_doc(doc["blocks"][f]) for f in entry.fields]
    if entry.plant_map is None:
        return kind, entry.bundle.checked(*blocks)
    if plant is None:
        raise SchemaError(f"validating a {kind} bundle requires the plant")
    return kind, entry.bundle.checked(*blocks, entry.plant_map(plant, blocks[0].rows.names[0]))


def coprime_to_doc(f: CoprimeFactors) -> dict:
    return _with_header(
        "coprime_factors",
        {"blocks": {name: tfmatrix_to_doc(getattr(f, name)) for name in COPRIME_FIELDS}},
    )


def coprime_from_doc(doc) -> CoprimeFactors:
    _check_header(doc, "coprime_factors")
    with _parsing("coprime factor document"):
        blocks = {name: tfmatrix_from_doc(doc["blocks"][name]) for name in COPRIME_FIELDS}
    f = CoprimeFactors(**blocks)
    f.validate()
    return f


def fir_bundle_to_doc(horizon: int, parts: dict[str, TFMatrix]) -> dict:
    """Write each part's ``horizon`` taps; tap k of an entry num / z^q is
    num's coefficient of z^(q - k), written from the integer form."""
    payload: dict[str, Any] = {"horizon": horizon}
    for name, m in parts.items():
        _fir_horizon(m, horizon)  # refuses a part that is not FIR or does not fit
        cells = [[(e.den.degree, _coeff_strs(e.num)) for e in row] for row in m.entries]
        payload[name] = [[[c[q - k] if 0 <= q - k < len(c) else "0" for q, c in row]
                          for row in cells] for k in range(1, horizon + 1)]
    return _with_header("fir_bundle", payload)


def fir_bundle_from_doc(doc) -> dict[str, Any]:
    """Load exact FIR taps as FIRPhi payloads keyed by part name, lifting
    each entry once, by the scalar rule of ``real_matrix_from_doc``."""
    _check_header(doc, "fir_bundle")
    with _parsing("fir_bundle"):
        horizon = doc["horizon"]
        if type(horizon) is not int:  # a JSON integer: not 1.7, not true
            raise SchemaError("fir_bundle needs an integer horizon")
        if horizon < 1:
            raise SchemaError("fir_bundle horizon must be positive")
        parts = {name: doc[name] for name in FIR_PARTS if name in doc}
        for name, taps in parts.items():
            if not isinstance(taps, list) or len(taps) != horizon:
                raise SchemaError(f"{name} must list exactly {horizon} tap matrices")
            parts[name] = [np.array(real_matrix_from_doc(mat), dtype=object) for mat in taps]
        if "phi_x" not in parts or "phi_u" not in parts:
            raise SchemaError("fir_bundle needs phi_x and phi_u")
        n, m = len(parts["phi_x"][0]), len(parts["phi_u"][0])
        for name, taps in parts.items():
            shape = part_shape(name, n, m)
            if any(t.shape != shape for t in taps):
                raise SchemaError(f"every {name} tap must be {shape[0]} x {shape[1]}")
        return {"horizon": horizon,
                **{name: FIRPhi._of(tuple(taps)) for name, taps in parts.items()}}


def disturbance_from_doc(doc) -> dict[str, np.ndarray]:
    _check_header(doc, "disturbance")
    signals = doc.get("signals")
    if not isinstance(signals, dict):
        raise SchemaError("disturbance document needs a signals object")
    out = {}
    for name, rows in signals.items():
        with _parsing(f"disturbance for {name!r}"):
            out[name] = np.array([[float(_as_coeff(v)) for v in row] for row in rows], dtype=float)
    return out


def trace_to_doc(trace: SimTrace) -> dict:
    return _with_header(
        "sim_trace",
        {
            "horizon": trace.horizon,
            "signals": {k: v.tolist() for k, v in trace.signals.items()},
            "disturbance": {k: v.tolist() for k, v in trace.disturbance.items()},
        },
    )


def weights_from_doc(doc) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    _check_header(doc, "weights")
    with _parsing("weights document"):
        return real_matrix_from_doc(doc["qw"]), real_matrix_from_doc(doc["rw"])


def gains_from_doc(doc) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    _check_header(doc, "gains")
    with _parsing("gains document"):
        return real_matrix_from_doc(doc["F"]), real_matrix_from_doc(doc["L"])


def _json_decimal(text: str) -> Fraction | float:
    """A JSON number with a fraction or an exponent, exactly as written.  One
    whose double reading is not finite, or is 0, stays that double, which
    the readers refuse (inf) or read as 0.  So an exact reading is built
    only within the double range, where the text's length bounds the power
    of ten it takes."""
    x = float(text)
    return Fraction(text) if x and math.isfinite(x) else x


def load_document(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_json_decimal)
    except (ValueError, RecursionError) as exc:
        # also a number beyond int()'s digit limit, or nesting deeper than the parser's
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must hold a JSON object")
    return doc


def dump_document(doc: dict, path) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc
