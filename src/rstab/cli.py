"""Command-line front end.

Subcommands: verify, convert, synthesize, certify, simulate, factorize.
Inputs and outputs are the self-describing JSON documents of
:mod:`rstab.serialize`; every invocation prints a human-readable summary
and can additionally write a machine-readable report with ``--report``.

Exit codes partition the outcomes: 0 all checks passed, 1 a validity or
stability check failed, 2 an input could not be parsed, 3 a required
matrix inverse does not exist.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import serialize
from .errors import SchemaError, SingularMatrixError, ToolkitError
from .parameterizations import (
    DIRECT_MAPS,
    REGISTRY,
    PlantSS,
    controller_with_output,
    coprime_factorize,
)
from .ratfun import DEFAULT_TOL
from .realization import check_conditions, stability_from_realization, verify_lemma
from .sls import (
    DESIGN_SEPARATION,
    RealizationVariant,
    VARIANT_KINDS,
    certify_realization,
    dare_lqr,
    simulate,
    synthesize_sf_h2,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3

#: the exit code of each error type; every other toolkit error is a failed check
_ERROR_EXITS = ((SchemaError, EXIT_PARSE), (SingularMatrixError, EXIT_SINGULAR))

PARAMETERIZATIONS = tuple(REGISTRY)

#: the allowed values of each option that takes a name; argparse's choices
#: and run()'s up-front check both read it
_CHOICES = {"target": PARAMETERIZATIONS, "variant": VARIANT_KINDS}

#: the types each typed option takes; a bool is never a number here
_TYPES = {"out": ((str, os.PathLike), "a path"), "horizon": (int, "an integer")}

#: the least value of an integer option, by (command, option): a synthesized
#: FIR response has at least one tap, and a simulation runs zero or more steps
_LEAST = {("synthesize", "horizon"): 1, ("simulate", "horizon"): 0}


@dataclass
class JobSpec:
    """One CLI invocation: a command, its input files, and its options."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)


def _report(command: str, passed: bool, findings=(), **details) -> dict:
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "report",
        "command": command,
        "passed": passed,
        "findings": [
            {"matrix": f.matrix, "row": f.row, "col": f.col, "kind": f.kind} for f in findings
        ],
        "details": details,
    }


def _finish(report: dict, passed: bool) -> tuple[int, dict]:
    code = EXIT_PASS if passed else EXIT_CHECK_FAILED
    report["exit_code"] = code
    return code, report


def _cmd_verify(job: JobSpec) -> tuple[int, dict]:
    doc = serialize.load_document(job.inputs["realization"])
    r, s = serialize.realization_from_doc(doc)
    if s is None:
        s = stability_from_realization(r)
    lemma_ok = verify_lemma(r, s)
    report = check_conditions(r, s)
    passed = lemma_ok and report.passed
    return _finish(
        _report("verify", passed, report.findings, lemma_holds=lemma_ok, tol=DEFAULT_TOL),
        passed,
    )


def _cmd_convert(job: JobSpec) -> tuple[int, dict]:
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    factors = None
    if "factors" in job.inputs:
        # loaded and validated only by a conversion that reads them
        factors = lambda: serialize.coprime_from_doc(
            serialize.load_document(job.inputs["factors"]))
    source, bundle = serialize.bundle_from_doc(
        serialize.load_document(job.inputs["bundle"]), plant
    )
    target = job.options["target"]
    direct = DIRECT_MAPS.get((source, target))
    if direct is not None:
        out = direct(bundle, plant, factors)
    elif source == target:
        out = bundle
    else:
        to = REGISTRY[target]
        k = REGISTRY[source].to_controller(bundle, plant, factors)
        out = to.from_controller(plant, factors, controller_with_output(k, plant, to.signal))
    doc = serialize.bundle_to_doc(target, out)
    serialize.dump_document(doc, job.options["out"])
    return _finish(
        _report("convert", True, source=source, target=target, out=str(job.options["out"])),
        True,
    )


def _cmd_synthesize(job: JobSpec) -> tuple[int, dict]:
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    horizon = job.options["horizon"]
    if "weights" in job.inputs:
        qw, rw = serialize.weights_from_doc(serialize.load_document(job.inputs["weights"]))
    else:
        qw = np.eye(plant.n, dtype=int).tolist()
        rw = np.eye(plant.m, dtype=int).tolist()
    bundle = synthesize_sf_h2(plant, qw, rw, horizon)
    doc = serialize.fir_bundle_to_doc(
        horizon, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u}
    )
    serialize.dump_document(doc, job.options["out"])
    return _finish(
        _report(
            "synthesize", True, horizon=horizon, constraint_residual="0",
            out=str(job.options["out"]),
        ),
        True,
    )


def _variant_from_inputs(job: JobSpec) -> tuple[RealizationVariant, PlantSS]:
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    parts = serialize.fir_bundle_from_doc(serialize.load_document(job.inputs["fir"]))
    kind = job.options["variant"]
    if kind == DESIGN_SEPARATION:
        if "p_c" not in parts or "m_c" not in parts:
            raise SchemaError("design separation needs p_c and m_c taps in the fir_bundle")
        v = RealizationVariant.design_separation(
            parts["p_c"], parts["m_c"], parts["phi_x"], parts["phi_u"]
        )
    else:
        v = RealizationVariant(kind, parts["phi_x"], parts["phi_u"])
    return v, plant


def _cmd_certify(job: JobSpec) -> tuple[int, dict]:
    v, plant = _variant_from_inputs(job)
    rep = certify_realization(v, plant)
    details: dict[str, Any] = {"variant": rep.variant, "tol": DEFAULT_TOL}
    if rep.schur_stable is not None:
        details["schur_stable"] = rep.schur_stable
    if rep.delta_column_strictly_proper is not None:
        details["delta_column_strictly_proper"] = rep.delta_column_strictly_proper
    return _finish(_report("certify", rep.passed, rep.findings, **details), rep.passed)


def _cmd_simulate(job: JobSpec) -> tuple[int, dict]:
    v, plant = _variant_from_inputs(job)
    horizon = job.options["horizon"]
    if "disturbance" in job.inputs:
        d = serialize.disturbance_from_doc(serialize.load_document(job.inputs["disturbance"]))
    else:
        impulse = np.zeros((1, plant.n))
        impulse[0, 0] = 1.0
        d = {"x": impulse}
    trace = simulate(v, plant, d, horizon)
    serialize.dump_document(serialize.trace_to_doc(trace), job.options["out"])
    return _finish(
        _report(
            "simulate", True, variant=v.kind, horizon=horizon, out=str(job.options["out"]),
        ),
        True,
    )


def _cmd_factorize(job: JobSpec) -> tuple[int, dict]:
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    if "gains" in job.inputs:
        f_gain, l_gain = serialize.gains_from_doc(serialize.load_document(job.inputs["gains"]))
    else:
        f_gain = dare_lqr(plant, np.eye(plant.n), np.eye(plant.m))
        dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
        l_gain = dare_lqr(dual, np.eye(plant.n), np.eye(plant.p)).T
    factors = coprime_factorize(plant, f_gain, l_gain)
    serialize.dump_document(serialize.coprime_to_doc(factors), job.options["out"])
    return _finish(
        _report("factorize", True, tol=DEFAULT_TOL, out=str(job.options["out"])),
        True,
    )


#: command -> (handler, the inputs it needs, the inputs it may take, the
#: options it needs and takes); run() refuses every other input and option,
#: and main() reads the parsed arguments by these names
_COMMANDS = {
    "verify": (_cmd_verify, ("realization",), (), ()),
    "convert": (_cmd_convert, ("bundle", "plant"), ("factors",), ("target", "out")),
    "synthesize": (_cmd_synthesize, ("plant",), ("weights",), ("horizon", "out")),
    "certify": (_cmd_certify, ("fir", "plant"), (), ("variant",)),
    "simulate": (_cmd_simulate, ("fir", "plant"), ("disturbance",), ("variant", "horizon", "out")),
    "factorize": (_cmd_factorize, ("plant",), ("gains",), ("out",)),
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job and return (exit_code, report document).

    An unknown command, a missing or mistyped input or option, an input or
    option the command does not take, an option value outside its choices,
    or an integer option below its least value is a parse error, found
    before the handler runs.
    """
    try:
        if job.command not in _COMMANDS:
            raise SchemaError(f"unknown command {job.command!r}")
        handler, inputs, optional, options = _COMMANDS[job.command]
        missing = [f"input {n!r}" for n in inputs if n not in job.inputs]
        missing += [f"option {n!r}" for n in options if n not in job.options]
        if missing:
            raise SchemaError(f"{job.command} is missing {', '.join(missing)}")
        unknown = [f"input {n!r}" for n in job.inputs if n not in inputs + optional]
        unknown += [f"option {n!r}" for n in job.options if n not in options]
        if unknown:
            raise SchemaError(f"{job.command} does not take {', '.join(unknown)}")
        for name, allowed in _CHOICES.items():
            if name in options and job.options[name] not in allowed:
                raise SchemaError(
                    f"unknown {name} {job.options[name]!r}; expected one of {', '.join(allowed)}")
        typed = [(f"input {n!r}", value, _TYPES["out"]) for n, value in job.inputs.items()]
        typed += [(f"option {n!r}", job.options[n], t) for n, t in _TYPES.items() if n in job.options]
        for label, value, (types, what) in typed:
            if isinstance(value, bool) or not isinstance(value, types):
                raise SchemaError(f"{label} must be {what}, not {value!r}")
        for (command, name), least in _LEAST.items():
            if command == job.command and job.options[name] < least:
                raise SchemaError(
                    f"option {name!r} must be at least {least}, not {job.options[name]!r}")
        return handler(job)
    except ToolkitError as exc:
        code = next((c for kind, c in _ERROR_EXITS if isinstance(exc, kind)), EXIT_CHECK_FAILED)
        cause = getattr(exc, "report", None)
        report = _report(job.command, False, cause.findings if cause else (), error=str(exc))
        report["exit_code"] = code
        return code, report


def _print_report(report: dict) -> None:
    status = "PASS" if report.get("passed") else "FAIL"
    print(f"{report.get('command')}: {status}")
    for f in report.get("findings", []):
        print(f"  {f['matrix']}[{f['row']},{f['col']}]: {f['kind']}")
    details = report.get("details", {})
    for key, value in details.items():
        print(f"  {key}: {value}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstab",
        description="Verify, convert, synthesize, certify, and simulate "
        "discrete-time closed-loop realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--report", help="write a machine-readable report here")
        if out:
            p.add_argument("--out", required=True, help="output document path")

    p = sub.add_parser("verify", help="check the defining identity and stability conditions")
    p.add_argument("realization", help="realization document (optionally with stability)")
    common(p)

    p = sub.add_parser("convert", help="convert a parameter bundle to another parameterization")
    p.add_argument("bundle", help="parameter bundle document")
    p.add_argument("--plant", required=True, help="plant document")
    p.add_argument("--to", required=True, choices=_CHOICES["target"], dest="target")
    p.add_argument("--factors", help="coprime factors document (for Youla conversions)")
    common(p, out=True)

    p = sub.add_parser("synthesize", help="FIR H2 state-feedback synthesis")
    p.add_argument("--plant", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--weights", help="weights document (default: identity)")
    common(p, out=True)

    p = sub.add_parser("certify", help="certify a closed-loop realization variant")
    p.add_argument("fir", help="fir_bundle document")
    p.add_argument("--plant", required=True)
    p.add_argument("--variant", required=True, choices=_CHOICES["variant"])
    common(p)

    p = sub.add_parser("simulate", help="simulate a realization variant in the time domain")
    p.add_argument("fir", help="fir_bundle document")
    p.add_argument("--plant", required=True)
    p.add_argument("--variant", required=True, choices=_CHOICES["variant"])
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--disturbance", help="disturbance document (default: impulse on x[0])")
    common(p, out=True)

    p = sub.add_parser("factorize", help="doubly coprime factorization of a plant")
    p.add_argument("--plant", required=True)
    p.add_argument("--gains", help="gains document with F and L (default: LQR gains)")
    common(p, out=True)

    return parser


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    given = {n: v for n, v in vars(args).items() if v is not None}
    _, inputs, optional, options = _COMMANDS[args.command]
    code, report = run(JobSpec(
        args.command,
        {n: given[n] for n in inputs + optional if n in given},
        {n: given[n] for n in options if n in given},
    ))
    _print_report(report)
    if args.report:
        serialize.dump_document(report, args.report)
    sys.exit(code)


if __name__ == "__main__":
    main()
