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
from typing import Any, Callable

import numpy as np

from . import serialize
from .errors import SchemaError, SingularMatrixError, ToolkitError
from .parameterizations import REGISTRY, PlantSS, convert, coprime_factorize
from .ratfun import DEFAULT_TOL
from .realization import check_conditions, stability_from_realization, verify_lemma
from .sls import (
    RealizationVariant,
    VARIANT_KINDS,
    VARIANT_PARTS,
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

#: how an error names an argument, by whether it is an option
_KINDS = ("input", "option")


@dataclass
class JobSpec:
    """One CLI invocation: a command, its input files, and its options."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Arg:
    """One argument of a command: the path of an input document, or an option.

    ``flag`` is None for a positional, which is always required.  ``type`` is
    str for a path or a name and int for an integer; a bool is neither.
    """

    name: str
    help: str
    flag: str | None = None
    option: bool = False
    required: bool = True
    type: type = str
    choices: tuple[str, ...] = ()
    least: int | None = None

    def check(self, value) -> None:
        """Refuse a value outside this argument's choices, type or least value."""
        if self.choices and value not in self.choices:
            raise SchemaError(
                f"unknown {self.name} {value!r}; expected one of {', '.join(self.choices)}")
        types, what = ((int,), "an integer") if self.type is int else ((str, os.PathLike), "a path")
        label = f"{_KINDS[self.option]} {self.name!r}"
        if isinstance(value, bool) or not isinstance(value, types):
            raise SchemaError(f"{label} must be {what}, not {value!r}")
        if self.least is not None and value < self.least:
            raise SchemaError(f"{label} must be at least {self.least}, not {value!r}")


@dataclass(frozen=True)
class Command:
    """A handler, its help line and every argument it takes.  The handler
    returns (passed, findings, details, the document to write to ``out`` or None)."""

    handler: Callable[[JobSpec], tuple]
    help: str
    args: tuple[Arg, ...]


def _report(command: str, code: int, findings, details: dict) -> tuple[int, dict]:
    return code, {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "report",
        "command": command,
        "passed": code == EXIT_PASS,
        "findings": [
            {"matrix": f.matrix, "row": f.row, "col": f.col, "kind": f.kind} for f in findings
        ],
        "details": details,
        "exit_code": code,
    }


def _cmd_verify(job: JobSpec):
    doc = serialize.load_document(job.inputs["realization"])
    r, s = serialize.realization_from_doc(doc)
    if s is None:
        # an exact inverse satisfies (I - R) S = S (I - R) = I by construction
        s = stability_from_realization(r)
        lemma_ok = True
    else:
        lemma_ok = verify_lemma(r, s)
    report = check_conditions(r, s)
    details = {"lemma_holds": lemma_ok, "tol": DEFAULT_TOL}
    return lemma_ok and report.passed, report.findings, details, None


def _cmd_convert(job: JobSpec):
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
    out = convert(source, target, bundle, plant, factors)
    return True, (), {"source": source, "target": target}, serialize.bundle_to_doc(target, out)


def _cmd_synthesize(job: JobSpec):
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    horizon = job.options["horizon"]
    if "weights" in job.inputs:
        qw, rw = serialize.weights_from_doc(serialize.load_document(job.inputs["weights"]))
    else:
        qw = np.eye(plant.n, dtype=int).tolist()
        rw = np.eye(plant.m, dtype=int).tolist()
    bundle = synthesize_sf_h2(plant, qw, rw, horizon)
    doc = serialize.fir_bundle_to_doc(horizon, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u})
    return True, (), {"horizon": horizon, "constraint_residual": "0"}, doc


def _variant_from_inputs(job: JobSpec) -> tuple[RealizationVariant, PlantSS]:
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    parts = serialize.fir_bundle_from_doc(serialize.load_document(job.inputs["fir"]))
    kind = job.options["variant"]
    missing = [name for name in VARIANT_PARTS[kind] if name not in parts]
    if missing:
        raise SchemaError(f"{kind} needs {' and '.join(missing)} taps in the fir_bundle")
    return RealizationVariant(kind, **{name: parts[name] for name in VARIANT_PARTS[kind]}), plant


def _cmd_certify(job: JobSpec):
    v, plant = _variant_from_inputs(job)
    rep = certify_realization(v, plant)
    details: dict[str, Any] = {"variant": rep.variant, "tol": DEFAULT_TOL}
    if rep.schur_stable is not None:
        details["schur_stable"] = rep.schur_stable
    if rep.delta_column_strictly_proper is not None:
        details["delta_column_strictly_proper"] = rep.delta_column_strictly_proper
    return rep.passed, rep.findings, details, None


def _cmd_simulate(job: JobSpec):
    v, plant = _variant_from_inputs(job)
    horizon = job.options["horizon"]
    if "disturbance" in job.inputs:
        d = serialize.disturbance_from_doc(serialize.load_document(job.inputs["disturbance"]))
    else:
        impulse = np.zeros((1, plant.n))
        impulse[0, 0] = 1.0
        d = {"x": impulse}
    trace = simulate(v, plant, d, horizon)
    return True, (), {"variant": v.kind, "horizon": horizon}, serialize.trace_to_doc(trace)


def _cmd_factorize(job: JobSpec):
    plant = serialize.plant_from_doc(serialize.load_document(job.inputs["plant"]))
    if "gains" in job.inputs:
        f_gain, l_gain = serialize.gains_from_doc(serialize.load_document(job.inputs["gains"]))
    else:
        f_gain = dare_lqr(plant, np.eye(plant.n), np.eye(plant.m))
        dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
        l_gain = dare_lqr(dual, np.eye(plant.n), np.eye(plant.p)).T
    factors = coprime_factorize(plant, f_gain, l_gain)
    return True, (), {"tol": DEFAULT_TOL}, serialize.coprime_to_doc(factors)


_PLANT = Arg("plant", "plant document", "--plant")
_FIR = Arg("fir", "fir_bundle document")
_VARIANT = Arg("variant", "realization variant", "--variant", option=True, choices=VARIANT_KINDS)
_OUT = Arg("out", "output document path", "--out", option=True)

#: the one declaration of each command: argparse, run()'s checks and main()'s
#: split of the parsed arguments into inputs and options all read it
_COMMANDS = {
    "verify": Command(_cmd_verify, "check the defining identity and stability conditions", (
        Arg("realization", "realization document (optionally with stability)"),
    )),
    "convert": Command(_cmd_convert, "convert a parameter bundle to another parameterization", (
        Arg("bundle", "parameter bundle document"),
        _PLANT,
        Arg("factors", "coprime factors document (for Youla conversions)", "--factors",
            required=False),
        Arg("target", "target parameterization", "--to", option=True, choices=tuple(REGISTRY)),
        _OUT,
    )),
    "synthesize": Command(_cmd_synthesize, "FIR H2 state-feedback synthesis", (
        _PLANT,
        Arg("weights", "weights document (default: identity)", "--weights", required=False),
        Arg("horizon", "number of FIR taps", "--horizon", option=True, type=int,
            least=1),
        _OUT,
    )),
    "certify": Command(_cmd_certify, "certify a closed-loop realization variant", (
        _FIR, _PLANT, _VARIANT,
    )),
    "simulate": Command(_cmd_simulate, "simulate a realization variant in the time domain", (
        _FIR,
        _PLANT,
        Arg("disturbance", "disturbance document (default: impulse on x[0])", "--disturbance",
            required=False),
        _VARIANT,
        Arg("horizon", "number of time steps", "--horizon", option=True, type=int,
            least=0),
        _OUT,
    )),
    "factorize": Command(_cmd_factorize, "doubly coprime factorization of a plant", (
        _PLANT,
        Arg("gains", "gains document with F and L (default: LQR gains)", "--gains",
            required=False),
        _OUT,
    )),
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job and return (exit_code, report document).

    An unknown command, a missing or mistyped input or option, an input or
    option the command does not take, an option value outside its choices,
    or an integer option below its least value is a parse error, found
    before the handler runs.  So is an output document that cannot be
    written.
    """
    try:
        if job.command not in _COMMANDS:
            raise SchemaError(f"unknown command {job.command!r}")
        command = _COMMANDS[job.command]
        given = {False: job.inputs, True: job.options}
        missing = [f"{_KINDS[a.option]} {a.name!r}" for a in command.args
                   if a.required and a.name not in given[a.option]]
        if missing:
            raise SchemaError(f"{job.command} is missing {', '.join(missing)}")
        takes = {(a.option, a.name) for a in command.args}
        unknown = [f"{_KINDS[option]} {name!r}" for option, names in given.items()
                   for name in names if (option, name) not in takes]
        if unknown:
            raise SchemaError(f"{job.command} does not take {', '.join(unknown)}")
        for a in command.args:
            if a.name in given[a.option]:
                a.check(given[a.option][a.name])
        passed, findings, details, doc = command.handler(job)
        if doc is not None:
            serialize.dump_document(doc, job.options["out"])
            details["out"] = str(job.options["out"])
        return _report(job.command, EXIT_PASS if passed else EXIT_CHECK_FAILED, findings, details)
    except ToolkitError as exc:
        code = next((c for kind, c in _ERROR_EXITS if isinstance(exc, kind)), EXIT_CHECK_FAILED)
        cause = getattr(exc, "report", None)
        return _report(job.command, code, cause.findings if cause else (), {"error": str(exc)})


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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for a in command.args:
            flagged = {} if a.flag is None else {"dest": a.name, "required": a.required}
            p.add_argument(a.flag or a.name, help=a.help, type=a.type,
                           choices=a.choices or None, **flagged)
        p.add_argument("--report", help="write a machine-readable report here")
    return parser


def main(argv=None) -> None:
    args = vars(_parser().parse_args(argv))
    given = {False: {}, True: {}}
    for a in _COMMANDS[args["command"]].args:
        if args[a.name] is not None:
            given[a.option][a.name] = args[a.name]
    code, report = run(JobSpec(args["command"], given[False], given[True]))
    _print_report(report)
    if args["report"]:
        try:
            serialize.dump_document(report, args["report"])
        except SchemaError as exc:
            print(f"rstab: {exc}", file=sys.stderr)
            code = EXIT_PARSE
    sys.exit(code)


if __name__ == "__main__":
    main()
