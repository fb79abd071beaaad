"""Inputs at the interpreter's limits, refused at the document boundary.

Each is a parse error (exit 2) of ``cli.run`` that writes nothing: a
document nested deeper than the JSON parser allows, a quoted decimal whose
exponent exceeds ``sys.get_int_max_str_digits()``, and an output coefficient
with more digits than that limit.  Both bounds read the interpreter's limit,
so these tests hold under any limit of at least 640 digits, the least that
``PYTHONINTMAXSTRDIGITS`` accepts.
"""

import json
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from rstab import JobSpec, run
from rstab import serialize

LIMIT = sys.get_int_max_str_digits()


def plant_path(tmp_path, a, b=(("1",),), c=(("1",),)) -> str:
    doc = {"schema_version": 1, "kind": "plant", "A": a, "B": b, "C": c, "D": [["0"]]}
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def refused(job: JobSpec, error: str) -> None:
    """``job`` exits 2 with ``error`` and writes no output document."""
    code, report = run(job)
    assert (code, report["details"]["error"]) == (2, error)
    assert not Path(job.options["out"]).exists()


@pytest.mark.parametrize("command", ["verify", "synthesize"])
def test_a_document_nested_deeper_than_the_parser_allows_exits_two(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    if command == "verify":
        job = JobSpec("verify", {"realization": str(path)})
    else:
        job = JobSpec("synthesize", {"plant": str(path)},
                      {"horizon": 1, "out": str(tmp_path / "fir.json")})
    code, report = run(job)
    assert code == 2
    assert report["details"]["error"].startswith(f"{path} is not valid JSON: maximum recursion")
    assert not (tmp_path / "fir.json").exists()


@pytest.mark.parametrize("text", ["1e-9999999", "-1E9999999", " 1e9_999_999 ", f"1e-{LIMIT + 1}",
                                  f"2.5e+{LIMIT + 1}"])
def test_a_decimal_with_an_exponent_beyond_the_digit_limit_exits_two_at_once(tmp_path, text):
    job = JobSpec("synthesize", {"plant": plant_path(tmp_path, [[text]])},
                  {"horizon": 1, "out": str(tmp_path / "fir.json")})
    start = time.perf_counter()
    refused(job, f"malformed plant document: the exponent of {text!r} exceeds {LIMIT}, "
                 "the limit of sys.get_int_max_str_digits()")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", ["1e-300", f"1e-{LIMIT // 2}"])
def test_a_decimal_within_the_digit_limit_reads_exactly(tmp_path, text):
    outputs = []
    for name, value in (("decimal", text), ("canonical", str(F(text)))):
        (tmp_path / name).mkdir()
        path = plant_path(tmp_path / name, [[value]])
        assert serialize.plant_from_doc(serialize.load_document(path)).A[0, 0] == F(text)
        out = tmp_path / name / "fir.json"
        assert run(JobSpec("synthesize", {"plant": path}, {"horizon": 1, "out": str(out)}))[0] == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


#: a decimal of two thirds of the digit limit: it reads, and its square does not fit
SHORT_ENOUGH = "0." + "5" * (LIMIT * 2 // 3)

TOO_LONG = (f"cannot write a coefficient of more than {LIMIT} digits, "
            "the limit of sys.get_int_max_str_digits()")


def test_synthesize_refuses_a_tap_too_long_to_write(tmp_path):
    path = plant_path(tmp_path, [[SHORT_ENOUGH]])
    out = tmp_path / "fir.json"
    # one tap holds A's entry, which fits; the second tap holds its square
    assert run(JobSpec("synthesize", {"plant": path}, {"horizon": 1, "out": str(out)}))[0] == 0
    out.unlink()
    refused(JobSpec("synthesize", {"plant": path}, {"horizon": 2, "out": str(out)}), TOO_LONG)


def test_factorize_refuses_a_factor_too_long_to_write(tmp_path):
    # a Jordan block: the factors' denominators hold the square of its eigenvalue
    path = plant_path(tmp_path, [[SHORT_ENOUGH, "1"], ["0", SHORT_ENOUGH]],
                      b=[["0"], ["1"]], c=[["1", "0"]])
    refused(JobSpec("factorize", {"plant": path}, {"out": str(tmp_path / "factors.json")}),
            TOO_LONG)
