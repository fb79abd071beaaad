"""The one scalar rule at the document boundary, checked against Fraction.

``ratfun._as_pair`` reads the canonical "p/q" that rstab writes with int()
and hands every other value to ``fractions.Fraction``; the writers produce
``str(Fraction)`` from Poly's integer form.  Fraction is the oracle for both,
so the document reader and writer are checked only here and by the round
trips of the document tests.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rstab import JobSpec, PlantSS, Poly, RatFun, Realization, SignalSpace, TFMatrix, run
from rstab import serialize
from rstab.ratfun import _as_pair

#: canonical strings, strings that only Fraction reads, and strings it refuses
TABLE = ["3/4", "-0/5", "007/010", " 3/4", "+3", "3_0", "1.5", "1e3", "3/-4", "3/0",
         "3/", "", "٣/4", "nan"]

SPACE = SignalSpace.make(y=1, u=1)


def fraction_reading(value):
    """(Fraction(value), None), or (None, the error Fraction raises)."""
    try:
        return F(value), None
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return None, exc


def assert_reads_as_fraction(value):
    want, error = fraction_reading(value)
    if error is None:
        assert _as_pair(value) == (want.numerator, want.denominator)
        return
    with pytest.raises(type(error)) as got:
        _as_pair(value)
    assert str(got.value) == str(error)


@pytest.mark.parametrize("text", TABLE)
def test_the_reader_accepts_and_refuses_a_string_as_fraction_does(text):
    assert_reads_as_fraction(text)


@given(st.text(alphabet="0123456789-+/ ._e٣", max_size=8))
def test_the_reader_agrees_with_fraction_on_random_strings(text):
    assert_reads_as_fraction(text)


@given(st.one_of(st.integers(), st.fractions()))
def test_ints_and_fractions_pass_straight_through(value):
    assert _as_pair(value) == (value.numerator, value.denominator)


def report_and_output(job: JobSpec):
    """The exit code and report of ``job``, with the document it wrote."""
    code, report = run(job)
    out = job.options.get("out")
    return code, report, (serialize.load_document(out) if out and code == 0 else None)


def verify_job(tmp_path, coeff) -> JobSpec:
    """verify on R[y, u] = ``coeff``, written as the document's one coefficient."""
    doc = serialize.realization_to_doc(Realization(SPACE, TFMatrix.zeros(SPACE, SPACE)))
    doc["entries"][0][1] = {"num": [coeff], "den": ["1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    return JobSpec("verify", {"realization": str(path)})


def synthesize_job(tmp_path, entry) -> JobSpec:
    """synthesize at horizon 1 on x+ = a x + u with a = ``entry``."""
    doc = serialize.plant_to_doc(PlantSS.state_feedback([[0]], [[1]]))
    doc["A"][0][0] = entry
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    return JobSpec("synthesize", {"plant": str(path)},
                   {"horizon": 1, "out": str(tmp_path / "fir.json")})


@pytest.mark.parametrize("text", TABLE)
@pytest.mark.parametrize("job, document", [(verify_job, "rational function document"),
                                           (synthesize_job, "plant document")],
                         ids=["ratfun", "real_matrix"])
def test_cli_reads_a_string_as_fraction_does(tmp_path, text, job, document):
    want, error = fraction_reading(text)
    code, report, out = report_and_output(job(tmp_path, text))
    if error is None:
        assert (code, report, out) == report_and_output(job(tmp_path, str(want)))
    else:
        assert code == 2
        assert report["details"]["error"] == f"malformed {document}: {error}"


@given(st.lists(st.fractions(), max_size=6))
def test_a_poly_read_from_strings_equals_the_poly_of_its_fractions(cs):
    assert Poly([str(c) for c in cs]) == Poly(cs)


ratfuns = st.builds(
    RatFun,
    st.lists(st.fractions(max_denominator=10**6), max_size=5),
    st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=5).filter(any),
)


@given(ratfuns)
@example(RatFun(0))
@example(RatFun([F(-3, 4), -6], [2, 4]))
def test_the_writer_writes_each_coefficient_as_str_of_its_fraction(r):
    assert serialize.ratfun_to_doc(r) == {"num": [str(c) for c in r.num.coeffs],
                                          "den": [str(c) for c in r.den.coeffs]}


@given(st.fractions())
def test_a_scalar_is_written_as_str_of_its_fraction(c):
    assert serialize.scalar_str(c) == str(c)
    assert serialize.real_matrix_to_doc([[c, -c]]) == [[str(c), str(-c)]]


#: JSON numbers and the exact values they are written as
DECIMALS = {"1.2": F(6, 5), "0.7": F(7, 10), "-2.5e-3": F(-1, 400), "1E2": 100, "3": 3,
            "-0.0": 0, "123456789.123456789": F(123456789123456789, 10**9)}


def plant_text(values, quoted: bool) -> str:
    """A 2-state plant document with ``values`` in A, B and D, as JSON strings or numbers."""
    a, b, c, d, e, f, g = values
    doc = {"schema_version": 1, "kind": "plant", "A": [[a, b], [c, d]], "B": [[e], [f]],
           "C": [["1", "0"], ["0", "1"]], "D": [[g], ["0"]]}
    text = json.dumps(doc)
    if not quoted:
        for v in values:
            text = text.replace(f'"{v}"', v)
    return text


def test_json_numbers_read_as_the_decimals_they_are_written_as(tmp_path):
    plants = []
    for quoted in (True, False):
        path = tmp_path / f"plant_{quoted}.json"
        path.write_text(plant_text(list(DECIMALS), quoted))
        doc = serialize.load_document(path)
        plants.append(serialize.plant_from_doc(doc))
    assert doc["A"][0][0] == F(6, 5)
    for name in "ABCD":
        assert (getattr(plants[0], name) == getattr(plants[1], name)).all()
    assert [v for m in (plants[1].A, plants[1].B) for v in m.flat] + [plants[1].D[0, 0]] \
        == list(DECIMALS.values())


@pytest.mark.parametrize("number, reads_as", [("1e400", None), ("NaN", None), ("Infinity", None),
                                              ("-Infinity", None), ("1e-400", 0)])
def test_a_json_number_beyond_the_double_range(tmp_path, number, reads_as):
    # refused when its double reading is not finite; below the range, read
    # as that double (0); quoted, the decimal is read exactly
    path = tmp_path / "plant.json"
    path.write_text(plant_text(["0", "1", "0", "0", "0", "1", number], quoted=False))
    doc = serialize.load_document(path)
    if reads_as is None:
        with pytest.raises(serialize.SchemaError, match="malformed plant document"):
            serialize.plant_from_doc(doc)
    else:
        assert serialize.plant_from_doc(doc).D[0, 0] == reads_as
    if number[-1].isdigit():
        quoted = serialize.plant_from_doc(json.loads(plant_text(
            ["0", "1", "0", "0", "0", "1", number], quoted=True)))
        assert quoted.D[0, 0] == F(number)


@pytest.mark.parametrize("number", ["1" * 5000, "0." + "1" * 5000], ids=["integer", "decimal"])
def test_a_json_number_beyond_the_int_digit_limit_is_a_parse_error(tmp_path, number):
    path = tmp_path / "plant.json"
    path.write_text(plant_text(["0", "1", "0", "0", "0", "1", number], quoted=False))
    with pytest.raises(serialize.SchemaError, match="plant.json is not valid JSON"):
        serialize.load_document(path)
