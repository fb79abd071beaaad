"""Floats read straight from the integer form of exact values.

``RatFun._series_pairs`` gives each Markov parameter as an integer pair;
``impulse_match`` divides each entry of its exact Markov parameters
(``sls._markov_parameters``) by their common denominator as ints, and
``sls._wired_coefficients`` writes the recursion's coefficients straight from
A, B and the wired taps, each rounded once.  All must give, bit for bit
(signed zeros included), the float that ``float`` of the exact ``Fraction``
gives, and must refuse the same values as beyond the float range.  The
oracles are ``RatFun.series`` and the coefficients of the normalized R of
``build_realization``, read through ``Poly.__getitem__`` and cast by numpy,
and ``impulse_match`` is compared with the same deviation computed from the
casts of the series of ``closed_form_stability``: the same float, or the
same error first.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rstab import (
    FIRPhi,
    PlantSS,
    Poly,
    RatFun,
    RealizationVariant,
    build_realization,
    closed_form_stability,
    impulse_match,
)
from helpers import det_cofactor
from rstab.errors import InvariantViolation, SingularMatrixError, ToolkitError
from rstab.sls import (
    DESIGN_SEPARATION,
    VARIANT_KINDS,
    VARIANT_PARTS,
    _respond,
    _wired_coefficients,
    part_shape,
)

HUGE = 10 ** 400
OVERFLOW = "the loop's realization matrix R has an entry that does not fit a float"
SINGULAR = (r"the loop's instantaneous map C\[0\] is singular "
            r"\(for the FIR variants: the leading wired tap P\[1\]\)")


def signed(magnitudes):
    return st.builds(lambda sign, x: sign * x, st.sampled_from([-1, 1]), magnitudes)


#: small, zero and wide rationals of either sign
plain = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.just(F(0)),
    st.fractions(min_value=-10**20, max_value=10**20, max_denominator=10**20),
)
#: huge (around and beyond the float range) and tiny (around and below the
#: least subnormal) rationals of either sign
extreme = st.one_of(
    signed(st.builds(lambda k, e: F(k * 10 ** e), st.integers(1, 10**6), st.integers(300, 400))),
    signed(st.builds(lambda k, e: F(k, 10 ** e), st.integers(1, 10**6), st.integers(300, 400))),
)
coeffs = st.one_of(plain, extreme)


@st.composite
def proper_ratfuns(draw) -> RatFun:
    den = draw(st.lists(coeffs, min_size=1, max_size=4).map(Poly).filter(bool))
    num = draw(st.lists(coeffs, max_size=den.degree + 1))
    return RatFun(Poly(num), den)


def cast(divide) -> str:
    """The float of ``divide()`` in hex, which tells -0.0 from 0.0, or
    "overflow"."""
    try:
        return divide().hex()
    except OverflowError:
        return "overflow"


class TestSeriesPairs:
    @given(proper_ratfuns(), st.integers(min_value=0, max_value=8))
    @example(RatFun(F(-1, HUGE), [0, 1]), 2)  # 0.0, then -0.0
    @example(RatFun(HUGE, [F(1, 2), 1]), 2)  # every h_k from h_1 on overflows
    @example(RatFun([1, 1], [F(1, HUGE), 0, 1]), 6)  # h_k underflows from lag 3 on
    def test_the_int_quotients_are_the_floats_of_the_series(self, r, n):
        pairs = r._series_pairs(n)
        series = r.series(n)
        assert all(b > 0 for _, b in pairs)
        assert [F(a, b) for a, b in pairs] == series
        assert ([cast(lambda: a / b) for a, b in pairs]
                == [cast(lambda: float(h)) for h in series])

    def test_signed_zero_and_overflow(self):
        assert [cast(lambda: a / b) for a, b in RatFun(F(-1, HUGE), [0, 1])._series_pairs(1)] == [
            "0x0.0p+0", "-0x0.0p+0"]
        assert [cast(lambda: a / b) for a, b in RatFun(-HUGE, [0, 1])._series_pairs(1)] == [
            "0x0.0p+0", "overflow"]

    def test_an_improper_function_or_a_negative_length_is_refused_as_by_series(self):
        with pytest.raises(ToolkitError, match="requires a proper rational function"):
            RatFun([0, 0, 1], [1, 1])._series_pairs(3)
        with pytest.raises(ValueError, match="nonnegative"):
            RatFun(1, [1, 1])._series_pairs(-1)


def reference_coefficients(r) -> tuple[list[int], np.ndarray]:
    """The coefficients C[k] of row i of (I - R) z^{-s_i} as exact
    ``Fraction``s from ``Poly.__getitem__``, in an object array."""
    rows = r.R.entries
    size = len(rows)
    shifts = [max([0] + [e.num.degree - e.den.degree for e in row if e]) for row in rows]
    lags = max(e.den.degree + s for row, s in zip(rows, shifts) for e in row)
    c = np.zeros((lags + 1, size, size), dtype=object)
    for i, (row, s) in enumerate(zip(rows, shifts)):
        c[s, i, i] = F(1)
        for j, e in enumerate(row):
            top = e.den.degree + s
            for k in range(top + 1):
                c[k, i, j] -= e.num[top - k]
    return shifts, c


@st.composite
def variants(draw) -> tuple[RealizationVariant, PlantSS]:
    """A random plant and a variant of random FIR parts, with at most one
    huge or tiny entry among them.  The taps are drawn freely, so they are
    mostly inconsistent (corrupted) pairs; each part may end in all-zero
    taps, which shortens the loop's lags, and one part's leading tap may
    start with a zero row, which makes a wired P[1] singular."""
    n, m, horizon = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(VARIANT_KINDS))
    # A, B, then the taps of each part, as nested lists
    shapes = [(n, n), (n, m)] + [part_shape(name, n, m) for name in VARIANT_PARTS[kind]
                                 for _ in range(horizon)]
    mats = [[[draw(plain) for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(mats) - 1))
        i, j = draw(st.integers(0, len(mats[k]) - 1)), draw(st.integers(0, len(mats[k][0]) - 1))
        mats[k][i][j] = draw(extreme)
    for p in range(len(VARIANT_PARTS[kind])):
        first = 2 + p * horizon
        for k in range(first + horizon - draw(st.integers(0, horizon)), first + horizon):
            mats[k] = [[F(0)] * len(row) for row in mats[k]]
    if draw(st.booleans()):
        first = 2 + draw(st.integers(0, len(VARIANT_PARTS[kind]) - 1)) * horizon
        mats[first][0] = [F(0)] * len(mats[first][0])
    plant = PlantSS.state_feedback(mats[0], mats[1])
    parts = {name: FIRPhi(tuple(mats[2 + p * horizon:2 + (p + 1) * horizon]))
             for p, name in enumerate(VARIANT_PARTS[kind])}
    return RealizationVariant(kind, **parts), plant


def outcome(call) -> tuple:
    """What ``call()`` returned, or the type and message of what it raised."""
    try:
        return ("returned", repr(call()))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))


def reference_impulse_match(v: RealizationVariant, plant: PlantSS, horizon: int) -> float:
    """``impulse_match``'s max_deviation with its Markov parameters cast by
    numpy from ``RatFun.series``.

    A design-separation payload with a singular P_c[1] is refused first, as
    the recursion of ``_respond`` refuses it: its Delta_c is then singular
    or has an improper inverse, so the closed form has no series.
    """
    if v.kind == DESIGN_SEPARATION and det_cofactor([[RatFun(c) for c in row]
                                                     for row in v.p_c.taps[0]]).is_zero:
        raise SingularMatrixError("the loop's instantaneous map C[0] is singular "
                                  "(for the FIR variants: the leading wired tap P[1])")
    s_ref = closed_form_stability(v, plant)
    size = s_ref.rows.total
    try:
        want = np.array([[s_ref.entries[i][j].series(horizon) for i in range(size)]
                         for j in range(size)], dtype=float)
    except OverflowError as exc:
        raise InvariantViolation("a Markov parameter of the closed-form stability matrix "
                                 "has an entry that does not fit a float") from exc
    impulse = np.zeros((horizon + 1, size, size))
    impulse[0] = np.eye(size)
    got = _respond(v, plant, impulse).transpose(2, 1, 0)
    with np.errstate(over="ignore"):
        return float(np.abs(got - want).max())


def loop(kind: str, b, *taps) -> tuple[RealizationVariant, PlantSS]:
    """The scalar plant x+ = 2 x + b u and a variant of the given taps (the
    control parts' taps scaled by 3)."""
    parts = {name: FIRPhi(tuple([[t * (3 if name in ("phi_u", "m_c") else 1)]] for t in taps))
             for name in VARIANT_PARTS[kind]}
    return RealizationVariant(kind, **parts), PlantSS.state_feedback([[2]], [[b]])


class TestLoopCoefficients:
    @given(variants())
    # taps past lag 2 of 5 all zero: one lag past C[0], as R's entries span
    @example(loop("original_sls", 1, F(1, 3), F(1, 5), 0, 0, 0))
    @example(loop("deployment", 1, F(1, 3), F(1, 5), 0, 0, 0))
    @example(loop("design_separation", 1, F(1, 3), F(1, 5), 0, 0, 0))
    # B = 10^400 in C[1] (twice for deployment), M = 3 10^400 in C[0]
    @example(loop("deployment", HUGE, 1))
    @example(loop("design_separation", 1, HUGE))
    def test_the_coefficients_are_the_floats_of_the_exact_ones(self, variant):
        # the oracle reads the normalized R, the code reads the taps
        shifts, exact = reference_coefficients(build_realization(*variant))
        try:
            want = np.array(exact, dtype=float)
        except OverflowError:
            with pytest.raises(InvariantViolation, match=f"^{OVERFLOW}$"):
                _wired_coefficients(*variant)
            return
        got_shifts, got = _wired_coefficients(*variant)
        assert got_shifts == shifts
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_a_tiny_entry_gives_a_signed_zero(self):
        # R[x, x] = A + (1 - z), so C[1] = -A: -0.0 for A = 10^-400, 0.0 for A = 0
        phi = FIRPhi(([[1]],))
        v = RealizationVariant.original(phi, phi)
        _, got = _wired_coefficients(v, PlantSS.state_feedback([[F(1, HUGE)]], [[1]]))
        assert got[1, 0, 0] == 0.0 and np.signbit(got[1, 0, 0])
        assert got[0, 0, 0] == 1.0
        _, got = _wired_coefficients(v, PlantSS.state_feedback([[0]], [[1]]))
        assert got[1, 0, 0] == 0.0 and not np.signbit(got[1, 0, 0])

    @pytest.mark.parametrize("kind", [k for k in VARIANT_KINDS if k != "deployment"])
    def test_a_singular_leading_wired_tap_is_refused(self, kind):
        # C[0][delta, delta] = P[1] = 0
        zero, phi = FIRPhi(([[0]], [[1]])), FIRPhi(([[1]],))
        v = RealizationVariant(kind, **{name: zero if name == VARIANT_PARTS[kind][-2] else phi
                                        for name in VARIANT_PARTS[kind]})
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        with pytest.raises(SingularMatrixError, match=f"^{SINGULAR}$"):
            _respond(v, plant, np.zeros((3, 3, 1)))


class TestImpulseMatch:
    @given(variants(), st.integers(min_value=0, max_value=4))
    def test_the_deviation_is_the_one_of_the_fraction_casts(self, variant, horizon):
        # the same float, or the same refusal
        got = outcome(lambda: impulse_match(*variant, horizon).max_deviation)
        assert got == outcome(lambda: reference_impulse_match(*variant, horizon))
