"""The exact stability verdict, ``RatFun.is_stable``, against oracles that
share no code with it: denominators built from planted linear and quadratic
factors whose root moduli are known exactly, so a function is stable when
every planted modulus is below rho = 1 - DEFAULT_TOL (the double, read
exactly).  The integer Schur-Cohn recursion behind the verdict is compared
with the same recursion over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rstab import DEFAULT_TOL, Poly, RatFun, Realization, SignalSpace, TFMatrix
from rstab import ratfun
from rstab.realization import check_conditions, stability_from_realization

RHO = F(1.0 - DEFAULT_TOL)
TINY = F(1, 2**60)


def linear(a: F) -> Poly:
    """z - a: one root, of modulus |a|."""
    return Poly([-a, 1])


def quadratic(m: F, t: F) -> Poly:
    """z^2 - 2 m t z + m^2 for m > 0 and |t| < 1: two conjugate roots
    m (t +- i sqrt(1 - t^2)), both of modulus m."""
    assert m > 0 and abs(t) < 1
    return Poly([m * m, -2 * m * t, 1])


def product(factors) -> Poly:
    out = Poly.one()
    for p in factors:
        out = out * p
    return out


def stable(den: Poly) -> bool:
    return RatFun(1, den).is_stable()


#: moduli below rho, and moduli on or past it, the closest 2^-60 away; the
#: rows of the recursion grow with the coefficients' width times the degree,
#: so high multiplicities take the narrow ``near``
near = st.fractions(min_value=-1, max_value=1, max_denominator=1000).filter(
    lambda a: abs(a) < RHO)
inside = near | st.sampled_from([RHO * (1 - TINY), -RHO * (1 - TINY)])
outside = (st.fractions(min_value=1, max_value=3, max_denominator=1000)
           | st.sampled_from([RHO, RHO * (1 + TINY)]))
#: the cosine t of the angle of a planted pair of complex roots
cosines = st.fractions(min_value=F(-99, 100), max_value=F(99, 100), max_denominator=100)


class TestPlantedFactors:
    @given(near, st.integers(1, 40))
    def test_a_repeated_root_inside_is_stable(self, a, k):
        assert stable(product([linear(a)] * k))

    @pytest.mark.parametrize("k", [8, 12, 16, 40])
    def test_a_pole_of_high_multiplicity_near_the_circle(self, k):
        # np.roots reads the largest modulus of these as 1.0077, 1.086 and 1.223
        assert stable(product([linear(F(99, 100))] * k))

    def test_forty_poles_at_seven_tenths(self):
        assert stable(product([linear(F(7, 10))] * 40))

    @given(outside, st.integers(1, 6), st.booleans())
    def test_a_root_on_or_past_the_margin_is_unstable(self, a, k, negative):
        assert not stable(product([linear(-a if negative else a)] * k))

    @given(inside.map(abs).filter(bool), cosines, st.integers(1, 3))
    def test_complex_roots_inside(self, m, t, k):
        assert stable(product([quadratic(m, t)] * k))

    @given(outside, cosines)
    def test_complex_roots_on_or_past_the_margin(self, m, t):
        assert not stable(quadratic(m, t))

    @given(st.lists(inside | outside, max_size=3),
           st.lists(st.tuples(inside.map(abs).filter(bool) | outside, cosines), max_size=2),
           st.integers(0, 2))
    def test_products_of_planted_factors(self, roots, pairs, zeros):
        den = product([Poly.z(zeros), *map(linear, roots), *(quadratic(m, t) for m, t in pairs)])
        expected = all(abs(a) < RHO for a in roots) and all(m < RHO for m, _ in pairs)
        assert stable(den) == expected

    @pytest.mark.parametrize("pole, expected", [
        (RHO, False),
        (F(1), False),
        (RHO * (1 + TINY), False),
        (RHO * (1 - TINY), True),
        (-RHO, False),
        (-RHO * (1 - TINY), True),
    ])
    def test_the_margin_is_exact(self, pole, expected):
        assert stable(linear(pole)) is expected
        assert stable(product([linear(pole)] * 3 + [Poly.z(2)])) is expected
        assert stable(quadratic(abs(pole), F(1, 3))) is expected

    def test_poles_at_zero_and_improper_functions(self):
        assert RatFun(1, Poly.z(5)).is_stable()
        assert RatFun.one().is_stable()
        assert not RatFun([0, 0, 1], [F(1, 2), 1]).is_stable()


def fraction_schur_cohn(coeffs) -> bool:
    """The Schur-Cohn recursion over Fraction, each row made monic."""
    a = [F(c) for c in coeffs]
    while len(a) > 1:
        if abs(a[0]) >= abs(a[-1]):
            return False
        n = len(a) - 1
        a = [a[-1] * a[k] - a[0] * a[n - k] for k in range(1, n + 1)]
        a = [v / a[-1] for v in a]
    return True


#: integer polynomials with a positive lead, most of which fail early, and
#: primitive products of planted roots inside the circle, which pass
integer_polys = st.tuples(st.lists(st.integers(-50, 50), min_size=0, max_size=8),
                          st.integers(1, 60)).map(lambda p: [*p[0], p[1]])
planted_polys = st.lists(inside, min_size=1, max_size=6).map(
    lambda roots: list(product(map(linear, roots))._p))


class TestRecursion:
    @given(integer_polys | planted_polys)
    def test_integer_recursion_matches_the_fraction_recursion(self, coeffs):
        assert ratfun._schur_cohn(coeffs) == fraction_schur_cohn(coeffs)

    @given(planted_polys)
    def test_roots_inside_the_circle_pass(self, coeffs):
        assert ratfun._schur_cohn(coeffs)


class TestNoFloatVerdict:
    def test_verdicts_do_not_read_np_roots(self):
        def refuse(*args):
            raise AssertionError("a verdict read the float poles")

        with mock.patch.object(ratfun.np, "roots", refuse), \
                mock.patch.object(RatFun, "poles", refuse):
            assert stable(product([linear(F(1, 2))] * 3))
            assert not stable(linear(F(3, 2)))
            assert not stable(quadratic(F(1), F(0)))
            assert stable(quadratic(F(1, 2), F(1, 2)) * linear(F(-1, 3)))
            space = SignalSpace.make(x=1, u=1)
            r = Realization(space, TFMatrix(space, space, [[F(1, 2), RatFun(1, [0, 1])],
                                                           [F(1, 4), 0]]))
            assert check_conditions(r, stability_from_realization(r)).passed
