import math
import operator
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstab import FIRPhi, PlantSS, Poly, RatFun, SignalSpace, TFMatrix, poly_gcd, ratfun
from rstab.errors import ToolkitError

from helpers import (
    conv_truncated,
    reference_add,
    reference_divmod,
    reference_gcd,
    reference_monic,
    reference_ratfun,
    reference_scale,
    trimmed,
)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.lists(fractions, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuns = st.builds(RatFun, polys, nonzero_polys)
proper_ratfuns = ratfuns.filter(lambda r: r.is_proper)
#: divisors with wider coefficients, so most are non-monic and leave a remainder
divisors = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                    min_size=1, max_size=4).map(Poly).filter(bool)

#: a large prime, 2^31 - 1, used as a leading coefficient of planted factors
P = (1 << 31) - 1


def rf(num, den=1):
    return RatFun(num, den)


class TestPolyGcd:
    def test_common_factor(self):
        assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])

    def test_gcd_with_zero(self):
        assert poly_gcd(Poly([0, 1]), Poly.zero()) == Poly([0, 1])
        assert poly_gcd(Poly.zero(), Poly([0, 3])) == Poly([0, 1])

    def test_coprime_by_hand(self):
        # Euclid: z^2+1 = (z+1)(z-1) + 2, so the gcd is constant
        assert poly_gcd(Poly([1, 0, 1]), Poly([1, 1])) == Poly.one()

    @given(polys, nonzero_polys, nonzero_polys)
    def test_divides_both(self, a, b, g):
        d = poly_gcd(a * g, b * g)
        assert (a * g) % d == Poly.zero()
        assert (b * g) % d == Poly.zero()
        # the planted factor divides the gcd
        assert d % poly_gcd(g, d) == Poly.zero()
        if not (a * g).is_zero:
            assert d.lc == 1


class TestPolyDivmod:
    @pytest.mark.parametrize("a, b", [
        (Poly([1, 2, 3, 4]), Poly([F(2, 3), F(-5, 7)])),  # non-monic, inexact steps
        (Poly([F(1, 2), 0, 3]), Poly([F(-3, 2)])),  # constant divisor
        (Poly([1, 0, 1]), Poly([1, 1])),  # does not divide
        (Poly([1, 1]), Poly([0, 0, 5])),  # divisor of higher degree
        (Poly(()), Poly([3, 2])),
    ], ids=["non_monic", "constant", "non_dividing", "higher_degree", "zero_dividend"])
    def test_examples_match_the_reference(self, a, b):
        q, r = divmod(a, b)
        assert (q.coeffs, r.coeffs) == reference_divmod(a.coeffs, b.coeffs)

    @given(polys, divisors)
    def test_matches_the_reference(self, a, b):
        q, r = divmod(a, b)
        assert (q.coeffs, r.coeffs) == reference_divmod(a.coeffs, b.coeffs)

    @given(polys, divisors)
    def test_exact_division_by_a_factor(self, a, g):
        q, r = divmod(a * g, g)
        assert q == a and r.is_zero

    @given(polys, divisors)
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1, 1]), Poly.zero())


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_monic_gcd(sympy, a: Poly, b: Poly) -> Poly:
    z = sympy.Symbol("z")
    pa, pb = (sympy.Poly(list(reversed(p.coeffs)), z, domain="QQ") for p in (a, b))
    g = sympy.gcd(pa, pb).monic()
    return Poly(F(int(c.p), int(c.q)) for c in reversed(g.all_coeffs()))


def planted(u: Poly, lead) -> Poly:
    """u + lead * z^(deg u + 1), a polynomial whose leading coefficient is ``lead``."""
    return Poly(list(u.coeffs) + [lead])


#: (z + 5)(z + 1) and (z + 5)(z + 1 + F) with F = (2^35 + 1) / 3: at the
#: evaluation point k = 2^35 their values are 3F(k + 5) and 4F(k + 5), so the
#: integer gcd F(k + 5) carries digits beyond 2^(s-1), the candidate it spells
#: divides neither, and poly_gcd falls back to the remainder sequence
SPILL_A = [5, 6, 1]
SPILL_B = [57266230620, 11453246129, 1]

#: the primitive parts of a gcd input met by the convert_matrix benchmark
#: workload, seed 1: FALLBACK_B is divisible by z^3 and the constant term of
#: FALLBACK_A by 2^107, so unless z^3 is split off first, the integer gcd at
#: the evaluation point reads a spurious factor and the pair falls back
FALLBACK_A = [
    -9952916674686742789738052823927641913208017518592,
    109885718070449735151072923085565280124734189600768,
    -257696951007319931445676672014469331862784244187136,
    74576798888521278831909067728167016788808506352297,
    173514529822287241880857422658870646644421456560128,
]
FALLBACK_B = [
    0,
    0,
    0,
    46451168722058970042703575870841,
    -736663816960858052547001171574784,
    2920666982925840541048404185186304,
]


#: one pair for each path of the gcd: the coprime certificate, reconstruction
#: from the integer gcd at one point, and the remainder sequence
PATH_PAIRS = [
    (Poly([1, 0, 1]) * Poly([1, P]), Poly([2, 1]) * Poly([-3, 0, 1]), "certificate"),
    (Poly([1, 1]) * Poly([1, P]), Poly([2, 1]) * Poly([1, P]), "reconstruction"),
    (Poly(SPILL_A), Poly(SPILL_B), "prs"),
]
PATH_IDS = ["coprime", "planted", "spilled_digits"]


def spied_paths(monkeypatch) -> list[str]:
    """A list that records each call of ``_digits`` (reconstruction) and of
    ``_primitive`` (the remainder sequence) from now on."""
    ran = []
    for name in ("_digits", "_primitive"):
        def spy(*args, _f=getattr(ratfun, name), _name=name):
            ran.append(_name)
            return _f(*args)
        monkeypatch.setattr(ratfun, name, spy)
    return ran


class TestPolyGcdOracle:
    """poly_gcd against SymPy on planted-factor pairs, and the path each kind
    of pair takes: the coprime certificate at one point, reconstruction of
    the gcd from that point's integer gcd, or the primitive remainder
    sequence.  Leads that are multiples of P give the gcd and its cofactors
    large leading coefficients, which reconstruction has to recover exactly."""

    @settings(max_examples=60)
    @given(polys, polys, polys, st.sampled_from([1, P, -2 * P]), st.sampled_from([1, P]))
    def test_matches_sympy(self, sympy, u, v, g, g_lead, u_lead):
        g = planted(g, g_lead)
        a, b = planted(u, u_lead) * g, planted(v, 1) * g
        assert poly_gcd(a, b) == sympy_monic_gcd(sympy, a, b)

    @pytest.mark.parametrize("a, b, path", PATH_PAIRS, ids=PATH_IDS)
    def test_each_path(self, sympy, monkeypatch, a, b, path):
        ran = spied_paths(monkeypatch)
        g = poly_gcd(a, b)
        assert g == sympy_monic_gcd(sympy, a, b)
        assert (g.degree > 0) == (path != "certificate")
        if path == "certificate":
            assert ran == []
        elif path == "reconstruction":
            assert ran == ["_digits"]
        else:
            assert "_primitive" in ran


#: leading coefficients of planted factors: negative, non-unit and large
leads = st.sampled_from([1, -1, 3, -6, P, -2 * P])


class TestCofactors:
    """The gcd returns its cofactors, and RatFun cancels with them instead of
    dividing again.  Oracle: Euclid's algorithm over Fraction."""

    @pytest.mark.parametrize("a, b, path", PATH_PAIRS, ids=PATH_IDS)
    def test_gcd_times_cofactor_is_the_input(self, a, b, path):
        ia, ib = a._p, b._p
        g, qa, qb = ratfun._gcd(ia, ib)
        assert (len(g) > 1) == (path != "certificate")
        assert trimmed(conv_truncated(g, qa)) == ia
        assert trimmed(conv_truncated(g, qb)) == ib

    @pytest.mark.parametrize("a, b, path", PATH_PAIRS, ids=PATH_IDS)
    def test_cancelled_pairs_match_the_reference(self, a, b, path):
        num, den = reference_ratfun(a.coeffs, b.coeffs)
        check_ratfun(RatFun(a, b), num, den)
        # __mul__ cross-cancels a against b's monic form
        check_ratfun(RatFun(a) * RatFun(1, b), num, den)
        check_ratfun(RatFun(1, b) * RatFun(a), num, den)
        num, den = reference_ratfun(b.coeffs, a.coeffs)
        check_ratfun(RatFun(b, a), num, den)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys, leads, leads, leads)
    def test_remainder_sequence_on_planted_factors(self, u, v, g, g_lead, u_lead, v_lead):
        a = planted(u, u_lead) * planted(g, g_lead)
        b = planted(v, v_lead) * planted(g, g_lead)
        # with no digits there is no candidate to reconstruct, so every pair
        # that the certificate does not settle runs the remainder sequence
        with mock.patch.object(ratfun, "_digits", lambda v, s: []):
            gcd = poly_gcd(a, b)
            cancelled = RatFun(a, b)
            g, qa, qb = ratfun._gcd(a._p, b._p)
        assert gcd.coeffs == reference_gcd(a.coeffs, b.coeffs)
        assert (cancelled.num.coeffs, cancelled.den.coeffs) == reference_ratfun(a.coeffs, b.coeffs)
        assert trimmed(conv_truncated(g, qa)) == a._p
        assert trimmed(conv_truncated(g, qb)) == b._p


#: dyadic coefficients n / 2^e, as float inputs give them, so that the
#: integer lift multiplies some constant terms by large powers of two
dyadics = st.builds(lambda n, e: F(n, 1 << e), st.integers(-50, 50), st.integers(0, 120))
dyadic_polys = st.lists(dyadics, min_size=1, max_size=4).map(Poly).filter(bool)


def check_gcd_and_cofactors(a: Poly, b: Poly) -> None:
    """poly_gcd, _gcd's cofactors and RatFun(a, b) against Euclid over Fraction."""
    assert poly_gcd(a, b).coeffs == reference_gcd(a.coeffs, b.coeffs)
    if a.degree > 0 and b.degree > 0:
        g, qa, qb = ratfun._gcd(a._p, b._p)
        assert trimmed(conv_truncated(g, qa)) == a._p
        assert trimmed(conv_truncated(g, qb)) == b._p
    r = RatFun(a, b)
    assert (r.num.coeffs, r.den.coeffs) == reference_ratfun(a.coeffs, b.coeffs)


class TestPowersOfZ:
    """The gcd splits off the common power of z before it evaluates at
    k = 2^s, so that z^j never meets a constant term divisible by a large
    power of two there.  Oracle: Euclid's algorithm over Fraction."""

    @settings(max_examples=100, deadline=None)
    @given(dyadic_polys, dyadic_polys, dyadic_polys,
           st.integers(0, 5), st.integers(0, 5), st.integers(0, 3))
    def test_planted_powers_and_dyadic_contents(self, u, v, g, i, j, m):
        common = g * Poly.z(m)
        check_gcd_and_cofactors(u * Poly.z(i) * common, v * Poly.z(j) * common)

    @pytest.mark.parametrize("a, b, runs", [
        # FIR taps meet z^T; float gains give constant terms like this one's
        (Poly.z(20), Poly([1, F(1, 1 << 612)]), []),
        (Poly.z(3) * Poly([1, 2]), Poly([1, 0, F(1, 1 << 90)]) * Poly([1, 2]), ["_digits"]),
        (Poly(FALLBACK_A), Poly(FALLBACK_B), ["_digits"]),
    ], ids=["monomial", "planted", "convert_matrix_pair"])
    def test_no_remainder_sequence(self, monkeypatch, a, b, runs):
        check_gcd_and_cofactors(a, b)
        # the monomial part leaves nothing to decide; otherwise the parts
        # with nonzero constant terms are reconstructed at one point
        ran = spied_paths(monkeypatch)
        ratfun._gcd(a._p, b._p)
        assert ran == runs


#: nonzero factors of degree up to 3 with numerators up to 10^12
wide_factors = st.lists(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**3),
                        min_size=1, max_size=4).map(Poly).filter(bool)


class TestPolyGcdSoundness:
    """The certificate never calls a pair with a nonconstant gcd coprime.
    Oracle: Euclid's algorithm over Fraction."""

    @pytest.mark.parametrize("c", [1, 2, 3, 2**31 - 1, 2**64, 3**80, 2**200 - 1, 2**200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_root_at_the_cauchy_bound(self, c, sign):
        # with the root at +c, a(k) = k - c and b(k) = (k - c)(k + 1), so
        # G = k - c: the root sits at the height of both, one short of the
        # Cauchy bound, and G misses k by c
        a = Poly([-sign * c, 1])
        b = a * Poly([1, 1])
        assert poly_gcd(a, b).coeffs == reference_gcd(a.coeffs, b.coeffs) == a.coeffs
        assert poly_gcd(b, a * Poly([2, 1])) == a

    @settings(max_examples=150, deadline=None)
    @given(wide_factors, wide_factors, wide_factors)
    def test_wide_planted_factors(self, u, v, g):
        a, b = u * g, v * g
        assert a.degree <= 6 and b.degree <= 6
        assert poly_gcd(a, b).coeffs == reference_gcd(a.coeffs, b.coeffs)


#: small, zero and wide coefficients: large numerators and denominators of
#: either sign, so most primitive parts have a nontrivial content to remove
wide = st.one_of(fractions, st.just(F(0)),
                 st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12))
wide_polys = st.lists(wide, max_size=5).map(Poly)
wide_divisors = wide_polys.filter(bool)
wide_ratfuns = st.builds(RatFun, wide_polys, wide_divisors)
scalars = st.one_of(st.integers(min_value=-10**9, max_value=10**9), wide)


def check_stored_form(p: Poly) -> None:
    """p is stored as a content, two coprime ints with a positive
    denominator, times a primitive part with a positive lead."""
    n, d, prim = p._n, p._d, p._p
    assert type(n) is type(d) is int and all(type(v) is int for v in prim)
    assert d > 0 and math.gcd(n, d) == 1
    if prim:
        assert n != 0 and math.gcd(*prim) == 1 and prim[-1] > 0
    else:
        assert (n, d, prim) == (0, 1, ())
    assert tuple(F(n * v, d) for v in prim) == p.coeffs


def check_poly(p: Poly, expected: tuple) -> None:
    """p has the oracle's coefficients, and the same value built by other
    routes compares equal and hashes equal."""
    assert p.coeffs == expected
    check_stored_form(p)
    routes = [Poly(expected), Poly([3 * c for c in expected]) * F(1, 3), RatFun(expected)]
    if len(expected) <= 1:
        routes.append(expected[0] if expected else 0)
    for q in routes:
        assert p == q and q == p
        assert hash(p) == hash(q)


def check_ratfun(r: RatFun, num: tuple, den: tuple) -> None:
    assert (r.num.coeffs, r.den.coeffs) == (num, den)
    check_stored_form(r.num)
    check_stored_form(r.den)
    k = F(-7, 3)
    routes = [RatFun(Poly(num) * k, Poly(den) * k)]
    if den == (1,):
        routes.append(Poly(num))
        if len(num) <= 1:
            routes.append(num[0] if num else 0)
    for q in routes:
        assert r == q and q == r
        assert hash(r) == hash(q)


class TestStoredForm:
    """Poly and RatFun operations against the Fraction-tuple oracle in helpers."""

    @pytest.mark.parametrize("op, oracle", [
        (operator.add, reference_add),
        (operator.sub, lambda a, b: reference_add(a, reference_scale(b, -1))),
        (operator.mul, lambda a, b: trimmed(conv_truncated(a, b))),
    ], ids=["add", "sub", "mul"])
    @given(a=wide_polys, b=wide_polys)
    def test_binary(self, op, oracle, a, b):
        check_poly(op(a, b), oracle(a.coeffs, b.coeffs))

    @given(wide_polys)
    def test_negation_and_monic(self, a):
        check_poly(-a, reference_scale(a.coeffs, -1))
        check_poly(a.monic(), reference_monic(a.coeffs))

    @given(wide_polys, scalars)
    def test_scalar_multiple(self, a, c):
        expected = reference_scale(a.coeffs, c)
        check_poly(a * c, expected)
        check_poly(c * a, expected)

    @given(wide_polys, wide_divisors)
    def test_division(self, a, b):
        quo, rem = reference_divmod(a.coeffs, b.coeffs)
        q, r = divmod(a, b)
        check_poly(q, quo)
        check_poly(r, rem)
        check_poly(a // b, quo)
        check_poly(a % b, rem)

    @given(wide_polys, wide_divisors)
    def test_exact_division(self, a, b):
        q, r = divmod(a * b, b)
        check_poly(q, a.coeffs)
        check_poly(r, ())

    @settings(max_examples=60)
    @given(wide_polys, wide_polys, wide_divisors)
    def test_gcd(self, a, b, g):
        a, b = a * g, b * g
        check_poly(poly_gcd(a, b), reference_gcd(a.coeffs, b.coeffs))

    @settings(max_examples=60)
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
    @given(x=wide_ratfuns, y=wide_ratfuns)
    def test_ratfun_arithmetic(self, op, x, y):
        n1, d1, n2, d2 = (p.coeffs for p in (x.num, x.den, y.num, y.den))
        cross = (trimmed(conv_truncated(n1, d2)), trimmed(conv_truncated(n2, d1)))
        if op == "truediv":
            if y.is_zero:
                return
            num, den = cross[0], trimmed(conv_truncated(d1, n2))
        elif op == "mul":
            num, den = trimmed(conv_truncated(n1, n2)), trimmed(conv_truncated(d1, d2))
        else:
            sign = 1 if op == "add" else -1
            num = reference_add(cross[0], reference_scale(cross[1], sign))
            den = trimmed(conv_truncated(d1, d2))
        check_ratfun(getattr(operator, op)(x, y), *reference_ratfun(num, den))

    @pytest.mark.parametrize("value", [Poly([1]), Poly.one(), RatFun(1), RatFun.one(), 1, F(1)],
                             ids=["poly", "poly_one", "ratfun", "ratfun_one", "int", "fraction"])
    def test_one_is_one_element_of_a_set(self, value):
        assert len({Poly([1]), 1, F(1), RatFun(1), value}) == 1

    def test_polynomial_function_and_its_numerator_are_one_element_of_a_set(self):
        z = Poly.z()
        assert len({RatFun(z), z}) == 1
        assert len({RatFun(z * F(-2, 3)), Poly([0, F(-2, 3)])}) == 1
        assert len({RatFun(0), Poly.zero(), 0}) == 1

    @pytest.mark.parametrize("coeffs, stored", [
        ([F(1, 2), F(-1, 3), F(-2, 5)], (-1, 30, (-15, 10, 12))),
        ([0, 0, -4], (-4, 1, (0, 0, 1))),
        ([6, 9], (3, 1, (2, 3))),
        ([F(5, 7)], (5, 7, (1,))),
        ([0, 0], (0, 1, ())),
    ], ids=["negative_lead", "monomial", "integer_content", "constant", "zero"])
    def test_examples_of_the_stored_form(self, coeffs, stored):
        p = Poly(coeffs)
        assert (p._n, p._d, p._p) == stored
        check_stored_form(p)


def reference_sum(x: RatFun, y: RatFun) -> tuple[tuple, tuple]:
    """x + y by the oracle: (n1 d2 + n2 d1) / (d1 d2), cancelled."""
    n1, d1, n2, d2 = (p.coeffs for p in (x.num, x.den, y.num, y.den))
    num = reference_add(trimmed(conv_truncated(n1, d2)), trimmed(conv_truncated(n2, d1)))
    return reference_ratfun(num, trimmed(conv_truncated(d1, d2)))


def spied_gcd_degrees(monkeypatch) -> list[int]:
    """A list that records the degree of the gcd of each ``_gcd`` call from now on."""
    seen = []

    def spy(ia, ib, _gcd=ratfun._gcd):
        out = _gcd(ia, ib)
        seen.append(len(out[0]) - 1)
        return out

    monkeypatch.setattr(ratfun, "_gcd", spy)
    return seen


U, V = Poly([1, 1]), Poly([2, 1])  # z + 1, z + 2
HALF, THIRD = Poly([F(-1, 2), 1]), Poly([F(-1, 3), 1])  # z - 1/2, z - 1/3


class TestHenriciAddition:
    """A/(g u) + B/(g v) = t / (g u v) with t = A v + B u, where only
    gcd(t, g) can cancel.  A zero sum never takes this path: two cancelled
    functions with different monic denominators are never each other's
    negatives, so it is checked through the equal-denominator path."""

    @pytest.mark.parametrize("g, a, b, expected, degrees", [
        # t = 2z + 3 is coprime to g
        (HALF, 1, 1, RatFun([3, 2], HALF * U * V), [1, 0]),
        # t = 3(z + 2) - 5(z + 1) = -2(z - 1/2) shares one of g's two factors
        (HALF * THIRD, 3, -5, RatFun(-2, THIRD * U * V), [2, 1]),
        # t = 9/4 (z + 2) + (z - 17/4)(z + 1) = (z - 1/2)^2 is all of g
        (HALF * HALF, F(9, 4), Poly([F(-17, 4), 1]), RatFun(1, U * V), [2, 2]),
    ], ids=["t_coprime_to_g", "t_shares_part_of_g", "t_shares_all_of_g"])
    def test_planted_common_factor(self, monkeypatch, g, a, b, expected, degrees):
        x, y = RatFun(a, g * U), RatFun(b, g * V)
        seen = spied_gcd_degrees(monkeypatch)
        total = x + y
        assert seen == degrees
        assert total == expected
        check_ratfun(total, *reference_sum(x, y))

    @pytest.mark.parametrize("x, y, degrees", [
        (RatFun(1, U), RatFun(1, V), [0]),
        (RatFun(Poly([1, 2])), RatFun(1, HALF * U), []),
        (RatFun(F(2, 3)), RatFun(Poly([0, 1]), V), []),
    ], ids=["coprime_denominators", "polynomial_plus_fraction", "constant_plus_fraction"])
    def test_no_common_factor(self, monkeypatch, x, y, degrees):
        # the sum is already in lowest terms, and no gcd of it is taken
        seen = spied_gcd_degrees(monkeypatch)
        total = x + y
        assert seen == degrees
        check_ratfun(total, *reference_sum(x, y))
        check_ratfun(y + x, *reference_sum(x, y))

    @pytest.mark.parametrize("x", [RatFun(3, HALF * U), RatFun(Poly([1, 2]), HALF * HALF)])
    def test_sum_that_cancels_to_zero(self, x):
        for total in (x + (-x), x - x, (-x) + x):
            check_ratfun(total, (), (F(1),))
            assert total.den == Poly.one()

    @settings(max_examples=60)
    @given(g=polys.filter(lambda p: p.degree >= 1), u=nonzero_polys, v=nonzero_polys,
           a=polys, b=polys)
    def test_planted_denominators(self, g, u, v, a, b):
        x, y = RatFun(a, g * u), RatFun(b, g * v)
        check_ratfun(x + y, *reference_sum(x, y))
        check_ratfun(y + x, *reference_sum(x, y))
        assert (x + y) - y == x


class TestArithmetic:
    def test_additive_identity(self):
        g = rf(1, [F(-1, 2), 1])
        assert g + RatFun.zero() == g

    def test_reciprocal_pair(self):
        assert rf([-1, 1], [0, 1]) * rf([0, 1], [-1, 1]) == RatFun.one()

    def test_like_denominators(self):
        assert rf(1, [0, 1]) + rf(1, [0, 1]) == rf(2, [0, 1])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFun.one() / RatFun.zero()
        with pytest.raises(ZeroDivisionError):
            RatFun(1, Poly.zero())

    @given(ratfuns, ratfuns, ratfuns)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == RatFun.one()

    @given(ratfuns.filter(bool), st.integers(min_value=-3, max_value=3))
    def test_a_power_is_the_product_of_its_factors(self, a, n):
        factor = a if n >= 0 else RatFun.one() / a
        product = RatFun.one()
        for _ in range(abs(n)):
            product = product * factor
        assert a ** n == product

    def test_the_zeroth_power_of_zero_is_one(self):
        assert RatFun.zero() ** 0 == RatFun.one()

    @given(ratfuns, polys)
    def test_a_scalar_minus_a_function_is_the_sum_with_its_negation(self, r, p):
        assert 1 - r == RatFun.one() + (-1) * r
        assert 1 - p == Poly.one() + (-1) * p
        assert F(1, 2) - r == F(1, 2) + (-r)

    @given(ratfuns)
    def test_normalization_idempotent(self, a):
        again = RatFun(a.num, a.den)
        assert again.num == a.num and again.den == a.den
        assert a.den.lc == 1
        assert poly_gcd(a.num, a.den).degree <= 0


class TestClassify:
    @pytest.mark.parametrize(
        "r, expected",
        [
            (rf([1, 1], [0, 0, 1]), "strictly_proper"),
            (rf([1, 2], [3, 1]), "biproper"),
            (rf([0, 0, 1], [1, 1]), "improper"),
            (RatFun.zero(), "strictly_proper"),
        ],
    )
    def test_examples(self, r, expected):
        assert r.classify() == expected


class TestPoles:
    def test_linear_factor(self):
        (p,) = rf(1, [F(-1, 2), 1]).poles()
        assert abs(p - 0.5) < 1e-12

    def test_double_root(self):
        poles = rf(1, Poly([F(-1, 2), 1]) * Poly([F(-1, 2), 1])).poles()
        assert len(poles) == 2 and all(abs(p - 0.5) < 1e-7 for p in poles)

    def test_cancellation_before_roots(self):
        r = rf([-2, 1], [-2, 1])
        assert r == RatFun.one() and r.poles() == []

    def test_stability(self):
        assert rf(1, [F(-1, 2), 1]).is_stable()
        assert not rf(1, [-2, 1]).is_stable()
        # marginal pole on the unit circle is rejected
        assert not rf(1, [-1, 1]).is_stable()

    @given(ratfuns, st.integers(min_value=-3, max_value=3).filter(bool))
    def test_stability_invariant_under_scaling(self, r, c):
        assert (RatFun.constant(c) * r).is_stable() == r.is_stable()

    def test_a_coefficient_beyond_the_float_range_is_decided_exactly(self):
        # the pole of 1/(z + 10^400) is -10^400, and float(10^400) overflows
        assert not rf(1, [10**400, 1]).is_stable()
        # 1/(1 + 10^400 z) has its pole at -10^-400
        assert rf(1, [1, 10**400]).is_stable()

    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                    min_size=1, max_size=6))
    def test_a_coefficient_beyond_its_binomial_bound_means_a_root_outside(self, low):
        # the monic z^n + sum_k low[k] z^k; were every root inside the circle,
        # each |low[k]| would be at most C(n, k) (Vieta)
        n = len(low)
        if any(abs(c) > math.comb(n, k) for k, c in enumerate(low)):
            assert not rf(1, [*low, 1]).is_stable()
            assert max(abs(np.roots([1.0, *map(float, reversed(low))]))) >= 1 - 1e-9

    @given(st.lists(st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=10),
                    min_size=1, max_size=6))
    def test_roots_inside_the_circle_are_stable(self, roots):
        den = Poly.one()
        for root in roots:
            den = den * Poly([-root, 1])
        assert rf(1, den).is_stable()


def check_markov_parameters(r: RatFun, n: int) -> None:
    """h_0 .. h_n times the denominator in w = 1/z give back the numerator's
    coefficients in w: sum_i den[q - i] h_{k - i} = num[q - k] for k <= n."""
    h = r.series(n)
    assert len(h) == n + 1 and all(type(v) is F for v in h)
    q = r.den.degree
    den_w = [r.den[q - i] for i in range(q + 1)]
    num_w = [r.num[q - k] if k <= q else F(0) for k in range(n + 1)]
    assert conv_truncated(h, den_w, n) == num_w


#: poles p/q with q > 1, so the denominator's primitive part has a lead above 1
rational_poles = st.builds(F, st.integers(min_value=-6, max_value=6),
                           st.integers(min_value=2, max_value=7)).filter(lambda f: f.denominator > 1)


@st.composite
def rational_pole_ratfuns(draw) -> RatFun:
    poles = draw(st.lists(rational_poles, min_size=1, max_size=4))
    den = Poly.one()
    for p in poles:
        den = den * Poly([-p, 1])
    return RatFun(Poly(draw(st.lists(wide, max_size=len(poles) + 1))), den)


class TestSeries:
    def test_geometric(self):
        assert rf(1, [F(-1, 2), 1]).series(4) == [0, 1, F(1, 2), F(1, 4), F(1, 8)]

    def test_constant(self):
        assert RatFun.constant(3).series(2) == [3, 0, 0]

    def test_finite_support(self):
        assert rf([1, 1], [0, 0, 1]).series(3) == [0, 1, 1, 0]

    def test_improper_rejected(self):
        with pytest.raises(ToolkitError):
            rf([0, 0, 1], [1, 1]).series(3)

    @pytest.mark.parametrize("r", [
        RatFun(Poly([1, 2]), Poly([F(-1, 2), 1]) * Poly([F(2, 3), 1])),
        RatFun(Poly([F(5, 7), 0, F(-3, 2)]), Poly([F(1, 6), 1]) * Poly([F(-5, 4), 1])),
        RatFun(Poly([1, 2, 3]), Poly.z(3)),
        RatFun(Poly([F(-1, 3), 0, 0, 0, 4]), Poly.z(4)),
        RatFun(Poly([F(9, 2), 1, 7]), Poly([1, 0, -6]) * Poly([1, 5])),
        RatFun.constant(F(-7, 3)),
        RatFun.zero(),
    ], ids=["rational_poles", "biproper", "fir", "fir_with_gaps", "integer_poles",
            "constant", "zero"])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_markov_parameters_times_denominator(self, r, n):
        check_markov_parameters(r, n)

    def test_examples_with_a_nonunit_lead(self):
        # den = (z - 1/2)(z + 2/3) has the primitive part (2z - 1)(3z + 2)
        r = RatFun(Poly([1, 2]), Poly([F(-1, 2), 1]) * Poly([F(2, 3), 1]))
        assert r.den._p[-1] == 6
        assert r.series(3) == [0, 2, F(2, 3), F(5, 9)]

    @given(rational_pole_ratfuns(), st.integers(min_value=0, max_value=9))
    def test_markov_parameters_of_rational_poles(self, r, n):
        check_markov_parameters(r, n)

    @settings(max_examples=40)
    @given(proper_ratfuns, proper_ratfuns)
    def test_series_of_product_is_convolution(self, a, b):
        n = 6
        direct = (a * b).series(n)
        assert direct == conv_truncated(a.series(n), b.series(n), n)


SP2 = SignalSpace.single("x", 2)


@pytest.mark.parametrize("build, want", [
    (lambda: TFMatrix.constant(SP2, SP2, np.eye(2, dtype=int)).entries[1][1], RatFun(1)),
    (lambda: TFMatrix.constant(SP2, SP2, np.full((2, 2), 0.25, dtype=np.float32)).entries[0][1],
     RatFun(F(1, 4))),
    (lambda: Poly([np.int64(2)]), Poly([2])),
    (lambda: RatFun(np.int64(3), np.float64(2)), RatFun(F(3, 2))),
    (lambda: RatFun([np.int32(1), np.int32(1)], [np.float32(0.5), 1]), RatFun([1, 1], [F(1, 2), 1])),
], ids=["int64_matrix", "float32_matrix", "int64_coeff", "scalar_ratfun", "numpy_coeff_lists"])
def test_numpy_scalars_follow_the_exact_scalar_rule(build, want):
    assert build() == want


@pytest.mark.parametrize("build", [
    lambda: Poly([True]),
    lambda: RatFun(np.bool_(True)),
    lambda: RatFun([1, False]),
    lambda: TFMatrix.constant(SP2, SP2, np.eye(2, dtype=bool)),
    lambda: PlantSS([[True]], [[1]], [[1]], [[0]]),
    lambda: FIRPhi(([[True]],)),
], ids=["poly_coeff", "numpy_bool_ratfun", "ratfun_coeff_list", "bool_matrix", "plant_entry",
        "fir_tap"])
def test_booleans_are_not_exact_scalars(build):
    with pytest.raises(TypeError, match="exact scalar"):
        build()


@pytest.mark.parametrize("x", [Poly([1]), RatFun(1)], ids=["poly", "ratfun"])
def test_booleans_are_not_operands(x):
    assert (x == True) is False and (x != True) is True  # noqa: E712
    assert x == 1
    with pytest.raises(TypeError):
        x + True
    with pytest.raises(TypeError):
        False * x
