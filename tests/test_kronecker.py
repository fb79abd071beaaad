"""The integer kernels of rstab.tfmatrix: inversion, and the identity
a @ b = c decided at one Kronecker point (``_product_is``), checked against
independent oracles.

Both inverse routes, and the Kronecker route from the column side, are
called directly and compared with the cofactor oracle of ``helpers``, on
inputs on each side of the size rule that picks between them, and on a
wide pencil, which takes the row route past that rule;
``_product_is`` is compared with ``RatFun`` products and ``==``, directly
and through the public verdicts that call it.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rstab import (
    PlantSS,
    Poly,
    RatFun,
    Realization,
    SignalSpace,
    StabilityMatrix,
    TFMatrix,
    Transformation,
    stability_from_realization,
    transform,
    verify_equivalent,
    verify_lemma,
)
from rstab import sls, tfmatrix
from rstab.errors import InvariantViolation, SingularMatrixError, SpaceMismatchError
from rstab.tfmatrix import (
    _KRONECKER_BITS,
    _cleared,
    _gauss_jordan_inverse,
    _kronecker_inverse,
    _kronecker_size,
    _product_is,
    _transposed,
)

from helpers import (
    adjugate_inverse,
    one_coefficient_scaled,
    rand_fir_tfmatrix,
    rand_ratfun,
    rand_realization,
    rand_tfmatrix,
    replaced,
    with_one_coefficient_scaled,
)


def space(n: int, prefix: str = "s") -> SignalSpace:
    return SignalSpace(tuple((f"{prefix}{i}", 1) for i in range(n)))


def with_zeros(rng: random.Random, m: TFMatrix) -> TFMatrix:
    """m with each entry replaced by zero with probability 1/3."""
    return TFMatrix(m.rows, m.cols, [[0 if rng.random() < 1 / 3 else e for e in row]
                                     for row in m.entries])


def kronecker(m: TFMatrix) -> TFMatrix:
    rows = _cleared(m.entries)
    return _kronecker_inverse(m, rows, _kronecker_size(rows)[0])


def column_kronecker(m: TFMatrix) -> TFMatrix:
    """The Kronecker route from the column side: m^T inverted, transposed."""
    return _transposed(kronecker(_transposed(m)))


def kronecker_bits(m: TFMatrix) -> int:
    return _kronecker_size(_cleared(m.entries))[1]


def column_bits(m: TFMatrix) -> int:
    return kronecker_bits(_transposed(m))


ROUTES = (kronecker, column_kronecker, _gauss_jordan_inverse)


def fir_loop(rng: random.Random, n: int, deg: int, span: int) -> TFMatrix:
    """I - R with R a strictly proper FIR matrix, so I - R is invertible."""
    sp = space(n)
    return TFMatrix.identity(sp) - rand_fir_tfmatrix(rng, sp, sp, deg, span, biproper=False)


def small_input(rng: random.Random) -> TFMatrix:
    if rng.random() < 0.5:
        n = rng.randint(1, 2)
        return rand_tfmatrix(rng, space(n), space(n), max_deg=2)
    return fir_loop(rng, rng.randint(1, 3), rng.randint(1, 3), span=2)


def column_wide_input(rng: random.Random) -> TFMatrix:
    """A loop with wide integers in one column only, as a FIR loop carries
    its wide taps in the delta columns: too large by rows, small by columns
    (drawn again in the few cases where it is not)."""
    while True:
        m = fir_loop(rng, 3, rng.randint(2, 3), span=2)
        wide = rng.randrange(3)
        m = TFMatrix(m.rows, m.cols, [[e * rng.randrange(2 ** 170, 2 ** 171) if j == wide else e
                                       for j, e in enumerate(row)] for row in m.entries])
        if kronecker_bits(m) > _KRONECKER_BITS >= column_bits(m):
            return m


def large_input(rng: random.Random) -> TFMatrix:
    # long loops with wide taps, as fir_h2_pipeline's n = 5, T >= 7 loops
    return fir_loop(rng, 3, rng.randint(6, 8), span=2 ** rng.randint(60, 90))


#: inputs by the route that ``TFMatrix.inverse`` must take for them
INPUTS = {
    "rows": lambda rng: fir_loop(rng, rng.randint(1, 3), rng.randint(1, 3), 2),
    "columns": column_wide_input,
    "gauss_jordan": large_input,
}


def fir_n3_t4_loop() -> TFMatrix:
    """I - R of the original_sls loop of an H2-optimal FIR pair at n = 3,
    T = 4 (one of fir_h2_pipeline's seed-1 plants): 3008 bits by rows,
    1924 by columns."""
    plant = PlantSS.state_feedback([[F(-1, 2), F(1, 4), F(4, 3)], [F(-1, 2), F(1, 2), F(1, 2)],
                                    [F(3, 5), -1, -1]], [[1], [-1], [F(3, 4)]])
    pair = sls.fir_from_slp(sls.synthesize_sf_h2(plant, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], 4))
    r = sls.build_realization(sls.RealizationVariant.original(*pair), plant)
    return TFMatrix.identity(r.space) - r.R


def routes_taken(m: TFMatrix) -> tuple[TFMatrix, list[TFMatrix], int]:
    """m.inverse(), the matrices it handed to the Kronecker kernel, and the
    number of its calls to Gauss-Jordan."""
    with mock.patch.object(tfmatrix, "_gauss_jordan_inverse",
                           wraps=_gauss_jordan_inverse) as gauss_jordan, \
         mock.patch.object(tfmatrix, "_kronecker_inverse",
                           wraps=_kronecker_inverse) as kron:
        inv = m.inverse()
    return inv, [call.args[0] for call in kron.call_args_list], gauss_jordan.call_count


class TestInverseRoutes:
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["small", "columns", "gauss_jordan"]))
    def test_every_route_equals_the_cofactor_oracle(self, seed, kind):
        rng = random.Random(seed)
        m = small_input(rng) if kind == "small" else INPUTS[kind](rng)
        try:
            expected = adjugate_inverse(m)
        except SingularMatrixError:
            for route in ROUTES:
                with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                    route(m)
            return
        for route in ROUTES:
            assert route(m) == expected

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(sorted(INPUTS)))
    def test_inverse_takes_the_route_of_the_size_rule(self, seed, kind):
        # rows when they fit, else columns when they fit, else Gauss-Jordan
        m = INPUTS[kind](random.Random(seed))
        fits = (kronecker_bits(m) <= _KRONECKER_BITS, column_bits(m) <= _KRONECKER_BITS)
        assert fits == {"rows": (True, fits[1]), "columns": (False, True),
                        "gauss_jordan": (False, False)}[kind]
        inv, kron, gauss_jordan = routes_taken(m)
        assert (kron, gauss_jordan) == {"rows": ([m], 0), "columns": ([_transposed(m)], 0),
                                        "gauss_jordan": ([], 1)}[kind]
        assert inv == _gauss_jordan_inverse(m)

    def test_the_fir_n3_t4_loop_takes_the_column_route(self):
        m = fir_n3_t4_loop()
        assert m.shape == (7, 7)
        assert (kronecker_bits(m), column_bits(m)) == (3008, 1924)
        inv, kron, gauss_jordan = routes_taken(m)
        assert (kron, gauss_jordan) == ([_transposed(m)], 0)
        assert inv == kronecker(m) == _gauss_jordan_inverse(m)
        assert _product_is(m, inv, TFMatrix.identity(m.rows))
        assert _product_is(inv, m, TFMatrix.identity(m.rows))

    def test_a_wide_pencil_takes_the_row_route_past_the_size_rule(self):
        # zI - A with entries of about 1000 bits: far past the rule on both
        # sides, yet every entry is a polynomial of degree at most 1
        rng = random.Random(5)
        a = [[F(rng.randrange(-2 ** 1000, 2 ** 1000), rng.randrange(1, 2 ** 1000))
              for _ in range(3)] for _ in range(3)]
        m = PlantSS.state_feedback(a, [[1], [0], [0]]).z_minus_a()
        assert min(kronecker_bits(m), column_bits(m)) > _KRONECKER_BITS
        inv, kron, gauss_jordan = routes_taken(m)
        assert (kron, gauss_jordan) == ([m], 0)
        assert inv == _gauss_jordan_inverse(m) == adjugate_inverse(m)

    @pytest.mark.parametrize("rows", [
        [[RatFun([1, 1], [0, 1]), RatFun(2)], [RatFun([1, 1], [0, 1]), RatFun(2)]],
        [[RatFun(0), RatFun(0)], [RatFun([F(1, 2), 1]), RatFun(3)]],
        [[RatFun(1), RatFun([0, 1]), RatFun(2, [1, 1])],
         [RatFun(2), RatFun([0, 2]), RatFun(4, [1, 1])],
         [RatFun(3), RatFun(0, 1), RatFun([F(1, 3), 5])]],
        [[RatFun(1), RatFun([0, 1]), RatFun(0)],
         [RatFun([0, 1]), RatFun([0, 0, 1]), RatFun(0)],
         [RatFun([1, 1], [2, 1]), RatFun(7), RatFun(0)]],
    ], ids=["repeated-row", "zero-row", "rank-2-by-rows", "zero-column"])
    def test_a_singular_matrix_raises_the_same_error_on_every_route(self, rows):
        m = TFMatrix(space(len(rows)), space(len(rows)), rows)
        for route in (*ROUTES, TFMatrix.inverse):
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                route(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_singular_matrix_on_the_column_route_raises_the_same_error(self, seed):
        # the third row the sum of the first two, with one column wide
        m = column_wide_input(random.Random(seed))
        a, b, _ = m.entries
        m = TFMatrix(m.rows, m.cols, [a, b, [x + y for x, y in zip(a, b)]])
        assert kronecker_bits(m) > _KRONECKER_BITS >= column_bits(m)
        for route in (*ROUTES, TFMatrix.inverse):
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                route(m)
        # the column route raises it, without falling back to Gauss-Jordan
        with mock.patch.object(tfmatrix, "_gauss_jordan_inverse") as gauss_jordan, \
             pytest.raises(SingularMatrixError):
            m.inverse()
        gauss_jordan.assert_not_called()


class TestIdentityCheck:
    def test_a_coefficient_off_by_one_part_in_two_to_the_64_is_rejected(self):
        rng = random.Random(3)
        r = rand_realization(rng)
        s = stability_from_realization(r).S
        bad = one_coefficient_scaled(s)
        assert verify_lemma(r, StabilityMatrix(r.space, s))
        assert not verify_lemma(r, StabilityMatrix(r.space, bad))
        with pytest.raises(InvariantViolation):
            Transformation(TFMatrix.identity(r.space) - r.R, bad)
        t = Transformation.from_matrix(TFMatrix.diagonal(r.space, RatFun([1, 2], [F(-1, 2), 1])))
        r2 = transform(r, StabilityMatrix(r.space, s), t)[0]
        assert verify_equivalent(r, r2, t)
        assert not verify_equivalent(r, Realization(r.space, one_coefficient_scaled(r2.R)), t)

    def test_entries_near_ten_to_the_400_are_decided_exactly(self):
        # the cleared matrices' coefficients run from 10^400 to 10^1200, so
        # the point 2^s lies beyond 2^5000
        big = 10 ** 400
        sp = SignalSpace.make(x=1, u=1)
        r = Realization.from_blocks(sp, {
            ("x", "x"): TFMatrix(SignalSpace.single("x", 1), SignalSpace.single("x", 1), [[RatFun([big + 1, big], [big + 3, big - 1])]]),
            ("x", "u"): TFMatrix(SignalSpace.single("x", 1), SignalSpace.single("u", 1), [[RatFun(big - 7, [big, big + 5])]]),
            ("u", "x"): TFMatrix(SignalSpace.single("u", 1), SignalSpace.single("x", 1), [[RatFun(F(big + 11, big))]]),
        })
        s = stability_from_realization(r).S
        assert verify_lemma(r, StabilityMatrix(sp, s))
        assert (TFMatrix.identity(sp) - r.R) @ s == TFMatrix.identity(sp)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            near = replaced(s, i, j, with_one_coefficient_scaled(s[i, j], 1 + F(1, big)))
            assert not verify_lemma(r, StabilityMatrix(sp, near))

    def test_a_difference_that_vanishes_at_a_low_point_is_rejected(self):
        # each wrong S below passes at some point 2^s below the bound
        sp = SignalSpace.make(x=1, u=1)
        x, u = SignalSpace.single("x", 1), SignalSpace.single("u", 1)
        r = Realization.from_blocks(sp, {("x", "u"): TFMatrix(x, u, [[RatFun(1, [-2, 1])]]),
                                         ("u", "x"): TFMatrix(u, x, [[RatFun(3, [-2, 1])]])})
        s = stability_from_realization(r).S
        assert verify_lemma(r, StabilityMatrix(sp, s))
        # (I - R) 0 = 0, and both cleared diagonal entries D_i L_i E_i K_i of
        # the right side carry the factor z - 2, so vanish at 2^1
        assert not verify_lemma(r, StabilityMatrix(sp, TFMatrix.zeros(sp, sp)))
        # (I - R) (S + S E) = I + E, with E's entry zero at z = 2, 4, ..., 2^64
        vanishing = Poly.one()
        for k in range(1, 65):
            vanishing = vanishing * Poly([-2 ** k, 1])
        e = TFMatrix.from_blocks(sp, sp, {("x", "u"): [[RatFun(vanishing, Poly.z(64))]]})
        assert not verify_lemma(r, StabilityMatrix(sp, s + s @ e))
        # a right side with a denominator, off by vanishing / (z^64 (z - 3))
        a = TFMatrix(space(1), space(2, "t"), [[RatFun(1, [-3, 1]), RatFun([1, 1], [F(1, 2), 0, 1])]])
        b = TFMatrix(space(2, "t"), space(1, "v"), [[RatFun(2, [0, 1])], [RatFun(1, [F(-1, 3), 1])]])
        ab = a @ b
        off = ab + TFMatrix(ab.rows, ab.cols, [[RatFun(vanishing, Poly.z(64) * Poly([-3, 1]))]])
        assert ab[0, 0].den.degree > 0 and off != ab
        assert _product_is(a, b, ab)
        assert not _product_is(a, b, off)
        # 1 @ 1 against p/q with q - p = vanishing: the difference sits in q
        one = TFMatrix.identity(space(1))
        assert not _product_is(one, one, TFMatrix(space(1), space(1), [[RatFun(Poly.z(65), vanishing + Poly.z(65))]]))

    def test_agrees_with_the_product_on_200_random_pairs(self):
        rng = random.Random(7)
        verdicts = []
        for k in range(200):
            r = rand_realization(rng, max_deg=2)
            s = stability_from_realization(r).S
            n = s.rows.total
            kind = k % 4
            if kind == 1:  # one entry replaced by a random function
                s = replaced(s, rng.randrange(n), rng.randrange(n), rand_ratfun(rng, 2))
            elif kind == 2:  # one coefficient slightly off
                i, j = next((i, j) for i in range(n) for j in range(n) if s[i, j])
                s = replaced(s, i, j, with_one_coefficient_scaled(s[i, j], F(1001, 1000)))
            elif kind == 3:  # an unrelated matrix
                s = rand_tfmatrix(rng, r.space, r.space, 2)
            expected = (TFMatrix.identity(r.space) - r.R) @ s == TFMatrix.identity(r.space)
            got = verify_lemma(r, StabilityMatrix(r.space, s))
            assert got == expected
            verdicts.append(got)
        assert verdicts.count(True) >= 50 and verdicts.count(False) >= 100

    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_the_product_for_general_right_sides(self, seed):
        rng = random.Random(seed)
        rows, mid, cols = space(rng.randint(1, 3)), space(rng.randint(1, 3), "t"), space(rng.randint(1, 3), "v")
        a = with_zeros(rng, rand_tfmatrix(rng, rows, mid, 2))
        b = with_zeros(rng, rand_tfmatrix(rng, mid, cols, 2))
        ab = a @ b
        sides = [ab, TFMatrix.zeros(rows, cols), rand_tfmatrix(rng, rows, cols, 2)]
        if not ab.is_zero:
            sides.append(one_coefficient_scaled(ab))
        for c in sides:
            assert _product_is(a, b, c) == (ab == c)
        assert _product_is(a, b, ab)
        # the same entries over other spaces
        assert not _product_is(a, b, ab.relabel(rows, space(cols.total, "w")))
        assert not _product_is(a, b, ab.relabel(space(rows.total, "w"), cols))

    def test_a_product_over_the_wrong_spaces_is_refused_as_matmul_refuses_it(self):
        x, y = SignalSpace.make(x=1, u=1), SignalSpace.make(a=1, b=1)
        with pytest.raises(SpaceMismatchError, match="cannot multiply"):
            Transformation(TFMatrix.identity(x).relabel(x, y), TFMatrix.identity(x))
        with pytest.raises(InvariantViolation):
            Transformation(TFMatrix.identity(x), TFMatrix.identity(x).relabel(x, y))
        a = TFMatrix.identity(x).relabel(x, y)
        with pytest.raises(SpaceMismatchError, match="cannot multiply"):
            a @ TFMatrix.identity(x)
        for c in (TFMatrix.identity(x), TFMatrix.zeros(x, x), TFMatrix.zeros(y, y)):
            with pytest.raises(SpaceMismatchError, match="cannot multiply"):
                _product_is(a, TFMatrix.identity(x), c)
