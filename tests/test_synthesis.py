"""Exact FIR H2 synthesis against its independent oracle, and the integer
matrix form that its recursions run on.

``sls._IntMatrix`` holds a rational matrix as integer rows over one positive
common denominator in lowest terms; its products, sums, transposes and
block matrices must equal entrywise ``Fraction`` arithmetic.  ``synthesize_sf_h2`` must return
the taps of ``helpers.dense_fir_h2``, the KKT system posed on every tap, on
random plants with positive semidefinite weights, singular Rw among them,
and must write the same ``fir_bundle`` bytes as before on two larger plants.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rstab import PlantSS, fir_from_slp, serialize, synthesize_sf_h2
from rstab.errors import InfeasibleError
from rstab.sls import _IntMatrix, _psd_rank

from helpers import dense_fir_h2

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def matrices(rows: int, cols: int, entries=SMALL):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def assert_normal(m: _IntMatrix):
    assert m.den > 0 and math.gcd(m.den, *(v for row in m.rows for v in row)) == 1
    assert all(type(v) is int for row in m.rows for v in row)


WIDE = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


class TestIntMatrix:
    @given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).map(lambda c: (r, c)))
           .flatmap(lambda rc: matrices(*rc, WIDE)))
    def test_holds_its_fractions_in_lowest_terms(self, a):
        m = _IntMatrix.of(a)
        assert_normal(m)
        assert m.fractions() == a
        assert m.array().tolist() == a and m.array().shape == (len(a), len(a[0]))

    @given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
           .flatmap(lambda s: st.tuples(matrices(s[0], s[1], WIDE), matrices(s[1], s[2], WIDE))))
    def test_product(self, ab):
        a, b = ab
        got = _IntMatrix.of(a) @ _IntMatrix.of(b)
        assert_normal(got)
        assert got.fractions() == fraction_product(a, b)

    @given(st.tuples(st.integers(1, 4), st.integers(1, 4))
           .flatmap(lambda s: st.tuples(matrices(*s, WIDE), matrices(*s, WIDE))))
    def test_sum_difference_and_negation(self, ab):
        a, b = ab
        x, y = _IntMatrix.of(a), _IntMatrix.of(b)
        for got, op in ((x + y, F.__add__), (x - y, F.__sub__), (-x, lambda u, _: -u)):
            assert_normal(got)
            assert got.fractions() == [[op(u, v) for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]

    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: matrices(*s, WIDE)))
    def test_transpose(self, a):
        got = _IntMatrix.of(a).T
        assert_normal(got)
        assert got.fractions() == [list(col) for col in zip(*a)]

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.integers(1, 3))
           .flatmap(lambda s: st.tuples(matrices(s[0], s[1], WIDE), matrices(s[0], s[2], WIDE),
                                        matrices(s[3], s[1] + s[2], WIDE))))
    def test_block(self, parts):
        # [[a, b], [c]]: a block row of two blocks (b possibly without
        # columns) over a block row of one
        a, b, c = parts
        got = _IntMatrix.block([[_IntMatrix.of(a), _IntMatrix.of(b)], [_IntMatrix.of(c)]])
        assert_normal(got)
        assert got.fractions() == [ra + rb for ra, rb in zip(a, b)] + c

    def test_cancellation_reaches_the_zero_matrix(self):
        a = _IntMatrix.of([[F(1, 3), F(-2, 9)]])
        zero = a - a
        assert (zero.rows, zero.den) == ([[0, 0]], 1)
        assert (a + a).den == 9 and (a @ a.T).den == 81

    def test_identity(self):
        assert _IntMatrix.identity(2).fractions() == [[1, 0], [0, 1]]

    def test_zeros(self):
        zero = _IntMatrix.zeros(2, 3)
        assert (zero.rows, zero.den) == ([[0, 0, 0], [0, 0, 0]], 1)


@st.composite
def synthesis_problems(draw):
    """(plant, Qw, Rw, horizon) with entries of small height.  Qw = V V' and
    Rw = U U' are positive semidefinite of any rank.  The minimizer is unique
    when Rw is positive definite; a singular Rw is drawn only with Qw
    positive definite (V V' plus a positive diagonal) and B of full column
    rank, which fix Phi_x and then Phi_u uniquely, so that the taps are the
    oracle's and not merely another minimizer."""
    n, m, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 8))
    a = draw(matrices(n, n))
    b = draw(matrices(n, m))
    singular_rw = m <= n and draw(st.booleans())
    u = draw(matrices(m, draw(st.integers(0, m - 1) if singular_rw else st.just(m))))
    rw = [[sum((x * y for x, y in zip(ri, rj)), F(0)) for rj in u] for ri in u]
    v = draw(matrices(n, draw(st.integers(0, n))))
    qw = [[sum((x * y for x, y in zip(ri, rj)), F(0)) for rj in v] for ri in v]
    if singular_rw:
        for j in range(m):  # a strictly diagonally dominant top m-square block of B
            b[j][j] = sum(abs(x) for x in b[j][:m]) - abs(b[j][j]) + 1
        for i in range(n):
            qw[i][i] += draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))
    return PlantSS.state_feedback(a, b), qw, rw, horizon


@given(synthesis_problems())
def test_synthesis_equals_the_dense_kkt_oracle(problem):
    plant, qw, rw, horizon = problem
    try:
        want = dense_fir_h2(plant, qw, rw, horizon)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            synthesize_sf_h2(plant, qw, rw, horizon)
        return
    got = fir_from_slp(synthesize_sf_h2(plant, qw, rw, horizon), horizon)
    for taps, fir in zip(want, got):
        assert all((w == g).all() for w, g in zip(taps, fir.taps))


def table_plant(n: int) -> PlantSS:
    """A single-input plant with entries k/8 for |k| <= 4, a unit
    superdiagonal and B = e_n, drawn from a seed fixed by n."""
    rng = random.Random(f"table:{n}")
    a = [[F(rng.randint(-4, 4), 8) for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = F(1)
    return PlantSS.state_feedback(a, [[int(i == n - 1)] for i in range(n)])


@pytest.mark.parametrize("n, horizon, digest", [
    (4, 20, "f2c027706205e4d88d4493b19e98ee8f8db1a977d9ee3dbd8c28e8497b1ac3ee"),
    (8, 20, "a6c30ad37fe0482be36e2dfd6be4d68ff24cfc4acf996227309b3352ac79c887"),
])
def test_larger_plants_write_the_same_fir_bundle(tmp_path, n, horizon, digest):
    # exact taps are unique, so any correct change to synthesis writes these bytes
    bundle = synthesize_sf_h2(table_plant(n), np.eye(n, dtype=int), [[1]], horizon)
    path = tmp_path / "fir.json"
    serialize.dump_document(serialize.fir_bundle_to_doc(
        horizon, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u}), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
