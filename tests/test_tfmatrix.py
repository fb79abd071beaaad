import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstab import (DEFAULT_TOL, RatFun, Realization, SignalSpace, StabilityMatrix, TFMatrix,
                   check_conditions, embed, shift_identity)
from rstab.errors import SingularMatrixError, SpaceMismatchError
from rstab.tfmatrix import _cleared, _gauss_jordan_inverse, _kronecker_inverse, _kronecker_size

from helpers import adjugate_inverse, rand_ratfun, rand_tfmatrix

SP = SignalSpace.make(x=1, u=1)
G = RatFun(1, [0, 1])  # z^{-1}
K = RatFun(F(1, 2))


def loop_matrix(g=G, k=K):
    return TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]], ("u", "x"): [[k]]})


class TestSignalSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SpaceMismatchError):
            SignalSpace((("x", 1), ("x", 2)))

    def test_offsets(self):
        sp = SignalSpace.make(x=2, u=1, y=3)
        assert sp.total == 6
        assert sp.offset("u") == 2
        assert list(sp.index_range("y")) == [3, 4, 5]
        with pytest.raises(SpaceMismatchError):
            sp.offset("w")


class TestBlocks:
    def test_block_access(self):
        m = loop_matrix()
        assert m.block("x", "u")[0, 0] == G
        assert m.block("u", "u").is_zero
        assert TFMatrix.identity(SP).block("x", "u").is_zero

    def test_unknown_block_name(self):
        with pytest.raises(SpaceMismatchError):
            loop_matrix().block("x", "w")

    def test_block_reassembly_roundtrip(self):
        rng = random.Random(3)
        sp = SignalSpace.make(a=2, b=1)
        m = TFMatrix(sp, sp, [[rand_ratfun(rng, 2) for _ in range(3)] for _ in range(3)])
        blocks = {(r, c): m.block(r, c) for r in sp.names for c in sp.names}
        assert TFMatrix.from_blocks(sp, sp, blocks) == m

    def test_row_blocks_reassemble_via_embed(self):
        rng = random.Random(5)
        sp = SignalSpace.make(a=2, b=1)
        cols = SignalSpace.single("w", 2)
        m = TFMatrix(sp, cols, [[rand_ratfun(rng, 2) for _ in range(2)] for _ in range(3)])
        total = TFMatrix.zeros(sp, cols)
        for name in sp.names:
            total = total + embed(sp, name) @ m.row_block(name)
        assert total == m


class TestArithmetic:
    def test_identity_neutral(self):
        m = loop_matrix()
        assert TFMatrix.identity(SP) @ m == m
        assert m @ TFMatrix.identity(SP) == m

    def test_additive_inverse(self):
        m = loop_matrix()
        assert (m + (-m)).is_zero

    def test_offdiagonal_square(self):
        # [[0, G], [K, 0]]^2 = [[GK, 0], [0, KG]]
        m = loop_matrix()
        sq = m @ m
        assert sq.block("x", "x")[0, 0] == G * K
        assert sq.block("u", "u")[0, 0] == K * G
        assert sq.block("x", "u").is_zero and sq.block("u", "x").is_zero

    def test_space_mismatch(self):
        other = TFMatrix.identity(SignalSpace.make(a=2))
        with pytest.raises(SpaceMismatchError):
            loop_matrix() + other
        with pytest.raises(SpaceMismatchError):
            loop_matrix() @ other


class TestInverse:
    def test_identity(self):
        eye = TFMatrix.identity(SP)
        assert eye.inverse() == eye

    def test_unitriangular(self):
        m = TFMatrix(SP, SP, [[1, -G], [0, 1]])
        assert m.inverse() == TFMatrix(SP, SP, [[1, G], [0, 1]])

    def test_two_by_two_adjugate_example(self):
        m = TFMatrix(SP, SP, [[RatFun([F(-1, 2), 1]), RatFun(-1)], [RatFun(F(1, 2)), RatFun(1)]])
        zinv = RatFun(1, [0, 1])
        expected = TFMatrix(
            SP, SP,
            [[zinv, zinv], [RatFun(F(-1, 2), [0, 1]), RatFun([F(-1, 2), 1], [0, 1])]],
        )
        assert m.inverse() == expected

    def test_singular_detected(self):
        m = TFMatrix(SP, SP, [[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_matches_adjugate_oracle(self):
        rng = random.Random(11)
        sp = SignalSpace.make(a=1, b=1, c=1)
        for _ in range(8):
            m = TFMatrix(sp, sp, [[rand_ratfun(rng, 2) for _ in range(3)] for _ in range(3)])
            try:
                got = m.inverse()
            except SingularMatrixError:
                continue
            assert got == adjugate_inverse(m)

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_inverse_times_self_is_identity(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        sp = SignalSpace(tuple((f"s{i}", 1) for i in range(dim)))
        m = TFMatrix(sp, sp, [[rand_ratfun(rng, 3) for _ in range(dim)] for _ in range(dim)])
        try:
            inv = m.inverse()
        except SingularMatrixError:
            return
        eye = TFMatrix.identity(sp)
        assert m @ inv == eye
        assert inv @ m == eye


class TestClassify:
    def test_identity(self):
        cls = TFMatrix.identity(SP).classify()
        assert cls.all_proper and cls.in_rh_inf and not cls.all_strictly_proper

    def test_shifted_identity(self):
        cls = shift_identity(SP, -1).classify()
        assert cls.in_zinv_rh_inf

    def test_unstable_entry(self):
        m = TFMatrix(SignalSpace.make(x=1), SignalSpace.make(x=1), [[RatFun(1, [-2, 1])]])
        cls = m.classify()
        assert cls.all_proper and not cls.in_rh_inf

    def test_resolvent_stability_matches_numpy_eigenvalues(self):
        # (zI - A)^{-1} lies in RH-infinity exactly when A is Schur stable
        # with margin DEFAULT_TOL; numpy's eigenvalues are the oracle, away
        # from the margin where both float computations could disagree
        rng = random.Random(8)
        seen = set()
        for _ in range(80):
            n = rng.randint(1, 3)
            a = [[F(rng.randint(-6, 6), rng.randint(3, 9)) for _ in range(n)] for _ in range(n)]
            radius = max(abs(np.linalg.eigvals(np.array(a, dtype=float))))
            if abs(radius - (1 - DEFAULT_TOL)) < 1e-3:
                continue
            sp = SignalSpace.make(x=n)
            resolvent = (TFMatrix.diagonal(sp, RatFun.z()) - TFMatrix.constant(sp, sp, a)).inverse()
            expected = radius < 1 - DEFAULT_TOL
            assert resolvent.classify().in_rh_inf == expected, a
            seen.add(expected)
        assert seen == {True, False}


def well_formed(m: TFMatrix) -> None:
    """``m``, built by the trusted ``TFMatrix._of``, is what the public
    constructor builds from the same entries: tuples of RatFun, shaped by
    the spaces."""
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert all(type(e) is RatFun for row in m.entries for e in row)
    assert m == TFMatrix(m.rows, m.cols, m.entries)


def blocked_space(rng: random.Random, prefix: str) -> SignalSpace:
    return SignalSpace(tuple((f"{prefix}{i}", rng.randint(1, 2))
                             for i in range(rng.randint(1, 3))))


class TestTrustedConstructor:
    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_internal_result_is_well_formed(self, seed):
        rng = random.Random(seed)
        rows, cols = blocked_space(rng, "r"), blocked_space(rng, "c")
        a, b = rand_tfmatrix(rng, rows, cols, 2), rand_tfmatrix(rng, rows, cols, 2)
        results = [a + b, a - b, -a, a * RatFun(1, [F(1, 3), 1]), 3 * a, F(1, 2) * a,
                   a @ rand_tfmatrix(rng, cols, rows, 2), a.relabel(
                       SignalSpace.single("p", rows.total), SignalSpace.single("q", cols.total))]
        for r in rows.names:
            results.append(a.row_block(r))
            results += [a.block(r, c) for c in cols.names]
        results += [a.col_block(c) for c in cols.names]
        square = rand_tfmatrix(rng, rows, rows, 2)
        cleared = _cleared(square.entries)
        try:
            results += [square.inverse(), _gauss_jordan_inverse(square),
                        _kronecker_inverse(square, cleared, _kronecker_size(cleared)[0])]
        except SingularMatrixError:
            pass
        for m in results:
            well_formed(m)

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_check_conditions_classifies_well_formed_blocks(self, seed):
        rng = random.Random(seed)
        space = blocked_space(rng, "s")
        r, s = rand_tfmatrix(rng, space, space, 2), rand_tfmatrix(rng, space, space, 2)
        classified = []
        real = TFMatrix.classify

        def spy(self, verdicts=None):
            classified.append(self)
            return real(self, verdicts)

        with mock.patch.object(TFMatrix, "classify", spy):
            check_conditions(Realization(space, r), StabilityMatrix(space, s))
        assert len(classified) == len(space.names) ** 2
        for m, (a, b) in zip(classified, [(a, b) for a in space.names for b in space.names]):
            well_formed(m)
            assert m == s.block(a, b)

    def test_relabel_onto_spaces_of_another_size(self):
        m = TFMatrix.identity(SP)
        with pytest.raises(SpaceMismatchError):
            m.relabel(SignalSpace.make(x=1), SP)
        with pytest.raises(SpaceMismatchError):
            m.relabel(SP, SignalSpace.make(x=1, u=1, y=1))


class TestEmbed:
    def test_single_channel(self):
        e = embed(SP, "u")
        assert e.entries == ((RatFun.zero(),), (RatFun.one(),))

    def test_whole_space(self):
        sp = SignalSpace.make(x=2)
        assert embed(sp, "x") == TFMatrix.identity(sp)
