import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstab import (
    BlockFinding,
    IOPParam,
    Poly,
    RatFun,
    Realization,
    SignalSpace,
    StabilityMatrix,
    TFMatrix,
    Transformation,
    check_conditions,
    dependency_complete,
    stability_from_realization,
    transform,
    verify_equivalent,
    verify_lemma,
)
from rstab.errors import InvariantViolation, SingularMatrixError, SpaceMismatchError
from rstab.parameterizations import _members

from helpers import rand_realization, rand_realization_with_zero_diag

SP = SignalSpace.make(x=1, u=1)


def scalar_loop(a=F(1, 2), b=F(1), k=F(-1, 2)) -> Realization:
    """State-feedback loop [[A + (1-z)I, B], [K, 0]] for scalar data."""
    r = TFMatrix.from_blocks(
        SP, SP,
        {
            ("x", "x"): [[RatFun([a + 1, -1])]],
            ("x", "u"): [[RatFun(b)]],
            ("u", "x"): [[RatFun(k)]],
        },
    )
    return Realization(SP, r, frozenset({("u", "u")}))


ORACLE_S = TFMatrix(
    SP, SP,
    [
        [RatFun(1, [0, 1]), RatFun(1, [0, 1])],
        [RatFun(F(-1, 2), [0, 1]), RatFun([F(-1, 2), 1], [0, 1])],
    ],
)  # adjugate of I - R over det = z, computed by hand


class TestStabilityFromRealization:
    def test_zero_realization(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        assert stability_from_realization(r).S == TFMatrix.identity(SP)

    def test_open_loop_unitriangular(self):
        g = RatFun(1, [0, 1])
        r = Realization(SP, TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]]}))
        s = stability_from_realization(r)
        assert s.S == TFMatrix(SP, SP, [[1, g], [0, 1]])

    def test_scalar_loop_oracle(self):
        s = stability_from_realization(scalar_loop())
        assert s.S == ORACLE_S

    def test_singular_reports_no_stability_matrix(self):
        r = Realization(SP, TFMatrix.identity(SP))
        with pytest.raises(SingularMatrixError, match="no stability matrix"):
            stability_from_realization(r)

    def test_structural_zero_validated(self):
        with pytest.raises(InvariantViolation):
            Realization(SP, TFMatrix.identity(SP), frozenset({("x", "x")}))

    def test_structural_zeros_checked_in_place(self, monkeypatch):
        """Declared zeros are read off R's entries; no block matrix is built."""
        space = SignalSpace.make(x=2, u=1, delta=2)
        eye = TFMatrix.identity(space)

        def no_block(*args):
            raise AssertionError("structural-zero check built a block")

        monkeypatch.setattr(TFMatrix, "block", no_block)
        x, u, delta = (SignalSpace.single(n, d) for n, d in space)
        blocks = {("x", "x"): TFMatrix.identity(x), ("u", "delta"): TFMatrix.zeros(u, delta)}
        assert len(Realization.from_blocks(space, blocks).structural_zeros) == 7
        with pytest.raises(InvariantViolation, match="'delta', 'delta'"):
            Realization(space, eye, frozenset({("x", "u"), ("delta", "delta")}))


class TestVerifyLemma:
    def test_zero_identity_pair(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        assert verify_lemma(r, StabilityMatrix(SP, TFMatrix.identity(SP)))

    def test_scaled_identity_fails(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        two_eye = TFMatrix.diagonal(SP, RatFun(2))
        assert not verify_lemma(r, StabilityMatrix(SP, two_eye))

    def test_oracle_pair(self):
        assert verify_lemma(scalar_loop(), StabilityMatrix(SP, ORACLE_S))

    def test_space_mismatch(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        other = SignalSpace.make(a=2)
        with pytest.raises(SpaceMismatchError):
            verify_lemma(r, StabilityMatrix(other, TFMatrix.identity(other)))


class TestCheckConditions:
    def test_scalar_loop_passes(self):
        r = scalar_loop()
        report = check_conditions(r, stability_from_realization(r))
        assert report.passed and not report.findings

    def test_unstable_open_loop(self):
        g = RatFun(1, [-2, 1])
        r = Realization(SP, TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]]}))
        report = check_conditions(r, stability_from_realization(r))
        assert not report.passed
        assert any(f.matrix == "S" and (f.row, f.col) == ("x", "u") and f.kind == "unstable"
                   for f in report.findings)

    def test_improper_offdiagonal_flagged(self):
        z = RatFun([0, 1])
        r = Realization(SP, TFMatrix.from_blocks(SP, SP, {("u", "x"): [[z]]}))
        report = check_conditions(r, stability_from_realization(r))
        assert any(f.matrix == "R" and (f.row, f.col) == ("u", "x") and f.kind == "improper"
                   for f in report.findings)

    def test_improper_diagonal_exempt(self):
        # the x-row dynamics block is improper by construction yet valid
        r = scalar_loop()
        assert not r.R.block("x", "x").classify().all_proper
        assert check_conditions(r, stability_from_realization(r)).passed


class TestDependencyComplete:
    def test_scalar_loop_u_column(self):
        r = scalar_loop()
        s = stability_from_realization(r)
        got = dependency_complete(r, {"x": s.S.col_block("x")}, "u")
        assert got == s.S.col_block("u")

    def test_isolated_signal(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        s = stability_from_realization(r)
        got = dependency_complete(r, {"x": s.S.col_block("x")}, "u")
        assert got == TFMatrix(SP, SignalSpace.single("u", 1), [[0], [1]])

    def test_nonzero_diagonal_rejected(self):
        r = Realization(SP, TFMatrix.identity(SP))
        with pytest.raises(InvariantViolation):
            dependency_complete(r, {}, "u")

    def test_missing_column_rejected(self):
        with pytest.raises(InvariantViolation):
            dependency_complete(scalar_loop(), {}, "u")

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_direct_inverse_columns(self, seed):
        rng = random.Random(seed)
        r, target = rand_realization_with_zero_diag(rng, max_deg=2)
        s = stability_from_realization(r)
        partial = {b: s.S.col_block(b) for b in r.space.names if b != target}
        assert dependency_complete(r, partial, target) == s.S.col_block(target)


class TestTransform:
    def test_identity_transformation(self):
        r = scalar_loop()
        s = stability_from_realization(r)
        t = Transformation.from_matrix(TFMatrix.identity(SP))
        r2, s2 = transform(r, s, t)
        assert r2.R == r.R and s2.S == s.S

    def test_scalar_example(self):
        sp = SignalSpace.make(x=1)
        r = Realization(sp, TFMatrix.zeros(sp, sp))
        s = stability_from_realization(r)
        t = Transformation.from_matrix(TFMatrix(sp, sp, [[2]]))
        r2, s2 = transform(r, s, t)
        assert r2.R[0, 0] == RatFun(F(1, 2))
        assert s2.S[0, 0] == RatFun(2)
        assert verify_lemma(r2, s2)

    def test_to_plant_controller_form(self):
        # T = diag(zI - A, I) carries the state-feedback loop to [[0, G], [K, 0]]
        r = scalar_loop()
        s = stability_from_realization(r)
        t = Transformation.from_matrix(
            TFMatrix.from_blocks(SP, SP, {("x", "x"): [[RatFun([F(-1, 2), 1])]],
                                          ("u", "u"): [[1]]})
        )
        r2, s2 = transform(r, s, t)
        g = RatFun(1, [F(-1, 2), 1])
        expected = TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]], ("u", "x"): [[F(-1, 2)]]})
        assert r2.R == expected
        assert verify_lemma(r2, s2)
        assert verify_equivalent(r, Realization(SP, expected), t)

    def test_invalid_inverse_pair_rejected(self):
        with pytest.raises(InvariantViolation):
            Transformation(TFMatrix.identity(SP), TFMatrix.diagonal(SP, RatFun(2)))

    @settings(max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_transform_roundtrip(self, seed):
        rng = random.Random(seed)
        r = rand_realization(rng, max_deg=2)
        s = stability_from_realization(r)
        while True:
            try:
                m = TFMatrix(
                    r.space, r.space,
                    [[RatFun(rng.randint(-2, 2)) for _ in range(r.space.total)]
                     for _ in range(r.space.total)],
                )
                t = Transformation.from_matrix(m)
                break
            except SingularMatrixError:
                continue
        r2, s2 = transform(r, s, t)
        assert verify_lemma(r2, s2)
        r3, s3 = transform(r2, s2, t.inverted())
        assert r3.R == r.R and s3.S == s.S


class TestVerifyEquivalent:
    def test_same_realization_identity(self):
        r = scalar_loop()
        t = Transformation.from_matrix(TFMatrix.identity(SP))
        assert verify_equivalent(r, r, t)

    def test_scaling_breaks_identity(self):
        r = scalar_loop()
        t = Transformation.from_matrix(TFMatrix.diagonal(SP, RatFun(2)))
        assert not verify_equivalent(r, r, t)


class TestBijection:
    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_recover_realization_from_stability(self, seed):
        rng = random.Random(seed)
        r = rand_realization(rng, max_deg=2)
        s = stability_from_realization(r)
        eye = TFMatrix.identity(r.space)
        assert (eye - s.S.inverse()) == r.R

    def test_permutation_invariance_of_conditions(self):
        rng = random.Random(99)
        for _ in range(5):
            r = rand_realization(rng, max_deg=2)
            s = stability_from_realization(r)
            base = check_conditions(r, s)
            names = list(r.space.names)
            rng.shuffle(names)
            perm_space = SignalSpace(tuple((n, r.space.dim(n)) for n in names))
            perm_r = TFMatrix.from_blocks(
                perm_space, perm_space,
                {(a, b): r.R.block(a, b) for a in names for b in names},
            )
            pr = Realization(perm_space, perm_r)
            ps = stability_from_realization(pr)
            assert check_conditions(pr, ps).passed == base.passed


#: denominators that entries share: stable, a stable double pole, unstable,
#: and z - 1 on the unit circle
SHARED_DENS = [Poly([F(-1, 2), 1]), Poly([F(1, 9), F(2, 3), 1]), Poly([-2, 1]), Poly([-1, 1])]
#: over each shared denominator a strictly proper, a proper and an improper
#: entry; the numerator 1 is shared by stable and unstable entries
SHARED_POOL = [RatFun(0), RatFun(1)] + [
    RatFun(num, den) for den in SHARED_DENS for num in ([1], [0, 1], [0, 0, 0, 1])]
STABLE_POOL = [e for e in SHARED_POOL if e.is_stable()]


@st.composite
def shared_den_matrices(draw, *pools):
    """Square matrices over one space of 1-3 blocks, one per pool, with
    entries drawn from that pool."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    space = SignalSpace(tuple((f"s{i}", d) for i, d in enumerate(dims)))
    n = space.total
    return [TFMatrix(space, space, draw(st.lists(st.lists(st.sampled_from(pool), min_size=n,
                                                          max_size=n), min_size=n, max_size=n)))
            for pool in pools]


def block_entries(m: TFMatrix, a: str, b: str) -> list[RatFun]:
    return [e for row in m.block(a, b).entries for e in row]


class TestSharedVerdicts:
    """A check decides each distinct denominator's stability once and shares
    the verdict among the entries over it.  Oracle: RatFun.is_proper and
    RatFun.is_stable entry by entry."""

    @settings(max_examples=80, deadline=None)
    @given(shared_den_matrices(SHARED_POOL, SHARED_POOL))
    def test_check_conditions_matches_entrywise_tests(self, mats):
        r, s = Realization(mats[0].rows, mats[0]), StabilityMatrix(mats[1].rows, mats[1])
        names = r.space.names
        expected = [BlockFinding("R", a, b, "improper") for a in names for b in names
                    if a != b and not all(e.is_proper for e in block_entries(r.R, a, b))]
        for a in names:
            for b in names:
                entries = block_entries(s.S, a, b)
                if not all(e.is_proper for e in entries):
                    expected.append(BlockFinding("S", a, b, "improper"))
                elif not all(e.is_stable() for e in entries):
                    expected.append(BlockFinding("S", a, b, "unstable"))
        assert check_conditions(r, s).findings == tuple(expected)

    @settings(max_examples=80, deadline=None)
    @given(shared_den_matrices(*[SHARED_POOL] * 4), st.sets(st.sampled_from("YUWZ")))
    def test_members_matches_entrywise_tests(self, mats, strict):
        bundle = IOPParam(*mats)
        expected = None
        for name, m in zip("YUWZ", mats):
            entries = [e for row in m.entries for e in row]
            ok = all(e.is_stable() and (e.is_strictly_proper or name not in strict)
                     for e in entries)
            if not ok:
                expected = name
                break
        if expected is None:
            assert _members(bundle, tuple(strict)) is bundle
        else:
            with pytest.raises(InvariantViolation, match=f"block {expected} must be"):
                _members(bundle, tuple(strict))

    @settings(max_examples=40, deadline=None)
    @given(shared_den_matrices(SHARED_POOL, STABLE_POOL))
    def test_one_pole_test_per_distinct_denominator_of_s(self, mats):
        # S passes, so every block is classified in full; R's entries may
        # carry denominators that S lacks, such as the unstable z - 2
        r, s = Realization(mats[0].rows, mats[0]), StabilityMatrix(mats[1].rows, mats[1])
        tested = []
        real = RatFun.is_stable

        def spy(self):
            tested.append(self.den)
            return real(self)

        with mock.patch.object(RatFun, "is_stable", spy):
            report = check_conditions(r, s)
        assert not any(f.matrix == "S" for f in report.findings)
        assert len(tested) == len(set(tested))
        assert set(tested) == {e.den for row in s.S.entries for e in row}
