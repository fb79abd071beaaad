import random
from fractions import Fraction as F

import numpy as np
import pytest

from rstab import (
    DESIGN_SEPARATION,
    FIRPhi,
    PlantSS,
    RatFun,
    RealizationVariant,
    SignalSpace,
    TFMatrix,
    build_realization,
    certify_realization,
    closed_form_stability,
    dare_lqr,
    design_separation_constraint,
    fir_from_slp,
    fir_from_tfmatrix,
    fir_to_tfmatrix,
    impulse_match,
    simulate,
    slp_from_fir,
    slp_sf_to_controller,
    synthesize_sf_h2,
    verify_lemma,
)
from rstab import sls
from rstab.errors import ConvergenceError, InfeasibleError, InvariantViolation, SingularMatrixError
from rstab.parameterizations import exact_matrix
from rstab.sls import VARIANT_KINDS, VARIANT_PARTS, _condensed_taps

from helpers import (
    dense_fir_h2,
    dyadic_fir_pair,
    one_coefficient_scaled,
    rand_fraction,
    reference_simulate,
)

SCALAR = PlantSS.state_feedback([[0.5]], [[1.0]])
FX = FIRPhi((np.array([[1.0]]),))            # Phi_x = z^{-1}
FU = FIRPhi((np.array([[-0.5]]),))           # Phi_u = -1/(2z)
X1, U1 = SCALAR.x_space, SCALAR.u_space
WEIGHTED = PlantSS.state_feedback([[F(1, 2), 1], [0, F(1, 3)]], [[0], [1]])


#: B = [0; 10^300] and Phi_u[1] = [10^300, 0]: every entry fits a float, but
#: the loop's response leaves the float range within four steps
OVERFLOWING = PlantSS.state_feedback([[0, 1], [0, 0]], [[0], [10**300]])
OVERFLOWING_PAIR = (FIRPhi(([[1, 0], [0, 1]],)), FIRPhi(([[10**300, 0]],)))


def variants(fx=FX, fu=FU):
    return (
        RealizationVariant.original(fx, fu),
        RealizationVariant.deployment(fx, fu),
        RealizationVariant.design_separation(fx, fu, fx, fu),
    )


class TestFIR:
    def test_tfmatrix_roundtrip(self):
        m = fir_to_tfmatrix(FU, U1, X1)
        assert m[0, 0] == RatFun(F(-1, 2), [0, 1])
        back = fir_from_tfmatrix(m)
        assert back.horizon == 1 and back.taps[0][0, 0] == -0.5

    def test_non_fir_rejected(self):
        m = TFMatrix(X1, X1, [[RatFun(1, [F(-1, 2), 1])]])
        with pytest.raises(InvariantViolation):
            fir_from_tfmatrix(m)

    def test_variant_payload_validation(self):
        wide = FIRPhi((np.zeros((1, 2)),))
        with pytest.raises(InvariantViolation):
            RealizationVariant.original(wide, FU)  # Phi_x must be square
        with pytest.raises(InvariantViolation):
            RealizationVariant(DESIGN_SEPARATION, FX, FU)  # missing (P_c, M_c)
        with pytest.raises(InvariantViolation, match="takes the parts phi_x, phi_u$"):
            RealizationVariant("original_sls", FX, FU, p_c=FX, m_c=FU)  # undeclared parts
        with pytest.raises(InvariantViolation, match="every m_c tap must be 1 x 1"):
            RealizationVariant.design_separation(FX, FIRPhi((np.zeros((2, 1)),)), FX, FU)

    def test_each_variant_declares_its_parts_and_wires_the_last_two(self):
        assert VARIANT_KINDS == tuple(VARIANT_PARTS)
        assert all(parts[:2] == ("phi_x", "phi_u") for parts in VARIANT_PARTS.values())
        pc, mc = FIRPhi((np.array([[2.0]]),)), FIRPhi((np.array([[3.0]]),))
        wired = {v.kind: v.controller_taps() for v in variants()}
        wired[DESIGN_SEPARATION] = RealizationVariant.design_separation(pc, mc, FX, FU).controller_taps()
        assert wired == {"original_sls": (FX, FU), "deployment": (FX, FU), DESIGN_SEPARATION: (pc, mc)}


class TestBuildRealization:
    def test_original_delta_row_collapses(self):
        # Phi_x = z^{-1}: delta row block is I - z z^{-1} I = 0
        r = build_realization(RealizationVariant.original(FX, FU), SCALAR)
        assert r.R.block("delta", "x")[0, 0] == RatFun.one()
        assert r.R.block("delta", "delta").is_zero
        assert r.R.block("u", "delta")[0, 0] == RatFun(F(-1, 2))

    def test_deployment_delta_row(self):
        r = build_realization(RealizationVariant.deployment(FX, FU), SCALAR)
        assert r.R.block("delta", "x")[0, 0] == RatFun([F(-1, 2), 1], [0, 1])
        assert r.R.block("delta", "u")[0, 0] == RatFun(-1, [0, 1])
        assert r.R.block("delta", "delta").is_zero

    def test_design_separation_mirrors_original(self):
        ro = build_realization(RealizationVariant.original(FX, FU), SCALAR)
        rd = build_realization(RealizationVariant.design_separation(FX, FU, FX, FU), SCALAR)
        assert ro.R == rd.R

    def test_lemma_holds_for_computed_stability(self):
        for v in variants():
            rep = certify_realization(v, SCALAR)
            assert verify_lemma(rep.realization, rep.stability)


# taps of z^{-1}, z^{-2} for WEIGHTED (2 states, 1 input), with distinct entries
PX2 = FIRPhi(([[1, 0], [0, 1]], [[F(1, 2), 1], [F(-1, 4), F(1, 3)]]))
PU2 = FIRPhi(([[F(-1, 2), 1]], [[F(1, 8), F(-1, 3)]]))
PC2 = FIRPhi(([[2, F(1, 2)], [0, 1]], [[0, F(1, 5)], [F(1, 7), 0]]))
MC2 = FIRPhi(([[1, F(-1, 6)]], [[F(2, 3), 0]]))


@pytest.mark.parametrize("variant", [
    RealizationVariant.original(PX2, PU2),
    RealizationVariant.deployment(PX2, PU2),
    RealizationVariant.design_separation(PC2, MC2, PX2, PU2),
], ids=lambda v: v.kind)
def test_realization_matches_r_written_out_by_hand(variant):
    # R = [[A + (1-z)I, B, 0], [0, 0, z M], delta row] over (x, u, delta), entry by entry:
    # z M = M[1] + M[2]/z, and the delta row is [I - A/z, -B/z, 0] for deployment,
    # [I, 0, I - z P] = [I, 0, (I - P[1]) - P[2]/z] otherwise
    a, b = WEIGHTED.A, WEIGHTED.B
    (p1, p2), (m1, m2) = (np.array(t.taps, dtype=object) for t in variant.controller_taps())
    one, zinv = RatFun.one(), RatFun(1, [0, 1])
    dyn = [[RatFun([a[i, j] + int(i == j), -int(i == j)]) for j in range(2)] for i in range(2)]
    if variant.kind == "deployment":
        delta = [[one * int(i == j) - a[i, j] * zinv for j in range(2)] + [-b[i, 0] * zinv, 0, 0]
                 for i in range(2)]
        zeros = {("x", "delta"), ("u", "x"), ("u", "u"), ("delta", "delta")}
    else:
        delta = [[int(i == j) for j in range(2)] + [0]
                 + [one * (int(i == j) - p1[i, j]) - p2[i, j] * zinv for j in range(2)]
                 for i in range(2)]
        zeros = {("x", "delta"), ("u", "x"), ("u", "u"), ("delta", "u")}
    space = SignalSpace((("x", 2), ("u", 1), ("delta", 2)))
    r = TFMatrix(space, space, [
        dyn[0] + [b[0, 0], 0, 0],
        dyn[1] + [b[1, 0], 0, 0],
        [0, 0, 0, one * m1[0, 0] + m2[0, 0] * zinv, one * m1[0, 1] + m2[0, 1] * zinv],
        *delta,
    ])
    loop = build_realization(variant, WEIGHTED)
    assert loop.R == r
    assert loop.structural_zeros == zeros


class TestCertify:
    def test_all_variants_pass_and_match_closed_form(self):
        for v in variants():
            rep = certify_realization(v, SCALAR)
            assert rep.passed, (v.kind, rep.findings)
            assert rep.stability.S == closed_form_stability(v, SCALAR)
            # first column is [Phi_x; Phi_u; z^{-1}]
            zinv = RatFun(1, [0, 1])
            assert rep.stability.S.block("x", "x")[0, 0] == zinv
            assert rep.stability.S.block("u", "x")[0, 0] == RatFun(F(-1, 2), [0, 1])
            assert rep.stability.S.block("delta", "x")[0, 0] == zinv

    def test_deployment_unstable_plant_flagged(self):
        plant = PlantSS.state_feedback([[2.0]], [[1.0]])
        fx = FIRPhi((np.array([[1.0]]),))
        fu = FIRPhi((np.array([[-2.0]]),))
        rep = certify_realization(RealizationVariant.deployment(fx, fu), plant)
        assert not rep.passed
        assert rep.schur_stable is False
        assert rep.stability.S.block("x", "u")[0, 0] == RatFun(1, [-2, 1])
        assert any((f.row, f.col, f.kind) == ("x", "u", "unstable") for f in rep.findings)
        # the original realization of the same payload stays internally stable
        assert certify_realization(RealizationVariant.original(fx, fu), plant).passed

    def test_deployment_identity_s_xu(self):
        # S[x,u] S[u,u]^{-1} = (zI - A)^{-1} B whenever S[u,u] is invertible
        rng = random.Random(21)
        for plant in (SCALAR, PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2))):
            fx, fu = dyadic_fir_pair(rng, plant, 3)
            rep = certify_realization(RealizationVariant.original(fx, fu), plant)
            s = rep.stability.S
            res_b = plant.resolvent() @ TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
            lhs = s.block("x", "u") @ s.block("u", "u").inverse()
            assert lhs == res_b.relabel(lhs.rows, lhs.cols)

    def test_design_separation_sufficient_condition_reported(self):
        rep = certify_realization(RealizationVariant.design_separation(FX, FU, FX, FU), SCALAR)
        assert rep.delta_column_strictly_proper is True

    # P_c = z^{-2}, M_c = -z^{-2}/2 gives (zI - A) P_c - B M_c = z^{-1}, so S[delta, x] = 1
    @pytest.mark.parametrize("p_c, m_c, strict", [
        (FX, FU, True),
        (FIRPhi((np.zeros((1, 1)), np.eye(1))), FIRPhi((np.zeros((1, 1)), -0.5 * np.eye(1))), False),
    ], ids=["strict", "biproper"])
    def test_design_separation_decides_each_denominator_once(self, monkeypatch, p_c, m_c, strict):
        tested = []
        real = RatFun.is_stable

        def spy(self, *args, **kwargs):
            tested.append(self.den)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RatFun, "is_stable", spy)
        rep = certify_realization(RealizationVariant.design_separation(p_c, m_c, FX, FU), SCALAR)
        monkeypatch.undo()
        assert len(tested) == len(set(tested))
        assert rep.delta_column_strictly_proper is strict
        assert rep.stability.S.block("delta", "x").classify().in_zinv_rh_inf is strict

    def test_agreeing_payloads_share_response_columns(self):
        reps = [certify_realization(v, SCALAR) for v in variants()]
        for name in ("x", "u"):
            cols = [r.stability.S.block(name, "x") for r in reps]
            assert cols[0] == cols[1] == cols[2]
            cols_u = [r.stability.S.block(name, "u") for r in reps]
            assert cols_u[0] == cols_u[2]  # original and design separation agree


class TestDesignSeparationConstraint:
    def test_response_pair_is_fixed_point(self):
        slp = slp_from_fir(SCALAR, FX, FU)
        assert design_separation_constraint(slp.phi_x, slp.phi_u, slp, SCALAR)

    def test_zero_pair_is_degenerate_fixed_point(self):
        slp = slp_from_fir(SCALAR, FX, FU)
        zx = TFMatrix.zeros(X1, X1)
        zu = TFMatrix.zeros(U1, X1)
        assert design_separation_constraint(zx, zu, slp, SCALAR)

    @pytest.mark.parametrize("off", [
        lambda p_c, m_c: (2 * p_c, m_c),
        lambda p_c, m_c: (one_coefficient_scaled(p_c), m_c),
        lambda p_c, m_c: (p_c, one_coefficient_scaled(m_c)),
    ], ids=["p_c-doubled", "p_c-off-by-2^-64", "m_c-off-by-2^-64"])
    def test_scaled_pair_fails(self, off):
        slp = slp_from_fir(SCALAR, FX, FU)
        assert not design_separation_constraint(*off(slp.phi_x, slp.phi_u), slp, SCALAR)

    def test_improper_payload_rejected(self):
        slp = slp_from_fir(SCALAR, FX, FU)
        biproper = TFMatrix(X1, X1, [[RatFun([1, 1], [0, 1])]])
        with pytest.raises(InvariantViolation, match="causal"):
            design_separation_constraint(biproper, slp.phi_u, slp, SCALAR)


class TestSynthesize:
    def test_forced_deadbeat(self):
        plant = PlantSS.state_feedback(np.zeros((2, 2)), np.eye(2))
        p = synthesize_sf_h2(plant, np.eye(2), np.eye(2), 1)
        assert p.phi_u.is_zero
        zinv = RatFun(1, [0, 1])
        assert p.phi_x == TFMatrix.diagonal(plant.x_space, zinv)

    def test_affine_identity_exact_after_rationalization(self):
        p = synthesize_sf_h2(SCALAR, [[1]], [[1]], 12)
        b = TFMatrix.constant(X1, U1, SCALAR.B)
        assert SCALAR.z_minus_a() @ p.phi_x - b @ p.phi_u == TFMatrix.identity(X1)

    def test_matches_riccati_gain(self):
        p = synthesize_sf_h2(SCALAR, [[1.0]], [[1.0]], 30)
        gain = dare_lqr(SCALAR, [[1.0]], [[1.0]])
        _, fu = fir_from_slp(p)
        assert abs(fu.taps[0][0, 0] - gain[0, 0]) < 1e-6

    def test_cost_not_worse_than_truncated_lqr(self):
        # longer horizons cannot increase the optimal cost
        def cost(p):
            fx, fu = fir_from_slp(p)
            return sum(float(np.sum(t * t)) for t in fx.taps + fu.taps)

        c8 = cost(synthesize_sf_h2(SCALAR, [[1]], [[1]], 8))
        c16 = cost(synthesize_sf_h2(SCALAR, [[1]], [[1]], 16))
        assert c16 <= c8 + 1e-12

    def test_unstabilizable_is_infeasible(self):
        plant = PlantSS.state_feedback([[1.0]], [[0.0]])
        for horizon in (1, 3, 7):
            with pytest.raises(InfeasibleError):
                synthesize_sf_h2(plant, [[1]], [[1]], horizon)

    def test_uncontrollable_but_stable_direction_ok(self):
        # A = 0, B = 0: the open loop already deadbeats, Phi_u = 0 is feasible
        plant = PlantSS.state_feedback([[0.0]], [[0.0]])
        p = synthesize_sf_h2(plant, [[1]], [[1]], 2)
        assert p.phi_u.is_zero and p.phi_x[0, 0] == RatFun(1, [0, 1])

    def test_two_by_two_single_input(self):
        plant = PlantSS.state_feedback([[0.5, 0.25], [0.0, 0.25]], [[1.0], [0.5]])
        p = synthesize_sf_h2(plant, np.eye(2), [[1.0]], 10)
        k = slp_sf_to_controller(p)
        assert k.classify().all_proper

    @pytest.fixture
    def solve_shapes(self, monkeypatch):
        """(rows, cols, rhs rows, rhs cols) of every system that synthesis
        hands to the exact solver, in call order."""
        import rstab.sls

        shapes = []
        solve = rstab.sls._solve_exact

        def spy(m, rhs):
            shapes.append((len(m), len(m[0]), len(rhs), len(rhs[0])))
            assert all(type(v) is F for row in m + rhs for v in row)
            return solve(m, rhs)

        monkeypatch.setattr(rstab.sls, "_solve_exact", spy)
        return shapes

    def test_positive_definite_rw_is_solved_stage_by_stage(self, solve_shapes):
        # one m-square system per stage for (K_t, L_t), then the n-square
        # system for the multipliers of all n columns; never mT + n rows
        n, m, horizon = 3, 2, 5
        plant = PlantSS.state_feedback([[F(1, 2), 1, 0], [0, F(1, 3), 1], [1, 0, F(-1, 2)]],
                                       [[1, 0], [0, 0], [F(1, 2), 1]])
        synthesize_sf_h2(plant, np.eye(n), [[2, 1], [1, 2]], horizon)
        assert solve_shapes == [(m, m, m, 2 * n)] * horizon + [(n, n, n, n)]

    def test_singular_rw_falls_back_to_the_kkt_system(self, solve_shapes):
        n, m, horizon = 2, 1, 3
        got = fir_from_slp(synthesize_sf_h2(WEIGHTED, np.eye(n), [[0]], horizon), horizon)
        assert solve_shapes == [(m * horizon + n,) * 3 + (n,)]
        for taps, fir in zip(dense_fir_h2(WEIGHTED, np.eye(n), [[0]], horizon), got):
            assert all((w == g).all() for w, g in zip(taps, fir.taps))

    @pytest.mark.parametrize("qw, rw, named", [
        ([[2, 1], [0, 2]], [[1]], "Qw"),  # its symmetric part defines the same cost
        ([[1, 2], [2, 1]], [[1]], "Qw"),  # symmetric but indefinite
        (np.eye(2), [[-1]], "Rw"),        # the KKT point is a stationary point only
    ], ids=["asymmetric_qw", "indefinite_qw", "negative_rw"])
    def test_weights_must_be_symmetric_positive_semidefinite(self, qw, rw, named):
        with pytest.raises(InvariantViolation, match=f"{named} must be symmetric positive semidefinite"):
            synthesize_sf_h2(WEIGHTED, qw, rw, 3)

    def test_semidefinite_weights_are_accepted(self):
        # the symmetric part of the refused Qw = [[2, 1], [0, 2]]
        _, fu = fir_from_slp(synthesize_sf_h2(WEIGHTED, [[2, F(1, 2)], [F(1, 2), 2]], [[1]], 3), 3)
        assert fu.taps[0].tolist() == [[F(-31, 206), F(-178, 309)]]
        synthesize_sf_h2(WEIGHTED, [[1, 1], [1, 1]], [[1]], 3)  # a singular Qw

    def test_matches_the_dense_formulation(self):
        """Phi_x and Phi_u equal, exactly, those of the KKT system posed on
        every tap, and both refuse the same horizons."""
        rng = random.Random(20240611)
        infeasible = 0
        for _ in range(40):
            n, m, horizon = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 9)
            a = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            b = [[rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(m)]
                 for _ in range(n)]
            plant = PlantSS.state_feedback(a, b)
            qw, rw = dominant_weight(rng, n), dominant_weight(rng, m)
            try:
                want = dense_fir_h2(plant, qw, rw, horizon)
            except InfeasibleError:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    synthesize_sf_h2(plant, qw, rw, horizon)
                continue
            got = fir_from_slp(synthesize_sf_h2(plant, qw, rw, horizon), horizon)
            for taps, fir in zip(want, got):
                assert all((w == g).all() for w, g in zip(taps, fir.taps))
        assert 0 < infeasible < 40

    def test_staged_matches_the_condensed_kkt_solve(self):
        """With Rw positive definite, the stage-by-stage taps equal, exactly,
        those of the (mT + n)-square KKT system kept for a singular Rw, also
        for rank-deficient Qw, and both refuse the same horizons."""
        rng = random.Random(20261019)
        infeasible = 0
        for case in range(200):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            horizon = rng.randint(1, 16 if n < 3 else 8)
            a = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            b = [[rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(m)]
                 for _ in range(n)]
            plant = PlantSS.state_feedback(a, b)
            if case % 4 == 0:
                qw = np.zeros((n, n), dtype=int)
            else:  # V V' with V n x (case % 4): rank-deficient when case % 4 < n
                v = np.array([[rand_fraction(rng) for _ in range(case % 4)] for _ in range(n)])
                qw = v @ v.T
            rw = dominant_weight(rng, m)
            try:
                want = _condensed_taps(plant.A, plant.B, exact_matrix(qw), exact_matrix(rw), horizon)
            except InfeasibleError:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    synthesize_sf_h2(plant, qw, rw, horizon)
                continue
            got = fir_from_slp(synthesize_sf_h2(plant, qw, rw, horizon), horizon)
            for taps, fir in zip(want, got):
                assert all((w == g).all() for w, g in zip(taps, fir.taps))
        assert 0 < infeasible < 200


def dominant_weight(rng, k: int) -> list[list[F]]:
    """A symmetric, strictly diagonally dominant weight with a positive
    diagonal: positive definite, so the minimizer is unique."""
    w = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            w[i][j] = w[j][i] = rand_fraction(rng)
    for i in range(k):
        w[i][i] = sum(abs(v) for v in w[i]) + rand_fraction(rng, 1, 4) + 2
    return w


class TestDareLqr:
    def test_no_dynamics(self):
        gain = dare_lqr(PlantSS.state_feedback([[0.0]], [[1.0]]), [[1.0]], [[1.0]])
        assert abs(gain[0, 0]) < 1e-12

    def test_riccati_residual_and_stability(self):
        plant = PlantSS.state_feedback([[0.5, 0.25], [0.0, 0.25]], [[1.0], [0.5]])
        qw, rw = np.eye(2), np.eye(1)
        gain = dare_lqr(plant, qw, rw)
        a = plant.A.astype(float)
        b = plant.B.astype(float)
        # recompute the fixed point and check the Riccati residual
        p = qw.copy()
        for _ in range(20_000):
            k = -np.linalg.solve(rw + b.T @ p @ b, b.T @ p @ a)
            p_next = qw + a.T @ p @ a + a.T @ p @ b @ k
            if np.abs(p_next - p).max() < 1e-14:
                p = p_next
                break
            p = p_next
        resid = p - (qw + a.T @ p @ a - a.T @ p @ b
                     @ np.linalg.solve(rw + b.T @ p @ b, b.T @ p @ a))
        assert np.abs(resid).max() < 1e-10
        assert max(abs(np.linalg.eigvals(a + b @ gain))) < 1.0

    def test_divergence(self):
        with pytest.raises(ConvergenceError):
            dare_lqr(PlantSS.state_feedback([[2.0]], [[0.0]]), [[1.0]], [[1.0]])

    def test_an_entry_beyond_the_float_range_is_refused(self):
        with pytest.raises(InvariantViolation, match="A has an entry that does not fit a float"):
            dare_lqr(PlantSS.state_feedback([[10**400]], [[1]]), [[1]], [[1]])

    @pytest.mark.parametrize("a", [2.0, 1.0 - 1e-9])
    def test_non_stabilizing_gain(self, a):
        # with B = 0 and Qw = 0 the recursion stops at P = 0 and K = 0, so
        # A + BK = A; a pole inside the unit circle but within the 1e-8
        # margin is refused as well
        with pytest.raises(ConvergenceError, match="non-stabilizing"):
            dare_lqr(PlantSS.state_feedback([[a]], [[0.0]]), [[0.0]], [[1.0]])


class TestSimulate:
    def test_zero_disturbance_is_zero(self):
        for v in variants():
            tr = simulate(v, SCALAR, None, 25)
            assert all(np.allclose(sig, 0.0) for sig in tr.signals.values())

    def test_state_impulse_reproduces_phi_x(self):
        v = RealizationVariant.original(FX, FU)
        impulse = np.zeros((1, 1))
        impulse[0, 0] = 1.0
        tr = simulate(v, SCALAR, {"x": impulse}, 6)
        expected = [float(h) for h in fir_to_tfmatrix(FX, X1, X1)[0, 0].series(6)]
        assert np.allclose(tr.signals["x"][:, 0], expected)

    def test_deployment_matches_original_response(self):
        impulse = np.array([[1.0]])
        t1 = simulate(RealizationVariant.original(FX, FU), SCALAR, {"x": impulse}, 30)
        t2 = simulate(RealizationVariant.deployment(FX, FU), SCALAR, {"x": impulse}, 30)
        assert np.allclose(t1.signals["x"], t2.signals["x"], atol=1e-12)
        assert np.allclose(t1.signals["u"], t2.signals["u"], atol=1e-12)

    def test_linearity(self):
        rng = random.Random(7)
        v = RealizationVariant.original(FX, FU)
        h = 15
        d1 = {"x": rng.random(), "u": rng.random(), "delta": rng.random()}
        d1 = {k: np.array([[val]] * (h + 1)) for k, val in d1.items()}
        d2 = {k: np.array([[rng.random()]] * (h + 1)) for k in d1}
        d12 = {k: d1[k] + d2[k] for k in d1}
        t1 = simulate(v, SCALAR, d1, h)
        t2 = simulate(v, SCALAR, d2, h)
        t12 = simulate(v, SCALAR, d12, h)
        for name in ("x", "u", "delta"):
            assert np.abs(t12.signals[name] - t1.signals[name] - t2.signals[name]).max() < 1e-12

    def test_matches_the_update_equations(self):
        """The recursion read off R equals the hand-written update equations
        of each variant on random plants, payloads and disturbances."""
        rng = random.Random(20240707)
        np_rng = np.random.default_rng(7)
        horizon, checked, deployments = 30, 0, 0
        while checked < 24:
            n, m, taps = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 8)
            a = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            b = [[rand_fraction(rng) for _ in range(m)] for _ in range(n)]
            plant = PlantSS.state_feedback(a, b)
            try:
                fx, fu = fir_from_slp(synthesize_sf_h2(plant, np.eye(n), np.eye(m), taps), taps)
            except InfeasibleError:
                continue
            checked += 1
            # (P_c, M_c) = (Phi_x G, Phi_u G) meets the fixed-point constraint
            g = np.eye(n) + np_rng.uniform(-0.25, 0.25, (n, n))
            kinds = [RealizationVariant.original(fx, fu),
                     RealizationVariant.design_separation(
                         FIRPhi(tuple(t @ g for t in fx.taps)),
                         FIRPhi(tuple(t @ g for t in fu.taps)), fx, fu)]
            # deployment on an unstable A is internally unstable: rounding
            # grows in both recursions alike, so only a Schur-stable A is
            # compared at this tolerance
            if plant.resolvent().classify().in_rh_inf:
                kinds.append(RealizationVariant.deployment(fx, fu))
                deployments += 1
            d = {"x": np_rng.normal(size=(horizon + 1, n)),
                 "u": np_rng.normal(size=(rng.randint(1, horizon + 1), m)),
                 "delta": np_rng.normal(size=(horizon + 1, n))}
            for v in kinds:
                got = simulate(v, plant, d, horizon).signals
                want = reference_simulate(v, plant, d, horizon)
                scale = max(1.0, max(np.abs(w).max() for w in want.values()))
                err = max(np.abs(got[k] - want[k]).max() for k in want) / scale
                assert err <= 1e-12, (v.kind, n, m, taps, err)
        assert deployments > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", variants(*OVERFLOWING_PAIR), ids=lambda v: v.kind)
    def test_a_response_beyond_the_float_range_is_refused(self, variant):
        with pytest.raises(InvariantViolation, match="response overflows the float range"):
            simulate(variant, OVERFLOWING, {"x": [[1.0, 0.0]]}, 4)


class TestImpulseMatch:
    def test_all_variants_pass(self):
        for v in variants():
            rep = impulse_match(v, SCALAR, 50, tol=1e-9)
            assert rep.passed, (v.kind, rep)

    def test_two_by_two_pass(self):
        rng = random.Random(13)
        plant = PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2))
        fx, fu = dyadic_fir_pair(rng, plant, 4)
        for maker in (RealizationVariant.original, RealizationVariant.deployment):
            assert impulse_match(maker(fx, fu), plant, 50, tol=1e-9).passed

    def test_neither_the_closed_form_nor_an_inverse_is_built(self, monkeypatch):
        # the Markov parameters come from the taps: a deployment loop inverts
        # no zI - A and a design-separation loop no Delta_c
        def refuse(*args, **kwargs):
            raise AssertionError("impulse_match reached the closed form")

        monkeypatch.setattr(TFMatrix, "inverse", refuse)
        monkeypatch.setattr(sls, "closed_form_stability", refuse)
        rng = random.Random(13)
        plant = PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2))
        fx, fu = dyadic_fir_pair(rng, plant, 4)
        for v in variants(fx, fu):
            assert impulse_match(v, plant, 8, tol=1e-9).passed, v.kind

    @pytest.mark.parametrize("m_c, singular", [(([[0]], [[0]]), False), (([[1]], [[-0.5]]), True)],
                             ids=["improper_inverse", "singular"])
    def test_a_singular_leading_p_c_tap_is_refused_as_by_the_recursion(self, m_c, singular):
        # P_c = z^-2, so Delta_c = (z - 1/2) P_c - M_c is z^-1 - z^-2 / 2,
        # whose inverse is improper, for M_c = 0, and 0 for M_c = (z - 1/2) P_c
        p_c, m_c = FIRPhi(([[0]], [[1]])), FIRPhi(m_c)
        delta_c = (SCALAR.z_minus_a() @ fir_to_tfmatrix(p_c, X1, X1)
                   - TFMatrix.constant(X1, U1, SCALAR.B) @ fir_to_tfmatrix(m_c, U1, X1))[0, 0]
        assert delta_c.is_zero if singular else not (1 / delta_c).is_proper
        v = RealizationVariant.design_separation(p_c, m_c, FX, FU)
        message = r"^the loop's instantaneous map C\[0\] is singular \(for the FIR variants"
        with pytest.raises(SingularMatrixError, match=message):
            impulse_match(v, SCALAR, 5)
        with pytest.raises(SingularMatrixError, match=message):
            simulate(v, SCALAR, {"x": [[1.0]]}, 5)

    def test_corrupted_tap_detected(self):
        fu_bad = FIRPhi((FU.taps[0] + 0.1,))
        rep = impulse_match(RealizationVariant.original(FX, fu_bad), SCALAR, 50, tol=1e-9)
        assert not rep.passed
        assert rep.max_deviation >= 1e-2
        assert rep.worst_lag is not None

    def test_horizon_zero_trivially_passes(self):
        assert impulse_match(RealizationVariant.original(FX, FU), SCALAR, 0).passed

    def test_negative_horizon_is_refused(self):
        with pytest.raises(InvariantViolation, match="nonnegative"):
            impulse_match(RealizationVariant.original(FX, FU), SCALAR, -1)

    @pytest.mark.parametrize("variant", variants(), ids=lambda v: v.kind)
    def test_a_markov_parameter_beyond_the_float_range_is_refused(self, variant):
        # S[x, delta] = Phi_x (zI - A) - I carries A's entry 10^400
        plant = PlantSS.state_feedback([[10**400]], [[1]])
        with pytest.raises(InvariantViolation, match="Markov parameter .* does not fit a float"):
            impulse_match(variant, plant, 3)

    @pytest.mark.filterwarnings("error")
    def test_a_response_beyond_the_float_range_is_refused(self):
        # the other variants' Markov parameters already leave the float range
        with pytest.raises(InvariantViolation, match="response overflows the float range"):
            impulse_match(RealizationVariant.original(*OVERFLOWING_PAIR), OVERFLOWING, 4)

    def test_exact_match_reports_no_worst_location(self):
        rep = impulse_match(RealizationVariant.original(FX, FU), SCALAR, 5)
        assert rep.max_deviation == 0.0
        assert (rep.worst_signal, rep.worst_channel, rep.worst_lag) == (None, None, None)
