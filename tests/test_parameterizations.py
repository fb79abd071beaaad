import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from rstab import (
    IOPParam,
    MixedParam1,
    MixedParam2,
    PlantSS,
    RatFun,
    SignalSpace,
    SLPOutputFeedback,
    SLPStateFeedback,
    TFMatrix,
    Transformation,
    YoulaParam,
    check_conditions,
    controller_to_youla,
    coprime_factorize,
    iop_from_controller,
    iop_to_controller,
    mixed1_from_controller,
    mixed1_to_controller,
    mixed2_from_controller,
    mixed2_to_controller,
    output_feedback_loop,
    plant_feedback_loop,
    slp_of_from_controller,
    slp_of_to_controller,
    slp_of_to_iop,
    slp_sf_from_controller,
    slp_sf_to_controller,
    slp_sf_to_iop,
    stability_from_realization,
    state_feedback_loop,
    verify_equivalent,
    youla_to_controller,
    youla_to_iop,
)
from rstab.errors import InternalStabilityError, InvariantViolation, SpaceMismatchError
from rstab import parameterizations
from rstab.parameterizations import REGISTRY, _Lemma, _plant_part, convert

from helpers import adjugate_inverse, bundle_identities, one_coefficient_scaled, rand_fir_tfmatrix

Y1 = SignalSpace.single("y", 1)
U1 = SignalSpace.single("u", 1)
X1 = SignalSpace.single("x", 1)


def tf(space_r, space_c, entries):
    return TFMatrix(space_r, space_c, entries)


def scalar_g(num, den):
    return tf(Y1, U1, [[RatFun(num, den)]])


@pytest.fixture(scope="module")
def unstable_factors():
    plant = PlantSS([[2]], [[1]], [[1]], [[0]])
    return plant, coprime_factorize(plant, [[-2]], [[-2]])


@pytest.fixture(scope="module")
def stable_factors():
    plant = PlantSS([[0]], [[1]], [[1]], [[0]])
    return plant, coprime_factorize(plant, [[0]], [[0]])


class TestCoprimeFactorize:
    def test_trivial_stable_plant(self, stable_factors):
        plant, f = stable_factors
        g = plant.transfer()
        assert f.Ml == TFMatrix.identity(Y1)
        assert f.Ul == TFMatrix.identity(U1)
        assert f.Ur == TFMatrix.identity(Y1)
        assert f.Mr == TFMatrix.identity(U1)
        assert f.Vl.is_zero and f.Vr.is_zero
        assert f.Nl == g and f.Nr == g

    def test_unstable_scalar_fixture(self, unstable_factors):
        plant, f = unstable_factors
        z = [0, 1]
        assert f.Mr[0, 0] == RatFun([-2, 1], z)
        assert f.Nr[0, 0] == RatFun(1, z)
        assert f.Vr[0, 0] == RatFun(-4, z)
        assert f.Ur[0, 0] == RatFun([2, 1], z)
        assert f.Ml[0, 0] == RatFun([-2, 1], z)
        assert f.Nl[0, 0] == RatFun(1, z)
        assert f.Ul[0, 0] == RatFun([2, 1], z)
        assert f.Vl[0, 0] == RatFun(-4, z)
        assert f.g() == plant.transfer()

    def test_non_stabilizing_gain_rejected(self):
        plant = PlantSS([[2]], [[1]], [[1]], [[0]])
        with pytest.raises(InvariantViolation, match="F does not stabilize"):
            coprime_factorize(plant, [[0]], [[-2]])

    def test_non_stabilizing_observer_gain_rejected(self):
        plant = PlantSS([[2]], [[1]], [[1]], [[0]])
        with pytest.raises(InvariantViolation, match="L does not stabilize"):
            coprime_factorize(plant, [[-2]], [[0]])

    def test_factors_whose_ml_has_no_proper_inverse_are_refused(self):
        # the double Bezout identity holds for these stable proper factors,
        # but Ml = 1/z inverts to z, which is improper
        zinv, one = RatFun(1, [0, 1]), RatFun(1)
        blocks = {"Ml": zinv, "Nl": -one, "Vl": one - zinv, "Ul": one,
                  "Ur": one, "Nr": -one, "Vr": one - zinv, "Mr": zinv}
        spaces = {"Ml": (Y1, Y1), "Nl": (Y1, U1), "Vl": (U1, Y1), "Ul": (U1, U1),
                  "Ur": (Y1, Y1), "Nr": (Y1, U1), "Vr": (U1, Y1), "Mr": (U1, U1)}
        f = parameterizations.CoprimeFactors(
            **{name: tf(*spaces[name], [[value]]) for name, value in blocks.items()})
        with pytest.raises(InvariantViolation, match="Ml is not invertible with a proper inverse"):
            f.validate()

    @pytest.mark.parametrize("name", ["Ml", "Nl", "Vl", "Ul", "Ur", "Nr", "Vr", "Mr"])
    def test_a_factor_off_in_one_coefficient_breaks_the_bezout_identity(self, name):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[F(1, 3)]])
        f = coprime_factorize(plant, [[F(-1, 2)]], [[F(-1, 2)]])
        bad = dataclasses.replace(f, **{name: one_coefficient_scaled(getattr(f, name))})
        with pytest.raises(InvariantViolation, match=r"^double Bezout identity fails$"):
            bad.validate()

    def test_two_by_two_with_feedthrough(self):
        plant = PlantSS(
            [[F(1, 2), F(1, 4)], [0, F(-1, 3)]],
            [[1], [F(1, 2)]],
            [[1, 0]],
            [[F(1, 2)]],
        )
        f = coprime_factorize(plant, [[0, 0]], [[0], [0]])
        f.validate()
        assert f.g() == plant.transfer()


class TestYoula:
    def test_zero_parameter(self, unstable_factors):
        _, f = unstable_factors
        q = YoulaParam.checked(TFMatrix.zeros(U1, Y1))
        assert youla_to_controller(f, q) == f.Vr @ f.Ur.inverse()

    def test_stable_plant_classic_form(self, stable_factors):
        # with trivial factors K = -q (I - G q)^{-1}
        plant, f = stable_factors
        g = plant.transfer()
        qm = tf(U1, Y1, [[RatFun([1, 1], [0, 0, 2])]])
        k = youla_to_controller(f, YoulaParam.checked(qm))
        expected = (-qm) @ (TFMatrix.identity(Y1) - g @ qm).inverse()
        assert k == expected

    def test_unstable_parameter_rejected(self):
        with pytest.raises(InvariantViolation):
            YoulaParam.checked(tf(U1, Y1, [[RatFun(1, [-2, 1])]]))

    def test_roundtrips_exact(self, unstable_factors):
        _, f = unstable_factors
        rng = random.Random(1)
        for _ in range(5):
            q = YoulaParam.checked(rand_fir_tfmatrix(rng, U1, Y1, deg=3))
            k = youla_to_controller(f, q)
            q2 = controller_to_youla(f, k)
            assert q2.Q == q.Q
            assert youla_to_controller(f, q2) == k

    def test_factors_invert_ml_and_mr_once(self, monkeypatch):
        inverted = []
        real = TFMatrix.inverse

        def spy(self):
            inverted.append(self)
            return real(self)

        monkeypatch.setattr(TFMatrix, "inverse", spy)
        plant = PlantSS([[2]], [[1]], [[1]], [[0]])
        f = coprime_factorize(plant, [[-2]], [[-2]])
        k = youla_to_controller(f, YoulaParam.checked(TFMatrix.zeros(U1, Y1)))
        f.validate()
        assert f.g() == plant.transfer()
        assert controller_to_youla(f, k).Q.is_zero
        assert sum(m is f.Ml for m in inverted) == 1
        assert sum(m is f.Mr for m in inverted) == 1

    def test_zero_controller_on_stable_plant(self, stable_factors):
        _, f = stable_factors
        q = controller_to_youla(f, TFMatrix.zeros(U1, Y1))
        assert q.Q.is_zero

    def test_unstable_controller_rejected(self, stable_factors):
        _, f = stable_factors
        k = tf(U1, Y1, [[RatFun(1, [-2, 1])]])
        with pytest.raises(InternalStabilityError):
            controller_to_youla(f, k)

    def test_bezout_preserved_under_parameter_conjugation(self, unstable_factors):
        # S = [[Ur, Nr], [Vr, Mr]] T with T = [[I, 0], [-Q, I]] diag(Ml, Ul - Q Nl)
        # must satisfy (I - R) S = I for the loop closed with the Youla controller.
        _, f = unstable_factors
        rng = random.Random(2)
        q = rand_fir_tfmatrix(rng, U1, Y1, deg=2)
        sp = SignalSpace(Y1.blocks + U1.blocks)
        t = TFMatrix.from_blocks(
            sp, sp,
            {("y", "y"): f.Ml, ("u", "y"): (-q) @ f.Ml, ("u", "u"): f.Ul - q @ f.Nl},
        )
        right = TFMatrix.from_blocks(
            sp, sp,
            {("y", "y"): f.Ur, ("y", "u"): f.Nr, ("u", "y"): f.Vr, ("u", "u"): f.Mr},
        )
        s = right @ t
        k = youla_to_controller(f, YoulaParam.checked(q))
        loop = plant_feedback_loop(f.g(), k)
        eye = TFMatrix.identity(sp)
        assert (eye - loop.R) @ s == eye


class TestIOP:
    def test_zero_controller(self):
        g = scalar_g(1, [0, 1])
        p = iop_from_controller(g, TFMatrix.zeros(U1, Y1))
        assert p.Y == TFMatrix.identity(Y1) and p.U.is_zero
        assert p.W == g and p.Z == TFMatrix.identity(U1)

    def test_half_gain_fixture(self):
        # derived by 2x2 adjugate: det(I - R) = (2z - 1)/(2z)
        g = scalar_g(1, [0, 1])
        k = tf(U1, Y1, [[RatFun(F(1, 2))]])
        p = iop_from_controller(g, k)
        assert p.Y[0, 0] == RatFun([0, 2], [-1, 2])
        assert p.U[0, 0] == RatFun([0, 1], [-1, 2])
        assert p.W[0, 0] == RatFun(2, [-1, 2])
        assert p.Z[0, 0] == RatFun([0, 2], [-1, 2])
        assert iop_to_controller(p) == k

    # a strictly proper plant 1/z, and a biproper one (z + 1)/(2z): IOP
    # extraction needs only an internally stable loop, not strict properness
    @pytest.mark.parametrize("num, den", [(1, [0, 1]), ([1, 1], [0, 2])],
                             ids=["strictly_proper", "biproper"])
    def test_matches_adjugate_oracle(self, num, den):
        g = scalar_g(num, den)
        k = tf(U1, Y1, [[RatFun(F(1, 2))]])
        loop = plant_feedback_loop(g, k)
        s = adjugate_inverse(TFMatrix.identity(loop.space) - loop.R)
        p = iop_from_controller(g, k)
        assert p.Y == s.block("y", "y") and p.U == s.block("u", "y")
        assert p.W == s.block("y", "u") and p.Z == s.block("u", "u")

    def test_destabilizing_gain_rejected(self):
        g = scalar_g(1, [0, 1])
        with pytest.raises(InternalStabilityError) as exc:
            iop_from_controller(g, tf(U1, Y1, [[RatFun(2)]]))
        findings = exc.value.report.findings
        assert findings and all(f.matrix == "S" for f in findings)

    def test_invariant_violating_bundle_rejected(self):
        g = scalar_g(1, [0, 1])
        eye_y, eye_u = TFMatrix.identity(Y1), TFMatrix.identity(U1)
        with pytest.raises(InvariantViolation):
            IOPParam.checked(eye_y, TFMatrix.zeros(U1, Y1), TFMatrix.zeros(Y1, U1), eye_u, g=g)

    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_plant_with_two_blocks_on_a_side_is_refused(self, side):
        # the IOP loop has one output signal and one control signal
        two = SignalSpace((("a", 1), ("b", 1)))
        y, u = (two, U1) if side == "rows" else (Y1, two)
        with pytest.raises(SpaceMismatchError, match="single-block on both sides"):
            IOPParam.checked(TFMatrix.identity(y), TFMatrix.zeros(u, y),
                             TFMatrix.zeros(y, u), TFMatrix.identity(u), g=TFMatrix.zeros(y, u))

    def test_zero_plant(self):
        g = TFMatrix.zeros(Y1, U1)
        p = IOPParam.checked(
            TFMatrix.identity(Y1), TFMatrix.zeros(U1, Y1),
            TFMatrix.zeros(Y1, U1), TFMatrix.identity(U1), g=g,
        )
        assert iop_to_controller(p).is_zero


class TestSLPStateFeedback:
    def test_scalar_oracle(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        k = tf(U1, X1, [[RatFun(F(-1, 2))]])
        p = slp_sf_from_controller(plant, k)
        assert p.phi_x[0, 0] == RatFun(1, [0, 1])
        assert p.phi_u[0, 0] == RatFun(F(-1, 2), [0, 1])
        assert slp_sf_to_controller(p) == k

    def test_open_loop_stable(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        p = slp_sf_from_controller(plant, TFMatrix.zeros(U1, X1))
        assert p.phi_x == plant.resolvent()
        assert p.phi_u.is_zero

    def test_unstabilizable_rejected(self):
        plant = PlantSS.state_feedback([[2]], [[0]])
        with pytest.raises(InternalStabilityError):
            slp_sf_from_controller(plant, tf(U1, X1, [[RatFun(1)]]))

    def test_constraint_violation_rejected(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        bad = tf(X1, X1, [[RatFun(2, [0, 1])]])
        phi_u = tf(U1, X1, [[RatFun(F(-1, 2), [0, 1])]])
        with pytest.raises(InvariantViolation):
            SLPStateFeedback.checked(bad, phi_u, plant)


class TestSLPOutputFeedback:
    def test_three_by_three_adjugate_oracle(self):
        plant = PlantSS([[0]], [[1]], [[1]], [[0]])
        k = tf(U1, Y1, [[RatFun(F(1, 2))]])
        loop = output_feedback_loop(plant, k)
        s = adjugate_inverse(TFMatrix.identity(loop.space) - loop.R)
        p = slp_of_from_controller(plant, k)
        assert p.phi_xx == s.block("x", "x")
        assert p.phi_ux == s.block("u", "x")
        assert p.phi_xy == s.block("x", "y")
        assert p.phi_uy == s.block("u", "y")
        den = [F(-1, 2), 1]
        assert p.phi_xx[0, 0] == RatFun(1, den)
        assert p.phi_uy[0, 0] == RatFun([0, F(1, 2)], den)

    def test_zero_controller_open_loop(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
        p = slp_of_from_controller(plant, TFMatrix.zeros(U1, Y1))
        assert p.phi_xx == plant.resolvent()
        assert p.phi_ux.is_zero and p.phi_xy.is_zero and p.phi_uy.is_zero

    def test_zero_feedthrough_reduces_to_direct_formula(self):
        plant = PlantSS([[0]], [[1]], [[1]], [[0]])
        k = tf(U1, Y1, [[RatFun(F(1, 2))]])
        p = slp_of_from_controller(plant, k)
        k0 = p.phi_uy - p.phi_ux @ p.phi_xx.inverse() @ p.phi_xy
        assert slp_of_to_controller(p, plant.D) == k0 == k

    def test_feedthrough_roundtrip(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
        k = tf(U1, Y1, [[RatFun(F(-1, 4))]])
        p = slp_of_from_controller(plant, k)
        assert slp_of_to_controller(p, plant.D) == k

    def test_vanishing_cross_term(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
        p = slp_of_from_controller(plant, TFMatrix.zeros(U1, Y1))
        assert p.phi_xy.is_zero
        assert slp_of_to_controller(p, plant.D) == p.phi_uy

    def test_a_bundle_whose_column_identity_fails_is_refused(self):
        # shifting Phi_xy by (zI - A)^{-1} B Delta and Phi_uy by Delta keeps
        # every row identity of (I - R) S = I and breaks column x of S (I - R) = I
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
        p = slp_of_from_controller(plant, TFMatrix.zeros(U1, Y1))
        delta = tf(U1, Y1, [[RatFun(1, [0, 1])]])
        shift = plant.resolvent() @ TFMatrix.constant(X1, U1, plant.B) @ delta
        with pytest.raises(InvariantViolation, match=r"S \(I - R\) = I fails in column x"):
            SLPOutputFeedback.checked(p.phi_xx, p.phi_ux, p.phi_xy + shift, p.phi_uy + delta, plant)

    def test_unstable_loop_rejected(self):
        plant = PlantSS([[2]], [[1]], [[1]], [[0]])
        with pytest.raises(InternalStabilityError):
            slp_of_from_controller(plant, TFMatrix.zeros(U1, Y1))


@pytest.fixture(scope="module")
def fixture_loop():
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
    k = tf(U1, Y1, [[RatFun(F(-1, 4))]])
    return plant, k


class TestMixed:

    def test_roundtrip_mixed1(self, fixture_loop):
        plant, k = fixture_loop
        p = mixed1_from_controller(plant, k)
        assert mixed1_to_controller(p) == k
        p2 = mixed1_from_controller(plant, mixed1_to_controller(p))
        assert p2 == p

    def test_roundtrip_mixed2(self, fixture_loop):
        plant, k = fixture_loop
        p = mixed2_from_controller(plant, k)
        assert mixed2_to_controller(p) == k
        p2 = mixed2_from_controller(plant, mixed2_to_controller(p))
        assert p2 == p

    def test_zero_controller(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
        k0 = TFMatrix.zeros(U1, Y1)
        assert mixed1_to_controller(mixed1_from_controller(plant, k0)) == k0
        assert mixed2_to_controller(mixed2_from_controller(plant, k0)) == k0

    def test_constraint_violating_bundle_rejected(self, fixture_loop):
        plant, k = fixture_loop
        p = mixed1_from_controller(plant, k)
        with pytest.raises(InvariantViolation):
            MixedParam1.checked(p.phi_yx, p.phi_ux, 2 * p.phi_yy, p.phi_uy, plant)
        q = mixed2_from_controller(plant, k)
        with pytest.raises(InvariantViolation):
            MixedParam2.checked(q.phi_xy, q.phi_uy, q.phi_xu, 2 * q.phi_uu, plant)


class TestEquivalenceMaps:
    def test_youla_to_iop_trivial(self, stable_factors):
        plant, f = stable_factors
        q = YoulaParam.checked(TFMatrix.zeros(U1, Y1))
        p = youla_to_iop(f, q)
        assert p.Y == TFMatrix.identity(Y1) and p.W == plant.transfer()
        assert p.U.is_zero and p.Z == TFMatrix.identity(U1)

    def test_youla_to_iop_commutes(self, unstable_factors):
        _, f = unstable_factors
        rng = random.Random(3)
        for _ in range(4):
            q = YoulaParam.checked(rand_fir_tfmatrix(rng, U1, Y1, deg=2))
            k = youla_to_controller(f, q)
            direct = iop_from_controller(f.g(), k)
            mapped = youla_to_iop(f, q)
            assert (mapped.Y, mapped.U, mapped.W, mapped.Z) == (
                direct.Y, direct.U, direct.W, direct.Z)
            assert iop_to_controller(mapped) == k

    def test_slp_sf_to_iop_formula_and_transformation(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        k = tf(U1, X1, [[RatFun(F(-1, 2))]])
        p = slp_sf_from_controller(plant, k)
        mapped = slp_sf_to_iop(p, plant)
        # frozen expected values from S T with T = diag(z - 1/2, 1)
        assert mapped.Y[0, 0] == RatFun([-1, 2], [0, 2])
        assert mapped.U[0, 0] == RatFun([1, -2], [0, 4])
        assert mapped.W[0, 0] == RatFun(1, [0, 1])
        assert mapped.Z[0, 0] == RatFun([-1, 2], [0, 2])
        direct = iop_from_controller(plant.state_transfer(), k)
        assert (mapped.Y, mapped.U, mapped.W, mapped.Z) == (
            direct.Y, direct.U, direct.W, direct.Z)
        # the two loops are equivalent systems under T = diag(zI - A, I)
        t = Transformation.from_matrix(
            TFMatrix.from_blocks(
                SignalSpace.make(x=1, u=1), SignalSpace.make(x=1, u=1),
                {("x", "x"): plant.z_minus_a(), ("u", "u"): [[1]]},
            )
        )
        r1 = state_feedback_loop(plant, k)
        r2 = plant_feedback_loop(plant.state_transfer(), k)
        assert verify_equivalent(r1, r2, t)

    def test_slp_sf_to_iop_zero_controller(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        p = slp_sf_from_controller(plant, TFMatrix.zeros(U1, X1))
        mapped = slp_sf_to_iop(p, plant)
        assert mapped.Y == TFMatrix.identity(X1) and mapped.U.is_zero

    def test_slp_of_to_iop_commutes_without_feedthrough(self):
        plant = PlantSS([[0]], [[1]], [[1]], [[0]])
        k = tf(U1, Y1, [[RatFun(F(1, 2))]])
        p = slp_of_from_controller(plant, k)
        mapped = slp_of_to_iop(p, plant)
        direct = iop_from_controller(plant.transfer(), k)
        assert (mapped.Y, mapped.U, mapped.W, mapped.Z) == (
            direct.Y, direct.U, direct.W, direct.Z)

    def test_slp_of_to_iop_zero_controller(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
        p = slp_of_from_controller(plant, TFMatrix.zeros(U1, Y1))
        mapped = slp_of_to_iop(p, plant)
        assert mapped.U.is_zero and mapped.Y == TFMatrix.identity(Y1)

    def test_slp_of_to_iop_with_feedthrough(self):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
        k = tf(U1, Y1, [[RatFun(F(-1, 4))]])
        p = slp_of_from_controller(plant, k)
        mapped = slp_of_to_iop(p, plant)
        # oracle: the (y, u) sub-blocks of the output-feedback loop inverse
        loop = output_feedback_loop(plant, k)
        s = stability_from_realization(loop)
        assert mapped.Y == s.S.block("y", "y")
        assert mapped.U == s.S.block("u", "y")
        assert mapped.W == s.S.block("y", "u")
        assert mapped.Z == s.S.block("u", "u")
        assert iop_to_controller(mapped) == k


class TestForwardMapsCloseLoops:
    def test_every_forward_output_passes_conditions(self, unstable_factors):
        _, f = unstable_factors
        rng = random.Random(5)
        q = YoulaParam.checked(rand_fir_tfmatrix(rng, U1, Y1, deg=2))
        k = youla_to_controller(f, q)
        loop = plant_feedback_loop(f.g(), k)
        s = stability_from_realization(loop)
        assert check_conditions(loop, s).passed


@pytest.fixture(scope="module")
def mimo_plant():
    return PlantSS(
        [[F(1, 4), F(1, 2)], [F(-1, 8), F(1, 3)]],
        [[1, 0], [F(1, 2), 1]],
        [[1, F(1, 4)], [0, 1]],
        [[F(1, 2), 0], [F(1, 4), F(1, 3)]],
    )


class TestFullMIMO:
    """Square-plant coverage: n = m = p = 2 with nonzero D catches any
    transposition slip the scalar fixtures would miss."""

    def _admissible(self, rng, plant):
        from rstab.errors import InternalStabilityError

        while True:
            k = rand_fir_tfmatrix(rng, plant.u_space, plant.y_space, deg=1, span=1, max_den=8)
            try:
                return k, slp_of_from_controller(plant, k)
            except InternalStabilityError:
                continue

    def test_output_feedback_and_mixed_roundtrips(self, mimo_plant):
        rng = random.Random(2024)
        k, p = self._admissible(rng, mimo_plant)
        assert slp_of_to_controller(p, mimo_plant.D) == k
        assert slp_of_from_controller(mimo_plant, slp_of_to_controller(p, mimo_plant.D)) == p
        assert mixed1_to_controller(mixed1_from_controller(mimo_plant, k)) == k
        assert mixed2_to_controller(mixed2_from_controller(mimo_plant, k)) == k

    def test_iop_map_matches_loop_blocks(self, mimo_plant):
        rng = random.Random(7)
        k, p = self._admissible(rng, mimo_plant)
        mapped = slp_of_to_iop(p, mimo_plant)
        s = stability_from_realization(output_feedback_loop(mimo_plant, k))
        assert mapped.Y == s.S.block("y", "y") and mapped.U == s.S.block("u", "y")
        assert mapped.W == s.S.block("y", "u") and mapped.Z == s.S.block("u", "u")
        assert iop_to_controller(mapped) == k

    def test_unstable_plant_youla_with_feedthrough(self, mimo_plant):
        import numpy as np
        from rstab import dare_lqr
        from rstab.errors import InternalStabilityError

        plant = PlantSS([[F(3, 2), F(1, 2)], [0, F(1, 4)]], mimo_plant.B,
                        mimo_plant.C, mimo_plant.D)
        f_gain = dare_lqr(plant, np.eye(2), np.eye(2))
        dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
        l_gain = dare_lqr(dual, np.eye(2), np.eye(2)).T
        f = coprime_factorize(plant, f_gain, l_gain)
        assert f.g() == plant.transfer()
        rng = random.Random(11)
        while True:
            q = YoulaParam.checked(
                rand_fir_tfmatrix(rng, plant.u_space, plant.y_space, deg=1, span=1, max_den=8))
            k = youla_to_controller(f, q)
            try:
                q2 = controller_to_youla(f, k)
            except InternalStabilityError:
                continue
            break
        assert q2.Q == q.Q
        mapped = youla_to_iop(f, q)
        s = stability_from_realization(plant_feedback_loop(f.g(), k))
        assert mapped.Y == s.S.block("y", "y") and mapped.Z == s.S.block("u", "u")


LEMMA_PLANTS = {
    "feedthrough": PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]]),  # the fixture_loop plant
    "state": PlantSS.state_feedback([[F(1, 2)]], [[1]]),  # C = I, D = 0
}


FROM_CONTROLLER = {
    "slp_sf": slp_sf_from_controller,
    "slp_of": slp_of_from_controller,
    "mixed1": mixed1_from_controller,
    "mixed2": mixed2_from_controller,
}


def _library_bundle(name, plant):
    """The named bundle of the loop K = -1/4 closes around the plant, and what
    its ``checked`` takes after the blocks."""
    k = tf(U1, Y1, [[RatFun(F(-1, 4))]])
    if name == "iop":
        g = plant.transfer()
        if plant.is_strictly_proper:  # the IOP bundle of the loop that measures the state
            g, k = plant.state_transfer(), k.relabel(U1, X1)
        return iop_from_controller(g, k), g
    if REGISTRY[name].signal == "x":
        k = k.relabel(U1, X1)
    return FROM_CONTROLLER[name](plant, k), plant


@pytest.mark.parametrize("plant_name", sorted(LEMMA_PLANTS))
@pytest.mark.parametrize("name, field", [
    (name, field) for name, entry in REGISTRY.items() if name != "youla" for field in entry.fields
])
def test_derived_identities_agree_with_the_hand_derived_oracle(name, field, plant_name):
    bundle, against = _library_bundle(name, LEMMA_PLANTS[plant_name])
    cls, fields = type(bundle), REGISTRY[name].fields
    assert all(lhs == rhs for lhs, rhs in bundle_identities(bundle, against))
    assert cls.checked(*(getattr(bundle, f) for f in fields), against) == bundle

    block = getattr(bundle, field)
    entries = [list(row) for row in block.entries]
    entries[0][0] = entries[0][0] + RatFun(1, [0, 100])  # exactly 1/(100 z)
    bad = dataclasses.replace(bundle, **{field: TFMatrix(block.rows, block.cols, entries)})
    assert not all(lhs == rhs for lhs, rhs in bundle_identities(bad, against))
    with pytest.raises(InvariantViolation, match=rf"^{cls.__name__}: .* fails in (row|column) "):
        cls.checked(*(getattr(bad, f) for f in fields), against)

    # the same entries over a block w that the loop does not have, on either side
    w = SignalSpace.single("w", block.rows.total), SignalSpace.single("w", block.cols.total)
    for rows, cols in ((w[0], block.cols), (block.rows, w[1])):
        bad = dataclasses.replace(bundle, **{field: block.relabel(rows, cols)})
        with pytest.raises(SpaceMismatchError, match=rf"^{cls.__name__} block {field} must be over rows "):
            cls.checked(*(getattr(bad, f) for f in fields), against)


def test_a_plant_inverts_zi_minus_a_once(monkeypatch):
    inverted, loops = [], []
    real, real_loop = TFMatrix.inverse, parameterizations.stability_from_realization

    def spy(self):
        inverted.append(self)
        return real(self)

    def spy_loop(r):
        loops.append(r)
        return real_loop(r)

    monkeypatch.setattr(TFMatrix, "inverse", spy)
    monkeypatch.setattr(parameterizations, "stability_from_realization", spy_loop)
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
    k = tf(U1, Y1, [[RatFun(F(-1, 4))]])
    bundle = mixed1_from_controller(plant, k)
    for target in ("slp_of", "mixed2", "iop"):
        convert("mixed1", target, bundle, plant)
    plant.transfer()
    plant.state_transfer()
    assert sum(m == plant.z_minus_a() for m in inverted) == 1
    assert plant.resolvent() is plant.resolvent()

    # Youla enters and leaves the completion as S[u,y]: no loop is built, and
    # the only inverse is the slp_of target's S[u,u] (D != 0)
    f = coprime_factorize(plant, [[F(-1, 2)]], [[F(-1, 2)]])
    q, expected = controller_to_youla(f, k), slp_of_from_controller(plant, k)
    s_uu = stability_from_realization(output_feedback_loop(plant, k)).S.block("u", "u")
    inverted.clear()
    loops.clear()
    assert convert("mixed1", "youla", bundle, plant, lambda: f) == q
    assert convert("youla", "slp_of", q, plant, lambda: f) == expected
    assert loops == []
    assert inverted == [s_uu]


@pytest.mark.parametrize("name", ["iop", "slp_of", "mixed1", "mixed2"])
def test_a_bundle_whose_controller_is_improper_is_refused(name):
    # x+ = x/2 + u, y = x + u closed by the improper K = z - 1/2: every block that
    # these bundles hold is stable proper and meets the identities, but
    # S[u,u] = -1/(z - 1/2) has no proper inverse
    plant = LEMMA_PLANTS["feedthrough"]
    h = RatFun([F(-1, 2), 1])
    s = stability_from_realization(output_feedback_loop(plant, tf(U1, Y1, [[h]]))).S
    assert s.block("u", "u") == tf(U1, U1, [[-1 / h]])
    assert s.block("x", "x") == tf(X1, X1, [[RatFun([F(-3, 2), 1]) / (h * h)]])
    entry = REGISTRY[name]
    blocks = [s.block(r, c) for r, c in entry.blocks]
    with pytest.raises(InvariantViolation, match=r"S\[u,u\] has no proper inverse"):
        entry.bundle.checked(*blocks, plant.transfer() if name == "iop" else plant)


def test_a_bundle_without_a_controller_is_refused():
    # on the same plant these blocks meet every identity and are stable proper,
    # but S[u,u] = Phi_ux B + Phi_uy D + I = 0, so no controller has them
    plant = LEMMA_PLANTS["feedthrough"]
    p = RatFun([F(1, 2), 1])
    with pytest.raises(InvariantViolation, match=r"S\[u,u\] has no proper inverse"):
        SLPOutputFeedback.checked(tf(X1, X1, [[1 / p]]), tf(U1, X1, [[-1 / p]]),
                                  tf(X1, Y1, [[-1 / p]]), tf(U1, Y1, [[RatFun([F(1, 2), -1]) / p]]),
                                  plant)


# -- the public loops against R written out by hand ------------------------------


def _matrix(space, block_rows):
    """The matrix over ``space`` with the given rows of blocks, None for a zero block."""
    dims = [dim for _, dim in space]
    return TFMatrix(space, space, [
        [RatFun.zero() if b is None else b.entries[i][j] for b, q in zip(blocks, dims) for j in range(q)]
        for blocks, p in zip(block_rows, dims) for i in range(p)])


def _dynamics(plant):
    """A + (1 - z) I, entry by entry."""
    n = plant.n
    return tf(plant.x_space, plant.x_space,
              [[RatFun([plant.A[i, j] + int(i == j), -int(i == j)]) for j in range(n)] for i in range(n)])


def _constant(rows, cols, values):
    return tf(rows, cols, [[RatFun(v) for v in row] for row in values])


def _output_loop_by_hand(plant, k):
    """R = [[A + (1-z)I, B, 0], [0, 0, K], [C, D, 0]] over (x, u, y)."""
    x, u, y = plant.x_space, plant.u_space, plant.y_space
    space = SignalSpace(x.blocks + u.blocks + y.blocks)
    r = _matrix(space, [[_dynamics(plant), _constant(x, u, plant.B), None],
                        [None, None, k],
                        [_constant(y, x, plant.C), _constant(y, u, plant.D), None]])
    return r, {("x", "y"), ("u", "x"), ("u", "u"), ("y", "y")}


def _state_loop_by_hand(plant, k):
    """R = [[A + (1-z)I, B], [K, 0]] over (x, u)."""
    x, u = plant.x_space, plant.u_space
    r = _matrix(SignalSpace(x.blocks + u.blocks),
                [[_dynamics(plant), _constant(x, u, plant.B)], [k, None]])
    return r, {("u", "u")}


def _small_controller(rows, cols):
    """A fixed constant controller with distinct entries: -1/4, 1/8, ... ."""
    return tf(rows, cols, [[RatFun(F((-1) ** (i + j + 1), 4 * 2 ** (i + j))) for j in range(cols.total)]
                           for i in range(rows.total)])


PINNED_PLANTS = {
    "mimo": lambda mimo: mimo,  # D != 0
    "mimo_without_feedthrough": lambda mimo: PlantSS(mimo.A, mimo.B, mimo.C, np.zeros((2, 2), dtype=int)),
    "scalar_without_feedthrough": lambda mimo: PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]]),
}


@pytest.mark.parametrize("plant_name", sorted(PINNED_PLANTS))
def test_public_loops_match_r_written_out_by_hand(plant_name, mimo_plant):
    plant = PINNED_PLANTS[plant_name](mimo_plant)
    k_y = _small_controller(plant.u_space, plant.y_space)
    k_x = _small_controller(plant.u_space, plant.x_space)
    g = plant.transfer()
    cases = [
        (output_feedback_loop(plant, k_y), _output_loop_by_hand(plant, k_y)),
        (state_feedback_loop(plant, k_x), _state_loop_by_hand(plant, k_x)),
        (plant_feedback_loop(g, k_y),
         (_matrix(SignalSpace(g.rows.blocks + g.cols.blocks), [[None, g], [k_y, None]]),
          {("y", "y"), ("u", "u")})),
    ]
    for loop, (r, zeros) in cases:
        assert loop.R == r
        assert loop.structural_zeros == zeros


def test_a_controller_over_other_spaces_is_refused(mimo_plant):
    # one rule for every loop: K's rows are u's space and its columns the measured signal's,
    # so a K over (u, y) does not close the state loop over (x, u), though n = p here
    plant = PlantSS(mimo_plant.A, mimo_plant.B, [[1, 0], [0, 1]], np.zeros((2, 2), dtype=int))
    k_y = _small_controller(plant.u_space, plant.y_space)
    k_x = k_y.relabel(plant.u_space, plant.x_space)
    wrong = [
        (state_feedback_loop, k_y),
        (slp_sf_from_controller, k_y),
        (output_feedback_loop, k_x),
        (slp_of_from_controller, k_x),
        (mixed1_from_controller, k_x),
        (mixed2_from_controller, k_x),
        (output_feedback_loop, k_y.relabel(plant.y_space, plant.u_space)),
        (lambda p, k: plant_feedback_loop(p.transfer(), k), k_x),
        (lambda p, k: iop_from_controller(p.state_transfer(), k), k_y),
    ]
    for build, k in wrong:
        with pytest.raises(SpaceMismatchError, match="controller spaces must be the reverse of the plant's"):
            build(plant, k)
    assert state_feedback_loop(plant, k_x).R.block("u", "x") == k_x
    assert output_feedback_loop(plant, k_y).R.block("u", "y") == k_y


# -- every block of S completed from each entry's held blocks ------------------------


@pytest.mark.parametrize("plant_name", ["mimo", *sorted(LEMMA_PLANTS)])
@pytest.mark.parametrize("name", [name for name in REGISTRY if name != "youla"])
def test_completion_derives_every_block_of_s(name, plant_name, mimo_plant):
    plant = mimo_plant if plant_name == "mimo" else LEMMA_PLANTS[plant_name]
    entry = REGISTRY[name]
    by_hand = _state_loop_by_hand if entry.signal == "x" else _output_loop_by_hand
    k = _small_controller(plant.u_space, plant.x_space if entry.signal == "x" else plant.y_space)
    loop, _ = by_hand(plant, k)
    s = adjugate_inverse(TFMatrix.identity(loop.rows) - loop)
    source = s
    if name == "iop":
        # an IOP bundle is read off the loop around G, and completes the loop over (x, u, y)
        r_g = _matrix(SignalSpace(plant.y_space.blocks + plant.u_space.blocks),
                      [[None, plant.transfer()], [k, None]])
        source = adjugate_inverse(TFMatrix.identity(r_g.rows) - r_g)
    held = {(i, j): source.block(i, j) for i, j in entry.blocks}
    space, r, _ = _plant_part(plant, entry.signal)
    lemma = _Lemma(plant, space, r, held)
    for i in space.names:
        for j in space.names:
            assert lemma.block(i, j) == s.block(i, j), (i, j)
