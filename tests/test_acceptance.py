"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from rstab import (
    FIRPhi,
    PlantSS,
    RatFun,
    RealizationVariant,
    SignalSpace,
    TFMatrix,
    Transformation,
    YoulaParam,
    build_realization,
    certify_realization,
    controller_to_youla,
    coprime_factorize,
    dare_lqr,
    dependency_complete,
    design_separation_constraint,
    fir_from_slp,
    fir_to_tfmatrix,
    impulse_match,
    iop_from_controller,
    iop_to_controller,
    mixed1_from_controller,
    mixed1_to_controller,
    mixed2_from_controller,
    mixed2_to_controller,
    output_feedback_loop,
    plant_feedback_loop,
    slp_from_fir,
    slp_of_from_controller,
    slp_of_to_controller,
    slp_of_to_iop,
    slp_sf_from_controller,
    slp_sf_to_controller,
    slp_sf_to_iop,
    stability_from_realization,
    state_feedback_loop,
    synthesize_sf_h2,
    verify_equivalent,
    verify_lemma,
    youla_to_controller,
    youla_to_iop,
)
from rstab.errors import InfeasibleError, InternalStabilityError
from rstab.sls import ORIGINAL

from helpers import dyadic_fir_pair, rand_fir_tfmatrix, rand_realization_with_zero_diag

U1 = SignalSpace.single("u", 1)
Y1 = SignalSpace.single("y", 1)

_CORPUS = []


def _lemma_corpus():
    """100 random realizations (2-4 blocks, degrees <= 3, invertible I - R),
    each with one zeroed diagonal block so the dependency criterion can run
    on the same corpus."""
    if not _CORPUS:
        rng = random.Random(20260810)
        while len(_CORPUS) < 100:
            r, target = rand_realization_with_zero_diag(rng, max_deg=3)
            _CORPUS.append((r, target, stability_from_realization(r)))
    return _CORPUS


def test_criterion_1_lemma_suite():
    start = time.time()
    corpus = _lemma_corpus()
    assert len(corpus) >= 100
    for r, _, s in corpus:
        assert verify_lemma(r, s)
        eye = TFMatrix.identity(r.space)
        assert (eye - s.S.inverse()) == r.R
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"lemma suite took {elapsed:.1f}s (> 60s)"
    print(f"\n[acceptance] criterion 1 (lemma suite, {len(corpus)} fixtures, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_dependency_suite():
    corpus = _lemma_corpus()
    for r, target, s in corpus:
        partial = {b: s.S.col_block(b) for b in r.space.names if b != target}
        assert dependency_complete(r, partial, target) == s.S.col_block(target)
    print(f"\n[acceptance] criterion 2 (dependency suite, {len(corpus)} fixtures): PASS")


# -- round-trip fixtures -------------------------------------------------------


def _youla_plants():
    out = []
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
    out.append((plant, coprime_factorize(plant, [[0]], [[0]])))
    plant = PlantSS([[2]], [[1]], [[1]], [[0]])
    out.append((plant, coprime_factorize(plant, [[-2]], [[-2]])))
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
    out.append((plant, coprime_factorize(plant, [[0]], [[0]])))
    a = [[1.25, 0.5], [0.0, 0.75]]
    plant = PlantSS(a, np.eye(2), np.eye(2), np.zeros((2, 2)))
    out.append((plant, _lqr_factors(plant)))
    # non-square loop: one input, two measured outputs
    plant = PlantSS([[1.5, 0.25], [0.0, 0.5]], [[1.0], [0.5]], np.eye(2), np.zeros((2, 1)))
    out.append((plant, _lqr_factors(plant)))
    return out


def _lqr_factors(plant):
    f_gain = dare_lqr(plant, np.eye(plant.n), np.eye(plant.m))
    dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
    l_gain = dare_lqr(dual, np.eye(plant.n), np.eye(plant.p)).T
    return coprime_factorize(plant, f_gain, l_gain)


def _of_plants():
    return [
        PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]]),
        PlantSS([[0]], [[1]], [[1]], [[1]]),
        PlantSS([[F(-1, 2)]], [[1]], [[1]], [[F(1, 2)]]),
        PlantSS([[F(1, 4), F(1, 2)], [0, F(-1, 4)]], [[1], [F(1, 2)]], [[1, 0]], [[0]]),
        PlantSS([[F(1, 2), F(1, 4)], [0, F(1, 3)]], [[0], [1]], [[0, 1]], [[1]]),
    ]


def _admissible_of_controller(rng, plant):
    while True:
        k = rand_fir_tfmatrix(
            rng, SignalSpace.single("u", plant.m), SignalSpace.single("y", plant.p),
            deg=2, span=1, max_den=4,
        )
        try:
            slp_of_from_controller(plant, k)
            return k
        except InternalStabilityError:
            continue


def test_criterion_3_round_trip_suite():
    rng = random.Random(42)
    count = 50

    plants = _youla_plants()
    for i in range(count):
        plant, f = plants[i % len(plants)]
        usp = SignalSpace.single("u", plant.m)
        ysp = SignalSpace.single("y", plant.p)
        while True:
            q = YoulaParam.checked(rand_fir_tfmatrix(rng, usp, ysp, deg=3 if plant.n == 1 else 1))
            k = youla_to_controller(f, q)
            try:
                q2 = controller_to_youla(f, k)
            except InternalStabilityError:
                # with D != 0 a random Q can break well-posedness at z = infinity
                # (I - D Q(inf) singular); such Q yield no proper controller
                continue
            break
        assert q2.Q == q.Q
        assert youla_to_controller(f, q2) == k

    strict = [(p, f) for p, f in plants if p.is_strictly_proper]
    for i in range(count):
        plant, f = strict[i % len(strict)]
        usp = SignalSpace.single("u", plant.m)
        ysp = SignalSpace.single("y", plant.p)
        q = YoulaParam.checked(rand_fir_tfmatrix(rng, usp, ysp, deg=2 if plant.n == 1 else 1))
        k = youla_to_controller(f, q)
        g = plant.transfer()
        p = iop_from_controller(g, k)
        assert iop_to_controller(p) == k
        p2 = iop_from_controller(g, iop_to_controller(p))
        assert p2 == p

    sf_plants = [
        PlantSS.state_feedback([[0.5]], [[1.0]]),
        PlantSS.state_feedback([[0.75]], [[1.0]]),
        PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2)),
    ]
    for i in range(count):
        plant = sf_plants[i % len(sf_plants)]
        fx, fu = dyadic_fir_pair(rng, plant, rng.randint(2, 4))
        p = slp_from_fir(plant, fx, fu)
        k = slp_sf_to_controller(p)
        p2 = slp_sf_from_controller(plant, k)
        assert p2 == p
        assert slp_sf_to_controller(p2) == k

    of_fixtures = []
    of_plants = _of_plants()
    for i in range(count):
        plant = of_plants[i % len(of_plants)]
        of_fixtures.append((plant, _admissible_of_controller(rng, plant)))

    for plant, k in of_fixtures:
        p = slp_of_from_controller(plant, k)
        assert slp_of_to_controller(p, plant.D) == k
        assert slp_of_from_controller(plant, slp_of_to_controller(p, plant.D)) == p

    for plant, k in of_fixtures:
        p = mixed1_from_controller(plant, k)
        assert mixed1_to_controller(p) == k
        assert mixed1_from_controller(plant, mixed1_to_controller(p)) == p

    for plant, k in of_fixtures:
        p = mixed2_from_controller(plant, k)
        assert mixed2_to_controller(p) == k
        assert mixed2_from_controller(plant, mixed2_to_controller(p)) == p

    print(f"\n[acceptance] criterion 3 (round trips, 6 families x {count} fixtures): PASS")


def test_criterion_4_equivalence_suite():
    rng = random.Random(4242)
    count = 50

    # Youla <-> IOP share one loop; the translation commutes with extraction
    plants = [(p, f) for p, f in _youla_plants() if p.is_strictly_proper]
    for i in range(count):
        plant, f = plants[i % len(plants)]
        usp = SignalSpace.single("u", plant.m)
        ysp = SignalSpace.single("y", plant.p)
        q = YoulaParam.checked(rand_fir_tfmatrix(rng, usp, ysp, deg=2 if plant.n == 1 else 1))
        k = youla_to_controller(f, q)
        mapped = youla_to_iop(f, q)
        direct = iop_from_controller(plant.transfer(), k)
        assert mapped == direct
        assert iop_to_controller(mapped) == k

    # state-feedback SLP <-> IOP through T = diag(zI - A, I)
    sf_plants = [
        PlantSS.state_feedback([[0.5]], [[1.0]]),
        PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2)),
    ]
    for i in range(count):
        plant = sf_plants[i % len(sf_plants)]
        fx, fu = dyadic_fir_pair(rng, plant, rng.randint(2, 3))
        p = slp_from_fir(plant, fx, fu)
        k = slp_sf_to_controller(p)
        mapped = slp_sf_to_iop(p, plant)
        direct = iop_from_controller(plant.state_transfer(), k)
        assert mapped == direct
        loop_sp = SignalSpace((("x", plant.n), ("u", plant.m)))
        t = Transformation.from_matrix(
            TFMatrix.from_blocks(
                loop_sp, loop_sp,
                {("x", "x"): plant.z_minus_a(),
                 ("u", "u"): TFMatrix.identity(SignalSpace.single("u", plant.m))},
            )
        )
        r1 = state_feedback_loop(plant, k)
        r2 = plant_feedback_loop(plant.state_transfer(), k)
        assert verify_equivalent(r1, r2, t)

    # output-feedback SLP -> IOP equals the (y, u) sub-blocks of the loop
    of_plants = _of_plants()
    for i in range(count):
        plant = of_plants[i % len(of_plants)]
        k = _admissible_of_controller(rng, plant)
        p = slp_of_from_controller(plant, k)
        mapped = slp_of_to_iop(p, plant)
        s = stability_from_realization(output_feedback_loop(plant, k))
        assert mapped.Y == s.S.block("y", "y")
        assert mapped.U == s.S.block("u", "y")
        assert mapped.W == s.S.block("y", "u")
        assert mapped.Z == s.S.block("u", "u")
        assert iop_to_controller(mapped) == k
        if plant.is_strictly_proper:
            assert mapped == iop_from_controller(plant.transfer(), k)

    print(f"\n[acceptance] criterion 4 (equivalence maps, 3 maps x {count} fixtures): PASS")


def _valid_pairs():
    rng = random.Random(987)
    plants = [
        PlantSS.state_feedback([[0.5]], [[1.0]]),
        PlantSS.state_feedback([[0.25, 0.5], [0.0, -0.5]], np.eye(2)),
    ]
    pairs = []
    for i in range(10):
        plant = plants[i % 2]
        pairs.append((plant, *dyadic_fir_pair(rng, plant, 1 + i % 4)))
    return pairs


def test_criterion_5_realization_suite():
    for plant, fx, fu in _valid_pairs():
        phi_x = fir_to_tfmatrix(fx, plant.x_space, plant.x_space)
        phi_u = fir_to_tfmatrix(fu, plant.u_space, plant.x_space)
        zinv_eye = TFMatrix.diagonal(plant.x_space, RatFun(1, [0, 1]))
        for v in (
            RealizationVariant.original(fx, fu),
            RealizationVariant.deployment(fx, fu),
            RealizationVariant.design_separation(fx, fu, fx, fu),
        ):
            rep = certify_realization(v, plant)
            assert rep.passed, (v.kind, rep.findings)
            if v.kind == ORIGINAL:
                s = rep.stability.S
                assert s.block("x", "x") == phi_x
                assert s.block("u", "x") == phi_u.relabel(
                    s.block("u", "x").rows, s.block("u", "x").cols)
                assert s.block("delta", "x") == zinv_eye.relabel(
                    s.block("delta", "x").rows, s.block("delta", "x").cols)
        # design separation with the response pair itself satisfies the
        # fixed-point constraint and certifies
        slp = slp_from_fir(plant, fx, fu)
        assert design_separation_constraint(slp.phi_x, slp.phi_u, slp, plant)

    # deployment premise violated: A not Schur stable is flagged unstable
    plant = PlantSS.state_feedback([[2.0]], [[1.0]])
    fx = FIRPhi((np.array([[1.0]]),))
    fu = FIRPhi((np.array([[-2.0]]),))
    rep = certify_realization(RealizationVariant.deployment(fx, fu), plant)
    assert not rep.passed and rep.schur_stable is False
    assert any(f.kind == "unstable" for f in rep.findings)

    print("\n[acceptance] criterion 5 (realization variants, 10 fixtures x 3 variants): PASS")


def test_criterion_5_deployment_is_a_plant_only_transformation_of_the_original():
    # I - R_dep = T^{-1} (I - R_orig) over (x, u, delta) with the plant-only
    # T^{-1} = [[I, 0, 0], [0, I, 0], [0, z^{-1} B, z^{-1} (zI - A)]]; it holds
    # on the affine subspace (zI - A) Phi_x - B Phi_u = I, which a corrupted tap leaves
    plant = PlantSS.state_feedback([[F(1, 4), F(1, 2)], [0, F(-1, 2)]], [[0], [1]])
    fx, fu = fir_from_slp(synthesize_sf_h2(plant, np.eye(2), [[1]], 4))
    x_sp, u_sp = plant.x_space, plant.u_space
    d_sp = SignalSpace.single("delta", plant.n)
    space = SignalSpace(x_sp.blocks + u_sp.blocks + d_sp.blocks)
    zinv = RatFun.z_inv()
    t_inv = TFMatrix.from_blocks(space, space, {
        ("x", "x"): TFMatrix.identity(x_sp),
        ("u", "u"): TFMatrix.identity(u_sp),
        ("delta", "u"): zinv * TFMatrix.constant(d_sp, u_sp, plant.B),
        ("delta", "delta"): zinv * plant.z_minus_a().relabel(d_sp, d_sp),
    })
    t = Transformation.from_matrix(t_inv).inverted()
    taps = list(fu.taps)
    taps[1] = taps[1] + F(1, 8)
    for phi_u, holds in ((fu, True), (FIRPhi(tuple(taps)), False)):
        orig = build_realization(RealizationVariant.original(fx, phi_u), plant)
        dep = build_realization(RealizationVariant.deployment(fx, phi_u), plant)
        assert verify_equivalent(orig, dep, t) is holds

    print("\n[acceptance] criterion 5 (deployment = plant-only transformation of the "
          "original, corrupted tap refused): PASS")


def test_criterion_6_simulation_cross_check():
    pairs = _valid_pairs()
    assert len(pairs) >= 10
    for plant, fx, fu in pairs:
        for v in (
            RealizationVariant.original(fx, fu),
            RealizationVariant.deployment(fx, fu),
            RealizationVariant.design_separation(fx, fu, fx, fu),
        ):
            rep = impulse_match(v, plant, horizon=50, tol=1e-9)
            assert rep.passed, (v.kind, rep.max_deviation)

    plant, fx, fu = pairs[0]
    taps = list(fu.taps)
    taps[0] = taps[0] + 0.1
    corrupted = FIRPhi(tuple(taps))
    rep = impulse_match(RealizationVariant.original(fx, corrupted), plant, 50, tol=1e-9)
    assert not rep.passed and rep.max_deviation >= 1e-2

    print("\n[acceptance] criterion 6 (impulse match, 10 fixtures x 3 variants, "
          "tol 1e-9, corrupted tap detected): PASS")


def test_criterion_7_synthesis():
    plant = PlantSS.state_feedback([[0.5]], [[1.0]])
    bundle = synthesize_sf_h2(plant, [[1.0]], [[1.0]], 30)

    # exact affine identity after rationalization
    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    assert plant.z_minus_a() @ bundle.phi_x - b @ bundle.phi_u == TFMatrix.identity(plant.x_space)

    # float-tap residual of the recursion form
    fx, fu = fir_from_slp(bundle)
    a_np = plant.A.astype(float)
    b_np = plant.B.astype(float)
    resid = float(np.abs(fx.taps[0] - np.eye(1)).max())
    for k in range(29):
        resid = max(resid, float(np.abs(fx.taps[k + 1] - a_np @ fx.taps[k] - b_np @ fu.taps[k]).max()))
    resid = max(resid, float(np.abs(a_np @ fx.taps[29] + b_np @ fu.taps[29]).max()))
    assert resid <= 1e-10

    gain = dare_lqr(plant, [[1.0]], [[1.0]])
    assert abs(fu.taps[0][0, 0] - gain[0, 0]) <= 1e-6

    for bad in (
        PlantSS.state_feedback([[1.0]], [[0.0]]),
        PlantSS.state_feedback([[2.0]], [[0.0]]),
    ):
        with pytest.raises(InfeasibleError):
            synthesize_sf_h2(bad, [[1.0]], [[1.0]], 10)

    print("\n[acceptance] criterion 7 (H2 synthesis: residual <= 1e-10 and exact, "
          "gain matches LQR within 1e-6, infeasible rejected): PASS")


def test_criterion_7_long_horizon_synthesis():
    # float entries are read as their exact 53-bit dyadic values, so the taps'
    # denominators run to thousands of bits at this horizon
    start = time.time()
    plant = PlantSS.state_feedback([[1.2, 1.0], [0.0, 0.7]], [[0.0], [1.0]])
    horizon = 40
    bundle = synthesize_sf_h2(plant, np.eye(2), [[1.0]], horizon)

    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    assert plant.z_minus_a() @ bundle.phi_x - b @ bundle.phi_u == TFMatrix.identity(plant.x_space)
    fx, fu = fir_from_slp(bundle, horizon)
    assert certify_realization(RealizationVariant.original(fx, fu), plant).passed
    gain = dare_lqr(plant, np.eye(2), [[1.0]])
    assert float(np.abs(fu.taps[0].astype(float) - gain).max()) <= 1e-6
    elapsed = time.time() - start
    assert elapsed <= 20.0, f"long-horizon synthesis took {elapsed:.1f}s (> 20s)"
    print(f"\n[acceptance] criterion 7 (H2 synthesis at T = {horizon}, float plant, "
          f"{elapsed:.1f}s: exact, certified, gain matches LQR within 1e-6): PASS")


def test_criterion_8_coprime_factors():
    rng = random.Random(778899)
    fixtures = 0
    scalars = [0.0, 0.5, -0.75, 2.0, 1.5, -1.25]
    feedthroughs = [0.0, 0.5]
    plants = []
    for a in scalars:
        for d in feedthroughs:
            plants.append(PlantSS([[a]], [[1.0]], [[1.0]], [[d]]))
    for i in range(8):
        a = np.array([[rng.choice([-1.5, -0.5, 0.5, 1.5]), rng.choice([0.25, 0.5])],
                      [0.0, rng.choice([-0.5, 0.25, 0.75])]])
        d = 0.5 * np.eye(2) if i % 2 else np.zeros((2, 2))
        plants.append(PlantSS(a, np.eye(2), np.eye(2), d))
    for plant in plants:
        f_gain = dare_lqr(plant, np.eye(plant.n), np.eye(plant.m))
        dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
        l_gain = dare_lqr(dual, np.eye(plant.n), np.eye(plant.p)).T
        factors = coprime_factorize(plant, f_gain, l_gain)
        factors.validate()  # exact Bezout + numeric memberships
        assert factors.g() == plant.transfer()
        fixtures += 1
    assert fixtures >= 20
    print(f"\n[acceptance] criterion 8 (coprime factorization, {fixtures} fixtures): PASS")
