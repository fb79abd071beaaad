import json
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from rstab import (
    JobSpec,
    PlantSS,
    RatFun,
    Realization,
    SignalSpace,
    StabilityMatrix,
    TFMatrix,
    coprime_factorize,
    dare_lqr,
    run,
    simulate,
    slp_sf_from_controller,
    slp_sf_to_iop,
    synthesize_sf_h2,
)
from rstab import serialize
from rstab.errors import SchemaError
from rstab.sls import RealizationVariant

from helpers import NEAR_ONE, rand_ratfun, rand_fir_tfmatrix

SP = SignalSpace.make(x=1, u=1)


def write(tmp_path, name, doc):
    path = tmp_path / name
    serialize.dump_document(doc, path)
    return str(path)


@pytest.fixture()
def scalar_plant_doc(tmp_path):
    plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
    return plant, write(tmp_path, "plant.json", serialize.plant_to_doc(plant))


class TestDocuments:
    def test_ratfun_roundtrip(self):
        rng = random.Random(0)
        for _ in range(20):
            r = rand_ratfun(rng, 3)
            assert serialize.ratfun_from_doc(serialize.ratfun_to_doc(r)) == r

    def test_tfmatrix_roundtrip(self):
        rng = random.Random(1)
        m = TFMatrix(SP, SP, [[rand_ratfun(rng, 2) for _ in range(2)] for _ in range(2)])
        assert serialize.tfmatrix_from_doc(serialize.tfmatrix_to_doc(m)) == m

    def test_plant_roundtrip(self):
        plant = PlantSS([[F(1, 2), 1], [0, F(-1, 3)]], [[1], [2]], [[1, 0]], [["0.5"]])
        again = serialize.plant_from_doc(serialize.plant_to_doc(plant))
        assert np.array_equal(again.A, plant.A)
        assert np.array_equal(again.D, plant.D)

    def test_realization_roundtrip_with_stability(self):
        r = Realization(SP, TFMatrix.zeros(SP, SP), frozenset({("u", "u")}))
        s = StabilityMatrix(SP, TFMatrix.identity(SP))
        doc = serialize.realization_to_doc(r, s)
        r2, s2 = serialize.realization_from_doc(doc)
        assert r2.R == r.R and r2.structural_zeros == r.structural_zeros
        assert s2.S == s.S

    def test_bundle_roundtrip_with_validation(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        k = TFMatrix(plant.u_space, plant.x_space, [[RatFun(F(-1, 2))]])
        bundle = slp_sf_from_controller(plant, k)
        doc = serialize.bundle_to_doc("slp_sf", bundle)
        kind, again = serialize.bundle_from_doc(doc, plant)
        assert kind == "slp_sf" and again == bundle

    def test_bundle_validation_failure_on_load(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        k = TFMatrix(plant.u_space, plant.x_space, [[RatFun(F(-1, 2))]])
        bundle = slp_sf_from_controller(plant, k)
        doc = serialize.bundle_to_doc("slp_sf", bundle)
        other = PlantSS.state_feedback([[F(1, 4)]], [[1]])  # wrong plant
        from rstab.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            serialize.bundle_from_doc(doc, other)

    def test_iop_bundle_picks_state_transfer_by_block_names(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        k = TFMatrix(plant.u_space, plant.x_space, [[RatFun(F(-1, 2))]])
        p = slp_sf_to_iop(slp_sf_from_controller(plant, k), plant)
        doc = serialize.bundle_to_doc("iop", p)
        kind, again = serialize.bundle_from_doc(doc, plant)
        assert kind == "iop" and again == p

    def test_coprime_roundtrip(self):
        plant = PlantSS([[2]], [[1]], [[1]], [[0]])
        f = coprime_factorize(plant, [[-2]], [[-2]])
        again = serialize.coprime_from_doc(serialize.coprime_to_doc(f))
        assert again == f

    def test_fir_bundle_roundtrip(self):
        plant = PlantSS.state_feedback([[F(1, 2)]], [[1]])
        bundle = synthesize_sf_h2(plant, [[1]], [[1]], 6)
        doc = serialize.fir_bundle_to_doc(6, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u})
        parts = serialize.fir_bundle_from_doc(doc)
        assert parts["horizon"] == 6
        assert parts["phi_x"].horizon == 6
        # taps survive exactly when they are representable, and the document
        # itself is exact (strings), so a re-dump is identical
        doc2 = serialize.fir_bundle_to_doc(6, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u})
        assert doc == doc2

    def test_schema_version_enforced(self):
        doc = serialize.plant_to_doc(PlantSS.state_feedback([[0]], [[1]]))
        doc["schema_version"] = 99
        with pytest.raises(SchemaError):
            serialize.plant_from_doc(doc)

    def test_kind_enforced(self):
        doc = serialize.plant_to_doc(PlantSS.state_feedback([[0]], [[1]]))
        doc["kind"] = "realization"
        with pytest.raises(SchemaError):
            serialize.plant_from_doc(doc)


class TestCLI:
    def test_verify_pass_fixture(self, tmp_path):
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        s = StabilityMatrix(SP, TFMatrix.identity(SP))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r, s))
        code, report = run(JobSpec("verify", {"realization": path}))
        assert code == 0 and report["passed"] and report["details"]["lemma_holds"]

    def test_verify_check_failure_exit_one(self, tmp_path):
        g = RatFun(1, [-2, 1])
        r = Realization(SP, TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]]}))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
        code, report = run(JobSpec("verify", {"realization": path}))
        assert code == 1 and not report["passed"]
        assert any(f["kind"] == "unstable" for f in report["findings"])

    def test_verify_singular_exit_three(self, tmp_path):
        r = Realization(SP, TFMatrix.identity(SP))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
        code, report = run(JobSpec("verify", {"realization": path}))
        assert code == 3

    def test_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run(JobSpec("verify", {"realization": str(path)}))
        assert code == 2

    def test_exit_codes_partition(self, tmp_path):
        # same command, four disjoint outcomes
        seen = set()
        fixtures = []
        r_ok = Realization(SP, TFMatrix.zeros(SP, SP))
        fixtures.append(write(tmp_path, "ok.json", serialize.realization_to_doc(r_ok)))
        g = RatFun(1, [-2, 1])
        r_bad = Realization(SP, TFMatrix.from_blocks(SP, SP, {("x", "u"): [[g]]}))
        fixtures.append(write(tmp_path, "bad.json", serialize.realization_to_doc(r_bad)))
        broken = tmp_path / "nojson.json"
        broken.write_text("]")
        fixtures.append(str(broken))
        r_sing = Realization(SP, TFMatrix.identity(SP))
        fixtures.append(write(tmp_path, "sing.json", serialize.realization_to_doc(r_sing)))
        for path in fixtures:
            code, _ = run(JobSpec("verify", {"realization": path}))
            assert code not in seen
            seen.add(code)
        assert seen == {0, 1, 2, 3}

    def test_synthesize_matches_api(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        out = tmp_path / "fir.json"
        code, report = run(JobSpec(
            "synthesize", {"plant": plant_path},
            {"horizon": 8, "out": str(out)},
        ))
        assert code == 0
        bundle = synthesize_sf_h2(plant, np.eye(1), np.eye(1), 8)
        expected = serialize.fir_bundle_to_doc(8, {"phi_x": bundle.phi_x, "phi_u": bundle.phi_u})
        assert json.loads(out.read_text()) == expected

    def test_certify_and_simulate_match_api(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        fir = tmp_path / "fir.json"
        run(JobSpec("synthesize", {"plant": plant_path}, {"horizon": 6, "out": str(fir)}))
        code, report = run(JobSpec(
            "certify", {"plant": plant_path, "fir": str(fir)},
            {"variant": "original_sls"},
        ))
        assert code == 0 and report["passed"]
        trace_path = tmp_path / "trace.json"
        code, _ = run(JobSpec(
            "simulate", {"plant": plant_path, "fir": str(fir)},
            {"variant": "deployment", "horizon": 12, "out": str(trace_path)},
        ))
        assert code == 0
        parts = serialize.fir_bundle_from_doc(serialize.load_document(fir))
        v = RealizationVariant.deployment(parts["phi_x"], parts["phi_u"])
        impulse = np.zeros((1, 1))
        impulse[0, 0] = 1.0
        trace = simulate(v, plant, {"x": impulse}, 12)
        assert json.loads(trace_path.read_text()) == serialize.trace_to_doc(trace)

    def test_certify_failure_exit_one(self, tmp_path):
        plant = PlantSS.state_feedback([[2]], [[1]])
        plant_path = write(tmp_path, "p2.json", serialize.plant_to_doc(plant))
        doc = {
            "schema_version": 1, "kind": "fir_bundle", "horizon": 1,
            "phi_x": [[["1"]]], "phi_u": [[["-2"]]],
        }
        fir_path = write(tmp_path, "fir2.json", doc)
        code, report = run(JobSpec(
            "certify", {"plant": plant_path, "fir": fir_path},
            {"variant": "deployment"},
        ))
        assert code == 1 and not report["passed"]
        assert report["details"]["schur_stable"] is False
        assert {"matrix": "S", "row": "x", "col": "u", "kind": "unstable"} in report["findings"]

    def test_factorize_matches_api(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        out = tmp_path / "factors.json"
        code, _ = run(JobSpec("factorize", {"plant": plant_path}, {"out": str(out)}))
        assert code == 0
        f_gain = dare_lqr(plant, np.eye(1), np.eye(1))
        dual = PlantSS.state_feedback(plant.A.T, plant.C.T)
        l_gain = dare_lqr(dual, np.eye(1), np.eye(1)).T
        expected = coprime_factorize(plant, f_gain, l_gain)
        assert json.loads(out.read_text()) == serialize.coprime_to_doc(expected)

    def test_convert_slp_sf_to_iop_matches_direct_map(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        k = TFMatrix(plant.u_space, plant.x_space, [[RatFun(F(-1, 2))]])
        bundle = slp_sf_from_controller(plant, k)
        bundle_path = write(tmp_path, "slp.json", serialize.bundle_to_doc("slp_sf", bundle))
        out = tmp_path / "iop.json"
        code, _ = run(JobSpec(
            "convert", {"plant": plant_path, "bundle": bundle_path},
            {"target": "iop", "out": str(out)},
        ))
        assert code == 0
        expected = serialize.bundle_to_doc("iop", slp_sf_to_iop(bundle, plant))
        assert json.loads(out.read_text()) == expected

    def test_convert_roundtrip_through_files(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        k = TFMatrix(plant.u_space, plant.x_space, [[RatFun(F(-1, 2))]])
        bundle = slp_sf_from_controller(plant, k)
        slp_path = write(tmp_path, "slp.json", serialize.bundle_to_doc("slp_sf", bundle))
        iop_path = tmp_path / "iop.json"
        back_path = tmp_path / "slp2.json"
        assert run(JobSpec("convert", {"plant": plant_path, "bundle": slp_path},
                           {"target": "iop", "out": str(iop_path)}))[0] == 0
        assert run(JobSpec("convert", {"plant": plant_path, "bundle": str(iop_path)},
                           {"target": "slp_sf", "out": str(back_path)}))[0] == 0
        assert json.loads(back_path.read_text()) == serialize.bundle_to_doc("slp_sf", bundle)

    def test_convert_between_output_parameterizations(self, tmp_path):
        plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
        plant_path = write(tmp_path, "pd.json", serialize.plant_to_doc(plant))
        from rstab import mixed2_from_controller, slp_of_from_controller

        k = TFMatrix(plant.u_space, plant.y_space, [[RatFun(F(-1, 4))]])
        p = slp_of_from_controller(plant, k)
        src = write(tmp_path, "of.json", serialize.bundle_to_doc("slp_of", p))
        out = tmp_path / "m2.json"
        code, _ = run(JobSpec("convert", {"plant": plant_path, "bundle": src},
                              {"target": "mixed2", "out": str(out)}))
        assert code == 0
        expected = serialize.bundle_to_doc("mixed2", mixed2_from_controller(plant, k))
        assert json.loads(out.read_text()) == expected

    def test_convert_youla_needs_factors(self, tmp_path, scalar_plant_doc):
        plant, plant_path = scalar_plant_doc
        rng = random.Random(5)
        q = rand_fir_tfmatrix(rng, SignalSpace.single("u", 1), SignalSpace.single("y", 1), deg=1)
        src = write(tmp_path, "q.json", serialize.bundle_to_doc("youla", __import__("rstab").YoulaParam.checked(q)))
        out = tmp_path / "iop.json"
        code, report = run(JobSpec("convert", {"plant": plant_path, "bundle": src},
                                   {"target": "iop", "out": str(out)}))
        assert code == 2 and "factors" in report["details"]["error"]

    def test_cli_main_exit_status(self, tmp_path, capsys):
        from rstab.cli import main

        r = Realization(SP, TFMatrix.zeros(SP, SP))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, "--report", str(report_path)])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        saved = json.loads(report_path.read_text())
        assert saved["kind"] == "report" and saved["passed"]


PARAMETERIZATION_NAMES = ("youla", "iop", "slp_sf", "slp_of", "mixed1", "mixed2")


#: name -> (plant, stabilizing gains F and L, whether Q is biproper): the state
#: measured in full; C != I with p < n; a direct feedthrough; two inputs
CONVERT_PLANTS = {
    "state": (PlantSS([[2]], [[1]], [[1]], [[0]]), [[-2]], [[-2]], True),
    "c_not_i": (PlantSS([[F(1, 2), 1], [0, F(3, 2)]], [[0], [1]], [[1, 1]], [[0]]),
                [[F(-1, 4), -2]], [[F(-7, 8)], [F(-9, 8)]], False),
    "feedthrough": (PlantSS([[2]], [[1]], [[1]], [[F(1, 2)]]), [[-2]], [[-2]], False),
    "two_inputs": (PlantSS([[F(3, 2), F(1, 2)], [0, F(1, 4)]], [[1, 0], [F(1, 2), 1]],
                           [[1, 0], [0, 1]], [[0, 0], [0, 0]]),
                   [[F(-3, 2), F(-1, 2)], [F(3, 4), 0]], [[F(-3, 2), F(-1, 2)], [0, F(-1, 4)]],
                   False),
}

#: every source document: the six bundles and an IOP bundle over the state
CONVERT_SOURCES = PARAMETERIZATION_NAMES + ("iop_x",)

STATE_OUTPUT_REFUSAL = "requires C = I and D = 0"


@pytest.fixture(scope="module")
def convert_plants(tmp_path_factory):
    """Per plant: a directory, the paths of its documents, the library's bundle of
    one stabilizing controller by (parameterization, measured signal), and
    whether the state is the output (C = I, D = 0).

    The controller measuring y comes from a Youla parameter; the one measuring
    x is the same controller when the state is the output, and F otherwise."""
    import rstab

    out = {}
    for name, (plant, f_gain, l_gain, biproper) in CONVERT_PLANTS.items():
        tmp = tmp_path_factory.mktemp(f"convert_{name}")
        factors = coprime_factorize(plant, f_gain, l_gain)
        q = rand_fir_tfmatrix(random.Random(3), plant.u_space, plant.y_space, deg=2,
                              biproper=biproper)
        k = rstab.youla_to_controller(factors, rstab.YoulaParam.checked(q))
        state_is_output = plant.is_strictly_proper and np.array_equal(plant.C, np.eye(plant.n))
        k_x = (k.relabel(plant.u_space, plant.x_space) if state_is_output
               else TFMatrix.constant(plant.u_space, plant.x_space, f_gain))
        library = {
            ("youla", "y"): rstab.controller_to_youla(factors, k),
            ("iop", "y"): rstab.iop_from_controller(plant.transfer(), k),
            ("slp_of", "y"): rstab.slp_of_from_controller(plant, k),
            ("mixed1", "y"): rstab.mixed1_from_controller(plant, k),
            ("mixed2", "y"): rstab.mixed2_from_controller(plant, k),
            ("slp_sf", "x"): slp_sf_from_controller(plant, k_x),
            # the IOP bundle of the loop that measures x, whose plant is (zI - A)^{-1} B
            ("iop", "x"): rstab.iop_from_controller(plant.state_transfer(), k_x),
        }
        assert library[("youla", "y")].Q == q
        paths = {
            "plant": write(tmp, "plant.json", serialize.plant_to_doc(plant)),
            "factors": write(tmp, "factors.json", serialize.coprime_to_doc(factors)),
        }
        for source in CONVERT_SOURCES:
            kind = "iop" if source == "iop_x" else source
            bundle = library[(kind, _measured(source))]
            paths[source] = write(tmp, f"{source}.json", serialize.bundle_to_doc(kind, bundle))
        out[name] = tmp, paths, library, state_is_output
    return out


def _measured(source: str) -> str:
    return "x" if source in ("slp_sf", "iop_x") else "y"


@pytest.mark.parametrize("target", PARAMETERIZATION_NAMES)
@pytest.mark.parametrize("source", CONVERT_SOURCES)
@pytest.mark.parametrize("plant_name", CONVERT_PLANTS)
def test_convert_every_pair_matches_the_library(convert_plants, plant_name, source, target):
    from rstab.parameterizations import REGISTRY

    tmp, paths, library, state_is_output = convert_plants[plant_name]
    out = tmp / f"{source}_to_{target}.json"
    inputs = {"bundle": paths[source], "plant": paths["plant"], "factors": paths["factors"]}
    code, report = run(JobSpec("convert", inputs, {"target": target, "out": str(out)}))
    signal = _measured(source)
    measured = signal if target == "iop" else REGISTRY[target].signal
    if signal != measured and not state_is_output:
        assert code == 1 and STATE_OUTPUT_REFUSAL in report["details"]["error"], report
        assert not out.exists()
        return
    assert code == 0, report
    kind = "iop" if source == "iop_x" else source
    assert report["details"]["source"] == kind and report["details"]["target"] == target
    expected = library[(target, measured)]
    assert json.loads(out.read_text()) == serialize.bundle_to_doc(target, expected)


@pytest.mark.parametrize("source, target", [
    *(("slp_of", name) for name in PARAMETERIZATION_NAMES),
    *(("youla", name) for name in PARAMETERIZATION_NAMES if name != "youla"),
])
def test_convert_refuses_a_bundle_whose_controller_is_improper(tmp_path, source, target):
    import rstab

    # x+ = x/2 + u, y = x + u: these blocks meet every identity and are stable
    # proper, but S[u,u] = Phi_ux B + Phi_uy D + I = -1/(z - 1/2) has no proper
    # inverse, so the controller z - 1/2 is improper.  With the factors of
    # F = L = -1/2, Q = 1 gives Ur(inf) - Nr(inf) Q = 0: its controller
    # (Vr - Mr Q) (Ur - Nr Q)^{-1} is improper too, and each target's check
    # refuses it, or the state-feedback target refuses the plant first
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
    h = RatFun([F(-1, 2), 1])

    def block(r, c, value):
        return TFMatrix(SignalSpace.single(r, 1), SignalSpace.single(c, 1), [[value]])

    if source == "youla":
        bundle = rstab.YoulaParam.checked(block("u", "y", RatFun(1)))
    else:
        bundle = rstab.SLPOutputFeedback(block("x", "x", RatFun([F(-3, 2), 1]) / (h * h)),
                                         block("u", "x", -1 / h), block("x", "y", -1 / h),
                                         block("u", "y", RatFun(-1)))
    inputs = {
        "bundle": write(tmp_path, "bundle.json", serialize.bundle_to_doc(source, bundle)),
        "plant": write(tmp_path, "plant.json", serialize.plant_to_doc(plant)),
        "factors": write(tmp_path, "factors.json", serialize.coprime_to_doc(
            coprime_factorize(plant, [[F(-1, 2)]], [[F(-1, 2)]]))),
    }
    out = tmp_path / "out.json"
    code, report = run(JobSpec("convert", inputs, {"target": target, "out": str(out)}))
    assert code == 1, report
    refusal = (STATE_OUTPUT_REFUSAL if (source, target) == ("youla", "slp_sf")
               else "S[u,u] has no proper inverse")
    assert refusal in report["details"]["error"]
    assert not out.exists()


@pytest.mark.parametrize("other, gain", [
    (PlantSS([[2]], [[1]], [[1]], [[0]]), -2),
    (PlantSS([[F(1, 2)]], [[1]], [[NEAR_ONE]], [[0]]), F(-1, 2)),  # C off by 2^-64
], ids=["other-plant", "c-off-by-2^-64"])
@pytest.mark.parametrize("source, target", [
    pair for name in PARAMETERIZATION_NAMES if name != "youla"
    for pair in (("youla", name), (name, "youla"))
])
def test_convert_refuses_coprime_factors_of_another_plant(tmp_path, source, target, other, gain):
    import rstab

    # the plant x+ = x/2 + u, y = x with the factors of another plant
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[0]])
    k = TFMatrix.constant(plant.u_space, plant.y_space, [[F(-1, 4)]])
    if source == "youla":
        bundle = rstab.YoulaParam.checked(rand_fir_tfmatrix(
            random.Random(1), plant.u_space, plant.y_space, deg=1, biproper=False))
    elif source == "iop":
        bundle = rstab.iop_from_controller(plant.transfer(), k)
    else:
        if source == "slp_sf":
            k = k.relabel(plant.u_space, plant.x_space)
        bundle = getattr(rstab, f"{source}_from_controller")(plant, k)
    inputs = {
        "bundle": write(tmp_path, "b.json", serialize.bundle_to_doc(source, bundle)),
        "plant": write(tmp_path, "plant.json", serialize.plant_to_doc(plant)),
        "factors": write(tmp_path, "factors.json", serialize.coprime_to_doc(
            coprime_factorize(other, [[gain]], [[gain]]))),
    }
    out = tmp_path / "out.json"
    code, report = run(JobSpec("convert", inputs, {"target": target, "out": str(out)}))
    assert code == 1, report
    assert report["details"]["error"] == "the coprime factors are not of this plant: Ml^{-1} Nl != G"
    assert not out.exists()


def test_bundle_fields_follow_the_registry():
    import dataclasses

    from rstab.parameterizations import REGISTRY

    # the document schema: parameterization names and block order
    assert serialize.BUNDLE_FIELDS == {
        "youla": ("Q",),
        "iop": ("Y", "U", "W", "Z"),
        "slp_sf": ("phi_x", "phi_u"),
        "slp_of": ("phi_xx", "phi_ux", "phi_xy", "phi_uy"),
        "mixed1": ("phi_yx", "phi_ux", "phi_yy", "phi_uy"),
        "mixed2": ("phi_xy", "phi_uy", "phi_xu", "phi_uu"),
    }
    assert tuple(serialize.BUNDLE_FIELDS) == tuple(REGISTRY) == PARAMETERIZATION_NAMES
    for name, entry in REGISTRY.items():
        fields = tuple(f.name for f in dataclasses.fields(entry.bundle))
        assert entry.name == name
        assert serialize.BUNDLE_FIELDS[name] == entry.fields == fields
        assert len(entry.blocks) in (0, len(fields))


class TestCLIInputs:
    def test_missing_bundle_input_is_a_parse_error(self, tmp_path, scalar_plant_doc):
        _, plant_path = scalar_plant_doc
        code, report = run(JobSpec("convert", {"plant": plant_path},
                                   {"target": "iop", "out": str(tmp_path / "out.json")}))
        assert code == 2 and report["exit_code"] == 2
        assert "'bundle'" in report["details"]["error"]

    def test_missing_option_is_named(self, scalar_plant_doc):
        _, plant_path = scalar_plant_doc
        code, report = run(JobSpec("synthesize", {"plant": plant_path}, {"horizon": 3}))
        assert code == 2 and "'out'" in report["details"]["error"]

    def test_unknown_command_is_a_parse_error(self):
        code, report = run(JobSpec("transmogrify"))
        assert code == 2 and "transmogrify" in report["details"]["error"]

    def test_pole_margin_is_not_an_option(self, tmp_path):
        # a negative margin would widen the stability region and pass the
        # deployment variant on the unstable plant x+ = 2 x + u
        plant_path = write(tmp_path, "p2.json",
                           serialize.plant_to_doc(PlantSS.state_feedback([[2]], [[1]])))
        fir_path = write(tmp_path, "fir2.json", {
            "schema_version": 1, "kind": "fir_bundle", "horizon": 1,
            "phi_x": [[["1"]]], "phi_u": [[["-2"]]],
        })
        inputs = {"plant": plant_path, "fir": fir_path}
        code, report = run(JobSpec("certify", inputs, {"variant": "deployment", "tol": -5.0}))
        assert code == 2 and not report["passed"]
        assert "'tol'" in report["details"]["error"]
        code, report = run(JobSpec("certify", inputs, {"variant": "deployment"}))
        assert code == 1 and report["details"]["tol"] == 1e-8

    def test_main_has_no_tol_flag(self, tmp_path, capsys):
        from rstab.cli import main

        r = Realization(SP, TFMatrix.zeros(SP, SP))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, "--tol", "-5"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_key_error_inside_a_handler_is_not_a_parse_error(self, tmp_path, monkeypatch):
        import rstab.cli

        def broken(r, s):
            raise KeyError("internal")

        monkeypatch.setattr(rstab.cli, "check_conditions", broken)
        r = Realization(SP, TFMatrix.zeros(SP, SP))
        path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
        with pytest.raises(KeyError, match="internal"):
            run(JobSpec("verify", {"realization": path}))

    def test_simulate_singular_leading_tap_exit_three(self, tmp_path, scalar_plant_doc):
        _, plant_path = scalar_plant_doc
        doc = {
            "schema_version": 1, "kind": "fir_bundle", "horizon": 1,
            "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]], "p_c": [[["0"]]], "m_c": [[["0"]]],
        }
        fir_path = write(tmp_path, "fir.json", doc)
        code, report = run(JobSpec(
            "simulate", {"plant": plant_path, "fir": fir_path},
            {"variant": "design_separation", "horizon": 4, "out": str(tmp_path / "t.json")},
        ))
        assert code == 3 and report["exit_code"] == 3
        assert "singular" in report["details"]["error"]

    def test_simulate_unknown_disturbance_channel_exit_one(self, tmp_path, scalar_plant_doc):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]}
        disturbance = {"schema_version": 1, "kind": "disturbance", "signals": {"X": [[1]]}}
        inputs = {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir),
                  "disturbance": write(tmp_path, "d.json", disturbance)}
        code, report = run(JobSpec(
            "simulate", inputs,
            {"variant": "original_sls", "horizon": 3, "out": str(tmp_path / "t.json")},
        ))
        assert code == 1 and report["exit_code"] == 1
        assert "'X'" in report["details"]["error"]

    @pytest.mark.parametrize("value", ["1e400", "NaN", "true"])
    def test_simulate_non_finite_disturbance_exit_two(self, tmp_path, scalar_plant_doc, value):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]}
        # JSON numbers that Python reads as inf and nan, and a JSON boolean
        disturbance = tmp_path / "d.json"
        disturbance.write_text(
            '{"schema_version": 1, "kind": "disturbance", "signals": {"x": [[%s]]}}' % value)
        out = tmp_path / "t.json"
        inputs = {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir),
                  "disturbance": str(disturbance)}
        code, report = run(JobSpec(
            "simulate", inputs, {"variant": "original_sls", "horizon": 3, "out": str(out)},
        ))
        assert code == 2 and report["exit_code"] == 2
        assert "disturbance for 'x'" in report["details"]["error"]
        assert not out.exists()

    @pytest.mark.parametrize("parts, error", [
        ({"phi_x": [[["1"]], [["0"]]], "phi_u": [[["-1/2"]]]}, "phi_x must list exactly 1 tap matrices"),
        ({"phi_x": [[["1"]]], "phi_u": "-1/2"}, "phi_u must list exactly 1 tap matrices"),
        ({"phi_x": [[["1"]]]}, "fir_bundle needs phi_x and phi_u"),
        ({"phi_u": [[["-1/2"]]], "p_c": [[["1"]]]}, "fir_bundle needs phi_x and phi_u"),
    ], ids=["extra_tap", "not_a_list", "no_phi_u", "no_phi_x"])
    def test_a_fir_bundle_with_a_wrong_or_missing_part_is_a_parse_error(
        self, tmp_path, scalar_plant_doc, parts, error
    ):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1, **parts}
        code, report = run(JobSpec(
            "certify", {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir)},
            {"variant": "original_sls"}))
        assert (code, report["exit_code"], report["details"]["error"]) == (2, 2, error)

    @pytest.mark.parametrize("part", ["phi_x", "phi_u", "p_c", "m_c"])
    @pytest.mark.parametrize("entry, error", [
        (["1"], "cannot use list as an exact scalar"),
        ({"p": 1}, "cannot use dict as an exact scalar"),
        (True, "cannot use bool as an exact scalar"),
        ("1/0", "Fraction(1, 0)"),
    ], ids=["list", "object", "bool", "zero_denominator"])
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_a_tap_entry_that_is_no_scalar_is_a_parse_error(
        self, tmp_path, scalar_plant_doc, part, entry, error, command
    ):
        # the reader lifts each entry once, and refuses it as the scalar rule does
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 2,
               **{name: [[["1"]], [["0"]]] for name in ("phi_x", "p_c")},
               **{name: [[["-1/2"]], [["0"]]] for name in ("phi_u", "m_c")}}
        fir[part][1][0][0] = entry
        with pytest.raises(SchemaError, match=rf"^malformed fir_bundle: {re.escape(error)}$"):
            serialize.fir_bundle_from_doc(fir)
        options = {"variant": "design_separation"}
        if command == "simulate":
            options.update(horizon=2, out=str(tmp_path / "t.json"))
        code, report = run(JobSpec(
            command, {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir)}, options))
        assert (code, report["exit_code"]) == (2, 2)
        assert report["details"]["error"] == f"malformed fir_bundle: {error}"

    def test_the_read_taps_are_a_tuple_of_fraction_arrays(self):
        parts = serialize.fir_bundle_from_doc({
            "schema_version": 1, "kind": "fir_bundle", "horizon": 2,
            "phi_x": [[["1", 0], ["0", "1"]], [["1/3", 2], [0.5, "-0.25"]]],
            "phi_u": [[["-1/2", "3"]], [[0, "7/9"]]]})
        assert parts["horizon"] == 2
        want = {"phi_x": [[[1, 0], [0, 1]], [[F(1, 3), 2], [F(1, 2), F(-1, 4)]]],
                "phi_u": [[[F(-1, 2), 3]], [[0, F(7, 9)]]]}
        for name, taps in want.items():
            got = parts[name].taps
            assert type(got) is tuple and len(got) == 2 and parts[name].horizon == 2
            for tap, rows in zip(got, taps):
                assert tap.dtype == object and tap.shape == (len(rows), len(rows[0]))
                assert all(type(v) is F for v in tap.flat)
                assert tap.tolist() == rows

    @pytest.mark.parametrize("signals", [None, [[1]], "x"])
    def test_a_disturbance_without_a_signals_object_is_a_parse_error(
        self, tmp_path, scalar_plant_doc, signals
    ):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]}
        disturbance = {"schema_version": 1, "kind": "disturbance"}
        if signals is not None:
            disturbance["signals"] = signals
        out = tmp_path / "t.json"
        inputs = {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir),
                  "disturbance": write(tmp_path, "d.json", disturbance)}
        code, report = run(JobSpec(
            "simulate", inputs, {"variant": "original_sls", "horizon": 3, "out": str(out)}))
        assert (code, report["exit_code"]) == (2, 2)
        assert report["details"]["error"] == "disturbance document needs a signals object"
        assert not out.exists()

    def test_simulate_disturbance_with_the_wrong_number_of_columns_exit_one(
        self, tmp_path, scalar_plant_doc
    ):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]}
        disturbance = {"schema_version": 1, "kind": "disturbance", "signals": {"x": [[1, 0]]}}
        out = tmp_path / "t.json"
        inputs = {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir),
                  "disturbance": write(tmp_path, "d.json", disturbance)}
        code, report = run(JobSpec(
            "simulate", inputs, {"variant": "original_sls", "horizon": 3, "out": str(out)}))
        assert (code, report["exit_code"]) == (1, 1)
        assert report["details"]["error"] == "disturbance 'x' must have 1 columns"
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["original_sls", "deployment", "design_separation"])
    def test_simulate_payload_that_does_not_fit_the_plant_exit_one(self, tmp_path, variant):
        plant = PlantSS.state_feedback([[0, 1], [0, 0]], [[0], [1]])
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]], "p_c": [[["1"]]], "m_c": [[["-1/2"]]]}
        inputs = {"plant": write(tmp_path, "plant.json", serialize.plant_to_doc(plant)),
                  "fir": write(tmp_path, "fir.json", fir)}
        code, report = run(JobSpec(
            "simulate", inputs, {"variant": variant, "horizon": 3, "out": str(tmp_path / "t.json")},
        ))
        assert code == 1 and report["exit_code"] == 1
        assert "payload dimensions do not match the plant" in report["details"]["error"]

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    @pytest.mark.parametrize("given, missing", [
        ({}, "p_c and m_c"), ({"p_c": [[["1"]]]}, "m_c"), ({"m_c": [[["-1/2"]]]}, "p_c"),
    ], ids=["neither", "p_c_only", "m_c_only"])
    def test_design_separation_without_its_parts_is_a_parse_error(
        self, tmp_path, scalar_plant_doc, command, given, missing
    ):
        _, plant_path = scalar_plant_doc
        fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
               "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]], **given}
        options = {"variant": "design_separation"}
        if command == "simulate":
            options.update(horizon=3, out=str(tmp_path / "t.json"))
        code, report = run(JobSpec(
            command, {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir)}, options))
        assert code == 2 and report["exit_code"] == 2
        assert report["details"]["error"] == (
            f"design_separation needs {missing} taps in the fir_bundle")
        # the response pair alone serves the variants that declare no more
        options["variant"] = "original_sls"
        assert run(JobSpec(
            command, {"plant": plant_path, "fir": write(tmp_path, "fir.json", fir)}, options))[0] == 0


def _plant_beyond_floats(tmp_path, matrix, row, col):
    """The plant x+ = [[0, 1], [0, 0]] x + [0; 1] u, measured whole, with the
    entry (row, col) of ``matrix`` set to 10^400, beyond the float range."""
    doc = serialize.plant_to_doc(PlantSS.state_feedback([[0, 1], [0, 0]], [[0], [1]]))
    doc[matrix][row][col] = "1e400"
    return write(tmp_path, "plant.json", doc)


#: Phi_u = [1 0] closes A + B Phi_u = [[0, a], [1, 0]], with poles +-sqrt(a)
#: for a = A[0][1], so a large A[0][1] reaches the denominators of S
FIR_BEYOND_FLOATS = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
                     "phi_x": [[["1", "0"], ["0", "1"]]], "phi_u": [[["1", "0"]]],
                     "p_c": [[["1", "0"], ["0", "1"]]], "m_c": [[["1", "0"]]]}


@pytest.mark.parametrize("command, entry, options, code, message", [
    ("certify", ("A", 0, 1), {"variant": "original_sls"}, 1, None),
    ("certify", ("A", 0, 1), {"variant": "design_separation"}, 1, None),
    ("simulate", ("B", 1, 0), {"variant": "deployment", "horizon": 3}, 1,
     "the loop's realization matrix R has an entry that does not fit a float"),
    ("factorize", ("A", 0, 1), {}, 1, "the Riccati iteration's A has an entry"),
    # the dual iteration runs on (A', C')
    ("factorize", ("C", 0, 0), {}, 1, "the Riccati iteration's B has an entry"),
    ("synthesize", ("A", 0, 1), {"horizon": 2}, 0, None),
], ids=["certify-original_sls", "certify-design_separation", "simulate", "factorize-A",
        "factorize-C", "synthesize"])
def test_a_plant_entry_beyond_the_float_range_gets_an_exit_code(
    tmp_path, command, entry, options, code, message
):
    inputs = {"plant": _plant_beyond_floats(tmp_path, *entry)}
    if command in ("certify", "simulate"):
        inputs["fir"] = write(tmp_path, "fir.json", FIR_BEYOND_FLOATS)
    if command in WRITES:
        options = {**options, "out": str(tmp_path / "out.json")}
    got, report = run(JobSpec(command, inputs, options))
    assert got == code and report["exit_code"] == code
    if message is not None:
        assert message in report["details"]["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["original_sls", "deployment", "design_separation"])
def test_simulate_of_a_response_beyond_the_float_range_exits_one(tmp_path, variant):
    # B[1][0] = Phi_u[1][0] = 10^300 fit a float, the response does not
    doc = serialize.plant_to_doc(PlantSS.state_feedback([[0, 1], [0, 0]], [[0], [1]]))
    doc["B"][1][0] = "1e300"
    fir = {**FIR_BEYOND_FLOATS, "phi_u": [[["1e300", "0"]]], "m_c": [[["1e300", "0"]]]}
    inputs = {"plant": write(tmp_path, "plant.json", doc), "fir": write(tmp_path, "fir.json", fir)}
    out = tmp_path / "trace.json"
    code, report = run(JobSpec("simulate", inputs,
                               {"variant": variant, "horizon": 4, "out": str(out)}))
    assert code == 1 and report["exit_code"] == 1
    assert report["details"]["error"] == "the loop's response overflows the float range"
    assert not out.exists()


def test_convert_of_a_plant_entry_beyond_the_float_range_exits_zero(tmp_path):
    plant = PlantSS.state_feedback([[10**400]], [[1]])
    bundle = synthesize_sf_h2(plant, [[1]], [[1]], 1)
    inputs = {"plant": write(tmp_path, "plant.json", serialize.plant_to_doc(plant)),
              "bundle": write(tmp_path, "slp_sf.json", serialize.bundle_to_doc("slp_sf", bundle))}
    out = tmp_path / "iop.json"
    code, _ = run(JobSpec("convert", inputs, {"target": "iop", "out": str(out)}))
    assert code == 0
    assert json.loads(out.read_text()) == serialize.bundle_to_doc("iop", slp_sf_to_iop(bundle, plant))


def test_verify_of_a_pole_beyond_the_float_range_exits_one(tmp_path):
    # R[y, u] = 1/(z + 10^400): its pole -10^400 has no float
    space = SignalSpace.make(y=1, u=1)
    r = Realization(space, TFMatrix.from_blocks(space, space, {("y", "u"): [[RatFun(1, [10**400, 1])]]}))
    code, report = run(JobSpec("verify", {"realization": write(tmp_path, "r.json",
                                                                serialize.realization_to_doc(r))}))
    assert code == 1 and report["exit_code"] == 1
    assert {"matrix": "S", "row": "y", "col": "u", "kind": "unstable"} in report["findings"]


@pytest.mark.parametrize("target, exit_code", [("slp_of", 0), ("youla", 1)])
def test_convert_validates_the_factors_only_when_it_reads_them(convert_plants, target, exit_code):
    tmp, paths, library, _ = convert_plants["state"]
    doc = serialize.load_document(paths["factors"])
    doc["blocks"]["Vl"] = doc["blocks"]["Ul"]  # the double Bezout identity fails
    inputs = {"bundle": paths["mixed1"], "plant": paths["plant"],
              "factors": write(tmp, "broken_factors.json", doc)}
    out = tmp / f"mixed1_to_{target}_broken_factors.json"
    code, report = run(JobSpec("convert", inputs, {"target": target, "out": str(out)}))
    assert code == exit_code, report
    if exit_code == 0:
        assert json.loads(out.read_text()) == serialize.bundle_to_doc(target, library[(target, "y")])
    else:
        assert "Bezout" in report["details"]["error"]


@pytest.mark.parametrize("field", ["phi_x", "phi_u"])
@pytest.mark.parametrize("target", ["iop", "slp_of"])
def test_convert_refuses_a_bundle_block_over_the_wrong_spaces(convert_plants, field, target):
    tmp, paths, _, _ = convert_plants["state"]
    doc = serialize.load_document(paths["slp_sf"])
    doc["blocks"][field]["rows"] = [["w", 1]]
    inputs = {"bundle": write(tmp, f"slp_sf_{field}_over_w.json", doc), "plant": paths["plant"]}
    out = tmp / f"slp_sf_{field}_over_w_to_{target}.json"
    code, report = run(JobSpec("convert", inputs, {"target": target, "out": str(out)}))
    assert code == 1, report
    assert f"SLPStateFeedback block {field} must be over rows" in report["details"]["error"]
    assert not out.exists()


def _blocks_as_list(doc):
    doc["blocks"] = list(doc["blocks"].values())


#: case -> (command, the input it breaks, how, options, what the error names)
MALFORMED_JOBS = {
    "bundle_blocks_list": ("convert", "bundle", _blocks_as_list, {"target": "youla"},
                           "parameter bundle"),
    "factors_blocks_list": ("convert", "factors", _blocks_as_list, {"target": "youla"},
                            "coprime factor document"),
    "structural_zero_of_one_signal": ("verify", "realization",
                                      lambda doc: doc.update(structural_zeros=[["a"]]), {},
                                      "realization document"),
    "number_overflows_to_inf": ("convert", "plant", lambda doc: doc.update(A=[["1e400"]]),
                                {"target": "youla"}, "plant document"),
    "unknown_variant": ("certify", "fir", lambda doc: None, {"variant": "bogus"},
                        "variant 'bogus'"),
    # JSON true and false are not the numbers 1 and 0
    "plant_entry_bool": ("convert", "plant", lambda doc: doc.update(D=[[False]]),
                         {"target": "youla"}, "plant document"),
    "ratfun_coeff_bool": ("verify", "realization",
                          lambda doc: doc["entries"][0].__setitem__(0, {"num": [True], "den": [1]}),
                          {}, "rational function document"),
    "fir_tap_bool": ("certify", "fir", lambda doc: doc.update(phi_x=[[[True]]]),
                     {"variant": "deployment"}, "fir_bundle"),
}

COMMAND_INPUTS = {
    "convert": ("bundle", "plant", "factors"), "verify": ("realization",), "certify": ("fir", "plant"),
}

#: the commands that write a document and so take the option ``out``
WRITES = ("convert", "synthesize", "simulate", "factorize")


@pytest.mark.parametrize("command, broken, corrupt, options, named", MALFORMED_JOBS.values(),
                         ids=MALFORMED_JOBS.keys())
def test_malformed_document_or_option_is_a_parse_error(
        convert_plants, tmp_path, command, broken, corrupt, options, named):
    _, paths, _, _ = convert_plants["state"]
    paths = {
        **paths,
        "bundle": paths["mixed1"],
        "realization": write(tmp_path, "r.json", serialize.realization_to_doc(
            Realization(SP, TFMatrix.zeros(SP, SP)))),
        # the FIR pair of the plant x+ = 2 x + u that the deployment variant realizes
        "fir": write(tmp_path, "fir.json", {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
                                            "phi_x": [[["1"]]], "phi_u": [[["-2"]]]}),
    }
    doc = serialize.load_document(paths[broken])
    corrupt(doc)
    path = tmp_path / f"broken_{broken}.json"
    # 1e400 is a JSON number that Python reads as inf
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    inputs = {**{name: paths[name] for name in COMMAND_INPUTS[command]}, broken: str(path)}
    if command in WRITES:
        options = {"out": str(tmp_path / "out.json"), **options}
    code, report = run(JobSpec(command, inputs, options))
    assert code == 2 and report["exit_code"] == 2, report
    assert named in report["details"]["error"]


#: case -> (command, the input or option it sets, the value)
MISTYPED_JOBS = {
    "simulate_horizon_string": ("simulate", "horizon", "3"),
    "simulate_horizon_fraction": ("simulate", "horizon", 2.5),
    "simulate_horizon_bool": ("simulate", "horizon", True),
    "synthesize_horizon_string": ("synthesize", "horizon", "3"),
    "synthesize_horizon_fraction": ("synthesize", "horizon", 2.5),
    "synthesize_horizon_bool": ("synthesize", "horizon", True),
    "certify_tol_string": ("certify", "tol", "x"),
    "certify_tol_none": ("certify", "tol", None),
    "certify_tol_bool": ("certify", "tol", False),
    "synthesize_option_misspelt": ("synthesize", "horizn", 4),
    "simulate_out_number": ("simulate", "out", 3),
    "factorize_plant_none": ("factorize", "plant", None),
    "factorize_plant_number": ("factorize", "plant", 3),
}


def _passing_job(tmp_path, scalar_plant_doc, command) -> tuple[dict, dict]:
    """The inputs and options of a ``command`` job on the scalar plant that exits 0."""
    plant, plant_path = scalar_plant_doc
    fir = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
           "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]}
    inputs = {"plant": plant_path}
    options = {"out": str(tmp_path / "out.json")} if command in WRITES else {}
    if command in ("simulate", "certify"):
        inputs["fir"] = write(tmp_path, "fir.json", fir)
        options["variant"] = "original_sls"
    if command in ("simulate", "synthesize"):
        options["horizon"] = 3
    if command == "convert":
        bundle = synthesize_sf_h2(plant, [[1]], [[1]], 1)
        inputs["bundle"] = write(tmp_path, "slp_sf.json", serialize.bundle_to_doc("slp_sf", bundle))
        options["target"] = "slp_sf"
    assert run(JobSpec(command, dict(inputs), dict(options)))[0] == 0
    return inputs, options


@pytest.mark.parametrize("command, name, value", MISTYPED_JOBS.values(), ids=MISTYPED_JOBS.keys())
def test_mistyped_input_or_option_is_a_parse_error(tmp_path, scalar_plant_doc, command, name, value):
    inputs, options = _passing_job(tmp_path, scalar_plant_doc, command)
    if name in inputs:
        inputs[name] = value
    else:
        options[name] = value
    code, report = run(JobSpec(command, inputs, options))
    assert code == 2 and report["exit_code"] == 2, report
    assert repr(name) in report["details"]["error"]


@pytest.mark.parametrize("command, name", [
    ("convert", "factor"), ("synthesize", "weigths"), ("simulate", "disturbnce"),
    ("factorize", "gainz"), ("certify", "disturbance"),
])
def test_an_input_the_command_does_not_take_is_a_parse_error(
        tmp_path, scalar_plant_doc, command, name):
    inputs, options = _passing_job(tmp_path, scalar_plant_doc, command)
    inputs[name] = inputs["plant"]
    code, report = run(JobSpec(command, inputs, options))
    assert code == 2 and report["exit_code"] == 2, report
    assert f"does not take input {name!r}" in report["details"]["error"]


@pytest.mark.parametrize("command, horizon, least", [
    ("synthesize", 0, 1), ("synthesize", -1, 1), ("simulate", -1, 0),
])
def test_a_horizon_below_its_least_value_is_a_parse_error(
        tmp_path, scalar_plant_doc, capsys, command, horizon, least):
    from rstab.cli import main

    inputs, options = _passing_job(tmp_path, scalar_plant_doc, command)
    options["horizon"] = horizon
    code, report = run(JobSpec(command, inputs, options))
    assert code == 2 and report["exit_code"] == 2, report
    assert f"option 'horizon' must be at least {least}" in report["details"]["error"]
    argv = [command, "--plant", inputs["plant"], "--horizon", str(horizon), "--out", options["out"]]
    if command == "simulate":
        argv += [inputs["fir"], "--variant", options["variant"]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{command}: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command, horizon", [("synthesize", 1), ("simulate", 0)])
def test_the_least_horizon_is_accepted(tmp_path, scalar_plant_doc, command, horizon):
    inputs, options = _passing_job(tmp_path, scalar_plant_doc, command)
    options["horizon"] = horizon
    code, report = run(JobSpec(command, inputs, options))
    assert code == 0, report


def test_the_library_refuses_the_same_horizons(scalar_plant_doc):
    from rstab.errors import InvariantViolation

    plant, _ = scalar_plant_doc
    with pytest.raises(InvariantViolation, match="at least 1"):
        synthesize_sf_h2(plant, [[1]], [[1]], 0)
    parts = serialize.fir_bundle_from_doc({"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
                                           "phi_x": [[["1"]]], "phi_u": [[["-1/2"]]]})
    v = RealizationVariant("original_sls", parts["phi_x"], parts["phi_u"])
    with pytest.raises(InvariantViolation, match="nonnegative"):
        simulate(v, plant, {"x": np.ones((1, 1))}, -1)


def test_synthesize_refuses_weights_that_are_not_positive_semidefinite(
        tmp_path, scalar_plant_doc):
    inputs, options = _passing_job(tmp_path, scalar_plant_doc, "synthesize")
    inputs["weights"] = write(tmp_path, "w.json", {
        "schema_version": 1, "kind": "weights", "qw": [["1"]], "rw": [["-1"]]})
    code, report = run(JobSpec("synthesize", inputs, options))
    assert code == 1 and report["exit_code"] == 1, report
    assert "Rw must be symmetric positive semidefinite" in report["details"]["error"]


#: command -> (its arguments with every optional flag, the inputs and options main passes on)
MAIN_JOBS = {
    "verify": (["r.json"], {"realization": "r.json"}, {}),
    "convert": (["b.json", "--plant", "p.json", "--to", "mixed2", "--factors", "f.json",
                 "--out", "o.json"],
                {"bundle": "b.json", "plant": "p.json", "factors": "f.json"},
                {"target": "mixed2", "out": "o.json"}),
    "synthesize": (["--plant", "p.json", "--horizon", "5", "--weights", "w.json", "--out", "o.json"],
                   {"plant": "p.json", "weights": "w.json"}, {"horizon": 5, "out": "o.json"}),
    "certify": (["f.json", "--plant", "p.json", "--variant", "deployment"],
                {"fir": "f.json", "plant": "p.json"}, {"variant": "deployment"}),
    "simulate": (["f.json", "--plant", "p.json", "--variant", "design_separation",
                  "--horizon", "7", "--disturbance", "d.json", "--out", "o.json"],
                 {"fir": "f.json", "plant": "p.json", "disturbance": "d.json"},
                 {"variant": "design_separation", "horizon": 7, "out": "o.json"}),
    "factorize": (["--plant", "p.json", "--gains", "g.json", "--out", "o.json"],
                  {"plant": "p.json", "gains": "g.json"}, {"out": "o.json"}),
}


@pytest.mark.parametrize("command", MAIN_JOBS)
def test_main_splits_arguments_into_inputs_and_options(tmp_path, monkeypatch, capsys, command):
    import rstab.cli

    jobs = []

    def fake_run(job):
        jobs.append(job)
        return 0, {"command": job.command, "passed": True}

    monkeypatch.setattr(rstab.cli, "run", fake_run)
    argv, inputs, options = MAIN_JOBS[command]
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        rstab.cli.main([command, *argv, "--report", str(report_path)])
    assert exc.value.code == 0
    assert f"{command}: PASS" in capsys.readouterr().out
    assert json.loads(report_path.read_text()) == {"command": command, "passed": True}
    assert jobs == [JobSpec(command, inputs, options)]
    if "horizon" in options:
        assert type(jobs[0].options["horizon"]) is int


def test_iop_of_a_plant_with_feedthrough_is_one_document_by_every_route(tmp_path):
    import rstab

    # x+ = x/2 + u, y = x + u: the direct feedthrough D = 1 makes G biproper
    plant = PlantSS([[F(1, 2)]], [[1]], [[1]], [[1]])
    k = TFMatrix.constant(plant.u_space, plant.y_space, [[F(-1, 4)]])
    plant_path = write(tmp_path, "plant.json", serialize.plant_to_doc(plant))
    written = {}
    for source in ("slp_of", "mixed1", "mixed2"):
        bundle = getattr(rstab, f"{source}_from_controller")(plant, k)
        src = write(tmp_path, f"{source}.json", serialize.bundle_to_doc(source, bundle))
        out = tmp_path / f"{source}_to_iop.json"
        code, report = run(JobSpec("convert", {"bundle": src, "plant": plant_path},
                                   {"target": "iop", "out": str(out)}))
        assert code == 0, report
        written[source] = out.read_bytes()
    assert written["slp_of"] == written["mixed1"] == written["mixed2"]
    expected = rstab.iop_from_controller(plant.transfer(), k)
    assert json.loads(written["slp_of"]) == serialize.bundle_to_doc("iop", expected)


@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
def test_an_unwritable_output_is_a_parse_error(tmp_path, scalar_plant_doc, where):
    inputs, options = _passing_job(tmp_path, scalar_plant_doc, "synthesize")
    out = tmp_path / "missing" / "fir.json" if where == "missing_directory" else tmp_path / "dir"
    if where == "a_directory":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, report = run(JobSpec("synthesize", inputs, {**options, "out": str(out)}))
    assert code == 2 and report["exit_code"] == 2, report
    assert f"cannot write {out}" in report["details"]["error"]
    assert sorted(tmp_path.rglob("*")) == before


def test_main_with_an_unwritable_report_exits_two(tmp_path, capsys):
    from rstab.cli import main

    r = Realization(SP, TFMatrix.zeros(SP, SP))
    path = write(tmp_path, "r.json", serialize.realization_to_doc(r))
    report_path = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--report", str(report_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "verify: PASS" in captured.out
    assert f"cannot write {report_path}" in captured.err
    assert "Traceback" not in captured.err
