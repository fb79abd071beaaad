"""FIR taps stay exact from a synthesized document to its certificate."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rstab import (
    FIRPhi,
    JobSpec,
    PlantSS,
    RealizationVariant,
    certify_realization,
    fir_from_slp,
    fir_from_tfmatrix,
    fir_to_tfmatrix,
    impulse_match,
    run,
    synthesize_sf_h2,
)
from rstab import serialize
from rstab.tfmatrix import SignalSpace

HALF = PlantSS.state_feedback([[F(1, 2)]], [[1]])


def write(path, doc):
    serialize.dump_document(doc, path)
    return str(path)


def test_synthesized_taps_load_exactly_and_certify_the_synthesized_pair(tmp_path):
    plant_path = write(tmp_path / "plant.json", serialize.plant_to_doc(HALF))
    fir_path = str(tmp_path / "fir.json")
    code, _ = run(JobSpec("synthesize", {"plant": plant_path}, {"horizon": 6, "out": fir_path}))
    assert code == 0
    bundle = synthesize_sf_h2(HALF, [[1]], [[1]], 6)
    parts = serialize.fir_bundle_from_doc(serialize.load_document(fir_path))
    assert fir_to_tfmatrix(parts["phi_x"], HALF.x_space, HALF.x_space) == bundle.phi_x
    assert fir_to_tfmatrix(parts["phi_u"], HALF.u_space, HALF.x_space) == bundle.phi_u

    code, report = run(JobSpec("certify", {"plant": plant_path, "fir": fir_path},
                               {"variant": "original_sls"}))
    assert code == 0 and report["passed"]
    rep = certify_realization(RealizationVariant.original(parts["phi_x"], parts["phi_u"]), HALF)
    s_xx = rep.stability.S.block("x", "x")
    assert s_xx == bundle.phi_x.relabel(s_xx.rows, s_xx.cols)


def fir_pairs():
    """(Phi_x, Phi_u) with random Fraction taps, 2 x 2 and 1 x 2, at one horizon."""
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=1000)

    def taps(t, rows):
        tap = st.lists(st.lists(entries, min_size=2, max_size=2), min_size=rows, max_size=rows)
        return st.lists(tap, min_size=t, max_size=t).map(lambda ts: FIRPhi(tuple(ts)))

    return st.integers(1, 4).flatmap(lambda t: st.tuples(taps(t, 2), taps(t, 1)))


@given(fir_pairs())
def test_fraction_taps_round_trip_through_transfer_matrices_and_documents(pair):
    phi_x, phi_u = pair
    horizon = phi_x.horizon
    x_sp, u_sp = SignalSpace.single("x", 2), SignalSpace.single("u", 1)
    mats = {"phi_x": fir_to_tfmatrix(phi_x, x_sp, x_sp), "phi_u": fir_to_tfmatrix(phi_u, u_sp, x_sp)}
    doc = serialize.fir_bundle_to_doc(horizon, mats)
    loaded = serialize.fir_bundle_from_doc(json.loads(json.dumps(doc)))
    for name, original in (("phi_x", phi_x), ("phi_u", phi_u)):
        for got in (fir_from_tfmatrix(mats[name], horizon), loaded[name]):
            assert got.horizon == horizon
            for g, w in zip(got.taps, original.taps):
                assert all(type(v) is F for v in g.flat)
                assert (g == w).all()


def test_exact_perturbation_of_a_tap_is_caught():
    fx, fu = fir_from_slp(synthesize_sf_h2(HALF, [[1]], [[1]], 6))
    taps = list(fu.taps)
    taps[0] = taps[0] + F(1, 100)
    rep = impulse_match(RealizationVariant.original(fx, FIRPhi(tuple(taps))), HALF, 50, tol=1e-9)
    assert not rep.passed and rep.max_deviation >= 1e-2


MALFORMED = {
    "scalar_tap": ({"phi_u": [5]}, "real matrix"),
    "row_tap": ({"phi_u": [[5]]}, "real matrix"),
    "ragged_tap": ({"phi_u": [[["1"], ["2", "3"]]]}, "equal lengths"),
    "zero_horizon": ({"horizon": 0, "phi_x": [], "phi_u": []}, "horizon must be positive"),
    "negative_horizon": ({"horizon": -1}, "horizon must be positive"),
    "taps_differ_in_shape": ({"horizon": 2, "phi_x": [[["1"]], [["1"]]],
                              "phi_u": [[["1"]], [["1", "2"]]]}, "every phi_u tap must be 1 x 1"),
    "parts_disagree": ({"phi_u": [[["1", "2"]]]}, "every phi_u tap must be 1 x 1"),
    "fractional_horizon": ({"horizon": 1.7}, "integer horizon"),
    "boolean_horizon": ({"horizon": True}, "integer horizon"),
}


@pytest.mark.parametrize("fields, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_tap_matrix_is_a_parse_error(tmp_path, fields, message):
    plant_path = write(tmp_path / "plant.json", serialize.plant_to_doc(HALF))
    doc = {"schema_version": 1, "kind": "fir_bundle", "horizon": 1,
           "phi_x": [[["1"]]], "phi_u": [[["1"]]], **fields}
    fir_path = write(tmp_path / "fir.json", doc)
    simulate = {"horizon": 3, "out": str(tmp_path / "trace.json")}
    for command, options in (("certify", {}), ("simulate", simulate)):
        code, report = run(JobSpec(command, {"plant": plant_path, "fir": fir_path},
                                   {"variant": "original_sls", **options}))
        assert code == 2 and report["exit_code"] == 2
        assert message in report["details"]["error"]
