"""Golden documents: every document the CLI writes on one fixed plant, byte for byte.

The plant is x+ = A x + B u with A = [[1/2, 1], [0, 3/2]] (unstable),
B = [0, 1]^T, measured in full (C = I, D = 0).  The jobs cover synthesis at
T = 4, certification and simulation of all three realization variants,
factorization with exact gains, and five conversions: three of the parameter
bundle of the static controller u = [0, -2] x (to iop, mixed1 and youla),
and two that chain off those outputs (the IOP bundle over the state to
mixed2, and mixed1 to slp_of).

Exact results are unique, so any correct change to the arithmetic writes the
same bytes.  After a deliberate change to a document's format, rewrite the
committed documents with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from rstab import JobSpec, PlantSS, RatFun, TFMatrix, run, serialize, slp_sf_from_controller

GOLDEN = Path(__file__).parent / "data" / "golden"

PLANT = PlantSS([[F(1, 2), 1], [0, F(3, 2)]], [[0], [1]], [[1, 0], [0, 1]], [[0], [0]])
#: deadbeat gains for A + BF and A + LC
GAINS = {"schema_version": serialize.SCHEMA_VERSION, "kind": "gains",
         "F": [["-1/4", "-2"]], "L": [["-1/2", "-1"], ["0", "-3/2"]]}
#: a stabilizing static state feedback (closed-loop poles +-1/2), not the factors' F
CONTROLLER = [[0, -2]]
#: a disturbance on every channel of the (x, u, delta) loop, at different steps
DISTURBANCE = {"schema_version": serialize.SCHEMA_VERSION, "kind": "disturbance",
               "signals": {"x": [[1, 0], [0, "-1/2"]], "u": [[0], [0], [2]],
                           "delta": [[0, 0], [0, 0], [0, 0], ["1/4", 1]]}}

#: (command, its inputs by file name, options); every job writes ``<name>.json``
JOBS = {
    "synthesize": ("synthesize", {"plant": "plant"}, {"horizon": 4}),
    "certify_original_sls": ("certify", {"fir": "synthesize", "plant": "plant"},
                             {"variant": "original_sls"}),
    "certify_deployment": ("certify", {"fir": "synthesize", "plant": "plant"},
                           {"variant": "deployment"}),
    "certify_design_separation": ("certify", {"fir": "separation", "plant": "plant"},
                                  {"variant": "design_separation"}),
    "simulate": ("simulate", {"fir": "synthesize", "plant": "plant"},
                 {"variant": "original_sls", "horizon": 6}),
    "simulate_deployment": ("simulate", {"fir": "synthesize", "plant": "plant",
                                         "disturbance": "disturbance"},
                            {"variant": "deployment", "horizon": 6}),
    "simulate_design_separation": ("simulate", {"fir": "separation", "plant": "plant",
                                                "disturbance": "disturbance"},
                                   {"variant": "design_separation", "horizon": 6}),
    "factorize": ("factorize", {"plant": "plant", "gains": "gains"}, {}),
    "convert_slp_sf_to_iop": ("convert", {"bundle": "slp_sf", "plant": "plant"},
                              {"target": "iop"}),
    "convert_slp_sf_to_mixed1": ("convert", {"bundle": "slp_sf", "plant": "plant"},
                                 {"target": "mixed1"}),
    "convert_slp_sf_to_youla": ("convert", {"bundle": "slp_sf", "plant": "plant",
                                            "factors": "factorize"}, {"target": "youla"}),
    "convert_iop_of_x_to_mixed2": ("convert", {"bundle": "convert_slp_sf_to_iop",
                                               "plant": "plant"}, {"target": "mixed2"}),
    "convert_mixed1_to_slp_of": ("convert", {"bundle": "convert_slp_sf_to_mixed1",
                                             "plant": "plant"}, {"target": "slp_of"}),
}


def _write_inputs(work: Path) -> None:
    k = TFMatrix(PLANT.u_space, PLANT.x_space, [[RatFun(c) for c in CONTROLLER[0]]])
    docs = {
        "plant": serialize.plant_to_doc(PLANT),
        "gains": GAINS,
        "disturbance": DISTURBANCE,
        "slp_sf": serialize.bundle_to_doc("slp_sf", slp_sf_from_controller(PLANT, k)),
    }
    for name, doc in docs.items():
        serialize.dump_document(doc, work / f"{name}.json")


def produce(work: Path) -> dict[str, bytes]:
    """Run every job in ``work`` and return the bytes each one wrote.

    A certify job writes no document, so its report stands in for one; the
    deployment realization of this unstable plant fails, and its report
    names the unstable entries.
    """
    _write_inputs(work)
    written = {}
    for name, (command, inputs, options) in JOBS.items():
        if name == "certify_design_separation":
            fir = json.loads((work / "synthesize.json").read_text())
            fir.update(p_c=fir["phi_x"], m_c=fir["phi_u"])
            serialize.dump_document(fir, work / "separation.json")
        out = work / f"{name}.json"
        if command != "certify":
            options = {**options, "out": str(out)}
        code, report = run(JobSpec(command, {k: str(work / f"{v}.json") for k, v in inputs.items()},
                                   options))
        if command == "certify":
            serialize.dump_document(report, out)
        else:
            assert code == 0, (name, report)
        written[name] = out.read_bytes()
    return written


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", JOBS)
def test_document_is_byte_identical(written, name):
    assert written[name] == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_document_has_a_job():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(JOBS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, data in produce(Path(tmp)).items():
            (GOLDEN / f"{name}.json").write_bytes(data)
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
