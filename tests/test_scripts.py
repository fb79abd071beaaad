"""Smoke tests: the example scripts and ``python -m rstab`` run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", [
    ["scripts/parameterization_tour.py"],
    ["scripts/h2_synthesis_demo.py", "--horizon", "6"],
])
def test_script_runs(argv):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_module_form_runs_without_warnings():
    done = subprocess.run([sys.executable, "-W", "error", "-m", "rstab", "verify", "--help"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "realization" in done.stdout
