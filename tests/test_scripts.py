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


@pytest.mark.parametrize("command", ["verify", "convert", "synthesize", "certify", "simulate",
                                     "factorize"])
def test_every_argument_of_the_generated_parser_has_its_help(command):
    from rstab.cli import _COMMANDS

    done = subprocess.run([sys.executable, "-W", "error", "-m", "rstab", command, "--help"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # argparse wraps long lines, so compare with runs of whitespace as one space
    shown = " ".join(done.stdout.split())
    for arg in _COMMANDS[command].args:
        assert arg.help and " ".join(arg.help.split()) in shown, arg.name
        assert (arg.flag or arg.name) in shown
