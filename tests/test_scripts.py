"""Smoke runs of the experiment scripts in ``scripts/`` with small
arguments: each exits 0 and prints no traceback."""

import subprocess
import sys

import pytest

from conftest import REPO


@pytest.mark.parametrize("script, args", [
    ("duality_sweep.py", ["--trials", "3"]),
    ("realizability_demo.py", ["--chains", "2"]),
    ("run_examples.py", []),
    ("oracle_vs_crk.py", ["--points", "2"]),
])
def test_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                           *args], cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout
