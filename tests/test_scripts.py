"""Smoke runs of the experiment scripts in ``scripts/`` with small
arguments: each exits 0 and prints no traceback.  The README's test
command collects the suite with no ``PYTHONPATH`` set."""

import os
import subprocess
import sys

import pytest

from conftest import REPO


@pytest.mark.parametrize("script, args", [
    ("duality_sweep.py", ["--trials", "3"]),
    ("realizability_demo.py", ["--chains", "2"]),
    ("run_examples.py", []),
    ("oracle_vs_crk.py", ["--points", "2"]),
    ("startup_time.py", ["--n", "1"]),
    ("statement_census.py", ["sessions/final.session"]),
    ("same_output.py", [".", ".", "sessions/final.session"]),
    ("same_output.py", [".", ".", "chains/complete_flag.chain"]),
    ("same_output.py", [".", ".", "sessions/flag.session", "--commands",
                        "compute,crk", "--verbose"]),
    ("statement_census.py", ["sessions/final_unit.session"]),
    ("statement_census.py", ["sessions/koszul_summand.session"]),
])
def test_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                           *args], cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout


def test_pytest_finds_the_package_without_pythonpath():
    """``python3 -m pytest`` in a fresh checkout: the pytest configuration
    in ``pyproject.toml`` puts ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only",
                           "-q", "-p", "no:cacheprovider",
                           "tests/test_poly.py"], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
