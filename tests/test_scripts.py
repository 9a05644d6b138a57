"""Smoke runs of the experiment scripts in ``scripts/`` with small
arguments: each exits 0 and prints no traceback.  The README's test
command collects the suite with no ``PYTHONPATH`` set."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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
    ("same_output.py", [".", ".", "--ladder", "nm_n4_e2", "--commands",
                        "crk"]),
    ("code_lines.py", ["."]),
    ("same_output.py", [".", ".", "sessions/final.session",
                        "chains/complete_flag.chain", "--mutants", "2",
                        "--commands", "crk"]),
])
def test_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                           *args], cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout


def test_same_output_rounds_prints_a_timing_line_a_job():
    """``--rounds 2`` compares the outputs as without it, then prints one
    TIME line for the job, with each tree's median wall time, their
    ratio and each tree's peak resident set, and the script's own peak,
    which the jobs' figures include."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "same_output.py"), ".", ".",
         "sessions/final.session", "--commands", "crk", "--rounds", "2"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary, timing, floor = proc.stdout.splitlines()
    assert summary == "1 jobs, 0 differ; 0 exit nonzero in ."
    assert re.fullmatch(r"TIME final\.session crk: median [\d.]+ s vs "
                        r"[\d.]+ s \(x[\d.]+\); max rss [\d.]+ MiB vs "
                        r"[\d.]+ MiB", timing), timing
    assert re.fullmatch(r"max rss floor [\d.]+ MiB: this script's own "
                        r"peak, which every job's figure includes", floor)


def test_pytest_finds_the_package_without_pythonpath():
    """``python3 -m pytest`` in a fresh checkout: the pytest configuration
    in ``pyproject.toml`` puts ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only",
                           "-q", "-p", "no:cacheprovider",
                           "tests/test_poly.py"], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _script(name):
    """The module of ``scripts/NAME.py``."""
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_output_prints_the_stderr_lines_that_differ():
    """A job whose engine line moved is reported with the line of each
    tree, TREE_A's marked ``-`` and TREE_B's ``+``; the lines both trees
    print, and a job that agrees, are not."""
    differences = _script("same_output").differences
    job = (Path("sessions/flag.session"), "oracle")
    a = (0, b"{}\n", b"time 1\nzero_reductions=15\nend\n")
    b = (0, b"{}\n", b"time 1\nzero_reductions=12\nend\n")
    assert differences(job, a, b) == [
        "DIFFER flag.session oracle: stderr (exit 0 vs 0)",
        "    -zero_reductions=15", "    +zero_reductions=12"]
    assert differences(job, a, a) == []
    c = (1, b"", b"--- a line that looks like a header\n")
    assert differences(job, a, c) == [
        "DIFFER flag.session oracle: stdout, stderr, exit code "
        "(exit 0 vs 1)",
        "    -time 1", "    -zero_reductions=15", "    -end",
        "    +--- a line that looks like a header"]


def test_same_output_mutants_are_fixed_by_the_file_name():
    """``--mutants`` draws each copy from a generator seeded by the file's
    name and the copy's index, so both trees, and every later run, read
    the same texts; a copy depends on the name, not on the directory."""
    mutants = _script("same_output").mutants
    text = (REPO / "sessions" / "flag.session").read_text()
    first = mutants("flag.session", text, 4)
    assert len(first) == 4 and len(set(first)) > 1
    assert mutants("flag.session", text, 4) == first
    assert mutants("flag.session", text, 2) == first[:2]


def test_code_lines_counts_no_docstring_comment_or_blank_line():
    """Of a module docstring, a comment line, a blank line, a function
    with a docstring and a line of code with a comment, and a string over
    two lines that is no docstring, five lines are code."""
    source = ('"""A module\n    docstring."""\n'
              "# a comment\n"
              "\n"
              "def f(x):\n"
              '    """One line."""\n'
              "    y = x  # a comment after code\n"
              '    return """two\n    lines"""\n'
              "X = 1\n")
    assert _script("code_lines").code_lines(source) == 5
