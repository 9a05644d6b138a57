"""Every function in ``src/jumploci`` runs when the commands run.

``test_every_src_function_is_entered`` runs the program in one child
process, with a profile hook set before ``import jumploci``: ``cli.main``
over the jobs of ``_jobs``, then the five routes that no command runs but
the benchmark tracer wraps by name (``perfbench/tracer.py``), once each.
A ``def`` in the package that none of them entered serves only the tests,
and belongs in ``tests/oracles.py``.  It is found whatever its name, also
when another part of ``src/`` uses the same name.  Only the dunders that
Python may call implicitly are exempt (``EXEMPT``).  Likewise every field
that an ``__init__`` in ``src/jumploci`` sets is read somewhere in the repo.
"""

import ast
import json
import os
import subprocess
import sys

from jumploci.session import parse_session

from conftest import (CONTRACTIBLE_PAIR_SESSION, NON_DESCENDING_CHAINS,
                      REPO)

SRC = REPO / "src" / "jumploci"
EXEMPT = {"__init__", "__repr__", "__str__", "__eq__", "__hash__"}

# The child: it reads the jobs as JSON on stdin, runs each through
# ``cli.main`` with its output captured, calls the pinned routes on the
# flag session, and prints the exit codes, the error and standard output,
# and the (file, first line) of every code object of the package it
# entered.
_CHILD = r"""
import io, json, os, sys
from pathlib import Path

entered = set()

def _profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(_profile)
import jumploci
from jumploci import cli

jobs, flag = json.load(sys.stdin)
out, results = sys.stdout, []
for argv, verbose in jobs:
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    sys.stderr = io.StringIO()
    if verbose:
        os.environ["JUMPLOCI_VERBOSE"] = "1"
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a malformed command line, or --help
        code = exc.code
    os.environ.pop("JUMPLOCI_VERBOSE", None)
    sys.stdout.flush()
    results.append([code, sys.stderr.getvalue(),
                    sys.stdout.buffer.getvalue().decode()])
sys.stdout, sys.stderr = out, sys.__stderr__

from jumploci.homotopy import compute_higher_homotopies, dualize_homotopies
from jumploci.loci import complexity_of, duality_check, jump_loci_report
from jumploci.resolution import dualize_over_a
from jumploci.session import build_pipeline, parse_session
from jumploci.twisted import build_twisted_complex, homology_presentation

pipe = build_pipeline(parse_session(Path(flag).read_text()))
system = compute_higher_homotopies(pipe.resolution, pipe.rd)
dual = dualize_homotopies(system, dualize_over_a(pipe.resolution))
homology_presentation(pipe.X)
complexity_of(pipe.X)
duality_check(jump_loci_report(pipe.X),
              jump_loci_report(build_twisted_complex(dual, pipe.rd)))
sys.setprofile(None)

package = os.path.dirname(jumploci.__file__)
print(json.dumps({"results": results, "entered": sorted(
    [os.path.basename(code.co_filename), code.co_firstlineno]
    for code in entered if os.path.dirname(code.co_filename) == package)}))
"""

# Inline inputs: a cokernel with a unit entry, which the resolution
# cancels, and sessions and chains that each stop at one input check, with
# the error line that shows the check was reached.
_BAD = {
    "unit.session": (
        "field GF(101)\nring x, y\nci x^2, y^2\n"
        "module coker [[1, x, y], [1, 0, 0]]\n", None),
    "broken_dg.session": (
        (REPO / "sessions" / "koszul_residue.session").read_text().replace(
            "action e2 [[0], [y]] [[-y, 0]]", "action e2 [[0], [y]] [[y, 0]]"),
        "error: d*e2 + e2*d != f_2*id at block 1, entry (0, 0)\n"),
    "free.session": (
        "field GF(101)\nring x, y\nci x^2, y^2\nmodule coker [[0]]\n",
        "error: f_1 = x^2 does not annihilate the module\n"),
    # a ci element too long to print, named by its leading term
    "long.session": (
        "field GF(101)\nring x, y\nci x^2, (x+y)^800\nmodule coker [[x]]\n",
        "error: f_2 = x^800 + ... (752 terms) does not annihilate the "
        "module\n"),
    **NON_DESCENDING_CHAINS,
}


def _jobs(tmp_path):
    """(argv, verbose, says) for every job: ``says`` is the error output
    the job must end with, exit 1, or "" for a clean exit 0, or None when
    only its exit code (0 or 1) is checked."""
    jobs = []
    inputs = sorted((REPO / "sessions").glob("*.session")) + [
        REPO / "perfbench" / "inputs" / "loci_a.session"]
    for path in inputs:
        c = parse_session(path.read_text()).ring_data.c
        for extra in (["compute"], ["dual"], ["crk"],
                      ["crk", "--point", ",".join(["1"] * c)],
                      ["betti", "--n", "8"], ["oracle", "--points", "2"]):
            jobs.append((extra + ["--input", str(path)], False, None))
    flag = str(REPO / "sessions" / "flag.session")
    jobs.append((["dual", "--input", flag, "--format", "text"], False, None))
    jobs.append((["compute", "--input", flag], True, None))
    jobs.append((["realize", "--chain",
                  str(REPO / "chains" / "complete_flag.chain")], False, ""))
    jobs.append((["--help"], False, ""))
    jobs.append((["compute", "--input", flag, "--n", "x"], False,
                 "error: argument --n: invalid int value: 'x'\n"))
    for name, (text, says) in _BAD.items():
        path = tmp_path / name
        path.write_text(text)
        argv = (["realize", "--chain", str(path)] if name.endswith(".chain")
                else ["compute", "--input", str(path)])
        jobs.append((argv, False, says))
    # M of dimension 1,024, past ``loci.MAX_TATE_DIM``: the oracle resolves
    # M over each section, where its resolution does not end.
    big = tmp_path / "big_tate.session"
    big.write_text("field GF(101)\nring x, y\nci x^64, y^64\n"
                   "module coker [[x^32, y^32]]\n")
    jobs.append((["oracle", "--input", str(big), "--points", "2"], False, ""))
    # The Koszul complex of koszul_residue plus a contractible pair: the one
    # input whose twisted complex is not minimal as built, so the body of
    # ``twisted.minimalize`` runs.
    pair = tmp_path / "contractible_pair.session"
    pair.write_text(CONTRACTIBLE_PAIR_SESSION)
    for command in ("compute", "dual", "crk"):
        jobs.append(([command, "--input", str(pair)], False, ""))
    return jobs


def _defs():
    """(file, first line) -> "file:line qualname" for every def in the
    package; a decorated def's code starts at its first decorator."""
    out = {}

    def visit(node, fname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                if child.name not in EXEMPT:
                    out[fname, first] = f"{fname}:{child.lineno} {qual}"
                visit(child, fname, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, fname, prefix + child.name + ".")
            else:
                visit(child, fname, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return out


def test_every_src_function_is_entered(tmp_path):
    jobs = _jobs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("JUMPLOCI_VERBOSE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=REPO, env=env,
        input=json.dumps([[[argv, verbose] for argv, verbose, _ in jobs],
                          str(REPO / "sessions" / "flag.session")]),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    printed = {}
    for (argv, _, says), (code, err, out) in zip(jobs, report["results"]):
        assert code in (0, 1), (argv, err)
        if says is not None:
            assert (code, err) == (1 if says else 0, says), argv
        printed[tuple(argv)] = out
    # cancelling the contractible pair changes nothing that is printed
    residue = str(REPO / "sessions" / "koszul_residue.session")
    pair = str(tmp_path / "contractible_pair.session")
    for command in ("compute", "dual", "crk"):
        assert printed[command, "--input", pair] \
            == printed[command, "--input", residue] != "", command
    entered = {tuple(key) for key in report["entered"]}
    never = [name for key, name in sorted(_defs().items())
             if key not in entered]
    assert not never, "never entered by a command: " + ", ".join(never)


def test_every_record_field_is_read():
    """A field that the ``__init__`` of a class in ``src/`` sets on
    ``self`` is read, by its name as an attribute, somewhere in ``src/``,
    ``tests/``, ``scripts/`` or ``perfbench/``; one that is only ever
    written is work nothing needs."""
    paths = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                   for p in (REPO / d).rglob("*.py"))
    read = {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) \
                        and init.name == "__init__":
                    unread += [f"{cls.name}.{node.attr}"
                               for node in ast.walk(init)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Store)
                               and ast.unparse(node.value) == "self"
                               and node.attr not in read]
    assert not unread, "never read: " + ", ".join(unread)
