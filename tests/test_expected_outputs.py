"""Every seed-independent benchmark job prints its recorded output.

``perfbench/run.py`` checks each job whose ``check`` is ``"exact"`` byte
for byte against ``perfbench/expected/<id>.json``, each in a forked child.
This test runs the same jobs in process, so a change to what the command
line prints fails the suite, not only the benchmark.  It reads
``perfbench/`` and writes nothing there, not even bytecode.

The benchmark checks its ``oracle`` jobs only by crk = 2 * stable Betti
number, so their output at seed 1 is pinned here, in ``tests/expected/``,
and so is ``crk`` at the generic point and at one point of every session
and benchmark input whose output the benchmark does not pin,
``betti --n 7`` and ``--n 20`` on every cokernel among them, and
``compute`` and ``dual`` on every one whose minor table fits (all but
``sq_n6_e2``).
"""

import importlib.util
import sys

import pytest

from jumploci import cli
from jumploci.session import parse_session

from conftest import REPO

PERFBENCH = REPO / "perfbench"


def _exact_jobs():
    """The benchmark's job list, read from ``perfbench/run.py``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))  # run.py imports tracer
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return [job for workload in run.WORKLOADS.values()
            for job in workload["jobs"] if job["check"] == "exact"]


JOBS = _exact_jobs()


def test_every_exact_job_has_a_recorded_output():
    assert {f"{job['id']}.json" for job in JOBS} == \
        {path.name for path in (PERFBENCH / "expected").glob("*.json")}


@pytest.mark.parametrize("job", JOBS, ids=[job["id"] for job in JOBS])
def test_job_prints_its_recorded_output(job, capsysbinary, monkeypatch):
    monkeypatch.chdir(REPO)
    code = cli.main(job["argv"] + ["--seed", "1"])
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    assert out == (PERFBENCH / "expected" / f"{job['id']}.json").read_bytes()


ORACLE_INPUTS = {"final": "sessions/final.session",
                 "flag": "sessions/flag.session",
                 "m2_n3_e2": "perfbench/inputs/m2_n3_e2.session",
                 "res_n3_e2": "perfbench/inputs/res_n3_e2.session"}


@pytest.mark.parametrize("stem", sorted(ORACLE_INPUTS))
def test_oracle_prints_its_pinned_output(stem, capsysbinary, monkeypatch):
    monkeypatch.chdir(REPO)
    code = cli.main(["oracle", "--input", ORACLE_INPUTS[stem],
                     "--points", "10", "--seed", "1"])
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    assert out == (REPO / "tests" / "expected"
                   / f"oracle-{stem}.json").read_bytes()


INPUTS = (sorted((REPO / "sessions").glob("*.session"))
          + sorted((PERFBENCH / "inputs").glob("*.session")))


def _crk_jobs():
    """(name, argv) of ``crk`` and of ``crk --point 3,5,7,..`` (the first
    c of those primes) on every session and benchmark input, but for the
    benchmark's own exact jobs."""
    pinned = [job["argv"] for job in JOBS]
    jobs = []
    for path in INPUTS:
        argv = ["crk", "--input", str(path.relative_to(REPO))]
        c = parse_session(path.read_text()).ring_data.c
        point = ",".join(map(str, (3, 5, 7, 11, 13, 17, 19)[:c]))
        if argv not in pinned:
            jobs.append((f"crk-{path.stem}", argv))
        jobs.append((f"crk_point-{path.stem}", argv + ["--point", point]))
    return jobs


def _betti_jobs():
    """(name, argv) of ``betti --n 7`` and ``betti --n 20`` on every
    cokernel session and benchmark input, but for the benchmark's own
    exact jobs."""
    pinned = [job["argv"] for job in JOBS]
    jobs = []
    for path in INPUTS:
        if parse_session(path.read_text()).module.kind != "coker":
            continue
        for n in ("7", "20"):
            argv = ["betti", "--input", str(path.relative_to(REPO)),
                    "--n", n]
            if argv not in pinned:
                jobs.append((f"betti_n{n}-{path.stem}", argv))
    return jobs


def _loci_jobs():
    """(name, argv) of ``compute`` and ``dual`` on every session and
    benchmark input but ``sq_n6_e2``, whose minor table passes
    ``MAX_MINOR_WORK``, and but for the benchmark's own exact jobs."""
    pinned = [job["argv"] for job in JOBS]
    jobs = []
    for path in INPUTS:
        if path.stem == "sq_n6_e2":
            continue
        for cmd in ("compute", "dual"):
            argv = [cmd, "--input", str(path.relative_to(REPO))]
            if argv not in pinned:
                jobs.append((f"{cmd}-{path.stem}", argv))
    return jobs


CRK_JOBS = _crk_jobs()
BETTI_JOBS = _betti_jobs()
LOCI_JOBS = _loci_jobs()


def _assert_pinned(name, argv, capsysbinary, monkeypatch):
    monkeypatch.chdir(REPO)
    code = cli.main(argv)
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    assert out == (REPO / "tests" / "expected" / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, argv", CRK_JOBS,
                         ids=[name for name, _ in CRK_JOBS])
def test_crk_prints_its_pinned_output(name, argv, capsysbinary,
                                      monkeypatch):
    _assert_pinned(name, argv, capsysbinary, monkeypatch)


@pytest.mark.parametrize("name, argv", BETTI_JOBS,
                         ids=[name for name, _ in BETTI_JOBS])
def test_betti_prints_its_pinned_output(name, argv, capsysbinary,
                                        monkeypatch):
    _assert_pinned(name, argv, capsysbinary, monkeypatch)


@pytest.mark.parametrize("name, argv", LOCI_JOBS,
                         ids=[name for name, _ in LOCI_JOBS])
def test_compute_and_dual_print_their_pinned_output(name, argv, capsysbinary,
                                                    monkeypatch):
    _assert_pinned(name, argv, capsysbinary, monkeypatch)
