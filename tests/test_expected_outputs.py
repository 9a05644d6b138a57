"""Every seed-independent benchmark job prints its recorded output.

``perfbench/run.py`` checks each job whose ``check`` is ``"exact"`` byte
for byte against ``perfbench/expected/<id>.json``, each in a forked child.
This test runs the same jobs in process, so a change to what the command
line prints fails the suite, not only the benchmark.  It reads
``perfbench/`` and writes nothing there, not even bytecode.
"""

import importlib.util
import sys

import pytest

from jumploci import cli

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
