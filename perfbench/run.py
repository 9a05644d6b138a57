#!/usr/bin/env python3
"""Benchmark of the jumploci command line tool.

Run from the root of a checkout::

    python3 perfbench/run.py --workload loci --seed 1 --seconds 16 --trace 0

A workload is a fixed list of CLI jobs, each one ``jumploci.cli.main(argv)``
with ``--seed`` appended.  The loop is closed with one client: jobs run one
at a time, each in a child forked from this process right after it has
imported jumploci, so every job starts from the state of a fresh process
and no cached Groebner basis carries over.  Forking is safe because this
process starts no threads.  A child that outlives the per-job limit is
killed and counted as a timeout.

``--trace 0`` runs the job list a fixed number of times, set by
``--seconds`` and the workload's nominal pass length (see WORKLOADS), and
reports the end-to-end metrics.  ``wall_s`` is the sum over jobs of each
job's median time over those passes, and ``setup_s`` the median of the
set-up probes; both are taken at reference speed (see Reference), and the
summary line above the result prints them as measured as well.
``--trace 1`` runs each job twice in a row, once with call counters only
and once traced (see tracer.py), and reports per-layer metrics from the
traced pass.  The traced pass must repeat every count of the counted one,
and its top-level spans must cover each job's time.

Every output is checked: seed-independent jobs byte for byte against
``perfbench/expected/``, oracle jobs by crk == 2 * stable_betti at every
sampled point.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import (COUNTER_NAMES, SPAN_NAMES, Tracer, span_metrics,
                    top_level_time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT_DIR = ROOT / ".perfbench_out"

JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 11
# Top-level spans must cover a job's main() time up to this much glue
# (argument parsing, file reads, report assembly in cli).
COVERAGE_SLACK_S = 0.02
COVERAGE_SLACK_FRAC = 0.05

SESSIONS = ["dg_nonregular", "final", "flag", "koszul_residue", "perfect"]
LOCI_INPUTS = ["loci_a", "loci_b", "loci_c"]
CHAIN = "chains/complete_flag.chain"


def _session(stem):
    if stem in SESSIONS:
        return f"sessions/{stem}.session"
    return f"perfbench/inputs/{stem}.session"


def _job(cmd, stem, *extra, check="exact"):
    argv = [cmd] + (["--input", _session(stem)] if cmd != "realize" else [])
    return {"id": f"{cmd}-{stem}", "argv": argv + list(extra), "check": check}


# Each workload: its job list and the nominal length of one pass in
# seconds, measured at the commit that defined the benchmark.  A run makes
# max(1, round(--seconds / pass_s)) passes, so the number of passes depends
# on --seconds only, never on how fast the machine or the program is.
WORKLOADS = {
    "loci": {"pass_s": 10.0,
             "jobs": [_job(cmd, s) for cmd in ("compute", "dual")
                      for s in SESSIONS + LOCI_INPUTS]
             + [_job("realize", "complete_flag", "--chain", CHAIN)]},
    "betti": {"pass_s": 26.0,
              "jobs": [_job("betti", "final", "--n", "20"),
                       _job("betti", "flag", "--n", "10"),
                       _job("betti", "m2_n3_e3", "--n", "10"),
                       _job("betti", "res_n4_e2", "--n", "10")]},
    "oracle": {"pass_s": 4.0,
               "jobs": [_job("oracle", s, "--points", "10", check="oracle")
                        for s in ("final", "flag", "m2_n3_e2", "res_n3_e2")]},
    "build": {"pass_s": 4.0,
              "jobs": [_job("crk", s)
                       for s in ("res_n7_e2", "m2_n5_e2", "sq_n6_e2")]},
}


def pass_count(workload, seconds):
    return max(1, round(seconds / WORKLOADS[workload]["pass_s"]))


GB_KEYS = {"pairs_processed": "groebner.pairs",
           "zero_reductions": "groebner.zero_reductions",
           "basis_elements": "groebner.basis_elements"}


def input_files(jobs):
    files = []
    for job in jobs:
        argv = job["argv"]
        for flag in ("--input", "--chain"):
            if flag in argv:
                files.append(argv[argv.index(flag) + 1])
    return sorted(set(files))


# -- machine speed --------------------------------------------------------

# The machine the benchmark was written on, a shared 2-vCPU VM, runs faster
# or slower by up to 2x for minutes at a time as other tenants load its
# host, and a job's CPU time changes with it.  So every timing of a plain
# run is bracketed by two timings of a fixed reference computation and
# reported at reference speed: seconds * REFERENCE_S / (mean of the two).
# The reference imports nothing from jumploci, so no change to the program
# moves it: a product of two sparse polynomials over GF(101) kept as dicts
# of exponent tuples, the kind of work jumploci's poly module does.
REFERENCE_S = 0.05  # the reference's usual time on that machine


def _reference_work():
    rng = random.Random(5)
    a, b = ({tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, 101)
             for _ in range(120)} for _ in range(2))
    for _ in range(2):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = (out.get(m, 0) + ca * cb) % 101


class Reference:
    """Times the reference computation in a forked child, as jobs are
    timed, and scales other timings by it."""

    def __init__(self):
        self.last = self._time()

    @staticmethod
    def _time():
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                _reference_work()
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        return perf_counter() - t0

    def scale(self, seconds):
        """``seconds``, measured since the last reference timing, at
        reference speed."""
        after = self._time()
        scaled = seconds * REFERENCE_S * 2 / (self.last + after)
        self.last = after
        return scaled


# -- set-up ---------------------------------------------------------------

SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
from jumploci.cli import parse_chain_file, parse_session
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    (parse_chain_file if path.endswith(".chain") else parse_session)(text)
print(perf_counter() - t0)
"""


class SetupProbe:
    """Times fresh interpreters that import jumploci and parse the
    workload's inputs.  Probes are spread over the run, between jobs, so
    that their median samples the machine as the jobs saw it; the first
    probe, which may compile bytecode, is not counted."""

    def __init__(self, files, interval):
        self.argv = [sys.executable, "-c", SETUP_PROBE, *files]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.interval = interval
        self.raw, self.scaled = [], []
        self._probe()
        self.last = float("-inf")

    def _probe(self):
        proc = subprocess.run(self.argv, env=self.env, capture_output=True,
                              text=True, timeout=60, check=True)
        return float(proc.stdout)

    def _sample(self, reference):
        self.raw.append(self._probe())
        self.scaled.append(reference.scale(self.raw[-1]))

    def between_jobs(self, reference):
        if perf_counter() - self.last >= self.interval:
            self._sample(reference)
            self.last = perf_counter()

    def medians(self, reference):
        """(raw, at reference speed) medians over SETUP_SAMPLES probes."""
        while len(self.raw) < SETUP_SAMPLES:
            self._sample(reference)
        return statistics.median(self.raw), statistics.median(self.scaled)


# -- one job in a forked child --------------------------------------------


def _child(job, argv, mode, wfd):
    """Runs in the forked child; never returns."""
    try:
        from jumploci import cli
        from jumploci.groebner import GBStats
        out, err = io.BytesIO(), io.BytesIO()
        sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
        sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
        tracer = None
        if mode is not None:
            tracer = Tracer(job, record_spans=(mode == "trace"))
        before = GBStats.snapshot()
        result = {}
        t0 = perf_counter()
        try:
            if tracer is not None:
                tracer.install()  # raises if a listed function is gone
                t0 = perf_counter()
            result["rc"] = cli.main(argv)
        except BaseException:  # the job's crash is its recorded failure
            result["rc"] = None
            result["error"] = traceback.format_exc(limit=4)
        result["main_s"] = perf_counter() - t0
        after = GBStats.snapshot()
        sys.stdout.flush()
        sys.stderr.flush()
        result["stdout"] = out.getvalue().decode("utf-8", "replace")
        result["stderr"] = err.getvalue().decode("utf-8", "replace")
        result["gb"] = {GB_KEYS[k]: after[k] - before[k] for k in GB_KEYS}
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.collect_counts()
        payload = json.dumps(result).encode("utf-8")
        while payload:
            payload = payload[os.write(wfd, payload):]
    finally:
        os._exit(0)


def run_job(job, seed, mode, timeout):
    """Fork, run one job, collect its result; the wall time covers the
    whole child from fork to reap.  ``mode`` is None (plain), "count"
    (call counters only) or "trace" (spans and counters)."""
    argv = job["argv"] + ["--seed", str(seed)]
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(job["id"], argv, mode, wfd)
    os.close(wfd)
    chunks, timed_out, reaped = [], False, False
    try:
        deadline = t0 + timeout
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        reaped = True
        wall = perf_counter() - t0
    finally:
        os.close(rfd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if timed_out:
        return {"id": job["id"], "wall_s": wall, "rc": None,
                "error": f"timeout after {timeout:.1f} s"}
    try:
        result = json.loads(b"".join(chunks))
    except ValueError:
        result = {"rc": None, "error": f"child died, status {status}"}
    result.update(id=job["id"], wall_s=wall)
    return result


def run_passes(jobs, seed, modes, deadline, probe=None, reference=None):
    """Runs the job list once per entry of ``modes`` (see run_job), job
    by job, so that passes of different modes see the machine in the
    same state.  A pass's time is the sum of its job times, so set-up
    probes between jobs are not counted in it.  With a reference, each
    job's time is also given at reference speed, as ``ref_s``."""
    passes = [{"wall_s": 0.0, "jobs": []} for _ in modes]
    for job in jobs:
        if probe is not None:
            probe.between_jobs(reference)
        for mode, p in zip(modes, passes):
            left = min(JOB_TIMEOUT_S, deadline - perf_counter())
            if left <= 0:
                result = {"id": job["id"], "wall_s": 0.0, "rc": None,
                          "error": "run deadline reached"}
            else:
                result = run_job(job, seed, mode, left)
            if reference is not None:
                result["ref_s"] = reference.scale(result["wall_s"])
            p["jobs"].append(result)
            p["wall_s"] += result["wall_s"]
    return passes


# -- checks ---------------------------------------------------------------


def check_output(job, result, expected):
    """None when the job succeeded with a correct output, else the reason."""
    if result.get("rc") != 0:
        return result.get("error") or (
            f"exit code {result.get('rc')}: {result.get('stderr', '')[-300:]}")
    text = result["stdout"]
    if job["check"] == "exact":
        if text != expected[job["id"]]:
            return "output differs from perfbench/expected"
        return None
    want = int(job["argv"][job["argv"].index("--points") + 1])
    try:
        points = json.loads(text)["points"]
        bad = [p["point"] for p in points if p["crk"] != 2 * p["stable_betti"]]
    except (ValueError, KeyError, TypeError):
        return "malformed oracle output"
    if len(points) != want:
        return f"{len(points)} oracle points, expected {want}"
    if bad:
        return f"crk != 2 * stable_betti at {bad[0]}"
    return None


def job_counts(result):
    return {**result.get("gb", {}), **result.get("counts", {})}


def determinism_errors(passes):
    """Every count a job reports must repeat exactly across passes."""
    errors = []
    for job_results in zip(*(p["jobs"] for p in passes)):
        seen = [job_counts(r) for r in job_results if r.get("rc") == 0]
        for counts in seen[1:]:
            for key, value in counts.items():
                if key in seen[0] and seen[0][key] != value:
                    errors.append(f"{job_results[0]['id']}: {key} "
                                  f"{seen[0][key]} != {value}")
    return errors


# -- metrics --------------------------------------------------------------


def layer_metrics(traced_pass, counted_pass):
    metrics = {}
    totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
              for name in SPAN_NAMES}
    counts = dict.fromkeys(list(GB_KEYS.values()) + COUNTER_NAMES, 0)
    for result in traced_pass["jobs"]:
        if "spans" not in result:
            continue
        for name, m in span_metrics(result["spans"]).items():
            for key in m:
                totals[name][key] += m[key]
        for key, value in job_counts(result).items():
            if key in counts:
                counts[key] += value
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.busy_s"] = (totals[name]["busy_s"], "s")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    for key, value in counts.items():
        metrics[key] = (value, "count")
    useful = counts["groebner.basis_elements"]
    wasted = counts["groebner.zero_reductions"]
    metrics["groebner.useful_ratio"] = (
        useful / (useful + wasted) if useful + wasted else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        traced_pass["wall_s"] - counted_pass["wall_s"], "s")
    return metrics


def coverage_errors(traced_pass):
    errors = []
    for result in traced_pass["jobs"]:
        if "spans" not in result:
            continue
        uncovered = result["main_s"] - top_level_time(result["spans"])
        if uncovered > COVERAGE_SLACK_S + COVERAGE_SLACK_FRAC * result["main_s"]:
            errors.append(f"{result['id']}: {uncovered:.3f} s of "
                          f"{result['main_s']:.3f} s outside top-level spans")
    return errors


def write_trace(workload, seed, traced_pass):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    spans = [{"job": job, "id": idx, "parent": parent,
              "name": name, "start": start, "end": end}
             for r in traced_pass["jobs"]
             for idx, (job, name, start, end, parent)
             in enumerate(r.get("spans", []))]
    path.write_text(json.dumps(spans))
    return path


# -- entry point ----------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_layout():
    needed = [SRC / "jumploci" / "cli.py", ROOT / CHAIN]
    needed += [ROOT / _session(s) for s in SESSIONS]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def load_expected(jobs):
    return {job["id"]: (EXPECTED / f"{job['id']}.json").read_text("utf-8")
            for job in jobs if job["check"] == "exact"}


def main(argv=None):
    args = parse_args(argv)
    start = perf_counter()
    missing = missing_layout()
    if missing:
        print("error: not a jumploci checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    jobs = WORKLOADS[args.workload]["jobs"]
    expected = load_expected(jobs)
    import jumploci.cli  # noqa: F401  (children fork from this state)

    deadline = start + RUN_LIMIT_S
    if args.trace:
        passes = run_passes(jobs, args.seed, ("count", "trace"), deadline)
    else:
        count = pass_count(args.workload, args.seconds)
        probe = SetupProbe(input_files(jobs), args.seconds / SETUP_SAMPLES)
        reference = Reference()
        passes = []
        for _ in range(count):
            passes += run_passes(jobs, args.seed, (None,), deadline, probe,
                                 reference)
        raw_setup_s, setup_s = probe.medians(reference)

    attempted = failed = 0
    for p in passes:
        for job, result in zip(jobs, p["jobs"]):
            attempted += 1
            reason = check_output(job, result, expected)
            if reason:
                failed += 1
                print(f"FAIL {job['id']}: {reason.strip()}", file=sys.stderr)
    problems = determinism_errors(passes)
    if args.trace:
        problems += coverage_errors(passes[1])
        trace_path = write_trace(args.workload, args.seed, passes[1])
        metrics = layer_metrics(passes[1], passes[0])
        print(f"{args.workload}: spans written to "
              f"{trace_path.relative_to(ROOT)}")
    else:
        per_job = list(zip(*(p["jobs"] for p in passes)))
        raw_wall_s = sum(statistics.median(r["wall_s"] for r in results)
                         for results in per_job)
        wall_s = sum(statistics.median(r["ref_s"] for r in results)
                     for results in per_job)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
        print(f"{args.workload}: seed {args.seed}, {len(passes)} passes of "
              f"{len(jobs)} jobs, measured wall_s {raw_wall_s:.3f} (per "
              "pass " + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
              + f") and setup_s {raw_setup_s:.4f}; at reference speed "
              f"wall_s {wall_s:.3f} and setup_s {setup_s:.4f}; peak_rss_mb "
              f"{peak_kb / 1024.0:.1f}, failed_frac {failed / attempted:.4f} "
              f"({failed}/{attempted})")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
