#!/usr/bin/env python3
"""Check that two source trees print the same thing for the same inputs.

For each session file, the commands ``compute``, ``dual``, ``crk``,
``betti --n 12`` and ``oracle --points 3 --seed 1`` run, and for each
chain file (``.chain``) the command ``realize``, in fresh interpreters
(``python -m jumploci.cli``) with ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONPATH`` set to the tree's ``src``, every job of TREE_A first, then
every job of TREE_B.  Each job whose standard output, standard error or
exit code differs between the trees is reported, with the standard-error
lines that differ, those of TREE_A marked ``-`` and those of TREE_B
``+``, and the script exits 1 if any job differs.  ``--commands`` runs a
subset of the five on the session files, such as ``crk`` alone on inputs
whose other commands are slow.
``--verbose`` runs both trees with ``JUMPLOCI_VERBOSE=1``, so that the
engine statistics on standard error are compared too; without it, both
run with the variable empty.  ``--ladder`` adds the ladder sessions, the
texts of ``tests/conftest.py::LADDER`` in this checkout, written to a
temporary directory as ``NAME.session``: the entries named, or every
entry when none is.
``--mutants N`` adds N mutated copies of each FILE, written to a
temporary directory as ``NAME.mK.session`` (or ``.chain``), K = 0..N-1:
the edits of ``tests/test_fuzz.py::_mutate``, 1 to 4 of them, each a
drop, dup, swap or zero of a word, and whether the field becomes QQ,
all drawn from ``random.Random(f"{NAME}-{K}")``, NAME the file's name.
They run and compare like any other file; ``--commands crk`` is the
cheap choice, and a grammar change is checked this way on texts that
the parser refuses as well as on those it reads.
``--rounds N`` runs every job N times, TREE_A's jobs first in rounds 1,
3, 5, ... and TREE_B's first in rounds 2, 4, ..., compares the outputs
of round 1, and then prints one TIME line per job: each tree's median
wall time, their ratio TREE_B/TREE_A, and each tree's largest peak
resident set (``ru_maxrss`` of the job's own process, read with
``os.wait4``).  Linux carries the peak of the process that starts a job
into the job's figure, so a last line prints this script's own peak,
below which a job's figure says nothing.

Usage: python scripts/same_output.py TREE_A TREE_B [FILE...]
           [--ladder [NAME...]] [--commands compute,dual,crk,betti,oracle]
           [--verbose] [--rounds N] [--mutants N]
"""

import argparse
import difflib
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

JOBS = {
    "compute": ["compute"],
    "dual": ["dual"],
    "crk": ["crk"],
    "betti": ["betti", "--n", "12"],
    "oracle": ["oracle", "--points", "3", "--seed", "1"],
}

# the edits of ``tests/test_fuzz.py::EDITS``
MUTATIONS = ("drop", "dup", "swap", "zero")


def jobs_of(path, commands):
    """{command: argv} for one file: ``realize`` on a chain file, the
    chosen commands on a session file."""
    if path.suffix == ".chain":
        return {"realize": ["realize", "--chain", str(path)]}
    return {name: [*JOBS[name], "--input", str(path)] for name in commands}


def _tests_on_path():
    """Make ``tests/`` and the ``src`` it imports importable."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]


def ladder():
    """{name: session text} of ``tests/conftest.py::LADDER``."""
    _tests_on_path()
    from conftest import LADDER
    return LADDER


def mutants(name, text, count):
    """The ``count`` mutated copies of the file ``name`` with ``text``
    (``--mutants``), each from its own ``random.Random``."""
    _tests_on_path()
    from test_fuzz import _mutate
    out = []
    for k in range(count):
        rng = random.Random(f"{name}-{k}")
        over_qq = rng.random() < 0.5
        edits = [(rng.choice(MUTATIONS), rng.randrange(1000),
                  rng.randrange(1000)) for _ in range(rng.randint(1, 4))]
        out.append(_mutate(text, over_qq, edits))
    return out


def run_job(tree, argv, env):
    """((exit code, stdout, stderr), wall seconds, peak resident set in
    KiB) of one job in a fresh interpreter.  The outputs go to temporary
    files and the peak is the job's own, from ``os.wait4`` on its
    process."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "jumploci.cli", *argv],
            cwd=tree, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(), err.read()), wall, \
            usage.ru_maxrss


def run_tree(tree, files, commands, verbose):
    """{(file, command): run_job's triple} for one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1",
               JUMPLOCI_VERBOSE="1" if verbose else "")
    return {(path, name): run_job(tree, argv, env)
            for path in files
            for name, argv in jobs_of(path, commands).items()}


def timing_line(job, runs_a, runs_b):
    """The TIME line of one job, given its run_job triples of each round
    in each tree."""
    wall_a, wall_b = (statistics.median(wall for _, wall, _ in runs)
                      for runs in (runs_a, runs_b))
    rss_a, rss_b = (max(rss for _, _, rss in runs) / 1024
                    for runs in (runs_a, runs_b))
    return (f"TIME {job[0].name} {job[1]}: median {wall_a:.3f} s vs "
            f"{wall_b:.3f} s (x{wall_b / wall_a:.2f}); max rss "
            f"{rss_a:.1f} MiB vs {rss_b:.1f} MiB")


def differences(job, result_a, result_b):
    """The report lines of one (file, command) job, given its
    (exit code, stdout, stderr) in each tree: [] when they agree, else a
    DIFFER line naming what differs, followed, when the standard errors
    differ, by the lines of each that the other lacks."""
    (code_a, out_a, err_a), (code_b, out_b, err_b) = result_a, result_b
    parts = [name for name, same in (("stdout", out_a == out_b),
                                     ("stderr", err_a == err_b),
                                     ("exit code", code_a == code_b))
             if not same]
    if not parts:
        return []
    lines = [f"DIFFER {job[0].name} {job[1]}: {', '.join(parts)} "
             f"(exit {code_a} vs {code_b})"]
    diff = difflib.unified_diff(
        err_a.decode(errors="replace").splitlines(),
        err_b.decode(errors="replace").splitlines(), lineterm="", n=0)
    # past the two file headers, each hunk is an @@ line and its lines
    lines += [f"    {line}" for line in list(diff)[2:]
              if not line.startswith("@@")]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("files", type=Path, nargs="*")
    parser.add_argument("--ladder", nargs="*", metavar="NAME",
                        help="also the LADDER sessions named, or all")
    parser.add_argument("--commands", default=",".join(JOBS))
    parser.add_argument("--verbose", action="store_true",
                        help="run both trees with JUMPLOCI_VERBOSE=1")
    parser.add_argument("--rounds", type=int, metavar="N",
                        help="run every job N times and print its timings")
    parser.add_argument("--mutants", type=int, default=0, metavar="N",
                        help="also N mutated copies of each FILE")
    args = parser.parse_args()
    if args.rounds is not None and args.rounds < 1:
        parser.error(f"--rounds must be positive, not {args.rounds}")
    if args.mutants < 0:
        parser.error(f"--mutants must not be negative, not {args.mutants}")
    commands = args.commands.split(",")
    unknown = [c for c in commands if c not in JOBS]
    if unknown:
        parser.error(f"unknown command(s): {', '.join(unknown)}")
    texts = {}
    if args.ladder is not None:
        texts = ladder()
        names = args.ladder or list(texts)
        unknown = [name for name in names if name not in texts]
        if unknown:
            parser.error(f"unknown ladder entries: {', '.join(unknown)}")
        texts = {name: texts[name] for name in names}
    if not (args.files or texts):
        parser.error("no FILE and no --ladder")
    with tempfile.TemporaryDirectory() as tmp:
        files = [f.resolve() for f in args.files]
        for name, text in texts.items():
            files.append(Path(tmp) / f"{name}.session")
            files[-1].write_text(text)
        for i, path in enumerate(files[:len(args.files)]):
            (Path(tmp) / str(i)).mkdir()
            for k, text in enumerate(mutants(path.name, path.read_text(),
                                             args.mutants)):
                files.append(Path(tmp) / str(i)
                             / f"{path.stem}.m{k}{path.suffix}")
                files[-1].write_text(text)
        trees = [args.tree_a.resolve(), args.tree_b.resolve()]
        runs = [[], []]  # each tree's run_tree result, round by round
        for r in range(args.rounds or 1):
            for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                runs[k].append(run_tree(trees[k], files, commands,
                                        args.verbose))
    a, b = runs[0][0], runs[1][0]
    differ = 0
    for job, (result, _, _) in a.items():
        lines = differences(job, result, b[job][0])
        if lines:
            differ += 1
            print("\n".join(lines))
    failing = sum(code != 0 for (code, _, _), _, _ in a.values())
    print(f"{len(a)} jobs, {differ} differ; {failing} exit nonzero "
          f"in {args.tree_a}")
    if args.rounds:
        for job in a:
            print(timing_line(job, [run[job] for run in runs[0]],
                              [run[job] for run in runs[1]]))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"max rss floor {own:.1f} MiB: this script's own peak, "
              "which every job's figure includes")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
