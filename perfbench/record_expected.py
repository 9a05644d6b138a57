#!/usr/bin/env python3
"""Record the expected output of every seed-independent benchmark job.

Run from the root of a checkout::

    python3 perfbench/record_expected.py

Each job runs with two seeds; the outputs must agree, and are written to
``perfbench/expected/<job>.json``.  Re-record only when a change means to
alter the CLI's output, and say why in the change.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

import run

SEEDS = (1, 2)


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    import jumploci.cli  # noqa: F401  (children fork from this state)
    run.EXPECTED.mkdir(exist_ok=True)
    for workload, spec in run.WORKLOADS.items():
        for job in spec["jobs"]:
            if job["check"] != "exact":
                continue
            outputs = set()
            for seed in SEEDS:
                result = run.run_job(job, seed, None, run.JOB_TIMEOUT_S)
                if result.get("rc") != 0:
                    sys.exit(f"{job['id']} failed: {result.get('error')}"
                             f"{result.get('stderr', '')}")
                outputs.add(result["stdout"])
            if len(outputs) != 1:
                sys.exit(f"{job['id']}: output depends on the seed")
            path = run.EXPECTED / f"{job['id']}.json"
            path.write_text(outputs.pop(), encoding="utf-8")
            print(f"{workload}: wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    t0 = perf_counter()
    main()
    print(f"done in {perf_counter() - t0:.1f} s")
