#!/usr/bin/env python3
"""Time ``import jumploci.cli``, the start-up every command pays.

Each run is a fresh interpreter that imports the package from a copy of
``src/jumploci`` in a temporary directory, so the checkout gets no
``__pycache__`` and a cache left in it cannot count.  Two medians over N
runs are printed:

- without bytecode: ``PYTHONDONTWRITEBYTECODE=1`` and no cache of the
  package, so it is compiled on every run, as in a fresh checkout under
  that variable (the way ``perfbench`` runs);
- with bytecode: cached under a temporary ``PYTHONPYCACHEPREFIX``, filled
  by one untimed run first.

Then it lists the modules outside the package that the import adds to
``sys.modules``.

Usage: python scripts/startup_time.py [--n N]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# The child imports the package and prints the seconds the import took
# and the modules it added that are not part of the package.
_CHILD = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import jumploci.cli
took = time.perf_counter() - start
print(took, *sorted(m for m in set(sys.modules) - before
                    if m.split(".")[0] != "jumploci"))
"""


def _import(env) -> tuple:
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, check=True).stdout
    took, *added = out.split()
    return float(took), added


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    args = parser.parse_args()
    if args.n < 1:
        parser.error("--n must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(REPO / "src" / "jumploci", Path(tmp) / "jumploci",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = tmp
        plain = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
        cached = {**env, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "cache")}
        _import(cached)  # fills the cache
        runs = {"without bytecode": [], "with bytecode": []}
        for _ in range(args.n):  # alternate, so drift hits both alike
            took, added = _import(plain)
            runs["without bytecode"].append(took)
            runs["with bytecode"].append(_import(cached)[0])

    print(f"import jumploci.cli, median of {args.n} fresh interpreters:")
    for name, times in runs.items():
        print(f"  {name:<17} {1000 * statistics.median(times):7.1f} ms")
    print("modules the import adds:", " ".join(added) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
