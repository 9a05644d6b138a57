#!/usr/bin/env python3
"""Compare the stable Betti point oracle with the cohomological rank.

For each cokernel session over a finite field, run the ``oracle``
command, which samples random nonzero points a in GF(p)^c, and print
stableBetti(M, a) next to crk(X(M), a) from its report.  On non-free
modules the rank is consistently exactly twice the stable tail rank; the
final line reports how many samples satisfy the 2x relation.

Usage: python scripts/oracle_vs_crk.py [--points N] [--seed N]
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jumploci import cli  # noqa: E402
from jumploci.session import parse_session  # noqa: E402

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    equal = doubled = total = 0
    for path in sorted((REPO / "sessions").glob("*.session")):
        session = parse_session(path.read_text())
        if session.module.kind != "coker" or not session.ring.field.p:
            continue
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = cli.main(["oracle", "--points", str(args.points),
                             "--seed", str(args.seed), "--input", str(path)])
        if code:
            return code
        print(f"== {path.name} ==")
        for point in json.loads(out.buffer.getvalue())["points"]:
            stable, crk = point["stable_betti"], point["crk"]
            total += 1
            equal += stable == crk
            doubled += crk == 2 * stable
            print(f"  a={point['point']}  stable={stable}  crk={crk}")
    print(f"\n{equal}/{total} literal matches, "
          f"{doubled}/{total} satisfy crk = 2 * stable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
