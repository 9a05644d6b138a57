#!/usr/bin/env python3
"""Compare the stable Betti point oracle with the cohomological rank.

For each cokernel session, sample random nonzero points a in GF(p)^c and
print stableBetti(M, a) next to crk(X(M), a).  On non-free modules the
rank is consistently exactly twice the stable tail rank; the final line
reports how many samples satisfy the 2x relation.

Usage: python scripts/oracle_vs_crk.py [--points N] [--seed N]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jumploci.session import parse_session, build_pipeline  # noqa: E402
from jumploci.loci import stable_betti_oracle, crk_at  # noqa: E402

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    equal = doubled = total = 0
    for path in sorted((REPO / "sessions").glob("*.session")):
        session = parse_session(path.read_text())
        if session.module.kind != "coker" or not session.ring.field.p:
            continue
        pipe = build_pipeline(session)
        p = session.ring.field.p
        print(f"== {path.name} ==")
        points = []
        for _ in range(args.points):
            while True:
                a = [rng.randrange(p) for _ in range(pipe.rd.c)]
                if any(a):
                    break
            points.append(a)
        stables = stable_betti_oracle(pipe.rd, pipe.resolution,
                                      pipe.presentation, points)
        for a, stable in zip(points, stables):
            crk = crk_at(pipe.X, a)
            total += 1
            equal += stable == crk
            doubled += crk == 2 * stable
            print(f"  a={a}  stable={stable}  crk={crk}")
    print(f"\n{equal}/{total} literal matches, "
          f"{doubled}/{total} satisfy crk = 2 * stable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
