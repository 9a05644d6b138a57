#!/usr/bin/env python3
"""Realize random descending chains of monomial varieties as jump loci.

Draws strictly descending chains in GF(101)[chi1,chi2,chi3], builds a
twisted complex whose jump-loci report walks down the chain, and prints
the resulting jump numbers and plateau varieties.

Usage: python scripts/realizability_demo.py [--chains N] [--seed N]
"""

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jumploci import GF, PolyRing  # noqa: E402
from jumploci.groebner import Ideal  # noqa: E402
from jumploci.loci import realize  # noqa: E402


def random_chain(S, rng):
    pool = [S.monomial(m) for m in itertools.product(range(2), repeat=3)
            if 0 < sum(m) <= 2]
    chain = [Ideal(S, [])]
    current = chain[0]
    for _ in range(rng.randrange(1, 4)):
        for _attempt in range(20):
            extra = [rng.choice(pool) for _ in range(rng.randrange(1, 3))]
            candidate = Ideal(S, list(current.gens) + extra).reduced()
            if not candidate.same_variety(current):
                chain.append(candidate)
                current = candidate
                break
        else:
            break
    chain.append(Ideal(S, [S.one()]))
    return chain


def describe(I):
    if I.is_zero_ideal():
        return "Spec S"
    if I.is_unit_ideal():
        return "empty"
    return "V(" + ", ".join(str(g) for g in I.gens) + ")"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    S = PolyRing(GF(101), ("chi1", "chi2", "chi3"), (2, 2, 2))
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.chains):
        chain = random_chain(S, rng)
        print(f"chain {trial}: " + "  >  ".join(describe(I) for I in chain))
        start = time.perf_counter()
        X, report, ok = realize(S, chain)
        elapsed = time.perf_counter() - start
        if not ok:
            failures += 1
        print(f"  rank {X.rank}, jump numbers {report.jump_numbers}, "
              f"realized={ok} ({elapsed:.2f} s)")
        for _, i, ideal, dim in report.plateaus[:-1]:
            print(f"    V^{i} = {describe(ideal)} (dim {dim})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
