#!/usr/bin/env python3
"""Duality sweep over random monomial-ideal modules.

For each trial, draw a random monomial module over GF(101)[x,y]/(x^3,y^3),
build the twisted complex and its explicit dual, compute one jump-loci
report for each, and compare every jump variety and the Betti degree of
the module with that of its dual (the Bass degree of the module).

Usage: python scripts/duality_sweep.py [--trials N] [--seed N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from jumploci import GF, PolyRing  # noqa: E402
from jumploci.matrix import PolyMatrix  # noqa: E402
from jumploci.resolution import RingData, resolve_over_a  # noqa: E402
from jumploci.homotopy import compute_higher_homotopies  # noqa: E402
from jumploci.twisted import build_twisted_complex  # noqa: E402
from jumploci.loci import (duality_check, jump_loci_report,  # noqa: E402
                           RouteDisagreement)

from conftest import random_monomial_rows  # noqa: E402
from oracles import explicit_dual  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    A = PolyRing(GF(101), ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    failures = 0
    for trial in range(args.trials):
        gens = random_monomial_rows(rng)
        pres = PolyMatrix.from_rows(A, [[A.monomial(m) for m in gens]])
        start = time.perf_counter()
        res = resolve_over_a(rd, pres)
        sys_ = compute_higher_homotopies(res, rd)
        X = build_twisted_complex(sys_, rd)
        X_dual = explicit_dual(res, sys_, rd)
        try:
            bdeg_equal = duality_check(jump_loci_report(X),
                                       jump_loci_report(X_dual))
            label = "ok" if bdeg_equal else "MISMATCH (Betti degrees)"
        except RouteDisagreement as exc:
            bdeg_equal = False
            label = f"MISMATCH ({exc})"
        elapsed = time.perf_counter() - start
        if not bdeg_equal:
            failures += 1
        names = ", ".join(str(A.monomial(m)) for m in gens)
        print(f"trial {trial}: coker [{names}] -> {label} "
              f"({elapsed:.2f} s)")
    print(f"{args.trials - failures}/{args.trials} agree")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
