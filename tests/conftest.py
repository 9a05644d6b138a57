"""Shared fixtures and small random-input generators for the suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from jumploci import GF, QQ, PolyRing
from jumploci.resolution import RingData, resolve_over_a
from jumploci.homotopy import compute_higher_homotopies, ingest_dg_structure
from jumploci.matrix import PolyMatrix
from jumploci.resolution import FreeResolution
from jumploci.twisted import (TwistedComplex, build_twisted_complex,
                              free_complex, koszul_object, koszul_object_list,
                              direct_sum)

from oracles import shift

REPO = Path(__file__).resolve().parent.parent
SESSIONS = REPO / "sessions"
CHAINS = REPO / "chains"


def matrix_of(ring, rows):
    return PolyMatrix.from_rows(ring, [[ring.parse(e) for e in row]
                                       for row in rows])


def assert_twisted_complex(X: TwistedComplex) -> TwistedComplex:
    """The contract every constructor of a twisted complex keeps, checked
    from scratch: D is square of size rank, D^2 = 0, and each entry at
    (i, j) is bihomogeneous, of chi-degree coh_j - coh_i + 1 (each chi of
    weight 2) and, when the chi carry internal degrees, of internal degree
    int_j - int_i.  Returns X."""
    D = X.D
    assert (D.nrows, D.ncols) == (X.rank, X.rank), "D is not square"
    assert (D @ D).is_zero(), "D does not square to zero"
    for (i, j), p in D.entries.items():
        (coh_i, int_i), (coh_j, int_j) = X.basis_degrees[i], X.basis_degrees[j]
        assert {X.S.wdeg(m) for m in p.terms} == {coh_j - coh_i + 1}, (i, j)
        if X.chi_internal:
            assert {sum(e * w for e, w in zip(m, X.chi_internal))
                    for m in p.terms} == {int_j - int_i}, (i, j)
    return X


# -- fixed pipelines -------------------------------------------------------


@pytest.fixture(scope="session")
def flag_pipeline():
    """GF(101)[x,y,z] mod (x^3,y^3,z^3) acting on coker of the flag row."""
    A = PolyRing(GF(101), ("x", "y", "z"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3"), A.parse("z^3")])
    pres = PolyMatrix.from_rows(
        A, [[A.parse(e) for e in ("x^3", "y^3", "z^3", "x*z", "y*z^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    X = assert_twisted_complex(build_twisted_complex(sys, rd))
    return rd, pres, res, sys, X


@pytest.fixture(scope="session")
def final_pipeline():
    """GF(101)[x,y] mod (x^3,y^3) acting on the cube of the irrelevant
    ideal's quotient."""
    A = PolyRing(GF(101), ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = PolyMatrix.from_rows(
        A, [[A.parse(e) for e in ("x^2", "x*y", "y^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    X = assert_twisted_complex(build_twisted_complex(sys, rd))
    return rd, pres, res, sys, X


def koszul_action_pipeline():
    """Residue field via the rank-4 exterior complex with its strict
    action, over GF(101)[x,y] with quotient sequence (x^2, y^2)."""
    A = PolyRing(GF(101), ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, [d1, d2], [[0], [1, 1], [2]], complete=True)
    e1 = [matrix_of(A, [["x"], ["0"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    sys = ingest_dg_structure(res, [e1, e2], rd)
    X = assert_twisted_complex(build_twisted_complex(sys, rd))
    return rd, res, sys, X


def nonregular_action_pipeline():
    """Quotient by the non-regular sequence (x^2*y, x*y^2) with the
    strict action on the length-two resolution of the quotient ring."""
    A = PolyRing(GF(101), ("x", "y"))
    rd = RingData(A, [A.parse("x^2*y"), A.parse("x*y^2")])
    d1 = matrix_of(A, [["x^2*y", "x*y^2"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, [d1, d2], [[0], [3, 3], [4]], complete=True)
    e1 = [matrix_of(A, [["1"], ["0"]]), matrix_of(A, [["0", "x*y"]])]
    e2 = [matrix_of(A, [["0"], ["1"]]), matrix_of(A, [["-x*y", "0"]])]
    sys = ingest_dg_structure(res, [e1, e2], rd)
    X = assert_twisted_complex(build_twisted_complex(sys, rd))
    return rd, res, sys, X


@pytest.fixture(scope="session")
def koszul_action():
    return koszul_action_pipeline()


@pytest.fixture(scope="session")
def nonregular_action():
    return nonregular_action_pipeline()


# -- random generators -----------------------------------------------------


# A module over k[x,y,z] / (x^3, y^3, z^3) whose system of higher
# homotopies has nonzero blocks at |J| = 2, five of them over GF(101) and
# over QQ; prepend a ``field`` line to make a session.
PAIR_BLOCK_SESSION = """ring x, y, z
ci x^3, y^3, z^3
module coker [[x^3, y^3, z^3, 19*x^2 + 100*y^2 + 20*x*y, 89*x*z + 86*z^2 + 39*x*y, 11*y*z + 86*x*z + 16*y^2]]
"""


def random_homogeneous(S: PolyRing, rng: random.Random, coh_degree: int):
    """Random homogeneous element of S of the given (even) degree; the
    chi variables have cohomological weight two."""
    assert coh_degree % 2 == 0
    e = coh_degree // 2
    p = S.field.p
    exps = _exponents(S.nvars, e)
    picked = [m for m in exps if rng.random() < 0.6]
    if not picked:
        picked = [rng.choice(exps)]
    out = S.zero()
    for m in picked:
        out = out + S.monomial(m, rng.randrange(1, p))
    return out


def _exponents(nvars, total):
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _exponents(nvars - 1, total - head):
            out.append((head,) + tail)
    return out


def random_twisted_complex(S: PolyRing, rng: random.Random) -> TwistedComplex:
    """A random valid complex: iterated cones over a parity-split base,
    occasionally summed and shifted.  Always satisfies D^2 = 0."""
    base = free_complex(S, 2, degrees=[(0, 0), (1, 0)])
    etas = []
    for _ in range(rng.randrange(1, 3)):
        deg = 2 * rng.randrange(1, 3)
        if rng.random() < 0.2:
            etas.append(S.zero())
        else:
            etas.append(random_homogeneous(S, rng, deg))
    X = koszul_object_list(base, etas)
    if rng.random() < 0.3:
        X = direct_sum(X, shift(base, rng.randrange(0, 2)))
    if rng.random() < 0.3:
        X = shift(X, rng.randrange(-1, 2))
    return assert_twisted_complex(X)


def koszul_block(X: TwistedComplex) -> TwistedComplex:
    """A rank-four complex over the ring of X, with jump loci on chi1 = 0;
    summed onto a dual, it makes a complex that is not the dual."""
    base = free_complex(X.S, 2, X.chi_internal, degrees=[(0, 0), (1, 0)])
    return koszul_object(base, X.S.gen(0))


def random_monomial_rows(rng: random.Random):
    """Rows of a presentation of a random monomial-ideal module over
    GF(101)[x,y] annihilated by (x^3, y^3)."""
    gens = {(3, 0), (0, 3)}
    for _ in range(rng.randrange(1, 4)):
        gens.add((rng.randrange(0, 3), rng.randrange(0, 3)))
    gens.discard((0, 0))
    return sorted(gens)


def random_monomial_rows_3(rng: random.Random):
    """Exponents of a random monomial ideal of k[x,y,z] that contains
    x^3, y^3 and z^3."""
    gens = {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
    for _ in range(rng.randrange(1, 4)):
        gens.add(tuple(rng.randrange(0, 3) for _ in range(3)))
    gens.discard((0, 0, 0))
    return sorted(gens)
