"""Twisted complexes: construction, minimalization, homology, duals."""

import random

import pytest

from jumploci import GF, PolyRing
from jumploci.groebner import module_hilbert_data
from jumploci.matrix import PolyMatrix, least_unit
from jumploci.resolution import RingData, PipelineError, resolve_over_a
from jumploci.homotopy import compute_higher_homotopies, ingest_dg_structure
from jumploci.session import parse_session, build_pipeline
from jumploci.twisted import (TwistedComplex, build_twisted_complex,
                              minimalize, homology_presentation,
                              s_dual, direct_sum, koszul_object,
                              koszul_object_list, free_complex)
from jumploci.loci import crk_at, jump_locus_ideal

from conftest import (REPO, SESSIONS, assert_twisted_complex, matrix_of,
                      koszul_action_pipeline, random_homogeneous,
                      random_twisted_complex, random_monomial_rows)
from oracles import explicit_dual, shift

GF101 = GF(101)
GF5 = GF(5)


def _b_as_module_complex():
    """Minimal model of the quotient ring as a module over itself,
    c = 2: the operator Koszul complex of rank 4."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2"), A.parse("y^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    return rd, build_twisted_complex(sys, rd)


def test_residue_field_model_is_zero_differential(koszul_action):
    rd, res, sys, X = koszul_action
    assert X.rank == 4
    assert X.D.is_zero()
    assert crk_at(X, [3, 7]) == 4 and crk_at(X, None) == 4


def test_nonregular_model_single_block(nonregular_action):
    rd, res, sys, X = nonregular_action
    Xm = minimalize(X)
    assert Xm.rank == 4
    entries = {k: str(v) for k, v in Xm.D.entries.items()}
    assert sorted(entries.values()) == ["chi1", "chi2"]
    assert crk_at(Xm, None) == 2


def test_quotient_ring_model_is_operator_koszul():
    rd, X = _b_as_module_complex()
    Xm = minimalize(X)
    assert Xm.rank == 4
    assert minimalize(X).rank == 4
    # homology is the residue field of the operator ring
    mat, degs = homology_presentation(Xm)
    dim, mult, _ = module_hilbert_data(mat, [0] * mat.nrows,
                                       (1,) * Xm.S.nvars)
    assert (dim, mult) == (0, 1)


def test_minimalize_removes_contractible_summand():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    degs = [(0, 0), (1, 0), (1, 0), (0, 0)]
    D = PolyMatrix(S, 4, 4, {(1, 3): S.one()})
    X = TwistedComplex(S, degs, D, (2, 2))
    Xm = minimalize(X)
    assert Xm.rank == 2
    assert Xm.D.is_zero()


def test_minimalize_is_idempotent(nonregular_action):
    rd, res, sys, X = nonregular_action
    Xm = minimalize(X)
    again = minimalize(Xm)
    assert again.rank == Xm.rank
    assert again.D.entries == Xm.D.entries


def test_nonminimal_build_gives_same_jump_ideals():
    """Inflating with a contractible summand changes nothing."""
    rd, res, sys, X = koszul_action_pipeline()
    S = X.S
    degs = [(0, 0), (1, 0)]
    cone = TwistedComplex(S, degs,
                          PolyMatrix(S, 2, 2, {(1, 0): S.one()}),
                          X.chi_internal)
    inflated = direct_sum(X, cone)
    assert_twisted_complex(minimalize(inflated))
    for i in (2, 4):
        assert jump_locus_ideal(inflated, i).same_variety(
            jump_locus_ideal(X, i))
    assert minimalize(inflated).rank == minimalize(X).rank


def test_homology_of_zero_differential_is_free(koszul_action):
    rd, res, sys, X = koszul_action
    mat, degs = homology_presentation(X)
    assert mat.ncols == 0 and len(degs) == 4


def test_homology_of_nonregular_model(nonregular_action):
    rd, res, sys, X = nonregular_action
    mat, degs = homology_presentation(minimalize(X))
    dim, mult, _ = module_hilbert_data(mat, [0] * mat.nrows,
                                       (1,) * X.S.nvars)
    assert dim == 2  # complexity two: a free part survives


def test_s_dual_is_involution(nonregular_action):
    rd, res, sys, X = nonregular_action
    XX = s_dual(s_dual(X))
    assert XX.D.entries == X.D.entries
    assert XX.basis_degrees == X.basis_degrees


def test_s_dual_of_zero_differential(koszul_action):
    """F = Kos(x, y) has degrees 0, 1, 1, 2 in blocks 0, 1, 2; its dual
    runs through the blocks from 2 down to 0 with degrees negated."""
    rd, res, sys, X = koszul_action
    Y = s_dual(X)
    assert Y.D.is_zero()
    assert X.basis_degrees == [(0, 0), (1, 1), (1, 1), (2, 2)]
    assert Y.basis_degrees == [(0, -2), (1, -1), (1, -1), (2, 0)]


# -- the S-dual of X(M) is X(M*) built the explicit way ---------------------


def _assert_s_dual_is_the_explicit_dual(res, sys, rd):
    """s_dual(X) equals, entry for entry, the twisted complex built from
    Hom_A(F, A) and the transposed homotopies; returns (X, s_dual(X))."""
    X = assert_twisted_complex(build_twisted_complex(sys, rd))
    Z = assert_twisted_complex(explicit_dual(res, sys, rd))
    Y = assert_twisted_complex(s_dual(X))
    assert Y.D.entries == Z.D.entries
    assert Y.basis_degrees == Z.basis_degrees
    assert Y.chi_internal == Z.chi_internal
    return X, Y


SESSION_FILES = (sorted(SESSIONS.glob("*.session"))
                 + sorted((REPO / "perfbench" / "inputs").glob("*.session")))


@pytest.mark.parametrize("path", SESSION_FILES, ids=lambda p: p.name)
def test_s_dual_is_the_explicit_dual_on_every_session(path):
    """On cokernels and DG complexes alike; the pipeline's X_dual is it."""
    session = parse_session(path.read_text())
    pipe = build_pipeline(session)
    rd, res, mod = pipe.rd, pipe.resolution, session.module
    if mod.kind == "coker":
        sys = compute_higher_homotopies(res, rd)
    else:
        sys = ingest_dg_structure(res, mod.actions, rd)
    X, Y = _assert_s_dual_is_the_explicit_dual(res, sys, rd)
    assert X.D.entries == pipe.X.D.entries
    assert_twisted_complex(minimalize(pipe.X))
    assert_twisted_complex(minimalize(pipe.X_dual))
    assert pipe.X_dual.D.entries == Y.D.entries
    assert pipe.X_dual.basis_degrees == Y.basis_degrees


@pytest.mark.parametrize("names", ["x, y", "x, y, z"])
def test_s_dual_is_the_explicit_dual_on_random_monomial_modules(names):
    """Over GF(101)[x,y] and GF(101)[x,y,z], both modulo (x^3, y^3)."""
    rng = random.Random(29)
    A = PolyRing(GF101, tuple(names.split(", ")))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    for _ in range(6):
        gens = {m + (0,) * (A.nvars - 2) for m in random_monomial_rows(rng)}
        if A.nvars == 3:
            gens |= {(rng.randrange(3), rng.randrange(3), rng.randrange(1, 3))
                     for _ in range(rng.randrange(1, 3))}
        pres = PolyMatrix.from_rows(A, [[A.monomial(m)
                                         for m in sorted(gens)]])
        res = resolve_over_a(rd, pres)
        _assert_s_dual_is_the_explicit_dual(
            res, compute_higher_homotopies(res, rd), rd)


def test_shift_preserves_jump_ideals(nonregular_action):
    rd, res, sys, X = nonregular_action
    Y = shift(X, 1)
    for i in (1, 2, 3, 4):
        assert jump_locus_ideal(Y, i).same_variety(jump_locus_ideal(X, i))


def test_direct_sum_adds_ranks(koszul_action):
    rd, res, sys, X = koszul_action
    Z = direct_sum(X, X)
    assert Z.rank == 8
    assert crk_at(Z, [1, 2]) == 8


def test_koszul_object_on_zero_eta_doubles_crk(koszul_action):
    rd, res, sys, X = koszul_action
    Z = koszul_object(X, X.S.zero())
    assert Z.rank == 8
    assert crk_at(Z, [5, 9]) == 8


def test_koszul_object_rank_drop():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    X = free_complex(S, 1)
    Z = koszul_object(X, S.parse("chi1"))
    assert crk_at(Z, [0, 3]) == 2   # on the vanishing locus of chi1
    assert crk_at(Z, [1, 0]) == 0   # off it
    assert jump_locus_ideal(Z, 1).same_variety(
        jump_locus_ideal(Z, 2))


def test_koszul_object_rejects_odd_degree():
    S = PolyRing(GF101, ("chi1",), (2,))
    X = free_complex(S, 1)
    bad = PolyRing(GF101, ("chi1",), (1,)).parse("chi1")
    with pytest.raises(Exception):
        koszul_object(X, bad)


def test_koszul_object_rejects_mixed_internal_degree():
    """With chi1, chi2 of internal degrees 2 and 3, chi1 + chi2 has one
    cohomological degree but two internal ones, so its cone would not be
    bihomogeneous."""
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    X = free_complex(S, 1, (2, 3))
    assert_twisted_complex(koszul_object(X, S.parse("chi2")))
    with pytest.raises(PipelineError, match="one internal degree"):
        koszul_object(X, S.parse("chi1 + chi2"))


def test_minimalize_preserves_hilbert_series_of_homology():
    rng = random.Random(5)
    S = PolyRing(GF5, ("chi1", "chi2"), (2, 2))
    for _ in range(4):
        X = random_twisted_complex(S, rng)
        h1, d1 = homology_presentation(X)
        h2, d2 = homology_presentation(minimalize(X))
        w = (1,) * S.nvars
        out1 = module_hilbert_data(h1, [deg[0] for deg in d1], w)
        out2 = module_hilbert_data(h2, [deg[0] for deg in d2], w)
        assert out1[:2] == out2[:2]


def test_tbetti_examples(flag_pipeline):
    rd, pres, res, sys, X = flag_pipeline
    assert minimalize(X).rank == 16
    rd2, X2 = _b_as_module_complex()
    assert minimalize(X2).rank == 4
    S = X2.S
    degs = [(0, 0), (1, 0)]
    cone = TwistedComplex(S, degs,
                          PolyMatrix(S, 2, 2, {(1, 0): S.one()}),
                          X2.chi_internal)
    assert minimalize(cone).rank == 0


# -- minimalize against the elimination it replaced ------------------------


def _old_minimalize(X: TwistedComplex) -> TwistedComplex:
    """``minimalize`` before it was a loop of ``matrix.cancel_unit``: the
    first entry with a nonzero constant term in sorted order, its update
    written out, then both basis elements dropped."""
    if X.is_minimal():
        return X
    fld = X.S.field
    entries = dict(X.D.entries)
    live = list(range(X.rank))
    while True:
        unit = next(((p, q, poly.constant_term())
                     for (p, q), poly in sorted(entries.items())
                     if poly.constant_term()), None)
        if unit is None:
            break
        p, q, u = unit
        col_q = {r: poly for (r, cc), poly in entries.items() if cc == q}
        row_p = {cc: poly for (r, cc), poly in entries.items() if r == p}
        inv = fld.inv(u)
        for r, a in col_q.items():
            for cc, b in row_p.items():
                if r == p or cc == q:
                    continue
                s = entries.get((r, cc), X.S.zero()) + \
                    (a * b).scale(fld.neg(inv))
                if s.is_zero():
                    entries.pop((r, cc), None)
                else:
                    entries[r, cc] = s
        entries = {(r, cc): poly for (r, cc), poly in entries.items()
                   if r not in (p, q) and cc not in (p, q)}
        live = [i for i in live if i not in (p, q)]
    remap = {old: new for new, old in enumerate(live)}
    degs = [X.basis_degrees[i] for i in live]
    D = PolyMatrix(X.S, len(live), len(live),
                   {(remap[r], remap[c]): poly
                    for (r, c), poly in entries.items()})
    return TwistedComplex(X.S, degs, D, X.chi_internal)


def _conjugate(X: TwistedComplex, rng) -> TwistedComplex:
    """E D E^-1 for a random elementary change of basis E = 1 + s e_ij,
    i != j, with s of the degree coh_j - coh_i; the result is again a
    twisted complex, isomorphic to X."""
    coh = [u for u, _ in X.basis_degrees]
    pairs = [(i, j) for i in range(X.rank) for j in range(X.rank)
             if i != j and coh[j] >= coh[i] and (coh[j] - coh[i]) % 2 == 0]
    if not pairs:
        return X
    i, j = rng.choice(pairs)
    s = random_homogeneous(X.S, rng, coh[j] - coh[i])
    one = PolyMatrix.identity(X.S, X.rank)
    N = PolyMatrix(X.S, X.rank, X.rank, {(i, j): s})
    return TwistedComplex(X.S, X.basis_degrees, (one + N) @ X.D @ (one - N),
                          X.chi_internal)


def _random_nonminimal_complex(S, rng) -> TwistedComplex:
    """A random complex plus one to three contractible pairs, the basis
    mixed by a few random changes of basis so that the units share rows
    and columns with other entries."""
    X = random_twisted_complex(S, rng)
    for _ in range(rng.randrange(1, 4)):
        u = rng.randrange(-1, 3)
        degs = [(u, 0), (u + 1, 0)]
        pair = PolyMatrix(S, 2, 2, {(1, 0): S.const(rng.randrange(1, 5))})
        X = direct_sum(X, TwistedComplex(S, degs, pair, X.chi_internal))
    for _ in range(rng.randrange(4, 10)):
        X = _conjugate(X, rng)
    return assert_twisted_complex(X)


def test_minimalize_equals_the_old_elimination():
    """On random non-minimal complexes over GF(5)[chi1, chi2], the
    Schur-complement loop gives the old elimination's D entry for entry,
    the same rank, and the same reduced jump ideals."""
    rng = random.Random(97)
    S = PolyRing(GF5, ("chi1", "chi2"), (2, 2))
    cancelled = mixed = 0
    for _ in range(30):
        X = _random_nonminimal_complex(S, rng)
        new, old = minimalize(X), _old_minimalize(X)
        assert_twisted_complex(new)
        assert new.basis_degrees == old.basis_degrees
        assert new.D.entries == old.D.entries
        assert new.rank == old.rank == minimalize(new).rank
        for i in range(1, new.rank + 1):
            assert set(jump_locus_ideal(new, i).gens) == \
                set(jump_locus_ideal(old, i).gens)
        cancelled += (X.rank - new.rank) // 2
        # the first unit shares its row and its column with other entries
        p, q = least_unit(X.D.entries)
        mixed += (any(c == q and r != p for r, c in X.D.entries)
                  and any(r == p and c != q for r, c in X.D.entries))
    assert cancelled >= 40 and mixed >= 10
