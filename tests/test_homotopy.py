"""Higher homotopy systems: construction, validation, dualization."""

import ast
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci.groebner import ModuleGB, vector_of
from jumploci.matrix import PolyMatrix
from jumploci.poly import Polynomial
from jumploci.resolution import (RingData, FreeResolution, PipelineError,
                                 resolve_over_a, dualize_over_a, _resolve)
from jumploci.homotopy import (HigherHomotopySystem, compute_higher_homotopies,
                               dualize_homotopies, ingest_dg_structure,
                               _grading, _needed)
from jumploci.session import parse_session

from conftest import (LADDER, REPO, SESSIONS, PAIR_BLOCK_SESSION,
                      matrix_of, matrix_sum, random_monomial_rows,
                      random_monomial_rows_3)
from oracles import (_block, _identities, _splittings, d_matrix,
                     dualize_and_verify, every_block_system, full_system,
                     identity_matrix, reduced_echelon_grading, transpose,
                     vec_add, verify_system)

GF101 = GF(101)


def test_single_hypersurface_homotopy_is_identity():
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    sigma = PolyMatrix.from_columns(A, 1, sys.sigma[(1,)][0])
    assert sigma.ncols == 1
    assert str(sigma.entries[0, 0]) == "1"


def test_residue_field_system_verifies():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x"), A.parse("y")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    verify_system(full_system(sys, rd), rd)
    assert (1, 0) in sys.sigma and (0, 1) in sys.sigma


def test_free_module_needs_no_homotopies():
    """f annihilates no nonzero free module, so M = A has no system."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [[]]))
    with pytest.raises(PipelineError, match="does not annihilate"):
        compute_higher_homotopies(res, rd)


def test_annihilation_is_checked_before_the_regular_sequence(monkeypatch):
    """An input error is found without the Groebner basis and Hilbert
    series of the ci ideal that the regular-sequence test builds."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [[A.parse("x")]]))

    def not_called(self):
        raise AssertionError("the regular-sequence test ran first")

    monkeypatch.setattr(RingData, "is_regular_sequence", not_called)
    with pytest.raises(PipelineError,
                       match=re.escape("f_2 = y^2 does not annihilate")):
        compute_higher_homotopies(res, rd)


def test_nonregular_sequence_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2*y"), A.parse("x*y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2*y"), A.parse("x*y^2")]])
    res = resolve_over_a(rd, pres)
    with pytest.raises(PipelineError, match="regular"):
        compute_higher_homotopies(res, rd)


def test_flag_system_verifies(flag_pipeline):
    """The constructed blocks are the full system's at the slots of the
    test-local need set (``_solved_full_system``), and the full system
    verifies."""
    rd, pres, res, sys, X = flag_pipeline
    full = _solved_full_system(sys, rd)
    verify_system(full, rd)
    # a dict for every J, also where no block of it is stored or nonzero
    assert (1, 1, 0) in sys.sigma


def test_perturbing_one_block_breaks_verification(flag_pipeline):
    """Adding x to one entry of sigma_J on F_t of the full system that the
    constructed one is a part of (``_solved_full_system``) breaks the
    identity of J at degree t: d o sigma_J changes, as d is injective on x
    times a basis vector of a free module.  Zero blocks are not stored, so
    every slot (J, t) with 0 <= t <= L - (2|J| - 1) is perturbed, stored
    or not; an absent slot gets the one-entry block x."""
    rd, pres, res, sys, X = flag_pipeline
    full = _solved_full_system(sys, rd)
    x = rd.ring.gen(0)
    ranks = [len(d) for d in res.degrees]
    L = res.length
    seen = {"stored": 0, "absent": 0}
    for J in full.sigma:
        deg = 2 * sum(J) - 1
        for t in range(0, L - deg + 1):
            bump = PolyMatrix(rd.ring, ranks[t + deg], ranks[t], {(0, 0): x})
            block = _block(full, J, t)
            sigma = {K: dict(b) for K, b in full.sigma.items()}
            sigma[J][t] = (bump if block is None
                           else matrix_sum(block, bump)).columns_as_vectors()
            broken = HigherHomotopySystem(res, sigma)
            with pytest.raises(AssertionError,
                               match=rf"fails for J={re.escape(str(J))} "
                                     rf"at degree {t}$"):
                verify_system(broken, rd)
            seen["absent" if block is None else "stored"] += 1
    assert seen["stored"] > 0 and seen["absent"] > 0


def test_verification_checks_the_top_of_the_complex():
    """On F_1 -> F_0 with d_1 = [x, 0] (not injective, as in no resolution)
    and sigma = [x; 0], the identity at degree 0 holds and the one at the
    top, sigma o d_1 = x^2 * id on F_1, fails; no block is solved there."""
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    res = FreeResolution(rd, [matrix_of(A, [["x", "0"]]).columns_as_vectors()],
                         [[0], [1, 1]], complete=True)
    sys = HigherHomotopySystem(
        res, {(1,): {0: matrix_of(A, [["x"], ["0"]]).columns_as_vectors()}})
    with pytest.raises(AssertionError,
                       match=r"fails for J=\(1,\) at degree 1$"):
        verify_system(sys, rd)


def _named_identity(error):
    """(J, t) of a "homotopy identity fails" message."""
    m = re.fullmatch(r"homotopy identity fails for J=(\(.*\)) "
                     r"at degree (\d+)", str(error))
    assert m, error
    return ast.literal_eval(m[1]), int(m[2])


def _readers(need, J, t):
    """The identities in ``need`` ({K: top t}, as ``_needed`` gives it)
    whose residual reads sigma_J[t]: (J, t + 1), through sigma_J o d, and
    (J + K, u) for a nonzero K, through sigma_J o sigma_K at u = t or
    sigma_K o sigma_J at u = t - 2|K| + 1."""
    out = [(J, t + 1)] if t + 1 <= need.get(J, -1) else []
    for I, top in need.items():
        K = tuple(a - b for a, b in zip(I, J))
        if min(K) < 0 or not any(K):
            continue
        out += [(I, u) for u in (t, t - 2 * sum(K) + 1) if 0 <= u <= top]
    return out


def test_a_bad_lift_fails_the_identity_it_solves(flag_pipeline, monkeypatch):
    """No identity is formed again once it is solved: the construction
    stores each lift as it stands, on the lift contract v + d c = 0.  Each
    nonzero column of a stored block is one lift, made in the walk's order
    (the t = 0 columns of every e_i first, then solving order, t and the
    column upwards), and nothing else is lifted.  A lift with its
    coefficient at column 0 of d off by x (d has no zero column, so
    d o sigma_J[t] changes), whichever of the lifts it is, must make
    ``verify_system`` fail at the very slot (J, t) it solves, on the full
    system (``full_system``) with that lift in its block.  Built with that
    lift for real, the construction stops at a later identity that reads
    the bad block, which can no longer be lifted, when a later identity it
    solves reads the block; when none does, it finishes with the bad lift
    stored and every other block as built."""
    rd, pres, res, sys, X = flag_pipeline
    full = full_system(sys, rd)
    need = _needed(res, rd)
    x = rd.ring.gen(0)
    lift = ModuleGB.lift
    calls = []

    def counting(self, v):
        calls.append(lift(self, v))
        return calls[-1]

    monkeypatch.setattr(ModuleGB, "lift", counting)
    compute_higher_homotopies(res, rd)
    order = [(J, t) for J, _, t in _identities(rd.c, res.length)]
    firsts = [(J, 0) for J in sys.sigma if sum(J) == 1]
    slots = [(J, t, c) for J, t in firsts + [k for k in order
                                              if k not in firsts]
             if t in sys.sigma.get(J, {})
             for c, col in enumerate(sys.sigma[J][t]) if col]
    assert calls == [sys.sigma[J][t][c] for J, t, c in slots]
    named = set()
    kinds = {"read": 0, "unread": 0}
    for n, (J, t, c) in enumerate(slots):
        block = _block(full, J, t)
        sigma = {K: dict(b) for K, b in full.sigma.items()}
        sigma[J][t] = matrix_sum(block, PolyMatrix(
            rd.ring, block.nrows, block.ncols,
            {(0, c): x})).columns_as_vectors()
        with pytest.raises(AssertionError) as info:
            verify_system(HigherHomotopySystem(res, sigma), rd)
        assert _named_identity(info.value) == (J, t)
        named.add((J, t))
        seen = []

        def off_by_x(self, v, n=n):
            coeffs = lift(self, v)
            if len(seen) == n:  # x more at column 0
                coeffs = vec_add(rd.ring.field, coeffs, vector_of(x))
            seen.append(v)
            return coeffs

        monkeypatch.setattr(ModuleGB, "lift", off_by_x)
        if _readers(need, J, t):
            with pytest.raises(AssertionError) as info:
                compute_higher_homotopies(res, rd)
            assert order.index(_named_identity(info.value)) \
                > order.index((J, t))
            kinds["read"] += 1
        else:
            bad = {K: dict(b) for K, b in sys.sigma.items()}
            bad[J][t] = list(bad[J][t])
            bad[J][t][c] = vec_add(rd.ring.field, bad[J][t][c],
                                   vector_of(x))
            assert compute_higher_homotopies(res, rd).sigma == bad
            kinds["unread"] += 1
    stored = {(J, t) for J, blocks in sys.sigma.items() for t in blocks}
    assert len(calls) > len(stored) > 0
    assert named == stored
    assert min(kinds.values()) > 0, kinds


# -- the blocks D reads against the every-block solve ----------------------


def _span_reducer(vectors, n):
    """A map taking an integer vector of length n to its normal form
    modulo the Q-span of ``vectors``, by Fraction elimination: two vectors
    have the same normal form exactly when their difference lies in the
    span."""
    echelon = []  # (pivot, row with 1 at the pivot)
    for v in vectors:
        v = [Fraction(a) for a in v]
        for j, row in echelon:
            v = [a - v[j] * b for a, b in zip(v, row)]
        lead = next((j for j, a in enumerate(v) if a), None)
        if lead is not None:
            echelon.append((lead, [a / v[lead] for a in v]))

    def reduce(v):
        v = [Fraction(a) for a in v]
        for j, row in echelon:
            v = [a - v[j] * b for a, b in zip(v, row)]
        return tuple(v)

    return reduce


def _row_vector(rows, r, m):
    """The term m at row r of F_0 as a vector of Z^n + Z^rows, r = None
    for a term of the ring."""
    return tuple(m) + tuple(int(i == r) for i in range(rows))


def _lattice(res, rd):
    """L: the differences of the terms inside each f_i and inside each
    column of d_1, as integer vectors (``_row_vector``)."""
    rows = len(res.degrees[0])
    out = []
    for vs in [[_row_vector(rows, None, m) for m in f.terms]
               for f in rd.ci] + [[_row_vector(rows, r, m) for r, m in col]
                                  for col in res.differentials[0]]:
        out += [tuple(a - b for a, b in zip(v, vs[0])) for v in vs]
    return out


def _mdegrees(res):
    """A vector of Z^n + Z^(rank F_0) for each generator of F_0..F_L,
    read down F off the first term of each column, row r of F_0 at
    (0, e_r)."""
    rows = len(res.degrees[0])
    mdeg = [[_row_vector(rows, r, (0,) * res.ring_data.n)
             for r in range(rows)]]
    for cols in res.differentials:
        mdeg.append([tuple(a + b for a, b in zip(mdeg[-1][r], m + (0,) * rows))
                     for r, m in (next(iter(col)) for col in cols)])
    return mdeg


def _needed_slots(res, rd):
    """Test-local need set, as a set of slots (J, t): the seeds, found
    generator pair by generator pair, are the blocks sigma_J[t] with some
    a in F_t and b in F_{t + 2|J| - 1} at deg b - deg a = deg f_J in Z
    and with mdeg b - mdeg a - mdeg f_J in the Q-span of ``_lattice``,
    where mdeg is a vector read down F off the first term of each column
    (``_mdegrees``; of f_i its first term, at no row); a worklist closes
    them under (J, t - 1), (J'', t) and (J', t + 2|J''| - 1) for every
    splitting J' + J'' = J."""
    L = res.length
    n = rd.ring.nvars + len(res.degrees[0])
    mdeg = _mdegrees(res)
    fmdeg = [_row_vector(len(res.degrees[0]), None, next(iter(f.terms)))
             for f in rd.ci]
    reduce = _span_reducer(_lattice(res, rd), n) if L else None
    todo = []
    for total in range(1, L // 2 + 2):
        deg = 2 * total - 1
        for J in itertools.product(range(total + 1), repeat=rd.c):
            w = sum(j * f.degree() for j, f in zip(J, rd.ci))
            fJ = [sum(j * m[k] for j, m in zip(J, fmdeg)) for k in range(n)]
            todo += [(J, t) for t in range(L - deg + 1) if sum(J) == total
                     and any(res.degrees[t + deg][b] - res.degrees[t][a] == w
                             and not any(reduce([
                                 x - y - z for x, y, z in zip(
                                     mdeg[t + deg][b], mdeg[t][a], fJ)]))
                             for a in range(len(res.degrees[t]))
                             for b in range(len(res.degrees[t + deg])))]
    need = set()
    while todo:
        J, t = slot = todo.pop()
        if slot in need:
            continue
        need.add(slot)
        if t:
            todo.append((J, t - 1))
        for Jp, Jpp in _splittings(J):
            todo += [(Jpp, t), (Jp, t + 2 * sum(Jpp) - 1)]
    return need


def _solved_full_system(sys, rd):
    """``full_system`` of a constructed ``sys``, once it is asserted that
    ``sys`` stores exactly the nonzero blocks of the full system at the
    slots of ``_needed_slots`` and at t = 0 of every e_i."""
    full = full_system(sys, rd)
    need = _needed_slots(sys.resolution, rd) | {
        (J, 0) for J in full.sigma if sum(J) == 1}
    assert {(J, t) for J, blocks in sys.sigma.items() for t in blocks} == \
        {(J, t) for J, blocks in full.sigma.items() for t in blocks
         if (J, t) in need}
    return full


def _assert_the_needed_blocks_are_solved(res, rd):
    """The construction against the every-block solve: it stores, entry
    for entry, exactly the nonzero blocks of the every-block solve at the
    slots of ``_needed_slots`` and at t = 0 of every e_i, and a (possibly
    empty) dict for every multi-index unless F has length 0
    (``_solved_full_system``); X(M) has the same D as the full system's;
    and every identity of the full system holds.  Returns the full system
    and the constructed system."""
    sys = compute_higher_homotopies(res, rd)
    if res.length:
        full = _solved_full_system(sys, rd)
    else:
        full = every_block_system(res, rd)
        assert sys.sigma == {}
    verify_system(full, rd)
    return full, sys


_BINOMIAL_MODULES = ["x0*x1 + x2*x3, x1*x2 + 2*x0*x3", "x0 + x1 + x2, x3"]


def _homotopy_inputs():
    """(rd, presentation) for every coker session of the examples and of the
    benchmark ladder, for the module with nonzero blocks at |J| = 2 over
    GF(101) and QQ, for ``nm_n4_e2`` and ``nm_n5_e2`` (``LADDER``), whose
    blocks at |J| = 2 have constant terms, for ``lin_n6_e2``, whose need
    set stores nonzero blocks at |J| = 3, for two binomial modules
    over GF(101)[x0..x3] / (x0^2, .., x3^2) whose need sets hold blocks
    at |J| = 2 and whose finest grading is coarser than Z^4 but finer
    than Z (``_BINOMIAL_MODULES``), for random monomial modules over
    GF(101)[x,y] / (x^3, y^3), and for random ones in three variables,
    whose systems have zero blocks."""
    out = []
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    texts = [path.read_text() for path in paths]
    texts += [f"field {field}\n{PAIR_BLOCK_SESSION}"
              for field in ("GF(101)", "QQ")]
    texts += [LADDER[name] for name in ("nm_n4_e2", "nm_n5_e2", "lin_n6_e2")]
    squares = "x0^2, x1^2, x2^2, x3^2"
    texts += [f"field GF(101)\nring x0, x1, x2, x3\nci {squares}\n"
              f"module coker [[{entries}, {squares}]]\n"
              for entries in _BINOMIAL_MODULES]
    for text in texts:
        session = parse_session(text)
        if session.module.kind == "coker":
            rd = session.ring_data
            out.append((rd, PolyMatrix.from_rows(rd.ring,
                                                 session.module.rows)))
    rng = random.Random(11)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    for _ in range(6):
        gens = random_monomial_rows(rng)
        out.append((rd, PolyMatrix.from_rows(
            A, [[A.monomial(m) for m in gens]])))
    A = PolyRing(GF101, ("x", "y", "z"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3"), A.parse("z^3")])
    for _ in range(6):
        out.append((rd, PolyMatrix.from_rows(
            A, [[A.monomial(m) for m in random_monomial_rows_3(rng)]])))
    return out


def test_no_zero_block_is_stored_and_the_rest_are_unchanged():
    """The construction stores no zero block and solves only the blocks
    X(M) reads and those they are solved from
    (``_assert_the_needed_blocks_are_solved``), each equal to the
    full system's.  It lifts through the graded runs that
    ``resolve_over_a`` took each d_t from, and builds no other; the
    every-block solve builds fresh graded runs over d_t's columns.  Some
    inputs have zero blocks, some have nonzero blocks at |J| = 2, so that
    the walk's pair products are compared too, one has them at |J| = 3,
    whose products have a factor of |J| = 2, and some have nonzero blocks
    that D does not read, which are not solved."""
    skipped = 0
    pair_blocks = 0
    triple_blocks = 0
    unread = 0
    for rd, pres in _homotopy_inputs():
        res = resolve_over_a(rd, pres)
        kept = dict(res.image_bases)
        assert set(kept) == set(range(1, res.length + 1))
        full, sys = _assert_the_needed_blocks_are_solved(res, rd)
        assert res.image_bases == kept
        for J, blocks in full.sigma.items():
            skipped += res.length - 2 * sum(J) + 2 - len(blocks)
            unread += len(set(blocks) - set(sys.sigma[J]))
            pair_blocks += len(sys.sigma[J]) if sum(J) >= 2 else 0
            triple_blocks += len(sys.sigma[J]) if sum(J) >= 3 else 0
    assert skipped > 0
    assert unread > 0
    assert pair_blocks >= 10
    assert triple_blocks > 0


def _m_star_resolution(res, rd):
    """A fresh resolution of coker(d_L^T), its rows in -deg F_L, as
    ``oracles.x_of_m_star`` makes it: the rows of its F_0 lie in several
    degrees and multidegrees."""
    L = res.length
    return _resolve(rd, (), transpose(d_matrix(res, L)), None,
                    [-d for d in res.degrees[L]])


def _ring_rank(W, n):
    """The rank of W's first n columns: of the grading of the ring."""
    ring = [w[:n] for w in W]
    return sum(1 for i, v in enumerate(ring)
               if any(_span_reducer(ring[:i], n)(v)))


def test_the_finest_grading_of_the_inputs():
    """On every monomial input of the examples and the ladder, and on M*
    of each example and benchmark input with a nonzero F, whose rows of
    F_0 lie in several multidegrees, W grades the ring by the
    multidegree: its first n columns have rank n, and W is the identity
    where no column of d_1 has two terms.  W grades the ring with rank 3
    on ``nm_n5_e2`` (two binomials in five variables) and with rank 1,
    the total degree, on ``lin2_n5_e2``.  Everywhere the degrees read down
    F are W times ``_mdegrees``, and ``res.degrees`` is a function of
    them."""
    def check(res, rd):
        W, fdeg, degrees = _grading(res, rd)

        def at(v):
            return tuple(sum(a * b for a, b in zip(w, v)) for w in W)

        rows = len(res.degrees[0])
        assert fdeg == [at(_row_vector(rows, None, next(iter(f.terms))))
                        for f in rd.ci]
        assert degrees == [[at(v) for v in vs] for vs in _mdegrees(res)]
        z = {}
        for fine, coarse in zip(degrees, res.degrees):
            for a, b in zip(fine, coarse):
                assert z.setdefault(a, b) == b
        return W

    monomial = stars = 0
    for rd, pres in _homotopy_inputs():
        res = resolve_over_a(rd, pres)
        if not res.length:
            continue
        single = all(len(col) == 1 for col in res.differentials[0])
        if all(len(p.terms) == 1 for p in pres.entries.values()) and \
                all(len(f.terms) == 1 for f in rd.ci):
            W = check(res, rd)
            assert _ring_rank(W, rd.n) == rd.n
            if single:
                size = rd.n + len(res.degrees[0])
                assert W == [[int(i == j) for j in range(size)]
                             for i in range(size)]
            monomial += 1
            star = _m_star_resolution(res, rd)
            if star.length and len(star.degrees[0]) > 1:
                assert _ring_rank(check(star, rd), rd.n) == rd.n
                stars += 1
    assert monomial >= 20 and stars >= 5
    for name, rank in (("nm_n5_e2", 3), ("lin2_n5_e2", 1)):
        session = parse_session(LADDER[name])
        rd = session.ring_data
        res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring,
                                                      session.module.rows))
        W = check(res, rd)
        assert _ring_rank(W, rd.n) == rank
        if rank == 1:  # the total degree, up to sign
            assert [w[:rd.n] for w in W if any(w[:rd.n])] in (
                [[1] * rd.n], [[-1] * rd.n])


def test_the_blocks_of_m_star_by_its_finest_grading():
    """On M* of the flag, ``loci_a``, ``loci_b`` and ``m2_n3_e2``, whose
    rows of F_0 lie in several multidegrees (and, on two or more of them,
    in several degrees), the construction solves exactly the nonzero
    blocks of the every-block solve at the slots of ``_needed_slots``,
    whose seed test reads both Z and the lattice, while ``_needed`` reads
    the finest grading alone."""
    several_z = 0
    for name in ("flag", "loci_a", "loci_b", "m2_n3_e2"):
        path = SESSIONS / f"{name}.session"
        if not path.exists():
            path = REPO / "perfbench" / "inputs" / f"{name}.session"
        session = parse_session(path.read_text())
        rd = session.ring_data
        res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring,
                                                      session.module.rows))
        star = _m_star_resolution(res, rd)
        assert len(set(_grading(star, rd)[2][0])) > 1
        several_z += len(set(star.degrees[0])) > 1
        _assert_the_needed_blocks_are_solved(star, rd)
    assert several_z >= 2


def test_the_finest_grading_of_the_koszul_complex_of_x_and_y():
    """Over k[x, y] / (x^2, y^2) with d_1 = [x, y], W is I_3 (x, y and the
    row of F_0), and the Koszul column -y e_0 + x e_1 of d_2 is read as
    (1, 1, 1)."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]]).columns_as_vectors()
    koszul = FreeResolution(rd, [d1, matrix_of(A, [["-y"], ["x"]])
                                 .columns_as_vectors()],
                            [[0], [1, 1], [2]], complete=True)
    assert _grading(koszul, rd) == (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(2, 0, 0), (0, 2, 0)],
        [[(0, 0, 1)], [(1, 0, 1), (0, 1, 1)], [(1, 1, 1)]])


def test_the_finest_grading_equals_the_reduced_echelon_route():
    """(W, deg f, degrees) of ``_grading`` equal those of the dense reduced
    echelon form on every file of ``sessions/`` and ``perfbench/inputs/``
    (a dg session with F as given), on every ``LADDER`` session, and on
    M* of each (``_m_star_resolution``)."""
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    for text in [path.read_text() for path in paths] + list(LADDER.values()):
        session = parse_session(text)
        rd, mod = session.ring_data, session.module
        if mod.kind == "coker":
            res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring, mod.rows))
        else:
            res = FreeResolution(rd, [d.columns_as_vectors()
                                      for d in mod.differentials],
                                 mod.degrees, complete=True)
        for F in (res, _m_star_resolution(res, rd)):
            assert _grading(F, rd) == reduced_echelon_grading(F, rd)


@st.composite
def _difference_sets(draw):
    """(res, rd) whose f_i and columns of d_1 are random sets of distinct
    terms in up to four variables and three rows, exponents up to 4, over
    GF(101) or QQ: the differences of their terms are random integer
    vectors, and F stops at d_1."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 3))
    ring = PolyRing(draw(st.sampled_from([GF101, QQ])),
                    tuple(f"x{i}" for i in range(n)))
    mono = st.tuples(*[st.integers(0, 4)] * n)
    ci = [Polynomial(ring, {m: 1 for m in ms}) for ms in draw(st.lists(
        st.lists(mono, min_size=1, max_size=4, unique=True), max_size=3))]
    d1 = [{t: 1 for t in ts} for ts in draw(st.lists(st.lists(
        st.tuples(st.integers(0, rows - 1), mono), min_size=1, max_size=4,
        unique=True), max_size=4))]
    rd = RingData(ring, ci)
    return FreeResolution(rd, [d1], [[0] * rows, [0] * len(d1)],
                          complete=True), rd


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_difference_sets())
def test_the_finest_grading_of_random_difference_sets(case):
    """On random integer difference sets, ``_grading`` gives the reduced
    echelon route's W, row for row and in its scale, and its degrees."""
    res, rd = case
    assert _grading(res, rd) == reduced_echelon_grading(res, rd)


# Rings and ci for the generated modules, as (variables, ci, weights):
# one generator; mixed degrees; a regular sequence that is not monomial;
# three generators.  The weighted ones have ci of mixed degrees
# throughout, and the third and the last are not monomial.
_CI_RINGS = [("x, y", "x^2", ""), ("x, y", "x^2, y^3", ""),
             ("x, y", "x^2 - y^2, x*y", ""),
             ("x, y, z", "x^2, y^2, z^3", "")]
_WEIGHTED_CI_RINGS = [("x, y", "x^2, y^2", "1, 2"),
                      ("x, y", "x^3, y^2", "2, 1"),
                      ("x, y", "x^2 - y, y^2", "1, 2"),
                      ("x, y, z", "x^2, y^3, z^2", "1, 1, 2"),
                      ("x, y, z", "x^3 - z, y^2", "1, 2, 3")]


@st.composite
def _coker_sessions(draw, rings=_CI_RINGS, top=2, binomials=False):
    """A cokernel session over GF(2), GF(3), GF(101) or QQ on one of
    ``rings``, on one or two rows in degree 0: the columns f_k e_j, so
    that f annihilates M, and up to three random homogeneous columns of
    (weighted) degree 0 to ``top``, where a constant entry is a unit to
    cancel.  With ``binomials`` every entry of a random column of a degree
    with two monomials or more is drawn as two terms, so that the finest
    grading of the input is often coarser than Z^n."""
    field = draw(st.sampled_from(["GF(2)", "GF(3)", "GF(101)", "QQ"]))
    names, ci, weights = draw(st.sampled_from(rings))
    names = names.split(", ")
    ws = [int(w) for w in weights.split(", ")] if weights else [1] * len(names)
    nrows = draw(st.integers(1, 2))
    cols = [[f if r == j else "0" for r in range(nrows)]
            for f in ci.split(", ") for j in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(0, top))
        monos = [m for m in itertools.product(range(degree + 1),
                                              repeat=len(ws))
                 if sum(e * w for e, w in zip(m, ws)) == degree]
        if not monos:  # no monomial of this weighted degree
            continue
        col = []
        for _ in range(nrows):
            two = 2 if binomials and len(monos) > 1 else 0
            terms = draw(st.lists(st.tuples(st.sampled_from(["1", "2", "-1"]),
                                            st.sampled_from(monos)),
                                  min_size=two, max_size=2,
                                  unique_by=(lambda term: term[1]) if two
                                  else None))
            col.append(" + ".join(
                "*".join([c] + [f"{v}^{e}" for v, e in zip(names, m) if e])
                for c, m in terms) or "0")
        cols.append(col)
    rows = ", ".join("[" + ", ".join(col[r] for col in cols) + "]"
                     for r in range(nrows))
    ring = ", ".join(names) + (f" weights {weights}" if weights else "")
    return (f"field {field}\nring {ring}\nci {ci}\n"
            f"module coker [{rows}]\n")


def _solved_session(text):
    """``_assert_the_needed_blocks_are_solved`` on a cokernel session."""
    session = parse_session(text)
    rd = session.ring_data
    res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring,
                                                  session.module.rows))
    _assert_the_needed_blocks_are_solved(res, rd)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_coker_sessions(), _coker_sessions(binomials=True)))
@example(f"field GF(101)\n{PAIR_BLOCK_SESSION}")
@example(f"field GF(3)\n{PAIR_BLOCK_SESSION}")
@example(f"field QQ\n{PAIR_BLOCK_SESSION}")
def test_column_walk_equals_the_every_block_loop(text):
    """The blocks the column walk solves are the nonzero blocks of the
    every-block loop at the slots D reads and those they are solved from,
    entry for entry; D is the same; and the full system verifies.  Half
    the draws have binomial presentations, whose finest grading is often
    coarser than Z^n."""
    _solved_session(text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_coker_sessions(_WEIGHTED_CI_RINGS, 4))
def test_the_solved_blocks_on_weighted_rings_and_mixed_degrees(text):
    """As above on weighted rings with ci of mixed degrees, some of them
    not monomial, over GF(2), GF(3), GF(101) and QQ, where the seeds of
    the need set read weighted degrees."""
    _solved_session(text)


def test_strict_action_accepted(koszul_action):
    rd, res, sys, X = koszul_action
    assert {J for J, blocks in sys.sigma.items() if blocks} == {(1, 0), (0, 1)}
    verify_system(sys, rd)


def test_perturbed_action_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, [d.columns_as_vectors() for d in (d1, d2)],
                         [[0], [1, 1], [2]], complete=True)
    e1 = [matrix_of(A, [["x"], ["x"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    with pytest.raises(PipelineError):
        ingest_dg_structure(res, [e1, e2], rd)


def test_wrong_block_shape_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, [d.columns_as_vectors() for d in (d1, d2)],
                         [[0], [1, 1], [2]], complete=True)
    e1 = [matrix_of(A, [["x"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    with pytest.raises(PipelineError, match="shape"):
        ingest_dg_structure(res, [e1, e2], rd)


# -- strict dg actions against the two-loop validator ------------------------


def _two_loop_dg_check(res, actions, rd):
    """Reference: the validator before strict actions were checked as a
    homotopy system.  It tests e_i e_j + e_j e_i = 0 for i <= j, so that a
    square is counted twice (and so not at all over GF(2)), then
    d e_i + e_i d = f_i id; the first failure as a message, or None."""
    ranks = [len(d) for d in res.degrees]
    L = res.length
    for i in range(rd.c):
        for j in range(i, rd.c):
            for t in range(L - 1):
                total = matrix_sum(actions[i][t + 1] @ actions[j][t],
                                   actions[j][t + 1] @ actions[i][t])
                if not total.is_zero():
                    return (f"e{i + 1}*e{j + 1} + e{j + 1}*e{i + 1} != 0 "
                            f"at block {t}, entry {min(total.entries)}")
    for i in range(rd.c):
        for t in range(L + 1):
            acc = identity_matrix(rd.ring, ranks[t], scalar=-rd.ci[i])
            if t < L:
                acc = matrix_sum(acc, d_matrix(res, t + 1) @ actions[i][t])
            if t >= 1:
                acc = matrix_sum(acc,
                                 actions[i][t - 1] @ d_matrix(res, t))
            if not acc.is_zero():
                return (f"d*e{i + 1} + e{i + 1}*d != f_{i + 1}*id "
                        f"at block {t}, entry {min(acc.entries)}")
    return None


def _dg_verdict(res, actions, rd):
    try:
        ingest_dg_structure(res, actions, rd)
    except PipelineError as exc:
        return str(exc)
    return None


DG_MESSAGE = re.compile(r"(d\*e(\d+) \+ e\2\*d != f_\2\*id"
                        r"|e(\d+)\*e(\d+) \+ e\4\*e\3 != 0"
                        r"|e(\d+)\*e\5 != 0) at block \d+, entry \(\d+, \d+\)")

# The Koszul complex on x, y, z with ci x^2, and e_1 = x times the exterior
# product with the first basis vector.
KOSZUL_XYZ = """ring x, y, z weights 1, 1, 1
ci x^2
complex d1 [[x, y, z]] d2 [[-y, -z, 0], [x, 0, -z], [0, x, y]]
complex d3 [[z], [-y], [x]]
"""
WEDGE_X = ("action e1 [[x], [0], [0]] [[0, x, 0], [0, 0, x], [0, 0, 0]] "
           "[[0, 0, x]]\n")


def _dg_inputs(texts):
    """(rd, F, actions) of each complex session text."""
    out = []
    for text in texts:
        session = parse_session(text)
        rd, mod = session.ring_data, session.module
        res = FreeResolution(
            rd, [d.columns_as_vectors() for d in mod.differentials],
            mod.degrees, complete=True)
        out.append((rd, res, mod.actions))
    return out


def _random_term(rng, ring):
    mono = tuple(rng.randrange(2) for _ in range(ring.nvars))
    return ring.monomial(mono, rng.randrange(1, ring.field.p))


def _perturbed(rng, rd, res, actions):
    """The actions with one e_i changed in one of three ways: a random term
    added to one entry of one block, which breaks d e_i + e_i d = f_i id
    and mostly the products too; e_i scaled by a random term g != 1, which
    breaks only d e_i + e_i d = f_i id; or e_i + d s - s d for a random s
    of homological degree 2, which keeps that identity and leaves the
    products to decide."""
    ranks = [len(d) for d in res.degrees]
    L = res.length
    out = [list(blocks) for blocks in actions]
    i = rng.randrange(rd.c)
    kind = rng.choice(["term", "scale"] + (["homotopy"] * 2 if L >= 2 else []))
    if kind == "term":
        t = rng.randrange(L)
        b = out[i][t]
        bump = {(rng.randrange(b.nrows), rng.randrange(b.ncols)):
                _random_term(rng, rd.ring)}
        out[i][t] = matrix_sum(b, PolyMatrix(rd.ring, b.nrows, b.ncols, bump))
    elif kind == "scale":
        g = _random_term(rng, rd.ring)
        while g == rd.ring.one():
            g = _random_term(rng, rd.ring)
        out[i] = [b @ identity_matrix(rd.ring, b.ncols, scalar=g)
                  for b in out[i]]
    else:
        for t in range(L - 1):
            s = PolyMatrix(rd.ring, ranks[t + 2], ranks[t],
                           {(r, c): _random_term(rng, rd.ring)
                            for r in range(ranks[t + 2])
                            for c in range(ranks[t]) if rng.random() < 0.6})
            out[i][t] = matrix_sum(out[i][t], d_matrix(res, t + 2) @ s)
            out[i][t + 1] = matrix_sum(out[i][t + 1],
                                       -(s @ d_matrix(res, t + 1)))
    return out


def test_strict_actions_are_judged_as_by_the_two_loop_validator():
    """Over GF(101) the identity check of the system accepts and rejects
    exactly the actions the two-loop validator does; where that one fails
    only on d e_i + e_i d, both name the same identity and entry."""
    rng = random.Random(5)
    texts = [(SESSIONS / name).read_text()
             for name in ("koszul_residue.session", "dg_nonregular.session")]
    texts.append("field GF(101)\n" + KOSZUL_XYZ + WEDGE_X)
    seen = {"accept": 0, "d*e": 0, "products": 0}
    for rd, res, actions in _dg_inputs(texts):
        assert _two_loop_dg_check(res, actions, rd) is None
        for k in range(40):
            acts = actions if k == 0 else _perturbed(rng, rd, res, actions)
            old = _two_loop_dg_check(res, acts, rd)
            new = _dg_verdict(res, acts, rd)
            assert (old is None) == (new is None), (old, new)
            if old is None:
                seen["accept"] += 1
                continue
            assert DG_MESSAGE.fullmatch(new), new
            if old.startswith("d*"):
                assert new == old
                seen["d*e"] += 1
            else:
                seen["products"] += 1
    assert min(seen.values()) > 0, seen


def test_over_gf2_a_square_that_is_not_zero_is_rejected():
    """Over GF(2) the two-loop validator tests e_i e_i + e_i e_i = 0, which
    always holds; the system check also rejects exactly when some
    e_i e_i != 0.  Among the inputs: the Koszul complex on x, y, z with its
    action, and the same complex with an e_1 that satisfies
    d e_1 + e_1 d = x^2 id but squares to a nonzero map."""
    rng = random.Random(7)
    texts = ["field GF(2)\n" + KOSZUL_XYZ + WEDGE_X,
             "field GF(2)\n" + KOSZUL_XYZ
             + "action e1 [[x], [z], [y]] [[0, x + z, z], [0, y, x + y], "
               "[x, x + y, x + z]] [[x, x, x + y + z]]\n",
             (SESSIONS / "koszul_residue.session").read_text()
             .replace("GF(101)", "GF(2)")]
    seen = {"accept": 0, "square only": 0, "both": 0}
    for rd, res, actions in _dg_inputs(texts):
        for k in range(40):
            acts = actions if k == 0 else _perturbed(rng, rd, res, actions)
            old = _two_loop_dg_check(res, acts, rd)
            new = _dg_verdict(res, acts, rd)
            square = any(not (blocks[t + 1] @ blocks[t]).is_zero()
                         for blocks in acts for t in range(res.length - 1))
            assert (new is not None) == (old is not None or square), \
                (old, new)
            if new is None:
                seen["accept"] += 1
            elif old is None:
                assert re.fullmatch(r"e(\d+)\*e\1 != 0 .*", new), new
                seen["square only"] += 1
            else:
                seen["both"] += 1
    assert min(seen.values()) > 0, seen


def test_dualized_system_verifies(final_pipeline):
    """The transpose of the full system that the constructed one is a part
    of (``full_system``) keeps every identity."""
    rd, pres, res, sys, X = final_pipeline
    dualize_and_verify(full_system(sys, rd), dualize_over_a(res), rd)


def test_dualize_twice_restores_blocks(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    full = full_system(sys, rd)
    dual_sys = dualize_and_verify(full, dualize_over_a(res), rd)
    back = dualize_and_verify(dual_sys, dualize_over_a(dual_sys.resolution),
                              rd)
    for J, blocks in full.sigma.items():
        for t, cols in blocks.items():
            assert back.sigma[J][t] == cols
    once = dualize_homotopies(sys, dualize_over_a(res))
    twice = dualize_homotopies(once, dualize_over_a(once.resolution))
    assert twice.sigma == sys.sigma
