"""Sparse polynomial matrices: minors, ranks, unit cancellation, and the
bihomogeneity contract of twisted complexes."""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci import matrix
from jumploci.groebner import add_image, reduced
from jumploci.matrix import PolyMatrix, _dedupe_monic
from jumploci.poly import Polynomial
from jumploci.homotopy import _grading, compute_higher_homotopies
from jumploci.resolution import PipelineError, resolve_over_a
from jumploci.session import build_pipeline, parse_session
from jumploci.twisted import TwistedComplex, s_dual

from conftest import (BENCH_INPUT_STEMS, LADDER, NON_FINE_SESSION_STEMS,
                      REPO, PAIR_BLOCK_SESSION, SESSION_STEMS,
                      assert_twisted_complex, matrix_of, matrix_sum,
                      random_monomial_rows, random_monomial_rows_3)
from oracles import (_components, fine_grading, full_system,
                     identity_matrix, transpose, verify_system,
                     whole_matrix_rank)

GF101 = GF(101)
S2 = PolyRing(GF101, ("chi1", "chi2"), (2, 2))


def test_one_by_one_minors_are_entries():
    P = matrix_of(S2, [["chi1", "chi2"]])
    assert sorted(str(m) for m in P.minors(1)) == ["chi1", "chi2"]


def test_minors_beyond_shape_are_empty():
    P = matrix_of(S2, [["chi1", "chi2"]])
    assert P.minors(2) == []


def test_diagonal_two_by_two_minor():
    P = matrix_of(S2, [["chi1", "0"], ["0", "chi2"]])
    assert [str(m) for m in P.minors(2)] == ["chi1*chi2"]


def test_evaluate_and_rank_at_points():
    P = matrix_of(S2, [["chi1", "chi2"]])
    assert P.rank_at([1, 0]) == 1
    assert P.rank_at([0, 0]) == 0


def test_rank_at_coerces_the_point_once_for_every_entry():
    """``rank_at`` reads 101 and -202 over GF(101) as 0, as ``Field.coerce``
    does, and ``evaluate`` at integers outside 0..100 reduces every
    product and sum mod 101; over QQ a point of integers is exact."""
    P = matrix_of(S2, [["chi1", "chi2"], ["chi1^2", "chi1*chi2"]])
    assert P.rank_at([101, -202]) == 0
    assert P.rank_at([102, 5]) == P.rank_at([1, 5]) == 1
    f = S2.parse("3*chi1^2*chi2 + chi2 + 7")
    assert f.evaluate((-1, 205)) == f.evaluate((100, 3)) == 19
    x = PolyRing(QQ, ("x",)).gen(0)
    assert (x * x).scale(Fraction(1, 2)).evaluate((3,)) == Fraction(9, 2)
    with pytest.raises(ValueError, match="arity"):
        P.rank_at([1])


def test_rank_matches_largest_nonvanishing_minor():
    """100 random points on random sparse 4x4 matrices."""
    rng = random.Random(7)
    monos = ["chi1", "chi2", "chi1^2", "chi1*chi2", "chi2^2", "0", "0"]
    for trial in range(5):
        rows = [[rng.choice(monos) for _ in range(4)] for _ in range(4)]
        P = matrix_of(S2, rows)
        minors = {t: P.minors(t) for t in range(1, 5)}
        for _ in range(20):
            a = [rng.randrange(101) for _ in range(2)]
            expected = 0
            for t in range(1, 5):
                if any(m.evaluate(a) != 0 for m in minors[t]):
                    expected = t
            assert P.rank_at(a) == expected


def _dense_rank_at(P, point):
    """The rank at ``point`` by the route ``rank_at`` took before: the
    values in a dense scalar matrix, then Gaussian elimination over the
    field."""
    fld = P.ring.field
    m = [[fld.zero()] * P.ncols for _ in range(P.nrows)]
    for (r, c), p in P.entries.items():
        m[r][c] = p.evaluate(point)
    rank = 0
    for pc in range(P.ncols):
        piv = next((r for r in range(rank, P.nrows) if m[r][pc]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = fld.inv(m[rank][pc])
        for r in range(rank + 1, P.nrows):
            if m[r][pc]:
                f = fld.mul(m[r][pc], inv)
                for c in range(pc, P.ncols):
                    m[r][c] = fld.add(m[r][c],
                                      fld.neg(fld.mul(f, m[rank][c])))
        rank += 1
    return rank


def test_rank_at_equals_the_dense_elimination():
    """Random sparse matrices up to 5 x 6 over GF(5), GF(101) and QQ with
    binomial entries, and products A @ B of rank at most 2, at points on
    the coordinate axes, at random points and at points that zero an
    entry, where the rank drops."""
    rng = random.Random(29)
    drops = 0
    for field in (GF(5), GF101, QQ):
        R = PolyRing(field, ("chi1", "chi2"), (2, 2))
        words = ["chi1", "chi2", "chi1 - chi2", "chi1^2 + 2*chi2",
                 "3*chi1*chi2 - 1", "chi2^2 - chi1", "2", "0", "0", "0"]
        for trial in range(12):
            shape = rng.randrange(1, 6), rng.randrange(1, 7)
            rows = [[rng.choice(words) for _ in range(shape[1])]
                    for _ in range(shape[0])]
            P = matrix_of(R, rows)
            if trial % 3 == 0:
                A = matrix_of(R, [[rng.choice(words) for _ in range(2)]
                                  for _ in range(shape[0])])
                P = A @ matrix_of(R, [[rng.choice(words)
                                       for _ in range(shape[1])]
                                      for _ in range(2)])
            points = [[0, 0], [1, 0], [0, 3], [1, 1], [2, 1]]
            points += [[rng.randrange(-3, 4), rng.randrange(-3, 4)]
                       for _ in range(4)]
            generic = P.generic_rank()
            for a in points:
                rank = P.rank_at(a)
                assert rank == _dense_rank_at(P, a), (rows, a)
                drops += rank < generic
    assert drops > 20


def _polynomials(field):
    coeffs = (st.integers(1, 100) if field.p
              else st.fractions(-5, 5, max_denominator=4).filter(bool))
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           coeffs, max_size=3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), field=st.sampled_from([GF(7), GF101, QQ]),
       nrows=st.integers(0, 3), filled=st.integers(0, 3),
       empty=st.integers(0, 2))
def test_from_columns_inverts_columns_as_vectors(data, field, nrows, filled,
                                                 empty):
    """``from_columns`` rebuilds a matrix from ``columns_as_vectors``,
    over GF(p) and QQ, its ``empty`` trailing columns with no entry
    included."""
    R = PolyRing(field, ("x", "y"))
    entries = {}
    for r in range(nrows):
        for c in range(filled):
            terms = {m: field.coerce(co) for m, co in
                     data.draw(_polynomials(field)).items()}
            entries[(r, c)] = Polynomial(R, {m: co for m, co in terms.items()
                                             if co})
    M = PolyMatrix(R, nrows, filled + empty, entries)
    cols = M.columns_as_vectors()
    assert len(cols) == M.ncols
    assert PolyMatrix.from_columns(R, nrows, cols) == M


def test_generic_rank_certifies_evaluation_bound():
    P = matrix_of(S2, [["chi1", "chi2"], ["chi2", "chi1"]])
    assert P.generic_rank() == 2
    Q = matrix_of(S2, [["chi1", "chi2"], ["chi1", "chi2"]])
    assert Q.generic_rank() == 1


def test_composition_and_transpose():
    A = matrix_of(S2, [["chi1", "0"], ["chi2", "chi1"]])
    B = matrix_of(S2, [["chi2"], ["chi1"]])
    C = A @ B
    assert str(C.entries[0, 0]) == "chi1*chi2"
    T = transpose(A)
    assert T.entries[0, 1] == A.entries[1, 0]


def test_bihomogeneity_contract():
    """The tests' oracle for twisted complexes accepts entries of the
    bidegrees the basis asks for and rejects any other entry, and a D
    that does not square to zero."""
    degs = [(0, 0), (1, 2)]

    def complex_of(entries, chi_internal=(2, 2)):
        D = PolyMatrix(S2, 2, 2, {k: S2.parse(p) for k, p in entries.items()})
        return TwistedComplex(S2, degs, D, chi_internal)

    # entry chi-degree must be (col coh) - (row coh) + 1 = 2, and its
    # internal degree (col int) - (row int) = 2
    assert_twisted_complex(complex_of({(0, 1): "chi1"}))
    assert_twisted_complex(complex_of({(0, 1): "chi2"}, (3, 2)))
    for entries, chi_internal in (({(0, 1): "chi1^2"}, (2, 2)),
                                  ({(0, 1): "chi1 + 1"}, (2, 2)),
                                  ({(1, 0): "chi1"}, (2, 2)),
                                  ({(0, 1): "chi1 + chi2"}, (2, 3)),
                                  ({(0, 1): "chi1", (1, 0): "1"}, None)):
        with pytest.raises(AssertionError):
            assert_twisted_complex(complex_of(entries, chi_internal))
    with pytest.raises(AssertionError, match="square"):
        assert_twisted_complex(TwistedComplex(
            S2, degs, PolyMatrix.zero(S2, 2, 3), None))


def test_cancel_unit_is_the_schur_complement():
    """On random sparse matrices over GF(101)[chi1, chi2] with a constant
    u at (r, c), every entry (i, j) off row r and column c becomes
    e(i, j) - e(i, c) e(r, j) / u, entry by entry, and row r and column c
    go."""
    rng = random.Random(83)
    filled = 0
    for _ in range(60):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        entries = {}
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.6:
                    entries[i, j] = S2.monomial(
                        (rng.randrange(2), rng.randrange(2)),
                        rng.randrange(1, 101))
        r, c = rng.randrange(n), rng.randrange(m)
        u = rng.randrange(1, 101)
        entries[r, c] = S2.const(u)
        zero = S2.zero()
        want = {}
        for i in range(n):
            for j in range(m):
                if i != r and j != c:
                    fill = (entries.get((i, c), zero)
                            * entries.get((r, j), zero)).scale(GF101.inv(u))
                    e = entries.get((i, j), zero) - fill
                    if not e.is_zero():
                        want[i, j] = e
                    filled += not fill.is_zero()
        got = dict(entries)
        matrix.cancel_unit(got, r, c, GF101)
        assert got == want
    assert filled > 30


def test_cancel_units_yields_each_unit_once_it_is_cancelled():
    """A unit is a nonzero constant entry: 1 + x at (0, 0) is not one,
    though its constant term is nonzero and it comes first.  The least
    unit is cancelled before it is yielded, and the next is searched for
    only when the caller asks, on what the caller left of the entries."""
    A = PolyRing(GF101, ("x", "y"))
    p = A.parse
    schur = p("x") - (p("y") * p("1 + x")).scale(GF101.inv(3))
    for drop in (False, True):
        entries = {(0, 0): p("1 + x"), (0, 1): p("3"), (1, 0): p("x"),
                   (1, 1): p("y"), (2, 2): p("5")}
        units = matrix.cancel_units(entries, GF101)
        assert next(units) == (0, 1)
        assert entries == {(1, 0): schur, (2, 2): p("5")}
        if drop:
            del entries[2, 2]
        assert list(units) == ([] if drop else [(2, 2)])
        assert entries == {(1, 0): schur}


def test_echelon_is_an_echelon_basis_of_the_span():
    """On random sparse vectors over GF(5), GF(101) and QQ, each pivot row
    leads with 1 at its key and has no index below it, every vector
    reduces to zero on the pivots at its least index, and there are as
    many pivots as the rank of the dense elimination."""
    rng = random.Random(41)
    for field in (GF(5), GF101, QQ):
        ring = PolyRing(field, ("x",))
        for _ in range(40):
            n, m = rng.randrange(1, 6), rng.randrange(1, 7)
            vectors = [{j: field.coerce(rng.randrange(1, 5))
                        for j in range(m) if rng.random() < 0.4}
                       for _ in range(n)]
            if rng.random() < 0.5 and vectors[0]:  # a dependent vector
                vectors.append({j: field.mul(a, field.coerce(2))
                                for j, a in vectors[0].items()})
            pivots = matrix.echelon(vectors, field)
            for lead, row in pivots.items():
                assert min(row) == lead and row[lead] == 1
            for v in vectors:
                v = dict(v)
                while v:
                    lead = min(v)
                    factor = v[lead]
                    for k, a in pivots[lead].items():
                        c = field.add(v.get(k, field.zero()),
                                      field.neg(field.mul(factor, a)))
                        if c:
                            v[k] = c
                        else:
                            del v[k]
            P = PolyMatrix(ring, len(vectors), m,
                           {(i, j): ring.const(a)
                            for i, v in enumerate(vectors)
                            for j, a in v.items()})
            assert len(pivots) == _dense_rank_at(P, [0])


def test_block_diag_shapes():
    A = matrix_of(S2, [["chi1"]])
    B = matrix_of(S2, [["chi2", "0"], ["0", "chi2"]])
    C = PolyMatrix.block_diag([A, B])
    assert (C.nrows, C.ncols) == (3, 3)
    assert str(C.entries[0, 0]) == "chi1"
    assert str(C.entries[2, 2]) == "chi2"
    assert (0, 1) not in C.entries


# -- the minor table against the per-size enumeration ---------------------


S3 = PolyRing(GF101, ("chi1", "chi2", "chi3"), (2, 2, 2))


def _per_t_minors(mat, t, memo=None):
    """Reference: the t x t minors enumerated for this t alone, every
    component to every size up to t, convolved with a cut at t.  The
    components and their order come from the reference union-find
    (``oracles._components``), so the minor table must list its blocks in
    that order too.  ``memo`` may keep the minors of each component and
    size across calls on the same matrix."""
    if t > min(mat.nrows, mat.ncols):
        return []
    memo = {} if memo is None else memo
    acc = {0: [mat.ring.one()]}
    for rows, cols in _components(mat.entries):
        sizes = {}
        for s in range(1, min(len(rows), len(cols), t) + 1):
            key = (min(rows), s)
            if key not in memo:
                memo[key] = _component_minors_of_size(mat, rows, cols, s)
            ms = memo[key]
            if ms:
                sizes[s] = ms
        nxt = {}
        for got, polys in acc.items():
            nxt.setdefault(got, []).extend(polys)
            for s, ms in sizes.items():
                if got + s > t:
                    continue
                bucket = nxt.setdefault(got + s, [])
                for p in polys:
                    for q in ms:
                        bucket.append(p * q)
        acc = {k: _dedupe_monic(v) for k, v in nxt.items()}
    return acc.get(t, [])


def _component_minors_of_size(mat, rows, cols, t):
    """Every nonzero t x t minor of one component, by cofactor expansion
    over all row and column subsets."""
    out = []
    memo = {}
    for ctup in itertools.combinations(sorted(cols), t):
        for rtup in itertools.combinations(sorted(rows), t):
            d = _det(mat, rtup, ctup, memo)
            if not d.is_zero():
                out.append(d)
    return _dedupe_monic(out)


def _det(mat, rtup, ctup, memo=None):
    """Cofactor expansion along the first column; ``memo`` may keep the
    subdeterminants."""
    memo = {} if memo is None else memo
    if not ctup:
        return mat.ring.one()
    if (rtup, ctup) not in memo:
        total = mat.ring.zero()
        for i, r in enumerate(rtup):
            p = mat.entries.get((r, ctup[0]))
            if p is not None:
                term = p * _det(mat, rtup[:i] + rtup[i + 1:], ctup[1:], memo)
                total = total - term if i % 2 else total + term
        memo[rtup, ctup] = total
    return memo[rtup, ctup]


def _random_block(rng, nrows, ncols):
    pool = ["chi1", "chi2", "chi3", "chi1 + chi2", "chi2 - chi3", "2*chi3",
            "0", "0"]
    rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and ncols >= 2 and rng.random() < 0.5:
        # a multiple of another row: generic rank below the size
        k = rng.randrange(1, nrows)
        rows[k] = [f"{rng.choice(['chi1', '3'])}*({e})" for e in rows[0]]
    return matrix_of(S3, rows)


def _dense_block(rng, n):
    """n x n with no zero entry, of linear forms; row n - 1 is a multiple
    of row 0, so every n-minor and every minor on both rows cancels."""
    pool = ["chi1 + chi2", "chi2 - chi3", "chi1 - 2*chi3", "3*chi2",
            "chi1 + chi2 + chi3", "chi3", "2*chi1 + chi3"]
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n - 1)]
    rows.append([f"{rng.choice(['chi1', '5', 'chi2 + chi3'])}*({e})"
                 for e in rows[0]])
    return matrix_of(S3, rows)


def _cancelling_block(rng):
    """2 x 2 with four nonzero entries and a zero determinant."""
    a, b = rng.sample(["chi1", "chi2 + chi3", "2*chi3", "chi1 - chi2"], 2)
    f = rng.choice(["chi2", "3", "chi1 + chi3"])
    return matrix_of(S3, [[a, b], [f"{f}*({a})", f"{f}*({b})"]])


def _scrambled(rng, B):
    """B with its rows and its columns permuted at random."""
    rperm = list(range(B.nrows))
    cperm = list(range(B.ncols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    return PolyMatrix(B.ring, B.nrows, B.ncols,
                      {(rperm[r], cperm[c]): p
                       for (r, c), p in B.entries.items()})


def _scrambled_block_matrix(rng):
    shapes = [(1, rng.randrange(1, 4)), (rng.randrange(1, 4), 1),
              (3, 3), (rng.randrange(2, 4), rng.randrange(2, 4))]
    rng.shuffle(shapes)
    blocks = [_random_block(rng, r, c) for r, c in shapes[:rng.randrange(2, 5)]]
    if rng.random() < 0.5:
        blocks.append(_cancelling_block(rng))
    return _scrambled(rng, PolyMatrix.block_diag(blocks))


def _kernel_matrices(rng):
    """Scrambled block matrices, dense blocks with a dependent row, alone
    and beside a cancelling block, and three small edge cases."""
    matrices = [_scrambled_block_matrix(rng) for _ in range(12)]
    for n in (5, 6):
        matrices.append(_scrambled(rng, _dense_block(rng, n)))
    matrices.append(_scrambled(rng, PolyMatrix.block_diag(
        [_dense_block(rng, 3), _cancelling_block(rng),
         _cancelling_block(rng)])))
    matrices.append(PolyMatrix.zero(S3, 3, 4))
    matrices.append(matrix_of(S3, [["chi1", "chi2", "chi3"]]))
    matrices.append(matrix_of(S3, [["chi1"], ["chi2"], ["0"]]))
    return matrices


S3_QQ = PolyRing(QQ, ("chi1", "chi2", "chi3"), (2, 2, 2))


def _coinciding_blocks(rng, ring):
    """Blocks over ``ring`` whose minors multiply to the same polynomial
    in several ways (chi1 * chi2 from four pairs of blocks, and so on),
    with coefficients other than 1, scrambled."""
    blocks = [matrix_of(ring, rows) for rows in (
        [["2*chi1"]], [["chi2"]], [["chi1", "-3*chi2"]], [["chi2"], ["chi1"]],
        [["chi1 + chi2"]], [["5*chi1 + 5*chi2"]],
        [["chi1", "chi2"], ["chi2", "chi3"]])]
    rng.shuffle(blocks)
    return _scrambled(rng, PolyMatrix.block_diag(blocks))


def test_minor_table_equals_the_per_size_enumeration():
    """Every t from 1 to min(rows, cols) + 1, asked in ascending and in
    descending order: same minors in the same order, over GF(101) and QQ,
    for blocks whose products coincide, and for block_diag([P, P]), where
    every product of minors from the two copies occurs twice and is kept
    at its first occurrence."""
    rng = random.Random(8)
    deficient = 0
    matrices = _kernel_matrices(rng)
    matrices += [_coinciding_blocks(rng, ring) for ring in (S3, S3_QQ)
                 for _ in range(2)]
    matrices += [PolyMatrix.block_diag([P, P])
                 for P in (matrices[0], matrices[2], matrices[7],
                           matrices[18])]
    for P in matrices:
        top = min(P.nrows, P.ncols) + 1
        memo = {}
        expected = {t: _per_t_minors(P, t, memo) for t in range(1, top + 1)}
        deficient += not expected[top - 1]
        for order in (range(1, top + 1), range(top, 0, -1)):
            Q = PolyMatrix(P.ring, P.nrows, P.ncols, P.entries)
            for t in order:
                assert Q.minors(t) == expected[t], (P.entries, t)
    assert deficient >= 6   # some matrices stop below their full size


def test_block_minors_are_the_signed_determinants(monkeypatch):
    """Before deduplication, each size of a block lists every nonzero
    minor with its sign, ordered by (columns, rows)."""
    monkeypatch.setattr(matrix, "_dedupe_monic", list)
    sizes = set()
    for P in _kernel_matrices(random.Random(9)):
        for rows, cols, _ in matrix._blocks(P.entries):
            table = matrix._component_minor_table(P, rows, cols,
                                                   lambda units: None)
            for t in range(1, min(len(rows), len(cols)) + 2):
                expected = [
                    d for ctup in itertools.combinations(sorted(cols), t)
                    for rtup in itertools.combinations(sorted(rows), t)
                    if not (d := _det(P, rtup, ctup)).is_zero()]
                assert table.get(t, []) == expected, (P.entries, t)
                if expected:
                    sizes.add(t)
    assert sizes >= {1, 2, 3, 4, 5}


def test_minor_table_is_built_once_per_matrix(monkeypatch):
    """Every size is read off the one table: the size-0 minor 1 at t <= 0,
    and no minor above the rank."""
    P = matrix_of(S3, [["chi1", "chi2"], ["chi3", "0"]])
    calls = []
    build = PolyMatrix._build_minor_table
    monkeypatch.setattr(PolyMatrix, "_build_minor_table",
                        lambda self: calls.append(1) or build(self))
    assert [P.minors(t) for t in (2, 1, 3, 2)] == \
        [P.minors(2), P.minors(1), [], P.minors(2)]
    assert P.minors(0) == P.minors(-2) == [S3.one()]
    assert len(calls) == 1


def test_an_oversized_minor_table_is_refused(monkeypatch):
    """Past MAX_MINOR_WORK the table is refused with an error that names
    the limit, and nothing is cached: the next call builds it again."""
    P = PolyMatrix.block_diag([matrix_of(S3, [["chi1", "chi2"],
                                              ["chi3", "chi1"]]),
                               matrix_of(S3, [["chi2", "chi3"]])])
    monkeypatch.setattr(matrix, "MAX_MINOR_WORK", 10)
    with pytest.raises(PipelineError,
                       match=r"minors of a 3x4 matrix take more than 10 "
                             r".*\(MAX_MINOR_WORK\)"):
        P.minors(2)
    monkeypatch.undo()
    assert P.minors(3) == _per_t_minors(P, 3)


# -- generic rank against the fraction-free elimination ----------------------


_real_blocks = matrix._blocks


def _none_fine(entries):
    """``matrix._blocks`` with every block reported not fine: patched in
    for it, it sends ``generic_rank`` down the Hilbert route."""
    return [(rows, cols, False) for rows, cols, _ in _real_blocks(entries)]


def test_generic_rank_equals_the_whole_matrix_elimination(monkeypatch):
    """Random block matrices with rows and columns in shuffled order, with
    1 x n, n x 1 and rank-deficient blocks, and a zero block of rows and
    columns without entries placed at random: the rank read off the
    Hilbert numerator of the cokernel equals the elimination's.  Every
    matrix takes that route, fine or not: ``_blocks`` is patched to report
    no block fine (the scalar route has tests of its own below)."""
    monkeypatch.setattr(matrix, "_blocks", _none_fine)
    rng = random.Random(9)
    matrices = [PolyMatrix.zero(S3, 3, 2),
                matrix_of(S3, [["chi1", "chi2", "chi3"]]),
                matrix_of(S3, [["chi1"], ["chi2"], ["0"]])]
    for _ in range(15):
        B = _scrambled_block_matrix(rng)
        nrows, ncols = B.nrows + rng.randrange(1, 3), B.ncols + 1
        rmap = rng.sample(range(nrows), B.nrows)
        cmap = rng.sample(range(ncols), B.ncols)
        matrices.append(PolyMatrix(S3, nrows, ncols,
                                   {(rmap[r], cmap[c]): p
                                    for (r, c), p in B.entries.items()}))
    deficient = 0
    for P in matrices:
        rank = whole_matrix_rank(P)
        assert P.generic_rank() == rank, P.entries
        blocks = _components(P.entries)
        deficient += rank < sum(min(len(r), len(c)) for r, c in blocks)
    assert deficient >= 3


@st.composite
def _rank_inputs(draw):
    """A matrix over GF(p)[x, y] or QQ[x, y], weights (1, 1) or (1, 2),
    of shape 0..4 x 0..4: entries of up to three terms of degree 0 to 2,
    so unit and inhomogeneous entries, and about half of them zero, so
    zero rows and columns; or a product of two such matrices through one
    or two columns, of lower rank than its shape."""
    field = draw(st.sampled_from([GF(2), GF(7), GF101, QQ]))
    ring = PolyRing(field, ("x", "y"), draw(st.sampled_from([(1, 1),
                                                             (1, 2)])))
    coeffs = (st.integers(1, field.p - 1) if field.p
              else st.fractions(-3, 3, max_denominator=3).filter(bool))
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def random_matrix(nrows, ncols):
        entries = {}
        for r in range(nrows):
            for c in range(ncols):
                if draw(st.booleans()):
                    terms = draw(st.dictionaries(st.sampled_from(monos),
                                                 coeffs, min_size=1,
                                                 max_size=3))
                    entries[(r, c)] = Polynomial(
                        ring, {m: field.coerce(co) for m, co in terms.items()})
        return PolyMatrix(ring, nrows, ncols, entries)

    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        return random_matrix(nrows, ncols)
    inner = draw(st.integers(1, 2))
    return random_matrix(nrows, inner) @ random_matrix(inner, ncols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rank_inputs())
def test_generic_rank_equals_the_fraction_free_elimination(P):
    """The rank read off the Hilbert numerator of coker equals one
    fraction-free elimination of the whole matrix, over GF(p) and QQ,
    on inhomogeneous entries and unit entries, with zero rows and
    columns, and on 0 x n and n x 0 matrices.  Every draw takes that
    route, fine or not: ``_blocks`` is patched to report no block
    fine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_blocks", _none_fine)
        assert P.generic_rank() == whole_matrix_rank(P), (P.nrows, P.ncols,
                                                          P.entries)


# -- the route a fine-graded matrix takes -----------------------------------


def _ds_of(texts):
    """D of X(M) and of s_dual(X(M)) for each session text."""
    out = []
    for text in texts:
        X = build_pipeline(parse_session(text)).X
        out += [X.D, s_dual(X).D]
    return out


def _assert_fine(P):
    """Every block of P is fine, and the potentials of the reference
    search (``oracles.fine_grading``) reproduce every entry's exponent."""
    assert all(fine for _, _, fine in matrix._blocks(P.entries))
    rows, cols = fine_grading(P.entries)
    for (r, c), p in P.entries.items():
        assert list(p.terms) == [tuple(a - b for a, b in
                                       zip(cols[c], rows[r]))], (r, c)


def _example_paths():
    """The files of ``sessions/`` and ``perfbench/inputs/``, checked to be
    the listed ones."""
    paths = sorted((REPO / "sessions").glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    assert [p.stem for p in paths] == [*sorted(SESSION_STEMS),
                                       *sorted(BENCH_INPUT_STEMS)]
    return paths


def test_every_d_of_the_sessions_and_the_bench_inputs_is_fine(monkeypatch):
    """The D's of the listed files of ``sessions/`` and
    ``perfbench/inputs/`` (X and its dual), but for the non-fine sessions,
    take the scalar route of ``generic_rank``: each block of each is fine,
    potentials reproduce every entry's exponent, and its rank, with no
    Hilbert numerator formed, is nrows minus the rank of coker read off
    one."""
    Ds = _ds_of(path.read_text() for path in _example_paths()
                if path.stem not in NON_FINE_SESSION_STEMS)
    ranks = [D.nrows - sum(matrix.module_hilbert_data(D).values())
             for D in Ds]

    def not_called(mat):
        raise AssertionError("a fine matrix formed a Hilbert numerator")

    monkeypatch.setattr(matrix, "module_hilbert_data", not_called)
    for D, rank in zip(Ds, ranks):
        _assert_fine(D)
        assert D.generic_rank() == rank
    assert sum(len(D.entries) for D in Ds) > 200
    assert sum(ranks) > 100


def test_a_d_that_is_not_fine_keeps_the_hilbert_route(monkeypatch):
    """The D's of the non-fine sessions and of ``nm_n4_e2`` and
    ``lin2_n5_e2`` (X and its dual), [[chi1, chi2], [chi2, chi1]], whose
    cycle disagrees, and two matrices of rank 2 whose two-term entry, read
    as either of its terms, would close a consistent cycle of rank 1 are
    not fine; the Hilbert numerator gives their rank, which equals the
    elimination's."""
    paths = [p for p in _example_paths() if p.stem in NON_FINE_SESSION_STEMS]
    assert sorted(p.stem for p in paths) == sorted(NON_FINE_SESSION_STEMS)
    mats = _ds_of(path.read_text() for path in paths)
    mats += _ds_of(LADDER[name] for name in ("nm_n4_e2", "lin2_n5_e2"))
    mats += [matrix_of(S2, rows) for rows in (
        [["chi1", "chi2"], ["chi2", "chi1"]],
        [["chi1 + chi2", "chi1"], ["chi1", "chi1"]],
        [["chi1 + chi2", "chi2"], ["chi2", "chi2"]])]
    numerators = []
    hilbert = matrix.module_hilbert_data

    def counting(mat):
        numerators.append(mat)
        return hilbert(mat)

    monkeypatch.setattr(matrix, "module_hilbert_data", counting)
    for P in mats:
        assert not all(fine for _, _, fine in matrix._blocks(P.entries))
        assert fine_grading(P.entries) is None
        assert P.generic_rank() == whole_matrix_rank(P)
    assert numerators == mats


@st.composite
def _fine_matrices(draw):
    """A fine-graded matrix over GF(2), GF(101) or QQ[chi1, chi2], of
    shape 0..5 x 0..5: row potentials in {0, -1, -2}^2 and column ones in
    {0, 1, 2}^2, so the entries at rows and columns both at 0 are units,
    and each entry the monomial of exponent column - row with a nonzero
    coefficient, about two thirds of them present.  Optionally the first
    two rows are made proportional on the columns where both have an
    entry, so that every 2 x 2 minor on them cancels."""
    field = draw(st.sampled_from([GF(2), GF101, QQ]))
    ring = PolyRing(field, ("chi1", "chi2"), (2, 2))
    coeffs = (st.integers(1, field.p - 1) if field.p
              else st.fractions(-3, 3, max_denominator=3).filter(bool))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pot = st.tuples(st.integers(0, 2), st.integers(0, 2))
    rows = [draw(pot) for _ in range(nrows)]
    cols = [draw(pot) for _ in range(ncols)]
    scalars = {(r, c): field.coerce(draw(coeffs))
               for r in range(nrows) for c in range(ncols)
               if draw(st.integers(0, 2))}
    if nrows >= 2 and draw(st.booleans()):
        k = field.coerce(draw(coeffs))
        for c in range(ncols):
            if (0, c) in scalars and (1, c) in scalars:
                scalars[1, c] = field.mul(k, scalars[0, c])
    return PolyMatrix(ring, nrows, ncols, {
        (r, c): ring.monomial(tuple(a + b for a, b in zip(rows[r], cols[c])),
                              co)
        for (r, c), co in scalars.items()})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fine_matrices())
def test_the_rank_of_a_fine_matrix_equals_the_fraction_free_elimination(P):
    """A fine-graded matrix, with unit entries and cancelling 2 x 2
    patterns, is found fine, with potentials that reproduce every
    exponent, and its rank from the coefficients alone equals one
    fraction-free elimination of the whole matrix."""
    _assert_fine(P)
    assert P.generic_rank() == whole_matrix_rank(P), (P.nrows, P.ncols,
                                                      P.entries)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fine_matrices(), st.data())
def test_a_fine_matrix_has_the_rank_of_a_0_1_point_on_each_torus(P, data):
    """At a point a whose nonzero coordinates are exactly Z, a fine P(a) is
    diag(a^-r) P(e_Z) diag(a^c), so its rank is ``rank_at(e_Z)``, on
    every coordinate stratum, the origin and the torus included."""
    field = P.ring.field
    nonzero = (st.integers(1, field.p - 1) if field.p
               else st.fractions(-3, 3, max_denominator=3).filter(bool))
    for Z in itertools.product((0, 1), repeat=2):
        a = [field.coerce(data.draw(nonzero)) if z else 0 for z in Z]
        assert P.rank_at(a) == P.rank_at(Z), (a, P.entries)


@st.composite
def _graded_presentations(draw):
    """The text of a session over GF(101) or QQ in 2 or 3 variables of
    weight 1 or 2.  Its ci is f = T g, with g_i = x_i^(e_i) of weighted
    degree 2 or 4 and T unitriangular: f_i may gain k g_j for a j > i of
    g_i's degree, so f is a regular sequence.  Its module is
    coker [[f, m_1, .., m_s]], each m a monomial with every exponent below
    g's, or a binomial of two such of one degree."""
    field = draw(st.sampled_from(["GF(101)", "QQ"]))
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    powers = [draw(st.sampled_from([2, 4])) // w for w in weights]
    names = [f"x{i}" for i in range(n)]

    def text(m):
        return "*".join(f"{v}^{e}" for v, e in zip(names, m) if e)

    def degree(m):
        return sum(map(mul, weights, m))

    def plus(m, others):
        """m, or m plus k times one of ``others``, as drawn."""
        if not others or not draw(st.booleans()):
            return text(m)
        k = draw(st.integers(1, 6))
        return f"{text(m)} + {k}*{text(draw(st.sampled_from(others)))}"

    g = [tuple(e * (j == i) for j in range(n)) for i, e in enumerate(powers)]
    f = [plus(g[i], [u for u in g[i + 1:] if degree(u) == degree(g[i])])
         for i in range(n)]
    below = [m for m in itertools.product(*map(range, powers)) if any(m)]
    cols = []
    for _ in range(draw(st.integers(1, 3)) if below else 0):
        m = draw(st.sampled_from(below))
        cols.append(plus(m, [u for u in below
                             if u != m and degree(u) == degree(m)]))
    return (f"field {field}\nring {', '.join(names)} weights "
            f"{', '.join(map(str, weights))}\nci {', '.join(f)}\n"
            f"module coker [[{', '.join(f + cols)}]]\n")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graded_presentations())
@example("field GF(101)\nring x0, x1 weights 1, 1\nci x0^4 + 2*x1^4, x1^4\n"
         "module coker [[x0^4 + 2*x1^4, x1^4, x0]]\n")
def test_independent_ci_degrees_make_every_block_of_d_fine(text):
    """If the degrees of f_1..f_c in the finest grading W
    (``homotopy._grading``) are linearly independent, every block of D is
    fine, for X and its dual.  An entry of D, from generator a to b, is
    the constant part of sigma_J times chi^J, and sigma_J is homogeneous
    of degree sum J_j deg f_j, so deg b - deg a fixes J: each entry is one
    term, and a linear map taking deg f_j to e_j gives potentials that
    close every cycle.  The example's f_1 has two terms, so it is
    dependent only in a grading that reads f's terms: there its D is not
    fine."""
    pipe = build_pipeline(parse_session(text))
    _, fdeg, _ = _grading(pipe.resolution, pipe.rd)
    assume(len(matrix.echelon([{j: Fraction(a) for j, a in enumerate(d) if a}
                                for d in fdeg], QQ)) == len(fdeg))
    for X in (pipe.X, s_dual(pipe.X)):
        assert all(fine for _, _, fine in matrix._blocks(X.D.entries)), text


# -- the one walk of the support graph against its reference routes ---------


_MONOS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def _block_matrices(draw):
    """A matrix over GF(2), GF(7), GF(101) or QQ[chi1, chi2] of up to four
    diagonal blocks of shape 1..4 x 1..4, its rows and columns then
    scrambled, empty rows and columns added, and its entries stored in a
    drawn order, so that a join may hang either end's root.  Each block is
    a grid of monomials of exponent column - row potential, about two
    thirds present, unit entries included: as it is (fine), with its first
    two rows proportional (a cancelling cycle), with one entry given a
    second term, or with one entry's exponent moved, which disagrees with
    any cycle through it.  A block may fall apart into several, and no
    block at all is a matrix without entries."""
    field = draw(st.sampled_from([GF(2), GF(7), GF101, QQ]))
    ring = PolyRing(field, ("chi1", "chi2"), (2, 2))
    coeffs = (st.integers(1, field.p - 1) if field.p
              else st.fractions(-3, 3, max_denominator=3).filter(bool))
    pot = st.tuples(st.integers(0, 1), st.integers(0, 1))
    terms = {}
    nrows = ncols = 0
    for _ in range(draw(st.integers(0, 4))):
        h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        rows = [draw(pot) for _ in range(h)]
        cols = [draw(pot) for _ in range(w)]
        block = {(r, c): {tuple(a + b for a, b in zip(rows[r], cols[c])):
                          field.coerce(draw(coeffs))}
                 for r in range(h) for c in range(w)
                 if draw(st.integers(0, 2))}
        kind = draw(st.sampled_from(["fine", "cancelling", "two terms",
                                     "moved"]))
        if kind == "cancelling" and h >= 2:
            k = field.coerce(draw(coeffs))
            for c in range(w):
                if (0, c) in block and (1, c) in block:
                    (m, co), = block[0, c].items()
                    (n, _), = block[1, c].items()
                    block[1, c] = {n: field.mul(k, co)}
        elif kind in ("two terms", "moved") and block:
            key = draw(st.sampled_from(sorted(block)))
            (m, co), = block[key].items()
            other = draw(st.sampled_from([n for n in _MONOS if n != m]))
            block[key] = ({m: co, other: co} if kind == "two terms"
                          else {other: co})
        for (r, c), t in block.items():
            terms[nrows + r, ncols + c] = t
        nrows, ncols = nrows + h, ncols + w
    nrows += draw(st.integers(0, 2))
    ncols += draw(st.integers(0, 2))
    rperm = draw(st.permutations(range(nrows)))
    cperm = draw(st.permutations(range(ncols)))
    return PolyMatrix(ring, nrows, ncols, {
        (rperm[r], cperm[c]): Polynomial(ring, terms[r, c])
        for r, c in draw(st.permutations(sorted(terms)))})


def _assert_blocks_equal_the_references(P):
    got = matrix._blocks(P.entries)
    assert [(rows, cols) for rows, cols, _ in got] == \
        _components(P.entries), P.entries
    for rows, cols, fine in got:
        own = {k: p for k, p in P.entries.items() if k[0] in rows}
        assert fine == (fine_grading(own) is not None), (P.entries, rows)
    return [fine for _, _, fine in got]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_block_matrices())
def test_blocks_equal_the_reference_walks(P):
    """``_blocks`` gives the blocks of the reference union-find
    (``oracles._components``), in its order, and flags each one fine
    exactly when the reference search finds potentials for that block's
    own entries (``oracles.fine_grading``), over GF(p) and QQ, with
    multi-term entries, cancelling and disagreeing cycles, fine and
    non-fine blocks side by side, and 1 x n and n x 1 blocks."""
    _assert_blocks_equal_the_references(P)


def test_blocks_of_small_matrices():
    """The flags of a few matrices by hand: no block of a matrix without
    entries; one fine block of a row with a unit; a disagreeing and a
    cancelling 2 x 2 cycle; a two-term entry beside a fine block; and a
    path of seven nodes whose last entry closes a cycle, consistent or
    not, so that ``find`` walks and compresses a long path."""
    S2_QQ = PolyRing(QQ, ("chi1", "chi2"), (2, 2))
    path = [["chi1", "chi2", "0", "0"], ["0", "chi1", "chi2", "0"],
            ["0", "0", "chi1", "chi2"]]
    cases = [
        (PolyMatrix.zero(S2, 0, 0), []),
        (PolyMatrix.zero(S2, 2, 3), []),
        (matrix_of(S2, [["chi1", "2*chi2", "1"]]), [True]),
        (matrix_of(S2, [["chi1"], ["chi2"]]), [True]),
        (matrix_of(S2_QQ, [["chi1", "chi2"], ["chi2", "chi1"]]), [False]),
        (matrix_of(S2_QQ, [["chi1", "chi2"], ["3*chi1", "3*chi2"]]),
         [True]),
        (matrix_of(S2, [["chi1 + chi2", "0"], ["0", "chi2"]]),
         [False, True]),
        (matrix_of(S2, path + [["chi1^3", "0", "0", "chi2^3"]]), [True]),
        (matrix_of(S2, path + [["chi2^3", "0", "0", "chi1^3"]]), [False]),
    ]
    for P, flags in cases:
        assert _assert_blocks_equal_the_references(P) == flags, P.entries


@pytest.mark.parametrize("name, units", [("flag", 31), ("loci_a", 855),
                                         ("lin2_n5_e2", 27_550),
                                         ("nm_n4_e2", 214_100)])
def test_the_minor_tables_fit_the_work_of_their_block_order(monkeypatch,
                                                             name, units):
    """The minor table of D of X(M) fits in the units of work it takes
    with its blocks in the order of ``_blocks``, ``MAX_MINOR_WORK`` set
    to exactly that.  The order of the blocks changes the work but not
    the minors, so nothing else would see a reordering: in first-entry
    order these tables take 35, 942, 33,186 and 423,368 units."""
    path = {"flag": REPO / "sessions" / "flag.session",
            "loci_a": REPO / "perfbench" / "inputs" / "loci_a.session"}
    text = path[name].read_text() if name in path else LADDER[name]
    D = build_pipeline(parse_session(text)).X.D
    monkeypatch.setattr(matrix, "MAX_MINOR_WORK", units)
    assert D.minors(1)


# -- products and negation against per-entry polynomial arithmetic ---------


def _random_sparse(rng, ring, nrows, ncols):
    """Entries of one or two terms from 1, a, b with coefficients +-1."""
    monos = [ring.one()] + [ring.gen(i) for i in range(ring.nvars)]
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.5:
                entries[(r, c)] = sum(
                    (rng.choice(monos).scale(rng.choice([1, -1]))
                     for _ in range(rng.choice([1, 1, 2]))), ring.zero())
    return PolyMatrix(ring, nrows, ncols, entries)


def test_product_and_negation_equal_per_entry_arithmetic():
    """Over GF(3) and QQ, on random sparse matrices built so that some
    products cancel to zero entries, which must not be stored."""
    rng = random.Random(12)
    cancelled = 0
    for field in (GF(3), QQ):
        ring = PolyRing(field, ("a", "b"))
        zero = ring.zero()
        for _ in range(40):
            n, k, m = (rng.randrange(1, 5) for _ in range(3))
            A = _random_sparse(rng, ring, n, k)
            B = _random_sparse(rng, ring, k, m)
            if k >= 2:
                # column 0 of B is (A[0,1], -A[0,0], 0, ...), so entry
                # (0, 0) of the product cancels to zero
                entries = {key: p for key, p in B.entries.items()
                           if key[1] != 0}
                entries[(0, 0)] = A.entries.get((0, 1), zero)
                entries[(1, 0)] = -A.entries.get((0, 0), zero)
                B = PolyMatrix(ring, k, m, entries)
            C = A @ B
            for r in range(n):
                for c in range(m):
                    s = ring.zero()
                    for j in range(k):
                        s = s + (A.entries.get((r, j), zero)
                                 * B.entries.get((j, c), zero))
                    assert C.entries.get((r, c), zero) == s
                    met = any((r, j) in A.entries and (j, c) in B.entries
                              for j in range(k))
                    cancelled += met and s.is_zero()
            assert all(not p.is_zero() for p in C.entries.values())
            assert (-A).entries == {key: -p for key, p in A.entries.items()}
    assert cancelled >= 5


# -- products against a per-pair sum ----------------------------------------


def _per_pair_sum(base, pairs):
    """Test-local reference for ``@`` and for the column kernel
    (``groebner.add_image``, ``groebner.reduced``): each product formed with
    polynomial arithmetic and added to base with ``+``, one pair at a
    time."""
    ring = base.ring
    acc = base
    for a, b in pairs:
        by_row = {}
        for (j, c), q in b.entries.items():
            by_row.setdefault(j, []).append((c, q))
        entries = {}
        for (r, j), p in a.entries.items():
            for c, q in by_row.get(j, ()):
                entries[(r, c)] = entries.get((r, c), ring.zero()) + p * q
        acc = matrix_sum(acc, PolyMatrix(ring, base.nrows, base.ncols, entries))
    return acc


def _kernel_sum(base, pairs):
    """base + the sum of a @ b over ``pairs`` as the homotopy walk sums a
    residual: each column of every product added into one dict per column
    by ``groebner.add_image``, and reduced once by ``groebner.reduced``."""
    ring = base.ring
    accs = base.columns_as_vectors()
    for a, b in pairs:
        cols = a.columns_as_vectors()
        for v, acc in zip(b.columns_as_vectors(), accs):
            add_image(cols, v, acc)
    return PolyMatrix.from_columns(
        ring, base.nrows, [reduced(acc, ring.field.p) for acc in accs])


def _assert_equals_per_pair_sum(got, base, pairs):
    want = _per_pair_sum(base, pairs)
    assert got.entries == want.entries
    assert (got.nrows, got.ncols) == (base.nrows, base.ncols)
    assert all(not p.is_zero() for p in got.entries.values())
    return got


@st.composite
def _product_inputs(draw):
    """A base of shape 0..4 x 0..4 over GF(2), GF(3), GF(101) or QQ[a, b]
    and up to four pairs (A, B) that compose to its shape through 0..4
    columns; entries of one or two terms from 1, a, b, ab with
    coefficients 1, -1 or 2, and about half of them zero, so empty rows
    and columns."""
    field = draw(st.sampled_from([GF(2), GF(3), GF101, QQ]))
    ring = PolyRing(field, ("a", "b"))
    monos = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])
    coeffs = st.sampled_from([1, -1, 2])

    def sparse(nrows, ncols):
        entries = {}
        for r in range(nrows):
            for c in range(ncols):
                if draw(st.booleans()):
                    terms = {}
                    for _ in range(draw(st.integers(1, 2))):
                        m = draw(monos)
                        terms[m] = terms.get(m, 0) + draw(coeffs)
                    terms = {m: field.coerce(co) for m, co in terms.items()}
                    entries[(r, c)] = Polynomial(
                        ring, {m: co for m, co in terms.items() if co})
        return PolyMatrix(ring, nrows, ncols, entries)

    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, 4))
        pairs.append((sparse(n, k), sparse(k, m)))
    return sparse(n, m), pairs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_product_inputs())
def test_products_equal_the_per_pair_sum(case):
    """Over GF(2), GF(3), GF(101) and QQ, with shapes from 0 to 4: each
    A @ B, their sum with the base, and the sum the column kernel
    accumulates in one dict, equal the per-pair sum; so do the sums built
    to cancel, A B + (-A) B and -(A B) + A B, which are zero.  A product
    of mismatched shapes is refused."""
    base, pairs = case
    ring = base.ring
    total = base
    for a, b in pairs:
        got = _assert_equals_per_pair_sum(
            a @ b, PolyMatrix.zero(ring, a.nrows, b.ncols), [(a, b)])
        total = matrix_sum(total, got)
    _assert_equals_per_pair_sum(total, base, pairs)
    _assert_equals_per_pair_sum(_kernel_sum(base, pairs), base, pairs)
    A, B = pairs[0] if pairs else (base, identity_matrix(ring, base.ncols))
    zero = PolyMatrix.zero(ring, base.nrows, base.ncols)
    assert matrix_sum(A @ B, (-A) @ B).is_zero()
    assert matrix_sum(-(A @ B), A @ B).is_zero()
    assert _assert_equals_per_pair_sum(
        _kernel_sum(zero, [(A, B), (-A, B)]), zero, [(A, B), (-A, B)]) \
        .is_zero()
    assert _assert_equals_per_pair_sum(
        _kernel_sum(-(A @ B), [(A, B)]), -(A @ B), [(A, B)]).is_zero()
    with pytest.raises(ValueError, match="composition shape mismatch"):
        A @ PolyMatrix.zero(ring, A.ncols + 1, B.ncols)


def _checking_every_product(monkeypatch):
    """Make every ``@`` compare its result with the per-pair sum; return
    the list of call counts."""
    real = PolyMatrix.__matmul__
    calls = [0]

    def checked(a, b):
        got = real(a, b)
        assert got.entries == _per_pair_sum(
            PolyMatrix.zero(a.ring, a.nrows, b.ncols), [(a, b)]).entries
        calls[0] += 1
        return got

    monkeypatch.setattr(PolyMatrix, "__matmul__", checked)
    return calls


def test_homotopy_systems_sum_as_the_per_pair_sum(monkeypatch):
    """The homotopy systems of the three ``build`` inputs of the
    benchmark, of the module with nonzero blocks at |J| = 2, and of random
    monomial modules in two and three variables over GF(3) and QQ verify:
    every identity ``verify_system`` forms, from all splittings of J, on
    the full system that the constructed one is a part of
    (``full_system``), vanishes, and each of its products equals the
    per-pair sum.  The construction itself sums its residuals column by
    column and forms no matrix product."""
    calls = _checking_every_product(monkeypatch)
    texts = [(REPO / "perfbench" / "inputs" / f"{stem}.session").read_text()
             for stem in ("res_n7_e2", "m2_n5_e2", "sq_n6_e2")]
    rng = random.Random(41)
    for field in ("GF(3)", "QQ"):
        texts.append(f"field {field}\n{PAIR_BLOCK_SESSION}")
        for _ in range(3):
            gens = ", ".join(f"x^{i}*y^{j}" for i, j in
                             random_monomial_rows(rng))
            texts.append(f"field {field}\nring x, y\nci x^3, y^3\n"
                         f"module coker [[{gens}]]\n")
        for _ in range(6):
            gens = ", ".join(f"x^{i}*y^{j}*z^{k}" for i, j, k in
                             random_monomial_rows_3(rng))
            texts.append(f"field {field}\nring x, y, z\n"
                         f"ci x^3, y^3, z^3\nmodule coker [[{gens}]]\n")
    for text in texts:
        session = parse_session(text)
        rd = session.ring_data
        res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring,
                                                      session.module.rows))
        before = calls[0]
        sys = compute_higher_homotopies(res, rd)
        assert calls[0] == before
        verify_system(full_system(sys, rd), rd)
    assert calls[0] > 1000
