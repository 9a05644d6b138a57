"""Sparse polynomial matrices: minors, ranks, unit cancellation, and the
bihomogeneity contract of twisted complexes."""

import itertools
import random

import pytest

from jumploci import GF, QQ, PolyRing
from jumploci import matrix
from jumploci.matrix import PolyMatrix, _dedupe_monic
from jumploci.resolution import PipelineError
from jumploci.session import parse_session, build_pipeline
from jumploci.twisted import TwistedComplex

from conftest import (REPO, PAIR_BLOCK_SESSION, assert_twisted_complex,
                      matrix_of, random_monomial_rows, random_monomial_rows_3)

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


def test_generic_rank_certifies_evaluation_bound():
    P = matrix_of(S2, [["chi1", "chi2"], ["chi2", "chi1"]])
    assert P.generic_rank() == 2
    Q = matrix_of(S2, [["chi1", "chi2"], ["chi1", "chi2"]])
    assert Q.generic_rank() == 1


def test_composition_and_transpose():
    A = matrix_of(S2, [["chi1", "0"], ["chi2", "chi1"]])
    B = matrix_of(S2, [["chi2"], ["chi1"]])
    C = A @ B
    assert str(C.get(0, 0)) == "chi1*chi2"
    T = A.transpose()
    assert T.get(0, 1) == A.get(1, 0)


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


def test_block_diag_shapes():
    A = matrix_of(S2, [["chi1"]])
    B = matrix_of(S2, [["chi2", "0"], ["0", "chi2"]])
    C = PolyMatrix.block_diag([A, B])
    assert (C.nrows, C.ncols) == (3, 3)
    assert str(C.get(0, 0)) == "chi1"
    assert str(C.get(2, 2)) == "chi2"
    assert C.get(0, 1).is_zero()


# -- the minor table against the per-size enumeration ---------------------


S3 = PolyRing(GF101, ("chi1", "chi2", "chi3"), (2, 2, 2))


def _per_t_minors(mat, t, memo=None):
    """Reference: the t x t minors enumerated for this t alone, every
    component to every size up to t, convolved with a cut at t.  ``memo``
    may keep the minors of each component and size across calls on the
    same matrix."""
    if t > min(mat.nrows, mat.ncols):
        return []
    memo = {} if memo is None else memo
    acc = {0: [mat.ring.one()]}
    for rows, cols in mat._components():
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
    return PolyMatrix(S3, B.nrows, B.ncols,
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


def test_minor_table_equals_the_per_size_enumeration():
    """Every t from 1 to min(rows, cols) + 1, asked in ascending and in
    descending order: same minors in the same order."""
    deficient = 0
    for P in _kernel_matrices(random.Random(8)):
        top = min(P.nrows, P.ncols) + 1
        memo = {}
        expected = {t: _per_t_minors(P, t, memo) for t in range(1, top + 1)}
        deficient += not expected[top - 1]
        for order in (range(1, top + 1), range(top, 0, -1)):
            Q = PolyMatrix(S3, P.nrows, P.ncols, P.entries)
            for t in order:
                assert Q.minors(t) == expected[t], (P.entries, t)
    assert deficient >= 6   # some matrices stop below their full size


def test_block_minors_are_the_signed_determinants(monkeypatch):
    """Before deduplication, each size of a block lists every nonzero
    minor with its sign, ordered by (columns, rows)."""
    monkeypatch.setattr(matrix, "_dedupe_monic", list)
    sizes = set()
    for P in _kernel_matrices(random.Random(9)):
        for rows, cols in P._components():
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
    P = matrix_of(S3, [["chi1", "chi2"], ["chi3", "0"]])
    calls = []
    build = PolyMatrix._build_minor_table
    monkeypatch.setattr(PolyMatrix, "_build_minor_table",
                        lambda self: calls.append(1) or build(self))
    assert [P.minors(t) for t in (2, 1, 3, 2)] == \
        [P.minors(2), P.minors(1), [], P.minors(2)]
    assert len(calls) == 1
    with pytest.raises(ValueError):
        P.minors(0)


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


# -- generic rank summed over the blocks -----------------------------------


def _whole_matrix_rank(mat):
    """Reference: one fraction-free elimination of the whole matrix, the
    route before the rank was summed over the blocks."""
    work = dict(mat.entries)
    prev = mat.ring.one()
    rank = 0
    while work:
        (pr, pc) = min(work, key=lambda k: (len(work[k].terms), k))
        pivot = work[pr, pc]
        rank += 1
        col = {r: p for (r, c), p in work.items() if c == pc and r != pr}
        row = {c: p for (r, c), p in work.items() if r == pr and c != pc}
        nxt = {}
        for r in {r for r, _ in work} - {pr}:
            for c in {c for _, c in work} - {pc}:
                num = pivot * work.get((r, c), mat.ring.zero())
                if r in col and c in row:
                    num = num - col[r] * row[c]
                if not num.is_zero():
                    nxt[(r, c)] = num.exact_divide(prev)
        work = nxt
        prev = pivot
    return rank


def test_generic_rank_equals_the_whole_matrix_elimination():
    """Random block matrices with rows and columns in shuffled order, with
    1 x n, n x 1 and rank-deficient blocks, and a zero block of rows and
    columns without entries placed at random."""
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
        rank = _whole_matrix_rank(P)
        assert P.generic_rank() == rank, P.entries
        blocks = P._components()
        deficient += rank < sum(min(len(r), len(c)) for r, c in blocks)
    assert deficient >= 3


# -- products and negation against per-entry polynomial arithmetic ---------


def _random_sparse(rng, ring, nrows, ncols):
    """Entries of one or two terms from 1, a, b with coefficients +-1."""
    monos = [ring.one()] + ring.gens()
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
        for _ in range(40):
            n, k, m = (rng.randrange(1, 5) for _ in range(3))
            A = _random_sparse(rng, ring, n, k)
            B = _random_sparse(rng, ring, k, m)
            if k >= 2:
                # column 0 of B is (A[0,1], -A[0,0], 0, ...), so entry
                # (0, 0) of the product cancels to zero
                entries = {key: p for key, p in B.entries.items()
                           if key[1] != 0}
                entries[(0, 0)] = A.get(0, 1)
                entries[(1, 0)] = -A.get(0, 0)
                B = PolyMatrix(ring, k, m, entries)
            C = A @ B
            for r in range(n):
                for c in range(m):
                    s = ring.zero()
                    for j in range(k):
                        s = s + A.get(r, j) * B.get(j, c)
                    assert C.get(r, c) == s
                    met = any((r, j) in A.entries and (j, c) in B.entries
                              for j in range(k))
                    cancelled += met and s.is_zero()
            assert all(not p.is_zero() for p in C.entries.values())
            assert (-A).entries == {key: -p for key, p in A.entries.items()}
            A2 = _random_sparse(rng, ring, n, k)
            D = A - A2
            for r in range(n):
                for c in range(k):
                    assert D.get(r, c) == A.get(r, c) - A2.get(r, c)
            assert all(not p.is_zero() for p in D.entries.values())
            assert (A - A).is_zero()
    assert cancelled >= 5


# -- sums of products against a per-pair sum --------------------------------


def _per_pair_sum(base, pairs):
    """Test-local reference for ``sum_of_products``: each product formed
    with polynomial arithmetic and added to base with ``+``, one pair at
    a time."""
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
        acc = acc + PolyMatrix(ring, base.nrows, base.ncols, entries)
    return acc


def _assert_equals_per_pair_sum(base, pairs):
    got = PolyMatrix.sum_of_products(base, pairs)
    want = _per_pair_sum(base, pairs)
    assert got.entries == want.entries
    assert (got.nrows, got.ncols) == (base.nrows, base.ncols)
    assert all(not p.is_zero() for p in got.entries.values())
    return got


def test_sum_of_products_equals_the_per_pair_sum():
    """Over GF(3) and QQ, on random sums of up to four products, and on
    sums built to cancel: A B + (-A) B, and -(A B) + A B as base and pair."""
    rng = random.Random(31)
    for field in (GF(3), QQ):
        ring = PolyRing(field, ("a", "b"))
        for _ in range(30):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            base = _random_sparse(rng, ring, n, m)
            pairs = []
            for _ in range(rng.randrange(0, 5)):
                k = rng.randrange(1, 4)
                pairs.append((_random_sparse(rng, ring, n, k),
                              _random_sparse(rng, ring, k, m)))
            _assert_equals_per_pair_sum(base, pairs)
            A, B = pairs[0] if pairs else (base, PolyMatrix.identity(ring, m))
            zero = PolyMatrix.zero(ring, n, m)
            assert _assert_equals_per_pair_sum(zero, [(A, B), (-A, B)]) \
                .is_zero()
            assert _assert_equals_per_pair_sum(-(A @ B), [(A, B)]).is_zero()
        with pytest.raises(ValueError, match="composition shape mismatch"):
            PolyMatrix.sum_of_products(PolyMatrix.zero(ring, 2, 2),
                                       [(PolyMatrix.zero(ring, 2, 3),
                                         PolyMatrix.zero(ring, 2, 2))])


def _checking_every_sum(monkeypatch):
    """Make every ``sum_of_products`` call, ``@`` included, compare its
    result with the per-pair sum; return the list of call counts."""
    real = PolyMatrix.sum_of_products
    calls = [0]

    def checked(base, pairs):
        pairs = list(pairs)
        got = real(base, pairs)
        assert got.entries == _per_pair_sum(base, pairs).entries
        calls[0] += 1
        return got

    monkeypatch.setattr(PolyMatrix, "sum_of_products", staticmethod(checked))
    return calls


def test_homotopy_systems_sum_as_the_per_pair_sum(monkeypatch):
    """Every residual, correction and product formed while building the
    pipelines of the three ``build`` inputs of the benchmark, of the
    module with nonzero blocks at |J| = 2, and of random monomial modules
    in two and three variables over GF(3) and QQ, equals the per-pair
    sum."""
    calls = _checking_every_sum(monkeypatch)
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
        build_pipeline(parse_session(text))
    assert calls[0] > 1000
