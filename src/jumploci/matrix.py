"""Sparse matrices over a polynomial ring, entries only: the degrees live
on what holds the matrix (``FreeResolution.degrees``, ``basis_degrees``).

``cancel_unit`` is the one Gaussian elimination of a unit entry, shared by
the presentations of modules and the minimalization of twisted complexes:
the cokernel and its Fitting ideals stay the same.

The determinantal kernel finds the nonzero minors only: the matrix is split
into the connected components of its support graph, and inside a component
the nonzero minors of each size grow from those of the size below, one
Laplace expansion each (``_component_minor_table``).  The minors of every
size are built together on the first request and cached on the matrix (see
``PolyMatrix.minors``).
"""

from __future__ import annotations

from operator import add

from .poly import Polynomial, PolyRing


# Most units of work, one per determinant expansion and one per pair of
# terms multiplied, that the minor table of one matrix may take (a few
# seconds and about 100 MB); a matrix whose table needs more is refused
# with a PipelineError before its memory runs out.  The largest table of
# the example sessions takes 31 units, of the benchmark inputs 756, and of
# the scripts about 20,000 (``realizability_demo.py``).
MAX_MINOR_WORK = 500_000


class PolyMatrix:
    __slots__ = ("ring", "nrows", "ncols", "entries", "_minor_table",
                 "_column_basis")

    def __init__(self, ring: PolyRing, nrows: int, ncols: int, entries=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), p in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError("entry out of range")
                if isinstance(p, Polynomial) and not p.is_zero():
                    self.entries[(r, c)] = p
        self._minor_table = None   # t -> minors, built by the first minors()
        self._column_basis = None  # built by the first column_basis()

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, ring: PolyRing, rows):
        """Build from a list of lists of polynomials (or parseable strings)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged matrix rows")
            for c, p in enumerate(row):
                if isinstance(p, str):
                    p = ring.parse(p)
                elif not isinstance(p, Polynomial):
                    p = ring.const(p)
                if not p.is_zero():
                    entries[(r, c)] = p
        return cls(ring, nrows, ncols, entries)

    @classmethod
    def identity(cls, ring: PolyRing, n: int, scalar=None):
        p = ring.one() if scalar is None else scalar
        return cls(ring, n, n, {(i, i): p for i in range(n)})

    @classmethod
    def zero(cls, ring: PolyRing, nrows: int, ncols: int):
        return cls(ring, nrows, ncols, {})

    # -- basic access ---------------------------------------------------

    def get(self, r: int, c: int) -> Polynomial:
        return self.entries.get((r, c), self.ring.zero())

    def column_basis(self):
        """Untracked Groebner basis of the column span, built on the first
        call and kept, on the premise of ``minors``: the entries are set in
        ``__init__`` and never changed."""
        if self._column_basis is None:
            from .groebner import ModuleGB  # imports this module
            self._column_basis = ModuleGB(self.ring, self.nrows,
                                          self.columns_as_vectors())
        return self._column_basis

    def columns_as_vectors(self):
        """Each column as {(component, monomial): coeff} over free module rows."""
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), p in self.entries.items():
            for m, co in p.terms.items():
                cols[c][(r, m)] = co
        return cols

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"<PolyMatrix {self.nrows}x{self.ncols}, {len(self.entries)} entries>"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for k, p in other.entries.items():
            s = out.get(k)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return PolyMatrix(self.ring, self.nrows, self.ncols, out)

    def __neg__(self):
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          {k: -p for k, p in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p: Polynomial):
        if isinstance(p, (int,)) or not isinstance(p, Polynomial):
            p = self.ring.const(p)
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          {k: v * p for k, v in self.entries.items()})

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("composition shape mismatch")
        return PolyMatrix.sum_of_products(
            PolyMatrix.zero(self.ring, self.nrows, other.ncols),
            [(self, other)])

    @staticmethod
    def sum_of_products(base: "PolyMatrix", pairs) -> "PolyMatrix":
        """base + the sum of a @ b over ``pairs``, shaped as base.  Each
        entry sums the term products of every pair in one dict of plain
        coefficients; one pass at the end reduces them mod p (over QQ the
        sums are already Fractions), drops the zero terms and stores the
        nonzero entries as they stand, all in range by construction."""
        acc = {key: dict(p.terms) for key, p in base.entries.items()}
        for a, b in pairs:
            if (a.nrows, a.ncols, b.ncols) != (base.nrows, b.nrows,
                                               base.ncols):
                raise ValueError("composition shape mismatch")
            by_row = {}
            for (r, c), q in b.entries.items():
                by_row.setdefault(r, []).append((c, q.terms))
            for (r, k), p in a.entries.items():
                for c, q in by_row.get(k, ()):
                    terms = acc.setdefault((r, c), {})
                    for m1, c1 in p.terms.items():
                        for m2, c2 in q.items():
                            m = tuple(map(add, m1, m2))
                            terms[m] = terms.get(m, 0) + c1 * c2
        ring = base.ring
        char = ring.field.p
        out = PolyMatrix(ring, base.nrows, base.ncols)
        entries = out.entries
        for key, terms in acc.items():
            if char:
                terms = {m: r for m, v in terms.items() if (r := v % char)}
            else:
                terms = {m: v for m, v in terms.items() if v}
            if terms:
                entries[key] = Polynomial(ring, terms)
        return out

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.ncols, self.nrows,
                          {(c, r): p for (r, c), p in self.entries.items()})

    @staticmethod
    def block_diag(blocks):
        ring = blocks[0].ring
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        out = {}
        r0 = c0 = 0
        for b in blocks:
            for (r, c), p in b.entries.items():
                out[(r0 + r, c0 + c)] = p
            r0 += b.nrows
            c0 += b.ncols
        return PolyMatrix(ring, nrows, ncols, out)

    # -- evaluation and rank --------------------------------------------

    def evaluate(self, point):
        """Substitute scalars for the ring variables; dense scalar matrix."""
        if len(point) != self.ring.nvars:
            raise ValueError("point arity mismatch")
        fld = self.ring.field
        rows = [[fld.zero()] * self.ncols for _ in range(self.nrows)]
        for (r, c), p in self.entries.items():
            rows[r][c] = p.evaluate(point)
        return rows

    def rank_at(self, point) -> int:
        return scalar_rank(self.evaluate(point), self.ring.field)

    def generic_rank(self) -> int:
        """Rank over the fraction field.

        The rank is the sum of the ranks of the blocks of the support graph
        (``_components``), as for the minor table; each block is eliminated
        on its own by fraction-free Gaussian elimination, so no pivot
        multiplies entries of another block.
        """
        one = self.ring.one()
        return sum(_bareiss_rank({k: p for k, p in self.entries.items()
                                  if k[0] in rows}, one)
                   for rows, _ in self._components())

    # -- minors ----------------------------------------------------------

    def minors(self, t: int):
        """All structurally nonzero t x t minors, monic, deduplicated.

        Deterministic output order.  Connected components of the support
        graph are processed independently and recombined by minor products
        (a minor meeting several components factors block-diagonally, so
        I_t = sum over s_1 + ... + s_m = t of prod_k I_{s_k}(C_k)).

        The first call builds the table t -> minors for every t at once and
        caches it on the matrix; every later call reads from it.  Its
        premise is that the entries of a PolyMatrix are set in ``__init__``
        and never changed afterwards; every operation builds a new matrix.
        Inside a component, sizes grow upwards and stop at the first size
        without a nonzero minor: by Laplace expansion every larger minor of
        that component vanishes too.  The components are convolved once,
        with no cut at t.  Bucket t of the convolution only receives
        products from buckets below it, and deduplication keeps the first
        occurrence, so each bucket holds the same minors in the same order
        as a convolution cut at t would.  A table that takes more than
        ``MAX_MINOR_WORK`` is refused with a ``PipelineError``, and nothing
        is cached.
        """
        if t < 1:
            raise ValueError("minor size must be >= 1")
        if self._minor_table is None:
            self._minor_table = self._build_minor_table()
        return list(self._minor_table.get(t, ()))

    def _build_minor_table(self):
        work = 0

        def spend(units):
            nonlocal work
            work += units
            if work > MAX_MINOR_WORK:
                from .resolution import PipelineError  # imports this module
                raise PipelineError(
                    f"the minors of a {self.nrows}x{self.ncols} matrix take "
                    f"more than {MAX_MINOR_WORK} determinant expansions and "
                    f"term products (MAX_MINOR_WORK)")

        acc = {0: [self.ring.one()]}
        for rows, cols in self._components():
            sizes = _component_minor_table(self, rows, cols, spend)
            nxt = {}
            for got, polys in acc.items():
                # size-0 contribution from this component
                nxt.setdefault(got, []).extend(polys)
                for s, ms in sizes.items():
                    bucket = nxt.setdefault(got + s, [])
                    for p in polys:
                        for q in ms:
                            spend(len(p.terms) * len(q.terms))
                            bucket.append(p * q)
            # products of monic minors are monic and nonzero
            acc = {k: list(dict.fromkeys(v)) for k, v in nxt.items()}
        return acc

    def _components(self):
        """Connected components of the bipartite support graph."""
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for (r, c) in self.entries:
            for node in (("r", r), ("c", c)):
                parent.setdefault(node, node)
            union(("r", r), ("c", c))
        comps = {}
        for (r, c) in self.entries:
            root = find(("r", r))
            rows, cols = comps.setdefault(root, (set(), set()))
            rows.add(r)
            cols.add(c)
        return [comps[k] for k in sorted(comps, key=str)]


def _bareiss_rank(work, one) -> int:
    """Rank of the sparse matrix ``work`` ({(r, c): poly}) by fraction-free
    Gaussian elimination."""
    prev = one
    rank = 0
    live_rows = set(r for r, _ in work)
    live_cols = set(c for _, c in work)
    while work:
        (pr, pc) = min(work, key=lambda k: (len(work[k].terms), k))
        pivot = work[pr, pc]
        rank += 1
        live_rows.discard(pr)
        live_cols.discard(pc)
        col_entries = {r: work[r, pc] for r in live_rows if (r, pc) in work}
        row_entries = {c: work[pr, c] for c in live_cols if (pr, c) in work}
        nxt = {}
        for (r, c), a in work.items():
            if r == pr or c == pc:
                continue
            b = col_entries.get(r)
            d = row_entries.get(c)
            num = pivot * a
            if b is not None and d is not None:
                num = num - b * d
            if not num.is_zero():
                nxt[(r, c)] = num.exact_divide(prev)
        # fill-in where a was zero but b*d is not
        for r, b in col_entries.items():
            for c, d in row_entries.items():
                if (r, c) not in work:
                    num = -(b * d)
                    nxt[(r, c)] = num.exact_divide(prev)
        work = nxt
        prev = pivot
        live_rows = set(r for r, _ in work)
        live_cols = set(c for _, c in work)
    return rank


def least_unit(entries):
    """The least (row, column) of ``entries`` ({(r, c): poly}) whose entry
    is a nonzero constant, or None; 1 + x is not a unit."""
    return min((k for k, p in entries.items() if p.is_constant()),
               default=None)


def cancel_unit(entries, r, c, field):
    """Schur complement on the unit u = entries[r, c], in place: every
    entry (i, j) off row r and column c gains -e(i, c) e(r, j) / u, and
    then row r and column c go."""
    factor = field.neg(field.inv(entries[r, c].constant_term()))
    col = {i: p.scale(factor) for (i, j), p in entries.items()
           if j == c and i != r}
    row = {j: p for (i, j), p in entries.items() if i == r and j != c}
    for key in [k for k in entries if k[0] == r or k[1] == c]:
        del entries[key]
    for i, a in col.items():
        for j, b in row.items():
            s = entries.get((i, j))
            s = a * b if s is None else s + a * b
            if s.is_zero():
                del entries[i, j]
            else:
                entries[i, j] = s


def _dedupe_monic(polys):
    seen = set()
    out = []
    for p in polys:
        if p.is_zero():
            continue
        p = p.monic()
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _component_minor_table(mat: PolyMatrix, rows, cols, spend):
    """Nonzero minors of one connected component as size -> list, sizes
    ascending up to the first size with none.

    Size t + 1 grows from the nonzero t-minors alone.  Expanded along its
    last column c, a nonzero minor on rows R and columns C has a nonzero
    term e(r, c) * M(R - r, C - c).  So every candidate adds to a nonzero
    t-minor one column c after its columns and one row r with e(r, c) != 0.
    Each candidate is one Laplace sum over the stored t-minors, and only
    the last size is kept.  Each size is ordered by (columns, rows).
    ``spend(n)`` is told of every determinant expansion and of every n
    term products.
    """
    entries = mat.entries
    cols = sorted(cols)
    later = {c: cols[i + 1:] for i, c in enumerate(cols)}
    col_support = {c: [r for r in sorted(rows) if (r, c) in entries]
                   for c in cols}
    ring = mat.ring
    # (sorted rows, columns) -> nonzero minor, for the last size
    prev = {((r,), (c,)): p for (r, c), p in entries.items() if r in rows}
    table = {}
    t = 1
    while prev:
        table[t] = _dedupe_monic(
            prev[k] for k in sorted(prev, key=lambda k: (k[1], k[0])))
        grown = {}
        for R, C in prev:
            for c in later[C[-1]]:
                for r in col_support[c]:
                    if r in R:
                        continue
                    rset = tuple(sorted(R + (r,)))
                    if (rset, C + (c,)) in grown:
                        continue
                    spend(1)
                    # along c, the last of t + 1 columns: row i has sign
                    # (-1)^(i + t)
                    total = ring.zero()
                    for i, s in enumerate(rset):
                        p = entries.get((s, c))
                        sub = prev.get((rset[:i] + rset[i + 1:], C))
                        if p is None or sub is None:
                            continue
                        spend(len(p.terms) * len(sub.terms))
                        term = p * sub
                        total = total - term if (i + t) % 2 else total + term
                    grown[rset, C + (c,)] = total
        prev = {k: d for k, d in grown.items() if not d.is_zero()}
        t += 1
    return table


def scalar_rank(rows, field) -> int:
    """Rank of a dense scalar matrix by exact Gaussian elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = None
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = field.inv(m[pr][pc])
        for r in range(pr + 1, nr):
            if m[r][pc]:
                f = field.mul(m[r][pc], inv)
                for c in range(pc, nc):
                    m[r][c] = field.sub(m[r][c], field.mul(f, m[pr][c]))
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank
