"""Sparse matrices over a polynomial ring, entries only: the degrees live
on what holds the matrix (``FreeResolution.degrees``, ``basis_degrees``).

``echelon`` is the one Gaussian elimination over the field, read by the
rank at a point, and so by the generic rank of a fine matrix, the Tate
ranks of the point oracle and the finest grading (``homotopy._grading``).
``cancel_units`` is the one loop over unit entries (nonzero constants,
the least first), shared by ``resolution.split_unit_entries`` and
``twisted.minimalize``: each unit goes by one Schur complement
(``cancel_unit``), and the cokernel and its Fitting ideals stay the same.

The support graph of a matrix is walked once, by ``_blocks``: one
union-find pass that carries exponent offsets yields its connected
components, the blocks, in a fixed order, and whether each is fine: each
entry one term, and rows and columns with potentials r and c in Z^nvars
such that entry (i, j) has exponent c_j - r_i, every cycle checked.  The
determinantal kernel finds the nonzero minors only: inside a block the
nonzero minors of each size grow from those of the size below, one
Laplace expansion each (``_component_minor_table``), and the blocks are
convolved in that order, on which the work depends.  The minors of every
size are built together on the first request and cached on the matrix
(see ``PolyMatrix.minors``).
Every rank of a matrix P with every block fine is a rank at a 0/1 point.
At a point x whose nonzero coordinates are exactly Z, P(x) is
diag(x^-r) P(e_Z) diag(x^c), the potentials read on the coordinates of
Z and e_Z the point 1 on Z and 0 off it: the diagonal factors are units
on the torus of L_Z = {x : x_j = 0 for j not in Z}, so rank P(x) is
rank P(e_Z) there, and over the Laurent ring k[x^+-1] the rank over
k(x) is rank P(1, ..., 1).  So ``generic_rank`` of a fine matrix is
``rank_at`` (1, ..., 1), and the rank of a fine D on each stratum L_Z,
which decides its jump loci, is ``rank_at`` e_Z; the tests read the
plateaus off those ranks as their oracle (``tests/oracles.py``,
``crk_table``).  D of every example file is fine but for the sessions
``lin_n2``, ``cubes_lin``, ``nm_n3`` and ``nm_n3_qq``: D of a cokernel
is fine where the degrees of the ci generators in the finest grading W
(``homotopy._grading``) are linearly independent, and only those four
presentations tie them.
Every other matrix has its generic rank read off the Hilbert numerator
of the cokernel: the rank of a graded module is the value at t = 1 of
its numerator.  No polynomial matrix is eliminated fraction-free; the
tests keep that route as their oracle.
The rank at a point eliminates the values there as field scalars
(``echelon``), as the point oracle eliminates its complexes.

Module vectors ``{(row, monomial): coeff}``, the Groebner engine's format,
are the columns of a matrix (``columns_as_vectors``) and build one back
(``PolyMatrix.from_columns``).  The maps of a free resolution and its
higher homotopies stay module vectors; a matrix holds what is read as
one: a presentation, the differentials of ``complex`` input and D.
``@`` runs on the one sparse product of ``groebner``, which applies a map
given by its columns to a module vector (``add_image``) and reduces the
sum once (``reduced``).  Deduplication is a dict in order of first
occurrence, keyed by term set or polynomial.
"""

from __future__ import annotations

from .poly import Polynomial, PolyRing, product_terms
from .groebner import PipelineError, add_image, module_hilbert_data, reduced


# Most units of work, one per determinant expansion and one per pair of
# terms multiplied, that the minor table of one matrix may take (a few
# seconds and about 100 MB); a matrix whose table needs more is refused
# with a PipelineError before its memory runs out.  The largest table of
# the example sessions takes 31 units, of the benchmark inputs other than
# sq_n6_e2 855 (loci_a), of the scripts 20,354 (``realizability_demo.py``
# with its defaults), and the ladder's nm_n4_e2 214,100, each with its
# blocks in the order of ``_blocks``, on which the work depends.
MAX_MINOR_WORK = 500_000


class PolyMatrix:
    __slots__ = ("ring", "nrows", "ncols", "entries", "_minor_table")

    def __init__(self, ring: PolyRing, nrows: int, ncols: int, entries=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), p in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError("entry out of range")
                if not p.is_zero():
                    self.entries[(r, c)] = p
        self._minor_table = None  # t -> minors, built by the first minors()

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, ring: PolyRing, rows):
        """Build from a list of lists of polynomials."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix rows")
        return cls(ring, nrows, ncols, {(r, c): p
                                        for r, row in enumerate(rows)
                                        for c, p in enumerate(row)})

    @classmethod
    def from_columns(cls, ring: PolyRing, nrows: int, cols):
        """The matrix whose columns are the module vectors ``cols``, one
        column each, empty ones too: the inverse of ``columns_as_vectors``."""
        per_entry = {}
        for c, col in enumerate(cols):
            for (r, m), co in col.items():
                per_entry.setdefault((r, c), {})[m] = co
        return cls(ring, nrows, len(cols),
                   {k: Polynomial(ring, terms)
                    for k, terms in per_entry.items()})

    @classmethod
    def zero(cls, ring: PolyRing, nrows: int, ncols: int):
        return cls(ring, nrows, ncols, {})

    # -- basic access ---------------------------------------------------

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

    def __neg__(self):
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          {k: -p for k, p in self.entries.items()})

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Column by column, through ``add_image`` and ``reduced``."""
        if self.ncols != other.nrows:
            raise ValueError("composition shape mismatch")
        cols = self.columns_as_vectors()
        p = self.ring.field.p
        out = []
        for v in other.columns_as_vectors():
            acc = {}
            add_image(cols, v, acc)
            out.append(reduced(acc, p))
        return PolyMatrix.from_columns(self.ring, self.nrows, out)

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

    # -- rank -----------------------------------------------------------

    def rank_at(self, point) -> int:
        """Rank of the values at ``point``: the nonzero values, one sparse
        row per row, eliminated as field scalars by ``echelon``."""
        if len(point) != self.ring.nvars:
            raise ValueError("point arity mismatch")
        rows = {}
        for (r, c), p in self.entries.items():
            value = p.evaluate(point)
            if value:
                rows.setdefault(r, {})[c] = value
        return len(echelon(rows.values(), self.ring.field))

    def generic_rank(self) -> int:
        """Rank over the fraction field.  A matrix P whose blocks are all
        fine (``_blocks``) is diag(x^-r) P(1, ..., 1) diag(x^c) over the
        Laurent ring, so its rank is ``rank_at`` the point (1, ..., 1),
        where each entry is its one coefficient; every fine rank is a rank
        at a 0/1 point (module docstring).  Any other is nrows minus the
        rank of coker, which is the value at t = 1 of its Hilbert
        numerator, 0 when coker has dimension below nvars.  The Groebner
        order is degree-compatible, so coker and its initial module share
        their affine Hilbert function and this holds for inhomogeneous
        entries too."""
        if all(fine for _, _, fine in _blocks(self.entries)):
            return self.rank_at((1,) * self.ring.nvars)
        return self.nrows - sum(module_hilbert_data(self).values())

    # -- minors ----------------------------------------------------------

    def minors(self, t: int):
        """All structurally nonzero t x t minors, monic, deduplicated,
        for every integer t: the size-0 minor 1, ``[1]``, for t <= 0, as
        the determinantal convention I_t = (1) asks, and ``[]`` for t
        above the rank, where every t-minor vanishes.

        Deterministic output order.  The blocks C_k of the support graph,
        from ``_blocks`` and in its order, are processed independently and
        recombined by minor products (a minor meeting several blocks
        factors block-diagonally, so I_t = sum over s_1 + ... + s_m = t of
        prod_k I_{s_k}(C_k)).  Any order of the blocks gives the same
        minors, but their listing and the work depend on it.

        The first call builds the table t -> minors for every t at once and
        caches it on the matrix; every later call reads from it.  Its
        premise is that the entries of a PolyMatrix are set in ``__init__``
        and never changed afterwards; every operation builds a new matrix.
        Inside a block, sizes grow upwards and stop at the first size
        without a nonzero minor: by Laplace expansion every larger minor of
        that block vanishes too.  The blocks are convolved once,
        with no cut at t.  Bucket t of the convolution only receives
        products from buckets below it, and deduplication keeps the first
        occurrence, so each bucket holds the same minors in the same order
        as a convolution cut at t would.  A table that takes more than
        ``MAX_MINOR_WORK`` is refused with a ``PipelineError``, and nothing
        is cached.
        """
        if self._minor_table is None:
            self._minor_table = self._build_minor_table()
        return list(self._minor_table.get(max(t, 0), ()))

    def _build_minor_table(self):
        work = 0

        def spend(units):
            nonlocal work
            work += units
            if work > MAX_MINOR_WORK:
                raise PipelineError(
                    f"the minors of a {self.nrows}x{self.ncols} matrix take "
                    f"more than {MAX_MINOR_WORK} determinant expansions and "
                    f"term products (MAX_MINOR_WORK)")

        # size -> {term set: minor}, in order of first occurrence; a
        # product becomes a Polynomial only when its term set is new
        ring = self.ring
        one = ring.one()
        acc = {0: {frozenset(one.terms.items()): one}}
        for rows, cols, _ in _blocks(self.entries):
            sizes = _component_minor_table(self, rows, cols, spend)
            nxt = {}
            for got, polys in acc.items():
                # size-0 contribution from this block
                bucket = nxt.setdefault(got, {})
                for key, p in polys.items():
                    bucket.setdefault(key, p)
                for s, ms in sizes.items():
                    bucket = nxt.setdefault(got + s, {})
                    for p in polys.values():
                        for q in ms:
                            spend(len(p.terms) * len(q.terms))
                            # products of monic minors are monic and nonzero
                            terms = product_terms(ring.field, p.terms, q.terms)
                            key = frozenset(terms.items())
                            if key not in bucket:
                                bucket[key] = Polynomial(ring, terms)
            acc = nxt
        return {t: list(bucket.values()) for t, bucket in acc.items()}


def _blocks(entries):
    """The blocks of ``entries`` ({(r, c): entry}), the connected
    components of their bipartite support graph, as (rows, columns, fine).
    A block is fine when its entries are single terms and its rows and
    columns have potentials in Z^nvars with entry (r, c) of exponent
    column c - row r.  One union-find pass: each node keeps its potential
    less its parent's, and ``find`` hangs the whole path from the root,
    summing offsets on the way.  An entry that joins two blocks hangs the
    row's root under the column's root with the offset its exponent asks
    for, and a root that is not fine passes that on; an entry inside a
    block is checked against the potentials of its ends.  A multi-term
    entry or a disagreeing cycle makes its block not fine."""
    parent, offset, bad = {}, {}, set()

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        for node, up in zip(path[-2::-1], path[:0:-1]):
            offset[node] = tuple(a + b for a, b in
                                 zip(offset[node], offset[up]))
            parent[node] = x
        return x

    for (r, c), p in entries.items():
        row, col = ("r", r), ("c", c)
        m = next(iter(p.terms))
        for node in (row, col):
            parent.setdefault(node, node)
            offset.setdefault(node, (0,) * len(m))
        root, into = find(row), find(col)
        # potential(root) - potential(into) if entry (r, c) has exponent m
        gap = tuple(b - a - e for a, b, e in zip(offset[row], offset[col], m))
        if root != into:
            parent[root], offset[root] = into, gap
            if root in bad:
                bad.add(into)
        if len(p.terms) > 1 or (root == into and any(gap)):
            bad.add(into)
    blocks = {}
    for (r, c) in entries:
        rows, cols = blocks.setdefault(find(("r", r)), (set(), set()))
        rows.add(r)
        cols.add(c)
    # Sorted by str of the root, a row's root always hanging under a
    # column's: the minor table convolves the blocks in this order, and
    # its cost depends on it.  First-entry order gives the same minors
    # but took 423,368 units of work on the ladder's nm_n4_e2 against
    # 214,100, and no simple key (minors, terms, size, least row or
    # column) matched this order on loci_a, loci_b, nm_n4_e2 and
    # lin2_n5_e2.
    return [(*blocks[root], root not in bad)
            for root in sorted(blocks, key=str)]


def echelon(vectors, field) -> dict:
    """An echelon basis over ``field`` of the span of sparse vectors
    ({index: nonzero scalar}, ints mod p or Fractions), as {lead: pivot
    row}, by Gaussian elimination: each vector is reduced on its least
    index by the pivot stored there, until it vanishes or takes that
    index as a new pivot, scaled to lead with 1.  A pivot row has no index
    below its lead, and its length is the rank."""
    p = field.p
    pivots = {}
    for v in vectors:
        v = dict(v)
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = field.inv(v[lead])
                pivots[lead] = {k: field.mul(c, inv) for k, c in v.items()}
                break
            factor = v[lead]
            for k, c in pivot.items():
                c = v.get(k, 0) - factor * c
                if p:
                    c %= p
                if c:
                    v[k] = c
                else:
                    del v[k]
    return pivots


def cancel_units(entries, field):
    """Cancel the unit entries of ``entries`` ({(r, c): poly}) in place and
    yield each (r, c) once it is cancelled: the least (row, column) whose
    entry is a nonzero constant (1 + x is not a unit) goes by
    ``cancel_unit``, and the next is searched for only when the caller
    asks, so it may drop more of ``entries`` first."""
    while (unit := min((k for k, p in entries.items() if p.is_constant()),
                       default=None)) is not None:
        cancel_unit(entries, *unit, field)
        yield unit


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
    """The nonzero ``polys`` made monic, each kept at its first occurrence."""
    return list(dict.fromkeys(p.monic() for p in polys))


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
