"""Second routes the tests compare the program against.

The program computes each quantity one way.  The routes here compute
some of them another way, or check a property that the program holds by
construction, and no command runs them:

- the generic rank of a matrix by one fraction-free elimination, where
  the program eliminates the scalars of each block of a fine-graded
  matrix and reads it off the Hilbert numerator of the cokernel only for
  any other matrix;
- the blocks of a matrix by a plain union-find (``_components``) and the
  potentials of a fine-graded matrix by a search of its support graph
  (``fine_grading``), where the program finds both, and whether each
  block is fine, in one union-find pass that carries exponent offsets
  (``matrix._blocks``);
- the input's finest grading with W read off a dense reduced echelon
  form of the differences of the terms (``reduced_echelon_grading``),
  where ``homotopy._grading`` back-substitutes on the pivot rows of
  ``matrix.echelon``;
- the dimension and multiplicity of a graded module, read off its
  Hilbert numerator by dividing by (1 - t) (``dimension_and_multiplicity``,
  and ``hilbert_data`` for a cokernel): the oracle of ``betti_degree``,
  which reads the complexity and the Betti degree off the leading term of
  the Betti quasi-polynomial;
- the jump ideals by the exterior-power Fitting route, and the
  additivity of jump loci over direct sums;
- the jump ideals with a case for each index outside 1..r
  (``jump_locus_ideal_by_cases``), the ideal and dimension at every
  index of the rank's parity (``per_index``), the jump numbers by a walk
  of those indices (``jump_numbers_by_position``) and the plateaus read
  off them by the jump numbers (``plateaus_by_index``), where
  ``loci.jump_locus_ideal`` reads I_t(D) at every index and
  ``loci.jump_loci_report`` tests each index against the next one or
  the empty set, and ends a plateau, reading its dimension, where the
  test fails;
- the plateaus of a fine D off its rank at each 0/1 point e_Z
  (``crk_table``, ``plateaus_by_table``), where ``jump_loci_report``
  tests the radicals of its minor ideals;
- the Betti degree off the top-dimensional cycle of V^1, the crk at a
  point of each component of top dimension (``top_cycle_betti_degree``),
  where ``loci.betti_degree`` reads the leading term of the Betti
  quasi-polynomial;
- the comparison of two complexes' jump ideals at every index
  (``duality_check_by_index``), where ``loci.duality_check`` compares
  their plateaus;
- a system of higher homotopies that solves every identity
  (``every_block_system``), where the construction solves only the blocks
  X(M) reads and those they are solved from, and every defining identity
  of a system, from all splittings of each multi-index (the construction
  checks only that each lift it makes exists);
- the explicit dual X(M*), built from Hom_A(F, A) and the transposed
  homotopies, which ``twisted.s_dual`` must equal;
- D of X(M) summed entry by entry from matrix blocks
  (``twisted_from_matrices``), where the program reads it off the stored
  columns in one pass;
- X(M*) from M* = coker(d_L^T) itself, by the ordinary pipeline and
  with none of M's homotopies (``x_of_m_star``): the paper's duality
  theorem compares its invariants with those of X(M);
- the sum of two module vectors term by term (``vec_add``), where the
  program forms S-vectors with ``groebner.add_image``;
- a Groebner run that reduces the S-vector of every pair of one
  component (``EveryPairGB``), where the program queues one pair per
  minimal lcm and drops pairs by Gebauer-Moeller's chain test, tracked
  or not;
- the presentation of the dual module, with concentration decided from
  the syzygies of the transposed differentials rather than from
  Auslander-Buchsbaum as ``Pipeline.dual_is_module`` decides it;
- a differential of a resolution as a matrix (``d_matrix``) and the
  transpose of a matrix (``transpose``), where the program keeps the
  maps of F as module-vector columns and transposes those
  (``groebner.transposed``);
- properties of a resolution (a complex, minimal, its Euler
  characteristic), syzygy matrices, entrywise matrix sums (``matrix_sum``;
  the program forms none), shifted complexes, the normal form of
  a polynomial modulo an ideal and the canonical printing of a session;
- the quasi-polynomial tail of a Betti sequence by exact interpolation of
  its last numbers, where ``betti`` reads it off the Hilbert numerator of
  Ext in closed form (``loci.betti_numbers``), and that closed form by a
  recurrence over Fractions (``fraction_quasi_polynomial``), where the
  program sums integer numerators over one denominator
  (``loci._quasi_polynomial``);
- the argparse parser the command line was read with, which
  ``cli.parse_command_line`` must agree with;
- the polynomial printer with a branch for constants and one for terms
  with factors (``polynomial_str_by_cases``), where ``Polynomial``
  prints every term one way.
"""

from __future__ import annotations

import argparse
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from jumploci.groebner import (GBStats, Ideal, ModuleGB,
                               module_hilbert_data, vector_of)
from jumploci.homotopy import (HigherHomotopySystem, _multi_indices,
                               _solving_order, compute_higher_homotopies,
                               dualize_homotopies)
from jumploci.loci import (RouteDisagreement, betti_degree,
                           jump_locus_ideal)
from jumploci.matrix import PolyMatrix
from jumploci.poly import Polynomial
from jumploci.resolution import (FreeResolution, PipelineError, RingData,
                                 _resolve, dualize_over_a)
from jumploci.session import Session
from jumploci.twisted import (TwistedComplex, build_twisted_complex,
                              direct_sum, minimalize)


def matrix_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a + b, entry by entry with polynomial arithmetic; a zero sum is
    not stored.  ``matrix_sum(a, -b)`` is a - b."""
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols), "shape mismatch"
    entries = dict(a.entries)
    for key, p in b.entries.items():
        entries[key] = entries[key] + p if key in entries else p
    return PolyMatrix(a.ring, a.nrows, a.ncols, entries)


def d_matrix(res: FreeResolution, t: int) -> PolyMatrix:
    """d_t: F_t -> F_(t-1) of ``res`` as a matrix, from its columns."""
    return PolyMatrix.from_columns(res.ring_data.ring, len(res.degrees[t - 1]),
                                   res.differentials[t - 1])


def transpose(m: PolyMatrix) -> PolyMatrix:
    """The transpose of ``m``, entry by entry."""
    return PolyMatrix(m.ring, m.ncols, m.nrows,
                      {(c, r): p for (r, c), p in m.entries.items()})


def vec_add(fld, a, b, coeff=None, shift=None):
    """a + coeff * x^shift * b, in place on a copy of a."""
    out = dict(a)
    for (comp, m), c in b.items():
        if shift is not None:
            m = tuple(map(add, m, shift))
        if coeff is not None:
            c = fld.mul(c, coeff)
        s = fld.add(out.get((comp, m), fld.zero()), c)
        if s:
            out[(comp, m)] = s
        else:
            out.pop((comp, m), None)
    return out


class EveryPairGB(ModuleGB):
    """Reduces every pair of one component, tracked or not: no coprime or
    single-term skip, and no Gebauer-Moeller pruning."""

    def _add_element(self, v, lead, pairs):
        comp, mono = lead
        own = self.leads[comp]
        for j, (jm, _) in enumerate(own):
            lcm = tuple(max(a, b) for a, b in zip(jm, mono))
            self._queue(pairs, comp, j, len(own), lcm)
        own.append((mono, self._monic(v, lead)))
        GBStats.basis_elements += 1

    @staticmethod
    def _superseded(own, i, j, lcm):
        return False


def syzygy_matrix(mat: PolyMatrix) -> PolyMatrix:
    """A matrix K with mat @ K = 0 whose columns generate all syzygies of
    the columns of ``mat``, from one tracked run."""
    gb = ModuleGB(mat.ring, mat.nrows, mat.columns_as_vectors(), track=True)
    return PolyMatrix.from_columns(mat.ring, mat.ncols, gb.syzygies())


def exact_divide(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """The quotient p / divisor, when the division is exact."""
    fld = p.ring.field
    rem = dict(p.terms)
    out = {}
    lead = divisor.lead_monomial()
    inv = fld.inv(divisor.lead_coeff())
    while rem:
        m = max(rem, key=p.ring.mono_key)
        quot = tuple(a - b for a, b in zip(m, lead))
        if any(e < 0 for e in quot):
            raise ArithmeticError("division is not exact")
        qc = out[quot] = fld.mul(rem[m], inv)
        for mono, c in divisor.terms.items():
            mono = tuple(a + b for a, b in zip(quot, mono))
            c = fld.add(rem.get(mono, fld.zero()), fld.neg(fld.mul(qc, c)))
            if c:
                rem[mono] = c
            else:
                rem.pop(mono, None)
    return Polynomial(p.ring, out)


def dimension_and_multiplicity(num, nvars: int):
    """Dimension and multiplicity read off a Hilbert numerator.

    ``num`` (dict deg -> int, degrees of either sign) is the numerator of
    the Hilbert series num / prod_i (1 - t^{w_i}) of a graded module over
    a ring in ``nvars`` variables of positive weights.  Writing
    num = (1 - t)^s * Q with Q(1) != 0, the dimension is nvars - s and the
    multiplicity is Q(1).  A zero numerator (the zero module) gives
    ``(-1, None)``.
    """
    if not any(num.values()):
        return (-1, None)
    order = 0
    q = dict(num)
    while sum(q.values()) == 0:
        q = _divide_by_one_minus_t(q)
        order += 1
    return (nvars - order, sum(q.values()))


def _divide_by_one_minus_t(num):
    """Exact quotient num / (1 - t) for integer coefficient dicts, whose
    keys may lie below 0."""
    # (1 - t) * q = num  =>  q_d = num_d + q_{d-1}
    q = {}
    carry = 0
    for d in range(min(num), max(num) + 1):
        carry += num.get(d, 0)
        if carry:
            q[d] = carry
    if carry:
        raise ArithmeticError("division by (1 - t) is not exact")
    return q


def hilbert_data(mat: PolyMatrix, row_shifts=None, weights=None):
    """(dimension, multiplicity, numerator) of coker(mat): the numerator
    of ``module_hilbert_data`` and what ``dimension_and_multiplicity``
    reads off it in the ring's number of variables; the zero module gives
    ``(-1, None, {})``."""
    num = module_hilbert_data(mat, row_shifts, weights)
    return (*dimension_and_multiplicity(num, mat.ring.nvars), num)


def _components(entries):
    """Connected components of the bipartite support graph of ``entries``
    ({(r, c): entry}), as (rows, columns) pairs."""
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

    for (r, c) in entries:
        for node in (("r", r), ("c", c)):
            parent.setdefault(node, node)
        union(("r", r), ("c", c))
    comps = {}
    for (r, c) in entries:
        root = find(("r", r))
        rows, cols = comps.setdefault(root, (set(), set()))
        rows.add(r)
        cols.add(c)
    return [comps[k] for k in sorted(comps, key=str)]


def fine_grading(entries):
    """Potentials (rows, columns), each {index: exponent vector}, with
    entry (r, c) of ``entries`` ({(r, c): poly}) the one term of exponent
    columns[c] - rows[r], or None when there are none: some entry has two
    terms, or two paths between a row and a column of the support graph
    disagree.  One pass over the graph, component by component: its
    first node at 0, each step across an entry fixing the potential at
    its other end, and each entry that closes a cycle checked."""
    links = {}  # node -> [(the other end, exponent, +1 from a row)]
    for (r, c), p in entries.items():
        if len(p.terms) != 1:
            return None
        m = next(iter(p.terms))
        links.setdefault(("r", r), []).append((("c", c), m, 1))
        links.setdefault(("c", c), []).append((("r", r), m, -1))
    potential = {}
    for start in links:
        if start in potential:
            continue
        potential[start] = (0,) * len(links[start][0][1])
        todo = [start]
        while todo:
            node = todo.pop()
            here = potential[node]
            for other, m, sign in links[node]:
                there = tuple(a + sign * e for a, e in zip(here, m))
                if other not in potential:
                    potential[other] = there
                    todo.append(other)
                elif potential[other] != there:
                    return None
    rows, cols = {}, {}
    for (kind, i), v in potential.items():
        (rows if kind == "r" else cols)[i] = v
    return rows, cols



def reduced_echelon_grading(res: FreeResolution, rd: RingData):
    """``homotopy._grading`` by the route it replaced: each difference of
    two terms of one f_i or one column of d_1, as a dense row of
    Fractions, is reduced by the pivot rows and, when it survives, made a
    pivot row that clears its lead from the others, so the pivot rows are
    a reduced echelon form.  Row w of W, for each free column in
    ascending order, is 1 there, minus pivot row j's entry there at each
    pivot column j and 0 elsewhere, scaled by the lcm of its
    denominators; the degrees are read as ``_grading`` reads them."""
    n, rows = rd.n, len(res.degrees[0])

    def vector(r, m):
        return [*m, *(int(i == r) for i in range(rows))]

    pivots = {}
    for terms in [[vector(None, m) for m in f.terms] for f in rd.ci] + [
            [vector(r, m) for r, m in col] for col in res.differentials[0]]:
        first, *rest = terms
        for u in rest:
            v = [Fraction(a - b) for a, b in zip(u, first)]
            for j, row in pivots.items():
                if v[j]:
                    v = [a - v[j] * b for a, b in zip(v, row)]
            lead = next((j for j, a in enumerate(v) if a), None)
            if lead is None:
                continue
            v = [a / v[lead] for a in v]
            for j, row in pivots.items():
                if row[lead]:
                    pivots[j] = [a - row[lead] * b for a, b in zip(row, v)]
            pivots[lead] = v
    W = []
    for free in range(n + rows):
        if free not in pivots:
            w = [-pivots[j][free] if j in pivots else Fraction(j == free)
                 for j in range(n + rows)]
            scale = math.lcm(*(a.denominator for a in w))
            W.append([int(a * scale) for a in w])

    def degree(m):
        return tuple(sum(map(mul, w, m)) for w in W)

    fine = [[tuple(w[n + r] for w in W) for r in range(rows)]]
    for cols in res.differentials:
        degs = []
        for col in cols:
            got = {tuple(map(add, fine[-1][r], degree(m))) for r, m in col}
            if len(got) != 1:
                raise AssertionError("a map of F is not homogeneous in the "
                                     "grading of its input")
            degs += got
        fine.append(degs)
    return W, [degree(next(iter(f.terms))) for f in rd.ci], fine


def whole_matrix_rank(mat: PolyMatrix) -> int:
    """Rank over the fraction field by one fraction-free (Bareiss)
    elimination of the whole matrix: each step pivots on a shortest entry,
    and every new entry is divided exactly by the previous pivot."""
    zero = mat.ring.zero()
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
                num = pivot * work.get((r, c), zero)
                if r in col and c in row:
                    num = num - col[r] * row[c]
                if not num.is_zero():
                    nxt[(r, c)] = exact_divide(num, prev)
        work = nxt
        prev = pivot
    return rank


# -- twisted complexes ------------------------------------------------------


def normal_form(I: Ideal, p: Polynomial) -> Polynomial:
    """Remainder of ``p`` on division by the reduced basis of ``I``."""
    if p.is_zero():
        return p
    w = I._basis().normal_form(vector_of(p))
    return Polynomial(I.ring, {m: c for (_, m), c in w.items()})


def shift(X: TwistedComplex, s: int) -> TwistedComplex:
    """X with every cohomological degree raised by s."""
    return TwistedComplex(X.S, [(a + s, b) for (a, b) in X.basis_degrees],
                          X.D, X.chi_internal)


# -- jump loci --------------------------------------------------------------


def jump_locus_via_exterior_power(X: TwistedComplex, i: int) -> Ideal:
    """Fitting-ideal route: I_{r-i+1}(D + D) by minor convolution, which
    cuts out V^i as the minor route ``loci.jump_locus_ideal`` does."""
    X = minimalize(X)
    S = X.S
    if i == 0:
        return Ideal(S, [])
    r = X.rank
    if i > r:
        return Ideal(S, [S.one()])
    s = r - i + 1
    g = X.D.generic_rank()
    if s > 2 * g:
        return Ideal(S, [])

    def minors(u):
        return [S.one()] if u == 0 else X.D.minors(u)

    gens = []
    seen = set()
    for u in range(max(0, s - g), min(g, s) + 1):
        right = minors(s - u)
        for a in minors(u):
            for b in right:
                p = (a * b).monic()
                if p not in seen:
                    seen.add(p)
                    gens.append(p)
    return Ideal(S, gens).reduced()


def jump_locus_ideal_by_cases(X: TwistedComplex, i: int) -> Ideal:
    """I_t(D) with t = floor((r - i)/2) + 1, V^i = V(result), X minimal,
    with the zero ideal at i = 0, an error below it and the unit ideal
    above the rank: the route ``loci.jump_locus_ideal`` replaced."""
    S = X.S
    if i == 0:
        return Ideal(S, [])
    if i < 0:
        raise PipelineError("jump index must be nonnegative")
    r = X.rank
    if i > r:
        return Ideal(S, [S.one()])
    return Ideal(S, X.D.minors((r - i) // 2 + 1)).reduced()


def jump_numbers_by_position(per_index) -> list:
    """The indices i with V^i != V^{i+2}, off a report's ``per_index``
    list, by position: the loop ``JumpLociReport`` ran on first read."""
    out = []
    for pos, (i, I, _) in enumerate(per_index):
        # minor ideals are nested, I_t(D) <= I_{t-1}(D), so V^i contains
        # V^{i+2} by construction and only the other inclusion needs a
        # test; above the last index V^{i+2} is empty
        if pos + 1 < len(per_index):
            same = I.radical_contains_ideal(per_index[pos + 1][1])
        else:
            same = I.is_unit_ideal()
        if not same:
            out.append(i)
    return out


def per_index(X: TwistedComplex) -> list:
    """(i, the jump ideal of V^i, dim V^i) at each index 1 <= i <= r of
    the rank's parity: the list ``JumpLociReport`` held before it held
    plateaus, with a dimension read at every index."""
    out = []
    for i in range(2 - X.rank % 2, X.rank + 1, 2):
        I = jump_locus_ideal(X, i)
        out.append((i, I, I.dimension()))
    return out


def plateaus_by_index(X: TwistedComplex) -> list:
    """(i_from, i_to, generators, dim) of each plateau of the jump loci of
    X, and the final empty one, read off ``per_index`` by the jump numbers
    of ``jump_numbers_by_position``: the derivation the command line ran
    on the per-index list."""
    rows = per_index(X)
    by_index = {i: (I, d) for i, I, d in rows}
    entries, prev = [], 0
    for j in jump_numbers_by_position(rows):
        I, dim = by_index[j]
        entries.append((prev + 1, j, I.gens, dim))
        prev = j
    entries.append((prev + 1, prev + 1, [X.S.one()], -1))
    return entries


def crk_table(X: TwistedComplex) -> dict:
    """{Z: r - 2 rank D(e_Z)} for every Z, a tuple of chi indices in
    ascending order, e_Z the point that is 1 on Z and 0 off it.  A fine D
    at a point a whose nonzero coordinates are exactly Z is
    diag(a^-r) D(e_Z) diag(a^c) (``matrix``), so crk_Z is crk on the
    whole torus of L_Z, the chi's off Z at 0; for any other D it is crk at
    the 0/1 points only."""
    c = X.S.nvars
    return {Z: X.rank - 2 * X.D.rank_at([int(j in Z) for j in range(c)])
            for k in range(c + 1) for Z in itertools.combinations(range(c), k)}


def plateaus_by_table(X: TwistedComplex) -> list:
    """(i_from, i_to, dim) of each plateau of the jump loci of X, and the
    final empty one, off ``crk_table``, for a fine D: V^i is the union of
    the L_Z with crk_Z >= i, a set of Z closed under subsets, since crk
    only rises where a point specializes.  The tori are disjoint, so
    V^i = V^{i+2} exactly when the two sets agree, and dim V^i is the
    largest |Z| in its set.  The indices are those of
    ``loci.jump_loci_report``: 1 <= i <= r of the rank's parity."""
    table = crk_table(X)

    def strata(i):
        return {Z for Z, crk in table.items() if crk >= i}

    r = X.rank
    out, start = [], 1
    for i in range(2 - r % 2, r + 1, 2):
        here = strata(i)
        if here != strata(i + 2):
            out.append((start, i, max(map(len, here))))
            start = i + 1
    out.append((start, start, -1))
    return out


def point_on_hyperplane(form: Polynomial, rng) -> list:
    """A point of the hyperplane ``form`` = 0 with every coordinate
    nonzero, ``form`` a nonzero linear form: random nonzero coordinates
    (below p, or below 100 over QQ), the last variable of ``form`` solved
    for, drawn again until it is nonzero too."""
    fld = form.ring.field
    coeffs = {m.index(1): a for m, a in form.terms.items()}
    last = max(coeffs)
    while True:
        point = [fld.coerce(rng.randrange(1, fld.p or 100))
                 for _ in range(form.ring.nvars)]
        rest = fld.zero()
        for j, a in coeffs.items():
            if j != last:
                rest = fld.add(rest, fld.mul(a, point[j]))
        point[last] = fld.mul(fld.neg(rest), fld.inv(coeffs[last]))
        if point[last]:
            return point


def top_cycle_betti_degree(X: TwistedComplex, hyperplanes=None, rng=None):
    """The Betti degree off the top cycle of V^1: the sum, over the
    components Z of V^1 of dimension cx = dim V^1, of
    deg Z * crk_Z / 2^(c - cx + 1), crk_Z the crk at a general point of Z;
    None when cx is 0, as ``loci.betti_degree`` gives it.

    For a fine D the components are the L_Z of ``crk_table`` with
    |Z| = cx and crk_Z > 0, each of degree 1.  For any other D,
    ``hyperplanes`` names the components, linear forms of S whose zero
    sets, of dimension c - 1 = cx and degree 1, make up the top of V^1,
    and crk_Z is crk at a point of each (``point_on_hyperplane``) drawn
    from ``rng``."""
    c = X.S.nvars
    if hyperplanes is None:
        table = crk_table(X)
        cx = max((len(Z) for Z, crk in table.items() if crk > 0), default=0)
        crks = [crk for Z, crk in table.items() if len(Z) == cx and crk > 0]
    else:
        cx = c - 1
        crks = [X.rank - 2 * X.D.rank_at(point_on_hyperplane(form, rng))
                for form in hyperplanes]
    if not cx:
        return None
    return Fraction(sum(crks), 2 ** (c - cx + 1))


def duality_check_by_index(X: TwistedComplex, Y: TwistedComplex) -> bool:
    """``loci.duality_check`` on the reports of X and Y as it ran on their
    per-index lists: the jump ideals are compared at each index
    1 <= i <= the larger rank, an index of the other parity than a rank
    reading the ideal of i + 1 and an index above it the unit ideal, one
    comparison for each pair of minor sizes; RouteDisagreement at the
    first that differs, else whether the Betti degrees agree."""
    ideals = [{i: I for i, I, _ in per_index(Z)} for Z in (X, Y)]
    checked = set()
    for i in range(1, max(X.rank, Y.rank) + 1):
        # the jump ideal at i >= 1 depends only on
        # t = floor((rank - i)/2) + 1
        key = ((X.rank - i) // 2, (Y.rank - i) // 2)
        if key in checked:
            continue
        checked.add(key)
        I, J = (at.get(i + (Z.rank - i) % 2)
                for Z, at in zip((X, Y), ideals))
        if I is None or J is None:
            same = (J if I is None else I).is_unit_ideal()
        else:
            same = I.same_variety(J)
        if not same:
            raise RouteDisagreement(
                f"X and its explicit dual disagree at jump index {i}")
    return betti_degree(X)[1] == betti_degree(Y)[1]


def additivity_check(X: TwistedComplex, Y: TwistedComplex) -> bool:
    """V^l(X + Y) = union over i+j=l of V^i(X) int V^j(Y), up to radical:
    an intersection is cut out by the sum of the ideals, a union by their
    product."""
    Z = minimalize(direct_sum(X, Y))
    for l in range(1, Z.rank + 1):
        left = jump_locus_ideal(Z, l)
        rhs = None
        for i in range(0, l + 1):
            I, J = jump_locus_ideal(X, i), jump_locus_ideal(Y, l - i)
            term = Ideal(Z.S, I.gens + J.gens).reduced()
            rhs = term if rhs is None else Ideal(
                Z.S, [g * h for g in rhs.gens for h in term.gens]).reduced()
        if not left.same_variety(rhs):
            return False
    return True


# -- higher homotopies ------------------------------------------------------


def identity_matrix(ring, n: int, scalar=None) -> PolyMatrix:
    """The n x n matrix scalar * id, the identity when ``scalar`` is None."""
    p = ring.one() if scalar is None else scalar
    return PolyMatrix(ring, n, n, {(i, i): p for i in range(n)})


def _diff(res: FreeResolution, t: int):
    """d_t: F_t -> F_{t-1}, or None when out of range."""
    if 1 <= t <= res.length:
        return d_matrix(res, t)
    return None


def _block(sys: HigherHomotopySystem, J, t):
    """sigma_J on F_t as a matrix, from the columns the system stores;
    None is the zero block (zero blocks are not stored)."""
    cols = sys.sigma.get(tuple(J), {}).get(t)
    if cols is None:
        return None
    res = sys.resolution
    return PolyMatrix.from_columns(res.ring_data.ring,
                                   len(res.degrees[t + 2 * sum(J) - 1]), cols)


def _every_block_sigma(res, rd):
    """The every-block solve: {J: {t: sigma_J on F_t as a PolyMatrix}}
    for every identity inside F, zero blocks included.  It lifts every
    target, zero or not, one column at a time from a scan of all entries,
    through fresh bases built as the resolution builds its stages: graded
    tracked runs over the columns of d_t."""
    ring = rd.ring
    L = res.length
    ranks = [len(d) for d in res.degrees]
    bases = {}

    def lift_through(t, target):
        if t not in bases:
            dt = d_matrix(res, t)
            bases[t] = ModuleGB(ring, dt.nrows, dt.columns_as_vectors(),
                                True, res.degrees[t - 1])
        cols = []
        for j in range(target.ncols):
            v = {}  # minus column j: its lift c solves d_t c = column j
            for (r, c), p in target.entries.items():
                if c == j:
                    for m, co in p.terms.items():
                        v[(r, m)] = ring.field.neg(co)
            coeffs = bases[t].lift(v)
            assert coeffs is not None
            cols.append(coeffs)
        return PolyMatrix.from_columns(ring, ranks[t], cols)

    sigma = {}

    def solve_for(J, rhs):
        deg = 2 * sum(J) - 1
        blocks = {}
        for t in range(0, L - deg + 1):
            target = rhs(t)
            if t >= 1:
                target = matrix_sum(
                    target, -(blocks[t - 1] @ d_matrix(res, t)))
            blocks[t] = lift_through(t + deg, target)
        sigma[J] = blocks

    for i in range(rd.c):
        J = tuple(int(a == i) for a in range(rd.c))
        solve_for(J, lambda t, f=rd.ci[i]:
                  identity_matrix(ring, ranks[t], scalar=f))
    for total in range(2, L // 2 + 2):
        for J in _multi_indices(rd.c, total):
            def rhs(t, J=J):
                out = PolyMatrix.zero(ring, ranks[t + 2 * sum(J) - 2],
                                      ranks[t])
                for Jp, Jpp in _splittings(J):
                    a = sigma[Jp].get(t + 2 * sum(Jpp) - 1)
                    b = sigma[Jpp].get(t)
                    if a is not None and b is not None:
                        out = matrix_sum(out, -(a @ b))
                return out
            solve_for(J, rhs)
    return sigma


def every_block_system(res: FreeResolution,
                       rd: RingData) -> HigherHomotopySystem:
    """The full system of ``_every_block_sigma`` as the construction
    stores a system: the nonzero blocks as columns, and a (possibly empty)
    dict for every J."""
    return HigherHomotopySystem(
        res, {J: {t: m.columns_as_vectors() for t, m in blocks.items()
                  if not m.is_zero()}
              for J, blocks in _every_block_sigma(res, rd).items()})


def full_system(sys: HigherHomotopySystem,
                rd: RingData) -> HigherHomotopySystem:
    """The full system on the resolution of a constructed ``sys``
    (``every_block_system``), once it is asserted that ``sys`` has the
    same multi-indices, that each block it stores is the full system's
    block entry for entry, and that both give the same D.  The
    construction solves only the blocks X(M) reads and those they are
    solved from, so the identities and the explicit dual are checked on
    the full system."""
    res = sys.resolution
    full = every_block_system(res, rd)
    assert set(sys.sigma) == set(full.sigma)
    for J, blocks in sys.sigma.items():
        for t, cols in blocks.items():
            assert full.sigma[J].get(t) == cols, (J, t)
    assert build_twisted_complex(sys, rd).D.entries == \
        build_twisted_complex(full, rd).D.entries
    return full


def _splittings(J):
    """All (J', J'') with J' + J'' = J, both nonzero."""
    ranges = [range(a + 1) for a in J]
    for Jp in itertools.product(*ranges):
        if sum(Jp) == 0 or Jp == J:
            continue
        Jpp = tuple(a - b for a, b in zip(J, Jp))
        yield Jp, Jpp


def _identities(c, L):
    """(J, splittings of J, t) for every defining identity, in solving
    order, t upwards."""
    for total, Js in _solving_order(c, L):
        for J in Js:
            splits = list(_splittings(J))
            for t in range(0, L - 2 * total + 3):
                yield J, splits, t


def _residual(sys: HigherHomotopySystem, rd: RingData, J, splits, t):
    """The identity of J at degree t, as a map F_t -> F_{t + 2|J| - 2}:
    the sum over all ordered splittings J' + J'' = J of sigma_J' o sigma_J''
    (sigma_empty = d), minus f_i * id when J = e_i.  Absent blocks count as
    zero; the identity holds exactly when the residual is zero."""
    res = sys.resolution
    ranks = [len(d) for d in res.degrees]
    deg = 2 * sum(J) - 1
    pairs = [(_diff(res, t + deg), _block(sys, J, t)),
             (_block(sys, J, t - 1), _diff(res, t))]
    pairs += [(_block(sys, Jp, t + 2 * sum(Jpp) - 1), _block(sys, Jpp, t))
              for Jp, Jpp in splits]
    if deg == 1:
        total = identity_matrix(rd.ring, ranks[t],
                                scalar=-rd.ci[J.index(1)])
    else:
        total = PolyMatrix.zero(rd.ring, ranks[t + deg - 1], ranks[t])
    for a, b in pairs:
        if a is not None and b is not None:
            total = matrix_sum(total, a @ b)
    return total


def verify_system(sys: HigherHomotopySystem, rd: RingData):
    """Assert every defining identity exactly, formed from all splittings
    of J; raises AssertionError naming the first that fails.  The
    construction checks only the identities its walk visits."""
    for J, splits, t in _identities(rd.c, sys.resolution.length):
        if not _residual(sys, rd, J, splits, t).is_zero():
            raise AssertionError(
                f"homotopy identity fails for J={J} at degree {t}")


def dualize_and_verify(sys: HigherHomotopySystem, dual: FreeResolution,
                       rd: RingData) -> HigherHomotopySystem:
    """``dualize_homotopies``, then every identity of the dual system.  A
    transpose keeps every identity, so this checks the transport."""
    dual_sys = dualize_homotopies(sys, dual)
    verify_system(dual_sys, rd)
    return dual_sys


def explicit_dual(res: FreeResolution, sys: HigherHomotopySystem,
                  rd: RingData) -> TwistedComplex:
    """X(M*) built the explicit way: the twisted complex of Hom_A(F, A)
    with the transposed, verified homotopies."""
    return build_twisted_complex(
        dualize_and_verify(sys, dualize_over_a(res), rd), rd)


def twisted_from_matrices(res: FreeResolution, sigma: dict,
                          rd: RingData) -> TwistedComplex:
    """X(M) assembled entry by entry from matrix blocks, where
    ``twisted.build_twisted_complex`` reads D off the stored columns in one
    pass: ``sigma`` maps J to {t: sigma_J on F_t as a PolyMatrix}, and the
    constant term of each entry of d and of every sigma_J is added as a
    polynomial to the entry of D it lands on; minimalized as built."""
    S = rd.operator_ring()
    index = {}
    basis = []
    for t in range(res.length + 1):
        for a, deg in enumerate(res.degrees[t]):
            index[(t, a)] = len(basis)
            basis.append((t, deg))
    entries = {}

    def add_block(mat, t, m, chi_mono):
        # mat: F_t -> F_{t+m}; contributes columns at the duals of F_{t+m}
        for (b, a), p in mat.entries.items():
            c0 = p.constant_term()
            if not c0:
                continue
            key = (index[(t, a)], index[(t + m, b)])
            entries[key] = entries.get(key, S.zero()) + S.monomial(chi_mono,
                                                                    c0)

    for t in range(1, res.length + 1):
        add_block(d_matrix(res, t), t, -1, (0,) * S.nvars)
    for J, blocks in sigma.items():
        for t, mat in blocks.items():
            add_block(mat, t, 2 * sum(J) - 1, J)
    D = PolyMatrix(S, len(basis), len(basis), entries)
    return minimalize(TwistedComplex(S, basis, D, rd.ci_degrees))


# -- resolutions ------------------------------------------------------------


def x_of_m_star(pipe):
    """(F*, X(M*)) for a pipeline whose M has a dual module
    (``pipe.dual_is_module``): M* = coker(d_L^T), its rows in -deg F_L,
    resolved afresh (F*), then the higher homotopies and the twisted
    complex of the ordinary pipeline, which never read X(M)."""
    rd, res = pipe.rd, pipe.resolution
    L = res.length
    fresh = _resolve(rd, (), transpose(d_matrix(res, L)), None,
                     [-d for d in res.degrees[L]])
    return fresh, build_twisted_complex(compute_higher_homotopies(fresh, rd),
                                        rd)


def is_minimal(res: FreeResolution) -> bool:
    """No differential has an entry with a nonzero constant term."""
    return all(not p.constant_term()
               for t in range(1, res.length + 1)
               for p in d_matrix(res, t).entries.values())


def check_complex(res: FreeResolution) -> bool:
    """Consecutive differentials compose to zero."""
    return all((d_matrix(res, t) @ d_matrix(res, t + 1)).is_zero()
               for t in range(1, res.length))


def resolution_euler_numerator(res: FreeResolution):
    """Alternating sum of generator-degree monomials, as dict deg -> int."""
    out = {}
    for i, degs in enumerate(res.degrees):
        s = 1 if i % 2 == 0 else -1
        for d in degs:
            out[d] = out.get(d, 0) + s
            if not out[d]:
                del out[d]
    return out


def syzygy_concentration(res: FreeResolution) -> bool:
    """Hom_A(F, A) is exact at every spot below the last, checked with the
    syzygies of each transposed differential and membership in the image
    of the previous one."""
    ring = res.ring_data.ring
    for j in range(res.length):
        syz = syzygy_matrix(transpose(d_matrix(res, j + 1)))
        if j == 0:
            if syz.ncols != 0:
                return False
            continue
        down = transpose(d_matrix(res, j))
        gb = ModuleGB(ring, down.nrows, down.columns_as_vectors())
        if not all(gb.contains(col) for col in syz.columns_as_vectors()):
            return False
    return True


def dual_presentation(res: FreeResolution):
    """Presentation of the dual module M* = coker d_L^T and the degrees of
    its rows, -deg F_L, when Hom_A(F, A) is concentrated (by
    ``syzygy_concentration``) and F has length at least one, else None."""
    L = res.length
    if L < 1 or not syzygy_concentration(res):
        return None
    dual = dualize_over_a(res)
    return d_matrix(dual, 1), dual.degrees[0]


# -- sessions ---------------------------------------------------------------


def _fmt_matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(p) for p in row) + "]" for row in rows) + "]"


def _matrix_rows(mat: PolyMatrix):
    zero = mat.ring.zero()
    return [[mat.entries.get((i, j), zero) for j in range(mat.ncols)]
            for i in range(mat.nrows)]


def print_session(session: Session) -> str:
    """The canonical text of a session; parsing it gives the session
    back, so printing is idempotent through a parse."""
    rd = session.ring_data
    ring = rd.ring
    lines = []
    if ring.field.p == 0:
        lines.append("field QQ")
    else:
        lines.append(f"field GF({ring.field.p})")
    lines.append("ring " + ", ".join(ring.variables)
                 + " weights " + ", ".join(str(w) for w in ring.weights))
    lines.append("ci " + ", ".join(str(f) for f in rd.ci))
    mod = session.module
    if mod.kind == "coker":
        lines.append("module coker " + _fmt_matrix(mod.rows))
    else:
        parts = []
        for k, mat in enumerate(mod.differentials, start=1):
            parts.append(f"d{k} " + _fmt_matrix(_matrix_rows(mat)))
        lines.append("complex " + " ".join(parts))
        for i, blocks in enumerate(mod.actions, start=1):
            lines.append(f"action e{i} " + " ".join(
                _fmt_matrix(_matrix_rows(b)) for b in blocks))
    return "\n".join(lines) + "\n"


# -- quasi-polynomial tails by interpolation --------------------------------


class TruncationNeeded(Exception):
    """Raised when a truncated tail is too short to determine the answer."""


@dataclass
class QuasiPoly:
    """Period-2 quasi-polynomial: separate even and odd branch polynomials."""

    q_ev: tuple          # Fraction coefficients, ascending powers
    q_odd: tuple
    valid_from: int


def _interpolate(points):
    """Coefficients (ascending) of the poly through (x, y) pairs, exact."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            denom *= Fraction(xi - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for e, c in enumerate(basis):
                new[e] -= c * xj
                new[e + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for e, c in enumerate(basis):
            coeffs[e] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if coeffs == [Fraction(0)]:
        return ()
    return tuple(coeffs)


def _fit_branch(points):
    """Least-degree polynomial fitting a stable tail of the points, whose
    abscissae are equally spaced.

    The last d + 3 points lie on one polynomial of degree <= d exactly when
    the last two (d + 1)-th differences vanish, and the fit holds from
    where the trailing run of zero (d + 1)-th differences starts.  Returns
    (coeffs, valid_from); raises TruncationNeeded when no degree is
    confirmed by at least two extra points.
    """
    if not points:
        raise TruncationNeeded("empty tail")
    diffs = [y for _, y in points]
    for d in range(len(points) - 2):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if diffs[-1] == diffs[-2] == 0:
            start = len(diffs)
            while start and diffs[start - 1] == 0:
                start -= 1
            return _interpolate(points[-(d + 1):]), points[start][0]
    raise TruncationNeeded("tail is not yet quasi-polynomial")


def fraction_quasi_polynomial(h, c: int):
    """(P_0, P_1) of ``loci._quasi_polynomial``, the polynomial in i on
    each parity e of sum_{j = e mod 2} h_j C((i - j)/2 + c - 1, c - 1),
    built one factor (i - j + 2k)/(2k) at a time over Fractions."""
    out = []
    for e in (0, 1):
        poly = [Fraction(0)] * c
        for j, v in h.items():
            if j % 2 != e:
                continue
            term = [Fraction(v)]
            for k in range(1, c):
                term = [(a * (2 * k - j) + b) / (2 * k)
                        for a, b in zip(term + [0], [0] + term)]
            poly = list(map(add, poly, term))
        while poly and not poly[-1]:
            poly.pop()
        out.append(tuple(poly))
    return out


def fit_quasi_polynomial(betti: dict, window: int) -> QuasiPoly:
    """Fit the even/odd tails of a Betti sequence {i: beta_i} by exact
    interpolation; its indices are consecutive, as ``betti_numbers``
    gives them."""
    idx = sorted(betti)
    if len(idx) < window:
        raise TruncationNeeded("window exceeds available Betti numbers")
    tail = idx[-window:]
    ev = [(i, betti[i]) for i in tail if i % 2 == 0]
    od = [(i, betti[i]) for i in tail if i % 2 == 1]
    q_ev, v_ev = _fit_branch(ev)
    q_odd, v_odd = _fit_branch(od)
    deg_ev = len(q_ev) - 1 if q_ev else -1
    deg_odd = len(q_odd) - 1 if q_odd else -1
    if (q_ev or q_odd) and (deg_ev != deg_odd or
                            (q_ev and q_odd and q_ev[-1] != q_odd[-1])):
        raise TruncationNeeded("even and odd branches disagree in degree")
    return QuasiPoly(q_ev, q_odd, max(v_ev, v_odd))


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Cohomological jump loci of modules over "
                    "complete-intersection quotients.")
    parser.add_argument("command",
                        choices=["compute", "betti", "dual", "realize",
                                 "crk", "oracle"])
    parser.add_argument("--input", help="session file")
    parser.add_argument("--n", type=int, default=20,
                        help="last Betti number to compute (betti)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--output", default=None)
    parser.add_argument("--point", default=None,
                        help="comma-separated coordinates (crk)")
    parser.add_argument("--points", type=int, default=20,
                        help="number of sample points (oracle)")
    parser.add_argument("--chain", default=None,
                        help="chain file (realize)")
    # a malformed command line is an input error: one ``error:`` line and
    # exit 1, with no usage block
    parser.error = lambda message: parser.exit(1, f"error: {message}\n")
    return parser


def polynomial_str_by_cases(p: Polynomial) -> str:
    """``str(p)`` as ``Polynomial`` printed it with a branch for a
    constant term and one for a term with factors."""
    if not p.terms:
        return "0"
    names = p.ring.variables
    parts = []
    for m in sorted(p.terms, key=p.ring.mono_key, reverse=True):
        c = p.terms[m]
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c) if not p.ring.field.p else c)
        else:
            cc = c
            mag = abs(cc) if not p.ring.field.p else cc
            if mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
        neg = (not p.ring.field.p) and c < 0
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
