"""Groebner bases for submodules of free modules, with syzygies and lifts.

Vectors in a free module of rank r are sparse dicts mapping ``(component,
exponent_tuple)`` to a nonzero field scalar.  The module term order is
term-over-position: terms are compared first by the ring's weighted grevlex
key on the monomial, then by preferring smaller component index.

Division (``ModuleGB._reduce_full``) never scans.  A basis indexes its
leads by component, in basis order, so a term looks for its reducer only
among the leads of its own component and takes the first that divides
it: the reducer a scan of the whole basis would pick.  The terms wait in
a heap keyed by the grevlex keys that the ring caches per monomial, and
the division returns the lead of its remainder, the first term it moved
there, so no caller rescans the remainder for it.

Syzygies and lifting are computed by the annihilator-column device: each
input column is augmented with a unit vector in a shadow block of
components, the shadow block ordered strictly below every real term.  Any
element whose real part reduces to zero then carries, in its shadow block,
a syzygy of the input columns; reducing an augmented inclusion ``v + 0``
to zero real part yields the coefficients expressing ``v`` in the columns.
For completeness of the syzygy generators, tracked runs process every
S-pair and apply no pair-discarding criteria.  Untracked runs skip the
pairs whose S-vector is known to reduce to zero: in rank one a pair with
coprime leads (Buchberger's first criterion), and in any rank a pair of
two single-term vectors, whose S-vector is identically zero.  So a
monomial input processes no pair at all.

A graded run, given the degrees of the free generators, keys its pairs by
module degree and settles the columns one degree at a time, keeping only
minimal generators (see ``ModuleGB``); each stage of a resolution, over A
or over B, is one such run.

Krull dimensions are read off the leading monomials alone: dim F/U =
dim F/in(U), the largest dimension of S/J_r over the components r of
in(U) = sum J_r e_r, and dim S/J is the size of the largest set of
variables containing the support of no minimal generator of J
(Kredel-Weispfenning, J. Symb. Comp. 6, 1988).  Hilbert numerators, which
``module_hilbert_data`` needs for the multiplicity and the Betti numbers,
come from Bigatti's pivot recursion (J. Pure Appl. Algebra 119, 1997).
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import add, le, sub

from .poly import Polynomial, PolyRing
from .matrix import PolyMatrix


class GBStats:
    """Cumulative engine counters, reported when verbose mode is on."""

    pairs_processed = 0
    zero_reductions = 0
    basis_elements = 0

    @classmethod
    def snapshot(cls):
        return {"pairs_processed": cls.pairs_processed,
                "zero_reductions": cls.zero_reductions,
                "basis_elements": cls.basis_elements}

    @classmethod
    def reset(cls):
        cls.pairs_processed = 0
        cls.zero_reductions = 0
        cls.basis_elements = 0


def _vec_add(fld, a, b, coeff=None, shift=None):
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


def _vec_scale(fld, a, c):
    return {k: fld.mul(v, c) for k, v in a.items()}


class ModuleGB:
    """Groebner basis of the column span of a list of module vectors.

    ``track=True`` enables the shadow block, making :meth:`syzygies` and
    :meth:`lift` available at the cost of processing all S-pairs.

    Given ``row_degrees``, the degrees of the free generators, the run is
    graded and keeps only minimal generators of the columns plus
    ``modulo``.  It settles one module degree d at a time: every pair of
    degree <= d is processed, the ``modulo`` vectors of degree d are
    added, and the degree-d columns are walked from the last to the
    first.  A column whose reduction has a nonzero real part is added to
    the basis; one that reduces to zero is dropped and gets no shadow
    coordinate.  The basis is then a Groebner basis through degree d, so
    a column is kept exactly when it lies outside the span of the kept
    columns of lower degree, the later columns of its degree and
    ``modulo``.  ``kept`` lists the positions of the kept columns in
    ascending (degree, position) order, and syzygies and lifts are given
    in those coordinates; the ``modulo`` vectors have none.  A tracked
    graded run then processes the remaining pairs, but an untracked one
    stops once its top column degree is settled: its basis is a Groebner
    basis through that degree only.
    """

    def __init__(self, ring: PolyRing, rank: int, columns, track: bool = False,
                 row_degrees=None, modulo=()):
        self.ring = ring
        self.rank = rank
        self.ncols = len(columns)
        self.track = track
        self.row_degrees = row_degrees
        self._syzygies = []
        self._set_basis([])
        if row_degrees is not None:
            self.kept = self._run_by_degree(columns, modulo)
            return
        self.kept = range(self.ncols)  # an ungraded run keeps every column
        seeded = []
        for i, col in enumerate(columns):
            v = dict(col)
            if track:
                v[(rank + i, (0,) * ring.nvars)] = ring.field.one()
            if any(comp < rank for (comp, _) in v):
                seeded.append(v)
            elif track:
                # zero column: its syzygy is a unit vector
                self._syzygies.append(v)
        self._run_buchberger(seeded)
        if not track:
            self._interreduce()

    @classmethod
    def of_basis(cls, ring: PolyRing, rank: int, basis):
        """An untracked basis for division only, from (monic vector, lead)
        pairs that already form a Groebner basis; no run is made."""
        gb = cls.__new__(cls)
        gb.ring, gb.rank, gb.track = ring, rank, False
        gb._set_basis(basis)
        return gb

    # -- basis and lead index ----------------------------------------------

    def _set_basis(self, basis):
        """Replace the basis, and index its leads: ``_leads[r]`` lists the
        (lead monomial, vector) of the elements with lead in component r,
        in basis order."""
        self.basis = []
        self._leads = [[] for _ in range(self.rank)]
        for v, lead in basis:
            self._append(v, lead)

    def _append(self, v, lead):
        self.basis.append((v, lead))
        self._leads[lead[0]].append((lead[1], v))

    # -- term order ------------------------------------------------------

    def _term_key(self, term):
        comp, mono = term
        return (self.ring.mono_key(mono), -comp)

    # -- division --------------------------------------------------------

    def _reduce_full(self, v):
        """Full normal form of the real part, and its lead term (None when
        the real part reduces to zero); shadow terms ride along.

        The real terms wait in a heap ordered by ``PolyRing.mono_key_desc``
        (largest term first, then smallest component, as ``_term_key``),
        whose keys the ring caches per monomial.  A reduction step pushes
        only the terms it creates, and a popped term that has since
        cancelled is skipped, so each step reduces the largest live term,
        with no rescan of the vector.  The reducer of a term is the first
        divisor of its monomial in the lead index of its own component,
        that is, the first in basis order.  A term with no reducer moves
        to the remainder, and no later step creates a term above it, so
        the first term moved is the lead of the remainder.
        """
        fld = self.ring.field
        rank = self.rank
        leads = self._leads
        desc = self.ring.mono_key_desc
        v = dict(v)
        heap = [(desc(m), comp, m) for comp, m in v if comp < rank]
        heapq.heapify(heap)
        remainder = {}
        lead = None
        while heap:
            _, comp, mono = heapq.heappop(heap)
            lt = (comp, mono)
            lc = v.get(lt)
            if lc is None:
                continue
            for gm, g in leads[comp]:
                if all(map(le, gm, mono)):
                    break
            else:
                remainder[lt] = v.pop(lt)
                if lead is None:
                    lead = lt
                continue
            shift = tuple(map(sub, mono, gm))
            coeff = fld.neg(lc)  # basis elements are monic
            for (gc, m), c in g.items():
                m = tuple(map(add, m, shift))
                term = (gc, m)
                c = fld.mul(c, coeff)
                old = v.get(term)
                if old is None:
                    v[term] = c
                    if gc < rank:
                        heapq.heappush(heap, (desc(m), gc, m))
                    continue
                c = fld.add(old, c)
                if c:
                    v[term] = c
                else:
                    del v[term]
        # remainder real terms plus surviving shadow terms
        remainder.update(v)
        return remainder, lead

    def _monic(self, v, lead):
        c = v[lead]
        if c == self.ring.field.one():
            return v
        return _vec_scale(self.ring.field, v, self.ring.field.inv(c))

    # -- Buchberger ------------------------------------------------------

    def _add_element(self, v, lead, pairs):
        idx = len(self.basis)
        v = self._monic(v, lead)
        self._append(v, lead)
        GBStats.basis_elements += 1
        single = not self.track and len(v) == 1
        for j, (g, jlead) in enumerate(self.basis[:-1]):
            if jlead[0] != lead[0]:
                continue
            if single and len(g) == 1:
                continue  # two terms in one component: the S-vector is zero
            lcm = tuple(map(max, jlead[1], lead[1]))
            if (not self.track and self.rank == 1
                    and not any(map(min, jlead[1], lead[1]))):
                continue  # coprime leads reduce to zero (rank-one only)
            key = self.ring.mono_key(lcm)
            if self.row_degrees is not None:
                key = (key[0] + self.row_degrees[lead[0]], key)
            heapq.heappush(pairs, (key, j, idx, lcm))

    def _run_buchberger(self, seeded):
        pairs = []
        for v in seeded:
            if self._take(*self._reduce_full(v), pairs):
                return
        while pairs:
            if self._next_pair(pairs):
                return

    def _next_pair(self, pairs) -> bool:
        """Reduce the S-vector of the least queued pair and take it."""
        fld = self.ring.field
        _, i, j, lcm = heapq.heappop(pairs)
        GBStats.pairs_processed += 1
        (gi, li), (gj, lj) = self.basis[i], self.basis[j]
        si = tuple(map(sub, lcm, li[1]))
        sj = tuple(map(sub, lcm, lj[1]))
        s = _vec_add(fld, {}, gi, fld.one(), si)
        s = _vec_add(fld, s, gj, fld.neg(fld.one()), sj)
        return self._take(*self._reduce_full(s), pairs)

    def _run_by_degree(self, columns, modulo):
        """The graded run of the class docstring; returns ``kept``.

        Pairs are keyed by module degree, so the pairs of degree <= d are
        the least queued ones.  An element added at degree d forms no
        pair of degree d: its lead is divisible by no earlier lead, and
        no later lead of degree d divides it.
        """
        ring = self.ring
        groups = {}
        for v in modulo:
            groups.setdefault(self._degree(v), ([], []))[0].append(v)
        for j, col in enumerate(columns):
            if col:
                groups.setdefault(self._degree(col), ([], []))[1].append(j)
        top = max((d for d, (_, cols) in groups.items() if cols), default=None)
        if top is None:
            return []
        pairs = []
        kept = []
        for d in sorted(groups):
            if d > top and not self.track:
                break
            while pairs and pairs[0][0][0] <= d:
                self._next_pair(pairs)
            fixed, group = groups[d]
            for v in fixed:
                self._take(*self._reduce_full(v), pairs)
            kept_d = []
            for j in reversed(group):
                v = dict(columns[j])
                if self.track:
                    v[(self.rank + j, (0,) * ring.nvars)] = ring.field.one()
                w, lead = self._reduce_full(v)
                if lead is not None:
                    self._add_element(w, lead, pairs)
                    kept_d.append(j)
            kept.extend(reversed(kept_d))
        while self.track and pairs:
            self._next_pair(pairs)
        return kept

    def _degree(self, v) -> int:
        """Module degree of a homogeneous vector, read off one term."""
        comp, mono = next(iter(v))
        return self.ring.wdeg(mono) + self.row_degrees[comp]

    def _take(self, w, lead, pairs) -> bool:
        """Add a reduced element with real lead ``lead`` to the basis, or
        record it as zero when ``lead`` is None.

        Returns True when the run can stop: an untracked rank-one run has
        met a constant, so the ideal is the unit ideal, and interreduction
        leaves the reduced basis ``[1]`` whatever the remaining pairs
        would add.
        """
        if lead is None:
            self._record_zero(w)
            return False
        self._add_element(w, lead, pairs)
        return not (self.track or self.rank != 1 or any(lead[1]))

    def _record_zero(self, v):
        GBStats.zero_reductions += 1
        if self.track:
            shadow = {k: c for k, c in v.items() if k[0] >= self.rank}
            if shadow:
                self._syzygies.append(shadow)

    def _interreduce(self):
        """Drop the elements whose lead another lead of their component
        divides (of equal leads, all but the first), then tail-reduce, in
        ascending lead order, for the unique reduced basis."""
        keep = []
        for comp, leads in enumerate(self._leads):
            for i, (mono, g) in enumerate(leads):
                if not any(all(map(le, m2, mono)) and (j < i or m2 != mono)
                           for j, (m2, _) in enumerate(leads) if j != i):
                    keep.append((g, (comp, mono)))
        keep.sort(key=lambda t: self._term_key(t[1]))
        self._set_basis([])
        for g, lead in keep:
            tail = {k: c for k, c in g.items() if k != lead}
            red, _ = self._reduce_full(tail)
            red[lead] = g[lead]
            self._append(red, lead)
        self._set_basis(self.basis[::-1])

    # -- public API ------------------------------------------------------

    def normal_form(self, v):
        """Remainder of ``v`` on division by the basis (real components)."""
        w, _ = self._reduce_full(
            {k: c for k, c in v.items() if k[0] < self.rank})
        return {k: c for k, c in w.items() if k[0] < self.rank}

    def contains(self, v) -> bool:
        return not self.normal_form(v)

    def dimension(self) -> int:
        """Krull dimension of the cokernel F/U, from the leading monomials.

        It is the largest n - tau_r over the components r, where tau_r is
        the size of a smallest set of variables meeting the support of
        every lead in component r; a component with no lead counts n, and
        one with a constant lead counts nothing.  The zero module gives -1.
        Tracked and untracked bases both serve: their leads generate
        in(U).
        """
        n = self.ring.nvars
        supports = [set() for _ in range(self.rank)]
        for _, (comp, mono) in self.basis:
            supports[comp].add(sum(1 << i for i, e in enumerate(mono) if e))
        return max((n - _min_transversal(s) for s in supports
                    if 0 not in s), default=-1)

    def lift(self, v):
        """Coefficients c_i with ``v + sum c_i * column_i = 0``, or None
        when ``v`` is outside the span of the columns.

        Returns the nonzero c_i only, as polynomials keyed by the position
        of column i in ``kept``: the shadow terms of the normal form of
        ``v``, read as they stand.
        """
        if not self.track:
            raise ValueError("lifting requires a tracked basis")
        rank = self.rank
        w, lead = self._reduce_full(
            {k: c for k, c in v.items() if k[0] < rank})
        if lead is not None:
            return None
        per = {}
        for (comp, m), c in w.items():
            per.setdefault(comp - rank, {})[m] = c
        at = self._position
        return {at[j]: Polynomial(self.ring, terms)
                for j, terms in per.items()}

    @cached_property
    def _position(self):
        """Input column index -> its position in ``kept``."""
        return {j: p for p, j in enumerate(self.kept)}

    def syzygies(self):
        """Generators of the syzygy module of the input columns.

        Each syzygy is a list of polynomials, one per kept column.
        """
        if not self.track:
            raise ValueError("syzygies require a tracked basis")
        return [self._shadow_to_coeffs(s) for s in self._syzygies]

    def _shadow_to_coeffs(self, v):
        per = [dict() for _ in range(self.ncols)]
        for (comp, m), c in v.items():
            per[comp - self.rank][m] = c
        return [Polynomial(self.ring, per[j]) for j in self.kept]


# -- convenience builders -----------------------------------------------


def vector_of(polys, ring: PolyRing):
    """Module vector from a list of polynomials (one per component)."""
    out = {}
    for comp, p in enumerate(polys):
        for m, c in p.terms.items():
            out[(comp, m)] = c
    return out


def coeffs_to_matrix(ring: PolyRing, columns, nrows: int) -> PolyMatrix:
    """Matrix with one column per mapping row -> polynomial (a ``lift``
    result, or ``dict(enumerate(s))`` of a syzygy s); zeros are skipped."""
    entries = {(r, c): p for c, col in enumerate(columns)
               for r, p in col.items() if not p.is_zero()}
    return PolyMatrix(ring, nrows, len(columns), entries)


class Ideal:
    """Homogeneous or inhomogeneous ideal with a cached Groebner basis."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = None

    def _basis(self) -> ModuleGB:
        if self._gb is None:
            self._gb = ModuleGB(self.ring, 1,
                                [vector_of([g], self.ring) for g in self.gens])
        return self._gb

    def groebner_generators(self):
        out = []
        for v, _ in self._basis().basis:
            terms = {m: c for (_, m), c in v.items()}
            out.append(Polynomial(self.ring, terms))
        return out

    def reduced(self) -> "Ideal":
        """Same ideal, regenerated by its reduced Groebner basis."""
        out = Ideal(self.ring, self.groebner_generators())
        out._gb = self._basis()  # the reduced basis is unique
        return out

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        return self._basis().contains(vector_of([p], self.ring))

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.is_zero():
            return p
        w = self._basis().normal_form(vector_of([p], self.ring))
        return Polynomial(self.ring, {m: c for (_, m), c in w.items()})

    def in_every_component(self, rank: int) -> ModuleGB:
        """Basis of I e_1 + ... + I e_rank, for division: the ideal's basis
        placed in every component is already a Groebner basis of it."""
        return ModuleGB.of_basis(self.ring, rank, [
            ({(j, m): c for (_, m), c in g.items()}, (j, lead[1]))
            for j in range(rank) for g, lead in self._basis().basis])

    def is_unit_ideal(self) -> bool:
        return self.contains(self.ring.one())

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def radical_contains(self, p: Polynomial) -> bool:
        """Membership of ``p`` in the radical of the ideal, decided in stages.

        The first three stages work on the ideal's cached Groebner basis:

        1. ``p`` lies in the ideal: True.
        2. The basis is monomial, so the ideal is: its radical is generated
           by the squarefree parts of the basis monomials, and ``p`` lies in
           that monomial ideal exactly when each of its terms does.  This
           stage decides both ways.
        3. One of ``p^2, p^4, p^8`` lies in the ideal: True.  This is a
           certificate only; failing it proves nothing.
        4. Otherwise the Rabinowitsch trick decides: ``p`` is in the radical
           exactly when the ideal and ``1 - y*p`` generate the unit ideal
           of the ring with one more variable ``y``.
        """
        if self.contains(p):
            return True
        roots = self._squarefree_roots
        if roots is not None:
            return all(any(all(map(le, r, m)) for r in roots)
                       for m in p.terms)
        q = p
        for _ in range(3):
            q = q * q
            if self.contains(q):
                return True
        aux = self.ring.extend(_fresh_name(self.ring))
        var_map = list(range(self.ring.nvars))
        gens = [g.map_ring(aux, var_map) for g in self.gens]
        y = aux.gen(aux.nvars - 1)
        gens.append(aux.one() - y * p.map_ring(aux, var_map))
        return Ideal(aux, gens).is_unit_ideal()

    @cached_property
    def _squarefree_roots(self):
        """The squarefree parts of the basis monomials, which generate the
        radical, or None when the basis is not monomial."""
        basis = self._basis().basis
        if all(len(v) == 1 for v, _ in basis):
            return [tuple(min(e, 1) for e in lead[1]) for _, lead in basis]
        return None

    def radical_contains_ideal(self, other: "Ideal") -> bool:
        return all(self.radical_contains(g) for g in other.gens)

    def same_variety(self, other: "Ideal") -> bool:
        # equal reduced bases mean equal ideals
        if self._basis().basis == other._basis().basis:
            return True
        return (self.radical_contains_ideal(other)
                and other.radical_contains_ideal(self))

    # -- Hilbert data ---------------------------------------------------

    def dimension(self) -> int:
        """Krull dimension of ring/ideal (-1 for the unit ideal), read off
        the leading monomials of the basis (``ModuleGB.dimension``)."""
        return self._basis().dimension()


def module_hilbert_data(mat: PolyMatrix, row_shifts=None, weights=None):
    """Hilbert data of coker(mat) as a graded module over mat.ring.

    ``row_shifts`` are integer degree shifts of the target generators in
    the chosen regrading; ``weights`` regrade the variables (defaults to
    the ring weights).  Returns ``(dimension, multiplicity, numerator)``,
    the numerator keyed by degree, below 0 too when a shift is negative;
    the zero module reports ``(-1, None, {})``.
    """
    ring = mat.ring
    if weights is None:
        weights = ring.weights
    if row_shifts is None:
        row_shifts = [0] * mat.nrows
    gb = mat.column_basis()
    per_comp = {r: [] for r in range(mat.nrows)}
    for _, (comp, mono) in gb.basis:
        per_comp[comp].append(mono)
    total = {}
    for r in range(mat.nrows):
        num = _hilbert_num(_minimalize(per_comp[r]), tuple(weights))
        shift = row_shifts[r]
        for d, c in num.items():
            total[d + shift] = total.get(d + shift, 0) + c
            if not total[d + shift]:
                del total[d + shift]
    dim, mult = dimension_and_multiplicity(total, ring.nvars)
    return (dim, mult, total)


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


def _fresh_name(ring: PolyRing) -> str:
    base = "t_rad"
    name = base
    i = 0
    while name in ring.variables:
        i += 1
        name = f"{base}{i}"
    return name


def _min_transversal(supports) -> int:
    """Size of a smallest set of variables meeting every support.

    Supports are nonempty bitmasks of variables.  The search branches on
    the variables of a smallest support not yet met, one of which any
    transversal contains, and cuts a branch that cannot beat the best
    transversal found; it never enumerates all subsets of the variables.
    """
    best = len(supports)  # one variable from each support
    stack = [(list(supports), 0)]
    while stack:
        unmet, size = stack.pop()
        if not unmet:
            best = min(best, size)
            continue
        if size + 1 >= best:
            continue
        pick = min(unmet, key=lambda s: bin(s).count("1"))
        while pick:
            bit = pick & -pick
            pick ^= bit
            stack.append(([s for s in unmet if not s & bit], size + 1))
    return best


def _minimalize(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(all(map(le, g, m)) for g in out):
            out.append(m)
    return tuple(out)


def _hilbert_num(monos, weights):
    """Hilbert series numerator of S/I for the monomial ideal I minimally
    generated by ``monos``, by Bigatti's pivot recursion.

    With p = x_i^e, the sequence 0 -> S/(I : p)(-deg p) -> S/I ->
    S/(I + p) -> 0 gives N(I) = N(I + p) + t^{deg p} N(I : p).  The pivot
    variable x_i lies in the most generators, and e is the median of its
    exponents in those that are not pure powers of x_i, so e lies below
    any pure power of x_i in I and both ideals grow.  The leaves are
    closed forms: the zero ideal gives 1, the unit ideal 0, and pairwise
    coprime generators m give prod (1 - t^{deg m}).  The recursion runs
    on an explicit stack, so its depth is not bounded by the interpreter.
    """
    total = {}
    stack = [(monos, 0)]
    while stack:
        gens, shift = stack.pop()
        counts = [0] * len(weights)
        for m in gens:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        top = max(counts, default=0)
        if top <= 1:
            leaf = {0: 1}
            for m in gens:
                leaf = _times_one_minus(
                    leaf, sum(e * w for e, w in zip(m, weights)))
            for d, c in leaf.items():
                total[d + shift] = total.get(d + shift, 0) + c
            continue
        i = counts.index(top)
        exps = sorted(m[i] for m in gens if 0 < m[i] < sum(m))
        e = exps[len(exps) // 2]
        pivot = tuple(e if j == i else 0 for j in range(len(weights)))
        stack.append(((pivot,) + tuple(m for m in gens if m[i] < e), shift))
        colon = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens]
        stack.append((_minimalize(colon), shift + e * weights[i]))
    return {d: c for d, c in total.items() if c}


def _times_one_minus(num, d):
    """num * (1 - t^d), for an integer coefficient dict; d = 0 gives 0."""
    out = dict(num)
    for k, c in num.items():
        out[k + d] = out.get(k + d, 0) - c
    return {k: c for k, c in out.items() if c}


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
