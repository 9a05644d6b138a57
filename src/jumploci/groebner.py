"""Groebner bases for submodules of free modules, with syzygies and lifts.

Vectors in a free module of rank r are sparse dicts mapping ``(component,
exponent_tuple)`` to a nonzero field scalar.  The module term order is
term-over-position: terms are compared first by the ring's weighted grevlex
key on the monomial, then by preferring smaller component index.

The one sparse product of module vectors lives here: ``add_image`` adds
the image of a vector under a map given by its columns, and ``reduced``
reduces the sum once.  S-vectors, ``@`` and the homotopy walk run on it,
and the duals of F and its homotopies on ``transposed``.

A basis is stored once, by component: ``ModuleGB.leads[r]`` lists the
(lead monomial, element) pairs whose lead lies in component r, in the
order they were added.  Division, pairs, the Hilbert data, the Krull
dimension and the Tate basis all read it.  Division
(``ModuleGB._reduce_full``) never scans: a term looks for its reducer
only among the leads of its own component and takes the first that
divides it.  The terms wait in a heap keyed by the grevlex keys that the
ring caches per monomial, and the division returns the lead of its
remainder, the first term it moved there, so no caller rescans the
remainder for it.

Syzygies and lifting are computed by the annihilator-column device: each
input column is augmented with a unit vector in a shadow block of
components, the shadow block ordered strictly below every real term.  Any
element whose real part reduces to zero then carries, in its shadow block,
a syzygy of the input columns; reducing an augmented inclusion ``v + 0``
to zero real part yields the coefficients expressing ``v`` in the columns.
Both leave the engine as they go in, as module vectors: the shadow terms
keyed by the position of their column in ``kept`` (``ModuleGB._rekey``),
which a next stage of a resolution takes as its columns, and whose kept
columns are its differential as they stand.
Every run, tracked or not, installs its pairs the Gebauer-Moeller way
(J. Symb. Comp. 6, 1988), within each component: a pair is named by its
component r and the positions i < j of its elements in ``leads[r]``, and
only that list is scanned for it.  Of the new pairs of an element h, only
those whose lcm no other new lcm properly divides are queued, one per
lcm; a queued pair (i, j) is dropped when an element k of its component
added after it has a lead dividing lcm(i, j) while lcm(i, k) and
lcm(j, k) both differ from it, a test made when the pair leaves the
queue.  Their lead syzygies generate those of the leads, so by
Schreyer's theorem, as Moeller, Mora and Traverso use it (ISSAC 1992),
the syzygies their reductions to zero carry, with those of the columns
that reduce to zero, generate the syzygies of the columns.  None of the
pairs with one lcm is queued when one is known to reduce to zero: two
single-term vectors, whose S-vector is zero and carries no syzygy (in a
tracked run a single-term vector has no shadow terms), and, untracked in
rank one, coprime leads, whose Koszul syzygy a tracked run needs.  So an
untracked run of a monomial input processes no pair at all.

A graded run, given the degrees of the free generators, keys its pairs by
module degree and settles the columns one degree at a time, keeping only
minimal generators (see ``ModuleGB``); each stage of a resolution, over
the ring or a quotient of it, is one such run.  Its columns and
``modulo`` vectors must be homogeneous, and it reads each one's degree
off a single term; it records the degree of each column it keeps.
``column_degree`` reads every term and refuses an inhomogeneous vector:
it is the one homogeneity check, made where columns enter from outside
a resolution (a presentation, dg input).  Later stages are syzygies of
homogeneous columns, homogeneous by construction.

A reduced basis is formed in one place, ``ModuleGB._interreduce``: after
an ungraded, untracked run, and in ``ModuleGB.of_basis`` for the monic
generators of a monomial ideal (``Ideal._basis``).  ``_minimalize`` picks
minimal monomials there, in the pair queue and in the Hilbert colons.

Krull dimensions are read off the leading monomials alone: dim F/U =
dim F/in(U), the largest dimension of S/J_r over the components r of
in(U) = sum J_r e_r, and dim S/J is the size of the largest set of
variables containing the support of no minimal generator of J
(Kredel-Weispfenning, J. Symb. Comp. 6, 1988).  Hilbert numerators,
among them that of H(X) which ``loci`` expands, and the generic rank of
a matrix come from Bigatti's pivot recursion (J. Pure Appl. Algebra 119,
1997).
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import add, le, sub

from .poly import Polynomial, PolyRing


class GBStats:
    """Cumulative engine counters, reported when verbose mode is on.

    ``pairs_processed`` counts the S-vectors reduced and ``pairs_skipped``
    the pairs that a run, tracked or not, never reduces, each pair of two
    elements of one component's ``ModuleGB.leads``; ``basis_elements``
    counts the elements added to those lists; ``monomial_bases`` counts
    the ideals settled with no run."""

    pairs_processed = 0
    pairs_skipped = 0
    zero_reductions = 0
    basis_elements = 0
    monomial_bases = 0

    @classmethod
    def snapshot(cls):
        return {"pairs_processed": cls.pairs_processed,
                "pairs_skipped": cls.pairs_skipped,
                "zero_reductions": cls.zero_reductions,
                "basis_elements": cls.basis_elements,
                "monomial_bases": cls.monomial_bases}

    @classmethod
    def reset(cls):
        for name in cls.snapshot():
            setattr(cls, name, 0)


class PipelineError(ValueError):
    """Domain-level rejection (bad ring data, failed precondition)."""


def column_degree(ring: PolyRing, col, row_degrees) -> int:
    """Internal degree of a homogeneous module vector, each term (r, m) of
    degree deg m + ``row_degrees[r]``; one whose terms disagree is a
    PipelineError.  It is the one homogeneity check, made on the columns
    that enter from outside a resolution: a presentation's, in
    ``resolution._resolve``, and dg input's, in
    ``session._assemble_complex``."""
    degs = {ring.wdeg(m) + row_degrees[comp] for (comp, m) in col}
    if len(degs) != 1:
        raise PipelineError("inhomogeneous module column")
    return degs.pop()


def add_image(columns, v, acc):
    """Add to ``acc`` ({(row, monomial): coefficient}, not yet reduced) the
    image of the module vector ``v`` under the map with the columns
    ``columns``: each term (k, m) * a of v adds a * x^m times column k."""
    for (k, m), a in v.items():
        for (r, n), b in columns[k].items():
            key = (r, tuple(map(add, m, n)))
            acc[key] = acc.get(key, 0) + a * b


def reduced(acc, p):
    """``acc`` as a module vector: each coefficient reduced mod p once (over
    QQ, p = 0, the sums are already Fractions), the zero terms dropped."""
    return {k: r for k, v in acc.items() if (r := v % p if p else v)}


def transposed(columns, nrows):
    """The columns of the transpose of the map with ``nrows`` rows."""
    out = [{} for _ in range(nrows)]
    for c, col in enumerate(columns):
        for (r, m), a in col.items():
            out[r][(c, m)] = a
    return out


class ModuleGB:
    """Groebner basis of the column span of a list of module vectors.

    ``track=True`` enables the shadow block, making :meth:`syzygies` and
    :meth:`lift` available.

    Given ``row_degrees``, the degrees of the free generators, the run is
    graded and keeps only minimal generators of the columns plus
    ``modulo``.  Each must be homogeneous, and is read in the degree of
    one of its terms: the caller checks (``column_degree``) the columns
    that do not come from a graded run, such as a presentation's, and a
    run's syzygies and the forms times basis vectors g e_j are homogeneous
    by construction.  It settles one module degree d at a time: every
    pair of degree <= d is processed, the ``modulo`` vectors of degree d
    are added, and the degree-d columns are walked from the last to the
    first.  A column whose reduction has a nonzero real part is added to
    the basis; one that reduces to zero is dropped and gets no shadow
    coordinate.  The basis is then a
    Groebner basis through degree d, so a column is kept exactly when it
    lies outside the span of the kept columns of lower degree, the later
    columns of its degree and ``modulo``.  ``kept`` lists the positions of
    the kept columns in ascending (degree, position) order, and
    ``kept_degrees`` their degrees in the same order; syzygies and lifts
    are given in those coordinates, and the ``modulo`` vectors have none.
    A tracked graded run then processes the remaining pairs, but an
    untracked one stops once its top column degree is settled: its basis
    is a Groebner basis through that degree only.

    ``leads[r]`` lists the (lead monomial, vector) pairs of component r,
    in the order they were added; it is the one store of the basis, and a
    queued pair is named by r and two positions in it.  After an
    ungraded, untracked run (``_interreduce``) its monomials are minimal
    and distinct, in descending term order.
    """

    def __init__(self, ring: PolyRing, rank: int, columns, track: bool = False,
                 row_degrees=None, modulo=()):
        self.ring = ring
        self.rank = rank
        self.ncols = len(columns)
        self.track = track
        self.row_degrees = row_degrees
        self._syzygies = []
        self.leads = [[] for _ in range(rank)]
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
        """An untracked, ungraded Groebner basis installed with no run
        and interreduced: ``basis`` lists its monic (vector, lead) pairs."""
        gb = cls.__new__(cls)
        gb.ring, gb.rank, gb.track = ring, rank, False
        gb.leads = [[] for _ in range(rank)]
        for v, (comp, mono) in basis:
            gb.leads[comp].append((mono, v))
        gb._interreduce()
        return gb

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
        divisor of its monomial in ``leads`` of its own component.  A term
        with no reducer moves to the remainder, and no later step creates
        a term above it, so the first term moved is the lead of the
        remainder.
        """
        fld = self.ring.field
        rank = self.rank
        leads = self.leads
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
        fld = self.ring.field
        inv = fld.inv(v[lead])
        if inv == fld.one():
            return v
        return {k: fld.mul(a, inv) for k, a in v.items()}

    # -- Buchberger ------------------------------------------------------

    def _add_element(self, v, lead, pairs):
        """Append ``v`` to the leads of its component and queue its pairs
        with the earlier elements there (module docstring): one per
        minimal lcm, none for an lcm that a pair known to reduce to zero
        shares, coprime leads counting only in an untracked run."""
        v = self._monic(v, lead)
        GBStats.basis_elements += 1
        comp, mono = lead
        own = self.leads[comp]
        idx = len(own)
        single = len(v) == 1
        rank_one = self.rank == 1 and not self.track
        by_lcm = {}  # lcm -> (first partner, whether a pair reduces to 0)
        for j, (jm, g) in enumerate(own):
            lcm = tuple(map(max, jm, mono))
            # a zero S-vector, or coprime leads (rank one only)
            zero = ((single and len(g) == 1)
                    or (rank_one and not any(map(min, jm, mono))))
            first, known = by_lcm.get(lcm, (j, False))
            by_lcm[lcm] = (first, known or zero)
        own.append((mono, v))
        queued = 0
        for lcm in _minimalize(by_lcm):
            j, zero = by_lcm[lcm]
            if not zero:
                self._queue(pairs, comp, j, idx, lcm)
                queued += 1
        GBStats.pairs_skipped += idx - queued

    def _queue(self, pairs, comp, j, idx, lcm):
        key = self.ring.mono_key(lcm)
        if self.row_degrees is not None:
            key = (key[0] + self.row_degrees[comp], key)
        heapq.heappush(pairs, (key, comp, j, idx, lcm))

    def _run_buchberger(self, seeded):
        pairs = []
        for v in seeded:
            self._take(*self._reduce_full(v), pairs)
        while pairs:
            self._next_pair(pairs)

    def _next_pair(self, pairs):
        """Reduce the S-vector of the least queued pair, elements i and j
        of the leads of its component, and take it, unless the pair is
        superseded."""
        _, comp, i, j, lcm = heapq.heappop(pairs)
        own = self.leads[comp]
        if self._superseded(own, i, j, lcm):
            GBStats.pairs_skipped += 1
            return
        GBStats.pairs_processed += 1
        (mi, gi), (mj, gj) = own[i], own[j]
        si = tuple(map(sub, lcm, mi))
        sj = tuple(map(sub, lcm, mj))
        acc = {}
        add_image((gi, gj), {(0, si): 1, (1, sj): -1}, acc)
        s = reduced(acc, self.ring.field.p)
        self._take(*self._reduce_full(s), pairs)

    @staticmethod
    def _superseded(own, i, j, lcm) -> bool:
        """Whether an element k of the leads ``own`` of the pair's
        component, added after the pair (i, j) was queued, has a lead
        dividing its lcm that neither lcm(i, k) nor lcm(j, k) equals (the
        module docstring)."""
        mi, mj = own[i][0], own[j][0]
        for km, _ in own[j + 1:]:
            if (all(map(le, km, lcm))
                    and tuple(map(max, km, mi)) != lcm
                    and tuple(map(max, km, mj)) != lcm):
                return True
        return False

    def _run_by_degree(self, columns, modulo):
        """The graded run of the class docstring; returns ``kept`` and
        records ``kept_degrees``.

        Pairs are keyed by module degree, so the pairs of degree <= d are
        the least queued ones.  An element added at degree d forms no
        pair of degree d: its lead is divisible by no earlier lead, and
        no later lead of degree d divides it.
        """
        ring, rows = self.ring, self.row_degrees
        self.kept_degrees = []
        groups = {}
        # every vector is homogeneous (class docstring): one term's degree
        for v in modulo:
            r, m = next(iter(v))
            d = ring.wdeg(m) + rows[r]
            groups.setdefault(d, ([], []))[0].append(v)
        for j, col in enumerate(columns):
            if col:
                r, m = next(iter(col))
                d = ring.wdeg(m) + rows[r]
                groups.setdefault(d, ([], []))[1].append(j)
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
            self.kept_degrees += [d] * len(kept_d)
        while self.track and pairs:
            self._next_pair(pairs)
        return kept

    def _take(self, w, lead, pairs):
        """Add a reduced element with real lead ``lead`` to the basis, or
        record it as zero when ``lead`` is None.  An untracked rank-one run
        that meets a constant runs on: the constant queues no pair (coprime
        leads), the queued pairs it does not supersede reduce to zero, and
        interreduction leaves ``[1]``."""
        if lead is None:
            self._record_zero(w)
        else:
            self._add_element(w, lead, pairs)

    def _record_zero(self, v):
        GBStats.zero_reductions += 1
        if self.track:
            shadow = {k: c for k, c in v.items() if k[0] >= self.rank}
            if shadow:
                self._syzygies.append(shadow)

    def _interreduce(self):
        """Keep, per component, the first element for each minimal lead
        (``_minimalize``), then tail-reduce, in ascending term order, for
        the unique reduced basis, each component's leads left in
        descending order."""
        keep = {}
        for comp, leads in enumerate(self.leads):
            first = dict(reversed(leads))  # lead -> its first element
            keep.update(((comp, m), first[m]) for m in _minimalize(first))
        self.leads = [[] for _ in range(self.rank)]
        for lead in sorted(keep, key=self._term_key):
            g = keep[lead]
            if len(g) > 1:  # a one-term element has no tail
                tail = {k: c for k, c in g.items() if k != lead}
                g = {**self._reduce_full(tail)[0], lead: g[lead]}
            self.leads[lead[0]].append((lead[1], g))
        for own in self.leads:
            own.reverse()

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
        supports = [{sum(1 << i for i, e in enumerate(mono) if e)
                     for mono, _ in leads} for leads in self.leads]
        return max((n - _min_transversal(s) for s in supports
                    if 0 not in s), default=-1)

    def lift(self, v):
        """The coefficients c with ``v + sum_i c_i * column_i = 0``, as a
        module vector keyed (position of column i in ``kept``, monomial),
        or None when ``v`` is outside the span of the columns: the shadow
        terms of the normal form of ``v`` (``_rekey``)."""
        if not self.track:
            raise ValueError("lifting requires a tracked basis")
        w, lead = self._reduce_full(
            {k: c for k, c in v.items() if k[0] < self.rank})
        return None if lead is not None else self._rekey(w)

    def syzygies(self):
        """Generators of the syzygy module of the kept columns, as module
        vectors keyed (position in ``kept``, monomial) (``_rekey``)."""
        if not self.track:
            raise ValueError("syzygies require a tracked basis")
        return [self._rekey(s) for s in self._syzygies]

    def _rekey(self, shadow):
        """The terms of ``shadow``, keyed (rank + input column index,
        monomial), rekeyed (position of that column in ``kept``, monomial);
        only kept columns have a shadow coordinate."""
        rank = self.rank
        at = self._position
        return {(at[comp - rank], m): c for (comp, m), c in shadow.items()}

    @cached_property
    def _position(self):
        """Input column index -> its position in ``kept``."""
        return {j: p for p, j in enumerate(self.kept)}


# -- convenience builders -----------------------------------------------


def vector_of(p: Polynomial):
    """The polynomial ``p`` as a module vector of rank one."""
    return {(0, m): c for m, c in p.terms.items()}


class Ideal:
    """Homogeneous or inhomogeneous ideal with a cached Groebner basis."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = None

    def _basis(self) -> ModuleGB:
        """The reduced Groebner basis, computed once.  A monomial ideal
        takes no run: its generators, monic, are a Groebner basis, and
        ``ModuleGB.of_basis`` interreduces them."""
        if self._gb is None:
            ring = self.ring
            if all(len(g.terms) == 1 for g in self.gens):
                GBStats.monomial_bases += 1
                self._gb = ModuleGB.of_basis(ring, 1, [
                    ({(0, m): ring.field.one()}, (0, m))
                    for g in self.gens for m in g.terms])
            else:
                self._gb = ModuleGB(ring, 1,
                                    [vector_of(g) for g in self.gens])
        return self._gb

    def groebner_generators(self):
        return [Polynomial(self.ring, {m: c for (_, m), c in v.items()})
                for _, v in self._basis().leads[0]]

    def reduced(self) -> "Ideal":
        """Same ideal, regenerated by its reduced Groebner basis."""
        out = Ideal(self.ring, self.groebner_generators())
        out._gb = self._basis()  # the reduced basis is unique
        return out

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        return self._basis().contains(vector_of(p))

    def is_unit_ideal(self) -> bool:
        return self.contains(self.ring.one())

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def radical_contains(self, p: Polynomial) -> bool:
        """Membership of ``p`` in the radical of the ideal, decided in stages.

        The first two stages work on the ideal's cached Groebner basis:

        1. The basis is monomial, so the ideal is: its radical is generated
           by the squarefree parts of the basis monomials, and ``p`` lies in
           that monomial ideal exactly when each of its terms does.  This
           stage decides both ways, and needs no division: ``p`` in the
           ideal puts each of its terms in it.
        2. One of ``p^2, p^4, p^8`` lies in the ideal: True.  This is a
           certificate only; failing it proves nothing.  ``p`` itself is
           not tried: ``p`` in the ideal puts ``p^2`` there too.
        3. Otherwise the Rabinowitsch trick decides: ``p`` is in the radical
           exactly when the ideal and ``1 - y*p`` generate the unit ideal
           of the ring with one more variable ``y``, named after the
           longest variable name with a prime appended, so that it is
           longer than every name of the ring and clashes with none.
        """
        roots = self._squarefree_roots
        if roots is not None:
            return all(any(all(map(le, r, m)) for r in roots)
                       for m in p.terms)
        q = p
        for _ in range(3):
            q = q * q
            if self.contains(q):
                return True
        aux = self.ring.extend(max(self.ring.variables, key=len) + "'")
        gens = [g.map_ring(aux) for g in self.gens]
        y = aux.gen(aux.nvars - 1)
        gens.append(aux.one() - y * p.map_ring(aux))
        return Ideal(aux, gens).is_unit_ideal()

    @cached_property
    def _squarefree_roots(self):
        """The squarefree parts of the basis monomials, which generate the
        radical, or None when the basis is not monomial."""
        leads = self._basis().leads[0]
        if all(len(v) == 1 for _, v in leads):
            return [tuple(min(e, 1) for e in m) for m, _ in leads]
        return None

    def radical_contains_ideal(self, other: "Ideal") -> bool:
        return all(self.radical_contains(g) for g in other.gens)

    def same_variety(self, other: "Ideal") -> bool:
        # equal reduced bases mean equal ideals
        if self._basis().leads == other._basis().leads:
            return True
        return (self.radical_contains_ideal(other)
                and other.radical_contains_ideal(self))

    # -- Hilbert data ---------------------------------------------------

    def dimension(self) -> int:
        """Krull dimension of ring/ideal (-1 for the unit ideal), read off
        the leading monomials of the basis (``ModuleGB.dimension``)."""
        return self._basis().dimension()


def module_hilbert_data(mat, row_shifts=None, weights=None):
    """The Hilbert numerator of coker(mat) as a graded module over
    mat.ring, keyed by degree, below 0 too when a shift is negative; the
    zero module gives {}.  ``row_shifts`` are integer degree shifts of the
    target generators in the chosen regrading; ``weights`` regrade the
    variables (defaults to the ring weights).  The leads of each
    component (``ModuleGB.leads``) are minimal and distinct after the
    untracked run, so they are the generators ``_hilbert_num`` takes.
    """
    ring = mat.ring
    if weights is None:
        weights = ring.weights
    if row_shifts is None:
        row_shifts = [0] * mat.nrows
    gb = ModuleGB(ring, mat.nrows, mat.columns_as_vectors())
    total = {}
    for r, leads in enumerate(gb.leads):
        num = _hilbert_num(tuple(m for m, _ in leads), tuple(weights))
        shift = row_shifts[r]
        for d, c in num.items():
            total[d + shift] = total.get(d + shift, 0) + c
            if not total[d + shift]:
                del total[d + shift]
    return total


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
    """The minimal monomials of ``monos`` under divisibility, by total
    degree and then exponents.  A proper divisor has a smaller total
    degree, so each monomial is tested only against the kept ones of
    smaller degree: monomials of one degree, such as the minors of one
    size, take no test at all."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    lower = 0  # out[:lower] have a smaller total degree than m
    deg = None
    for m in monos:
        d = sum(m)
        if d != deg:
            deg, lower = d, len(out)
        if not any(all(map(le, out[i], m)) for i in range(lower)):
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
