"""Minimal graded free resolutions over A and over B = A/(f).

A is a weighted polynomial ring; B is its quotient by the declared
homogeneous elements f_1..f_c.  Both are built by one loop, after the
unit entries of the presentation are cancelled (``split_unit_entries``,
one ``matrix.cancel_unit`` each): each stage is one Groebner run over
its candidate columns (the presentation, then the previous run's
syzygies) that goes degree by degree.  It settles the degree-d columns
once every pair of degree <= d is processed, keeps a minimal generating
set of their span (over a graded ring this yields the minimal
resolution), and its syzygies, in the coordinates of the kept columns,
are the next stage's candidates, as in the degree by degree construction
of La Scala and Stillman (J. Symb. Comp. 26, 1998).
Resolutions over A are finite, and each run stays on the resolution as
the basis the higher homotopies lift through d_t.  Resolutions over B are
truncated and emulate module arithmetic over B inside A by adjoining the
columns f_k e_j to each run and reducing each syzygy modulo (f); their
last stage takes no syzygies.  ``resolve_over_b`` is the oracle
route: the Betti numbers the command line prints come from
H(X) = Ext_B(M, k) (see ``loci.betti_numbers``); it drives the
hypersurface point oracle and serves as the independent check of that
closed form in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Polynomial, PolyRing
from .matrix import PolyMatrix, cancel_unit, least_unit
from .groebner import Ideal, ModuleGB, vector_of


class PipelineError(ValueError):
    """Domain-level rejection (bad ring data, failed precondition)."""


class TruncationNeeded(Exception):
    """Raised when a truncated tail is too short to determine the answer."""


class RingData:
    """The ambient ring A with the complete-intersection generators f."""

    def __init__(self, ring: PolyRing, ci):
        self.ring = ring
        self.ci = tuple(ci)
        for f in self.ci:
            if f.is_zero():
                raise PipelineError("ci generator is zero")
            if not f.is_homogeneous():
                raise PipelineError(f"ci generator {f} is inhomogeneous")
            if f.constant_term():
                raise PipelineError(f"ci generator {f} has a constant term")
        self._ci_ideal = None

    @property
    def n(self) -> int:
        return self.ring.nvars

    @property
    def c(self) -> int:
        return len(self.ci)

    @property
    def ci_degrees(self):
        return tuple(f.degree() for f in self.ci)

    def ci_ideal(self) -> Ideal:
        if self._ci_ideal is None:
            self._ci_ideal = Ideal(self.ring, list(self.ci))
        return self._ci_ideal

    def is_regular_sequence(self) -> bool:
        if self.c > self.n:
            return False
        return self.ci_ideal().dimension() == self.n - self.c

    def operator_ring(self) -> PolyRing:
        """S = k[chi_1..chi_c], each operator of cohomological degree 2."""
        names = tuple(f"chi{i + 1}" for i in range(self.c))
        return PolyRing(self.ring.field, names, (2,) * self.c)

    def quotient_columns(self, rank: int):
        """Module vectors f_k e_j, adjoined to emulate computations over B."""
        cols = []
        for f in self.ci:
            for j in range(rank):
                cols.append({(j, m): c for m, c in f.terms.items()})
        return cols


# -- graded bookkeeping --------------------------------------------------


def column_degree(ring: PolyRing, col, row_degrees) -> int:
    """Internal degree of a homogeneous module vector; asserts homogeneity."""
    degs = {ring.wdeg(m) + row_degrees[comp] for (comp, m) in col}
    if len(degs) != 1:
        raise PipelineError("inhomogeneous module column")
    return degs.pop()


def columns_to_matrix(ring: PolyRing, cols, nrows: int) -> PolyMatrix:
    """The matrix whose columns are the module vectors ``cols``."""
    entries = {}
    for j, col in enumerate(cols):
        per_row = {}
        for (r, m), c in col.items():
            per_row.setdefault(r, {})[m] = c
        for r, terms in per_row.items():
            entries[(r, j)] = Polynomial(ring, terms)
    return PolyMatrix(ring, nrows, len(cols), entries)


# -- resolutions ----------------------------------------------------------


@dataclass
class FreeResolution:
    ring_data: RingData
    differentials: list          # d_1..d_L as PolyMatrix
    degrees: list                # internal degrees of F_0..F_L generators
    complete: bool               # kernel exhausted at the last stage
    # t -> the tracked run d_t was taken from, whose coordinates are the
    # columns of d_t in order; the higher homotopies lift through it
    image_bases: dict = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def length(self) -> int:
        return len(self.differentials)

    def betti(self) -> dict:
        return {i: len(d) for i, d in enumerate(self.degrees)}


def split_unit_entries(presentation: PolyMatrix, row_degrees):
    """Cancel the unit entries of a presentation by ``cancel_unit``, the
    least (row, column) first; the cokernel is unchanged.  Returns the
    surviving columns as vectors and the degrees of the surviving rows."""
    entries = dict(presentation.entries)
    rows = list(range(presentation.nrows))
    cols = list(range(presentation.ncols))
    while (unit := least_unit(entries)) is not None:
        cancel_unit(entries, *unit, presentation.ring.field)
        rows.remove(unit[0])
        cols.remove(unit[1])
    row_at = {r: i for i, r in enumerate(rows)}
    col_at = {c: j for j, c in enumerate(cols)}
    left = PolyMatrix(presentation.ring, len(rows), len(cols),
                      {(row_at[r], col_at[c]): p
                       for (r, c), p in entries.items()})
    return left.columns_as_vectors(), [row_degrees[r] for r in rows]


def resolve_over_a(rd: RingData, presentation: PolyMatrix) -> FreeResolution:
    """Finite minimal graded free resolution of coker(presentation) over A.

    Each stage is one tracked graded ``ModuleGB`` run with no ``modulo``
    columns; d_t is its kept columns, in ``kept`` order, so the run, kept
    in ``image_bases``, lifts through d_t in d_t's own coordinates.
    """
    return _resolve(rd, presentation, None)


def check_annihilation(rd: RingData, presentation: PolyMatrix):
    """Verify f_i . coker(presentation) = 0; raise naming the offender.

    The basis of the columns is kept on the presentation, so the point
    oracle builds it once for all its sections."""
    gb = presentation.column_basis()
    for i, f in enumerate(rd.ci):
        for j in range(presentation.nrows):
            if not gb.contains({(j, m): c for m, c in f.terms.items()}):
                raise PipelineError(
                    f"f_{i + 1} = {_brief(f)} does not annihilate the module")


def _brief(p: Polynomial) -> str:
    """``p`` in full, or its leading term and term count when it prints
    longer than 60 characters."""
    text = str(p)
    if len(text) <= 60:
        return text
    lead = p.lead_monomial()
    return (f"{p.ring.monomial(lead, p.terms[lead])} + ... "
            f"({len(p.terms)} terms)")


def resolve_over_b(rd: RingData, presentation: PolyMatrix, truncation: int,
                   row_degrees=None) -> FreeResolution:
    """Minimal B-free resolution through homological degree ``truncation``,
    not resolved past it: complete exactly when it has fewer stages.  The
    rows of the presentation lie in ``row_degrees``, all 0 by default.

    Each stage is one graded ``ModuleGB`` run over its candidate columns
    modulo the f_k e_j, which keeps a minimal generating set over B.  The
    candidates are reduced modulo (f) first, and the last stage's run,
    which takes no syzygies, is untracked and stops at its top column
    degree.
    """
    if truncation < 1:
        raise PipelineError("truncation bound must be >= 1")
    check_annihilation(rd, presentation)
    return _resolve(rd, presentation, truncation, row_degrees)


def _resolve(rd: RingData, presentation: PolyMatrix, truncation,
             row_degrees=None) -> FreeResolution:
    """The stages of a resolution over A (``truncation`` None) or over B.

    A stage's run keeps a column exactly when it lies outside the span of
    the kept columns of lower degree, the later columns of its degree and
    (over B) the f_k e_j (see ``ModuleGB``).  That is the rule that goes
    through the columns in ascending (degree, index) order and drops each
    one in the span of the columns not yet dropped: had it dropped j, with
    v_j a combination of kept earlier columns and later ones in which some
    earlier i has a nonzero coefficient, then the earliest such i lies in
    the span of the columns after it and would have been dropped in turn.
    """
    over_b = truncation is not None
    ring = rd.ring
    cols, row_degrees = split_unit_entries(
        presentation, row_degrees or [0] * presentation.nrows)

    def candidates(cols, rank):
        """The nonzero columns, over B reduced modulo (f) first."""
        if over_b:
            nf = rd.ci_ideal().in_every_component(rank).normal_form
            cols = [nf(c) for c in cols]
        return [c for c in cols if c]

    cols = candidates(cols, len(row_degrees))
    for c in cols:  # a graded run reads a column's degree off one term
        column_degree(ring, c, row_degrees)
    degrees = [list(row_degrees)]
    diffs = []
    bases = {}
    while cols:
        rank = len(degrees[-1])
        hom = len(diffs) + 1
        if not over_b and hom > rd.n + 1:
            raise AssertionError("resolution over A exceeded the ring dimension")
        last = hom == truncation
        gb = ModuleGB(ring, rank, cols, not last, degrees[-1],
                      rd.quotient_columns(rank) if over_b else ())
        if not gb.kept:
            break
        cols = [cols[j] for j in gb.kept]
        diffs.append(columns_to_matrix(ring, cols, rank))
        degrees.append([column_degree(ring, c, degrees[-1]) for c in cols])
        if last:
            break
        if not over_b:
            bases[hom] = gb
        cols = candidates([vector_of(s, ring) for s in gb.syzygies()],
                          len(cols))
    if over_b:
        return FreeResolution(rd, diffs, degrees,
                              complete=len(diffs) < truncation)
    return FreeResolution(rd, diffs, degrees, complete=True,
                          image_bases=bases)


# -- dualization over A ---------------------------------------------------


@dataclass
class DualComplex:
    """Hom_A(F, A) with degrees negated, shifted so it resolves the dual
    when it is concentrated (``_check_concentration``).  No command builds
    it: with ``homotopy.dualize_homotopies`` it is the tests' explicit
    route to X(M*), kept here only because the benchmark tracer wraps
    ``dualize_over_a`` by name."""

    matrices: list        # delta_1..delta_L of the reversed complex
    degrees: list         # degrees of H_0..H_L (negated, reversed)


def dualize_over_a(res: FreeResolution) -> DualComplex:
    L = res.length
    return DualComplex(
        [res.differentials[L - j].transpose() for j in range(1, L + 1)],
        [[-d for d in res.degrees[L - j]] for j in range(L + 1)])


def _check_concentration(res: FreeResolution) -> bool:
    """True when Hom_A(F, A) is exact except at the final spot, so that
    the dual module M* = Ext_A^L(M, A) exists; ``betti`` reads it through
    ``Pipeline.dual_is_module``, with no dual complex built.

    F must be the minimal resolution of M = coker d_1 over A, as
    ``resolve_over_a`` builds it, so that its length L is pd M.  The
    cohomology of Hom_A(F, A) is Ext_A^i(M, A), which vanishes below
    grade M = n - dim M and not at grade M or at pd M (Bruns-Herzog,
    Cohen-Macaulay Rings, 1.3.3).  So the dual is concentrated exactly
    when L = 0 or n - dim M = L, with dim M read off the leading monomials
    of a basis of im d_1: the tracked one ``resolve_over_a`` kept, or else
    the untracked ``column_basis``, which needs no syzygies.
    """
    L = res.length
    if L == 0:
        return True
    gb = res.image_bases.get(1) or res.differentials[0].column_basis()
    return L == res.ring_data.n - gb.dimension()


# -- Betti tables and quasi-polynomial tails -------------------------------


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
