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
columns f_k e_j to each run, which is all the reduction modulo (f) there
is; their last stage takes no syzygies.  The Betti numbers the command
line prints come from H(X) = Ext_B(M, k) (see ``loci.betti_numbers``),
and the point oracle reads Tate's complex (``loci.stable_betti_oracle``)
unless it is too large: then it resolves M = coker d_1 over each
hypersurface section with ``resolve_over_b``, which is also the tests'
reference for the Betti numbers and the Tate route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Polynomial, PolyRing
from .matrix import PipelineError, PolyMatrix, cancel_unit, least_unit
from .groebner import Ideal, ModuleGB


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


def check_annihilation(rd: RingData, rank: int, gb: ModuleGB = None):
    """Verify f_i . A^rank / U = 0, with U the span of the Groebner basis
    ``gb`` (None for U = 0): every f_i e_j of ``rd.quotient_columns`` lies
    in U.  Raise naming the f_i of the first that does not.  f
    annihilates no nonzero free module, so U = 0 needs no run."""
    for k, v in enumerate(rd.quotient_columns(rank)):
        if gb is None or not gb.contains(v):
            f = rd.ci[k // rank]
            raise PipelineError(
                f"f_{k // rank + 1} = {_brief(f)} does not annihilate "
                f"the module")


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

    The point oracle's route past the size limit of its Tate complex, on
    d_1 of F with its rows in deg F_0, and the tests' reference for the
    Betti numbers and the Tate route.
    f must annihilate the cokernel; this is not checked (the oracle
    resolves modules the pipeline has checked).
    Each stage is one graded ``ModuleGB`` run over its candidate columns
    modulo the f_k e_j, which keeps a minimal generating set over B.  The
    candidates are taken as they stand, not reduced modulo (f), and the
    last stage's run, which takes no syzygies, is untracked and stops at
    its top column degree.
    """
    if truncation < 1:
        raise PipelineError("truncation bound must be >= 1")
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
    Over B the rule reads only the classes of the columns modulo (f), and
    so do the syzygies, whose f_k e_j coordinates are dropped: no
    candidate needs reducing modulo (f) first.  A stage's syzygies are
    module vectors in the coordinates of its kept columns, so they are the
    next stage's candidates as they stand, and d_t is its kept columns
    (``PolyMatrix.from_columns``).
    """
    over_b = truncation is not None
    ring = rd.ring
    cols, row_degrees = split_unit_entries(
        presentation, row_degrees or [0] * presentation.nrows)
    cols = [c for c in cols if c]
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
        diffs.append(PolyMatrix.from_columns(ring, rank, cols))
        degrees.append([column_degree(ring, c, degrees[-1]) for c in cols])
        if last:
            break
        if not over_b:
            bases[hom] = gb
        cols = gb.syzygies()
    if over_b:
        return FreeResolution(rd, diffs, degrees,
                              complete=len(diffs) < truncation)
    return FreeResolution(rd, diffs, degrees, complete=True,
                          image_bases=bases)


# -- dualization over A ---------------------------------------------------


def dualize_over_a(res: FreeResolution) -> FreeResolution:
    """Hom_A(F, A) with degrees negated, shifted so it resolves the dual
    when it is concentrated (``_check_concentration``).  No command builds
    it: with ``homotopy.dualize_homotopies`` it is the tests' explicit
    route to X(M*), kept here only because the benchmark tracer wraps it
    by name."""
    L = res.length
    return FreeResolution(
        res.ring_data,
        [res.differentials[L - j].transpose() for j in range(1, L + 1)],
        [[-d for d in res.degrees[L - j]] for j in range(L + 1)],
        complete=True)


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
    of the basis of im d_1 that ``resolve_over_a`` kept (``image_bases``).
    """
    L = res.length
    if L == 0:
        return True
    return L == res.ring_data.n - res.image_bases[1].dimension()


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
