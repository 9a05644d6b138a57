"""Minimal graded free resolutions over a quotient of A.

A is a weighted polynomial ring; B is its quotient by the declared
homogeneous elements f_1..f_c.  One loop, ``_resolve``, resolves over
A/(g) for a tuple of forms g: over A, with g = (), by ``resolve_over_a``,
and over B, with g = f and truncated, by ``resolve_over_b``.  After the
unit entries of the presentation are cancelled (``split_unit_entries``,
on ``matrix.cancel_units``, the one unit loop), each stage is one
Groebner run over its candidate columns (the presentation, then the
previous run's syzygies) that goes degree by degree, with the columns
g_k e_j (``quotient_columns``) adjoined, which is all the reduction
modulo (g) there is.  Homogeneity is checked once, on the presentation's
columns (``groebner.column_degree``, which refuses an inhomogeneous one):
each later stage's candidates are syzygies of homogeneous columns, so
homogeneous too, and the run reads each candidate's degree off one term.
It records the degree of each column it keeps: those are the degrees of F.
It settles the degree-d columns once every pair of degree <= d is
processed, keeps a minimal generating set of their span (over a graded
ring this yields the minimal resolution), and its syzygies, in the
coordinates of the kept columns, are the next stage's candidates, as in
the degree by degree construction of La Scala and Stillman (J. Symb.
Comp. 26, 1998).
Resolutions over A are finite and untruncated, and each stage's run
stays on the resolution (``image_bases``): it is the basis the higher
homotopies lift through d_t.  Resolutions over B are truncated, keep no
run, and their last stage takes no syzygies.  The Betti numbers the
command line prints, and the quasi-polynomial of their tail, come from
H(X) = Ext_B(M, k) in closed form (see ``loci.betti_numbers``), and the
point oracle reads Tate's complex (``loci.stable_betti_oracle``) unless
it is too large: then it resolves M = coker d_1 over each hypersurface
section with ``resolve_over_b``, which is also the tests' reference for
the Betti numbers and the Tate route.
"""

from __future__ import annotations

from .poly import PolyRing
from .matrix import PolyMatrix, cancel_units
from .groebner import Ideal, ModuleGB, PipelineError, column_degree, transposed


class RingData:
    """The ambient ring A with the complete-intersection generators f,
    which ``resolve_over_b`` takes as its quotient.

    Each f_i must be a nonzero form of positive degree; this is not
    checked here.  The session parser refuses any other ``ci`` element
    with its line and column, and the one other caller, the oracle's
    ``resolve_over_b`` route, passes a section sum a_i f_i, which is
    nonzero (``loci._section``) and a form (``loci.section_degree``) of
    the degree of the f_i by construction."""

    def __init__(self, ring: PolyRing, ci):
        self.ring = ring
        self.ci = tuple(ci)
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
        """dim A/(f) = n - c; when c > n it is False, since no f_i of a
        session is a unit and so dim A/(f) >= 0 > n - c."""
        return self.ci_ideal().dimension() == self.n - self.c

    def operator_ring(self) -> PolyRing:
        """S = k[chi_1..chi_c], each operator of cohomological degree 2."""
        names = tuple(f"chi{i + 1}" for i in range(self.c))
        return PolyRing(self.ring.field, names, (2,) * self.c)


def quotient_columns(generators, rank: int):
    """The module vectors g_k e_j of rank ``rank``, for g_k in
    ``generators`` and then j ascending: a run that adjoins them computes
    modulo (g)."""
    return [{(j, m): c for m, c in g.terms.items()}
            for g in generators for j in range(rank)]


# -- resolutions ----------------------------------------------------------


class FreeResolution:
    """The differentials d_1..d_L of a graded free resolution F, as
    module-vector columns, with the degrees of the generators of
    F_0..F_L.  ``image_bases`` maps t to the run d_t was taken from; an
    untruncated resolution (over A) keeps every stage's run, since the
    higher homotopies lift through them, and a truncated one keeps
    none."""

    def __init__(self, ring_data: RingData, differentials: list,
                 degrees: list, complete: bool, image_bases: dict = None):
        self.ring_data = ring_data
        self.differentials = differentials  # d_1..d_L as module-vector columns
        self.degrees = degrees  # internal degrees of F_0..F_L generators
        self.complete = complete  # kernel exhausted at the last stage
        # t -> the run d_t was taken from, whose coordinates are the
        # columns of d_t in order (untruncated resolutions only)
        self.image_bases = {} if image_bases is None else image_bases

    @property
    def length(self) -> int:
        return len(self.differentials)

    def betti(self) -> dict:
        return {i: len(d) for i, d in enumerate(self.degrees)}


def split_unit_entries(presentation: PolyMatrix, row_degrees):
    """Cancel the unit entries of a presentation by ``cancel_units``, the
    least (row, column) first; the cokernel is unchanged.  Returns the
    surviving columns as module vectors and the surviving rows' degrees."""
    entries = dict(presentation.entries)
    rows = list(range(presentation.nrows))
    cols = list(range(presentation.ncols))
    for r, c in cancel_units(entries, presentation.ring.field):
        rows.remove(r)
        cols.remove(c)
    row_at = {r: i for i, r in enumerate(rows)}
    out = {c: {} for c in cols}
    for (r, c), p in entries.items():
        for m, a in p.terms.items():
            out[c][(row_at[r], m)] = a
    return list(out.values()), [row_degrees[r] for r in rows]


def resolve_over_a(rd: RingData, presentation: PolyMatrix) -> FreeResolution:
    """Finite minimal graded free resolution of coker(presentation) over A.

    Each stage is one tracked graded ``ModuleGB`` run with no ``modulo``
    columns; d_t is its kept columns, in ``kept`` order, so the run, kept
    in ``image_bases``, lifts through d_t in d_t's own coordinates.
    """
    return _resolve(rd, (), presentation)


def resolve_over_b(rd: RingData, presentation: PolyMatrix, truncation: int,
                   row_degrees=None) -> FreeResolution:
    """Minimal B-free resolution through homological degree ``truncation``,
    not resolved past it: complete exactly when it has fewer stages.  The
    rows of the presentation lie in ``row_degrees``, all 0 by default.

    The point oracle's route past the size limit of its Tate complex, on
    d_1 of F with its rows in deg F_0, and the tests' reference for the
    Betti numbers and the Tate route.
    f must annihilate the cokernel and ``truncation`` be at least 1; this
    is not checked: the oracle (``loci._resolved_stable_betti``) resolves
    modules the pipeline has checked, through n + 1 >= 2.
    Each stage is one graded ``ModuleGB`` run over its candidate columns
    modulo the f_k e_j, which keeps a minimal generating set over B.  The
    candidates are taken as they stand, not reduced modulo (f), and the
    last stage's run, which takes no syzygies, is untracked and stops at
    its top column degree.  No run is kept (``image_bases`` is empty):
    each is freed once its syzygies are taken.
    """
    return _resolve(rd, rd.ci, presentation, truncation, row_degrees)


def _resolve(rd: RingData, quotient, presentation: PolyMatrix,
             truncation=None, row_degrees=None) -> FreeResolution:
    """The stages of a minimal resolution over A/(g), g the forms in
    ``quotient`` (none over A), through homological degree ``truncation``
    when it is given.  The rows of the presentation lie in
    ``row_degrees``, all 0 by default.

    A stage's run keeps a column exactly when it lies outside the span of
    the kept columns of lower degree, the later columns of its degree and
    the g_k e_j (see ``ModuleGB``).  That is the rule that goes
    through the columns in ascending (degree, index) order and drops each
    one in the span of the columns not yet dropped: had it dropped j, with
    v_j a combination of kept earlier columns and later ones in which some
    earlier i has a nonzero coefficient, then the earliest such i lies in
    the span of the columns after it and would have been dropped in turn.
    The rule reads only the classes of the columns modulo (g), and so do
    the syzygies, whose g_k e_j coordinates are dropped: no candidate
    needs reducing modulo (g) first.  A stage's syzygies are module
    vectors in the coordinates of its kept columns, so they are the next
    stage's candidates as they stand, and d_t is its kept columns as they
    stand too, in the degrees its run recorded.

    The nonzero columns of the presentation, after ``split_unit_entries``,
    are the only ones checked for homogeneity (``column_degree``, a
    PipelineError); every later candidate is a syzygy of homogeneous
    columns, and the runs read degrees off one term.
    Each stage's run is tracked except the one at the truncation, which
    takes no syzygies.  ``image_bases`` keeps every stage's run when the
    resolution is untruncated, the one the higher homotopies lift
    through, and no run otherwise.  The resolution is complete unless it
    reaches the truncation.  An untruncated one must end by stage n + 1,
    as over A (Hilbert's syzygy theorem); a stage past it is an
    AssertionError.
    """
    ring = rd.ring
    cols, row_degrees = split_unit_entries(
        presentation, row_degrees or [0] * presentation.nrows)
    cols = [c for c in cols if c]
    for c in cols:
        column_degree(ring, c, row_degrees)
    degrees = [list(row_degrees)]
    diffs = []
    bases = {}
    while cols and (truncation is None or len(diffs) < truncation):
        hom = len(diffs) + 1
        if truncation is None and hom > rd.n + 1:
            raise AssertionError("untruncated resolution past stage n + 1")
        rank = len(degrees[-1])
        gb = ModuleGB(ring, rank, cols, hom != truncation, degrees[-1],
                      quotient_columns(quotient, rank))
        if not gb.kept:
            break
        diffs.append([cols[j] for j in gb.kept])
        degrees.append(gb.kept_degrees)
        if truncation is None:
            bases[hom] = gb
        cols = gb.syzygies() if gb.track else ()
    return FreeResolution(
        rd, diffs, degrees,
        complete=truncation is None or len(diffs) < truncation,
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
        [transposed(res.differentials[L - j], len(res.degrees[L - j]))
         for j in range(1, L + 1)],
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
    when n - dim M = L, with dim M read off the leading monomials of the
    basis of im d_1 that ``resolve_over_a`` kept (``image_bases``).  L is
    at least 1: ``Pipeline.dual_is_module`` decides L = 0 (the zero module)
    before it calls this.
    """
    return res.length == res.ring_data.n - res.image_bases[1].dimension()
