"""Twisted complexes: finite free dg modules over the operator ring S.

The twisted complex of a module M is Hom_A(F, k) tensored with
S = k[chi_1..chi_c], with differential D = sum over J of (sigma_J reduced
modulo the irrelevant ideal) tensor chi^J, including sigma_empty = d.  The
basis consists of the duals of the free generators of F; the basis entry
for a generator of F_t in internal degree a is recorded as the pair
(t, a), and every entry of D in position (row i, col j) is bihomogeneous
with chi-degree colcoh_j - rowcoh_i + 1 (chi_i has cohomological weight 2)
and internal degree colint_j - rowint_i (chi_i has the internal degree of
f_i).

D^2 = 0 and the degrees hold by construction and are not checked again:
the homotopy identities, checked exactly as they are solved or ingested,
give D^2 = 0 modulo the irrelevant ideal, and sigma_J maps F_t to
F_{t+2|J|-1}.  Minimalization (a Schur complement per contractible pair,
``matrix.cancel_unit``), the S-dual, sums and Koszul objects on a
homogeneous eta keep both.  The tests check them on every constructor.

Duality (``s_dual``) is transposition with all basis degrees negated and
shifted back by the length of F, and it is the one route to X(M*).
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Polynomial, PolyRing
from .matrix import PolyMatrix, cancel_unit, least_unit
from .groebner import ModuleGB, coeffs_to_matrix, vector_of
from .resolution import RingData, PipelineError
from .homotopy import HigherHomotopySystem


@dataclass
class TwistedComplex:
    S: PolyRing
    basis_degrees: list        # per generator: (cohomological, internal)
    D: PolyMatrix              # square of size rank, over S
    chi_internal: tuple = None  # internal degrees of the chi variables

    @property
    def rank(self) -> int:
        return len(self.basis_degrees)

    def is_minimal(self) -> bool:
        return all(not p.constant_term() for p in self.D.entries.values())


def build_twisted_complex(sys: HigherHomotopySystem,
                          rd: RingData) -> TwistedComplex:
    """Assemble D = sum_J (sigma_J mod m)^T chi^J on the duals of F, the
    resolution that carries ``sys``."""
    res = sys.resolution
    S = rd.operator_ring()
    L = res.length
    index = {}
    basis = []
    for t in range(L + 1):
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
            row = index[(t, a)]
            col = index[(t + m, b)]
            key = (row, col)
            term = S.monomial(chi_mono, c0)
            entries[key] = entries.get(key, S.zero()) + term

    for t in range(1, L + 1):
        add_block(res.differentials[t - 1], t, -1, (0,) * S.nvars)
    for J, blocks in sys.sigma.items():
        m = 2 * sum(J) - 1
        for t, mat in blocks.items():
            add_block(mat, t, m, J)
    entries = {k: v for k, v in entries.items() if not v.is_zero()}
    D = PolyMatrix(S, len(basis), len(basis), entries)
    return TwistedComplex(S, basis, D, rd.ci_degrees)


def minimalize(X: TwistedComplex) -> TwistedComplex:
    """Cancel the contractible pairs: for the least unit entry (p, q) a
    Schur complement (``cancel_unit``), then basis elements p and q go;
    jump-locus data is unchanged.  A complex that is already minimal is
    returned as it is."""
    if X.is_minimal():
        return X
    entries = dict(X.D.entries)
    live = set(range(X.rank))
    while (unit := least_unit(entries)) is not None:
        p, q = unit
        cancel_unit(entries, p, q, X.S.field)
        entries = {(r, c): poly for (r, c), poly in entries.items()
                   if r != q and c != p}
        live -= {p, q}
    live = sorted(live)
    remap = {old: new for new, old in enumerate(live)}
    degs = [X.basis_degrees[i] for i in live]
    D = PolyMatrix(X.S, len(live), len(live),
                   {(remap[r], remap[c]): poly
                    for (r, c), poly in entries.items()})
    return TwistedComplex(X.S, degs, D, X.chi_internal)


def homology_presentation(X: TwistedComplex):
    """Presentation of H(X) over S: (matrix, generator degree pairs).

    Generators are the kernel cycles of D; relations express the columns
    of D in the cycle generators together with the syzygies among the
    cycles.  Production reads the Hilbert numerator of H(X) off coker D
    (``loci._ext_numerator``); this route is the tests' oracle for it and
    for the complexity, kept under the name the benchmark tracer wraps.
    """
    S = X.S
    r = X.rank
    gb_d = ModuleGB(S, r, X.D.columns_as_vectors(), track=True)
    cycles = [vector_of(s, S) for s in gb_d.syzygies()]
    cycles = [c for c in cycles if c]
    if not cycles:
        return (PolyMatrix.zero(S, 0, 0), [])
    gen_degrees = []
    for cyc in cycles:
        degs = set()
        for (comp, m) in cyc:
            coh, intd = X.basis_degrees[comp]
            extra_int = (sum(e * w for e, w in zip(m, X.chi_internal))
                         if X.chi_internal else 0)
            degs.add((coh + S.wdeg(m), intd + extra_int))
        if len(degs) != 1:
            raise AssertionError("inhomogeneous homology generator")
        gen_degrees.append(degs.pop())
    gb_z = ModuleGB(S, r, cycles, track=True)
    fld = S.field
    relations = []
    for j in range(X.D.ncols):
        col = {}  # minus column j, so that its lift expresses column j
        for (rr, cc), p in X.D.entries.items():
            if cc == j:
                for m, co in p.terms.items():
                    col[(rr, m)] = fld.neg(co)
        if not col:
            continue
        coeffs = gb_z.lift(col)
        if coeffs is None:
            raise AssertionError("boundary does not lie in the cycle span")
        relations.append(coeffs)
    relations.extend(dict(enumerate(s)) for s in gb_z.syzygies())
    return (coeffs_to_matrix(S, relations, len(cycles)), gen_degrees)


def s_dual(X: TwistedComplex) -> TwistedComplex:
    """Hom_S(X, S), shifted: D transposed and each basis degree (u, a)
    sent to (L - u, -a), with L the top plus the bottom u.  The basis
    lists u from the top down, in the order of X within each u, so the
    S-dual of X(M) is X(M*) entry for entry, and s_dual(s_dual(X)) = X
    when X lists u upwards, as X(M) and every dual do."""
    coh = [u for u, _ in X.basis_degrees]
    L = max(coh, default=0) + min(coh, default=0)
    order = sorted(range(X.rank), key=lambda i: -coh[i])
    new = {old: pos for pos, old in enumerate(order)}
    degs = [(L - X.basis_degrees[i][0], -X.basis_degrees[i][1])
            for i in order]
    entries = {(new[c], new[r]): p for (r, c), p in X.D.entries.items()}
    D = PolyMatrix(X.S, X.rank, X.rank, entries)
    return TwistedComplex(X.S, degs, D, X.chi_internal)


def direct_sum(X: TwistedComplex, Y: TwistedComplex) -> TwistedComplex:
    if X.S != Y.S:
        raise PipelineError("direct sum over different operator rings")
    D = PolyMatrix.block_diag([X.D, Y.D])
    degs = list(X.basis_degrees) + list(Y.basis_degrees)
    chi_int = X.chi_internal or Y.chi_internal
    return TwistedComplex(X.S, degs, D, chi_int)


def koszul_object(X: TwistedComplex, eta: Polynomial) -> TwistedComplex:
    """Kos^S(eta) tensor X: the cone on multiplication by eta."""
    S = X.S
    if eta.ring != S:
        raise PipelineError("Koszul element lives in the wrong ring")
    if not eta.is_homogeneous():
        raise PipelineError("Koszul element must be homogeneous")
    w = eta.degree()
    if w >= 0 and w % 2 != 0:
        raise PipelineError("Koszul element must have even degree")
    int_shift = 0
    if X.chi_internal and not eta.is_zero():
        int_shift, *other = {sum(e * wi for e, wi in zip(m, X.chi_internal))
                             for m in eta.terms}
        if other:
            raise PipelineError("Koszul element must have one internal degree")
    r = X.rank
    entries = {}
    for (i, j), p in X.D.entries.items():
        entries[(i, j)] = p
        entries[(r + i, r + j)] = -p
    if not eta.is_zero():
        for i in range(r):
            entries[(i, r + i)] = eta
    shift_coh = (w - 1) if w >= 0 else 1
    degs = list(X.basis_degrees) + [(a + shift_coh, b + int_shift)
                                    for (a, b) in X.basis_degrees]
    D = PolyMatrix(S, 2 * r, 2 * r, entries)
    return TwistedComplex(S, degs, D, X.chi_internal)


def koszul_object_list(X: TwistedComplex, etas) -> TwistedComplex:
    for eta in etas:
        X = koszul_object(X, eta)
    return X


def free_complex(S: PolyRing, rank: int, chi_internal=None,
                 degrees=None) -> TwistedComplex:
    """Rank-r complex with zero differential (e.g. the residue-field model)."""
    degs = degrees if degrees is not None else [(0, 0)] * rank
    return TwistedComplex(S, list(degs), PolyMatrix.zero(S, rank, rank),
                          chi_internal)
