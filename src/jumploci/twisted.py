"""Twisted complexes: finite free dg modules over the operator ring S.

The twisted complex of a module M is Hom_A(F, k) tensored with
S = k[chi_1..chi_c], with differential D = sum over J of (sigma_J reduced
modulo the irrelevant ideal)^T tensor chi^J, including sigma_empty = d,
read in one pass off the module-vector columns F stores for d and the
homotopy system for each sigma_J.  The basis consists of the duals of
the free generators of F; the basis entry for a generator of F_t in
internal degree a is recorded as the pair (t, a), and every entry of D
in position (row i, col j) is bihomogeneous with chi-degree
colcoh_j - rowcoh_i + 1 (chi_i has cohomological weight 2) and internal
degree colint_j - rowint_i (chi_i has the internal degree of f_i).

D^2 = 0 and the degrees hold by construction and are not checked again:
the homotopy identities give D^2 = 0 modulo the irrelevant ideal (a
solved system holds the blocks D reads, each the block of a full system
by the lift contract, and the blocks it leaves out have no constant
term, so D is that system's; ingested actions are checked exactly), and
sigma_J maps F_t to F_{t+2|J|-1}.  Minimalization (a Schur complement
per contractible pair, by ``matrix.cancel_units``, the unit loop that
presentations share), the S-dual, sums and Koszul objects on a
homogeneous eta keep both; the tests check them on every constructor.
The last three, on a nonconstant eta, keep a complex minimal too, so
``build_twisted_complex`` minimalizes once and the reports read X as
given.

Duality (``s_dual``) is transposition with all basis degrees negated and
shifted back by the length of F, and it is the one route to X(M*).
"""

from __future__ import annotations

from .poly import Polynomial, PolyRing
from .matrix import PolyMatrix, cancel_units
from .groebner import ModuleGB
from .resolution import RingData, PipelineError
from .homotopy import HigherHomotopySystem


class TwistedComplex:
    def __init__(self, S: PolyRing, basis_degrees: list, D: PolyMatrix,
                 chi_internal: tuple = None):
        self.S = S
        # per generator: (cohomological, internal)
        self.basis_degrees = basis_degrees
        self.D = D  # square of size rank, over S
        self.chi_internal = chi_internal  # internal degrees of the chis

    @property
    def rank(self) -> int:
        return len(self.basis_degrees)


def build_twisted_complex(sys: HigherHomotopySystem,
                          rd: RingData) -> TwistedComplex:
    """Assemble D = sum_J (sigma_J mod m)^T chi^J on the duals of F, the
    resolution that carries ``sys``, minimalized once, for the reports:
    F of a cokernel is minimal and so is D; dg input may not be.

    One pass reads D off the stored columns, with d as the block of
    J = 0: the constant term c at row b of column a of sigma_J on F_t is
    the term c chi^J of D at row (t, a) and column (t + 2|J| - 1, b).  No
    two terms share a row and a chi^J in one column of D, so none is
    summed."""
    res = sys.resolution
    S = rd.operator_ring()
    basis = [(t, deg) for t, degs in enumerate(res.degrees) for deg in degs]
    start = [0]
    for degs in res.degrees:
        start.append(start[-1] + len(degs))
    cols = [{} for _ in basis]
    d = dict(enumerate(res.differentials, 1))
    for J, blocks in [((0,) * S.nvars, d), *sys.sigma.items()]:
        shift = 2 * sum(J) - 1
        for t, block in blocks.items():
            for a, col in enumerate(block, start[t]):
                for (b, mono), c in col.items():
                    if not any(mono):
                        cols[start[t + shift] + b][(a, J)] = c
    D = PolyMatrix.from_columns(S, len(basis), cols)
    return minimalize(TwistedComplex(S, basis, D, rd.ci_degrees))


def minimalize(X: TwistedComplex) -> TwistedComplex:
    """Cancel the contractible pairs: for the least unit entry (p, q)
    (``cancel_units``: a nonzero constant entry) a Schur complement, which
    drops row p and column q, then row q and column p go too, before the
    next unit is searched for, so basis elements p and q are gone;
    jump-locus data is unchanged.  A complex with no unit entry is
    returned as it is."""
    entries = dict(X.D.entries)
    live = set(range(X.rank))
    for p, q in cancel_units(entries, X.S.field):
        for key in [k for k in entries if k[0] == q or k[1] == p]:
            del entries[key]
        live -= {p, q}
    if len(live) == X.rank:
        return X
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
    cycles = gb_d.syzygies()
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
    relations = []
    # the lift of minus column j expresses column j in the cycles
    for col in (-X.D).columns_as_vectors():
        if not col:
            continue
        coeffs = gb_z.lift(col)
        if coeffs is None:
            raise AssertionError("boundary does not lie in the cycle span")
        relations.append(coeffs)
    relations.extend(gb_z.syzygies())
    return (PolyMatrix.from_columns(S, len(cycles), relations), gen_degrees)


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
    """X + Y, over the one operator ring S of both: ``realize`` builds
    every block it sums on the S of its chain file."""
    D = PolyMatrix.block_diag([X.D, Y.D])
    degs = list(X.basis_degrees) + list(Y.basis_degrees)
    chi_int = X.chi_internal or Y.chi_internal
    return TwistedComplex(X.S, degs, D, chi_int)


def koszul_object(X: TwistedComplex, eta: Polynomial) -> TwistedComplex:
    """Kos^S(eta) tensor X: the cone on multiplication by eta, for eta in
    the ring S of X: ``realize`` parses every chain member in the S of its
    chain file and builds X on that S."""
    S = X.S
    if not eta.is_homogeneous():
        raise PipelineError("Koszul element must be homogeneous")
    w = eta.degree()
    if w == 0:  # a unit: its cone is contractible, so not minimal
        raise PipelineError("Koszul element must have positive degree")
    if w > 0 and w % 2 != 0:
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
