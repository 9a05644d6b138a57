"""Cohomological jump loci, complexity, Betti degree and friends.

Every prime p of S assigns to a twisted complex X the cohomological rank
crk_p = r - 2 rank D(p); the jump locus V^i is the closed set where
crk >= i, cut out by the minor ideal I_t(D) with t = floor((r-i)/2) + 1.
The tests check it against the exterior-power Fitting route and the
additivity of the loci over direct sums (``tests/oracles.py``).

A JumpLociReport holds every jump ideal of one complex, computed once;
its jump numbers are computed when first read.  It holds no generic
rank: only ``crk`` prints the generic crk, through ``crk_at``.  Every
Betti-side invariant comes from one Hilbert numerator h of H(X) over S,
with P_M(t) = h(t)/(1 - t^2)^c: the Betti numbers expand it, and the
Betti degree reads the dimension and multiplicity of its even and odd
parts.  The tests check that twice the Betti degree is the generic crk
where the complexity is c.
h is read off the numerator h_C of coker D, one untracked column basis:
D raises the cohomological degree u by one and D^2 = 0, so
h = (1 + 1/t) h_C - (1/t) sum_i t^{u_i} for any D, minimal or not.
The generic crk is rank_S H(X) = h(1): ``PolyMatrix.generic_rank``
reads rank D = r - h_C(1) off the same kind of numerator.
These are invariants of M when X = X(M) is built from the minimal
A-free resolution of M, as ``build_pipeline`` builds it for a cokernel.
X(M*) is s_dual(X), a transpose with the minor ideals of X, so M and M*
have the same jump loci by construction.

The point oracle checks crk_a against the stable Betti number of M over
the hypersurface B_a = A/(sum a_i f_i), through a route that reads no
homotopy of M.  It is dim H_(n+1)(M (x)_A K(x)<y>), where K(x)<y> is
Tate's resolution of k over B_a (Illinois J. Math. 1, 1957): the Koszul
complex on the variables with one divided-power variable y of degree 2.
Over B_a the Betti numbers are constant from step n on (Eisenbud, Trans.
AMS 260, 1980).  The complex splits by internal degree, and Tor_i lives
in the degrees of step i of Shamash's resolution built from F, so one
basis of M through the top of them, one untracked Groebner run per
command, serves every point.  Tate's differential is linear in a, so
each of its maps is one pencil K + sum_k a_k Y_k built once per command,
and a point costs one linear combination and eliminations over k.
The variables in no relation of M and no f_k are dropped first.  The
cost of a point grows with dim_k M through those degrees, so the pieces
are counted as they are built, and once they hold more than
``MAX_TATE_DIM`` basis elements M is resolved over each B_a through
step n + 1 instead (``resolve_over_b`` on d_1 of F), whose cost does not
grow that way.  Every point reads the same pieces, so the first point
decides the route for the whole command.

``complexity_of`` (through ``homology_presentation``) and
``duality_check`` run in no command.  They are test oracles, kept here
only because the benchmark tracer wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, le

from .poly import PolyRing
from .matrix import scalar_rank
from .groebner import (Ideal, ModuleGB, module_hilbert_data,
                       dimension_and_multiplicity)
from .resolution import (RingData, PipelineError, FreeResolution,
                         resolve_over_b)
from .twisted import (TwistedComplex, minimalize, homology_presentation,
                      direct_sum, koszul_object_list, free_complex)


class RouteDisagreement(AssertionError):
    """Two complexes given to ``duality_check`` differ in a jump locus."""


# -- cohomological rank ---------------------------------------------------


def crk_at(X: TwistedComplex, point=None) -> int:
    """crk at a closed point of k^c, or at the generic point when
    ``point`` is None."""
    if point is not None:
        if len(point) != X.S.nvars:
            raise PipelineError("point arity mismatch")
        return X.rank - 2 * X.D.rank_at(point)
    return X.rank - 2 * X.D.generic_rank()


# -- jump locus ideals ----------------------------------------------------


def jump_locus_ideal(X: TwistedComplex, i: int) -> Ideal:
    """I_t(D) with t = floor((r - i)/2) + 1; V^i = V(result).  Above the
    generic rank of D every t-minor vanishes and the ideal is zero."""
    X = minimalize(X)
    S = X.S
    if i == 0:
        return Ideal(S, [])
    if i < 0:
        raise PipelineError("jump index must be nonnegative")
    r = X.rank
    if i > r:
        return Ideal(S, [S.one()])
    return Ideal(S, X.D.minors((r - i) // 2 + 1)).reduced()


# -- reports --------------------------------------------------------------


@dataclass
class JumpLociReport:
    rank: int
    per_index: list         # (i, Ideal, dimension of V^i)
    complexity: int
    betti_degree: int       # None when complexity is 0

    def ideal_at(self, i: int):
        """The jump ideal of V^i for i >= 1, or None (the unit ideal)
        above the rank.  An index of the other parity than the rank has
        the ideal of i + 1.  Read only by ``duality_check``."""
        i += (self.rank - i) % 2
        return next((I for j, I, _ in self.per_index if j == i), None)

    @cached_property
    def jump_numbers(self) -> list:
        """The indices i with V^i != V^{i+2}, computed on first read."""
        out = []
        for pos, (i, I, _) in enumerate(self.per_index):
            # minor ideals are nested, I_t(D) <= I_{t-1}(D), so V^i contains
            # V^{i+2} by construction and only the other inclusion needs a
            # test; above the last index V^{i+2} is empty
            if pos + 1 < len(self.per_index):
                same = I.radical_contains_ideal(self.per_index[pos + 1][1])
            else:
                same = I.is_unit_ideal()
            if not same:
                out.append(i)
        return out


def jump_loci_report(X: TwistedComplex) -> JumpLociReport:
    X = minimalize(X)
    r = X.rank
    if r == 0:
        return JumpLociReport(0, [], 0, None)
    # only indices of the rank's parity can jump
    start = 2 if r % 2 == 0 else 1
    per_index = []
    for i in range(start, r + 1, 2):
        I = jump_locus_ideal(X, i)
        per_index.append((i, I, I.dimension()))
    # the complexity is dim V^1, and V^1 = V^2 when the rank is even
    cx = per_index[0][2]
    bdeg = betti_degree(X) if cx >= 1 else None
    return JumpLociReport(r, per_index, cx, bdeg)


def complexity_of(X: TwistedComplex) -> int:
    """Krull dimension of H(X) = Ext, from its homology presentation.

    The reports read the complexity as dim V^1 and ``betti_degree`` from
    the parts of H(X); this independent route is the tests' oracle.
    """
    mat, _ = homology_presentation(minimalize(X))
    dim, _, _ = module_hilbert_data(mat, [0] * mat.nrows, (1,) * X.S.nvars)
    return max(dim, 0)


def _ext_numerator(X: TwistedComplex):
    """(h, c): the Hilbert numerator h of H(X) = Ext_B(M, k) over S, keyed
    by cohomological degree, and c = the number of chi.

    Each chi has weight 2, so the Hilbert series of H(X) is h(t)/(1 - t^2)^c.
    D raises the cohomological degree by one, so rank-nullity in each
    degree gives HS(H) = HS(X) - (1 + 1/t) HS(im D).  With HS(im D) =
    HS(X) - HS(coker D) this is h = (1 + 1/t) h_C - (1/t) sum_i t^{u_i},
    where h_C is the numerator of coker D and u_i are the basis degrees.
    Only D^2 = 0 is used, so the identity holds for any D, minimal or not;
    the minimalized D is the smaller matrix to take the basis of.
    """
    X = minimalize(X)
    c = X.S.nvars
    u = [coh for coh, _ in X.basis_degrees]
    _, _, h_c = module_hilbert_data(X.D, u, (2,) * c)
    h = {}
    for d, v in h_c.items():
        h[d] = h.get(d, 0) + v
        h[d - 1] = h.get(d - 1, 0) + v
    for d in u:
        h[d - 1] = h.get(d - 1, 0) - 1
    return {d: v for d, v in h.items() if v}, c


def betti_numbers(X: TwistedComplex, n: int) -> dict:
    """beta_0..beta_n over B of the module M with X = X(M).

    H(X) = Ext_B(M, k) is a finitely generated module over S, so the
    Poincare series of M is h(t)/(1 - t^2)^c, with h the Hilbert numerator
    of H(X) in the cohomological grading (each chi of weight 2).  A zero
    beta_i forces every later one to vanish, so the dict stops at the last
    nonzero entry, as a finite resolution does; the zero module gives
    {0: 0}.
    """
    h, c = _ext_numerator(X)
    beta = [h.get(i, 0) for i in range(n + 1)]
    for _ in range(c):
        for i in range(2, n + 1):
            beta[i] += beta[i - 2]
    while len(beta) > 1 and not beta[-1]:
        beta.pop()
    return dict(enumerate(beta))


def betti_degree(X: TwistedComplex) -> int:
    """Multiplicity of the even part of Ext in the degree-1 regrading, or
    None when the complexity is 0.

    H(X) = Ext is the direct sum of its even and odd parts, S-modules whose
    Hilbert series are the parts of h(t)/(1 - t^2)^c of that parity (the
    denominator is even).  With u = t^2 the part of parity e is
    t^e * h_e(u)/(1 - u)^c, where h_e collects the h_j with j = e mod 2, so
    its dimension and multiplicity are read off h_e over k[u].  The
    complexity is the larger of the two dimensions, and only a part of that
    dimension carries a multiplicity.  Cross-checked against the odd part.
    For X = X(M) from the minimal resolution of M these are the complexity
    and the Betti degree of M.
    """
    h, c = _ext_numerator(X)
    parts = []
    for parity in (0, 1):
        part = {j // 2: v for j, v in h.items() if j % 2 == parity}
        parts.append(dimension_and_multiplicity(part, c))
    complexity = max(dim for dim, _ in parts)
    if complexity <= 0:
        return None
    e_even, e_odd = (mult if dim == complexity else 0 for dim, mult in parts)
    if e_even != e_odd:
        raise AssertionError(
            f"even/odd multiplicities disagree: {e_even} != {e_odd}")
    return e_even


# -- duality --------------------------------------------------------------


def duality_check(rep: JumpLociReport, rep_dual: JumpLociReport) -> bool:
    """Compare the jump loci of two reports, raising RouteDisagreement at
    the first index where they differ; return whether their Betti degrees
    agree.  A test oracle: the tests pass X and the dual built from the
    dualized resolution and homotopies."""
    # the jump ideal at i >= 1 depends only on t = floor((rank - i)/2) + 1,
    # so indices sharing both minor sizes share one comparison
    checked = set()
    for i in range(1, max(rep.rank, rep_dual.rank) + 1):
        key = ((rep.rank - i) // 2, (rep_dual.rank - i) // 2)
        if key in checked:
            continue
        checked.add(key)
        I, J = rep.ideal_at(i), rep_dual.ideal_at(i)
        if I is None or J is None:
            same = (J if I is None else I).is_unit_ideal()
        else:
            same = I.same_variety(J)
        if not same:
            raise RouteDisagreement(
                f"X and its explicit dual disagree at jump index {i}")
    return rep.betti_degree == rep_dual.betti_degree


# -- realizability --------------------------------------------------------


def realize(S: PolyRing, chain):
    """Build a complex whose jump loci walk down the given chain.

    ``chain`` is a list of IdealS starting with the zero ideal (Spec S),
    strictly descending as varieties, ending with the unit ideal (empty
    set).  Returns (X, report, ok): for every proper chain member there
    must be a plateau of the report realizing it.
    """
    if not chain or not chain[0].is_zero_ideal():
        raise PipelineError("chain must start at the zero ideal (Spec S)")
    if not chain[-1].is_unit_ideal():
        raise PipelineError("chain must end at the unit ideal (empty set)")
    for a, b in zip(chain, chain[1:]):
        # b contains a up to radical, so V(b) is V(a) exactly when a
        # contains b up to radical
        if not b.radical_contains_ideal(a):
            raise PipelineError("chain is not descending")
        if a.radical_contains_ideal(b):
            raise PipelineError("chain is not strictly descending")
    middle = chain[1:-1]
    blocks = []
    # rank 2^nu with nu = 1: generators split across the two parities
    base = free_complex(S, 2, degrees=[(0, 0), (1, 0)])
    if not middle:
        blocks.append(base)
    for I in middle:
        blocks.append(koszul_object_list(base, I.gens))
    X = blocks[0]
    for Y in blocks[1:]:
        X = direct_sum(X, Y)
    report = jump_loci_report(X)
    # each proper chain member must appear as a plateau variety; the zero
    # ideal is always realized by V^0 = Spec S
    plateau_ideals = [ideal for (_, ideal, _) in report.per_index]
    ok = True
    for member in chain[:-1]:
        if member.is_zero_ideal():
            continue
        if not any(member.same_variety(p) for p in plateau_ideals):
            ok = False
    return X, report, ok


# -- stable Betti oracle --------------------------------------------------


def section_degree(rd: RingData) -> int:
    """The one degree the f_i share, so that every section sum a_i f_i
    is a form; PipelineError when they do not share one."""
    degrees = rd.ci_degrees
    if len(set(degrees)) > 1:
        raise PipelineError("the oracle needs ci generators of one degree, "
                            f"not {', '.join(map(str, degrees))}")
    return degrees[0]


def stable_betti_oracle(rd: RingData, resolution: FreeResolution,
                        points) -> list:
    """The stable Betti number of M over B_a = A/(g), g = sum a_i f_i, at
    each point a of ``points``.

    ``resolution`` is the minimal free resolution F of M = coker d_1 over
    A, as ``build_pipeline`` builds it.  The f_i must annihilate M, so
    that g does (``build_pipeline`` checks this), and share one degree d,
    so that g is a form (``section_degree``).  For a nonzero g in the
    domain A, syzygy n - 1 of M over B_a is maximal Cohen-Macaulay, so by
    Eisenbud's matrix factorizations (Trans. AMS 260, 1980) beta_i is
    constant for i >= n; the value is beta_(n+1), and beta_n != beta_(n+1)
    is an internal error.

    beta_i = dim Tor_i^B(M, k) is read off Tate's resolution of k over
    B = B_a (Illinois J. Math. 1, 1957): the Koszul complex K(x) with one
    divided-power variable y, dy = sum_s h_s e_s, where g = sum_s h_s x_s.
    So beta_i = dim H_i(M (x)_A K(x)<y>), linear algebra over k on a basis
    of M (``_TateComplex``); only the y-part depends on a.  The complex
    splits by internal degree, and Tor_i lives in the degrees of the
    generators of any free B-resolution at step i, here Shamash's,
    G_i = sum_j F_(i-2j)(-j d) (``_shamash_degrees``).  So M is needed
    only through the top of them, and a module of infinite length is
    handled exactly too.  This route reads no homotopy of M, so it checks
    crk independently.

    A point costs the eliminations of the pieces it reads, which grow with
    dim_k M through the Shamash degrees.  Every point reads the same
    pieces, so when the first one's outgrow ``MAX_TATE_DIM`` as they are
    built (``_TooLarge``), M is resolved over B_a through step n + 1 at
    every point instead (``_resolved_stable_betti``), a Groebner route
    that reads no homotopy of M either.
    """
    d = section_degree(rd)
    sections = [_section(rd, a) for a in points]
    tate = _TateComplex(rd, resolution, d)
    try:
        return [tate.stable_betti(a) for a in points]
    except _TooLarge:
        return [_resolved_stable_betti(rd, resolution, g) for g in sections]


def _section(rd: RingData, a):
    """g = sum a_i f_i, after the arity and zero checks."""
    if len(a) != rd.c:
        raise PipelineError("point arity mismatch")
    fld = rd.ring.field
    g = rd.ring.zero()
    for ai, f in zip(a, rd.ci):
        g = g + f.scale(fld.coerce(ai))
    if g.is_zero():
        raise PipelineError("the section sum a_i f_i vanishes")
    return g


def _stable(beta: list, n: int) -> int:
    """beta_(n+1) of ``beta`` = [beta_n, beta_(n+1)], which must agree."""
    if beta[0] != beta[1]:
        raise AssertionError(f"hypersurface Betti numbers {beta[0]} and "
                             f"{beta[1]} at steps {n} and {n + 1} differ")
    return beta[1]


def _resolved_stable_betti(rd: RingData, res: FreeResolution, g) -> int:
    """beta_(n+1) of M = coker d_1 of ``res`` over B = A/(g), resolved
    there through N = n + 1 (``resolve_over_b``) with the rows of d_1 in
    their degrees: 0 when the resolution ends first.  n + 1 graded
    Groebner runs per point, whose cost does not grow with dim_k M the
    way the Tate complex's does."""
    N = rd.n + 1
    over_b = resolve_over_b(RingData(rd.ring, [g]), res.differentials[0], N,
                            res.degrees[0])
    if over_b.complete:
        return 0
    beta = over_b.betti()
    return _stable([beta[N - 1], beta[N]], N - 1)


def _shamash_degrees(res: FreeResolution, i: int, d: int) -> list:
    """The internal degrees of the generators of G_i = sum_j F_(i-2j)(-jd),
    step i of the Shamash resolution of M over a hypersurface of degree d:
    the only degrees where Tor_i(M, k) can be nonzero."""
    return sorted({e + j * d for j in range(i // 2 + 1)
                   if i - 2 * j < len(res.degrees)
                   for e in res.degrees[i - 2 * j]})


def _cofactors(terms, n: int) -> list:
    """h_0..h_(n-1) with f = sum_s h_s x_s, for f given by its terms: each
    term goes to the first variable it contains.  Linear in f, and f has
    no constant term."""
    parts = [{} for _ in range(n)]
    for m, c in terms.items():
        s = next(s for s, e in enumerate(m) if e)
        parts[s][m[:s] + (m[s] - 1,) + m[s + 1:]] = c
    return parts


# Most basis elements of M (x) K(x)<y> over the pieces the oracle builds,
# counted as each is built, and of the basis of M they read, for which the
# Tate route runs; past it each point is resolved over its section.  A point
# of the Tate route costs about 5 us a basis element: 1 ms at 200, 6.5 ms
# at 976, 87 ms at 18,000 and 1.2 s at 362,000, where ``resolve_over_b``
# takes 0.2-70 ms a point on the same inputs (in process, on a shared
# 2-vCPU VM).  Every ``coker`` session and bench input has at most 192,
# except ``sq_n6_e2`` (4,448).
MAX_TATE_DIM = 1_000


class _TooLarge(Exception):
    """The pieces of the Tate complex built so far, or the basis of M,
    outgrow ``MAX_TATE_DIM``; raised while the first point is read."""


class _TateComplex:
    """M (x)_A K(x)<y> for M = coker d_1 of a free resolution over A and
    sections g of degree d, one internal degree at a time.  What no point
    changes is built on first use and kept: a basis of M, the matrices
    of the x_s and of the cofactors h_ks of f_k = sum_s h_ks x_s on it,
    and each differential as a pencil.  The differential is linear in a:
    d_i at the point a is K + sum_k a_k Y_k, where K is the Koszul part
    and Y_k holds the signed h_ks on each M_mu (``pencil``), so a point
    only forms that combination (``columns``).  The pieces (``cells``)
    are counted as they are built, and ``_TooLarge`` is raised once they
    hold more than ``MAX_TATE_DIM`` basis elements.

    A variable in no entry of d_1 and no f_k is a polynomial extension of
    both M and B_a, which Tor^(B_a)(M, k) does not see, so it is dropped:
    the x_s below are the variables left, n of them.  M_mu has the basis
    of the standard monomials (j, alpha) of degree mu of one untracked
    ``ModuleGB`` run of the columns of d_1 plus the f_k e_j, filled only
    while it has at most ``MAX_TATE_DIM`` elements.  A summand
    M_mu e_S y^(j) sits in homological degree |S| + 2j and internal
    degree mu + w(S) + j deg g, and
    d(m e_S y^(j)) = sum_(s in S) +-x_s m e_(S - s) y^(j)
                     + (-1)^|S| sum_(s not in S) h_s m e_S e_s y^(j-1).
    """

    def __init__(self, rd: RingData, res: FreeResolution, d: int):
        ring = rd.ring
        self.d = d
        self.field = ring.field
        self.res = res
        self.row_degrees = res.degrees[0]
        rank = len(self.row_degrees)
        cols = (res.differentials[0].columns_as_vectors() if res.length
                else []) + rd.quotient_columns(rank)
        monos = [m for f in rd.ci for m in f.terms]
        monos += [m for v in cols for _, m in v]
        used = [s for s in range(ring.nvars) if any(m[s] for m in monos)]
        self.n = n = len(used)
        self.c = rd.c
        self.weights = tuple(ring.weights[s] for s in used)
        ring = PolyRing(ring.field, tuple(ring.variables[s] for s in used),
                        self.weights)
        cols = [{(r, tuple(m[s] for s in used)): c for (r, m), c in v.items()}
                for v in cols]
        self.gb = ModuleGB(ring, rank, cols)
        self.leads = [[] for _ in range(rank)]
        for _, (comp, mono) in self.gb.basis:
            self.leads[comp].append(mono)
        # multiplier n * (k + 1) + s is h_ks, multiplier s is x_s
        self.multipliers = [
            ({tuple(int(t == s) for t in range(n)): self.field.one()},
             self.weights[s])
            for s in range(n)]
        for f in rd.ci:
            terms = {tuple(m[s] for s in used): c for m, c in f.terms.items()}
            self.multipliers += [(h, f.degree() - self.weights[s])
                                 for s, h in enumerate(_cofactors(terms, n))]
        self.subsets = []
        for mask in range(1 << n):
            members = [s for s in range(n) if mask >> s & 1]
            self.subsets.append(
                (mask, members, sum(self.weights[s] for s in members)))
        self._basis = {}
        self._top = min(self.row_degrees, default=0) - 1
        self._index = {}
        self._matrices = {}
        self._cells = {}
        self._size = 0
        self._pencils = {}

    # -- the basis of M and the multiplications on it ----------------------

    def basis(self, mu: int) -> list:
        """The standard monomials (j, alpha) of degree mu, in sorted order.
        Every divisor of a standard monomial is standard, so each is x_s
        times one of degree mu - w_s, or a generator e_j: the degrees are
        filled in ascending order, from the least generator degree."""
        zero = (0,) * self.n
        while self._top < mu:
            nu = self._top + 1
            found = {(j, zero) for j, e in enumerate(self.row_degrees)
                     if e == nu}
            for s, w in enumerate(self.weights):
                for j, alpha in self._basis.get(nu - w, ()):
                    found.add((j, alpha[:s] + (alpha[s] + 1,) + alpha[s + 1:]))
            out = sorted((j, alpha) for j, alpha in found
                         if not any(all(map(le, lead, alpha))
                                    for lead in self.leads[j]))
            if len(self._index) + len(out) > MAX_TATE_DIM:
                raise _TooLarge
            self._basis[nu] = out
            self._index.update((b, q) for q, b in enumerate(out))
            self._top = nu
        return self._basis.get(mu, [])

    def matrix(self, m: int, mu: int) -> list:
        """Multiplier m on M_mu, one sparse vector {position: scalar} in
        the basis of its target degree per basis element of M_mu."""
        key = (m, mu)
        out = self._matrices.get(key)
        if out is None:
            terms, shift = self.multipliers[m]
            self.basis(mu + shift)
            index = self._index
            out = []
            for j, alpha in self.basis(mu):
                v = {(j, tuple(map(add, alpha, beta))): c
                     for beta, c in terms.items()}
                out.append({index[t]: c
                            for t, c in self.gb.normal_form(v).items()})
            self._matrices[key] = out
        return out

    # -- the complex ---------------------------------------------------------

    def cells(self, i: int, delta: int):
        """The summands M_mu e_S y^(j) of homological degree i and internal
        degree delta: {(mask, j): (offset, mu)} and the dimension, which
        is added to the count of the pieces built."""
        key = (i, delta)
        out = self._cells.get(key)
        if out is None:
            offsets, dim = {}, 0
            for mask, members, w in self.subsets:
                if len(members) > i or (i - len(members)) % 2:
                    continue
                j = (i - len(members)) // 2
                mu = delta - w - j * self.d
                size = len(self.basis(mu))
                if size:
                    offsets[mask, j] = (dim, mu)
                    dim += size
            self._size += dim
            if self._size > MAX_TATE_DIM:
                raise _TooLarge
            out = self._cells[key] = (offsets, dim)
        return out

    def pencil(self, i: int, delta: int) -> list:
        """d_i in internal degree delta as the pencil K + sum_k a_k Y_k,
        one pair per column of its source: the Koszul part, a sparse
        vector, and the y-part {position: ((k, scalar), ...)}, the signed
        cofactors h_ks of each f_k on M_mu.  Each s of a column hits a
        summand of its own, so no two parts of a column share a
        position."""
        key = (i, delta)
        out = self._pencils.get(key)
        if out is not None:
            return out
        fld = self.field
        source, _ = self.cells(i, delta)
        target, _ = self.cells(i - 1, delta)
        out = []
        for (mask, j), (_, mu) in source.items():
            members = self.subsets[mask][1]
            koszul = [{} for _ in self.basis(mu)]
            for pos, s in enumerate(members):
                place = target.get((mask ^ 1 << s, j))
                if place is None:
                    continue
                for v, image in zip(koszul, self.matrix(s, mu)):
                    for t, c in image.items():
                        v[place[0] + t] = fld.neg(c) if pos % 2 else c
            ys = [{} for _ in koszul]
            for s in range(self.n if j else 0):
                place = target.get((mask | 1 << s, j - 1))
                if mask >> s & 1 or place is None:
                    continue
                above = sum(1 for t in members if t > s)
                negate = (len(members) + above) % 2
                for k in range(self.c):
                    h = self.matrix(self.n * (k + 1) + s, mu)
                    for y, image in zip(ys, h):
                        for t, c in image.items():
                            y.setdefault(place[0] + t, []).append(
                                (k, fld.neg(c) if negate else c))
            out += zip(koszul, ys)
        self._pencils[key] = out
        return out

    def columns(self, i: int, delta: int, a) -> list:
        """The columns of d_i in internal degree delta at the point a,
        K + sum_k a_k Y_k, as sparse vectors."""
        fld = self.field
        p = fld.p
        a = [fld.coerce(ak) for ak in a]
        vectors = []
        for koszul, y in self.pencil(i, delta):
            v = dict(koszul)
            for t, parts in y.items():
                value = sum(a[k] * c for k, c in parts)
                if p:
                    value %= p
                if value:
                    v[t] = value
            vectors.append(v)
        return vectors

    def stable_betti(self, a) -> int:
        """beta_n = beta_(n+1) of M over B_a, where g = sum a_k f_k is a
        nonzero form of degree d."""
        n = self.n
        ranks = {}

        def rank(i, delta):
            if (i, delta) not in ranks:
                ranks[i, delta] = scalar_rank(self.columns(i, delta, a),
                                              self.field)
            return ranks[i, delta]

        return _stable([sum(self.cells(i, delta)[1] - rank(i, delta)
                            - rank(i + 1, delta)
                            for delta in _shamash_degrees(self.res, i, self.d))
                        for i in (n, n + 1)], n)
