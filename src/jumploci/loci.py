"""Cohomological jump loci, complexity, Betti degree and friends.

Every prime p of S assigns to a twisted complex X the cohomological rank
crk_p = r - 2 rank D(p); the jump locus V^i is the closed set where
crk >= i, cut out by the minor ideal I_t(D) with t = floor((r-i)/2) + 1
at every integer i, under the two determinantal conventions: I_t = (1)
for t <= 0, so V^i is empty for i > r, and I_t = 0 above the rank of D,
so V^i is all of Spec S for i <= 0 (``PolyMatrix.minors`` reads both off
its table).  The tests check it against the exterior-power Fitting
route, the route with a case for each index outside 1..r, and the
additivity of the loci over direct sums (``tests/oracles.py``).

A JumpLociReport holds the jump loci of one complex as its plateaus,
the runs of indices between two jump numbers on which V^i does not
change, each with its jump ideal and dimension, decided once by
``jump_loci_report``; ``compute``, ``dual``, ``realize`` and
``duality_check`` read them as they are.  It holds no generic rank: only
``crk`` prints the generic crk, through ``crk_at``.
Every Betti-side invariant is read off one quasi-polynomial (P_0, P_1), a
binomial sum on each parity over the Hilbert numerator h of H(X) over S,
with P_M(t) = h(t)/(1 - t^2)^c (``_quasi_polynomial``): ``betti`` prints
it as the tail of the Betti numbers that expand h, and the complexity
and the Betti degree are the degree + 1 and the scaled leading
coefficient of its leading term.  The tests check the complexity
against dim V^1, off the minors (Avramov-Buchweitz, Invent. Math. 142,
2000), and twice the Betti degree against the generic crk where the
complexity is c.
h is read off the numerator h_C of coker D, one untracked column basis:
D raises the cohomological degree u by one and D^2 = 0, so
h = (1 + 1/t) h_C - (1/t) sum_i t^{u_i} for any D, minimal or not.
The generic crk is rank_S H(X) = h(1) = r - 2 rank D, and
``PolyMatrix.generic_rank`` gives rank D: for a fine-graded D (each entry
one monomial, with row and column potentials) its rank at the 0/1 point
(1, ..., 1), and for any other D, r - h_C(1) off the same kind of
numerator as h.  D of every example file is fine, its ci degrees being
independent in the finest grading, but for the sessions ``lin_n2``,
``cubes_lin``, ``nm_n3`` and ``nm_n3_qq``.
These are invariants of M when X = X(M) is built from the minimal
A-free resolution of M, as ``build_pipeline`` builds it for a cokernel.
The reports read X as given, minimal as ``build_twisted_complex``
returns it and as s_dual, sums and Koszul objects keep it.
X(M*) is s_dual(X), a transpose with the minor ideals of X, so M and M*
have the same jump loci by construction.

The point oracle (``stable_betti_oracle``) checks crk_a against the
stable Betti number of M over the hypersurface B_a = A/(sum a_i f_i),
read off Tate's resolution of k over B_a (``_TateComplex``) or, past
``MAX_TATE_DIM``, off a resolution of M over B_a: routes that read no
homotopy of M.

``complexity_of`` (through ``homology_presentation``) and
``duality_check`` run in no command.  They are test oracles, kept here
only because the benchmark tracer wraps them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, le

from .poly import PolyRing
from .matrix import PolyMatrix, echelon
from .groebner import Ideal, ModuleGB, module_hilbert_data
from .resolution import (RingData, PipelineError, FreeResolution,
                         resolve_over_b)
from .twisted import (TwistedComplex, minimalize, homology_presentation,
                      direct_sum, koszul_object_list, free_complex)


class RouteDisagreement(AssertionError):
    """Two complexes given to ``duality_check`` differ in a jump locus."""


# -- cohomological rank ---------------------------------------------------


def crk_at(X: TwistedComplex, point=None) -> int:
    """crk at a closed point of k^c, or at the generic point when
    ``point`` is None.  For a fine D both are ranks at 0/1 points: crk is
    constant on the torus of each coordinate subspace L_Z, where it is
    crk at e_Z, the point 1 on Z and 0 off it, and the generic crk is crk
    at (1, ..., 1) (``matrix``)."""
    if point is not None:
        return X.rank - 2 * X.D.rank_at(point)
    return X.rank - 2 * X.D.generic_rank()


# -- jump locus ideals ----------------------------------------------------


def jump_locus_ideal(X: TwistedComplex, i: int) -> Ideal:
    """The reduced I_t(D) with t = floor((r - i)/2) + 1, so that
    V^i = V(result) for X minimal, at every integer i: I_t = (1) for
    t <= 0 (i > r, V^i empty) and I_t = 0 above the rank of D (i <= 0
    among others, V^i all of Spec S), as ``PolyMatrix.minors`` reads its
    table."""
    return Ideal(X.S, X.D.minors((X.rank - i) // 2 + 1)).reduced()


# -- reports --------------------------------------------------------------


class JumpLociReport:
    """The jump loci of one complex as plateaus, off the minors of D, and
    its complexity and Betti degree, off h (``betti_degree``).

    A plateau (i_from, i_to, I, dim) says that V^i = V(I), of dimension
    dim, for i_from <= i <= i_to; i_to is a jump number, an index with
    V^i != V^{i+2}, and i_from is 1 or one past the jump number before.
    The last plateau is the empty set from one past the last jump number
    on, (j + 1, j + 1, the unit ideal, -1), with j = 0 when there is no
    jump number."""

    def __init__(self, rank: int, plateaus: list, complexity: int,
                 betti_degree: int):
        self.rank = rank
        self.plateaus = plateaus
        self.jump_numbers = [i_to for _, i_to, _, _ in plateaus[:-1]]
        self.complexity = complexity
        self.betti_degree = betti_degree  # None when complexity is 0


def jump_loci_report(X: TwistedComplex) -> JumpLociReport:
    """The plateaus of the jump loci of X, found at the indices
    1 <= i <= r of the rank's parity, the only ones that can jump: V^i on
    the other parity is V^{i+1}.  Minor ideals are nested,
    I_t(D) <= I_{t-1}(D), so V^i contains V^{i+2} and only the other
    inclusion is tested; past the last index V^{i+2} is empty, given by
    the unit ideal unreduced.  Each index where the test fails ends a
    plateau, and only that plateau's ideal has its dimension read."""
    r = X.rank
    indices = range(2 - r % 2, r + 1, 2)
    ideals = [jump_locus_ideal(X, i) for i in indices]
    unit = Ideal(X.S, [X.S.one()])
    plateaus, start = [], 1
    for i, I, J in zip(indices, ideals, ideals[1:] + [unit]):
        if not I.radical_contains_ideal(J):
            plateaus.append((start, i, I, I.dimension()))
            start = i + 1
    plateaus.append((start, start, unit, -1))
    return JumpLociReport(r, plateaus, *betti_degree(X))


def complexity_of(X: TwistedComplex) -> int:
    """Krull dimension of H(X) = Ext, off the leads of one Groebner run
    of its homology presentation (``ModuleGB.dimension``): the tests'
    oracle of the complexity that ``betti_degree`` reads off h."""
    mat, _ = homology_presentation(minimalize(X))
    gb = ModuleGB(mat.ring, mat.nrows, mat.columns_as_vectors())
    return max(gb.dimension(), 0)


def _ext_numerator(X: TwistedComplex):
    """(h, c): the Hilbert numerator h of H(X) = Ext_B(M, k) over S, keyed
    by cohomological degree, and c = the number of chi.

    Each chi has weight 2, so the Hilbert series of H(X) is h(t)/(1 - t^2)^c.
    D raises the cohomological degree by one, so rank-nullity in each
    degree gives HS(H) = HS(X) - (1 + 1/t) HS(im D).  With HS(im D) =
    HS(X) - HS(coker D) this is h = (1 + 1/t) h_C - (1/t) sum_i t^{u_i},
    where h_C is the numerator of coker D and u_i are the basis degrees.
    Only D^2 = 0 is used, so the identity holds for any D, minimal or not;
    the reports pass a minimal one, the smaller matrix to take a basis of.
    """
    c = X.S.nvars
    u = [coh for coh, _ in X.basis_degrees]
    h_c = module_hilbert_data(X.D, u, (2,) * c)
    h = {}
    for d, v in h_c.items():
        h[d] = h.get(d, 0) + v
        h[d - 1] = h.get(d - 1, 0) + v
    for d in u:
        h[d - 1] = h.get(d - 1, 0) - 1
    return {d: v for d, v in h.items() if v}, c


def _quasi_polynomial(h, c: int):
    """(P_0, P_1): the polynomials in i that give the coefficient of t^i
    in h(t)/(1 - t^2)^c for every large i of parity e, each a tuple of
    Fractions in ascending powers of i, the zero polynomial being ().

    That coefficient is sum_{j = i mod 2} h_j C((i - j)/2 + c - 1, c - 1),
    and the binomial is the product of (i - j + 2k)/(2k) over
    k = 1..c-1, so P_e = N_e / (2^(c-1) (c-1)!) with the integer
    polynomial N_e(i) = sum_{j = e mod 2} h_j prod_k (i - j + 2k).
    """
    scale = prod(range(2, 2 * c - 1, 2))  # 2^(c-1) (c-1)!
    out = []
    for e in (0, 1):
        num = [0] * c
        for j, v in h.items():
            if j % 2 != e:
                continue
            term = [v]
            for k in range(1, c):
                # times (i + 2k - j)
                term = [a * (2 * k - j) + b
                        for a, b in zip(term + [0], [0] + term)]
            num = [a + b for a, b in zip(num, term)]
        while num and not num[-1]:
            num.pop()
        out.append(tuple(Fraction(a, scale) for a in num))
    return out


def betti_numbers(X: TwistedComplex, n: int):
    """(beta, tail): beta_0..beta_n over B of the module M with X = X(M),
    and the quasi-polynomial that gives them from some index on.

    H(X) = Ext_B(M, k) is a finitely generated module over S, so the
    Poincare series of M is h(t)/(1 - t^2)^c, with h the Hilbert numerator
    of H(X) in the cohomological grading (each chi of weight 2).  A zero
    beta_i forces every later one to vanish, so the dict stops at the last
    nonzero entry, as a finite resolution does; the zero module gives
    {0: 0}.

    On each parity e, beta_i is the one polynomial P_e(i) of
    ``_quasi_polynomial``, the same that ``betti_degree`` reads the
    complexity and the Betti degree off, for every i >= deg h - 2c + 2
    (Gulliksen, Math. Scand. 34, 1974; Avramov, Infinite free
    resolutions, 1998): only the indices below that bound are compared.
    With s_e the least index of parity e from which beta_i = P_e(i)
    through n, the tail is (P_0, P_1, max(s_0, s_1)), or None unless each
    parity has at least deg P_e + 3 indices from s_e through n (the zero
    polynomial counting as degree 0): deg P_e + 1 numbers fix P_e and two
    more confirm it.
    """
    h, c = _ext_numerator(X)
    beta = [h.get(i, 0) for i in range(n + 1)]
    for _ in range(c):
        for i in range(2, n + 1):
            beta[i] += beta[i - 2]
    exact_from = max(h, default=0) - 2 * c + 2
    branches = _quasi_polynomial(h, c)
    starts, confirmed = [], True
    for e, poly in enumerate(branches):
        top = n - (n - e) % 2
        s = top + 2
        for i in range(top, -1, -2):
            if i < exact_from and beta[i] != sum(
                    a * i ** p for p, a in enumerate(poly)):
                break
            s = i
        starts.append(s)
        confirmed &= len(range(s, n + 1, 2)) >= max(len(poly), 1) + 2
    while len(beta) > 1 and not beta[-1]:
        beta.pop()
    tail = (*branches, max(starts)) if confirmed else None
    return dict(enumerate(beta)), tail


def betti_degree(X: TwistedComplex) -> tuple:
    """(complexity, Betti degree), read off the leading term of the
    quasi-polynomial (P_0, P_1) of ``_quasi_polynomial`` that ``betti``
    prints: the complexity is 1 + the larger degree of P_0 and P_1, or 0
    when both are zero, and the Betti degree is
    lead(P_e) 2^(cx-1) (cx-1)! for a parity e whose P_e has that degree,
    or None when the complexity is 0.

    H(X) = Ext is the direct sum of its even and odd parts, S-modules
    whose Hilbert functions are P_0 and P_1 in large degrees, so these
    are the Krull dimension of Ext and the multiplicity of its part of
    top dimension in the degree-1 regrading (u = t^2).  A part of lower
    dimension carries multiplicity 0, and the two parities are
    cross-checked.  For X = X(M) from the minimal resolution of M these
    are the complexity and the Betti degree of M (Avramov, Infinite free
    resolutions, 1998).
    """
    branches = _quasi_polynomial(*_ext_numerator(X))
    complexity = max(map(len, branches))
    if not complexity:
        return 0, None
    scale = prod(range(2, 2 * complexity - 1, 2))  # 2^(cx-1) (cx-1)!
    e_even, e_odd = (int(poly[-1] * scale) if len(poly) == complexity
                     else 0 for poly in branches)
    if e_even != e_odd:
        raise AssertionError(
            f"even/odd multiplicities disagree: {e_even} != {e_odd}")
    return complexity, e_even


# -- duality --------------------------------------------------------------


def duality_check(rep: JumpLociReport, rep_dual: JumpLociReport) -> bool:
    """Compare the jump loci of two reports plateau by plateau, raising
    RouteDisagreement where they differ; return whether their Betti
    degrees agree.  The plateaus give V^i at every i >= 1, so two reports
    have the same loci exactly when their plateaus share (i_from, i_to),
    that is their jump numbers, and the varieties of their non-final
    plateaus agree.  A test oracle: the tests pass X and the dual built
    from the dualized resolution and homotopies."""
    if rep.jump_numbers != rep_dual.jump_numbers:
        raise RouteDisagreement(
            f"X jumps at {rep.jump_numbers} and its explicit dual at "
            f"{rep_dual.jump_numbers}")
    for (i, j, I, _), (_, _, J, _) in zip(rep.plateaus[:-1],
                                          rep_dual.plateaus[:-1]):
        if not I.same_variety(J):
            raise RouteDisagreement(
                f"X and its explicit dual disagree at jump indices {i}..{j}")
    return rep.betti_degree == rep_dual.betti_degree


# -- realizability --------------------------------------------------------


def realize(S: PolyRing, chain):
    """Build a complex whose jump loci walk down the given chain.

    ``chain`` is a list of IdealS starting with the zero ideal (Spec S),
    strictly descending as varieties, ending with the unit ideal (empty
    set).  Returns (X, report, ok): ok says whether every proper chain
    member has the variety of a non-final plateau of the report.  Every
    member is compared, also after one fails.
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
    # the zero ideal is always realized by V^0 = Spec S
    ok = all([member.is_zero_ideal()
              or any(member.same_variety(I) for _, _, I, _ in
                     report.plateaus[:-1])
              for member in chain[:-1]])
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
    that g does and the columns of d_1 alone span every f_k e_j, from
    which the Tate route reads its basis of M (``build_pipeline`` checks
    this, in the t = 0 lifts of ``compute_higher_homotopies``), and share
    one degree d, so that g is a form (``section_degree``).  For a nonzero
    g in the domain A, syzygy n - 1 of M over B_a is maximal
    Cohen-Macaulay, so by Eisenbud's matrix factorizations (Trans. AMS
    260, 1980) beta_i is constant for i >= n; the value is beta_(n+1),
    and beta_n != beta_(n+1) is an internal error.

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
    that reads no homotopy of M either, on d_1 of F as a matrix, formed
    from its columns once per command and not once per point.
    """
    d = section_degree(rd)
    sections = [_section(rd, a) for a in points]
    tate = _TateComplex(rd, resolution, d)
    try:
        return [tate.stable_betti(a) for a in points]
    except _TooLarge:
        rows = resolution.degrees[0]
        d1 = PolyMatrix.from_columns(rd.ring, len(rows),
                                     resolution.differentials[0])
        return [_resolved_stable_betti(rd, d1, rows, g) for g in sections]


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


def _resolved_stable_betti(rd: RingData, d1: PolyMatrix, rows, g) -> int:
    """beta_(n+1) of M = coker d1 over B = A/(g), resolved there through
    N = n + 1 (``resolve_over_b``) with the rows of d1 in degrees ``rows``:
    0 when the resolution ends first.  n + 1 graded Groebner runs per
    point, whose cost does not grow with dim_k M the way the Tate
    complex's does."""
    N = rd.n + 1
    res = resolve_over_b(RingData(rd.ring, [g]), d1, N, rows)
    if res.complete:
        return 0
    beta = res.betti()
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
# except ``sq_n6_e2`` (4,448), which this size proxy, not a cost model,
# sends to ``resolve_over_b``: 0.82-0.84 s for 10 points, against 0.26-0.27 s
# on the Tate route with the limit raised.
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
    ``ModuleGB`` run of the columns of d_1, filled only while it has at
    most ``MAX_TATE_DIM`` elements.  No f_k e_j is adjoined: f
    annihilates M, so each lies in im d_1 already, as the t = 0 lifts of
    ``compute_higher_homotopies`` prove before any point is read.  A summand
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
        cols = res.differentials[0] if res.length else []
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
                                    for lead, _ in self.gb.leads[j]))
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
                ranks[i, delta] = len(echelon(self.columns(i, delta, a),
                                              self.field))
            return ranks[i, delta]

        return _stable([sum(self.cells(i, delta)[1] - rank(i, delta)
                            - rank(i + 1, delta)
                            for delta in _shamash_degrees(self.res, i, self.d))
                        for i in (n, n + 1)], n)
