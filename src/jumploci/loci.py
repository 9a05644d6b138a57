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
These are invariants of M when X = X(M) is built from the minimal
A-free resolution of M, as ``build_pipeline`` builds it for a cokernel.
X(M*) is s_dual(X), a transpose with the minor ideals of X, so M and M*
have the same jump loci by construction.

``complexity_of`` (through ``homology_presentation``) and
``duality_check`` run in no command.  They are test oracles, kept here
only because the benchmark tracer wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poly import PolyRing
from .matrix import PolyMatrix
from .groebner import (Ideal, module_hilbert_data,
                       dimension_and_multiplicity)
from .resolution import RingData, PipelineError, resolve_over_b
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


def stable_betti_oracle(rd: RingData, presentation: PolyMatrix, a) -> int:
    """Stable Betti number of M over B_a = A/(g), g = sum a_i f_i.

    The f_i must share one degree, so that g is a form (``cmd_oracle``
    checks this), and must annihilate M = coker(presentation), so that g
    does (``build_pipeline`` checks this); the presentation is resolved
    as it stands, with no basis of its columns built here.  For a nonzero
    g in the domain A, syzygy n - 1 of M over B_a is maximal
    Cohen-Macaulay, so by Eisenbud's matrix factorizations (Trans. AMS
    260, 1980) beta_i is constant for i >= n and a finite resolution ends
    by step n.  M is resolved through N = n + 1: 0 when complete, else
    beta_N; beta_n != beta_N is an internal error.
    """
    if len(a) != rd.c:
        raise PipelineError("point arity mismatch")
    fld = rd.ring.field
    fa = rd.ring.zero()
    for ai, f in zip(a, rd.ci):
        fa = fa + f.scale(fld.coerce(ai))
    if fa.is_zero():
        raise PipelineError("the section sum a_i f_i vanishes")
    N = rd.n + 1
    res = resolve_over_b(RingData(rd.ring, [fa]), presentation, N)
    if res.complete:
        return 0
    beta = res.betti()
    if beta[N - 1] != beta[N]:
        raise AssertionError(f"hypersurface Betti numbers {beta[N - 1]} and "
                             f"{beta[N]} at steps {N - 1} and {N} differ")
    return beta[N]
