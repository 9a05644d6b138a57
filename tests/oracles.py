"""Second routes the tests compare the program against.

The program computes each quantity one way.  The routes here compute
some of them another way, or check a property that the program holds by
construction, and no command runs them:

- the generic rank of a matrix by one fraction-free elimination, where
  the program reads it off the Hilbert numerator of the cokernel;
- the jump ideals by the exterior-power Fitting route, and the
  additivity of jump loci over direct sums;
- every defining identity of a system of higher homotopies, from all
  splittings of each multi-index (the construction checks only the
  identities its walk visits);
- the explicit dual X(M*), built from Hom_A(F, A) and the transposed
  homotopies, which ``twisted.s_dual`` must equal;
- the presentation of the dual module, with concentration decided from
  the syzygies of the transposed differentials rather than from
  Auslander-Buchsbaum as ``Pipeline.dual_is_module`` decides it;
- properties of a resolution (a complex, minimal, its Euler
  characteristic), syzygy matrices, shifted complexes, the normal form of
  a polynomial modulo an ideal and the canonical printing of a session.
"""

from __future__ import annotations

import itertools

from jumploci.groebner import Ideal, ModuleGB, vector_of
from jumploci.homotopy import (HigherHomotopySystem, _solving_order,
                               dualize_homotopies)
from jumploci.loci import jump_locus_ideal
from jumploci.matrix import PolyMatrix
from jumploci.poly import Polynomial
from jumploci.resolution import FreeResolution, RingData, dualize_over_a
from jumploci.session import Session
from jumploci.twisted import (TwistedComplex, build_twisted_complex,
                              direct_sum, minimalize)


def syzygy_matrix(mat: PolyMatrix) -> PolyMatrix:
    """A matrix K with mat @ K = 0 whose columns generate all syzygies of
    the columns of ``mat``, from one tracked run."""
    gb = ModuleGB(mat.ring, mat.nrows, mat.columns_as_vectors(), track=True)
    return PolyMatrix.from_columns(mat.ring, mat.ncols, gb.syzygies())


def exact_divide(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """The quotient p / divisor, when the division is exact."""
    fld = p.ring.field
    rem = dict(p.terms)
    out = {}
    lead = divisor.lead_monomial()
    inv = fld.inv(divisor.lead_coeff())
    while rem:
        m = max(rem, key=p.ring.mono_key)
        quot = tuple(a - b for a, b in zip(m, lead))
        if any(e < 0 for e in quot):
            raise ArithmeticError("division is not exact")
        qc = out[quot] = fld.mul(rem[m], inv)
        for mono, c in divisor.terms.items():
            mono = tuple(a + b for a, b in zip(quot, mono))
            c = fld.add(rem.get(mono, fld.zero()), fld.neg(fld.mul(qc, c)))
            if c:
                rem[mono] = c
            else:
                rem.pop(mono, None)
    return Polynomial(p.ring, out)


def whole_matrix_rank(mat: PolyMatrix) -> int:
    """Rank over the fraction field by one fraction-free (Bareiss)
    elimination of the whole matrix: each step pivots on a shortest entry,
    and every new entry is divided exactly by the previous pivot."""
    zero = mat.ring.zero()
    work = dict(mat.entries)
    prev = mat.ring.one()
    rank = 0
    while work:
        (pr, pc) = min(work, key=lambda k: (len(work[k].terms), k))
        pivot = work[pr, pc]
        rank += 1
        col = {r: p for (r, c), p in work.items() if c == pc and r != pr}
        row = {c: p for (r, c), p in work.items() if r == pr and c != pc}
        nxt = {}
        for r in {r for r, _ in work} - {pr}:
            for c in {c for _, c in work} - {pc}:
                num = pivot * work.get((r, c), zero)
                if r in col and c in row:
                    num = num - col[r] * row[c]
                if not num.is_zero():
                    nxt[(r, c)] = exact_divide(num, prev)
        work = nxt
        prev = pivot
    return rank


# -- twisted complexes ------------------------------------------------------


def normal_form(I: Ideal, p: Polynomial) -> Polynomial:
    """Remainder of ``p`` on division by the reduced basis of ``I``."""
    if p.is_zero():
        return p
    w = I._basis().normal_form(vector_of(p))
    return Polynomial(I.ring, {m: c for (_, m), c in w.items()})


def shift(X: TwistedComplex, s: int) -> TwistedComplex:
    """X with every cohomological degree raised by s."""
    return TwistedComplex(X.S, [(a + s, b) for (a, b) in X.basis_degrees],
                          X.D, X.chi_internal)


# -- jump loci --------------------------------------------------------------


def jump_locus_via_exterior_power(X: TwistedComplex, i: int) -> Ideal:
    """Fitting-ideal route: I_{r-i+1}(D + D) by minor convolution, which
    cuts out V^i as the minor route ``loci.jump_locus_ideal`` does."""
    X = minimalize(X)
    S = X.S
    if i == 0:
        return Ideal(S, [])
    r = X.rank
    if i > r:
        return Ideal(S, [S.one()])
    s = r - i + 1
    g = X.D.generic_rank()
    if s > 2 * g:
        return Ideal(S, [])

    def minors(u):
        return [S.one()] if u == 0 else X.D.minors(u)

    gens = []
    seen = set()
    for u in range(max(0, s - g), min(g, s) + 1):
        right = minors(s - u)
        for a in minors(u):
            for b in right:
                p = (a * b).monic()
                if p not in seen:
                    seen.add(p)
                    gens.append(p)
    return Ideal(S, gens).reduced()


def additivity_check(X: TwistedComplex, Y: TwistedComplex) -> bool:
    """V^l(X + Y) = union over i+j=l of V^i(X) int V^j(Y), up to radical:
    an intersection is cut out by the sum of the ideals, a union by their
    product."""
    Z = minimalize(direct_sum(X, Y))
    for l in range(1, Z.rank + 1):
        left = jump_locus_ideal(Z, l)
        rhs = None
        for i in range(0, l + 1):
            I, J = jump_locus_ideal(X, i), jump_locus_ideal(Y, l - i)
            term = Ideal(Z.S, I.gens + J.gens).reduced()
            rhs = term if rhs is None else Ideal(
                Z.S, [g * h for g in rhs.gens for h in term.gens]).reduced()
        if not left.same_variety(rhs):
            return False
    return True


# -- higher homotopies ------------------------------------------------------


def _diff(res: FreeResolution, t: int):
    """d_t: F_t -> F_{t-1}, or None when out of range."""
    if 1 <= t <= res.length:
        return res.differentials[t - 1]
    return None


def _block(sys: HigherHomotopySystem, J, t):
    """sigma_J on F_t; None is the zero block (zero blocks are not
    stored)."""
    return sys.sigma.get(tuple(J), {}).get(t)


def _splittings(J):
    """All (J', J'') with J' + J'' = J, both nonzero."""
    ranges = [range(a + 1) for a in J]
    for Jp in itertools.product(*ranges):
        if sum(Jp) == 0 or Jp == J:
            continue
        Jpp = tuple(a - b for a, b in zip(J, Jp))
        yield Jp, Jpp


def _identities(c, L):
    """(J, splittings of J, t) for every defining identity, in solving
    order, t upwards."""
    for total, Js in _solving_order(c, L):
        for J in Js:
            splits = list(_splittings(J))
            for t in range(0, L - 2 * total + 3):
                yield J, splits, t


def _residual(sys: HigherHomotopySystem, rd: RingData, J, splits, t):
    """The identity of J at degree t, as a map F_t -> F_{t + 2|J| - 2}:
    the sum over all ordered splittings J' + J'' = J of sigma_J' o sigma_J''
    (sigma_empty = d), minus f_i * id when J = e_i.  Absent blocks count as
    zero; the identity holds exactly when the residual is zero."""
    res = sys.resolution
    ranks = [len(d) for d in res.degrees]
    deg = 2 * sum(J) - 1
    pairs = [(_diff(res, t + deg), _block(sys, J, t)),
             (_block(sys, J, t - 1), _diff(res, t))]
    pairs += [(_block(sys, Jp, t + 2 * sum(Jpp) - 1), _block(sys, Jpp, t))
              for Jp, Jpp in splits]
    if deg == 1:
        base = PolyMatrix.identity(rd.ring, ranks[t],
                                   scalar=-rd.ci[J.index(1)])
    else:
        base = PolyMatrix.zero(rd.ring, ranks[t + deg - 1], ranks[t])
    return PolyMatrix.sum_of_products(
        base, [(a, b) for a, b in pairs if a is not None and b is not None])


def verify_system(sys: HigherHomotopySystem, rd: RingData):
    """Assert every defining identity exactly, formed from all splittings
    of J; raises AssertionError naming the first that fails.  The
    construction checks only the identities its walk visits."""
    for J, splits, t in _identities(rd.c, sys.resolution.length):
        if not _residual(sys, rd, J, splits, t).is_zero():
            raise AssertionError(
                f"homotopy identity fails for J={J} at degree {t}")


def dualize_and_verify(sys: HigherHomotopySystem, dual: FreeResolution,
                       rd: RingData) -> HigherHomotopySystem:
    """``dualize_homotopies``, then every identity of the dual system.  A
    transpose keeps every identity, so this checks the transport."""
    dual_sys = dualize_homotopies(sys, dual)
    verify_system(dual_sys, rd)
    return dual_sys


def explicit_dual(res: FreeResolution, sys: HigherHomotopySystem,
                  rd: RingData) -> TwistedComplex:
    """X(M*) built the explicit way: the twisted complex of Hom_A(F, A)
    with the transposed, verified homotopies."""
    return build_twisted_complex(
        dualize_and_verify(sys, dualize_over_a(res), rd), rd)


# -- resolutions ------------------------------------------------------------


def is_minimal(res: FreeResolution) -> bool:
    """No differential has an entry with a nonzero constant term."""
    return all(not p.constant_term()
               for d in res.differentials for p in d.entries.values())


def check_complex(res: FreeResolution) -> bool:
    """Consecutive differentials compose to zero."""
    return all((res.differentials[i] @ res.differentials[i + 1]).is_zero()
               for i in range(res.length - 1))


def resolution_euler_numerator(res: FreeResolution):
    """Alternating sum of generator-degree monomials, as dict deg -> int."""
    out = {}
    for i, degs in enumerate(res.degrees):
        s = 1 if i % 2 == 0 else -1
        for d in degs:
            out[d] = out.get(d, 0) + s
            if not out[d]:
                del out[d]
    return out


def syzygy_concentration(res: FreeResolution) -> bool:
    """Hom_A(F, A) is exact at every spot below the last, checked with the
    syzygies of each transposed differential and membership in the image
    of the previous one."""
    ring = res.ring_data.ring
    for j in range(res.length):
        syz = syzygy_matrix(res.differentials[j].transpose())
        if j == 0:
            if syz.ncols != 0:
                return False
            continue
        down = res.differentials[j - 1].transpose()
        gb = ModuleGB(ring, down.nrows, down.columns_as_vectors())
        if not all(gb.contains(col) for col in syz.columns_as_vectors()):
            return False
    return True


def dual_presentation(res: FreeResolution):
    """Presentation of the dual module M* = coker d_L^T and the degrees of
    its rows, -deg F_L, when Hom_A(F, A) is concentrated (by
    ``syzygy_concentration``) and F has length at least one, else None."""
    L = res.length
    if L < 1 or not syzygy_concentration(res):
        return None
    dual = dualize_over_a(res)
    return dual.differentials[0], dual.degrees[0]


# -- sessions ---------------------------------------------------------------


def _fmt_matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(p) for p in row) + "]" for row in rows) + "]"


def _matrix_rows(mat: PolyMatrix):
    zero = mat.ring.zero()
    return [[mat.entries.get((i, j), zero) for j in range(mat.ncols)]
            for i in range(mat.nrows)]


def print_session(session: Session) -> str:
    """The canonical text of a session; parsing it gives the session
    back, so printing is idempotent through a parse."""
    rd = session.ring_data
    ring = rd.ring
    lines = []
    if ring.field.p == 0:
        lines.append("field QQ")
    else:
        lines.append(f"field GF({ring.field.p})")
    lines.append("ring " + ", ".join(ring.variables)
                 + " weights " + ", ".join(str(w) for w in ring.weights))
    lines.append("ci " + ", ".join(str(f) for f in rd.ci))
    mod = session.module
    if mod.kind == "coker":
        lines.append("module coker " + _fmt_matrix(mod.rows))
    else:
        parts = []
        for k, mat in enumerate(mod.differentials, start=1):
            parts.append(f"d{k} " + _fmt_matrix(_matrix_rows(mat)))
        lines.append("complex " + " ".join(parts))
        for i, blocks in enumerate(mod.actions, start=1):
            lines.append(f"action e{i} " + " ".join(
                _fmt_matrix(_matrix_rows(b)) for b in blocks))
    return "\n".join(lines) + "\n"
