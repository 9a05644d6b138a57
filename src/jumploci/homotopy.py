"""Systems of higher homotopies on a finite free resolution.

For f_1..f_c acting on a resolution F of a module they annihilate, a
system assigns to every multi-index J (|J| >= 1) an endomorphism sigma_J
of F of homological degree 2|J| - 1, subject to (with sigma_empty := d)

    sum over J' + J'' = J of sigma_J' o sigma_J''  =  f_i * id   (J = e_i)
                                                  =  0           (|J| >= 2).

Blocks are stored per source homological degree, as the columns the
construction solves: ``sigma[J][t]`` is the list of module vectors
{(row, monomial): coeff}, one per basis vector of F_t, of the map
F_t -> F_{t + 2|J| - 1}, as F stores each d_t.  Zero blocks are not stored,
also of a system given by dg actions: an absent block is the zero block,
and ``sigma[J]`` may be empty.  The twisted complex reads only the
constant terms of the blocks, and sigma_J is homogeneous of degree
deg f_J in the input's finest grading (``_grading``: each row of F_0
graded as finely as d_1 allows, and the identity on monomial input whose
columns of d_1 are single terms; its lattice is the kernel of the term
differences, back-substituted on the pivot rows of ``matrix.echelon``,
the one elimination over k), so a block can have one only where some
generator a of F_t and b of F_{t + 2|J| - 1} have deg b - deg a = deg f_J
there.  Construction solves the identities of those blocks and of every
block they are solved from (``_needed``), and no other: a block it leaves
out has no constant term, by degrees, and a block it solves is the one a
solve of every identity would give, read off the same residual through the
same tracked run.
It solves the defining relations degreewise (``_walk``): the residual of
an identity on each basis vector of F_t is summed from these columns and
d's by the product kernel of ``groebner`` (``add_image``, then
``reduced``), with sigma_J' o sigma_J'' for each splitting of J whose
blocks are stored (``_splittings``), and a nonzero one is lifted through
the tracked run d came from.  Only the identities whose residual can be
nonzero are walked.  The lift contract v + d c = 0 makes each solved
identity hold, so none is formed again; checked at run time is that each
lift exists.  No identity at the top, where sigma_J[t] would leave F, is
formed: a full system exists when f is a regular sequence that
annihilates M, so they hold.

Dualization along Hom_A(-, A) is plain blockwise transposition, which
preserves all identities because each relation is symmetric in the
compositions being transposed, so the dual system is not checked again.
``dualize_homotopies`` runs in no command: it is the tests' explicit
route to X(M*), which ``twisted.s_dual`` must equal, kept here only
because the benchmark tracer wraps it by name.  The tests check every
identity from all splittings of J, of a system that solves every
identity and of its dual, and compare the blocks constructed here with
that system's (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, le, mul, sub

from .field import QQ
from .groebner import add_image, reduced, transposed
from .matrix import echelon
from .poly import Polynomial
from .resolution import FreeResolution, RingData, PipelineError


class HigherHomotopySystem:
    def __init__(self, resolution: FreeResolution, sigma: dict):
        self.resolution = resolution
        self.sigma = sigma  # J -> {t: the columns of sigma_J on F_t}


def _unit(c, i):
    return tuple(int(a == i) for a in range(c))


def _multi_indices(c, total):
    for cuts in itertools.combinations(range(total + c - 1), c - 1):
        prev = -1
        J = []
        for cut in cuts:
            J.append(cut - prev - 1)
            prev = cut
        J.append(total + c - 2 - prev)
        yield tuple(J)


@functools.cache
def _solving_order(c, L):
    """((total, the multi-indices J with |J| = total), ...) in an order in
    which the identities can be solved: e_1..e_c, then each higher total
    in the order of ``_multi_indices``.  The identity of J at degree t
    lands in F_{t + 2|J| - 2}, so identities exist only for
    2|J| - 2 <= L.  Cached: the need set, the walk and ``_splittings``
    read it."""
    return tuple((total, tuple(_unit(c, i) for i in range(c)) if total == 1
                  else tuple(_multi_indices(c, total)))
                 for total in range(1, L // 2 + 2))


@functools.cache
def _splittings(J):
    """(J', J'', |J''|) for every splitting J' + J'' = J into nonzero
    parts, by |J''| ascending, then J' in solving order."""
    total = sum(J)
    order = dict(_solving_order(len(J), 2 * total - 2))  # totals 1..|J|
    return tuple((Jp, tuple(map(sub, J, Jp)), s) for s in range(1, total)
                 for Jp in order[total - s] if all(map(le, Jp, J)))


def _walk(res: FreeResolution, rd: RingData, blocks, need=None):
    """(J, t, cols) for every identity to walk whose residual can be
    nonzero, in solving order; ``cols`` are the columns of the identity of
    J at degree t, F_t -> F_{t + 2|J| - 2}, as module vectors.  Column c is
    the sum over J' + J'' = J of sigma_J'(sigma_J''[t] e_c) (sigma_empty =
    d), minus f_i e_c when J = e_i, summed in one dict from the columns in
    ``blocks`` ({J: {t: columns}}, given an empty dict for each J it
    lacks) by ``add_image`` and reduced mod p once.  ``need`` names the
    identities the caller solves, (J, t) for t up to ``need[J]``
    (``_needed``): it may store blocks[J][t] before the walk goes on, and
    a block stored before the walk is not visited.  With ``need`` None the
    blocks are given: every identity is walked, the top ones too, and a
    given block enters its identity as d o sigma_J[t].

    An identity reads the products sigma_J'[t + 2|J''| - 1] o sigma_J''[t]
    of ``_splittings(J)`` straight from ``blocks``, in that order, where
    the blocks of lower totals are final.  It is visited when one of them
    has both blocks stored, when sigma_J[t - 1] or (given) sigma_J[t] is
    stored (the terms with d), or when |J| = 1 (the term f_i * id); every
    other residual is zero by construction.
    """
    given = need is None
    L = res.length
    ranks = res.betti()
    p = rd.ring.field.p
    d = [None] + res.differentials
    for total, Js in _solving_order(rd.c, L):
        deg = 2 * total - 1
        for J in Js:
            own = blocks.setdefault(J, {})
            f = rd.ci[J.index(1)].terms if total == 1 else {}
            for t in range(L - deg + 2 if given else need.get(J, -1) + 1):
                if t in own and not given:
                    continue
                pairs = [(blocks[Jp][t + 2 * s - 1], blocks[Jpp][t])
                         for Jp, Jpp, s in _splittings(J)
                         if t + 2 * s - 1 in blocks[Jp] and t in blocks[Jpp]]
                if t - 1 in own:
                    pairs.append((own[t - 1], d[t]))
                if t in own:
                    pairs.append((d[t + deg], own[t]))
                if not (pairs or f):
                    continue
                accs = [{(c, m): -a for m, a in f.items()} if f else {}
                        for c in range(ranks[t])]
                for a, b in pairs:
                    for v, acc in zip(b, accs):
                        if v:
                            add_image(a, v, acc)
                yield J, t, [acc and reduced(acc, p) for acc in accs]


def _grading(res: FreeResolution, rd: RingData):
    """The input's finest grading, as (W, the degrees of f_1..f_c, the
    degrees of the generators of F_0..F_L).  A term of F_0 is the vector
    (exponent, e_row) of Z^n + Z^(rank F_0), and a term of a ring element
    (exponent, 0).  W is an integer basis, as rows, of the vectors
    orthogonal to the differences of the terms inside each f_i and inside
    each column of d_1: ``matrix.echelon`` over QQ takes the differences
    to pivot rows, and for each free column, in ascending order, the
    kernel vector that is 1 there and 0 at the other free columns is
    solved pivot by pivot, in descending lead order, and scaled by the lcm
    of its denominators.  That vector is unique, so W is the one the
    reduced echelon form gives.  The degree of a term is W times its
    vector: so each row of F_0 has a degree of its own, as finely as d_1
    allows, and on monomial input whose columns of d_1 are single terms W
    is the identity and a degree is a multidegree.  Every grading of the
    input factors through W, the one in ``res.degrees`` too, so two
    degrees that agree in W agree there.  A degree is read down F, a
    column of d_t in the degree of one of its terms: every f_i and every
    column of d_1 is homogeneous in W by its construction, and S-vectors,
    reductions and lifts of homogeneous vectors are homogeneous in any
    grading that makes the columns they start from homogeneous.  So every
    map of F is homogeneous, and so is every block sigma_J, of degree
    W f_J."""
    n, rows = rd.n, len(res.degrees[0])

    def vector(r, m):  # the term m at row r of F_0, r = None in the ring
        return [*m, *(int(i == r) for i in range(rows))]

    diffs = []
    for terms in [[vector(None, m) for m in f.terms] for f in rd.ci] + [
            [vector(r, m) for r, m in col] for col in res.differentials[0]]:
        first, *rest = terms
        diffs += [{j: Fraction(a - b) for j, (a, b) in
                   enumerate(zip(u, first)) if a != b} for u in rest]
    pivots = echelon(diffs, QQ)
    W = []
    for free in range(n + rows):
        if free in pivots:
            continue
        w = {free: Fraction(1)}
        for j in sorted(pivots, reverse=True):  # w has no j yet
            w[j] = -sum(a * w.get(k, 0) for k, a in pivots[j].items())
        scale = math.lcm(*(a.denominator for a in w.values()))
        W.append([int(w.get(j, 0) * scale) for j in range(n + rows)])
    # W's first n columns grade the ring: zip stops at the exponent's end
    degree = functools.cache(lambda m: tuple(sum(map(mul, w, m)) for w in W))
    fine = [[tuple(w[n + r] for w in W) for r in range(rows)]]
    for cols in res.differentials:
        fine.append([tuple(map(add, fine[-1][r], degree(m)))
                     for r, m in (next(iter(col)) for col in cols)])
    return W, [degree(next(iter(f.terms))) for f in rd.ci], fine


def _needed(res: FreeResolution, rd: RingData) -> dict:
    """The identities (J, t) whose blocks sigma_J[t] X(M) reads, and those
    whose blocks they are solved from, as {J: top t}: the set is closed
    under t -> t - 1, so it holds (J, 0..top).  sigma_J[t] is homogeneous
    of degree deg f_J in the input's finest grading (``_grading``), so it
    has a constant term only if some generator a of F_t and b of
    F_{t + 2|J| - 1} have deg b - deg a = deg f_J there: those are the
    seeds.  The grading in ``res.degrees`` factors through that one, so
    the gap in Z is a necessary condition: it is tested first, over the
    few distinct degrees in Z, and only a (J, t) that passes is tested in
    the finest grading, which is built on the first such test.  The set
    is the same as with the finest test alone, which is some 20 times
    slower where many J meet many multidegrees (``res_n7_e2``: 329 J, up
    to 35 multidegrees in one F_t, and no seed).  The set is the closure
    of the seeds under the blocks an identity reads: solving (J, t) reads
    sigma_J[t - 1], and sigma_J''[t] and sigma_J'[t + 2|J''| - 1] for each
    splitting J' + J'' = J (``_splittings``, the walk's list).  The first
    is in the set as it stands, and so is the second once the third is,
    since J'' is the J' of the splitting J'' + J' at t + 2|J'| - 1 >= t.
    The third is of lower total, so one pass over the totals from the top
    down closes the set.  Every identity in it has its block inside F."""
    L = res.length
    degrees = [set(degs) for degs in res.degrees]
    fdeg = rd.ci_degrees
    order = _solving_order(rd.c, L)
    fine = None
    top = {}
    for total, Js in order:
        deg = 2 * total - 1
        for t in range(L - deg, -1, -1):
            gaps = {b - a for a in degrees[t] for b in degrees[t + deg]}
            for J in Js:
                if J in top or sum(map(mul, J, fdeg)) not in gaps:
                    continue
                if fine is None:
                    _, fine_fdeg, fine = _grading(res, rd)
                    fine = [set(degs) for degs in fine]
                gap = [sum(map(mul, J, w)) for w in zip(*fine_fdeg)]
                if any(tuple(map(add, a, gap)) in fine[t + deg]
                       for a in fine[t]):
                    top[J] = t
    for total in range(len(order), 1, -1):
        for J in [J for J in top if sum(J) == total]:
            for Jp, _, s in _splittings(J):
                top[Jp] = max(top.get(Jp, -1), top[J] + 2 * s - 1)
    return top


def _brief(p: Polynomial) -> str:
    """``p`` in full, or its leading term and term count when it prints
    longer than 60 characters."""
    text = str(p)
    if len(text) <= 60:
        return text
    lead = p.lead_monomial()
    return (f"{p.ring.monomial(lead, p.terms[lead])} + ... "
            f"({len(p.terms)} terms)")


def compute_higher_homotopies(res: FreeResolution,
                              rd: RingData) -> HigherHomotopySystem:
    """Solve the blocks of a homotopy system on a resolution over A that
    X(M) reads, and every block they are solved from (``_needed``).

    The t = 0 identities of the e_i come first: sigma_{e_i}[0] lifts
    -f_i e_j through d_1, which exists exactly when f_i e_j lies in im d_1.
    So they check that f annihilates M = coker d_1, before the costlier
    regular-sequence test, naming the first f_i e_j that fails in
    ``resolution.quotient_columns`` order; with L = 0 only M = 0 passes.
    The Tate route of the point oracle takes this as given, and reads its
    basis of M off the columns of d_1 alone.  The regular-sequence test
    comes next, for M = 0 too.  ``res`` must be untruncated, as
    ``resolve_over_a`` builds it: the lifts go through the runs it keeps
    in ``image_bases``, which a truncated resolution does not keep.
    Each further identity the walk visits is solved column by column, and
    its lift makes it hold (``ModuleGB.lift``: v + d c = 0).  A lift that
    does not exist is an AssertionError.
    """
    ring = rd.ring
    L = res.length
    ranks = res.betti()
    blocks = {}
    d1 = res.image_bases.get(1)  # None when L = 0
    for i, f in enumerate(rd.ci):
        cols = []
        for j in range(ranks[0]):
            h = d1 and d1.lift(
                {(j, m): ring.field.neg(a) for m, a in f.terms.items()})
            if not h:
                raise PipelineError(f"f_{i + 1} = {_brief(f)} does not "
                                    f"annihilate the module")
            cols.append(h)
        blocks[_unit(rd.c, i)] = {0: cols}
    if not rd.is_regular_sequence():
        raise PipelineError(
            "f is not a regular sequence; supply an explicit complex "
            "with dg actions instead")
    if L == 0:
        return HigherHomotopySystem(res, {})
    for J, t, cols in _walk(res, rd, blocks, _needed(res, rd)):
        if not any(cols):
            continue
        gb = res.image_bases[t + 2 * sum(J) - 1]
        lifted = [v and gb.lift(v) for v in cols]
        if None in lifted:
            raise AssertionError(
                f"homotopy identity fails for J={J} at degree {t}")
        blocks[J][t] = lifted
    return HigherHomotopySystem(res, blocks)


def _dg_identity(J):
    """How the identity of J reads for a strict action: for |J| >= 3 every
    product has a factor sigma_J' with |J'| >= 2, which is zero, so only
    |J| <= 2 can fail."""
    e = [f"e{i + 1}" for i, a in enumerate(J) for _ in range(a)]
    if len(e) == 1:
        return f"d*{e[0]} + {e[0]}*d != f_{e[0][1:]}*id"
    if e[0] == e[1]:
        return f"{e[0]}*{e[0]} != 0"
    return f"{e[0]}*{e[1]} + {e[1]}*{e[0]} != 0"


def ingest_dg_structure(res: FreeResolution, actions,
                        rd: RingData) -> HigherHomotopySystem:
    """Validate strict dg actions e_1..e_c and wrap them as a system.

    ``actions[i]`` is the list of blocks e_i^(t): F_t -> F_{t+1} for
    t = 0..L-1.  As a system, sigma_{e_i} = e_i and sigma_J = 0 for
    |J| >= 2, so its identities read d e_i + e_i d = f_i id,
    e_i e_j + e_j e_i = 0 (i != j) and e_i e_i = 0, in every
    characteristic.  They are walked as the construction walks them, with
    no lift; the first that fails is reported with its indices.
    There are c actions: ``build_pipeline`` passes those of a session,
    which ``parse_session`` refuses unless they are e1..ec.
    """
    ranks = res.betti()
    L = res.length
    for i, blocks in enumerate(actions):
        if len(blocks) != L:
            raise PipelineError(
                f"action e{i + 1}: expected {L} blocks, got {len(blocks)}")
        for t, b in enumerate(blocks):
            if (b.nrows, b.ncols) != (ranks[t + 1], ranks[t]):
                raise PipelineError(
                    f"action e{i + 1} block {t}: shape "
                    f"{(b.nrows, b.ncols)} != {(ranks[t + 1], ranks[t])}")
    columns = {_unit(rd.c, i): {t: b.columns_as_vectors()
                                for t, b in enumerate(blocks)
                                if not b.is_zero()}
               for i, blocks in enumerate(actions)}
    for J, t, cols in _walk(res, rd, columns):
        entries = [(r, c) for c, v in enumerate(cols) for r, _ in v]
        if entries:
            raise PipelineError(f"{_dg_identity(J)} at block {t}, "
                                f"entry {min(entries)}")
    return HigherHomotopySystem(res, columns)


def dualize_homotopies(sys: HigherHomotopySystem,
                       dual: FreeResolution) -> HigherHomotopySystem:
    """Transport a system to the dualized resolution ``dualize_over_a``
    gives by blockwise transpose, sigma_J on F_t becoming the block on
    F*_{L - t - 2|J| + 1}; the tests' explicit route to X(M*), which
    s_dual must equal."""
    L = sys.resolution.length
    ranks = sys.resolution.betti()
    sigma = {}
    for J, blocks in sys.sigma.items():
        deg = 2 * sum(J) - 1
        sigma[J] = {L - t - deg: transposed(cols, ranks[t + deg])
                    for t, cols in blocks.items()}
    return HigherHomotopySystem(dual, sigma)
