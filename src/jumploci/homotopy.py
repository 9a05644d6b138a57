"""Systems of higher homotopies on a finite free resolution.

For f_1..f_c acting on a resolution F of a module they annihilate, a
system assigns to every multi-index J (|J| >= 1) an endomorphism sigma_J
of F of homological degree 2|J| - 1, subject to (with sigma_empty := d)

    sum over J' + J'' = J of sigma_J' o sigma_J''  =  f_i * id   (J = e_i)
                                                  =  0           (|J| >= 2).

Blocks are stored per source homological degree: ``sigma[J][t]`` maps
F_t -> F_{t + 2|J| - 1}.  Zero blocks are not stored: an absent block is
the zero block, and ``sigma[J]`` may be empty.  Construction solves the
defining relations degreewise by lifting through the acyclic complex,
column by column, and lifts no zero target and no zero column.  It walks
only the identities whose residual can be nonzero, with products of
stored blocks only (``_walk``), and checks each exactly as it is solved.
Dualization along Hom_A(-, A) is plain blockwise transposition, which
preserves all identities because each relation is symmetric in the
compositions being transposed, so the dual system is not checked again.
``dualize_homotopies`` runs in no command: it is the tests' explicit
route to X(M*), which ``twisted.s_dual`` must equal, kept here only
because the benchmark tracer wraps it by name.  The tests check every
identity, of a constructed system and of its dual, from all splittings
of J (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .matrix import PolyMatrix
from .resolution import (FreeResolution, RingData, PipelineError,
                         DualComplex, check_annihilation)


@dataclass
class HigherHomotopySystem:
    resolution: FreeResolution
    sigma: dict            # multi-index tuple J -> {t: PolyMatrix}


def _ranks(res: FreeResolution):
    return [len(d) for d in res.degrees]


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


def _solving_order(c, L):
    """(total, the multi-indices J with |J| = total) in an order in which
    the identities can be solved: e_1..e_c, then each higher total in the
    order of ``_multi_indices``.  The identity of J at degree t lands in
    F_{t + 2|J| - 2}, so identities exist only for 2|J| - 2 <= L."""
    for total in range(1, L // 2 + 2):
        yield total, ([_unit(c, i) for i in range(c)] if total == 1
                      else list(_multi_indices(c, total)))


def _walk(sys: HigherHomotopySystem, rd: RingData):
    """(J, t, r) for every identity whose residual r can be nonzero, in
    solving order.  r is the identity of J at degree t, a map F_t ->
    F_{t + 2|J| - 2}: the sum over J' + J'' = J of sigma_J' o sigma_J''
    (sigma_empty = d), minus f_i * id when J = e_i, formed from the
    blocks stored so far; the caller may store sigma_J[t] before the walk
    goes on.

    Before the multi-indices of one total are walked, the products
    sigma_J'[t + 2|J''| - 1] o sigma_J''[t] are paired up over the stored
    nonzero blocks of lower totals only, grouped by (J' + J'', t).  An
    identity is visited when it has such a product, when sigma_J[t - 1]
    or sigma_J[t] is stored (the terms with d), or when |J| = 1 (the term
    f_i * id); every other residual is zero by construction.
    """
    res = sys.resolution
    L = res.length
    ranks = _ranks(res)
    d = res.differentials
    levels = [None]  # levels[s]: t -> [(J, sigma_J[t])] for |J| = s
    for total, Js in _solving_order(rd.c, L):
        deg = 2 * total - 1
        products = {}
        for s in range(1, total):  # s = |J''|, total - s = |J'|
            highs = levels[total - s]
            for t, lows in levels[s].items():
                for Jp, a in highs.get(t + 2 * s - 1, ()):
                    for Jpp, b in lows:
                        products.setdefault(
                            (tuple(map(add, Jp, Jpp)), t), []).append((a, b))
        level = {}
        for J in Js:
            blocks = sys.sigma.get(J, {})
            for t in range(0, L - deg + 2):
                pairs = products.get((J, t), [])
                if t - 1 in blocks:
                    pairs.append((blocks[t - 1], d[t - 1]))
                if t in blocks:
                    pairs.append((d[t + deg - 1], blocks[t]))
                if total == 1:
                    base = PolyMatrix.identity(rd.ring, ranks[t],
                                               scalar=-rd.ci[J.index(1)])
                elif pairs:
                    base = PolyMatrix.zero(rd.ring, ranks[t + deg - 1],
                                           ranks[t])
                else:
                    continue
                yield J, t, PolyMatrix.sum_of_products(base, pairs)
            for t, b in blocks.items():
                if not b.is_zero():
                    level.setdefault(t, []).append((J, b))
        levels.append(level)


def compute_higher_homotopies(res: FreeResolution,
                              rd: RingData) -> HigherHomotopySystem:
    """Solve for a full homotopy system on a resolution over A.

    Each identity the walk visits is solved and checked in one step: with
    r its residual while sigma_J(t) is still absent, sigma_J(t) = h lifts
    -r through d, and r + d o h must vanish.  Where sigma_J(t) would leave
    F, r itself must vanish.  A resolution of length zero has the empty
    system only when F_0, the module itself, is zero: f annihilates no
    nonzero free module.
    """
    ring = rd.ring
    L = res.length
    ranks = _ranks(res)
    # f_i must annihilate H_0(F) = coker d_1, checked on the basis d_1 was
    # taken from; this input check comes before the costlier
    # regular-sequence test
    check_annihilation(rd, ranks[0], res.image_bases[1] if L else None)
    if L == 0:
        return HigherHomotopySystem(res, {})
    if not rd.is_regular_sequence():
        raise PipelineError(
            "f is not a regular sequence; supply an explicit complex "
            "with dg actions instead")
    def lift_through(t, target_mat):
        """h with d_t o h = -target_mat, via tracked division.

        None for a zero target: the zero block, which is not stored.  The
        lift of a column v is the module vector c with v + d_t c = 0, so
        it is h's column as it stands (``PolyMatrix.from_columns``).  A
        zero column is not lifted, and a column not in the image of d_t
        is left zero, so the identity check fails on it.  The tracked
        basis of d_t is the run ``resolve_over_a`` took d_t from, in d_t's
        own coordinates.
        """
        if target_mat.is_zero():
            return None
        gb = res.image_bases[t]
        return PolyMatrix.from_columns(
            ring, ranks[t], [v and (gb.lift(v) or {})
                             for v in target_mat.columns_as_vectors()])

    sys = HigherHomotopySystem(res, {J: {} for _, Js in
                                     _solving_order(rd.c, L) for J in Js})
    for J, t, r in _walk(sys, rd):
        up = t + 2 * sum(J) - 1
        if up <= L:
            h = lift_through(up, r)
            if h is not None:
                sys.sigma[J][t] = h
                r = PolyMatrix.sum_of_products(
                    r, [(res.differentials[up - 1], h)])
        if not r.is_zero():
            raise AssertionError(
                f"homotopy identity fails for J={J} at degree {t}")
    return sys


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
    """
    ranks = _ranks(res)
    L = res.length
    if len(actions) != rd.c:
        raise PipelineError(
            f"expected {rd.c} dg actions, got {len(actions)}")
    for i, blocks in enumerate(actions):
        if len(blocks) != L:
            raise PipelineError(
                f"action e{i + 1}: expected {L} blocks, got {len(blocks)}")
        for t, b in enumerate(blocks):
            if (b.nrows, b.ncols) != (ranks[t + 1], ranks[t]):
                raise PipelineError(
                    f"action e{i + 1} block {t}: shape "
                    f"{(b.nrows, b.ncols)} != {(ranks[t + 1], ranks[t])}")
    sys = HigherHomotopySystem(res, {_unit(rd.c, i): dict(enumerate(blocks))
                                     for i, blocks in enumerate(actions)})
    for J, t, r in _walk(sys, rd):
        if not r.is_zero():
            raise PipelineError(f"{_dg_identity(J)} at block {t}, "
                                f"entry {min(r.entries)}")
    return sys


def dualize_homotopies(sys: HigherHomotopySystem, dual: DualComplex,
                       rd: RingData) -> HigherHomotopySystem:
    """Transport a system to the dualized complex by blockwise transpose;
    the tests' explicit route to X(M*), which s_dual must equal."""
    res = sys.resolution
    L = res.length
    dual_res = FreeResolution(rd, dual.matrices, dual.degrees,
                              complete=True)
    sigma = {}
    for J, blocks in sys.sigma.items():
        deg = 2 * sum(J) - 1
        out = {}
        for t, mat in blocks.items():
            s = L - t - deg
            if s < 0:
                continue
            out[s] = mat.transpose()
        sigma[J] = out
    return HigherHomotopySystem(dual_res, sigma)
