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
column by column, and lifts no zero target and no zero column; every
identity is re-verified exactly after construction.  Dualization along
Hom_A(-, A) is plain blockwise transposition, which preserves all
identities because each relation is symmetric in the compositions being
transposed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .matrix import PolyMatrix
from .groebner import ModuleGB
from .resolution import (FreeResolution, RingData, PipelineError,
                         DualComplex, check_annihilation)


@dataclass
class HigherHomotopySystem:
    resolution: FreeResolution
    sigma: dict            # multi-index tuple J -> {t: PolyMatrix}
    strict: bool           # sourced from a dg action (sigma_J = 0, |J| >= 2)

    def block(self, J, t) -> PolyMatrix:
        """sigma_J on F_t; None is the zero block (zero blocks are not
        stored)."""
        return self.sigma.get(tuple(J), {}).get(t)


def _ranks(res: FreeResolution):
    return [len(d) for d in res.degrees]


def _diff(res: FreeResolution, t: int):
    """d_t: F_t -> F_{t-1}, or None when out of range."""
    if 1 <= t <= res.length:
        return res.differentials[t - 1]
    return None


def _compose_or_none(a, b):
    if a is None or b is None:
        return None
    return a @ b


def compute_higher_homotopies(res: FreeResolution,
                              rd: RingData) -> HigherHomotopySystem:
    """Solve for a full homotopy system on a resolution over A.

    A resolution of length zero has the empty system only when F_0, the
    module itself, is zero: f annihilates no nonzero free module.
    """
    ring = rd.ring
    L = res.length
    ranks = _ranks(res)
    if L == 0:
        check_annihilation(rd, PolyMatrix.zero(ring, ranks[0], 0))
        return HigherHomotopySystem(res, {}, strict=False)
    # f_i must annihilate H_0(F) = coker d_1; this input check comes
    # before the costlier regular-sequence test
    check_annihilation(rd, res.differentials[0])
    if not rd.is_regular_sequence():
        raise PipelineError(
            "f is not a regular sequence; supply an explicit complex "
            "with dg actions instead")
    # tracked bases of im(d_t) for lifting, built lazily
    lift_bases = {}

    def lift_through(t, target_mat):
        """h with d_t o h = target_mat, via tracked division.

        None for a zero target: the zero block, which is not stored.  False
        when the target is not in the image of d_t.  The tracked basis of
        d_t is built only when a nonzero target needs it.
        """
        if target_mat.is_zero():
            return None
        gb = lift_bases.get(t)
        if gb is None:
            dt = res.differentials[t - 1]
            gb = lift_bases[t] = ModuleGB(ring, dt.nrows,
                                          dt.columns_as_vectors(), track=True)
        entries = {}
        for j, v in enumerate(target_mat.columns_as_vectors()):
            if not v:
                continue
            coeffs = gb.lift(v)
            if coeffs is None:
                return False
            for r, p in enumerate(coeffs):
                if not p.is_zero():
                    entries[(r, j)] = p
        return PolyMatrix(ring, ranks[t], target_mat.ncols, entries)

    sigma = {}

    def get_block(J, t):
        blocks = sigma.get(J)
        if blocks is None:
            return None
        return blocks.get(t)

    def solve_for(J, rhs_blocks):
        """sigma_J with d o sigma_J + sigma_J o d = rhs, blockwise in t."""
        deg = 2 * sum(J) - 1
        blocks = {}
        for t in range(0, L - deg + 1):
            rhs = rhs_blocks(t)
            prev = blocks.get(t - 1)
            dt = _diff(res, t)
            correction = _compose_or_none(prev, dt)
            target = rhs if correction is None else rhs - correction
            h = lift_through(t + deg, target)
            if h is False:
                raise AssertionError(
                    "homotopy right-hand side is not a boundary")
            if h is not None:
                blocks[t] = h
        sigma[J] = blocks

    c = rd.c
    # unit multi-indices
    for i in range(c):
        J = tuple(1 if a == i else 0 for a in range(c))
        f = rd.ci[i]

        def rhs(t, f=f):
            return PolyMatrix.identity(ring, ranks[t], scalar=f)
        solve_for(J, rhs)
    # higher multi-indices by total degree
    top = L // 2 + 1
    for total in range(2, top + 1):
        for J in _multi_indices(c, total):
            def rhs(t, J=J):
                deg = 2 * sum(J) - 2
                out = PolyMatrix.zero(ring, ranks[t + deg], ranks[t])
                for Jp, Jpp in _splittings(J):
                    a = get_block(Jp, t + 2 * sum(Jpp) - 1)
                    b = get_block(Jpp, t)
                    prod = _compose_or_none(a, b)
                    if prod is not None:
                        out = out - prod
                return out
            solve_for(J, rhs)
    # verify_system checks every identity, also those with no block left to
    # solve for: at the top of F, and for every J with 2|J| - 1 > L
    sys = HigherHomotopySystem(res, sigma, strict=False)
    verify_system(sys, rd)
    return sys


def _multi_indices(c, total):
    for cuts in itertools.combinations(range(total + c - 1), c - 1):
        prev = -1
        J = []
        for cut in cuts:
            J.append(cut - prev - 1)
            prev = cut
        J.append(total + c - 2 - prev)
        yield tuple(J)


def _splittings(J):
    """All (J', J'') with J' + J'' = J, both nonzero."""
    ranges = [range(a + 1) for a in J]
    for Jp in itertools.product(*ranges):
        if sum(Jp) == 0 or Jp == J:
            continue
        Jpp = tuple(a - b for a, b in zip(J, Jp))
        yield Jp, Jpp


def verify_system(sys: HigherHomotopySystem, rd: RingData):
    """Assert every defining identity exactly; raises on any failure."""
    res = sys.resolution
    ring = rd.ring
    ranks = _ranks(res)
    L = res.length
    c = rd.c
    # the identity of J at degree t lands in F_{t + 2|J| - 2}, so identities
    # exist only for 2|J| - 2 <= L: the totals the construction solves for
    top = L // 2 + 1
    for total in range(1, top + 1):
        deg = 2 * total - 2
        for J in _multi_indices(c, total):
            for t in range(0, L - deg + 1):
                acc = PolyMatrix.zero(ring, ranks[t + deg], ranks[t])
                sJt = sys.block(J, t)
                dtop = _diff(res, t + deg + 1)
                if sJt is not None and dtop is not None:
                    acc = acc + (dtop @ sJt)
                sJprev = sys.block(J, t - 1)
                dt = _diff(res, t)
                if sJprev is not None and dt is not None:
                    acc = acc + (sJprev @ dt)
                for Jp, Jpp in _splittings(J):
                    a = sys.block(Jp, t + 2 * sum(Jpp) - 1)
                    b = sys.block(Jpp, t)
                    if a is not None and b is not None:
                        acc = acc + (a @ b)
                if total == 1:
                    i = J.index(1)
                    acc = acc - PolyMatrix.identity(ring, ranks[t],
                                                    scalar=rd.ci[i])
                if not acc.is_zero():
                    raise AssertionError(
                        f"homotopy identity fails for J={J} at degree {t}")


def ingest_dg_structure(res: FreeResolution, actions,
                        rd: RingData) -> HigherHomotopySystem:
    """Validate strict dg actions e_1..e_c and wrap them as a system.

    ``actions[i]`` is the list of blocks e_i^(t): F_t -> F_{t+1} for
    t = 0..L-1.  Checks e_i e_j + e_j e_i = 0 (including i = j) and
    d e_i + e_i d = f_i id, reporting the offending indices.
    """
    ring = rd.ring
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

    def block(i, t):
        if 0 <= t < L:
            return actions[i][t]
        return None

    # anticommutation, including squares
    for i in range(rd.c):
        for j in range(i, rd.c):
            for t in range(0, L):
                a = _compose_or_none(block(i, t + 1), block(j, t))
                b = _compose_or_none(block(j, t + 1), block(i, t))
                total = None
                if a is not None and b is not None:
                    total = a + b
                elif a is not None or b is not None:
                    total = a if a is not None else b
                if total is not None and not total.is_zero():
                    pos = sorted(total.entries)[0]
                    raise PipelineError(
                        f"e{i + 1}*e{j + 1} + e{j + 1}*e{i + 1} != 0 "
                        f"at block {t}, entry {pos}")
    # d e_i + e_i d = f_i id
    for i in range(rd.c):
        for t in range(0, L + 1):
            acc = PolyMatrix.zero(ring, ranks[t], ranks[t])
            up = block(i, t)
            if up is not None:
                acc = acc + (_diff(res, t + 1) @ up)
            down = block(i, t - 1)
            dt = _diff(res, t)
            if down is not None and dt is not None:
                acc = acc + (down @ dt)
            acc = acc - PolyMatrix.identity(ring, ranks[t], scalar=rd.ci[i])
            if not acc.is_zero():
                pos = sorted(acc.entries)[0]
                raise PipelineError(
                    f"d*e{i + 1} + e{i + 1}*d != f_{i + 1}*id at block {t}, "
                    f"entry {pos}")
    sigma = {}
    for i in range(rd.c):
        J = tuple(1 if a == i else 0 for a in range(rd.c))
        sigma[J] = {t: actions[i][t] for t in range(L)}
    return HigherHomotopySystem(res, sigma, strict=True)


def dualize_homotopies(sys: HigherHomotopySystem, dual: DualComplex,
                       rd: RingData) -> HigherHomotopySystem:
    """Transport a system to the dualized complex by blockwise transpose."""
    res = sys.resolution
    L = res.length
    dual_res = FreeResolution(rd, "A", dual.matrices, dual.degrees,
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
    dual_sys = HigherHomotopySystem(dual_res, sigma, strict=sys.strict)
    verify_system(dual_sys, rd)
    return dual_sys
