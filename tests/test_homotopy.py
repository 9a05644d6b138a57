"""Higher homotopy systems: construction, validation, dualization."""

import random
import re

import pytest

from jumploci import GF, PolyRing
from jumploci.groebner import ModuleGB
from jumploci.matrix import PolyMatrix
from jumploci.resolution import (RingData, FreeResolution, PipelineError,
                                 presentation_from_rows, resolve_over_a,
                                 dualize_over_a)
from jumploci.homotopy import (HigherHomotopySystem, compute_higher_homotopies,
                               verify_system, ingest_dg_structure,
                               dualize_homotopies, _multi_indices, _splittings)
from jumploci.session import parse_session
from jumploci.twisted import build_twisted_complex

from conftest import REPO, SESSIONS, matrix_of, random_monomial_rows

GF101 = GF(101)


def test_single_hypersurface_homotopy_is_identity():
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    pres = presentation_from_rows(A, [[A.parse("x^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    sigma = sys.block((1,), 0)
    assert sigma.nrows == sigma.ncols == 1
    assert str(sigma.get(0, 0)) == "1"


def test_residue_field_system_verifies():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = presentation_from_rows(A, [[A.parse("x"), A.parse("y")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    verify_system(sys, rd)
    assert (1, 0) in sys.sigma and (0, 1) in sys.sigma


def test_free_module_needs_no_homotopies():
    """f annihilates no nonzero free module, so M = A has no system."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, presentation_from_rows(A, [[]]))
    with pytest.raises(PipelineError, match="does not annihilate"):
        compute_higher_homotopies(res, rd)


def test_annihilation_is_checked_before_the_regular_sequence(monkeypatch):
    """An input error is found without the Groebner basis and Hilbert
    series of the ci ideal that the regular-sequence test builds."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, presentation_from_rows(A, [[A.parse("x")]]))

    def not_called(self):
        raise AssertionError("the regular-sequence test ran first")

    monkeypatch.setattr(RingData, "is_regular_sequence", not_called)
    with pytest.raises(PipelineError,
                       match=re.escape("f_2 = y^2 does not annihilate")):
        compute_higher_homotopies(res, rd)


def test_nonregular_sequence_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2*y"), A.parse("x*y^2")])
    pres = presentation_from_rows(A, [[A.parse("x^2*y"), A.parse("x*y^2")]])
    res = resolve_over_a(rd, pres)
    with pytest.raises(PipelineError, match="regular"):
        compute_higher_homotopies(res, rd)


def test_flag_system_verifies(flag_pipeline):
    rd, pres, res, sys, X = flag_pipeline
    verify_system(sys, rd)
    assert (1, 1, 0) in sys.sigma  # some quadratic coherence block exists


def test_perturbing_one_block_breaks_verification(flag_pipeline):
    """Adding x to one entry of sigma_J on F_t breaks the identity of J at
    degree t: d o sigma_J changes, as d is injective on x times a basis
    vector of a free module.  Zero blocks are not stored, so every slot
    (J, t) with 0 <= t <= L - (2|J| - 1) is perturbed, stored or not; an
    absent slot gets the one-entry block x."""
    rd, pres, res, sys, X = flag_pipeline
    x = rd.ring.gen(0)
    ranks = [len(d) for d in res.degrees]
    L = res.length
    seen = {"stored": 0, "absent": 0}
    for J, blocks in sys.sigma.items():
        deg = 2 * sum(J) - 1
        for t in range(0, L - deg + 1):
            bump = PolyMatrix(rd.ring, ranks[t + deg], ranks[t], {(0, 0): x})
            block = blocks.get(t)
            sigma = {K: dict(b) for K, b in sys.sigma.items()}
            sigma[J][t] = bump if block is None else block + bump
            broken = HigherHomotopySystem(res, sigma, strict=False)
            with pytest.raises(AssertionError,
                               match=rf"fails for J={re.escape(str(J))} "
                                     rf"at degree {t}$"):
                verify_system(broken, rd)
            seen["absent" if block is None else "stored"] += 1
    assert seen["stored"] > 0 and seen["absent"] > 0


def test_verification_checks_the_top_of_the_complex():
    """On F_1 -> F_0 with d_1 = [x, 0] (not injective, as in no resolution)
    and sigma = [x; 0], the identity at degree 0 holds and the one at the
    top, sigma o d_1 = x^2 * id on F_1, fails; no block is solved there."""
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    res = FreeResolution(rd, "A", [matrix_of(A, [["x", "0"]])],
                         [[0], [1, 1]], complete=True)
    sys = HigherHomotopySystem(res, {(1,): {0: matrix_of(A, [["x"], ["0"]])}},
                               strict=False)
    with pytest.raises(AssertionError,
                       match=r"fails for J=\(1,\) at degree 1$"):
        verify_system(sys, rd)


# -- zero blocks against the construction that stores every block ---------


def _every_block_sigma(res, rd):
    """Reference: the solve loop before zero blocks were skipped.  It lifts
    every target, zero or not, one column at a time from a scan of all
    entries, and stores every block it solves, zero blocks included."""
    ring = rd.ring
    L = res.length
    ranks = [len(d) for d in res.degrees]
    bases = {}

    def lift_through(t, target):
        if t not in bases:
            dt = res.differentials[t - 1]
            bases[t] = ModuleGB(ring, dt.nrows, dt.columns_as_vectors(),
                                track=True)
        cols = []
        for j in range(target.ncols):
            v = {}
            for (r, c), p in target.entries.items():
                if c == j:
                    for m, co in p.terms.items():
                        v[(r, m)] = co
            coeffs = bases[t].lift(v)
            assert coeffs is not None
            cols.append(coeffs)
        return PolyMatrix(ring, ranks[t], target.ncols,
                          {(r, j): p for j, coeffs in enumerate(cols)
                           for r, p in enumerate(coeffs)})

    sigma = {}

    def solve_for(J, rhs):
        deg = 2 * sum(J) - 1
        blocks = {}
        for t in range(0, L - deg + 1):
            target = rhs(t)
            if t >= 1:
                target = target - blocks[t - 1] @ res.differentials[t - 1]
            blocks[t] = lift_through(t + deg, target)
        sigma[J] = blocks

    for i in range(rd.c):
        J = tuple(int(a == i) for a in range(rd.c))
        solve_for(J, lambda t, f=rd.ci[i]:
                  PolyMatrix.identity(ring, ranks[t], scalar=f))
    for total in range(2, L // 2 + 2):
        for J in _multi_indices(rd.c, total):
            def rhs(t, J=J):
                out = PolyMatrix.zero(ring, ranks[t + 2 * sum(J) - 2],
                                      ranks[t])
                for Jp, Jpp in _splittings(J):
                    a = sigma[Jp].get(t + 2 * sum(Jpp) - 1)
                    b = sigma[Jpp].get(t)
                    if a is not None and b is not None:
                        out = out - a @ b
                return out
            solve_for(J, rhs)
    return sigma


def _homotopy_inputs():
    """(rd, presentation) for every coker session of the examples and of the
    benchmark ladder, for random monomial modules over GF(101)[x,y] /
    (x^3, y^3), and for random ones in three variables, whose systems have
    zero blocks."""
    out = []
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    for path in paths:
        session = parse_session(path.read_text())
        if session.module.kind == "coker":
            rd = session.ring_data
            out.append((rd, presentation_from_rows(rd.ring,
                                                   session.module.rows)))
    rng = random.Random(11)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    for _ in range(6):
        gens = random_monomial_rows(rng)
        out.append((rd, presentation_from_rows(
            A, [[A.monomial(m) for m in gens]])))
    A = PolyRing(GF101, ("x", "y", "z"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3"), A.parse("z^3")])
    for _ in range(6):
        gens = {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
        for _ in range(rng.randrange(1, 4)):
            gens.add(tuple(rng.randrange(0, 3) for _ in range(3)))
        gens.discard((0, 0, 0))
        out.append((rd, presentation_from_rows(
            A, [[A.monomial(m) for m in sorted(gens)]])))
    return out


def test_no_zero_block_is_stored_and_the_rest_are_unchanged():
    """Every nonzero block equals the one the every-block loop solves,
    entry for entry; no zero block is stored; every solved multi-index
    keeps its (possibly empty) dict; and X(M) has the same differential."""
    skipped = 0
    for rd, pres in _homotopy_inputs():
        res = resolve_over_a(rd, pres)
        sys = compute_higher_homotopies(res, rd)
        every = _every_block_sigma(res, rd)
        assert set(sys.sigma) == set(every)
        for J, blocks in every.items():
            nonzero = {t: m.entries for t, m in blocks.items()
                       if not m.is_zero()}
            assert {t: m.entries for t, m in sys.sigma[J].items()} == nonzero
            skipped += len(blocks) - len(nonzero)
        reference = HigherHomotopySystem(res, every, strict=False)
        assert build_twisted_complex(res, sys, rd).D.entries == \
            build_twisted_complex(res, reference, rd).D.entries
    assert skipped > 0


def test_strict_action_accepted(koszul_action):
    rd, res, sys, X = koszul_action
    assert sys.strict
    verify_system(sys, rd)


def test_perturbed_action_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, "A", [d1, d2], [[0], [1, 1], [2]],
                         complete=True)
    e1 = [matrix_of(A, [["x"], ["x"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    with pytest.raises(PipelineError):
        ingest_dg_structure(res, [e1, e2], rd)


def test_wrong_block_shape_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, "A", [d1, d2], [[0], [1, 1], [2]],
                         complete=True)
    e1 = [matrix_of(A, [["x"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    with pytest.raises(PipelineError, match="shape"):
        ingest_dg_structure(res, [e1, e2], rd)


def test_dualized_system_verifies(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    dc = dualize_over_a(res)
    dual_sys = dualize_homotopies(sys, dc, rd)
    verify_system(dual_sys, rd)


def test_dualize_twice_restores_blocks(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    dc = dualize_over_a(res)
    dual_sys = dualize_homotopies(sys, dc, rd)
    dc2 = dualize_over_a(dual_sys.resolution)
    back = dualize_homotopies(dual_sys, dc2, rd)
    for J, blocks in sys.sigma.items():
        for t, mat in blocks.items():
            assert back.sigma[J][t].entries == mat.entries
