"""Higher homotopy systems: construction, validation, dualization."""

import re

import pytest

from jumploci import GF, PolyRing
from jumploci.matrix import PolyMatrix
from jumploci.resolution import (RingData, FreeResolution, PipelineError,
                                 presentation_from_rows, resolve_over_a,
                                 dualize_over_a)
from jumploci.homotopy import (HigherHomotopySystem, compute_higher_homotopies,
                               verify_system, ingest_dg_structure,
                               dualize_homotopies)

from conftest import matrix_of

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
    """Adding x to one entry of one block of a computed system breaks the
    identity of that multi-index at that degree: d o sigma_J changes, as
    d is injective on x times a basis vector of a free module."""
    rd, pres, res, sys, X = flag_pipeline
    x = rd.ring.gen(0)
    for J, blocks in sys.sigma.items():
        for t, block in blocks.items():
            sigma = {K: dict(b) for K, b in sys.sigma.items()}
            sigma[J][t] = block + PolyMatrix(rd.ring, block.nrows,
                                             block.ncols, {(0, 0): x})
            broken = HigherHomotopySystem(res, sigma, strict=False)
            with pytest.raises(AssertionError,
                               match=rf"fails for J={re.escape(str(J))} "
                                     rf"at degree {t}$"):
                verify_system(broken, rd)


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
