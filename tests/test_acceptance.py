"""End-to-end acceptance criteria.

Each criterion prints a single ``CRITERION k: PASS/FAIL (t s)`` line and
enforces its runtime bound.  Criterion 6 asserts literal equality between
the point oracle and the cohomological rank; the two differ by a constant
factor of two on non-free modules (see the companion test at the bottom),
so that criterion fails and is expected to fail.
"""

import functools
import itertools
import random
import time

from jumploci import GF, QQ, PolyRing
from jumploci.groebner import Ideal
from jumploci.matrix import PolyMatrix
from jumploci.resolution import (RingData, resolve_over_a, resolve_over_b,
                                 _check_concentration)
from jumploci.homotopy import compute_higher_homotopies
from jumploci.twisted import build_twisted_complex, minimalize
from jumploci.loci import (jump_locus_ideal, jump_loci_report, crk_at,
                           complexity_of, betti_degree, duality_check,
                           realize, stable_betti_oracle)

from conftest import (koszul_action_pipeline, nonregular_action_pipeline,
                      matrix_of, random_monomial_rows)
from oracles import (dual_presentation, explicit_dual, full_system,
                     hilbert_data, normal_form, syzygy_matrix)
from test_properties import RANDOMS, run_invariant_suite

GF101 = GF(101)


def criterion(number, bound_seconds):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                func(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\nCRITERION {number}: FAIL ({elapsed:.2f} s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nCRITERION {number}: PASS ({elapsed:.2f} s)")
            assert elapsed < bound_seconds
        return wrapper
    return decorate


def _coker_pipeline(variables, ci, gens):
    A = PolyRing(GF101, variables)
    rd = RingData(A, [A.parse(f) for f in ci])
    pres = PolyMatrix.from_rows(A, [[A.parse(g) for g in gens]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    return rd, pres, res, sys, build_twisted_complex(sys, rd)


@criterion(1, 10)
def test_criterion_1_residue_field_model():
    rd, res, sys, X = koszul_action_pipeline()
    for i in range(1, 5):
        assert jump_locus_ideal(X, i).is_zero_ideal(), i
    for i in range(5, 8):
        assert jump_locus_ideal(X, i).is_unit_ideal(), i


@criterion(2, 5)
def test_criterion_2_nonregular_dg_model():
    rd, res, sys, X = nonregular_action_pipeline()
    S = X.S
    chi = Ideal(S, [S.parse("chi1"), S.parse("chi2")])
    for i in (1, 2):
        assert jump_locus_ideal(X, i).is_zero_ideal(), i
    for i in (3, 4):
        assert jump_locus_ideal(X, i).same_variety(chi), i
    for i in (5, 6):
        assert jump_locus_ideal(X, i).is_unit_ideal(), i


@criterion(3, 300)
def test_criterion_3_flag_module():
    rd, pres, res, sys, X = _coker_pipeline(
        ("x", "y", "z"), ("x^3", "y^3", "z^3"),
        ("x^3", "y^3", "z^3", "x*z", "y*z^2"))
    rep = jump_loci_report(X)
    assert rep.jump_numbers == [8, 12, 14, 16]
    assert rep.complexity == 3
    assert minimalize(X).rank == 16
    assert rep.betti_degree == 4
    S = X.S
    chis = [S.parse(v) for v in ("chi1", "chi2", "chi3")]
    assert [(a, b) for a, b, _, _ in rep.plateaus] \
        == [(1, 8), (9, 12), (13, 14), (15, 16), (17, 17)]
    by_index = {i: I for _, i, I, _ in rep.plateaus}
    assert by_index[8].is_zero_ideal()
    # one coordinate hyperplane, up to permuting the chi variables
    assert any(by_index[12].same_variety(Ideal(S, [a])) for a in chis)
    assert any(by_index[14].same_variety(Ideal(S, [a, b]))
               for a, b in itertools.combinations(chis, 2))
    assert by_index[16].same_variety(Ideal(S, chis))
    dims = {i: d for _, i, _, d in rep.plateaus}
    assert (dims[8], dims[12], dims[14], dims[16]) == (3, 2, 1, 0)


@criterion(4, 60)
def test_criterion_4_betti_growth_and_degrees():
    rd, pres, res, sys, X = _coker_pipeline(
        ("x", "y"), ("x^3", "y^3"), ("x^2", "x*y", "y^2"))
    beta = resolve_over_b(rd, pres, 20).betti()
    assert _check_concentration(res)
    pres_dual, row_degrees = dual_presentation(res)
    beta_dual = resolve_over_b(rd, pres_dual, 20, row_degrees).betti()
    for i in range(4, 21):
        if i % 2 == 0:
            assert beta[i] == 3 * i // 2 + 1, i
            assert beta_dual[i] == 3 * i // 2 + 2, i
        else:
            assert beta[i] == (3 * i + 3) // 2, i
            assert beta_dual[i] == (3 * i + 3) // 2, i
    assert complexity_of(X) == 2
    assert betti_degree(X) == (2, 3)
    X_dual = explicit_dual(res, full_system(sys, rd), rd)
    assert betti_degree(X_dual) == (2, 3)  # Bass degree of the module itself


@criterion(5, 120)
def test_criterion_5_duality():
    rd, pres, res, sys, X = _coker_pipeline(
        ("x", "y", "z"), ("x^3", "y^3", "z^3"),
        ("x^3", "y^3", "z^3", "x*z", "y*z^2"))
    X_dual = explicit_dual(res, full_system(sys, rd), rd)
    assert duality_check(jump_loci_report(X), jump_loci_report(X_dual))
    rng = random.Random(7)
    A = PolyRing(GF101, ("x", "y"))
    rd2 = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    for _ in range(3):
        gens = random_monomial_rows(rng)
        pres2 = PolyMatrix.from_rows(A, [[A.monomial(m) for m in gens]])
        res2 = resolve_over_a(rd2, pres2)
        sys2 = compute_higher_homotopies(res2, rd2)
        Y = build_twisted_complex(sys2, rd2)
        Y_dual = explicit_dual(res2, full_system(sys2, rd2), rd2)
        assert duality_check(jump_loci_report(Y), jump_loci_report(Y_dual))


@criterion(6, 300)
def test_criterion_6_point_oracle_equals_crk():
    fixtures = [
        _coker_pipeline(("x", "y"), ("x^3", "y^3"), ("x^2", "x*y", "y^2")),
        _coker_pipeline(("x", "y"), ("x^2", "y^2"), ("x", "y")),
        _coker_pipeline(("x", "y"), ("x^3", "y^3"), ("x", "y")),
    ]
    rng = random.Random(6)
    checked = 0
    for rd, pres, res, sys, X in fixtures:
        for _ in range(7):
            while True:
                a = [rng.randrange(101) for _ in range(rd.c)]
                if any(a):
                    break
            assert stable_betti_oracle(rd, res, [a])[0] == \
                crk_at(X, a), a
            checked += 1
    assert checked >= 20


@criterion(7, 300)
def test_criterion_7_invariant_suite():
    instances = [koszul_action_pipeline()[3],
                 nonregular_action_pipeline()[3],
                 _coker_pipeline(("x", "y", "z"), ("x^3", "y^3", "z^3"),
                                 ("x^3", "y^3", "z^3", "x*z", "y*z^2"))[4]]
    instances += RANDOMS
    assert run_invariant_suite(instances) > 0


def _random_descending_chain(S, rng):
    pool = [S.monomial(m) for m in itertools.product(range(2), repeat=3)
            if 0 < sum(m) <= 2]
    chain = [Ideal(S, [])]
    current = chain[0]
    for _ in range(rng.randrange(1, 4)):
        for _attempt in range(20):
            extra = [rng.choice(pool) for _ in range(rng.randrange(1, 3))]
            candidate = Ideal(S, list(current.gens) + extra).reduced()
            if not candidate.same_variety(current):
                chain.append(candidate)
                current = candidate
                break
        else:
            break
    chain.append(Ideal(S, [S.one()]))
    return chain


@criterion(8, 300)
def test_criterion_8_realizability():
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"), (2, 2, 2))
    rng = random.Random(8)
    for trial in range(5):
        chain = _random_descending_chain(S, rng)
        start = time.perf_counter()
        X, rep, ok = realize(S, chain)
        assert ok, [sorted(map(str, I.gens)) for I in chain]
        assert time.perf_counter() - start < 60, trial


@criterion(9, 60)
def test_criterion_9_engine_units():
    # normal forms against hand reduction
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert str(normal_form(I, R.parse("x^2*y + y^3"))) == "y^3"
    J = Ideal(PolyRing(QQ, ("x", "y")), [])
    # Koszul syzygy
    P = matrix_of(R, [["x", "y"]])
    syz = syzygy_matrix(P)
    assert syz.ncols == 1 and (P @ syz).is_zero()
    # Hilbert data of a monomial ideal
    S = PolyRing(GF101, ("chi1", "chi2"))
    mat = matrix_of(S, [["chi1^2", "chi1*chi2^2"]])
    dim, mult, _ = hilbert_data(mat, [0], (1, 1))
    assert (dim, mult) == (1, 1)
    # exhaustive arithmetic against a dense representation at small size
    F5 = GF(5)
    R1 = PolyRing(F5, ("x",))
    polys = []
    for c0 in range(5):
        for c1 in range(5):
            p = R1.monomial((0,)).scale(c0) + R1.monomial((1,)).scale(c1)
            polys.append((p, [c0, c1]))
    for (p, cp) in polys:
        for (q, cq) in polys:
            prod = p * q
            dense = [0] * 3
            for i, a in enumerate(cp):
                for j, b in enumerate(cq):
                    dense[i + j] = (dense[i + j] + a * b) % 5
            got = [0] * 3
            for m, c in prod.terms.items():
                got[m[0]] = c
            assert got == dense


def test_point_oracle_is_exactly_half_of_crk():
    """Companion to criterion 6: on the same fixtures and point sets the
    cohomological rank is exactly twice the stable tail rank, which is
    why the literal-equality criterion fails."""
    fixtures = [
        _coker_pipeline(("x", "y"), ("x^3", "y^3"), ("x^2", "x*y", "y^2")),
        _coker_pipeline(("x", "y"), ("x^2", "y^2"), ("x", "y")),
        _coker_pipeline(("x", "y"), ("x^3", "y^3"), ("x", "y")),
    ]
    rng = random.Random(6)
    for rd, pres, res, sys, X in fixtures:
        for _ in range(7):
            while True:
                a = [rng.randrange(101) for _ in range(rd.c)]
                if any(a):
                    break
            assert 2 * stable_betti_oracle(rd, res, [a])[0] == \
                crk_at(X, a), a
