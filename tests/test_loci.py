"""Jump loci, complexity, Betti/Bass degrees, duality, realizability."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci import GF, PolyRing, cli, loci, twisted
from jumploci.cli import parse_chain_file
from jumploci.groebner import Ideal, ModuleGB, module_hilbert_data
from jumploci.matrix import PolyMatrix
from jumploci.resolution import (RingData, resolve_over_a, resolve_over_b,
                                 PipelineError)
from jumploci.session import parse_session, build_pipeline
from jumploci.homotopy import compute_higher_homotopies
from jumploci.twisted import (build_twisted_complex, minimalize,
                              free_complex, koszul_object_list, direct_sum,
                              homology_presentation, s_dual)
from jumploci.loci import (crk_at, jump_locus_ideal, jump_loci_report,
                           complexity_of, betti_degree, betti_numbers,
                           duality_check, realize,
                           stable_betti_oracle, RouteDisagreement)

from conftest import (SESSIONS, PAIR_BLOCK_SESSION, assert_twisted_complex,
                      koszul_block, matrix_of, random_monomial_rows,
                      random_homogeneous, random_twisted_complex)
from oracles import (additivity_check, dual_presentation, explicit_dual,
                     jump_locus_via_exterior_power, shift)

GF101 = GF(101)


def _b_module_pipeline():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2"), A.parse("y^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    return rd, build_twisted_complex(sys, rd)


# -- cohomological rank ----------------------------------------------------


def test_crk_examples(nonregular_action, koszul_action):
    rd, res, sys, X = nonregular_action
    assert crk_at(X, None) == 2
    assert crk_at(X, [0, 0]) == 4
    rd2, res2, sys2, K = koszul_action
    assert crk_at(K, [17, 85]) == 4
    S = K.S
    from jumploci.twisted import TwistedComplex
    from jumploci.matrix import PolyMatrix
    degs = [(0, 0), (1, 0)]
    cone = TwistedComplex(S, degs,
                          PolyMatrix(S, 2, 2, {(1, 0): S.one()}),
                          K.chi_internal)
    assert crk_at(cone, [4, 4]) == 0 and crk_at(cone, None) == 0


# -- jump locus ideals -----------------------------------------------------


def test_jump_ideals_of_quotient_ring_module():
    rd, X = _b_module_pipeline()
    S = X.S
    chi = Ideal(S, [S.parse("chi1"), S.parse("chi2")])
    assert jump_locus_ideal(X, 1).same_variety(chi)
    assert jump_locus_ideal(X, 4).same_variety(chi)
    assert jump_locus_ideal(X, 5).is_unit_ideal()
    assert jump_locus_ideal(X, 0).is_zero_ideal()


def test_jump_ideals_of_nonregular_model(nonregular_action):
    rd, res, sys, X = nonregular_action
    S = X.S
    chi = Ideal(S, [S.parse("chi1"), S.parse("chi2")])
    assert jump_locus_ideal(X, 3).same_variety(chi)
    assert jump_locus_ideal(X, 2).is_zero_ideal()
    assert jump_locus_ideal(X, 5).is_unit_ideal()


def test_flag_jump_ideals(flag_pipeline):
    rd, pres, res, sys, X = flag_pipeline
    S = X.S
    assert jump_locus_ideal(X, 9).same_variety(Ideal(S, [S.parse("chi2")]))
    assert jump_locus_ideal(X, 13).same_variety(
        Ideal(S, [S.parse("chi1"), S.parse("chi2")]))
    assert jump_locus_ideal(X, 15).same_variety(
        Ideal(S, [S.parse("chi1"), S.parse("chi2"), S.parse("chi3")]))
    assert jump_locus_ideal(X, 17).is_unit_ideal()


def test_two_routes_agree_on_fixtures(nonregular_action, koszul_action):
    for X in (nonregular_action[3], koszul_action[3],
              _b_module_pipeline()[1]):
        r = minimalize(X).rank
        for i in range(1, r + 2):
            a = jump_locus_ideal(X, i)
            b = jump_locus_via_exterior_power(X, i)
            assert a.same_variety(b), (i, [str(g) for g in a.gens],
                                       [str(g) for g in b.gens])


def test_two_routes_agree_on_random_minimal_matrices():
    rng = random.Random(41)
    S = PolyRing(GF(5), ("chi1", "chi2"), (2, 2))
    from jumploci.twisted import TwistedComplex
    from jumploci.matrix import PolyMatrix
    monos = ["chi1", "chi2", "0", "0"]
    for _ in range(4):
        degs = [(0, 0), (0, 0), (1, 2), (1, 2)]
        entries = {}
        for r in (0, 1):
            for c in (2, 3):
                m = rng.choice(monos)
                if m != "0":
                    entries[(r, c)] = S.parse(m)
        D = PolyMatrix(S, 4, 4, entries)
        if not (D @ D).is_zero():
            continue
        X = TwistedComplex(S, degs, D, (2, 2))
        for i in range(1, 6):
            assert jump_locus_ideal(X, i).same_variety(
                jump_locus_via_exterior_power(X, i))


# -- reports ---------------------------------------------------------------


def test_report_of_koszul_action(koszul_action):
    rd, res, sys, X = koszul_action
    rep = jump_loci_report(X)
    assert rep.rank == 4
    assert rep.jump_numbers == [4]
    assert all(I.is_zero_ideal() for _, I, _ in rep.per_index)
    assert rep.complexity == 2 and rep.betti_degree == 2


def test_report_of_nonregular_action(nonregular_action):
    rd, res, sys, X = nonregular_action
    rep = jump_loci_report(X)
    assert rep.jump_numbers == [2, 4]
    assert rep.complexity == 2
    assert crk_at(X) == 2


def test_flag_report(flag_pipeline):
    rd, pres, res, sys, X = flag_pipeline
    rep = jump_loci_report(X)
    assert rep.jump_numbers == [8, 12, 14, 16]
    assert rep.complexity == 3
    assert rep.betti_degree == 4
    assert rep.jump_numbers[-1] == minimalize(X).rank
    dims = {i: d for i, _, d in rep.per_index}
    assert dims[8] == 3 and dims[12] == 2 and dims[14] == 1 and dims[16] == 0


def test_first_jump_even_and_last_is_tbetti(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    rep = jump_loci_report(X)
    assert rep.jump_numbers[0] % 2 == 0
    assert rep.jump_numbers[-1] == minimalize(X).rank


# -- complexity and degrees ------------------------------------------------


def test_complexity_examples(flag_pipeline, final_pipeline):
    assert complexity_of(flag_pipeline[4]) == 3
    assert complexity_of(final_pipeline[4]) == 2
    assert complexity_of(_b_module_pipeline()[1]) == 0


def test_betti_degree_examples(flag_pipeline, final_pipeline, koszul_action):
    assert betti_degree(flag_pipeline[4]) == 4
    assert betti_degree(final_pipeline[4]) == 3
    assert betti_degree(koszul_action[3]) == 2
    assert betti_degree(_b_module_pipeline()[1]) is None


def test_betti_degree_cross_checks_the_even_and_odd_parts():
    """H(Kos(chi1)) on a rank-one base is S/(chi1) in even degrees only:
    the complexity is 1 and the odd part has no multiplicity to match.
    Shifted by an odd degree, up or below zero, H(X) is odd only."""
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    X = koszul_object_list(free_complex(S, 1), [S.parse("chi1")])
    assert complexity_of(X) == 1
    with pytest.raises(AssertionError, match="disagree: 1 != 0"):
        betti_degree(X)
    for s in (1, -1, -3):
        with pytest.raises(AssertionError, match="disagree: 0 != 1"):
            betti_degree(shift(X, s))
    with pytest.raises(AssertionError, match="disagree: 1 != 0"):
        betti_degree(shift(X, -2))


def _parity_split_betti_degree(X):
    """Test-local reference for betti_degree: split the presentation of
    H(X) into the submatrices of its even and odd rows and read each part's
    Hilbert data with chi in degree 1."""
    X = minimalize(X)
    S = X.S
    mat, degs = homology_presentation(X)
    parts = []
    for parity in (0, 1):
        rows = [idx for idx, (coh, _) in enumerate(degs)
                if coh % 2 == parity]
        if not rows:
            parts.append((-1, 0))
            continue
        row_set = set(rows)
        cols = []
        for j in range(mat.ncols):
            support = {rr for (rr, cc) in mat.entries if cc == j}
            if support and support <= row_set:
                cols.append(j)
        rmap = {r: i for i, r in enumerate(rows)}
        cmap = {c: i for i, c in enumerate(cols)}
        sub = PolyMatrix(S, len(rows), len(cols),
                         {(rmap[r], cmap[c]): p
                          for (r, c), p in mat.entries.items()
                          if r in rmap and c in cmap})
        shifts = [degs[idx][0] // 2 for idx in rows]
        dim, mult, _ = module_hilbert_data(sub, shifts, (1,) * S.nvars)
        parts.append((dim, mult))
    complexity = max(dim for dim, _ in parts)
    if complexity <= 0:
        return None
    e_even, e_odd = (mult if dim == complexity else 0 for dim, mult in parts)
    if e_even != e_odd:
        raise AssertionError(
            f"even/odd multiplicities disagree: {e_even} != {e_odd}")
    return e_even


def _outcome(route, X):
    try:
        return route(X)
    except AssertionError as exc:
        return str(exc)


def test_betti_degree_equals_the_parity_split_route():
    """On X(M) and X(M*) of random monomial modules, on random twisted
    complexes (some shifted below degree zero) and on shifted Kos(eta) on a
    rank-one base (H(X) of one parity only), the value or the error equals
    that of the parity split."""
    rng = random.Random(41)
    complexes = []
    for ring, ci in (("x, y", "x^3, y^3"), ("x, y, z", "x^3, y^3")):
        for _ in range(4):
            gens = [_monomial("xy", m) for m in random_monomial_rows(rng)]
            if ring == "x, y, z" and rng.random() < 0.5:
                gens.append(f"x*z^{rng.randrange(1, 3)}")
            pipe = _coker_pipeline(ring, ci, gens)
            complexes += [pipe.X, pipe.X_dual]
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    complexes += [random_twisted_complex(S, rng) for _ in range(12)]
    for _ in range(6):
        eta = random_homogeneous(S, rng, 2 * rng.randrange(1, 3))
        X = koszul_object_list(free_complex(S, 1), [eta])
        complexes.append(shift(X, rng.randrange(-3, 3)))
    values = []
    for X in complexes:
        want = _outcome(_parity_split_betti_degree, X)
        assert _outcome(betti_degree, X) == want
        values.append(want)
    assert any(isinstance(v, int) and v > 1 for v in values)
    assert any(isinstance(v, str) and v.endswith(" != 0") for v in values)
    assert any(isinstance(v, str) and " 0 != " in v for v in values)


def test_bass_degree_via_dual_pipeline(final_pipeline, flag_pipeline):
    for pipeline, expected in ((final_pipeline, 3), (flag_pipeline, 4)):
        rd, pres, res, sys, X = pipeline
        assert betti_degree(explicit_dual(res, sys, rd)) == expected


# -- Betti numbers from H(X) -----------------------------------------------


def _coker_session(ring, ci, entries):
    return parse_session(f"field GF(101)\nring {ring}\nci {ci}\n"
                         f"module coker [[{', '.join(entries)}]]\n")


def _coker_pipeline(ring, ci, entries):
    return build_pipeline(_coker_session(ring, ci, entries))


def _monomial(names, exponents):
    return "*".join(f"{v}^{e}" for v, e in zip(names, exponents) if e)


def _assert_betti_routes_agree(session, n):
    """betti_numbers of X and of X_dual equal the B-resolution oracle,
    which resolves the session's own presentation; returns the
    pipeline."""
    pipe = build_pipeline(session)
    pres = PolyMatrix.from_rows(session.ring, session.module.rows)
    assert betti_numbers(pipe.X, n) == \
        resolve_over_b(pipe.rd, pres, n).betti()
    pres_dual = dual_presentation(pipe.resolution)
    if pres_dual is not None:
        assert betti_numbers(pipe.X_dual, n) == \
            resolve_over_b(pipe.rd, pres_dual[0], n, pres_dual[1]).betti()
    return pipe


def test_betti_numbers_match_the_resolution_over_artinian_b():
    rng = random.Random(23)
    for _ in range(6):
        gens = [_monomial("xy", m) for m in random_monomial_rows(rng)]
        _assert_betti_routes_agree(_coker_session("x, y", "x^3, y^3", gens),
                                   7)


def test_betti_numbers_match_the_resolution_over_non_artinian_b():
    """B = k[x,y,z]/(x^3, y^3) has dimension one (c = 2 < n = 3); a power
    of z, when present, makes M artinian while B stays not."""
    rng = random.Random(29)
    for _ in range(6):
        gens = [_monomial("xy", m) for m in random_monomial_rows(rng)]
        if rng.random() < 0.5:
            gens.append(f"z^{rng.randrange(1, 3)}")
        _assert_betti_routes_agree(
            _coker_session("x, y, z", "x^3, y^3", gens), 5)


def test_betti_numbers_stop_at_a_finite_projective_dimension():
    perfect = _assert_betti_routes_agree(
        parse_session((SESSIONS / "perfect.session").read_text()), 6)
    assert betti_numbers(perfect.X, 6) == {0: 1}
    # z is regular on k[x,y,z]/(x^2, y^2), so B/(z) has projective dimension 1
    hyper = _assert_betti_routes_agree(
        _coker_session("x, y, z", "x^2, y^2", ["x^2", "y^2", "z"]), 6)
    assert betti_numbers(hyper.X, 6) == {0: 1, 1: 1}


def test_betti_numbers_of_the_zero_module():
    pipe = _assert_betti_routes_agree(
        _coker_session("x, y", "x^2, y^2", ["1"]), 5)
    assert betti_numbers(pipe.X, 5) == {0: 0}


# -- the Hilbert numerator of H(X) ------------------------------------------


# Non-monomial inputs whose jump loci take seconds to minutes; their
# Betti-side data takes well under a second.
_SLOW_LOCI_SESSIONS = {
    "nm_n4_e2": (4, "x0*x1 + x2*x3, x0*x2 + 3*x1*x3"),
    "lin2_n5_e2": (5, "x0 + x1 + x2, x1 + 2*x3 + 5*x4, x2*x3 + x0*x4"),
    "nm_n5_e2": (5, "x0*x1 + x2*x3, x1*x2 + 2*x3*x4"),
}


def _slow_loci_session(name):
    n, entries = _SLOW_LOCI_SESSIONS[name]
    names = [f"x{i}" for i in range(n)]
    squares = ", ".join(f"{v}^2" for v in names)
    return (f"field GF(101)\nring {', '.join(names)}\nci {squares}\n"
            f"module coker [[{entries}, {squares}]]\n")


def _random_module_session(rng, field, binomials):
    """A cyclic module over k[x,y,z]/(x^3, y^3, z^3) or k[x,y,z]/(x^2, y^2)
    with one to three random homogeneous relations of degree 1 to 3, each
    one a binomial with probability ``binomials``."""
    ci = rng.choice(("x^3, y^3, z^3", "x^2, y^2"))
    words = []
    for _ in range(rng.randrange(1, 4)):
        deg = rng.randrange(1, 4)
        monos = set()
        for _ in range(2 if rng.random() < binomials else 1):
            cuts = sorted(rng.randrange(deg + 1) for _ in range(2))
            monos.add((cuts[0], cuts[1] - cuts[0], deg - cuts[1]))
        words.append(" + ".join(f"{rng.randrange(1, 50)}*{_monomial('xyz', m)}"
                                for m in sorted(monos)))
    return (f"field {field}\nring x, y, z\nci {ci}\n"
            f"module coker [[{ci}, {', '.join(words)}]]\n")


def _numerator_inputs():
    """Twisted complexes of every kind the Betti-side invariants read."""
    texts = [p.read_text() for p in sorted(SESSIONS.glob("*.session"))
             + sorted(BENCH_INPUTS.glob("*.session"))]
    texts += [f"field {field}\n{PAIR_BLOCK_SESSION}"
              for field in ("GF(101)", "QQ")]
    texts += [_slow_loci_session(name) for name in _SLOW_LOCI_SESSIONS]
    rng = random.Random(83)
    texts += [_random_module_session(rng, field, binomials)
              for field in ("GF(101)", "QQ") for binomials in (0.0, 0.6)
              for _ in range(4)]
    out = []
    for text in texts:
        X = build_pipeline(parse_session(text)).X
        out += [X, s_dual(X)]
        out += [shift(X, s) for s in (-3, -2, -1, 1, 2)]
    S, chain = parse_chain_file((SESSIONS.parent / "chains"
                                 / "complete_flag.chain").read_text())
    X = assert_twisted_complex(realize(S, chain)[0])
    out += [free_complex(S, 0), X]
    for p in (2, 3, 101):
        S = PolyRing(GF(p), ("chi1", "chi2"), (2, 2))
        out += [random_twisted_complex(S, rng) for _ in range(8)]
    return out


def _presentation_numerator(X):
    """The route ``_ext_numerator`` replaced: the Hilbert numerator of a
    presentation of H(X), keyed by cohomological degree."""
    mat, degs = homology_presentation(minimalize(X))
    _, _, num = module_hilbert_data(mat, [coh for coh, _ in degs],
                                    (2,) * X.S.nvars)
    return num


def test_ext_numerator_equals_the_presentation_route(monkeypatch):
    """h read off coker D equals the numerator of the presentation of H(X)
    on sessions, benchmark inputs and their duals and shifts, on the
    rank-0 and ``realize`` complexes, on random complexes in
    characteristic 2, 3 and 101, and on random monomial and non-monomial
    modules over GF(101) and QQ.  The presentation is unreachable while
    the new route runs, so the two routes stay independent."""
    complexes = _numerator_inputs()
    want = [_presentation_numerator(X) for X in complexes]

    def unreachable(X):
        raise AssertionError("the presentation of H(X) was built")

    monkeypatch.setattr(twisted, "homology_presentation", unreachable)
    monkeypatch.setattr(loci, "homology_presentation", unreachable)
    for X, num in zip(complexes, want):
        assert loci._ext_numerator(X) == (num, X.S.nvars)
    assert any(min(num, default=0) < 0 for num in want)
    assert any(len(num) > 2 for num in want)
    assert {} in want


def test_generic_crk_is_the_ext_numerator_at_one():
    """The generic crk is rank_S H(X), the value at t = 1 of the Hilbert
    numerator of H(X) that the Betti numbers read, on every complex of
    ``_numerator_inputs``: sessions, benchmark inputs, their duals and
    shifts, and the ladder sessions over GF(101) and QQ."""
    complexes = _numerator_inputs()
    crks = [crk_at(X) for X in complexes]
    assert crks == [sum(loci._ext_numerator(X)[0].values())
                    for X in complexes]
    assert any(crks)


def test_betti_degree_is_half_the_generic_crk_at_maximal_complexity():
    """Where the complexity of X is c, H(X) has rank crk_at(X) over S,
    split equally between its even and odd parts, so the Betti degree is
    half the generic crk.  The complexity comes from the homology
    presentation (``complexity_of``), a route apart from the Hilbert
    numerator that ``betti_degree`` reads."""
    maximal = 0
    for X in _numerator_inputs():
        if complexity_of(X) == X.S.nvars:
            assert 2 * betti_degree(X) == crk_at(X)
            maximal += 1
    assert maximal >= 100


# -- duality ---------------------------------------------------------------


def test_duality_on_final_example(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    assert duality_check(jump_loci_report(X),
                         jump_loci_report(explicit_dual(res, sys, rd)))


def test_duality_on_nonregular_model(nonregular_action):
    rd, res, sys, X = nonregular_action
    X_dual = explicit_dual(res, sys, rd)
    assert duality_check(jump_loci_report(X), jump_loci_report(X_dual))


def test_duality_rejects_a_complex_that_is_not_the_dual(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    wrong = direct_sum(explicit_dual(res, sys, rd), koszul_block(X))
    assert minimalize(wrong).rank != minimalize(X).rank
    rep, rep_wrong = jump_loci_report(X), jump_loci_report(wrong)
    for pair in ((rep, rep_wrong), (rep_wrong, rep)):
        with pytest.raises(RouteDisagreement):
            duality_check(*pair)


def test_duality_on_random_monomial_modules():
    rng = random.Random(13)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    done = 0
    while done < 3:
        gens = random_monomial_rows(rng)
        pres = PolyMatrix.from_rows(
            A, [[A.monomial(m) for m in gens]])
        res = resolve_over_a(rd, pres)
        sys = compute_higher_homotopies(res, rd)
        X = build_twisted_complex(sys, rd)
        X_dual = explicit_dual(res, sys, rd)
        assert duality_check(jump_loci_report(X), jump_loci_report(X_dual))
        done += 1


def _per_index_agree(X, Y):
    """Test-local reference for duality_check: compare jump_locus_ideal of
    X and of Y at every index up to the larger rank."""
    top = max(minimalize(X).rank, minimalize(Y).rank)
    return all(jump_locus_ideal(X, i).same_variety(jump_locus_ideal(Y, i))
               for i in range(1, top + 1))


def _report_disagrees(rep, rep_other):
    try:
        duality_check(rep, rep_other)
    except RouteDisagreement:
        return True
    return False


def test_report_duality_check_matches_a_per_index_comparison():
    """On every pair from a pool of random monomial modules, their explicit
    duals and the zero module (rank 0), the report-based check raises
    exactly when the per-index comparison finds a differing jump ideal."""
    rng = random.Random(37)
    pool = [_coker_pipeline("x, y", "x^2, y^2", ["1"]).X]
    for _ in range(4):
        gens = [_monomial("xy", m) for m in random_monomial_rows(rng)]
        pipe = _coker_pipeline("x, y", "x^3, y^3", gens)
        rep, rep_dual = jump_loci_report(pipe.X), jump_loci_report(pipe.X_dual)
        assert _per_index_agree(pipe.X, pipe.X_dual)
        assert duality_check(rep, rep_dual) == \
            (betti_degree(pipe.X) == betti_degree(pipe.X_dual))
        pool += [pipe.X, pipe.X_dual]
    assert minimalize(pool[0]).rank == 0
    reports = [jump_loci_report(X) for X in pool]
    disagreeing = 0
    for a, X in enumerate(pool):
        for b, Y in enumerate(pool):
            expected = not _per_index_agree(X, Y)
            assert _report_disagrees(reports[a], reports[b]) == expected
            disagreeing += expected
    assert disagreeing > 0


def test_duality_check_returns_whether_the_betti_degrees_agree():
    """Kos(chi1) and Kos(chi1^2) have the same jump loci, but H(X) has
    multiplicity 1 and 2: the loci pass and the degrees differ."""
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    base = free_complex(S, 2, degrees=[(0, 0), (1, 0)])
    X = koszul_object_list(base, [S.parse("chi1")])
    Y = koszul_object_list(base, [S.parse("chi1^2")])
    assert _per_index_agree(X, Y)
    rep_x, rep_y = jump_loci_report(X), jump_loci_report(Y)
    assert (rep_x.betti_degree, rep_y.betti_degree) == (1, 2)
    assert duality_check(rep_x, rep_y) is False
    assert duality_check(rep_x, rep_x) is True


# -- additivity ------------------------------------------------------------


def test_additivity_doubles(nonregular_action):
    X = nonregular_action[3]
    assert additivity_check(X, X)


def test_additivity_with_contractible_summand(koszul_action):
    X = koszul_action[3]
    from jumploci.twisted import TwistedComplex
    from jumploci.matrix import PolyMatrix
    S = X.S
    degs = [(0, 0), (1, 0)]
    cone = TwistedComplex(S, degs,
                          PolyMatrix(S, 2, 2, {(1, 0): S.one()}),
                          X.chi_internal)
    assert additivity_check(X, cone)


def test_additivity_on_random_koszul_objects():
    rng = random.Random(29)
    S = PolyRing(GF(5), ("chi1", "chi2"), (2, 2))
    base = free_complex(S, 2, degrees=[(0, 0), (1, 0)])
    for _ in range(3):
        ga = S.monomial((rng.randrange(1, 3), rng.randrange(0, 2)))
        gb = S.monomial((rng.randrange(0, 2), rng.randrange(1, 3)))
        X = koszul_object_list(base, [ga])
        Y = koszul_object_list(base, [gb])
        assert additivity_check(X, Y)


# -- realizability ---------------------------------------------------------


def test_realize_two_variable_chain():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    chain = [Ideal(S, []), Ideal(S, [S.parse("chi1")]), Ideal(S, [S.one()])]
    X, rep, ok = realize(S, chain)
    assert ok
    assert_twisted_complex(X)


def test_realize_trivial_chain():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    chain = [Ideal(S, []), Ideal(S, [S.one()])]
    X, rep, ok = realize(S, chain)
    assert ok
    assert_twisted_complex(X)
    assert rep.jump_numbers[0] == 2  # first plateau covers the free rank


def test_realize_three_variable_chain():
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"), (2, 2, 2))
    chain = [Ideal(S, []),
             Ideal(S, [S.parse("chi1")]),
             Ideal(S, [S.parse("chi1"), S.parse("chi2")]),
             Ideal(S, [S.one()])]
    X, rep, ok = realize(S, chain)
    assert ok
    assert_twisted_complex(X)
    plateau_varieties = [I for _, I, _ in rep.per_index]
    for member in chain[1:-1]:
        assert any(member.same_variety(I) for I in plateau_varieties)


def test_realize_rejects_bad_chains():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    with pytest.raises(PipelineError):
        realize(S, [Ideal(S, [S.parse("chi1")]), Ideal(S, [S.one()])])
    with pytest.raises(PipelineError):
        realize(S, [Ideal(S, []), Ideal(S, [S.parse("chi1")])])
    with pytest.raises(PipelineError):
        realize(S, [Ideal(S, []), Ideal(S, [S.parse("chi1")]),
                    Ideal(S, [S.parse("chi2")]), Ideal(S, [S.one()])])


# -- stable Betti oracle ---------------------------------------------------


def test_oracle_vanishes_on_perfect_module():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2"), A.parse("y^2")]])
    assert stable_betti_oracle(rd, resolve_over_a(rd, pres), [(1, 1)]) == [0]


def test_oracle_rejects_vanishing_section():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x")]])
    res = resolve_over_a(rd, pres)
    with pytest.raises(PipelineError, match="vanishes"):
        stable_betti_oracle(rd, res, [(1, 0), (0, 0)])
    with pytest.raises(PipelineError, match="arity"):
        stable_betti_oracle(rd, res, [(1, 0, 0)])


def test_library_oracle_rejects_ci_generators_of_unequal_degree():
    """f_1, f_2 of degrees 2 and 3 are refused as such, before any point:
    even the section of the first axis, a form, is not computed."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^3")])
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [[A.parse("x"),
                                                       A.parse("y")]]))
    with pytest.raises(PipelineError, match="of one degree, not 2, 3"):
        stable_betti_oracle(rd, res, [(1, 0)])


@pytest.mark.parametrize("limit", [0, 1, loci.MAX_TATE_DIM])
def test_oracle_answers_0_on_the_zero_module_at_any_limit(monkeypatch,
                                                          limit):
    """coker [[1]] is the zero module: F has no d_1 and the Tate complex
    no piece, so no size limit sends it to ``resolve_over_b``."""
    monkeypatch.setattr(loci, "MAX_TATE_DIM", limit)
    calls = _count_resolutions_over_sections(monkeypatch)
    pipe = _coker_pipeline("x, y", "x^2, y^2", ["1"])
    assert stable_betti_oracle(pipe.rd, pipe.resolution,
                               [(1, 0), (2, 3)]) == [0, 0]
    assert calls == []


def test_oracle_is_half_of_crk(final_pipeline):
    """The periodic tail rank of the hypersurface resolution is exactly
    half of the cohomological rank at the same point, on every sample."""
    rd, pres, res, sys, X = final_pipeline
    rng = random.Random(2)
    points = [a for a in ([rng.randrange(101), rng.randrange(101)]
                          for _ in range(6)) if any(a)]
    assert [2 * s for s in stable_betti_oracle(rd, res, points)] == \
        [crk_at(X, a) for a in points]


# -- stable Betti oracle: resolved through n + 1 ----------------------------


BENCH_INPUTS = SESSIONS.parent / "perfbench" / "inputs"


def _section(rd, a):
    fld = rd.ring.field
    g = rd.ring.zero()
    for ai, f in zip(a, rd.ci):
        g = g + f.scale(fld.coerce(ai))
    return g


def _doubling_oracle(rd, pres, a, truncation=12, cap=40):
    """The point oracle before the bound n + 1: resolve 12 stages over the
    section, doubling up to 40 until the last three Betti numbers agree."""
    rd_a = RingData(rd.ring, [_section(rd, a)])
    assert rd_a.is_regular_sequence()
    N = truncation
    while True:
        res = resolve_over_b(rd_a, pres, N)
        if res.complete:
            return 0
        beta = res.betti()
        tail = [beta.get(N - i) for i in range(3)]
        if None not in tail and len(set(tail)) == 1:
            return tail[0]
        assert N < cap, "hypersurface resolution tail not stabilized"
        N = min(2 * N, cap)


def _session_case(path):
    session = parse_session(path.read_text())
    rd = session.ring_data
    return path.stem, rd, PolyMatrix.from_rows(rd.ring, session.module.rows)


def _random_monomial_case(rng, names):
    """M = A/I or A/I + A/I' over GF(101)[names], I a monomial ideal that
    holds the ci x_i^e (one e for all, on all variables or all but one)."""
    A = PolyRing(GF101, names)
    n = len(names)
    e = rng.choice((2, 3))
    c = rng.choice((n - 1, n)) if n > 2 else n
    powers = [tuple(e * (k == i) for k in range(n)) for i in range(c)]
    rd = RingData(A, [A.monomial(m, 1) for m in powers])

    def ideal():
        gens = set(powers)
        for _ in range(rng.randrange(1, 4)):
            gens.add(tuple(rng.randrange(e) for _ in range(n)))
        gens.discard((0,) * n)
        return [A.monomial(m, 1) for m in sorted(gens)]

    blocks = [ideal() for _ in range(rng.choice((1, 1, 2)))]
    rows = [[A.zero()] * sum(map(len, blocks)) for _ in blocks]
    col = 0
    for r, gens in enumerate(blocks):
        for g in gens:
            rows[r][col] = g
            col += 1
    label = " ".join(str(f) for f in rd.ci) + " on " + \
        str([[str(g) for g in row] for row in rows])
    return label, rd, PolyMatrix.from_rows(A, rows)


def _residue_plus_perfect_case():
    """k + A/(x^2, y^2) over (x^2, y^2): over a section B_a the second
    summand has projective dimension 1, so beta_1 = 3 but beta_i = 2 for
    i >= 2 = n; the bound n cannot be lowered."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    z = A.zero()
    rows = [[A.parse("x"), A.parse("y"), z, z],
            [z, z, A.parse("x^2"), A.parse("y^2")]]
    return "k + perfect", rd, PolyMatrix.from_rows(A, rows)


def _oracle_cases():
    cases = [_session_case(p) for p in sorted(SESSIONS.glob("*.session"))
             if "module coker" in p.read_text()]
    cases += [_session_case(BENCH_INPUTS / f"{name}.session")
              for name in ("m2_n3_e2", "res_n3_e2")]
    rng = random.Random(41)
    cases += [_random_monomial_case(rng, names)
              for names in [("x", "y")] * 6 + [("x", "y", "z")] * 6]
    cases.append(_residue_plus_perfect_case())
    return cases


def _points(rd, rng, count):
    """``count`` random nonzero points and the first coordinate axis."""
    out = [tuple(int(i == 0) for i in range(rd.c))]
    while len(out) < count + 1:
        a = tuple(rng.randrange(101) for _ in range(rd.c))
        if any(a):
            out.append(a)
    return out


def test_oracle_equals_the_doubling_loop_it_replaces():
    rng = random.Random(43)
    for label, rd, pres in _oracle_cases():
        points = _points(rd, rng, 2)
        assert stable_betti_oracle(rd, resolve_over_a(rd, pres), points) == \
            [_doubling_oracle(rd, pres, a) for a in points], label


def test_hypersurface_betti_numbers_are_constant_from_step_n():
    """Eisenbud's theorem behind the bound: beta_i = beta_n for i >= n.
    Some input has beta_(n-1) != beta_n, and some a finite resolution,
    so the oracle can stop neither earlier nor without the complete
    flag."""
    rng = random.Random(47)
    early_jump = finite = False
    for label, rd, pres in _oracle_cases():
        n = rd.n
        for a in _points(rd, rng, 1):
            res = resolve_over_b(RingData(rd.ring, [_section(rd, a)]), pres,
                                 n + 4)
            beta = res.betti()
            if res.complete:
                assert res.length <= n - 1, (label, a)
                finite = True
                continue
            assert {beta[i] for i in range(n, n + 5)} == {beta[n]}, \
                (label, a, beta)
            early_jump |= beta[n - 1] != beta[n]
    assert early_jump and finite


def _assert_prefix(short, long, N):
    """``short`` = resolve_over_b(.., N) is ``long`` = (.., N + 2) cut
    after stage N."""
    assert len(short.differentials) == min(N, long.length)
    for d, e in zip(short.differentials, long.differentials):
        assert d == e
    assert short.degrees == long.degrees[:N + 1]
    assert short.complete == (long.complete and long.length < N)


def test_truncated_resolution_is_a_prefix_of_a_longer_one():
    rng = random.Random(53)
    for label, rd, pres in _oracle_cases():
        for N in (1, rd.n + 1):
            _assert_prefix(resolve_over_b(rd, pres, N),
                           resolve_over_b(rd, pres, N + 2), N)
            rd_a = RingData(rd.ring, [_section(rd, _points(rd, rng, 1)[1])])
            _assert_prefix(resolve_over_b(rd_a, pres, N),
                           resolve_over_b(rd_a, pres, N + 2), N)


def test_truncation_at_the_length_of_a_finite_resolution():
    """F_(N+1) = 0: the resolution of B/(y, z) over B = k[x,y,z]/(x^2)
    has length N = 2.  Cut at N it is not known to be complete; two stages
    further it is, with the same differentials."""
    A = PolyRing(GF101, ("x", "y", "z"))
    rd = RingData(A, [A.parse("x^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse(e) for e in ("x^2", "y", "z")]])
    short, long = resolve_over_b(rd, pres, 2), resolve_over_b(rd, pres, 4)
    assert long.complete and long.length == 2
    assert not short.complete
    _assert_prefix(short, long, 2)
    assert resolve_over_b(rd, pres, 3).complete
    assert stable_betti_oracle(rd, resolve_over_a(rd, pres), [(1,)]) == [0]


def test_oracle_makes_one_basis_of_m_per_command(monkeypatch, capsys):
    """An ``oracle`` command makes exactly one ``ModuleGB`` run beyond
    those of ``build_pipeline``, whatever ``--points`` is: the basis of M
    that every point shares.  A point adds only linear algebra."""
    runs = []
    init = ModuleGB.__init__

    def counting(self, *args, **kwargs):
        runs.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleGB, "__init__", counting)
    paths = [p for p in sorted(SESSIONS.glob("*.session"))
             if "module coker" in p.read_text()]
    paths += [BENCH_INPUTS / f"{name}.session"
              for name in ("m2_n3_e2", "res_n3_e2")]
    for path in paths:
        runs.clear()
        build_pipeline(parse_session(path.read_text()))
        pipeline_runs = len(runs)
        for count in (1, 2, 10):
            runs.clear()
            assert cli.main(["oracle", "--input", str(path),
                             "--points", str(count)]) == 0
            capsys.readouterr()
            assert len(runs) == pipeline_runs + 1, (path.name, count)


def _count_resolutions_over_sections(monkeypatch) -> list:
    """The truncations of the calls the oracle makes to
    ``resolve_over_b``, one per point it resolves over its section."""
    calls = []
    real = loci.resolve_over_b

    def counting(rd, presentation, truncation, *rest):
        calls.append(truncation)
        return real(rd, presentation, truncation, *rest)

    monkeypatch.setattr(loci, "resolve_over_b", counting)
    return calls


def test_oracle_takes_the_tate_route_up_to_its_size_limit(monkeypatch,
                                                          capsys):
    """The pieces one point of the flag session eliminates hold 156 basis
    elements.  With ``MAX_TATE_DIM`` at 156 the oracle reads the Tate
    complex and resolves nothing over a section; at 155 it resolves M over
    each of the three sections through n + 1 = 4.  Both print the report
    of the default limit."""
    argv = ["oracle", "--input", str(SESSIONS / "flag.session"),
            "--points", "3"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr()
    calls = _count_resolutions_over_sections(monkeypatch)
    for limit, resolved in ((156, []), (155, [4, 4, 4])):
        monkeypatch.setattr(loci, "MAX_TATE_DIM", limit)
        calls.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == expected, limit
        assert calls == resolved, limit


@pytest.mark.parametrize("ring, ci, row", [
    # dim M = 4: one piece of 80,960 basis elements, 49,427 of them of M
    ("x0, x1, x2, x3, x4, x5", "x0^6", "x0^6, x1*x2 - x3*x4 + x5^2"),
    # dim M = 3: about 57,000 basis elements over the pieces of a point
    ("x0, x1, x2, x3, x4, x5", "x0^4, x1^4",
     "x0^4, x1^4, x2*x3 - x4*x5 + x0*x1"),
])
def test_oracle_resolves_over_the_sections_past_the_size_limit(
        monkeypatch, capsys, tmp_path, ring, ci, row):
    """M of infinite length in many variables: the Tate complex is far
    past ``MAX_TATE_DIM``, so the first point stops building it at the
    limit, with the basis of M filled no further, and every point is
    resolved over its section, with the values of ``resolve_over_b``."""
    text = f"field GF(101)\nring {ring}\nci {ci}\nmodule coker [[{row}]]\n"
    session = parse_session(text)
    pipe = build_pipeline(session)
    rd = pipe.rd
    pres = PolyMatrix.from_rows(rd.ring, session.module.rows)
    tate = loci._TateComplex(rd, pipe.resolution, rd.ci_degrees[0])
    with pytest.raises(loci._TooLarge):
        tate.stable_betti((1,) * rd.c)
    assert len(tate._index) <= loci.MAX_TATE_DIM
    calls = _count_resolutions_over_sections(monkeypatch)
    path = tmp_path / "big.session"
    path.write_text(text)
    assert cli.main(["oracle", "--input", str(path), "--points", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == [rd.n + 1] * 3
    assert [p["stable_betti"] for p in report["points"]] == \
        [_resolved_oracle(rd, pres, p["point"]) for p in report["points"]]


def test_oracle_fills_the_basis_of_m_up_to_degree_2000():
    """With f of degree 1000 the Shamash degrees reach 2000, far past the
    recursion limit; the basis of M is filled degree by degree."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^1000"), A.parse("y^1000")])
    for row in (["x", "y"], ["x^999", "y"]):
        pres = PolyMatrix.from_rows(A, [[A.parse(e) for e in row]])
        points = [(1, 2), (3, 0)]
        assert stable_betti_oracle(rd, resolve_over_a(rd, pres), points) == \
            [_resolved_oracle(rd, pres, a) for a in points], row


# -- stable Betti oracle: differential test against resolve_over_b ---------


def _resolved_oracle(rd, pres, a):
    """beta_(n+1) of M over the section through ``resolve_over_b``, the
    route the Tate complex replaced: 0 when the resolution ends first."""
    N = rd.n + 1
    res = resolve_over_b(RingData(rd.ring, [_section(rd, a)]), pres, N)
    if res.complete:
        return 0
    beta = res.betti()
    assert beta[N - 1] == beta[N]
    return beta[N]


def _assert_tate_is_a_complex(rd, res, a):
    """d_(i-1) d_i = 0 on M (x) K(x)<y> at the point a, for 2 <= i <= n + 2
    and in every internal degree up to the top one of step n + 2.  The
    ranks the oracle reads stay the same under a change of sign of whole
    summands, so only this check sees a sign rule that breaks d^2 = 0.
    It builds more pieces than a point reads, so the size limit, which
    counts every piece built, is lifted."""
    fld = rd.ring.field
    d = loci.section_degree(rd)
    tate = loci._TateComplex(rd, res, d)
    top = max(loci._shamash_degrees(res, rd.n + 2, d), default=-1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loci, "MAX_TATE_DIM", float("inf"))
        for i, delta in itertools.product(range(2, rd.n + 3), range(top + 1)):
            later = tate.columns(i - 1, delta, a)
            for v in tate.columns(i, delta, a):
                image = {}
                for t, c in v.items():
                    for u, e in later[t].items():
                        image[u] = fld.add(image.get(u, fld.zero()),
                                           fld.mul(c, e))
                assert not any(image.values()), (i, delta)


def _forms(A, degree):
    """The monomials of A of weighted degree ``degree``."""
    return [m for m in itertools.product(range(degree + 1), repeat=A.nvars)
            if A.wdeg(m) == degree]


@st.composite
def _oracle_inputs(draw):
    """(p, weights, ci, rows, points) over GF(p)[x, y] or GF(p)[x, y, z]
    with weights 1 or 2: c <= n ci generators f_k = x_k^e + (other terms)
    of one weighted degree, linearly independent through their pure
    powers; one or two rows holding every f_k e_j, so that f annihilates
    M, and up to three random columns, of degree 0 (unit entries) to 3;
    and two nonzero points.  With c < n, M has infinite length unless
    the random columns cut it down."""
    p = draw(st.sampled_from([3, 5, 101]))
    n = draw(st.integers(2, 3))
    weights = tuple(draw(st.sampled_from([1, 1, 2])) for _ in range(n))
    A = PolyRing(GF(p), ("x", "y", "z")[:n], weights)
    degree = max(weights) * draw(st.integers(2, 3 if max(weights) == 1
                                             else 2))
    c = draw(st.integers(1, n))
    pure = [tuple(degree // weights[k] * (t == k) for t in range(n))
            for k in range(n)]

    def form(deg, exclude=()):
        monos = [m for m in _forms(A, deg) if m not in exclude]
        chosen = draw(st.lists(st.sampled_from(monos), max_size=3,
                               unique=True)) if monos else []
        terms = [(m, draw(st.integers(1, p - 1))) for m in chosen]
        return " + ".join(f"{c}*{A.monomial(m, 1)}" for m, c in terms) \
            or "0"

    ci = []
    for k in range(c):
        ci.append(f"{A.monomial(pure[k], 1)} + {form(degree, pure[:c])}")
    r = draw(st.integers(1, 2))
    cols = [[f if j == row else "0" for row in range(r)]
            for f in ci for j in range(r)]
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(0, 3))
        cols.append([form(deg) for _ in range(r)])
    cols = draw(st.permutations(cols))
    rows = [[col[j] for col in cols] for j in range(r)]
    points = [draw(st.lists(st.integers(0, p - 1), min_size=c, max_size=c)
                   .filter(any)) for _ in range(2)]
    return p, weights, ci, rows, points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_oracle_inputs())
# c < n, M of infinite length: stable = 2
@example((101, (1, 1, 1), ["x^2", "y^2"], [["x*y", "x^2", "y^2"]],
          [(1, 1), (2, 3)]))
# two rows, a unit column and a column of degree 1
@example((5, (1, 1), ["x^2", "y^2"],
          [["1", "x", "x^2", "y^2", "0", "0"],
           ["2", "y", "0", "0", "x^2", "y^2"]], [(1, 0), (1, 4)]))
# weighted variables, ci of one weighted degree with two terms
@example((7, (1, 2), ["x^4 + 3*x^2*y", "y^2"],
          [["x^2 + y", "x^4 + 3*x^2*y", "y^2"]], [(1, 1), (0, 2)]))
def test_oracle_equals_the_resolution_over_the_section(case):
    p, weights, ci, rows, points = case
    names = ("x", "y", "z")[:len(weights)]
    A = PolyRing(GF(p), names, weights)
    rd = RingData(A, [A.parse(f) for f in ci])
    pres = PolyMatrix.from_rows(A, [[A.parse(e) for e in row]
                                    for row in rows])
    res = resolve_over_a(rd, pres)
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_resolutions_over_sections(patch)
        stables = stable_betti_oracle(rd, res, points)
    # the Tate route answered: its pieces are within the size limit
    assert calls == []
    assert stables == [_resolved_oracle(rd, pres, a) for a in points]
    _assert_tate_is_a_complex(rd, res, points[0])
