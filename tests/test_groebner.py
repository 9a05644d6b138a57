"""Groebner engine: bases, normal forms, syzygies, Hilbert data, radicals."""

import itertools
import random
import time
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci.groebner import (GBStats, Ideal, ModuleGB, _hilbert_num,
                               _minimalize, add_image, reduced, vector_of)
from jumploci.poly import Polynomial
from jumploci.loci import jump_loci_report
from jumploci.matrix import PolyMatrix
from jumploci.session import build_pipeline, parse_session

from conftest import SESSIONS, matrix_of
from oracles import (EveryPairGB, dimension_and_multiplicity, hilbert_data,
                     identity_matrix, normal_form, syzygy_matrix, vec_add)

GF5 = GF(5)
GF101 = GF(101)


# -- bases and normal forms ------------------------------------------------


def test_monomial_ideal_is_its_own_basis():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    leads = sorted(str(R.monomial(m)) for m, _ in I._basis().leads[0])
    assert leads == ["x*y", "x^2"]


def test_monomial_run_is_its_own_basis():
    """The run's own monomial handling, which ``Ideal`` no longer uses:
    no pair, and the reduced basis in descending order."""
    R = PolyRing(GF101, ("x", "y"))
    before = GBStats.pairs_processed
    gb = ModuleGB(R, 1, [vector_of(R.parse(g))
                         for g in ("x^2", "3*x*y", "x^2*y")])
    assert GBStats.pairs_processed == before
    assert gb.leads == [[((2, 0), {(0, (2, 0)): 1}),
                         ((1, 1), {(0, (1, 1)): 1})]]


def test_a_run_that_meets_a_constant_leaves_the_unit_basis():
    """x - y lies in the radical of ((x - y)^16), but none of p^2, p^4,
    p^8 lies in the ideal, so the Rabinowitsch run decides.  That run
    meets a constant with pairs still queued and has no stop of its own:
    the queued pairs are superseded or reduce to zero, and interreduction
    leaves the basis [1], over GF(101) and QQ."""
    for field in (GF101, QQ):
        R = PolyRing(field, ("x", "y"))
        p = R.parse("x - y")
        I = Ideal(R, [R.parse("(x - y)^16")])
        q = p
        for _ in range(3):
            q = q * q
            assert not I.contains(q)
        assert I.radical_contains(p)
        aux = R.extend("t")
        J = Ideal(aux, [g.map_ring(aux) for g in I.gens]
                  + [aux.one() - aux.gen(2) * p.map_ring(aux)])
        zeros = GBStats.zero_reductions
        assert J._basis().leads == [[((0, 0, 0),
                                      {(0, (0, 0, 0)): field.one()})]]
        assert GBStats.zero_reductions > zeros
        assert J.is_unit_ideal()


def test_hand_buchberger_fixture_over_rationals():
    R = PolyRing(QQ, ("x", "y"))
    I = Ideal(R, [R.parse("x^2 - y^2"), R.parse("x^2 + y^2")]).reduced()
    assert sorted(str(g) for g in I.gens) == ["x^2", "y^2"]


def test_zero_ideal_has_empty_basis():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [])
    assert I.is_zero_ideal()
    assert I.groebner_generators() == []
    assert ModuleGB(R, 1, []).leads == [[]]


def test_normal_form_membership():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert normal_form(I, R.parse("x^2*y")).is_zero()
    assert str(normal_form(I, R.parse("y^3"))) == "y^3"


def test_basis_is_idempotent():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2 - y^2"), R.parse("x^2 + y^2")]).reduced()
    again = Ideal(R, list(I.gens)).reduced()
    assert sorted(map(str, I.gens)) == sorted(map(str, again.gens))


# -- syzygies --------------------------------------------------------------


def test_koszul_syzygy_of_two_variables():
    R = PolyRing(GF101, ("x", "y"))
    P = matrix_of(R, [["x", "y"]])
    syz = syzygy_matrix(P)
    assert syz.ncols == 1
    assert (P @ syz).is_zero()
    col = [syz.entries[0, 0], syz.entries[1, 0]]
    assert sorted(str(p.monic()) for p in col) == ["x", "y"]


def test_identity_has_no_syzygies():
    R = PolyRing(GF101, ("x", "y"))
    P = identity_matrix(R, 3)
    assert syzygy_matrix(P).ncols == 0


def test_koszul_syzygy_in_operator_ring():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    P = matrix_of(S, [["chi1", "chi2"]])
    syz = syzygy_matrix(P)
    assert (P @ syz).is_zero()
    assert syz.ncols == 1


def test_syzygy_composition_vanishes_on_random_matrices():
    rng = random.Random(3)
    R = PolyRing(GF5, ("x", "y"))
    monos = ["x", "y", "x^2", "x*y", "y^2", "0"]
    for _ in range(5):
        rows = [[rng.choice(monos) for _ in range(3)] for _ in range(2)]
        P = matrix_of(R, rows)
        syz = syzygy_matrix(P)
        assert (P @ syz).is_zero()


# -- membership against brute-force linear algebra -------------------------


def _graded_piece_membership(R, gens, f):
    """Is f in the ideal generated by ``gens``?  Brute force: solve a
    linear system over all monomial multiples up to the degree of f."""
    target_deg = f.degree()
    spanning = []
    for g in gens:
        gap = target_deg - g.degree()
        if gap < 0:
            continue
        for m in itertools.product(range(gap + 1), repeat=R.nvars):
            if R.wdeg(m) != gap:
                continue
            spanning.append(g * R.monomial(m))
    monos = sorted({m for p in spanning + [f] for m in p.terms},
                   key=R.mono_key)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in spanning:
        v = [0] * len(monos)
        for m, c in p.terms.items():
            v[index[m]] = c
        rows.append(v)
    target = [0] * len(monos)
    for m, c in f.terms.items():
        target[index[m]] = c
    # row-reduce the span and the target together over GF(p)
    fld = R.field
    pivots = {}
    for v in rows:
        v = list(v)
        for col, w in pivots.items():
            if v[col]:
                coeff = v[col]
                v = [fld.add(a, fld.neg(fld.mul(coeff, b)))
                     for a, b in zip(v, w)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is not None:
            inv = fld.inv(v[lead])
            pivots[lead] = [fld.mul(inv, a) for a in v]
    for col, w in pivots.items():
        if target[col]:
            coeff = target[col]
            target = [fld.add(a, fld.neg(fld.mul(coeff, b)))
                      for a, b in zip(target, w)]
    return not any(target)


def test_membership_agrees_with_linear_algebra():
    rng = random.Random(11)
    R = PolyRing(GF5, ("x", "y"))
    by_degree = {d: [R.monomial(m)
                     for m in itertools.product(range(3), repeat=2)
                     if sum(m) == d] for d in (1, 2)}
    for _ in range(10):
        gens = []
        for _ in range(2):
            d = rng.choice((1, 2))
            g = rng.choice(by_degree[d])
            if rng.random() < 0.5:
                g = g + rng.choice(by_degree[d]).scale(rng.randrange(1, 5))
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        I = Ideal(R, gens)
        for _ in range(5):
            deg = rng.randrange(1, 7)
            candidates = [m for m in itertools.product(range(deg + 1),
                                                       repeat=2)
                          if sum(m) == deg]
            f = R.monomial(rng.choice(candidates))
            assert I.contains(f) == _graded_piece_membership(R, gens, f)


# -- Hilbert data ----------------------------------------------------------


def test_hilbert_free_rank_one_three_variables():
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"))
    mat = PolyMatrix.zero(S, 1, 0)
    dim, mult, num = hilbert_data(mat, [0], (1, 1, 1))
    assert (dim, mult) == (3, 1)


def test_hilbert_hypersurface():
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"))
    mat = matrix_of(S, [["chi1"]])
    dim, mult, _ = hilbert_data(mat, [0], (1, 1, 1))
    assert (dim, mult) == (2, 1)


def test_hilbert_two_point_module():
    S = PolyRing(GF101, ("chi1", "chi2"))
    mat = PolyMatrix.block_diag([matrix_of(S, [["chi1", "chi2"]]),
                                 matrix_of(S, [["chi1", "chi2"]])])
    dim, mult, _ = hilbert_data(mat, [0, 0], (1, 1))
    assert (dim, mult) == (0, 2)


def test_hilbert_zero_module():
    S = PolyRing(GF101, ("chi1",))
    mat = matrix_of(S, [["1"]])
    assert hilbert_data(mat, [0], (1,)) == (-1, None, {})


def test_hilbert_monomial_ideal_against_direct_count():
    S = PolyRing(GF5, ("chi1", "chi2"))
    gens = [S.parse("chi1^2"), S.parse("chi1*chi2^2")]
    mat = matrix_of(S, [[str(g) for g in gens]])
    dim, mult, num = hilbert_data(mat, [0], (1, 1))
    # count standard monomials degree by degree
    counts = []
    for d in range(11):
        n = 0
        for a in range(d + 1):
            b = d - a
            if a >= 2 or (a >= 1 and b >= 2):
                continue
            n += 1
        counts.append(n)
    # eventually only chi2^d survives: dimension 1, multiplicity 1
    assert counts[3:] == [1] * 8
    assert (dim, mult) == (1, 1)


# -- radicals and varieties ------------------------------------------------


def test_radical_membership():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    I = Ideal(S, [S.parse("chi1^2")])
    assert I.radical_contains(S.parse("chi1"))
    J = Ideal(S, [S.parse("chi1")])
    assert not J.radical_contains(S.parse("chi2"))


def test_variety_equality():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    I = Ideal(S, [S.parse("chi1*chi2"), S.parse("chi1^2")])
    J = Ideal(S, [S.parse("chi1")])
    assert I.same_variety(J)
    assert not I.same_variety(Ideal(S, [S.parse("chi2")]))


def test_variety_equality_is_an_equivalence():
    rng = random.Random(23)
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"), (2, 2, 2))
    monos = [S.monomial(m) for m in itertools.product(range(3), repeat=3)
             if 0 < sum(m) <= 3]
    ideals = [Ideal(S, [rng.choice(monos)
                        for _ in range(rng.randrange(1, 4))])
              for _ in range(8)]
    for I in ideals:
        assert I.same_variety(I)
    for I in ideals:
        for J in ideals:
            assert I.same_variety(J) == J.same_variety(I)
    for I in ideals:
        for J in ideals:
            for K in ideals:
                if I.same_variety(J) and J.same_variety(K):
                    assert I.same_variety(K)


# Reference for the staged radical test: the plain Rabinowitsch trick with
# one Groebner basis per generator.  The basis is tracked, so it runs every
# S-pair and never takes the unit shortcut of untracked ideal runs.


def _reference_radical_contains(I, p):
    if p.is_zero():
        return True
    aux = I.ring.extend("y_ref")
    gens = [g.map_ring(aux) for g in I.gens]
    y = aux.gen(aux.nvars - 1)
    gens.append(aux.one() - y * p.map_ring(aux))
    gb = ModuleGB(aux, 1, [vector_of(g) for g in gens], track=True)
    return gb.contains(vector_of(aux.one()))


def _reference_same_variety(I, J):
    return (all(_reference_radical_contains(I, g) for g in J.gens)
            and all(_reference_radical_contains(J, g) for g in I.gens))


S3 = PolyRing(GF5, ("chi1", "chi2", "chi3"), (2, 2, 2))
_EXPONENTS = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 3]
_MONOMIALS = st.sampled_from([m for m in _EXPONENTS if any(m)]).map(
    S3.monomial)
_POLYNOMIALS = st.dictionaries(
    st.sampled_from(_EXPONENTS), st.integers(min_value=1, max_value=4),
    min_size=1, max_size=3).map(lambda terms: Polynomial(S3, terms))
_GENERATORS = st.one_of(
    st.lists(_MONOMIALS, max_size=3),                    # monomial ideals
    st.lists(st.one_of(_MONOMIALS, _POLYNOMIALS), max_size=3),
    st.just([S3.one()]))                                 # the unit ideal


@settings(max_examples=80, deadline=None, derandomize=True)
@given(I_gens=_GENERATORS, J_gens=_GENERATORS, nested=st.booleans(),
       probe=_POLYNOMIALS)
def test_staged_radical_test_matches_rabinowitsch(I_gens, J_gens, nested,
                                                  probe):
    I = Ideal(S3, I_gens)
    J = Ideal(S3, I_gens + J_gens if nested else J_gens)
    for A, B in ((I, J), (J, I)):
        for p in B.gens + [probe, probe * probe, S3.zero()]:
            assert A.radical_contains(p) == _reference_radical_contains(A, p)
    same = _reference_same_variety(I, J)
    assert I.same_variety(J) == same
    assert J.same_variety(I) == same
    assert I.same_variety(I.reduced())


_TERMS = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                           st.integers(-3, 3).filter(bool)), max_size=6)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(field=st.sampled_from([GF5, GF101, QQ]), terms=_TERMS,
       probes=st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                       st.integers(1, 4), min_size=1,
                                       max_size=3), max_size=2))
@example(field=QQ, terms=[], probes=[{(1, 0, 0): 1}])
@example(field=GF101, terms=[((0, 0, 0), 3), ((1, 0, 0), 1)], probes=[])
@example(field=QQ, terms=[((1, 1, 0), 2), ((1, 1, 0), -3), ((2, 1, 0), 1)],
         probes=[{(1, 0, 0): 1, (0, 1, 0): 1}])
def test_monomial_ideal_basis_equals_the_run(field, terms, probes):
    """A monomial ideal's installed basis (``ModuleGB.of_basis``) against
    a forced run of ``ModuleGB`` on its generators, in weights (1, 2, 1):
    the same vectors and leads in the same order, both the minimal
    monomials of the generators found pairwise, monic and in descending
    term order; the same dimension, and the radical test of the
    Rabinowitsch reference.  The generators repeat monomials, carry
    multiples of one another and coefficients other than 1, and may be
    the constant 1 or none."""
    R = PolyRing(field, ("x", "y", "z"), (1, 2, 1))
    gens = [R.monomial(m, c) for m, c in terms]
    I = Ideal(R, gens)
    run = ModuleGB(R, 1, [vector_of(g) for g in gens])
    monos = {m for g in gens for m in g.terms}
    minimal = sorted((m for m in monos if not any(
        n != m and all(map(le, n, m)) for n in monos)),
        key=R.mono_key, reverse=True)
    want = [[(m, {(0, m): field.one()}) for m in minimal]]
    assert I._basis().leads == run.leads == want
    assert all(type(c) is type(field.one())
               for _, v in I._basis().leads[0] for c in v.values())
    assert I.dimension() == run.dimension()
    for terms in probes:
        p = Polynomial(R, {m: field.coerce(c) for m, c in terms.items()})
        assert I.radical_contains(p) == _reference_radical_contains(I, p)


def test_the_rabinowitsch_variable_clashes_with_no_variable(monkeypatch):
    """x - y lies in the radical of ((x - y)^16) and x does not, which only
    the Rabinowitsch stage decides, in a ring whose variables include the
    names ``t_rad`` and ``t_rad1``: its extra variable is named after the
    longest name with a prime appended, over GF(101) and QQ."""
    names = []
    extend = PolyRing.extend
    monkeypatch.setattr(PolyRing, "extend",
                        lambda self, name: names.append(name)
                        or extend(self, name))
    for field in (GF101, QQ):
        R = PolyRing(field, ("x", "y", "t_rad", "t_rad1"))
        I = Ideal(R, [R.parse("(x - y)^16")])
        assert I._squarefree_roots is None
        names.clear()
        assert I.radical_contains(R.parse("x - y"))
        assert not I.radical_contains(R.parse("x"))
        assert names == ["t_rad1'", "t_rad1'"]


def test_radical_of_zero_and_unit_ideals():
    zero, unit = Ideal(S3, []), Ideal(S3, [S3.one()])
    chi1 = S3.parse("chi1")
    assert not zero.radical_contains(chi1)
    assert zero.radical_contains(S3.zero())
    assert unit.radical_contains(chi1)
    assert not zero.same_variety(unit)
    assert zero.same_variety(Ideal(S3, [S3.zero()]))


@pytest.mark.parametrize("gens, expected", [
    # one case per stage that decides; the last fails the powers
    (["chi1^2", "chi2"], {"chi1": True, "chi3": False}),           # monomial
    (["chi1^2", "chi2 - chi3"], {"chi1 + chi2 - chi3": True}),     # p^2
    (["chi1^9", "chi2 - chi3"], {"chi1": True, "chi2": False}),    # y-trick
    (["chi1^2 + chi1"], {"chi1": False, "chi1^2 + chi1": True}),
])
def test_each_stage_of_the_radical_test(gens, expected):
    I = Ideal(S3, [S3.parse(g) for g in gens])
    for text, answer in expected.items():
        p = S3.parse(text)
        assert _reference_radical_contains(I, p) == answer
        assert I.radical_contains(p) == answer


def test_a_member_is_certified_by_its_square(monkeypatch):
    """p in I puts p^2 in I, so the power stage answers True for a member
    of an ideal whose basis is not monomial: p^2 is the one membership
    test made, and p itself is never tried."""
    I = Ideal(S3, [S3.parse("chi1^2 + chi2*chi3"), S3.parse("chi2^3")])
    p = S3.parse("chi1^3 + chi1*chi2*chi3")
    assert I.contains(p) and I._squarefree_roots is None
    asked = []
    contains = Ideal.contains

    def recording(self, q):
        asked.append(q)
        return contains(self, q)

    monkeypatch.setattr(Ideal, "contains", recording)
    assert I.radical_contains(p)
    assert asked == [p * p]
    assert _reference_radical_contains(I, p)


def test_the_certificate_spares_rabinowitsch_runs_on_nm_n3(monkeypatch):
    """The reports of X and X* of ``sessions/nm_n3.session``, a D that is
    not fine, make 46 radical tests.  38 meet an ideal whose basis is not
    monomial, and the certificate (p^2, p^4 or p^8 in the ideal) decides
    all but two of them: at most two Groebner runs in one more variable
    (Rabinowitsch), each counted by the ring it extends.  Without the
    certificate there are 38."""
    pipe = build_pipeline(parse_session(
        (SESSIONS / "nm_n3.session").read_text()))
    Xs = (pipe.X, pipe.X_dual)
    tests, runs = [], []
    radical_contains, extend = Ideal.radical_contains, PolyRing.extend

    def testing(self, p):
        tests.append(self._squarefree_roots is None)
        return radical_contains(self, p)

    def extending(self, name):
        runs.append(name)
        return extend(self, name)

    monkeypatch.setattr(Ideal, "radical_contains", testing)
    monkeypatch.setattr(PolyRing, "extend", extending)
    for X in Xs:
        jump_loci_report(X)
    assert (len(tests), sum(tests)) == (46, 38)
    assert len(runs) <= 2


@pytest.mark.parametrize("gens", [
    ["x^2 - y", "x*y", "3"],    # a constant among the inputs
    ["x*y + 1", "x^2"],         # the unit appears from an S-pair
])
def test_untracked_ideal_basis_with_a_unit_is_one(gens):
    R = PolyRing(GF101, ("x", "y"))
    before = GBStats.pairs_processed
    gb = ModuleGB(R, 1, [vector_of(R.parse(g)) for g in gens])
    assert gb.leads == [[((0, 0), {(0, (0, 0)): 1})]]
    if "3" in gens:
        # the run stops at the constant, before any S-pair
        assert GBStats.pairs_processed == before


def test_dimension_and_multiplicity_of_ideals():
    S = PolyRing(GF101, ("chi1", "chi2"), (2, 2))
    assert Ideal(S, []).dimension() == 2
    assert Ideal(S, [S.parse("chi1")]).dimension() == 1
    assert Ideal(S, [S.parse("chi1"), S.parse("chi2")]).dimension() == 0
    assert Ideal(S, [S.one()]).is_unit_ideal()
    assert Ideal(S, [S.one()]).dimension() == -1


# -- dimension from leading monomials, Hilbert numerator by pivots ---------


def _colon_hilbert_num(monos, weights, memo):
    """Reference: the colon recursion on the last generator that the pivot
    recursion replaced, N(I) = N(I') - t^{deg m} N(I' : m) with
    I = I' + (m).  It recurses once per generator."""
    if not monos:
        return {0: 1}
    got = memo.get(monos)
    if got is not None:
        return got
    rest, last = monos[:-1], monos[-1]
    n1 = _colon_hilbert_num(_minimalize(rest), weights, memo)
    colon = tuple(tuple(max(a - b, 0) for a, b in zip(m, last)) for m in rest)
    n2 = _colon_hilbert_num(_minimalize(colon), weights, memo)
    shift = sum(e * w for e, w in zip(last, weights))
    out = dict(n1)
    for d, c in n2.items():
        out[d + shift] = out.get(d + shift, 0) - c
        if not out[d + shift]:
            del out[d + shift]
    memo[monos] = out
    return out


def _hilbert_dimension(gb):
    """Reference: the dimension of F/U from the Hilbert numerator of the
    leading monomials of each component, summed over the components."""
    weights = tuple(gb.ring.weights)
    total = {}
    for own in gb.leads:
        leads = _minimalize([m for m, _ in own])
        for d, c in _colon_hilbert_num(leads, weights, {}).items():
            total[d] = total.get(d, 0) + c
    return dimension_and_multiplicity(total, gb.ring.nvars)[0]


R4 = PolyRing(GF101, ("x", "y", "z", "w"), (1, 2, 1, 3))
_EXPONENTS4 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
_COLUMNS4 = st.lists(st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2), _EXPONENTS4),
    st.integers(min_value=1, max_value=100), min_size=1, max_size=3),
    max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rank=st.integers(min_value=1, max_value=3), columns=_COLUMNS4,
       track=st.booleans())
def test_module_dimension_from_leads_equals_the_hilbert_dimension(
        rank, columns, track):
    """Random modules in four weighted variables, monomial or not, tracked
    or not, of rank 1 to 3; no columns is the free module, and a column
    with a constant term may make a component, or all, zero."""
    cols = [{(comp % rank, m): c for (comp, m), c in col.items()}
            for col in columns]
    gb = ModuleGB(R4, rank, cols, track=track)
    assert gb.dimension() == _hilbert_dimension(gb)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gens=_GENERATORS)
def test_ideal_dimension_from_leads_equals_the_hilbert_dimension(gens):
    """Monomial, mixed, zero and unit ideals of S3, against the Hilbert
    dimension that ``hilbert_data`` reads off the Hilbert numerator of the
    one-row matrix of the generators."""
    I = Ideal(S3, gens)
    want, _, _ = hilbert_data(PolyMatrix.from_rows(S3, [gens]))
    assert I.dimension() == want


def test_module_dimension_is_taken_per_component():
    """x e_0 and y e_1 each leave a component of dimension n - 1; the
    supports pooled across components would give n - 2."""
    gb = ModuleGB(R4, 2, [{(0, (1, 0, 0, 0)): 1}, {(1, (0, 1, 0, 0)): 1}])
    assert gb.dimension() == 3
    gb = ModuleGB(R4, 2, [{(0, (0, 0, 0, 0)): 1}, {(1, (1, 1, 0, 0)): 1}])
    assert gb.dimension() == 3
    assert ModuleGB(R4, 2, [{(0, (0,) * 4): 1}, {(1, (0,) * 4): 1}],
                    track=True).dimension() == -1


def test_dimension_branches_instead_of_enumerating_subsets():
    """In 40 variables, x_0^2 and x_1 x_2 leave dimension 38, and squares
    of the first 30 variables leave 10; an enumeration of the 2^40 subsets
    would never finish."""
    R = PolyRing(GF101, tuple(f"a{i}" for i in range(40)))
    assert Ideal(R, [R.parse("a0^2"), R.parse("a1*a2")]).dimension() == 38
    squares = [R.parse(f"a{i}^2") for i in range(30)]
    assert Ideal(R, squares).dimension() == 10


_MONOMIAL_IDEALS = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), max_size=7)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(monos=_MONOMIAL_IDEALS,
       weights=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3))
def test_pivot_numerator_equals_the_colon_recursion(monos, weights):
    """Random monomial ideals in three variables of mixed weights,
    including the zero ideal and, through the zero exponent, the unit
    ideal."""
    gens = _minimalize(monos)
    assert _hilbert_num(gens, weights) == _colon_hilbert_num(gens, weights,
                                                             {})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(monos=st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                      max_size=20))
def test_minimalize_keeps_exactly_the_minimal_monomials(monos):
    """Against the definition, every pair tested: the monomials no other
    one divides, once each, by total degree and then exponents."""
    want = {m for m in monos
            if not any(g != m and all(a <= b for a, b in zip(g, m))
                       for g in monos)}
    assert _minimalize(monos) == tuple(sorted(want,
                                              key=lambda m: (sum(m), m)))


def _staircase(N):
    """The minimal generators x^i y^{N - i}, 0 <= i <= N, of (x, y)^N,
    whose numerator is 1 - (N + 1) t^N + N t^{N + 1}."""
    return tuple((i, N - i) for i in range(N + 1))


@pytest.mark.parametrize("N, limit_s", [(300, 0.5), (2000, 5.0)])
def test_pivot_numerator_of_a_long_staircase(N, limit_s):
    """The colon recursion recursed once per generator: N = 300 took
    seconds, and N = 1,200 passed the interpreter's recursion limit."""
    start = time.perf_counter()
    num = _hilbert_num(_staircase(N), (1, 1))
    assert time.perf_counter() - start < limit_s
    assert num == {0: 1, N: -(N + 1), N + 1: N}


# -- single-term pairs and heap-ordered reduction --------------------------


def _real_lead(gb, v):
    """The largest real term of ``v``, found by a scan, or None."""
    real = [term for term in v if term[0] < gb.rank]
    return max(real, key=gb._term_key, default=None)


def _scanning_reduce_full(gb, v):
    """Reference division: rescan the vector for its lead term each step,
    and the leads of its component for the first reducer."""
    fld = gb.ring.field
    v = dict(v)
    remainder = {}
    while True:
        lt = _real_lead(gb, v)
        if lt is None:
            break
        comp, mono = lt
        reducer = None
        for gm, g in gb.leads[comp]:
            if all(a <= b for a, b in zip(gm, mono)):
                reducer = (g, gm)
                break
        if reducer is None:
            remainder[lt] = v.pop(lt)
            continue
        g, gm = reducer
        shift = tuple(a - b for a, b in zip(mono, gm))
        v = vec_add(fld, v, g, fld.neg(v[lt]), shift)
    for k, c in v.items():
        remainder[k] = c
    return remainder, _real_lead(gb, remainder)


class _ScanningGB(ModuleGB):
    _reduce_full = _scanning_reduce_full


def _random_vector(rng, ring, rank, nterms, comps=None):
    """Homogeneous vector with up to ``nterms`` terms, in ``comps``
    (default: the real components)."""
    comps = range(rank) if comps is None else comps
    d = rng.randrange(1, 4)
    monos = [m for m in itertools.product(range(d + 1), repeat=ring.nvars)
             if sum(m) == d]
    return {(rng.choice(comps), rng.choice(monos)):
            ring.field.coerce(rng.randrange(1, 101))
            for _ in range(nterms)}


def _random_columns(rng, ring, rank, kind):
    sizes = {"monomial": [1], "binomial": [2], "mixed": [1, 1, 2, 3]}[kind]
    return [_random_vector(rng, ring, rank, rng.choice(sizes))
            for _ in range(rng.randrange(2, 6))]


def test_skipping_single_term_pairs_keeps_the_reduced_basis():
    rng = random.Random(5)
    R = PolyRing(GF101, ("x", "y", "z"))
    for kind in ("monomial", "binomial", "mixed"):
        for rank in (1, 1, 2):
            for _ in range(8):
                cols = _random_columns(rng, R, rank, kind)
                assert (ModuleGB(R, rank, cols).leads
                        == EveryPairGB(R, rank, cols).leads), cols


def test_monomial_input_processes_no_pair():
    R = PolyRing(GF101, ("x", "y", "z"))
    cols = [{(0, (2, 0, 0)): 1}, {(0, (1, 1, 0)): 3}, {(1, (0, 1, 1)): 1},
            {(1, (0, 0, 2)): 7}, {(1, (1, 0, 1)): 1}]
    before = GBStats.pairs_processed
    gb = ModuleGB(R, 2, cols)
    assert GBStats.pairs_processed == before
    assert sum(map(len, gb.leads)) == 5
    EveryPairGB(R, 2, cols)
    assert GBStats.pairs_processed > before


_RINGS3W = [PolyRing(field, ("x", "y", "z"), (1, 2, 1))
            for field in (GF(2), GF101, QQ)]
_EXPONENTS3 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@st.composite
def _pair_criteria_input(draw):
    """A ring x, y, z of weights (1, 2, 1) over GF(2), GF(101) or QQ, rank
    1 to 3, columns of one to three terms, unit entries among them, and
    probes for ``lift``: vectors in and out of the span of the columns.
    Graded inputs get row degrees, homogeneous columns and ``modulo``
    vectors."""
    R = draw(st.sampled_from(_RINGS3W))
    fld = R.field
    rank = draw(st.integers(min_value=1, max_value=3))
    graded = draw(st.booleans())
    row_degrees = ([draw(st.integers(min_value=0, max_value=2))
                    for _ in range(rank)] if graded else None)

    def scalar():
        n, den = draw(st.integers(1, 100)), draw(st.integers(1, 3))
        return fld.coerce(n) if fld.p else fld.coerce(n) / den

    def vector():
        terms = draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=rank - 1), _EXPONENTS3),
            min_size=1, max_size=3))
        if graded:  # keep the terms of the first term's degree
            deg = [R.wdeg(m) + row_degrees[c] for c, m in terms]
            terms = [t for t, d in zip(terms, deg) if d == deg[0]]
        return {t: c for t in terms if (c := scalar())}

    columns = [vector() for _ in range(draw(st.integers(0, 6)))]
    modulo = ([v for _ in range(draw(st.integers(0, 2))) if (v := vector())]
              if graded else ())
    probes = [vector() for _ in range(draw(st.integers(0, 2)))]
    if columns:  # a combination of monomial multiples of the columns
        acc = {}
        add_image(columns, {(draw(st.integers(0, len(columns) - 1)),
                             draw(_EXPONENTS3)): scalar()
                            for _ in range(draw(st.integers(1, 3)))}, acc)
        probes.append(reduced(acc, fld.p))
    return R, rank, columns, row_degrees, modulo, probes


def _monomial_columns(*monos):
    """An ungraded case of rank one whose columns are ``monos``."""
    R = _RINGS3W[1]
    return R, 1, [vector_of(R.parse(m)) for m in monos], None, (), []


def _two_rows_one_lcm():
    """A graded case of rank 2, both rows in degree 0: x^2 and x*z lead
    two columns in row 0 and two in row 1, each with a tail in the other
    row, so each component queues a pair of lcm x^2*z."""
    R = _RINGS3W[1]
    x2, y, xz, z2 = (2, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 2)
    columns = [{(r, lead): 1, (1 - r, tail): 3}
               for r in (0, 1) for lead, tail in ((x2, y), (xz, z2))]
    return R, 2, columns, [0, 0], (), []


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_pair_criteria_input(), track=st.booleans())
@example(case=_monomial_columns("x*y", "y*z", "x*z"), track=True)
@example(case=_monomial_columns("x^2*z", "y*z^2", "x^2"), track=True)
@example(case=_monomial_columns("y*z^2", "x^2*z", "x^2"), track=True)
@example(case=_two_rows_one_lcm(), track=False)
@example(case=_two_rows_one_lcm(), track=True)
def test_gebauer_moeller_pairs_keep_the_basis(case, track):
    """Runs with the Gebauer-Moeller pairs against the run that reduces
    every pair (``oracles.EveryPairGB``), tracked or not.  An ungraded,
    untracked run leaves the same reduced basis.  Otherwise the two runs
    keep the same columns, and their bases reduce each other's elements to
    zero: both are Groebner bases, through the top column degree for a
    graded untracked run.  The syzygies of a tracked run lie in the span
    of the reference's and back, and its lifts exist where the
    reference's do, each solving v + sum_i c_i * column_i = 0 modulo
    ``modulo``, over the kept columns.

    On monomial columns the syzygies are the lead syzygies, so a pair the
    chain test drops wrongly loses one.  The examples: three leads whose
    pairwise lcms are all x*y*z, where no lead makes a pair of the other
    two redundant; and x^2*z, y*z^2, x^2, with the first two in either
    order: x^2 divides the lcm L of the first pair and its lcm with y*z^2
    is L, so that pair of x^2 is not queued (its lcm is not minimal) and
    the chain test must keep the first pair.  A pair is named by its
    component and two positions there, so pairs of one degree and lcm
    leave the queue by component: the case of two rows, each with a pair
    of lcm x^2*z, takes row 0's first, though row 1's elements were added
    first."""
    R, rank, columns, row_degrees, modulo, probes = case
    runs = [cls(R, rank, columns, track=track, row_degrees=row_degrees,
                modulo=modulo) for cls in (ModuleGB, EveryPairGB)]
    gb, ref = runs
    if row_degrees is None and not track:
        assert gb.leads == ref.leads
        return
    assert list(gb.kept) == list(ref.kept)
    for a, b in (runs, runs[::-1]):
        assert all(not a.normal_form(v) for own in b.leads for _, v in own)
    if not track:
        return
    kept = [columns[j] for j in gb.kept]
    syzygies = [run.syzygies() for run in runs]
    for a, b in (syzygies, syzygies[::-1]):
        span = ModuleGB(R, len(kept), a)
        assert all(span.contains(s) for s in b)
    quotient = ModuleGB(R, rank, list(modulo))
    for v in columns + probes:
        c = gb.lift(v)
        assert (c is None) == (ref.lift(v) is None)
        if c is not None:
            acc = dict(v)
            add_image(kept, c, acc)
            assert quotient.contains(reduced(acc, R.field.p))


def test_gebauer_moeller_pairs_are_fewer():
    """The Gebauer-Moeller pairs reduce fewer S-vectors than every pair,
    and count the pairs they skip."""
    R = PolyRing(GF101, ("x", "y", "z", "w"))
    cols = [vector_of(R.parse(g))
            for g in ("x*y + z*w", "x*z + 3*y*w", "x^2 - y*z", "y^2 + x*w")]
    before = GBStats.snapshot()
    gb = ModuleGB(R, 1, cols)
    mid = GBStats.snapshot()
    ref = EveryPairGB(R, 1, cols)
    after = GBStats.snapshot()
    assert gb.leads == ref.leads
    processed = mid["pairs_processed"] - before["pairs_processed"]
    skipped = mid["pairs_skipped"] - before["pairs_skipped"]
    assert 0 < processed < after["pairs_processed"] - mid["pairs_processed"]
    assert skipped > 0
    assert after["pairs_skipped"] == mid["pairs_skipped"]


def test_heap_reduction_equals_the_scanning_reduction():
    """Same remainders, term for term and in the same order, the same
    leads, and the same bases and syzygies, tracked and untracked, in
    ranks 1 to 3, over GF(101) and QQ, with unit and unequal weights."""
    rng = random.Random(12)
    rings = [PolyRing(GF101, ("x", "y", "z")), PolyRing(QQ, ("x", "y")),
             PolyRing(GF101, ("x", "y", "z"), (1, 2, 3)),
             PolyRing(QQ, ("x", "y", "z"), (1, 2, 3))]
    for R in rings:
        for track in (False, True):
            for rank in (1, 2, 3):
                for _ in range(4):
                    cols = _random_columns(rng, R, rank, "mixed")
                    gb = ModuleGB(R, rank, cols, track=track)
                    ref = _ScanningGB(R, rank, cols, track=track)
                    assert gb.leads == ref.leads
                    if track:
                        assert gb.syzygies() == ref.syzygies()
                    shadow = range(rank, rank + len(cols)) if track else None
                    for _ in range(6):
                        v = _random_vector(rng, R, rank, rng.randrange(1, 6))
                        if shadow is not None:
                            v.update(_random_vector(rng, R, rank, 2, shadow))
                        rem, lead = gb._reduce_full(v)
                        ref_rem, ref_lead = _scanning_reduce_full(gb, v)
                        assert list(rem.items()) == list(ref_rem.items())
                        assert lead == ref_lead == _real_lead(gb, rem)


# -- S-vectors on the sparse product, and the leads the Hilbert data reads


_EXPONENTS3 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@st.composite
def _s_vector_inputs(draw):
    """A field, a rank, two module vectors with terms in shadow components
    (index >= rank) too, nonzero coefficients, and two shifts."""
    field = draw(st.sampled_from([GF(2), GF101, QQ]))
    rank = draw(st.integers(min_value=1, max_value=3))

    def vector():
        out = {}
        for comp, m, n, den in draw(st.lists(st.tuples(
                st.integers(0, rank + 1), _EXPONENTS3,
                st.integers(-50, 50), st.integers(1, 5)), max_size=5)):
            c = field.coerce(n) if field.p else field.coerce(n) / den
            if c:
                out[(comp, m)] = c
        return out

    return field, rank, vector(), vector(), draw(_EXPONENTS3), \
        draw(_EXPONENTS3)


def _s_vector(field, rank, gi, si, gj, sj):
    """The S-vector ``ModuleGB._next_pair`` reduces for a pair whose two
    elements are ``gi`` and ``gj`` and whose shifts are ``si`` and ``sj``."""
    lcm = tuple(map(max, si, sj))
    gb = ModuleGB(PolyRing(field, ("x", "y", "z")), rank, [], track=True)
    gb.leads[0] = [(tuple(a - b for a, b in zip(lcm, si)), gi),
                   (tuple(a - b for a, b in zip(lcm, sj)), gj)]
    seen = []
    gb._reduce_full = lambda v: (seen.append(v), ({}, None))[1]
    gb._next_pair([(None, 0, 0, 1, lcm)])
    return seen[0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_s_vector_inputs())
def test_s_vector_on_the_sparse_product_equals_the_termwise_sum(drawn):
    """x^si gi - x^sj gj formed by ``add_image`` and ``reduced`` equals
    the term-by-term sum of the tests' ``vec_add``, term for term and in
    the same order, over GF(2), GF(101) and QQ, shadow terms included;
    and equal shifted vectors cancel to {}."""
    field, rank, gi, gj, si, sj = drawn
    one = field.one()
    want = vec_add(field, vec_add(field, {}, gi, one, si), gj,
                   field.neg(one), sj)
    got = _s_vector(field, rank, gi, si, gj, sj)
    assert list(got.items()) == list(want.items())
    assert _s_vector(field, rank, gi, si, gi, si) == {}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field=st.sampled_from([GF(2), GF101, QQ]),
       rank=st.integers(min_value=1, max_value=3), columns=_COLUMNS4)
def test_an_untracked_run_leaves_minimal_distinct_leads(field, rank, columns):
    """The premise on which ``module_hilbert_data`` takes each component's
    leads as they stand: after an ungraded, untracked run the leads of a
    component are distinct and ``_minimalize`` keeps them all.  The
    interreduction that ensures it drops the later copies of an equal
    lead: the basis installed twice over interreduces to itself, each
    component's leads in descending term order."""
    R = PolyRing(field, ("x", "y", "z", "w"), (1, 2, 1, 3))
    cols = [{(comp % rank, m): field.coerce(c) for (comp, m), c in col.items()
             if field.coerce(c)} for col in columns]
    gb = ModuleGB(R, rank, cols)
    for leads in gb.leads:
        monos = [m for m, _ in leads]
        assert len(set(monos)) == len(monos)
        assert sorted(_minimalize(monos)) == sorted(monos)
        assert monos == sorted(monos, key=R.mono_key, reverse=True)
    basis = [(v, (r, m)) for r, own in enumerate(gb.leads) for m, v in own]
    twice = ModuleGB.of_basis(R, rank, basis + basis)
    twice._interreduce()
    assert twice.leads == gb.leads
