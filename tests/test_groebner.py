"""Groebner engine: bases, normal forms, syzygies, Hilbert data, radicals."""

import heapq
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci.groebner import (GBStats, Ideal, ModuleGB, _hilbert_num,
                               _minimalize, _vec_add,
                               dimension_and_multiplicity, module_hilbert_data,
                               vector_of)
from jumploci.poly import Polynomial
from jumploci.matrix import PolyMatrix

from conftest import matrix_of
from oracles import syzygy_matrix

GF5 = GF(5)
GF101 = GF(101)


# -- bases and normal forms ------------------------------------------------


def test_monomial_ideal_is_its_own_basis():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    leads = sorted(str(R.monomial(lead[1])) for _, lead in I._basis().basis)
    assert leads == ["x*y", "x^2"]


def test_hand_buchberger_fixture_over_rationals():
    R = PolyRing(QQ, ("x", "y"))
    I = Ideal(R, [R.parse("x^2 - y^2"), R.parse("x^2 + y^2")]).reduced()
    assert sorted(str(g) for g in I.gens) == ["x^2", "y^2"]


def test_zero_ideal_has_empty_basis():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [])
    assert I.is_zero_ideal()
    assert I.groebner_generators() == []


def test_normal_form_membership():
    R = PolyRing(GF101, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert I.normal_form(R.parse("x^2*y")).is_zero()
    assert str(I.normal_form(R.parse("y^3"))) == "y^3"


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
    col = [syz.get(0, 0), syz.get(1, 0)]
    assert sorted(str(p.monic()) for p in col) == ["x", "y"]


def test_identity_has_no_syzygies():
    R = PolyRing(GF101, ("x", "y"))
    P = PolyMatrix.identity(R, 3)
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
                v = [fld.sub(a, fld.mul(coeff, b)) for a, b in zip(v, w)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is not None:
            inv = fld.inv(v[lead])
            pivots[lead] = [fld.mul(inv, a) for a in v]
    for col, w in pivots.items():
        if target[col]:
            coeff = target[col]
            target = [fld.sub(a, fld.mul(coeff, b))
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
    dim, mult, num = module_hilbert_data(mat, [0], (1, 1, 1))
    assert (dim, mult) == (3, 1)


def test_hilbert_hypersurface():
    S = PolyRing(GF101, ("chi1", "chi2", "chi3"))
    mat = matrix_of(S, [["chi1"]])
    dim, mult, _ = module_hilbert_data(mat, [0], (1, 1, 1))
    assert (dim, mult) == (2, 1)


def test_hilbert_two_point_module():
    S = PolyRing(GF101, ("chi1", "chi2"))
    mat = PolyMatrix.block_diag([matrix_of(S, [["chi1", "chi2"]]),
                                 matrix_of(S, [["chi1", "chi2"]])])
    dim, mult, _ = module_hilbert_data(mat, [0, 0], (1, 1))
    assert (dim, mult) == (0, 2)


def test_hilbert_zero_module():
    S = PolyRing(GF101, ("chi1",))
    mat = matrix_of(S, [["1"]])
    dim, mult, _ = module_hilbert_data(mat, [0], (1,))
    assert dim == -1


def test_hilbert_monomial_ideal_against_direct_count():
    S = PolyRing(GF5, ("chi1", "chi2"))
    gens = [S.parse("chi1^2"), S.parse("chi1*chi2^2")]
    mat = matrix_of(S, [[str(g) for g in gens]])
    dim, mult, num = module_hilbert_data(mat, [0], (1, 1))
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
    var_map = list(range(I.ring.nvars))
    gens = [g.map_ring(aux, var_map) for g in I.gens]
    y = aux.gen(aux.nvars - 1)
    gens.append(aux.one() - y * p.map_ring(aux, var_map))
    gb = ModuleGB(aux, 1, [vector_of([g], aux) for g in gens], track=True)
    return gb.contains(vector_of([aux.one()], aux))


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


@pytest.mark.parametrize("gens", [
    ["x^2 - y", "x*y", "3"],    # a constant among the inputs
    ["x*y + 1", "x^2"],         # the unit appears from an S-pair
])
def test_untracked_ideal_basis_with_a_unit_is_one(gens):
    R = PolyRing(GF101, ("x", "y"))
    before = GBStats.pairs_processed
    gb = ModuleGB(R, 1, [vector_of([R.parse(g)], R) for g in gens])
    assert gb.basis == [({(0, (0, 0)): 1}, (0, (0, 0)))]
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
    for r in range(gb.rank):
        leads = _minimalize([m for _, (c, m) in gb.basis if c == r])
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
    dimension that ``module_hilbert_data`` reads off the one-row matrix of
    the generators."""
    I = Ideal(S3, gens)
    want, _, _ = module_hilbert_data(PolyMatrix.from_rows(S3, [gens]))
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


class _EveryPairGB(ModuleGB):
    """Keeps the S-pair of two single-term vectors in untracked runs."""

    def _add_element(self, v, lead, pairs):
        idx = len(self.basis)
        self._append(self._monic(v, lead), lead)
        GBStats.basis_elements += 1
        for j, (_, jlead) in enumerate(self.basis[:-1]):
            if jlead[0] != lead[0]:
                continue
            lcm = tuple(max(a, b) for a, b in zip(jlead[1], lead[1]))
            if (not self.track and self.rank == 1
                    and all(a + b == l for a, b, l in
                            zip(jlead[1], lead[1], lcm))):
                continue
            heapq.heappush(pairs, (self.ring.mono_key(lcm), j, idx, lcm))


def _real_lead(gb, v):
    """The largest real term of ``v``, found by a scan, or None."""
    real = [term for term in v if term[0] < gb.rank]
    return max(real, key=gb._term_key, default=None)


def _scanning_reduce_full(gb, v):
    """Reference division: rescan the vector for its lead term each step,
    and the whole basis for the first reducer."""
    fld = gb.ring.field
    v = dict(v)
    remainder = {}
    while True:
        lt = _real_lead(gb, v)
        if lt is None:
            break
        comp, mono = lt
        reducer = None
        for g, glead in gb.basis:
            gc, gm = glead
            if gc == comp and all(a <= b for a, b in zip(gm, mono)):
                reducer = (g, gm)
                break
        if reducer is None:
            remainder[lt] = v.pop(lt)
            continue
        g, gm = reducer
        shift = tuple(a - b for a, b in zip(mono, gm))
        v = _vec_add(fld, v, g, fld.neg(v[lt]), shift)
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
                assert (ModuleGB(R, rank, cols).basis
                        == _EveryPairGB(R, rank, cols).basis), cols


def test_monomial_input_processes_no_pair():
    R = PolyRing(GF101, ("x", "y", "z"))
    cols = [{(0, (2, 0, 0)): 1}, {(0, (1, 1, 0)): 3}, {(1, (0, 1, 1)): 1},
            {(1, (0, 0, 2)): 7}, {(1, (1, 0, 1)): 1}]
    before = GBStats.pairs_processed
    gb = ModuleGB(R, 2, cols)
    assert GBStats.pairs_processed == before
    assert len(gb.basis) == 5
    _EveryPairGB(R, 2, cols)
    assert GBStats.pairs_processed > before


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
                    assert gb.basis == ref.basis
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
