"""Jump loci, complexity, Betti/Bass degrees, duality, realizability."""

import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jumploci import GF, QQ, PolyRing, cli, loci, twisted
from jumploci.cli import parse_chain_file
from jumploci.groebner import (Ideal, ModuleGB, _minimalize,
                               module_hilbert_data)
from jumploci.matrix import PolyMatrix, _blocks
from jumploci.resolution import (RingData, resolve_over_a, resolve_over_b,
                                 PipelineError, quotient_columns)
from jumploci.session import Pipeline, parse_session, build_pipeline
from jumploci.homotopy import compute_higher_homotopies
from jumploci.twisted import (build_twisted_complex, minimalize,
                              free_complex, koszul_object_list, direct_sum,
                              homology_presentation, s_dual)
from jumploci.loci import (crk_at, jump_locus_ideal, jump_loci_report,
                           complexity_of, betti_degree, betti_numbers,
                           duality_check, realize,
                           stable_betti_oracle, RouteDisagreement)

from conftest import (BENCH_INPUT_STEMS, DG_SESSION_STEMS, LADDER,
                      NON_FINE_SESSION_STEMS, REPO, SESSION_STEMS, SESSIONS,
                      PAIR_BLOCK_SESSION, assert_twisted_complex, koszul_block,
                      random_monomial_rows, random_homogeneous,
                      random_twisted_complex)
from oracles import (TruncationNeeded, additivity_check, crk_table,
                     dimension_and_multiplicity, dual_presentation,
                     explicit_dual, fit_quasi_polynomial,
                     fraction_quasi_polynomial, full_system, hilbert_data,
                     duality_check_by_index, jump_locus_ideal_by_cases,
                     jump_locus_via_exterior_power, jump_numbers_by_position,
                     per_index, plateaus_by_index, plateaus_by_table,
                     point_on_hyperplane, shift, top_cycle_betti_degree,
                     x_of_m_star)

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


# The files of ``sessions/`` and ``perfbench/inputs/`` whose minor tables
# finish (all but ``sq_n6_e2``): the coker files and the DG sessions.
_MINORS_FINISH = [p for d in (SESSIONS, REPO / "perfbench" / "inputs")
                  for p in sorted(d.glob("*.session")) if p.stem != "sq_n6_e2"]


def _assert_one_formula_at_every_index(X):
    """``jump_locus_ideal`` has the reduced generators of the route it
    replaced (``jump_locus_ideal_by_cases``) at every index from -3 to
    r + 3, and the zero ideal below 0, where that route raised; the
    per-index list of the report before it held plateaus (``per_index``)
    has that route's ideals and dimensions, and the report has the jump
    numbers of the positional walk over them (``jump_numbers_by_position``)
    and the plateaus read off them (``plateaus_by_index``), reading one
    dimension per plateau, of its own ideal, and none of the final one."""
    r = X.rank
    for i in range(-3, r + 4):
        got = jump_locus_ideal(X, i).gens
        want = [] if i < 0 else jump_locus_ideal_by_cases(X, i).reduced().gens
        assert got == want, (i, [str(g) for g in got])
    old = []
    for i in range(2 - r % 2, r + 1, 2):
        I = jump_locus_ideal_by_cases(X, i)
        old.append((i, I, I.dimension()))
    assert [(i, I.gens, d) for i, I, d in per_index(X)] \
        == [(i, I.gens, d) for i, I, d in old]
    with mock.patch.object(Ideal, "dimension", autospec=True,
                           side_effect=Ideal.dimension) as dimension:
        rep = jump_loci_report(X)
    assert rep.jump_numbers == jump_numbers_by_position(old)
    assert [(a, b, I.gens, d) for a, b, I, d in rep.plateaus] \
        == plateaus_by_index(X)
    assert [c.args[0] for c in dimension.call_args_list] \
        == [I for _, _, I, _ in rep.plateaus[:-1]]


@pytest.mark.parametrize("path", _MINORS_FINISH, ids=lambda p: p.stem)
def test_one_formula_at_every_index_on_the_input_files(path):
    """On X(M) and X(M*) of every session and benchmark input whose minor
    table finishes."""
    pipe = build_pipeline(parse_session(path.read_text()))
    for X in (pipe.X, pipe.X_dual):
        _assert_one_formula_at_every_index(X)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 5, 101]), nvars=st.integers(1, 3),
       seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
def test_one_formula_at_every_index_on_sums_of_koszul_objects(p, nvars,
                                                              seeds):
    """On direct sums of two random Koszul objects
    (``random_twisted_complex``) and their S-duals, in one to three
    variables."""
    S = PolyRing(GF(p), ("chi1", "chi2", "chi3")[:nvars], (2,) * nvars)
    X = direct_sum(*(random_twisted_complex(S, random.Random(seed))
                     for seed in seeds))
    for Y in (X, s_dual(X)):
        _assert_one_formula_at_every_index(Y)


# -- the plateaus of a fine D off its ranks at the 0/1 points --------------


_FINE_MINORS_FINISH = [p for p in _MINORS_FINISH
                       if p.stem not in NON_FINE_SESSION_STEMS]
_SQ_N6_E2 = REPO / "perfbench" / "inputs" / "sq_n6_e2.session"


def _bounds(report):
    return [(a, b, d) for a, b, _, d in report.plateaus]


@pytest.mark.parametrize("path", _FINE_MINORS_FINISH, ids=lambda p: p.stem)
def test_the_rank_table_gives_the_plateaus_of_the_report(path):
    """On X(M) and X(M*) of every input with a fine D whose minor table
    finishes, the plateaus read off the ranks of D at the 0/1 points
    (``plateaus_by_table``) are the report's (i_from, i_to, dim)."""
    pipe = build_pipeline(parse_session(path.read_text()))
    for X in (pipe.X, pipe.X_dual):
        assert all(fine for _, _, fine in _blocks(X.D.entries))
        assert plateaus_by_table(X) == _bounds(jump_loci_report(X))


def test_the_rank_table_reads_sq_n6_e2_past_the_minor_wall():
    """``compute`` refuses sq_n6_e2 at ``MAX_MINOR_WORK``, but its D is
    fine, and the table gives X and X* three plateaus."""
    pipe = build_pipeline(parse_session(_SQ_N6_E2.read_text()))
    for X in (pipe.X, pipe.X_dual):
        assert plateaus_by_table(X) == [(1, 64, 4), (65, 96, 2),
                                        (97, 144, 0), (145, 145, -1)]


def test_the_rank_table_rests_on_a_fine_d():
    """On X of every non-fine session the 0/1 points miss what the minors
    see: on ``lin_n2`` the line chi1 + chi2 = 0, on ``cubes_lin`` a plane
    and on ``nm_n3`` a plane of crk 8 = r - 4."""
    for stem in NON_FINE_SESSION_STEMS:
        X = build_pipeline(parse_session(
            (SESSIONS / f"{stem}.session").read_text())).X
        assert plateaus_by_table(X) != _bounds(jump_loci_report(X)), stem


def _vanishes_on(gens, Z):
    """Whether every polynomial of ``gens`` vanishes on L_Z, where the
    chi's off Z are 0: each of its terms has a chi off Z."""
    return all(any(e for j, e in enumerate(m) if j not in Z)
               for g in gens for m in g.terms)


def _subsets(c):
    return [Z for k in range(c + 1)
            for Z in itertools.combinations(range(c), k)]


def _maximal(sets):
    return [Z for Z in sets if not any(set(Z) < set(W) for W in sets)]


def _components_of_the_report(X):
    """(i_to, Z, whether L_Z lies in the next plateau's variety) for each
    component L_Z of each plateau but the last, read off the report's
    ideals: for a fine D, V(I) is a union of coordinate subspaces, whose
    components are the L_Z in it with Z maximal, of dimension dim."""
    plateaus = jump_loci_report(X).plateaus
    out = []
    for (_, i_to, I, dim), (_, _, J, _) in zip(plateaus, plateaus[1:]):
        top = _maximal([Z for Z in _subsets(X.S.nvars)
                        if _vanishes_on(I.gens, Z)])
        assert max(map(len, top)) == dim
        out += [(i_to, Z, _vanishes_on(J.gens, Z)) for Z in top]
    return out


def _components_of_the_table(X):
    """``_components_of_the_report`` off ``crk_table``, for a D whose
    minor table does not fit: the L_Z of plateau i_to are the maximal Z
    with crk_Z >= i_to, in the next plateau's variety when crk_Z is at
    least that plateau's i_from."""
    table = crk_table(X)
    plateaus = plateaus_by_table(X)
    return [(i_to, Z, table[Z] >= next_from)
            for (_, i_to, _), (next_from, _, _) in zip(plateaus, plateaus[1:])
            for Z in _maximal([Z for Z, crk in table.items() if crk >= i_to])]


def _point_on(where, c, p, rng):
    """A point of the component ``where`` with nonzero coordinates drawn
    below p (below 100 over QQ, p = 0): on L_Z, for a tuple Z of chi
    indices, nonzero exactly on Z; on a hyperplane, a linear form of S,
    nonzero everywhere (``point_on_hyperplane``)."""
    if isinstance(where, tuple):
        return [rng.randrange(1, p or 100) if j in where else 0
                for j in range(c)]
    return point_on_hyperplane(where, rng)


def _assert_crk_on_the_components(pipe, components, rng, oracle=True):
    """At one point of each component of X and X* (``components`` maps
    each to its list of (i_to, where, in_next)), drawn with nonzero
    coordinates on it (``_point_on``): crk is at least the plateau's
    i_to, exactly i_to where the component is not in the next plateau's
    variety, and, with ``oracle``, twice the stable Betti number of M
    over the hypersurface of the point (``stable_betti_oracle``, over a
    finite field only), which reads no homotopy of M.  X* = s_dual(X) has
    D transposed, so its crk at a point is M's too.  The origin, Z = (),
    has no hypersurface, so it is checked against the plateaus only.
    Returns the number of points."""
    c, p = pipe.rd.c, pipe.rd.ring.field.p
    points = {where: _point_on(where, c, p, rng)
              for comps in components.values() for _, where, _ in comps}
    sections = [w for w in points if w != ()] if oracle else []
    stable = dict(zip(sections, stable_betti_oracle(
        pipe.rd, pipe.resolution, [points[w] for w in sections])))
    for X, comps in components.items():
        for i_to, where, in_next in comps:
            crk = crk_at(X, points[where])
            assert crk >= i_to, (where, crk)
            assert in_next or crk == i_to, (where, crk)
            assert where not in stable or 2 * stable[where] == crk, \
                (where, crk)
    return len(points)


@pytest.mark.parametrize("path", [p for p in _FINE_MINORS_FINISH
                                  if p.stem not in DG_SESSION_STEMS],
                         ids=lambda p: p.stem)
def test_the_loci_hold_at_their_own_points(path):
    """On X and X* of every cokernel input with a fine D whose minor
    table finishes, at one point of each component of each plateau but
    the last."""
    pipe = build_pipeline(parse_session(path.read_text()))
    components = {X: _components_of_the_report(X)
                  for X in (pipe.X, pipe.X_dual)}
    _assert_crk_on_the_components(pipe, components, random.Random(path.stem))


def test_the_loci_of_sq_n6_e2_hold_at_their_own_points():
    """sq_n6_e2 past the minor wall, its components read off the table."""
    pipe = build_pipeline(parse_session(_SQ_N6_E2.read_text()))
    components = {X: _components_of_the_table(X)
                  for X in (pipe.X, pipe.X_dual)}
    assert _assert_crk_on_the_components(pipe, components,
                                         random.Random("sq_n6_e2")) > 3


# The components of each plateau but the last of the sessions with a D
# that is not fine, by the plateau's i_to: a linear form of S names a
# hyperplane, and () the origin.  The first is the top of V^1.
_NAMED_COMPONENTS = {
    "lin_n2": {4: "chi1 + chi2"},
    "cubes_lin": {8: "chi1 + 100*chi2"},
    "nm_n3": {8: "chi1 + 4*chi2 + chi3", 12: ()},
    "nm_n3_qq": {8: "chi1 + 4*chi2 + chi3", 12: ()},
}


def _named_components(X, named):
    """(i_to, where, in_next) for each plateau but the last of X, off
    ``named`` (``_NAMED_COMPONENTS``), each text parsed in S.  The
    plateau's variety is checked to be the named component, and in_next,
    whether the component lies in the next plateau's variety, is read off
    the next ideal by radical membership."""
    S = X.S
    plateaus = jump_loci_report(X).plateaus
    out = []
    for (_, i_to, I, _), (_, _, J, _) in zip(plateaus, plateaus[1:]):
        where = named[i_to]
        if where == ():
            component = Ideal(S, [S.gen(j) for j in range(S.nvars)])
        else:
            where = S.parse(where)
            component = Ideal(S, [where])
        assert I.same_variety(component), i_to
        out.append((i_to, where, component.radical_contains_ideal(J)))
    return out


@pytest.mark.parametrize("stem", NON_FINE_SESSION_STEMS)
def test_the_loci_of_the_non_fine_sessions_hold_at_their_own_points(stem):
    """On X and X* of each session whose D is not fine, at one point with
    nonzero coordinates on each named component of each plateau but the
    last: the planes and lines off the coordinate subspaces that the 0/1
    points miss.  ``nm_n3_qq`` is over QQ, so without the point oracle,
    which needs a finite field."""
    pipe = build_pipeline(parse_session(
        (SESSIONS / f"{stem}.session").read_text()))
    components = {X: _named_components(X, _NAMED_COMPONENTS[stem])
                  for X in (pipe.X, pipe.X_dual)}
    assert _assert_crk_on_the_components(
        pipe, components, random.Random(stem),
        oracle=pipe.rd.ring.field.p > 0) == len(_NAMED_COMPONENTS[stem])


# -- the plateaus of random fine complexes off the rank table ---------------


def _nonconstant(m):
    """The exponent tuple ``m``, or x_1 when it is the constant."""
    return m if any(m) else (1,) + m[1:]


@st.composite
def _fine_koszul_sums(draw):
    """A direct sum of one or two Koszul objects over the parity-split
    base, each on one or two monomial eta with nonzero scalars, some
    taken as their S-dual, over GF(2), GF(101) or QQ in c = 1..3
    operators.  Every entry of D is one term and every cycle closes, so
    D is fine."""
    p = draw(st.sampled_from([2, 101, 0]))
    c = draw(st.integers(1, 3))
    S = PolyRing(GF(p) if p else QQ, ("chi1", "chi2", "chi3")[:c], (2,) * c)
    scalars = st.integers(1, p - 1) if p else st.sampled_from([1, -1, 2, -3])
    exponents = st.tuples(*[st.integers(0, 2)] * c).map(_nonconstant)
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        etas = [S.monomial(draw(exponents), draw(scalars))
                for _ in range(draw(st.integers(1, 2)))]
        base = free_complex(S, 2, degrees=[(0, 0), (1, 0)])
        X = koszul_object_list(base, etas)
        blocks.append(s_dual(X) if draw(st.booleans()) else X)
    return direct_sum(*blocks) if len(blocks) > 1 else blocks[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fine_koszul_sums())
def test_the_rank_table_gives_the_plateaus_of_random_fine_complexes(X):
    """On random fine complexes and their S-duals, over GF(p) and QQ, the
    plateaus read off the ranks of D at the 0/1 points
    (``plateaus_by_table``) are the report's, off the minors."""
    for Y in (X, s_dual(X)):
        assert all(fine for _, _, fine in _blocks(Y.D.entries))
        assert plateaus_by_table(Y) == _bounds(jump_loci_report(Y))


# -- reports ---------------------------------------------------------------


def test_report_of_koszul_action(koszul_action):
    rd, res, sys, X = koszul_action
    rep = jump_loci_report(X)
    assert rep.rank == 4
    assert rep.jump_numbers == [4]
    assert all(I.is_zero_ideal() for _, I, _ in per_index(X))
    S = X.S
    assert [(a, b, I.gens, d) for a, b, I, d in rep.plateaus] \
        == [(1, 4, [], 2), (5, 5, [S.one()], -1)]
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
    assert [(a, b, d) for a, b, _, d in rep.plateaus] \
        == [(1, 8, 3), (9, 12, 2), (13, 14, 1), (15, 16, 0), (17, 17, -1)]
    dims = {i: d for i, _, d in per_index(X)}
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
    assert betti_degree(flag_pipeline[4]) == (3, 4)
    assert betti_degree(final_pipeline[4]) == (2, 3)
    assert betti_degree(koszul_action[3]) == (2, 2)
    assert betti_degree(_b_module_pipeline()[1]) == (0, None)
    assert betti_degree(free_complex(PolyRing(GF101, ("chi1",), (2,)), 0)) \
        == (0, None)


@pytest.mark.parametrize("path", _FINE_MINORS_FINISH + [_SQ_N6_E2],
                         ids=lambda p: p.stem)
def test_the_top_cycle_of_v1_gives_the_betti_degree(path):
    """On X and X* of every input with a fine D, ``sq_n6_e2`` past the
    minor wall included, the Betti degree off the crk of the components
    of V^1 of top dimension (``top_cycle_betti_degree``) is the one off
    the leading term of the Betti quasi-polynomial."""
    pipe = build_pipeline(parse_session(path.read_text()))
    for X in (pipe.X, pipe.X_dual):
        assert top_cycle_betti_degree(X) == betti_degree(X)[1]


@pytest.mark.parametrize("stem", NON_FINE_SESSION_STEMS)
def test_the_top_cycle_of_v1_gives_the_betti_degree_off_named_planes(stem):
    """On X and X* of each session whose D is not fine, V^1 is one named
    hyperplane (``_NAMED_COMPONENTS``), and crk is read at a random point
    of it."""
    named = _NAMED_COMPONENTS[stem]
    pipe = build_pipeline(parse_session(
        (SESSIONS / f"{stem}.session").read_text()))
    for X in (pipe.X, pipe.X_dual):
        plane = X.S.parse(named[min(named)])
        assert top_cycle_betti_degree(X, [plane], random.Random(stem)) == \
            betti_degree(X)[1]


@st.composite
def _cyclic_module_sums(draw):
    """X(M) for M a direct sum of one or two cyclic modules over
    GF(p)[x, y] or GF(p)[x, y, z] modulo the pure powers x_k^e, each
    coker [[x_k^e, ..., m_1, ..., m_s]] with one to three monomials m_i
    of exponents below e.  The ci degrees are independent in the finest
    grading, so D is fine."""
    p = draw(st.sampled_from([5, 101]))
    n = draw(st.integers(2, 3))
    e = draw(st.integers(2, 3))
    A = PolyRing(GF(p), ("x", "y", "z")[:n])
    rd = RingData(A, [A.monomial([e * (t == k) for t in range(n)])
                      for k in range(n)])
    exponents = st.tuples(*[st.integers(0, e - 1)] * n).map(_nonconstant)
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        monos = draw(st.lists(exponents, min_size=1, max_size=3, unique=True))
        pres = PolyMatrix.from_rows(
            A, [list(rd.ci) + [A.monomial(m) for m in monos]])
        res = resolve_over_a(rd, pres)
        blocks.append(build_twisted_complex(
            compute_higher_homotopies(res, rd), rd))
    return direct_sum(*blocks) if len(blocks) > 1 else blocks[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cyclic_module_sums())
def test_the_top_cycle_of_v1_gives_the_betti_degree_of_cyclic_sums(X):
    for Y in (X, s_dual(X)):
        assert all(fine for _, _, fine in _blocks(Y.D.entries))
        assert top_cycle_betti_degree(Y) == betti_degree(Y)[1]


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
    """Test-local reference for betti_degree, (complexity, Betti degree):
    split the presentation of H(X) into the submatrices of its even and odd
    rows and read each part's Hilbert data with chi in degree 1."""
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
        dim, mult, _ = hilbert_data(sub, shifts, (1,) * S.nvars)
        parts.append((dim, mult))
    return _read_parts(parts)


def _read_parts(parts):
    """(complexity, Betti degree) off the (dimension, multiplicity) of the
    even and odd parts of Ext: the larger dimension, at least 0, and the
    multiplicity of a part of that dimension, each part of lower
    dimension counting 0; an AssertionError when the parts disagree."""
    complexity = max(dim for dim, _ in parts)
    if complexity <= 0:
        return 0, None
    e_even, e_odd = (mult if dim == complexity else 0 for dim, mult in parts)
    if e_even != e_odd:
        raise AssertionError(
            f"even/odd multiplicities disagree: {e_even} != {e_odd}")
    return complexity, e_even


def _outcome(route, *args):
    """What ``route(*args)`` returns, or the message of the AssertionError
    it raises (a RouteDisagreement among them)."""
    try:
        return route(*args)
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
    assert any(isinstance(v, tuple) and (v[1] or 0) > 1 for v in values)
    assert any(v == (0, None) for v in values)
    assert any(isinstance(v, str) and v.endswith(" != 0") for v in values)
    assert any(isinstance(v, str) and " 0 != " in v for v in values)


@st.composite
def _ext_numerators(draw):
    """(h, c): an integer numerator keyed from -1 upward, of both signs,
    and c = 1..5.  Each parity part is u^o g(u) (1 - u)^s, with s up to
    c + 1, so its dimension c - s (at most) runs from c to below zero;
    at times the odd part is the even part under another u^o, so the two
    parts have one dimension and one multiplicity."""
    c = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
    parts, same = [], draw(st.booleans())
    for e in (0, 1):
        if not (e and same):
            g, s = draw(coeffs), draw(st.integers(0, c + 1))
            for _ in range(s):
                g = [a - b for a, b in zip(g + [0], [0] + g)]
        parts.append((draw(st.integers(-e, 2)), g))
    h = {2 * (o + m) + e: v for e, (o, g) in enumerate(parts)
         for m, v in enumerate(g) if v}
    return h, c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ext_numerators())
@example(({-1: 1, 0: -1, 2: 1}, 1))
@example(({0: 1, 1: 1, 2: -2, 3: -2, 4: 1, 5: 1}, 3))
def test_the_quasi_polynomial_leads_with_the_dimension_and_multiplicity(
        drawn):
    """On each parity, P_e of ``loci._quasi_polynomial`` is the polynomial
    of the Fraction recurrence, and (deg P_e + 1, lead(P_e) 2^deg deg!)
    is the (dimension, multiplicity) of that part of h over k[u],
    u = t^2, read by division by (1 - u), or (0, None) for a part of
    dimension at most 0; ``betti_degree`` on h returns or raises what
    those parts give."""
    h, c = drawn
    branches = loci._quasi_polynomial(h, c)
    assert branches == fraction_quasi_polynomial(h, c)
    parts = []
    for e, poly in enumerate(branches):
        dim, mult = dimension_and_multiplicity(
            {j // 2: v for j, v in h.items() if j % 2 == e}, c)
        lead = (poly[-1] * 2 ** (len(poly) - 1) * math.factorial(
            len(poly) - 1) if poly else None)
        assert (len(poly), lead) == ((dim, mult) if dim > 0 else (0, None))
        parts.append((dim, mult))
    with mock.patch.object(loci, "_ext_numerator", lambda X: (h, c)):
        assert _outcome(betti_degree, None) == _outcome(_read_parts, parts)


def test_bass_degree_via_dual_pipeline(final_pipeline, flag_pipeline):
    for pipeline, expected in ((final_pipeline, 3), (flag_pipeline, 4)):
        rd, pres, res, sys, X = pipeline
        assert betti_degree(explicit_dual(
            res, full_system(sys, rd), rd))[1] == expected


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
    assert betti_numbers(pipe.X, n)[0] == \
        resolve_over_b(pipe.rd, pres, n).betti()
    pres_dual = dual_presentation(pipe.resolution)
    if pres_dual is not None:
        assert betti_numbers(pipe.X_dual, n)[0] == \
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
    assert betti_numbers(perfect.X, 6)[0] == {0: 1}
    # z is regular on k[x,y,z]/(x^2, y^2), so B/(z) has projective dimension 1
    hyper = _assert_betti_routes_agree(
        _coker_session("x, y, z", "x^2, y^2", ["x^2", "y^2", "z"]), 6)
    assert betti_numbers(hyper.X, 6)[0] == {0: 1, 1: 1}


def test_betti_numbers_of_the_zero_module():
    pipe = _assert_betti_routes_agree(
        _coker_session("x, y", "x^2, y^2", ["1"]), 5)
    assert betti_numbers(pipe.X, 5)[0] == {0: 0}


@st.composite
def _cyclic_module_sessions(draw):
    """A cyclic module over k[x0..x(m-1)]/(x0^e0, .., x(c-1)^e(c-1)), with
    c = 1..4, m = c or c + 1 (at most 4) variables of weight 1 or 2, each
    e_k 2 or 3, and one to three random homogeneous relations of one or
    two terms next to the f_k, over GF(2), GF(7), GF(101) or QQ."""
    field = draw(st.sampled_from(["GF(2)", "GF(7)", "GF(101)", "QQ"]))
    c = draw(st.integers(1, 4))
    m = draw(st.integers(c, min(c + 1, 4)))
    names = [f"x{i}" for i in range(m)]
    weights = [draw(st.sampled_from([1, 2])) for _ in names]
    A = PolyRing(GF101, names, weights)  # lists the monomials only
    ci = [f"{v}^{draw(st.integers(2, 3))}" for v in names[:c]]
    top = 1 if field == "GF(2)" else 6
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        monos = _forms(A, draw(st.integers(1, 3)))
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=2, unique=True))
        relations.append(" + ".join(
            f"{draw(st.integers(1, top))}*{A.monomial(mono, 1)}"
            for mono in chosen))
    return (f"field {field}\nring {', '.join(names)} weights "
            f"{', '.join(map(str, weights))}\nci {', '.join(ci)}\n"
            f"module coker [[{', '.join(ci + relations)}]]\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=_cyclic_module_sessions(), n=st.integers(1, 25))
# res_n4_e2 at --n 10: the tail is not yet confirmed on M and on M*
@example(text=(REPO / "perfbench" / "inputs" / "res_n4_e2.session")
         .read_text(), n=10)
# B over itself: the zero quasi-polynomial from beta_2 on
@example(text=(SESSIONS / "perfect.session").read_text(), n=20)
def test_betti_tail_equals_the_interpolation_fit(text, n):
    """The closed-form tail of ``betti_numbers`` equals the interpolation
    fit of its own beta_0..beta_n, for M and for M*: the same
    polynomials and valid_from, or None where the fit finds the tail not
    yet quasi-polynomial."""
    pipe = build_pipeline(parse_session(text))
    for X in (pipe.X, pipe.X_dual) if pipe.dual_is_module else (pipe.X,):
        beta, tail = betti_numbers(X, n)
        try:
            qp = fit_quasi_polynomial({i: beta.get(i, 0)
                                       for i in range(n + 1)}, n + 1)
        except TruncationNeeded as exc:
            assert str(exc) == "tail is not yet quasi-polynomial"
            assert tail is None
        else:
            assert tail == (qp.q_ev, qp.q_odd, qp.valid_from)


# -- the Hilbert numerator of H(X) ------------------------------------------


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
    # non-monomial inputs whose jump loci take seconds to minutes; their
    # Betti-side data takes well under a second
    texts += [LADDER[name] for name in ("nm_n4_e2", "lin2_n5_e2", "nm_n5_e2")]
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
    return module_hilbert_data(mat, [coh for coh, _ in degs],
                               (2,) * X.S.nvars)


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
    """The complexity ``betti_degree`` reads off the Hilbert numerator is
    the one the homology presentation gives (``complexity_of``), a route
    apart from it.  Where it is c, H(X) has rank crk_at(X) over S, split
    equally between its even and odd parts, so the Betti degree is half
    the generic crk."""
    maximal = 0
    for X in _numerator_inputs():
        cx, bdeg = betti_degree(X)
        assert cx == complexity_of(X)
        if cx == X.S.nvars:
            assert 2 * bdeg == crk_at(X)
            maximal += 1
    assert maximal >= 100


# -- duality ---------------------------------------------------------------


_COKERS = sorted(p for d in (SESSIONS, REPO / "perfbench" / "inputs")
                 for p in d.glob("*.session") if "coker" in p.read_text())


def test_the_coker_inputs_are_the_listed_files():
    assert sorted(p.stem for p in _COKERS) == sorted(
        s for s in SESSION_STEMS + BENCH_INPUT_STEMS
        if s not in DG_SESSION_STEMS)


@pytest.mark.parametrize("path", _COKERS, ids=lambda p: p.stem)
def test_x_of_m_star_from_its_own_presentation_is_the_s_dual(path):
    """M* = coker(d_L^T), its rows in -deg F_L, resolved and run through
    the ordinary pipeline, gives an X(M*) that does not read X(M)
    (``x_of_m_star``).  Its fresh resolution is F's dual, and X(M*) agrees
    with s_dual(X(M)) on the basis degrees, beta_0..beta_12 with the tail,
    the Betti degree, and crk at the generic point and at five points; M
    and M* have the same complexity."""
    pipe = build_pipeline(parse_session(path.read_text()))
    assert pipe.dual_is_module
    rd, res = pipe.rd, pipe.resolution
    fresh, X_star = x_of_m_star(pipe)
    assert [sorted(degs) for degs in fresh.degrees] \
        == [sorted(-d for d in degs) for degs in reversed(res.degrees)]
    X_dual = s_dual(pipe.X)
    assert sorted(X_star.basis_degrees) == sorted(X_dual.basis_degrees)
    assert X_star.chi_internal == X_dual.chi_internal
    assert betti_numbers(X_star, 12) == betti_numbers(X_dual, 12)
    assert betti_degree(X_star) == betti_degree(X_dual)
    assert complexity_of(X_star) == complexity_of(X_dual) \
        == complexity_of(pipe.X)
    assert crk_at(X_star) == crk_at(X_dual)
    rng = random.Random(path.stem)
    for _ in range(5):
        point = [rng.randrange(1, rd.ring.field.p or 50)
                 for _ in range(rd.c)]
        assert crk_at(X_star, point) == crk_at(X_dual, point), point


# Inputs on which ``compute`` and ``dual`` stop at ``MAX_MINOR_WORK``;
# the complexity and the Betti degree need no minors.  (name of a
# ``LADDER`` session or of a file of ``perfbench/inputs``, (cx, Betti
# degree)).
_PAST_THE_MINOR_WALL = [
    ("nm_n6_e2", (6, 128)),
    ("sq_n6_e2", (4, 8)),
    ("lin_n6_e2", (6, 32)),
]


@pytest.mark.parametrize("name, expected", _PAST_THE_MINOR_WALL,
                         ids=[name for name, _ in _PAST_THE_MINOR_WALL])
def test_x_of_m_star_past_the_minor_wall(name, expected):
    """The paper's duality theorem where the jump loci are out of reach:
    X(M), X(M*) built afresh from M* = coker(d_L^T) (``x_of_m_star``) and
    s_dual(X(M)) agree on (complexity, Betti degree), read off h alone."""
    text = LADDER.get(name) or (
        REPO / "perfbench" / "inputs" / f"{name}.session").read_text()
    pipe = build_pipeline(parse_session(text))
    assert pipe.dual_is_module
    _, X_star = x_of_m_star(pipe)
    assert betti_degree(pipe.X) == expected
    assert betti_degree(X_star) == expected
    assert betti_degree(s_dual(pipe.X)) == expected


def _weighted_monomials(weights, degree):
    """The exponents of the monomials of weighted degree ``degree``."""
    return [m for m in itertools.product(range(degree + 1),
                                         repeat=len(weights))
            if sum(e * w for e, w in zip(m, weights)) == degree]


@st.composite
def _cyclic_pipelines(draw):
    """The pipeline of A/(ci, relations) over k[x, y, z], k = GF(101) or
    QQ, weights (1,1,1), (1,2,1) or (2,1,1): ci the squares of two or of
    all three variables, so that A/(ci) has finite length or dimension
    one, and one or two random weighted-homogeneous relations; with three
    seeded points of k^c."""
    field = draw(st.sampled_from([GF101, QQ]))
    weights = draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 1)]))
    A = PolyRing(field, ("x", "y", "z"), weights)
    squared = draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (0, 1, 2)]))
    ci = [A.monomial(tuple(2 * (s == i) for s in range(3))) for i in squared]
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        monos = _weighted_monomials(weights, draw(st.integers(1, 4)))
        picked = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=3, unique=True))
        rel = A.zero()
        for m in picked:
            rel = rel + A.monomial(m, field.coerce(draw(st.integers(1, 100))))
        rels.append(rel)
    rd = RingData(A, ci)
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [ci + rels]))
    pipe = Pipeline(rd, res, build_twisted_complex(
        compute_higher_homotopies(res, rd), rd))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    points = [[rng.randrange(1, field.p or 50) for _ in ci] for _ in range(3)]
    return pipe, points


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cyclic_pipelines())
def test_x_of_m_star_agrees_with_the_s_dual_on_random_cyclic_modules(drawn):
    """The duality theorem checked from M* itself, on cyclic modules of
    finite length and of positive dimension, over GF(101) and QQ, with
    weights: the fresh resolution of M* has F's Betti numbers reversed,
    and X(M*) from it (``x_of_m_star``) agrees with s_dual(X(M)) on
    beta_0..beta_10 with the tail, the Betti degree, the generic crk and
    crk at three points, and M and M* have the same complexity; where both
    minor tables finish, on the jump loci too (``duality_check``)."""
    pipe, points = drawn
    assume(pipe.dual_is_module and pipe.resolution.length)
    fresh, X_star = x_of_m_star(pipe)
    assert [len(degs) for degs in fresh.degrees] \
        == [len(degs) for degs in reversed(pipe.resolution.degrees)]
    X_dual = s_dual(pipe.X)
    assert betti_numbers(X_star, 10) == betti_numbers(X_dual, 10)
    assert betti_degree(X_star) == betti_degree(X_dual)
    assert complexity_of(X_star) == complexity_of(X_dual) \
        == complexity_of(pipe.X)
    assert crk_at(X_star) == crk_at(X_dual)
    for point in points:
        assert crk_at(X_star, point) == crk_at(X_dual, point), point
    try:
        reports = jump_loci_report(X_star), jump_loci_report(X_dual)
    except PipelineError:
        return  # a minor table too large: the loci are not compared
    assert duality_check(*reports)


def test_duality_on_final_example(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    assert duality_check(jump_loci_report(X),
                         jump_loci_report(explicit_dual(
                             res, full_system(sys, rd), rd)))


def test_duality_on_nonregular_model(nonregular_action):
    rd, res, sys, X = nonregular_action
    X_dual = explicit_dual(res, sys, rd)
    assert duality_check(jump_loci_report(X), jump_loci_report(X_dual))


def test_duality_rejects_a_complex_that_is_not_the_dual(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    wrong = direct_sum(explicit_dual(res, full_system(sys, rd), rd),
                       koszul_block(X))
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
        X_dual = explicit_dual(res, full_system(sys, rd), rd)
        assert duality_check(jump_loci_report(X), jump_loci_report(X_dual))
        done += 1


def _per_index_agree(X, Y):
    """Test-local reference for duality_check: compare jump_locus_ideal of
    X and of Y at every index up to the larger rank."""
    top = max(minimalize(X).rank, minimalize(Y).rank)
    return all(jump_locus_ideal(X, i).same_variety(jump_locus_ideal(Y, i))
               for i in range(1, top + 1))


def test_report_duality_check_matches_a_per_index_comparison():
    """On every pair from a pool of random monomial modules, their explicit
    duals and the zero module (rank 0), the report-based check raises
    exactly when the per-index comparison finds a differing jump ideal,
    and it raises on the same pairs as the check by index that it
    replaced (``duality_check_by_index``) and returns the same value on
    the others."""
    rng = random.Random(37)
    pool = [_coker_pipeline("x, y", "x^2, y^2", ["1"]).X]
    for _ in range(4):
        gens = [_monomial("xy", m) for m in random_monomial_rows(rng)]
        pipe = _coker_pipeline("x, y", "x^3, y^3", gens)
        rep, rep_dual = jump_loci_report(pipe.X), jump_loci_report(pipe.X_dual)
        assert _per_index_agree(pipe.X, pipe.X_dual)
        assert duality_check(rep, rep_dual) == \
            (betti_degree(pipe.X)[1] == betti_degree(pipe.X_dual)[1])
        pool += [pipe.X, pipe.X_dual]
    assert minimalize(pool[0]).rank == 0
    reports = [jump_loci_report(X) for X in pool]
    disagreeing = 0
    for a, X in enumerate(pool):
        for b, Y in enumerate(pool):
            expected = not _per_index_agree(X, Y)
            got = _outcome(duality_check, reports[a], reports[b])
            want = _outcome(duality_check_by_index, X, Y)
            assert isinstance(got, str) == isinstance(want, str) == expected
            assert expected or got == want, (a, b)
            disagreeing += expected
    assert disagreeing > 0
    # the zero module has only the final plateau, (1, 1), which no other
    # complex of the pool has first
    assert reports[0].plateaus[0][:2] == (1, 1) != reports[1].plateaus[0][:2]


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


# -- the complexity is dim V^1 ----------------------------------------------


# The ``LADDER`` sessions whose X finishes its minors in about a second,
# with their complexity.
_LADDER_MINORS_FINISH = [("nm_n4_e2", 4), ("lin2_n5_e2", 5), ("past_tate", 0)]


def _assert_cx_is_dim_v1(X):
    """The report's complexity, read off the Hilbert numerator h of H(X),
    is dim V^1, read off the minors of D: V^1 is where X (x) k(p) is not
    exact, the support of H(X) (Avramov-Buchweitz, Invent. Math. 142,
    2000, for X = X(M)).  The first plateau of the report starts at
    i = 1, so its dimension is dim V^1 on either parity.  Returns the
    report."""
    rep = jump_loci_report(X)
    assert rep.plateaus[0][3] == rep.complexity
    assert (rep.betti_degree is None) == (rep.complexity == 0)
    return rep


def test_the_theorem_inputs_are_the_listed_files():
    assert sorted(p.stem for p in _MINORS_FINISH) == sorted(
        s for s in SESSION_STEMS + BENCH_INPUT_STEMS if s != "sq_n6_e2")


@pytest.mark.parametrize("path", _MINORS_FINISH, ids=lambda p: p.stem)
def test_complexity_is_dim_v1_on_the_input_files(path):
    """On X(M) and its dual of every session and benchmark input whose
    minors finish, complexity 0 (``perfect``) included."""
    pipe = build_pipeline(parse_session(path.read_text()))
    reps = [_assert_cx_is_dim_v1(X) for X in (pipe.X, pipe.X_dual)]
    assert reps[0].complexity == reps[1].complexity


@pytest.mark.parametrize("name, cx", _LADDER_MINORS_FINISH,
                         ids=[name for name, _ in _LADDER_MINORS_FINISH])
def test_complexity_is_dim_v1_on_the_ladder(name, cx):
    """On X(M) of the ladder sessions whose minors finish: D not fine
    (``nm_n4_e2``, ``lin2_n5_e2``) and a module of complexity 0 past the
    Tate limit (``past_tate``)."""
    X = build_pipeline(parse_session(LADDER[name])).X
    assert _assert_cx_is_dim_v1(X).complexity == cx


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_cyclic_pipelines())
def test_complexity_is_dim_v1_on_random_cyclic_modules(drawn):
    """On X(M) and s_dual(X(M)) of random cyclic modules over GF(101) and
    QQ, weighted or not, where the minor tables finish."""
    pipe, _ = drawn
    for X in (pipe.X, s_dual(pipe.X)):
        try:
            _assert_cx_is_dim_v1(X)
        except PipelineError:
            return  # a minor table too large: dim V^1 is out of reach


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 5, 101]), seed=st.integers(0, 2 ** 16),
       s=st.integers(-3, 3))
def test_complexity_is_dim_v1_on_random_twisted_complexes(p, seed, s):
    """On random twisted complexes (``random_twisted_complex``), shifted:
    no X(M), but a bounded complex of free S-modules, so V^1 is still the
    support of H(X), whose parts may differ in dimension."""
    S = PolyRing(GF(p), ("chi1", "chi2"), (2, 2))
    _assert_cx_is_dim_v1(shift(random_twisted_complex(S, random.Random(seed)),
                               s))


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
    plateau_varieties = [I for _, _, I, _ in rep.plateaus[:-1]]
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
    """An ``oracle`` command makes no ``ModuleGB`` run beyond those of
    ``build_pipeline``, whatever ``--points`` is: the one basis of M that
    every point shares is the stage-1 run the resolution keeps.  A point
    adds only linear algebra."""
    runs = []
    init = ModuleGB.__init__

    def counting(self, *args, **kwargs):
        runs.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleGB, "__init__", counting)
    # the oracle needs a finite prime field: nm_n3_qq is over QQ
    paths = [p for p in sorted(SESSIONS.glob("*.session"))
             if "module coker" in p.read_text() and p.stem != "nm_n3_qq"]
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
            assert len(runs) == pipeline_runs, (path.name, count)


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


def _ring_ci_row(text):
    """The test id of a one-row cokernel session: ring, ci and row."""
    ring, ci, module = text.splitlines()[1:]
    return f"{ring[len('ring '):]}-{ci[len('ci '):]}-" \
        f"{module[len('module coker [['):-2]}"


@pytest.mark.parametrize("text", [
    # dim M = 4: one piece of 80,960 basis elements, 49,427 of them of M
    "field GF(101)\nring x0, x1, x2, x3, x4, x5\nci x0^6\n"
    "module coker [[x0^6, x1*x2 - x3*x4 + x5^2]]\n",
    # dim M = 3: about 57,000 basis elements over the pieces of a point
    LADDER["past_tate"],
], ids=_ring_ci_row)
def test_oracle_resolves_over_the_sections_past_the_size_limit(
        monkeypatch, capsys, tmp_path, text):
    """M of infinite length in many variables: the Tate complex is far
    past ``MAX_TATE_DIM``, so the first point stops building it at the
    limit, with the basis of M filled no further, and every point is
    resolved over its section, with the values of ``resolve_over_b``."""
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


def _unused_case(names):
    """ci x^3, y^3 and coker [[x^2, y^2, x*y]] over GF(101)[names]: the
    variables past x, y are in no f_k and no entry of d_1."""
    A = PolyRing(GF101, names)
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = PolyMatrix.from_rows(
        A, [[A.parse(e) for e in ("x^2", "y^2", "x*y")]])
    return rd, pres


@pytest.mark.parametrize("unused", [1, 2, 3])
def test_the_tate_route_leaves_out_unused_variables(unused):
    """One to three variables that no f_k and no entry of d_1 holds are
    a polynomial extension that Tor does not see: the Tate route answers,
    with no call to ``resolve_over_b``, with the values of the resolution
    over the section, and builds exactly the pieces it builds over
    k[x, y], although the basis of M it reads is a run over all of A."""
    points = [(1, 2), (3, 0), (5, 7)]
    names = ("x", "y", "z", "u", "v")[:2 + unused]
    rd, pres = _unused_case(names)
    res = resolve_over_a(rd, pres)
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_resolutions_over_sections(patch)
        stables = stable_betti_oracle(rd, res, points)
    assert calls == []
    assert stables == [_resolved_oracle(rd, pres, a) for a in points]
    sizes = []
    for ring_names in (("x", "y"), names):
        rd, pres = _unused_case(ring_names)
        tate = loci._TateComplex(rd, resolve_over_a(rd, pres), 3)
        assert [tate.stable_betti(a) for a in points] == stables
        sizes.append(tate._size)
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("stem", DG_SESSION_STEMS)
def test_the_oracle_refuses_a_pipeline_built_from_a_complex(stem):
    """A pipeline built from a complex keeps no stage-1 run, so the Tate
    route has no basis of M to read: a PipelineError before any point, in
    the words of ``Pipeline.dual_is_module``.  The ``oracle`` command
    refuses such a session before it gets here."""
    pipe = build_pipeline(parse_session(
        (SESSIONS / f"{stem}.session").read_text()))
    with pytest.raises(PipelineError, match="given as a cokernel only"):
        stable_betti_oracle(pipe.rd, pipe.resolution, [(1,) * pipe.rd.c])


# -- the Tate basis of M: d_1 spans every f_k e_j ---------------------------


def _assert_the_tate_basis_needs_no_f_e(rd, pres):
    """The basis ``_TateComplex`` reads M off, the stage-1 run of the
    resolution, of the columns of d_1 alone, has in each component the
    minimal leads of the reduced basis of the columns of d_1 plus every
    f_k e_j: f annihilates M = coker d_1, so d_1 spans the f_k e_j already.
    Those leads fix the standard monomials the Tate complex reads."""
    res = resolve_over_a(rd, pres)
    tate = loci._TateComplex(rd, res, rd.ci_degrees[0])
    assert tate.gb is res.image_bases.get(1)
    rank = len(res.degrees[0])
    d1 = res.differentials[0] if res.length else []
    with_f = ModuleGB(rd.ring, rank, d1 + quotient_columns(rd.ci, rank))
    kept = tate.gb.leads if tate.gb else [[] for _ in range(rank)]
    assert [_minimalize(m for m, _ in own) for own in kept] == \
        [_minimalize(m for m, _ in own) for own in with_f.leads]


@pytest.mark.parametrize("path", _COKERS, ids=lambda p: p.stem)
def test_the_tate_basis_needs_no_f_e_on_the_input_files(path):
    _, rd, pres = _session_case(path)
    _assert_the_tate_basis_needs_no_f_e(rd, pres)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_oracle_inputs())
def test_the_tate_basis_needs_no_f_e_on_random_modules(case):
    """Random modules that f annihilates, each f_k e_j among the columns
    of the presentation, with unit entries and weighted variables."""
    p, weights, ci, rows, _ = case
    A = PolyRing(GF(p), ("x", "y", "z")[:len(weights)], weights)
    _assert_the_tate_basis_needs_no_f_e(
        RingData(A, [A.parse(f) for f in ci]),
        PolyMatrix.from_rows(A, [[A.parse(e) for e in row] for row in rows]))
