"""Resolutions over the polynomial ring and its quotients, duals, tails."""

import functools
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumploci import GF, QQ, PolyRing, groebner, resolution
from jumploci import session as session_module
from jumploci.matrix import PolyMatrix
from jumploci.poly import Polynomial
from jumploci.groebner import (GBStats, Ideal, ModuleGB, add_image,
                               column_degree, module_hilbert_data, reduced)
from jumploci.resolution import (RingData, PipelineError, FreeResolution,
                                 resolve_over_a, resolve_over_b,
                                 dualize_over_a, _check_concentration,
                                 _resolve, quotient_columns,
                                 split_unit_entries)

from jumploci.homotopy import compute_higher_homotopies
from jumploci.loci import crk_at
from jumploci.session import build_pipeline, parse_session
from jumploci.twisted import build_twisted_complex

from conftest import (LADDER, REPO, SESSIONS, matrix_of,
                      random_monomial_rows)
from test_homotopy import _coker_sessions
import oracles
from oracles import (TruncationNeeded, check_complex, d_matrix,
                     dual_presentation, fit_quasi_polynomial, hilbert_data,
                     is_minimal, normal_form, resolution_euler_numerator,
                     syzygy_concentration, transpose, vec_add)

GF101 = GF(101)
A3 = PolyRing(GF101, ("x", "y", "z"))


def _pres(ring, entries):
    return PolyMatrix.from_rows(ring, [[ring.parse(e) for e in entries]])


# -- over the polynomial ring ----------------------------------------------


def test_residue_field_gets_koszul_resolution():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, _pres(A, ["x", "y"]))
    assert res.betti() == {0: 1, 1: 2, 2: 1}
    assert is_minimal(res) and check_complex(res)


def test_free_module_resolves_in_length_zero():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    pres = PolyMatrix.from_rows(A, [[]])
    res = resolve_over_a(rd, pres)
    assert res.length == 0
    assert res.betti() == {0: 1}


def test_flag_module_total_rank(flag_pipeline):
    rd, pres, res, sys, X = flag_pipeline
    assert sum(res.betti().values()) == 16
    assert res.betti() == {0: 1, 1: 5, 2: 7, 3: 3}
    assert is_minimal(res) and check_complex(res)


def test_euler_characteristic_reproduces_hilbert_numerator(flag_pipeline):
    """Alternating sum of generator degrees equals the numerator of the
    Hilbert series of the module (free-resolution Euler characteristic)."""
    rd, pres, res, sys, X = flag_pipeline
    row = ["x^3", "y^3", "z^3", "x*z", "y*z^2"]
    num = module_hilbert_data(matrix_of(rd.ring, [row]))
    assert resolution_euler_numerator(res) == num


# -- over the quotient ring ------------------------------------------------


def test_final_module_betti_numbers(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    res_b = resolve_over_b(rd, pres, 8)
    beta = res_b.betti()
    assert beta[4] == 7 and beta[5] == 9 and beta[6] == 10
    assert beta[0] == 1 and beta[1] == 3


def test_dual_of_final_module_betti_numbers(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    pres_dual = dual_presentation(res)
    assert _check_concentration(res) and pres_dual is not None
    res_b = resolve_over_b(rd, pres_dual[0], 6, pres_dual[1])
    beta = res_b.betti()
    assert beta[0] == 2 and beta[4] == 8 and beta[5] == 9


def test_quotient_ring_is_free_over_itself():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    res = resolve_over_b(rd, _pres(A, ["x^3", "y^3"]), 5)
    assert res.complete
    assert res.betti() == {0: 1}


def test_columns_are_homogeneous_over_a_before_their_degree_is_read():
    """Columns are taken as they stand, not reduced modulo (f): x + y^2
    is x over B, but the column is inhomogeneous over A, as is x + x*y
    over B too."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    for entries in (["x + y^2", "y^2"], ["x + x*y", "x^2", "y^2"]):
        with pytest.raises(PipelineError,
                           match="inhomogeneous module column"):
            resolve_over_b(rd, _pres(A, entries), 4)


def test_homogeneity_is_checked_once_per_column_that_enters(monkeypatch):
    """``column_degree`` reads every term of a column and refuses an
    inhomogeneous one; it is called only on the columns that enter from
    outside a resolution, wherever ``groebner``, ``resolution`` and
    ``session`` bind it.  A presentation's nonzero columns after unit
    cancellation are checked once each, in order, by ``resolve_over_a``
    and by ``resolve_over_b`` alike, and dg input's columns once each by
    ``parse_session``; the graded runs read degrees off one term.  On
    every file of ``sessions/`` and ``perfbench/inputs/``."""
    calls = []

    def counting(ring, col, row_degrees):
        calls.append(col)
        return column_degree(ring, col, row_degrees)

    for module in (groebner, resolution, session_module):
        monkeypatch.setattr(module, "column_degree", counting)
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    kinds = set()
    for path in paths:
        calls.clear()
        session = parse_session(path.read_text())
        rd, mod = session.ring_data, session.module
        kinds.add(mod.kind)
        if mod.kind == "complex":
            assert calls == [c for d in mod.differentials
                             for c in d.columns_as_vectors()], path.name
            continue
        assert calls == [], path.name
        pres = PolyMatrix.from_rows(rd.ring, mod.rows)
        cols = [c for c in split_unit_entries(pres, [0] * pres.nrows)[0]
                if c]
        resolve_over_a(rd, pres)
        assert calls == cols, path.name
        calls.clear()
        resolve_over_b(rd, pres, 2)
        assert calls == cols, path.name
    assert kinds == {"coker", "complex"}


def test_annihilation_precondition_names_the_offender():
    """Checked once, by the homotopies, on the basis d_1 was taken from."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    res = resolve_over_a(rd, _pres(A, ["x^4"]))
    with pytest.raises(PipelineError, match="^f_1 = x\\^3 does not "
                       "annihilate the module$"):
        compute_higher_homotopies(res, rd)


# -- pruning to minimal generators ------------------------------------------


def _per_column_pruning(ring, rank, cols, row_degrees, over_b=None):
    """Reference route: one Groebner basis of the kept others per column."""
    cols = [c for c in cols if c]
    degs = [column_degree(ring, c, row_degrees) for c in cols]
    kept = sorted(range(len(cols)), key=lambda j: (degs[j], j))
    for j in list(kept):
        test = [cols[i] for i in kept if i != j]
        test += quotient_columns(over_b.ci, rank) if over_b else []
        if test and ModuleGB(ring, rank, test).contains(cols[j]):
            kept.remove(j)
    return [cols[i] for i in kept]


def _random_form(rng, degree):
    """Up to two random terms of the given degree in three variables."""
    if degree < 0:
        return {}
    monos = [m for m in itertools.product(range(degree + 1), repeat=3)
             if sum(m) == degree]
    return {m: rng.randrange(1, 101)
            for m in rng.sample(monos, min(2, len(monos)))}


def _random_column(rng, degree, row_degrees):
    col = {}
    for r, shift in enumerate(row_degrees):
        if rng.random() < 0.7:
            col.update({(r, m): c
                        for m, c in _random_form(rng, degree - shift).items()})
    return col


def _column_set(rng, row_degrees):
    """Random columns plus every kind of redundancy the pruning must see."""
    top = max(row_degrees)
    cols = [c for c in (_random_column(rng, top + rng.randrange(0, 3),
                                       row_degrees) for _ in range(5)) if c]
    base = list(cols)
    for a in base:
        same = [b for b in base if b is not a and
                column_degree(A3, b, row_degrees)
                == column_degree(A3, a, row_degrees)]
        choice = rng.randrange(4)
        if choice == 0:
            cols.append(dict(a))                                # duplicate
        elif choice == 1:
            cols.append(vec_add(GF101, {}, a, rng.randrange(2, 101)))
        elif choice == 2 and same:
            cols.append(vec_add(GF101, a, rng.choice(same)))   # a sum
        else:
            multiple = {}                      # a linear form times a
            for m, c in _random_form(rng, 1).items():
                multiple = vec_add(GF101, multiple, a, c, m)
            cols.append(multiple)
    cols.append({})
    rng.shuffle(cols)
    return cols


@pytest.mark.parametrize("over_b", [False, True])
@pytest.mark.parametrize("row_degrees",
                         [(0,), (0, 0), (0, 1), (2, 0), (0, 0, 0)])
def test_pruning_per_degree_equals_pruning_per_column(over_b, row_degrees):
    """Same kept columns, in the same order, as the per-column route, on
    random column sets with zero columns, duplicates, scalar multiples,
    sums of two columns of one degree and multiples of lower columns, for
    the graded run of a resolution stage, untracked and tracked: over A
    with no ``modulo`` columns, over B modulo the f_k e_j."""
    rd = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")]) if over_b else None
    rank = len(row_degrees)
    modulo = quotient_columns(rd.ci, rank) if over_b else ()
    rng = random.Random(f"{over_b}{row_degrees}")
    for _ in range(12):
        cols = _column_set(rng, row_degrees)
        position = {id(c): j for j, c in enumerate(cols)}
        want = [position[id(c)] for c in
                _per_column_pruning(A3, rank, cols, row_degrees, rd)]
        for track in (False, True):
            gb = ModuleGB(A3, rank, cols, track, row_degrees, modulo)
            assert list(gb.kept) == want


def _module_degree(vector, row_degrees):
    comp, mono = next(iter(vector))
    return A3.wdeg(mono) + row_degrees[comp]


class _AddOrderGB(ModuleGB):
    """A run that records its elements in the order it adds them, across
    components."""

    def __init__(self, *args):
        self.added = []
        super().__init__(*args)

    def _add_element(self, v, lead, pairs):
        self.added.append(v)
        super()._add_element(v, lead, pairs)


def test_graded_run_settles_one_degree_at_a_time():
    """The basis of a graded run grows in ascending module degree, so no
    pair above degree d is processed before the degree-d columns are
    settled; an untracked run adds nothing above its top column degree,
    where a tracked one goes on."""
    rd = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    rng = random.Random(59)
    above_top = False
    for row_degrees in [(0,), (0, 1), (2, 0, 0)] * 6:
        rank = len(row_degrees)
        cols = _column_set(rng, row_degrees)
        top = max(_module_degree(c, row_degrees) for c in cols if c)
        for track in (False, True):
            gb = _AddOrderGB(A3, rank, cols, track, row_degrees,
                             quotient_columns(rd.ci, rank))
            degrees = [_module_degree(g, row_degrees) for g in gb.added]
            assert degrees == sorted(degrees)
            if track:
                above_top |= degrees[-1] > top
            else:
                assert degrees[-1] <= top
    assert above_top


def _column_times(syzygy, cols):
    """sum_i s_i * cols[i] as a module vector, for a module vector s."""
    out = {}
    for (i, m), c in syzygy.items():
        out = vec_add(GF101, out, cols[i], c, m)
    return out


def _first(v, n):
    """The terms of the module vector ``v`` in its first ``n`` components."""
    return {(i, m): c for (i, m), c in v.items() if i < n}


def _check_stage_syzygies(row_degrees, quotient, seed):
    """Each syzygy of a tracked graded run lies in the coordinates of the
    kept columns and maps the kept columns into the span of the
    ``quotient`` columns; together they generate the same module as the
    syzygies of a separate tracked basis of the kept columns and the
    quotient columns, cut to the kept coordinates."""
    rank = len(row_degrees)
    span = ModuleGB(A3, rank, quotient)
    rng = random.Random(seed)
    for _ in range(6):
        cols = _column_set(rng, row_degrees)
        gb = ModuleGB(A3, rank, cols, True, row_degrees, quotient)
        kept = [cols[j] for j in gb.kept]
        new = gb.syzygies()
        assert all(i < len(kept) for s in new for i, _ in s)
        assert all(span.contains(_column_times(s, kept)) for s in new)
        old = ModuleGB(A3, rank, kept + quotient, track=True).syzygies()
        old = [_first(s, len(kept)) for s in old]
        for these, those in ((old, new), (new, old)):
            gb = ModuleGB(A3, len(kept), those)
            assert all(gb.contains(v) for v in these)


@pytest.mark.parametrize("row_degrees", [(0,), (0, 0), (0, 1), (2, 0)])
def test_stage_syzygies_are_the_kernel_over_b(row_degrees):
    """The stage syzygies of a run modulo the f_k e_j (see
    ``_check_stage_syzygies``)."""
    rd = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    _check_stage_syzygies(row_degrees,
                          quotient_columns(rd.ci, len(row_degrees)),
                          f"kernel{row_degrees}")


@pytest.mark.parametrize("row_degrees", [(0,), (0, 0), (0, 1), (2, 0)])
def test_stage_syzygies_are_the_kernel_over_a(row_degrees):
    """The stage syzygies of a run with no quotient columns, as over A:
    they map the kept columns to zero."""
    _check_stage_syzygies(row_degrees, [], f"kernel over A{row_degrees}")


def _old_syzygies(gb):
    """The syzygies as ``ModuleGB.syzygies`` gave them before they were
    module vectors: per syzygy, one polynomial per kept column."""
    out = []
    for v in gb._syzygies:
        per = [dict() for _ in range(gb.ncols)]
        for (comp, m), c in v.items():
            per[comp - gb.rank][m] = c
        out.append([Polynomial(gb.ring, per[j]) for j in gb.kept])
    return out


def _old_lift(gb, v):
    """The lift as ``ModuleGB.lift`` gave it before it was a module
    vector: its nonzero polynomials keyed by kept position, or None."""
    w, lead = gb._reduce_full({k: c for k, c in v.items() if k[0] < gb.rank})
    if lead is not None:
        return None
    per = {}
    for (comp, m), c in w.items():
        per.setdefault(comp - gb.rank, {})[m] = c
    at = {j: p for p, j in enumerate(gb.kept)}
    return {at[j]: Polynomial(gb.ring, terms) for j, terms in per.items()}


def _as_vector(polys):
    """The module vector of a mapping component -> polynomial."""
    return {(i, m): c for i, p in polys.items() for m, c in p.terms.items()}


def test_syzygies_and_lifts_are_the_old_coefficients():
    """``syzygies()`` and ``lift()`` give, as module vectors, the
    polynomials they gave before, in the coordinates of the kept columns:
    graded tracked runs that drop columns, with no ``modulo`` and with the
    f_k e_j, and ungraded runs with a zero column, in ranks 1 and 2.  Each
    syzygy s, and each lift c of a vector v, puts sum s_i kept_i, and
    v + sum c_i kept_i, in the span of ``modulo``."""
    ci = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    rng = random.Random(71)
    moved = zero_columns = lifted = missed = 0
    for row_degrees in [(0,), (0, 1), (2, 0)] * 2:
        rank = len(row_degrees)
        quotient = quotient_columns(ci.ci, rank)
        in_span = {(): lambda v: not v,
                   "quotient": ModuleGB(A3, rank, quotient).contains}
        cols = _column_set(rng, row_degrees)
        runs = [(ModuleGB(A3, rank, cols, True, row_degrees), ()),
                (ModuleGB(A3, rank, cols, True, row_degrees, quotient),
                 "quotient"),
                (ModuleGB(A3, rank, cols, track=True), ())]
        for gb, modulo in runs:
            kept = [cols[j] for j in gb.kept]
            moved += any(p != j for p, j in enumerate(gb.kept))
            zero_columns += {} in kept
            assert gb.syzygies() == [_as_vector(dict(enumerate(s)))
                                     for s in _old_syzygies(gb)]
            assert all(in_span[modulo](_column_times(s, kept))
                       for s in gb.syzygies())
            targets = [vec_add(GF101, {}, rng.choice(cols),
                                rng.randrange(1, 101)) for _ in range(3)]
            targets += [vec_add(GF101, rng.choice(cols), rng.choice(cols)),
                        _random_column(rng, max(row_degrees) + 1,
                                       row_degrees)]
            for v in targets:
                c, old = gb.lift(v), _old_lift(gb, v)
                if old is None:
                    assert c is None
                    missed += 1
                    continue
                assert c == _as_vector(old)
                assert in_span[modulo](
                    vec_add(GF101, v, _column_times(c, kept)))
                lifted += 1
    assert moved and zero_columns and lifted and missed


def _extend_echelon(fld, echelon, v) -> bool:
    """Reduce the sparse vector ``v`` by ``echelon`` (pivot -> monic row
    whose largest key is the pivot); add it and return True when it is
    outside their span."""
    while v:
        pivot = max(v)
        row = echelon.get(pivot)
        if row is None:
            inv = fld.inv(v[pivot])
            echelon[pivot] = {k: fld.mul(c, inv) for k, c in v.items()}
            return True
        v = vec_add(fld, v, row, fld.neg(v[pivot]))
    return False


def _reduce_column(col, nf, ring):
    """Reference for the reduction modulo (f): each row entry on its own,
    through the normal form ``nf`` of a polynomial."""
    per_row = {}
    for (r, m), c in col.items():
        per_row.setdefault(r, {})[m] = c
    out = {}
    for r, terms in per_row.items():
        p = nf(Polynomial(ring, terms))
        for m, c in p.terms.items():
            out[(r, m)] = c
    return out


def _per_degree_pruning(ring, rank, cols, row_degrees, quotient=()):
    """The pruning before the graded run: per degree, a fresh untracked
    basis of the kept lower columns and the ``quotient`` columns, and the
    degree-d columns settled from last to first by linear algebra over k
    on their normal forms."""
    cols = [c for c in cols if c]
    degs = [column_degree(ring, c, row_degrees) for c in cols]
    kept = []
    for d in sorted(set(degs)):
        lower = [cols[i] for i in kept] + list(quotient)
        nf = ModuleGB(ring, rank, lower).normal_form if lower else dict
        echelon = {}
        kept_d = []
        for j in reversed([j for j, dj in enumerate(degs) if dj == d]):
            if _extend_echelon(ring.field, echelon, nf(cols[j])):
                kept_d.append(j)
        kept.extend(reversed(kept_d))
    return [cols[i] for i in kept]


def _two_run_resolution_over_b(rd, pres, truncation):
    """The loop of resolve_over_b before one run per stage: prune, then
    take syzygies from a separate tracked basis of the kept columns and
    the f_k e_j.  Returns the generator degrees per stage and whether the
    resolution is complete."""
    ring = rd.ring
    cols, row_degrees = split_unit_entries(pres, [0] * pres.nrows)
    nf = functools.partial(normal_form, rd.ci_ideal())
    cols = [_reduce_column(c, nf, ring) for c in cols]
    degrees = [row_degrees]
    while True:
        rank = len(degrees[-1])
        cols = _per_degree_pruning(ring, rank, cols, degrees[-1],
                                   quotient_columns(rd.ci, rank))
        if not cols:
            return degrees, True
        degrees.append([column_degree(ring, c, degrees[-1]) for c in cols])
        if len(degrees) > truncation:
            return degrees, False
        gb = ModuleGB(ring, rank, cols + quotient_columns(rd.ci, rank),
                      track=True)
        cols = [_reduce_column(_first(s, len(cols)), nf, ring)
                for s in gb.syzygies()]


def test_one_run_per_stage_equals_the_two_run_loop():
    """Same graded Betti numbers and completeness as the loop with a
    separate pruning and syzygy basis per stage, on random monomial and
    non-monomial modules over GF(101)[x,y,z]/(x^3, y^3) and over random
    sections a x^3 + b y^3, at truncations 1, 2, n + 1 and n + 3."""
    full = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    rng = random.Random(61)
    kinds = set()
    for binomials in (0.0, 0.5) * 4:
        rows = _random_presentation_rows(rng, binomials)
        pres = PolyMatrix.from_rows(A3, rows)
        kinds.add(all(len(p.terms) <= 1 for row in rows for p in row))
        section = A3.parse(f"{rng.randrange(1, 101)}*x^3 + "
                           f"{rng.randrange(1, 101)}*y^3")
        for rd in (full, RingData(A3, [section])):
            want, complete = _two_run_resolution_over_b(rd, pres, 6)
            for truncation in (1, 2, 4, 6):
                res = resolve_over_b(rd, pres, truncation)
                assert [sorted(d) for d in res.degrees] == \
                    [sorted(d) for d in want[:truncation + 1]]
                assert res.complete == (complete and
                                        len(want) <= truncation)
    assert kinds == {True, False}


def _two_run_resolution_over_a(rd, pres):
    """The loop of resolve_over_a before one run per stage: prune each
    stage per degree, then take its syzygies from a separate ungraded
    tracked basis of the kept columns.  The homotopies lift through those
    bases, kept as the resolution's ``image_bases``."""
    ring = rd.ring
    cols, row_degrees = split_unit_entries(pres, [0] * pres.nrows)
    degrees = [row_degrees]
    diffs = []
    bases = {}
    while True:
        rank = len(degrees[-1])
        cols = _per_degree_pruning(ring, rank, cols, degrees[-1])
        if not cols:
            return FreeResolution(rd, diffs, degrees, complete=True,
                                  image_bases=bases)
        diffs.append(cols)
        degrees.append([column_degree(ring, c, degrees[-1]) for c in cols])
        gb = bases[len(diffs)] = ModuleGB(ring, rank, cols, track=True)
        cols = gb.syzygies()


@functools.cache
def _coker_inputs():
    """(rd, presentation) for every coker session of the examples and of
    the benchmark ladder, for random monomial modules over GF(101)[x,y] /
    (x^3, y^3), and for random non-monomial ones over GF(101)[x,y,z] /
    (x^3, y^3)."""
    out = []
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    for path in paths:
        session = parse_session(path.read_text())
        if session.module.kind == "coker":
            rd = session.ring_data
            out.append((rd, PolyMatrix.from_rows(rd.ring,
                                                 session.module.rows)))
    rng = random.Random(71)
    A2 = PolyRing(GF101, ("x", "y"))
    rd = RingData(A2, [A2.parse("x^3"), A2.parse("y^3")])
    for _ in range(6):
        out.append((rd, PolyMatrix.from_rows(
            A2, [[A2.monomial(m) for m in random_monomial_rows(rng)]])))
    rd = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    for _ in range(8):
        out.append((rd, PolyMatrix.from_rows(
            A3, _random_presentation_rows(rng, 0.5))))
    return tuple(out)


def _generic_crk(res, rd):
    sys = compute_higher_homotopies(res, rd)
    return crk_at(build_twisted_complex(sys, rd), None)


def test_one_run_per_stage_over_a_equals_the_two_run_loop():
    """Same generator degrees at every stage and the same generic crk as
    the loop with a separate pruning and syzygy basis per stage, and a
    minimal complex, on every coker session of the examples and of the
    benchmark ladder and on random monomial and non-monomial modules."""
    kinds = set()
    for rd, pres in _coker_inputs():
        kinds.add(all(len(p.terms) <= 1 for p in pres.entries.values()))
        res = resolve_over_a(rd, pres)
        old = _two_run_resolution_over_a(rd, pres)
        assert res.degrees == old.degrees
        assert check_complex(res) and is_minimal(res)
        assert _generic_crk(res, rd) == _generic_crk(old, rd)
    assert kinds == {True, False}


def test_resolution_over_a_builds_one_tracked_run_per_stage(monkeypatch):
    """``resolve_over_a`` constructs one ``ModuleGB`` per stage of its
    result, tracked, graded and with no ``modulo`` columns: no untracked
    run, none for the empty stage after the last, and these are the
    bases it keeps in ``image_bases``."""
    runs = []
    init = ModuleGB.__init__

    def counting(self, ring, rank, columns, track=False, row_degrees=None,
                 modulo=()):
        runs.append((self, track, row_degrees is not None, tuple(modulo)))
        init(self, ring, rank, columns, track, row_degrees, modulo)

    monkeypatch.setattr(ModuleGB, "__init__", counting)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    free = [(rd, PolyMatrix.from_rows(A, [[]])),
            (rd, PolyMatrix.from_rows(A, [[A.zero(), A.zero()]]))]
    lengths = set()
    for rd, pres in _coker_inputs() + tuple(free):
        runs.clear()
        res = resolve_over_a(rd, pres)
        lengths.add(res.length)
        assert [(True, True, ())] * res.length == [r[1:] for r in runs]
        assert all(res.image_bases[t] is gb
                   for t, (gb, *_) in enumerate(runs, 1))
    assert 0 in lengths and max(lengths) >= 3


def test_resolution_over_b_builds_one_run_per_stage(monkeypatch):
    """``resolve_over_b`` at truncations 1, 2 and n + 1 constructs one
    graded ``ModuleGB`` per stage of its result, each with the f_k e_j as
    ``modulo`` and tracked except the one at the truncation.  It makes no
    run past the truncation or for a stage with no nonzero candidate; one
    more run, which keeps nothing, can only end a complete resolution.
    Complete means fewer stages than the truncation.  Each run records
    the degrees of its kept columns, as ``column_degree`` reads them, and
    those are the degrees of F; a graded run with no nonzero column
    records none.  The runs are read from a wrapper of ``ModuleGB``: the
    resolution keeps none of them
    (``test_a_truncated_resolution_keeps_no_run``).  The inputs are those of ``_coker_inputs`` with n <= 6 (the resolution
    of ``res_n7_e2`` through stage 8 takes seconds), the two free ones,
    and two over k[x,y,z] / (x^3, y^3) whose resolutions end: M = B, and
    M = B/(z), which has a free resolution of length 1."""
    runs = []
    init = ModuleGB.__init__

    def counting(self, ring, rank, columns, track=False, row_degrees=None,
                 modulo=()):
        runs.append((self, track, row_degrees is not None, list(modulo),
                     all(columns)))
        init(self, ring, rank, columns, track, row_degrees, modulo)

    monkeypatch.setattr(ModuleGB, "__init__", counting)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    rd3 = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    ends = [(rd, PolyMatrix.from_rows(A, [[]])),
            (rd, PolyMatrix.from_rows(A, [[A.zero(), A.zero()]])),
            (rd3, PolyMatrix.from_rows(A3, [[A3.parse("x^3")]])),
            (rd3, PolyMatrix.from_rows(A3, [[A3.parse("z")]]))]
    seen = set()
    for rd, pres in [c for c in _coker_inputs() if c[0].n <= 6] + ends:
        for truncation in (1, 2, rd.n + 1):
            runs.clear()
            res = resolve_over_b(rd, pres, truncation)
            L = res.length
            assert res.complete == (L < truncation)
            assert [r[1:] for r in runs[:L]] == [
                (t < truncation, True,
                 quotient_columns(rd.ci, len(res.degrees[t - 1])), True)
                for t in range(1, L + 1)]
            extra = runs[L:]
            assert len(extra) <= 1
            for gb, *_, nonzero in extra:
                assert res.complete and nonzero and not gb.kept
                assert gb.kept_degrees == []
            for t in range(1, L + 1):
                want = [column_degree(rd.ring, c, res.degrees[t - 1])
                        for c in res.differentials[t - 1]]
                assert runs[t - 1][0].kept_degrees == want
                assert res.degrees[t] == want
            seen.add((L, res.complete, len(extra)))
    assert {(0, True, 0), (0, True, 1), (1, True, 1), (1, False, 0)} <= seen
    assert max(L for L, *_ in seen) >= 5
    for modulo in ((), quotient_columns(rd3.ci, 2)):
        gb = ModuleGB(A3, 2, [{}, {}], True, [0, 1], modulo)
        assert gb.kept == [] and gb.kept_degrees == []


def test_a_truncated_resolution_keeps_no_run(monkeypatch):
    """``resolve_over_b`` at truncations 1, 2 and n + 1 keeps no run in
    ``image_bases``, and every ``ModuleGB`` built during the call is freed
    once it returns, while the resolution is still held.  Over A, which
    the higher homotopies lift through, ``image_bases`` holds the one run
    of each stage, and those are all the runs built.  On the inputs of
    ``_coker_inputs`` with n <= 5."""
    built = []
    init = ModuleGB.__init__

    def recording(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleGB, "__init__", recording)
    freed = 0
    for rd, pres in [c for c in _coker_inputs() if c[0].n <= 5]:
        for truncation in (1, 2, rd.n + 1):
            built.clear()
            res = resolve_over_b(rd, pres, truncation)
            gc.collect()
            assert res.image_bases == {}
            assert all(ref() is None for ref in built)
            freed += len(built)
        built.clear()
        res = resolve_over_a(rd, pres)
        gc.collect()
        assert [ref() for ref in built] == [
            res.image_bases[t] for t in range(1, res.length + 1)]
    assert freed >= 100


def test_tracked_runs_drop_the_pairs_that_reduce_to_zero():
    """A guard on the resolution of ``nm_n7_e2`` (``LADDER``: three
    binomial relations over k[x0..x6] / (x0^2..x6^2)), by counts.  Its
    tracked runs install pairs as the untracked runs do, so it reduces at most
    2,500 S-vectors (7,128 when every pair of a component was reduced)
    and still has the Betti numbers below.  Over B = A, with no f,
    ``resolve_over_b`` through the same length takes the same stages, its
    last one untracked, and finds the same degrees."""
    session = parse_session(LADDER["nm_n7_e2"])
    rd = session.ring_data
    pres = PolyMatrix.from_rows(rd.ring, session.module.rows)
    before = GBStats.pairs_processed
    res = resolve_over_a(rd, pres)
    assert GBStats.pairs_processed - before <= 2500
    assert list(res.betti().values()) == [1, 10, 65, 176, 246, 189, 75, 12]
    over_b = resolve_over_b(RingData(rd.ring, ()), pres, res.length)
    assert over_b.degrees == res.degrees


def _old_split_unit_entries(cols, rank: int, row_degrees, field):
    """``split_unit_entries`` before it was a loop of ``matrix.cancel_unit``:
    the first unit of the first column that has one, each other column
    cleared at its row by the pivot column.  Returns the surviving columns,
    row indices and row degrees."""
    cols = [dict(c) for c in cols]
    live_rows = list(range(rank))
    while True:
        unit = next(((j, r, c) for j, col in enumerate(cols)
                     for (r, m), c in col.items()
                     if not any(m) and sum(k[0] == r for k in col) == 1),
                    None)
        if unit is None:
            break
        j, r, u = unit
        pivot_col = cols.pop(j)
        inv = field.neg(field.inv(u))
        for k, col in enumerate(cols):
            for m, c in [(m, c) for (rr, m), c in col.items() if rr == r]:
                col = vec_add(field, col, pivot_col, field.mul(c, inv), m)
            cols[k] = col
        live_rows.remove(r)
    remap = {r: i for i, r in enumerate(live_rows)}
    out = [{(remap[r], m): c for (r, m), c in col.items()} for col in cols]
    return out, live_rows, [row_degrees[r] for r in live_rows]


def test_an_entry_with_a_constant_term_is_not_a_unit():
    """1 + x is not a unit of A, so it is not cancelled, by the old
    routine either; the column it sits in is inhomogeneous, which the
    resolution reports.  Beside a true unit, 1 + x only takes the fill."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    rows = [[A.parse("1 + x"), A.parse("y")], [A.parse("x"), A.zero()]]
    pres = PolyMatrix.from_rows(A, rows)
    cols = pres.columns_as_vectors()
    assert split_unit_entries(pres, [0, 0]) == (cols, [0, 0])
    assert _old_split_unit_entries(cols, 2, [0, 0], GF101) == \
        (cols, [0, 1], [0, 0])
    with pytest.raises(PipelineError, match="inhomogeneous module column"):
        resolve_over_a(rd, pres)
    rows = [[A.parse("1 + x"), A.one()], [A.parse("x"), A.parse("y")]]
    pres = PolyMatrix.from_rows(A, rows)
    want = PolyMatrix.from_rows(A, [[A.parse("x - y - x*y")]])
    assert split_unit_entries(pres, [0, 1]) == \
        (want.columns_as_vectors(), [1])
    out, _, degrees = _old_split_unit_entries(pres.columns_as_vectors(), 2,
                                              [0, 1], GF101)
    assert (out, degrees) == (want.columns_as_vectors(), [1])


def test_unit_split_keeps_the_hilbert_data():
    """Cancelling unit entries, least (row, column) first, leaves the
    cokernel's Hilbert data and Fitting ideals as they were, and the row
    degrees the old column-by-column routine leaves, on random homogeneous
    presentations over GF(101)[x,y,z] with units in columns that have
    entries in other rows too."""
    rng = random.Random(67)
    split_rows = 0
    for _ in range(40):
        row_degrees = [rng.randrange(3) for _ in range(rng.randrange(2, 4))]
        cols = []
        for _ in range(rng.randrange(2, 6)):
            if rng.random() < 0.5:
                degree = rng.choice(row_degrees)
            else:
                degree = max(row_degrees) + rng.randrange(1, 3)
            col = _random_column(rng, degree, row_degrees)
            for r, shift in enumerate(row_degrees):
                if shift == degree and rng.random() < 0.5:
                    col[(r, (0, 0, 0))] = rng.randrange(1, 101)
            if col:
                cols.append(col)
        nrows = len(row_degrees)
        before = PolyMatrix.from_columns(A3, nrows, cols)
        out, degrees = split_unit_entries(before, row_degrees)
        old, _, old_degrees = _old_split_unit_entries(cols, nrows,
                                                      row_degrees, GF101)
        assert sorted(degrees) == sorted(old_degrees)
        split_rows += nrows - len(degrees)
        want = module_hilbert_data(before, row_degrees)
        fitting = [_reduced_minor_ideal(before, t + nrows - len(degrees))
                   for t in range(1, len(degrees) + 1)]
        for cols_after in (out, old):
            after = PolyMatrix.from_columns(
                A3, len(degrees), [c for c in cols_after if c])
            assert module_hilbert_data(after, degrees) == want
            assert [_reduced_minor_ideal(after, t)
                    for t in range(1, len(degrees) + 1)] == fitting
    assert split_rows > 20


def _reduced_minor_ideal(mat, t):
    """The generators of the reduced basis of I_t(mat), as a set."""
    return set(Ideal(mat.ring, mat.minors(t)).reduced().gens)


# -- duals -----------------------------------------------------------------


def test_koszul_complex_is_self_dual():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, _pres(A, ["x", "y"]))
    dc = dualize_over_a(res)
    assert _check_concentration(res)
    mats = [d_matrix(dc, t) for t in range(1, dc.length + 1)]
    assert [m.nrows for m in mats] == [1, 2]
    for j, mat in enumerate(mats):
        assert mat.entries == transpose(d_matrix(res, res.length - j)).entries


def test_dual_of_final_module_has_length_three():
    """The annihilator dual in the artinian quotient has length 3."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = _pres(A, ["x^2", "x*y", "y^2"])
    res = resolve_over_a(rd, pres)
    assert _check_concentration(res)
    mat, row_degrees = dual_presentation(res)
    dim, mult, _ = hilbert_data(mat, row_degrees, A.weights)
    assert (dim, mult) == (0, 3)


def _exponent_word(exps):
    return "*".join(f"{v}^{e}" for v, e in zip("xyz", exps) if e)


def _random_presentation_rows(rng, binomials=0.3):
    """One or two rows over GF(101)[x,y,z], each row's generator killed by
    x^3 and y^3, plus random monomial relations, each one a binomial with
    probability ``binomials``."""
    nrows = rng.choice((1, 1, 2))
    words = []
    for _ in range(rng.randrange(1, 4) + nrows):
        exps = [rng.randrange(0, 3) for _ in range(3)]
        exps[rng.randrange(3)] += 1
        other = exps[:]
        rng.shuffle(other)
        word = _exponent_word(exps)
        if other != exps and rng.random() < binomials:
            word += f" + {rng.randrange(1, 101)}*{_exponent_word(other)}"
        words.append(word)
    cols = [{k: p} for k in range(nrows) for p in ("x^3", "y^3")]
    for word in words:
        if nrows == 2 and rng.random() < 0.5:
            cols.append({0: word, 1: word})
        else:
            cols.append({rng.randrange(nrows): word})
    return [[A3.parse(col.get(r, "0")) for col in cols] for r in range(nrows)]


def test_concentration_by_auslander_buchsbaum_equals_the_syzygy_route():
    """On random modules over GF(101)[x,y,z]/(x^3, y^3), of dimension 0
    or 1 and depth 0 or 1, the dual of the minimal resolution is
    concentrated exactly when the syzygy route finds it exact below the
    top; both outcomes occur."""
    rd = RingData(A3, [A3.parse("x^3"), A3.parse("y^3")])
    rng = random.Random(43)
    outcomes = []
    for _ in range(60):
        rows = _random_presentation_rows(rng)
        res = resolve_over_a(rd, PolyMatrix.from_rows(A3, rows))
        concentrated = _check_concentration(res)
        assert concentrated == syzygy_concentration(res)
        outcomes.append(concentrated)
    assert True in outcomes and False in outcomes


# -- regular sequences -----------------------------------------------------


def test_regular_sequence_detection():
    A = PolyRing(GF101, ("x", "y"))
    assert RingData(A, [A.parse("x^3"), A.parse("y^3")]).is_regular_sequence()
    assert not RingData(A, [A.parse("x^2*y"),
                            A.parse("x*y^2")]).is_regular_sequence()
    A1 = PolyRing(GF101, ("x",))
    assert RingData(A1, [A1.parse("x")]).is_regular_sequence()
    # c > n: the dimension test alone refuses it
    assert not RingData(A1, [A1.parse("x^2"),
                             A1.parse("x^3")]).is_regular_sequence()


# -- quasi-polynomial tails ------------------------------------------------


def test_fit_final_example_tail():
    beta = {4: 7, 5: 9, 6: 10, 7: 12, 8: 13, 9: 15, 10: 16, 11: 18,
            12: 19, 13: 21}
    qp = fit_quasi_polynomial(beta, 10)
    assert qp.q_ev == (Fraction(1), Fraction(3, 2))
    assert qp.q_odd == (Fraction(3, 2), Fraction(3, 2))


def test_fit_constant_tail():
    beta = {i: 2 for i in range(8)}
    qp = fit_quasi_polynomial(beta, 8)
    assert qp.q_ev == (Fraction(2),) and qp.q_odd == (Fraction(2),)


def test_fit_zero_tail():
    beta = {i: 0 for i in range(8)}
    qp = fit_quasi_polynomial(beta, 8)
    assert qp.q_ev == () and qp.q_odd == ()


def test_fit_rejects_unstable_tail():
    beta = {i: 2 ** i for i in range(8)}
    with pytest.raises(TruncationNeeded):
        fit_quasi_polynomial(beta, 8)


def _interpolation_fit_branch(points):
    """Reference for oracles._fit_branch: interpolate each degree in
    turn and evaluate the polynomial at every point of the tail."""
    if not points:
        raise TruncationNeeded("empty tail")
    for d in range(0, len(points) - 2):
        coeffs = oracles._interpolate(points[-(d + 1):])
        poly = lambda x: sum((c * Fraction(x) ** e
                              for e, c in enumerate(coeffs)), Fraction(0))
        if not all(poly(x) == y for x, y in points[-(d + 3):]):
            continue
        valid_from = points[-1][0]
        for x, y in reversed(points):
            if poly(x) == y:
                valid_from = x
            else:
                break
        return coeffs, valid_from
    raise TruncationNeeded("tail is not yet quasi-polynomial")


def _random_betti_sequence(rng):
    """beta_0..beta_(n-1): a polynomial of degree below 3 on each parity
    after a random head, or noise.  The odd branch mostly shares the even
    branch's leading term."""
    n = rng.randrange(0, 24)
    polys = [[rng.randrange(-3, 4) for _ in range(rng.randrange(0, 4))]
             for _ in range(2)]
    if polys[0] and rng.random() < 0.7:
        polys[1] = [rng.randrange(-3, 4) for _ in polys[0][1:]] + polys[0][-1:]
    head = rng.randrange(0, n // 2 + 1)
    noise = rng.random() < 0.2
    beta = {}
    for i in range(n):
        if i < head or noise:
            beta[i] = rng.randrange(-2, 30)
        else:
            beta[i] = sum(a * i ** e for e, a in enumerate(polys[i % 2]))
    return beta


def _fit_or_error(beta, window):
    try:
        qp = fit_quasi_polynomial(beta, window)
    except TruncationNeeded as exc:
        return str(exc)
    return qp.q_ev, qp.q_odd, qp.valid_from


def test_branch_fit_equals_the_interpolation_route(monkeypatch):
    """The difference-table fit gives the same polynomials, start index and
    error message as interpolating and evaluating each degree in turn."""
    rng = random.Random(18)
    cases = []
    for _ in range(1500):
        beta = _random_betti_sequence(rng)
        cases.append((beta, max(1, len(beta) + rng.randrange(-12, 3))))
    got = [_fit_or_error(beta, window) for beta, window in cases]
    monkeypatch.setattr(oracles, "_fit_branch", _interpolation_fit_branch)
    assert got == [_fit_or_error(beta, window) for beta, window in cases]
    messages = {r for r in got if isinstance(r, str)}
    assert messages == {"empty tail", "tail is not yet quasi-polynomial",
                        "window exceeds available Betti numbers",
                        "even and odd branches disagree in degree"}
    fits = [r for r in got if not isinstance(r, str)]
    assert len(fits) >= 200
    assert {len(q) for q, _, _ in fits} == {0, 1, 2, 3}
    assert len({v for _, _, v in fits}) >= 8


# -- the stored columns -----------------------------------------------------


def _assert_maps_of(res, rd=None):
    """Each d_t of ``res`` is the list of its columns as module vectors:
    one per generator of F_t, every row index a generator of F_(t-1),
    each column homogeneous of the degree of its generator, and
    d_t o d_(t+1) = 0, formed with ``add_image`` and ``reduced``; over
    B = A/(f) (``rd`` given) it need only lie in the span of the f_k e_j."""
    ring = res.ring_data.ring
    for t in range(1, res.length + 1):
        cols, rows = res.differentials[t - 1], res.degrees[t - 1]
        assert len(cols) == len(res.degrees[t])
        for col, deg in zip(cols, res.degrees[t]):
            assert all(0 <= r < len(rows) for r, _ in col)
            assert {ring.wdeg(m) + rows[r] for r, m in col} == {deg}
        if t == res.length:
            continue
        zero = ModuleGB(ring, len(rows),
                        quotient_columns(rd.ci, len(rows)) if rd else [])
        for v in res.differentials[t]:
            acc = {}
            add_image(cols, v, acc)
            assert zero.contains(reduced(acc, ring.field.p)), (t, v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_coker_sessions())
@example((SESSIONS / "koszul_residue.session").read_text())
@example((SESSIONS / "dg_nonregular.session").read_text())
def test_differentials_are_the_columns_of_the_maps(text):
    """Over A, from a cokernel or from ``complex`` input, and over B at
    truncation 3: the checks the matrix constructor made of its entries
    (``PolyMatrix.__init__``), and more, on the bare columns."""
    session = parse_session(text)
    rd, mod = session.ring_data, session.module
    if mod.kind == "complex":
        _assert_maps_of(build_pipeline(session).resolution)
        return
    pres = PolyMatrix.from_rows(rd.ring, mod.rows)
    _assert_maps_of(resolve_over_a(rd, pres))
    _assert_maps_of(resolve_over_b(rd, pres, 3), rd)


_GRADED_RINGS = (((1, 1, 1), "x^3, y^3"), ((1, 2, 1), "x^2, y^2"))


@st.composite
def _homogeneous_presentations(draw):
    """(rd, presentation, row degrees) over GF(101) or QQ, on k[x, y, z]
    with weights 1, 1, 1 or 1, 2, 1: one to three rows in degrees 0 to 2,
    and one to four columns, each of a degree from the top row degree to
    two above it, with up to two terms per entry, so homogeneous."""
    field = draw(st.sampled_from([GF101, QQ]))
    weights, ci = draw(st.sampled_from(_GRADED_RINGS))
    A = PolyRing(field, ("x", "y", "z"), weights)
    rows = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    entries = [[] for _ in rows]
    for _ in range(draw(st.integers(1, 4))):
        degree = max(rows) + draw(st.integers(0, 2))
        for r, shift in enumerate(rows):
            monos = [m for m in itertools.product(range(5), repeat=3)
                     if A.wdeg(m) == degree - shift]
            terms = draw(st.lists(st.tuples(st.sampled_from([1, 2, -1]),
                                            st.sampled_from(monos)),
                                  max_size=2))
            entries[r].append(sum((A.monomial(m, c) for c, m in terms),
                                  A.zero()))
    rd = RingData(A, [A.parse(f) for f in ci.split(", ")])
    return rd, PolyMatrix.from_rows(A, entries), rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_homogeneous_presentations())
def test_every_map_of_a_resolution_is_homogeneous(case):
    """The check the graded runs and ``homotopy._grading`` no longer make,
    kept here: over A and over B at truncation 3, with the rows of the
    presentation in their drawn degrees, every column of every d_t passes
    ``column_degree`` in the degrees of F_(t-1), and its degree is the one
    ``res.degrees[t]`` gives its generator.  Unlike the sessions of
    ``test_differentials_are_the_columns_of_the_maps``, the rows lie in
    several degrees and the ring can be weighted."""
    rd, pres, rows = case
    for res in (_resolve(rd, (), pres, None, rows),
                resolve_over_b(rd, pres, 3, rows)):
        for t in range(1, res.length + 1):
            assert [column_degree(rd.ring, c, res.degrees[t - 1])
                    for c in res.differentials[t - 1]] == res.degrees[t]
