"""Higher homotopy systems: construction, validation, dualization."""

import ast
import random
import re

import pytest

from jumploci import GF, PolyRing
from jumploci.groebner import ModuleGB
from jumploci.matrix import PolyMatrix
from jumploci.resolution import (RingData, FreeResolution, PipelineError,
                                 resolve_over_a, dualize_over_a)
from jumploci.homotopy import (HigherHomotopySystem, compute_higher_homotopies,
                               ingest_dg_structure, _multi_indices)
from jumploci.session import parse_session
from jumploci.twisted import build_twisted_complex

from conftest import (REPO, SESSIONS, PAIR_BLOCK_SESSION, matrix_of,
                      random_monomial_rows, random_monomial_rows_3)
from oracles import _splittings, dualize_and_verify, verify_system

GF101 = GF(101)


def test_single_hypersurface_homotopy_is_identity():
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    sigma = sys.sigma[(1,)][0]
    assert sigma.nrows == sigma.ncols == 1
    assert str(sigma.get(0, 0)) == "1"


def test_residue_field_system_verifies():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x"), A.parse("y")]])
    res = resolve_over_a(rd, pres)
    sys = compute_higher_homotopies(res, rd)
    verify_system(sys, rd)
    assert (1, 0) in sys.sigma and (0, 1) in sys.sigma


def test_free_module_needs_no_homotopies():
    """f annihilates no nonzero free module, so M = A has no system."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [[]]))
    with pytest.raises(PipelineError, match="does not annihilate"):
        compute_higher_homotopies(res, rd)


def test_annihilation_is_checked_before_the_regular_sequence(monkeypatch):
    """An input error is found without the Groebner basis and Hilbert
    series of the ci ideal that the regular-sequence test builds."""
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    res = resolve_over_a(rd, PolyMatrix.from_rows(A, [[A.parse("x")]]))

    def not_called(self):
        raise AssertionError("the regular-sequence test ran first")

    monkeypatch.setattr(RingData, "is_regular_sequence", not_called)
    with pytest.raises(PipelineError,
                       match=re.escape("f_2 = y^2 does not annihilate")):
        compute_higher_homotopies(res, rd)


def test_nonregular_sequence_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2*y"), A.parse("x*y^2")])
    pres = PolyMatrix.from_rows(A, [[A.parse("x^2*y"), A.parse("x*y^2")]])
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
            broken = HigherHomotopySystem(res, sigma)
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
    res = FreeResolution(rd, [matrix_of(A, [["x", "0"]])],
                         [[0], [1, 1]], complete=True)
    sys = HigherHomotopySystem(res, {(1,): {0: matrix_of(A, [["x"], ["0"]])}})
    with pytest.raises(AssertionError,
                       match=r"fails for J=\(1,\) at degree 1$"):
        verify_system(sys, rd)


def test_a_bad_lift_fails_the_identity_it_solves(flag_pipeline, monkeypatch):
    """No verification pass follows the construction: each identity is
    checked as it is solved.  A lift with its coefficient at column 0 of
    d off by x, stored or absent from the sparse result (d has no zero
    column, so d o h changes), must fail the identity of the very slot
    (J, t) it solves, whichever of the lifts it is."""
    rd, pres, res, sys, X = flag_pipeline
    x = rd.ring.gen(0)
    lift = ModuleGB.lift
    calls = []

    def counting(self, v):
        calls.append(v)
        return lift(self, v)

    monkeypatch.setattr(ModuleGB, "lift", counting)
    compute_higher_homotopies(res, rd)
    named = set()
    for n in range(len(calls)):
        seen = []

        def off_by_x(self, v, n=n):
            coeffs = lift(self, v)
            if len(seen) == n:
                coeffs[0] = coeffs.get(0, rd.ring.zero()) + x
            seen.append(v)
            return coeffs

        monkeypatch.setattr(ModuleGB, "lift", off_by_x)
        with pytest.raises(AssertionError) as info:
            compute_higher_homotopies(res, rd)
        m = re.fullmatch(r"homotopy identity fails for J=(\(.*\)) "
                         r"at degree (\d+)", str(info.value))
        assert m, info.value
        named.add((ast.literal_eval(m[1]), int(m[2])))
    stored = {(J, t) for J, blocks in sys.sigma.items() for t in blocks}
    assert len(calls) > len(stored) > 0
    assert named == stored


def test_construction_checks_the_top_of_the_complex():
    """The same complex as above, given to the construction: sigma = [x; 0]
    solves the identity at degree 0, and at the top, where there is no
    block left to solve for, the identity itself must hold; it does not.
    The lift goes through a tracked run of d_1's columns, in order."""
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    d1 = matrix_of(A, [["x", "0"]])
    res = FreeResolution(rd, [d1], [[0], [1, 1]], complete=True,
                         image_bases={1: ModuleGB(A, 1, d1.columns_as_vectors(),
                                                  track=True)})
    with pytest.raises(AssertionError,
                       match=r"fails for J=\(1,\) at degree 1$"):
        compute_higher_homotopies(res, rd)


# -- zero blocks against the construction that stores every block ---------


def _every_block_sigma(res, rd):
    """Reference: the solve loop before zero blocks were skipped.  It lifts
    every target, zero or not, one column at a time from a scan of all
    entries, and stores every block it solves, zero blocks included.  It
    lifts through fresh bases built as the resolution builds its stages:
    graded tracked runs over the columns of d_t."""
    ring = rd.ring
    L = res.length
    ranks = [len(d) for d in res.degrees]
    bases = {}

    def lift_through(t, target):
        if t not in bases:
            dt = res.differentials[t - 1]
            bases[t] = ModuleGB(ring, dt.nrows, dt.columns_as_vectors(),
                                True, res.degrees[t - 1])
        cols = []
        for j in range(target.ncols):
            v = {}  # minus column j: its lift c solves d_t c = column j
            for (r, c), p in target.entries.items():
                if c == j:
                    for m, co in p.terms.items():
                        v[(r, m)] = ring.field.neg(co)
            coeffs = bases[t].lift(v)
            assert coeffs is not None
            cols.append(coeffs)
        return PolyMatrix(ring, ranks[t], target.ncols,
                          {(r, j): p for j, coeffs in enumerate(cols)
                           for r, p in coeffs.items()})

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
    benchmark ladder, for the module with nonzero blocks at |J| = 2 over
    GF(101) and QQ, for random monomial modules over GF(101)[x,y] /
    (x^3, y^3), and for random ones in three variables, whose systems have
    zero blocks."""
    out = []
    paths = sorted(SESSIONS.glob("*.session")) + \
        sorted((REPO / "perfbench" / "inputs").glob("*.session"))
    texts = [path.read_text() for path in paths]
    texts += [f"field {field}\n{PAIR_BLOCK_SESSION}"
              for field in ("GF(101)", "QQ")]
    for text in texts:
        session = parse_session(text)
        if session.module.kind == "coker":
            rd = session.ring_data
            out.append((rd, PolyMatrix.from_rows(rd.ring,
                                                 session.module.rows)))
    rng = random.Random(11)
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3")])
    for _ in range(6):
        gens = random_monomial_rows(rng)
        out.append((rd, PolyMatrix.from_rows(
            A, [[A.monomial(m) for m in gens]])))
    A = PolyRing(GF101, ("x", "y", "z"))
    rd = RingData(A, [A.parse("x^3"), A.parse("y^3"), A.parse("z^3")])
    for _ in range(6):
        out.append((rd, PolyMatrix.from_rows(
            A, [[A.monomial(m) for m in random_monomial_rows_3(rng)]])))
    return out


def test_no_zero_block_is_stored_and_the_rest_are_unchanged():
    """Every nonzero block equals the one the every-block loop solves,
    entry for entry; no zero block is stored; every solved multi-index
    keeps its (possibly empty) dict; and X(M) has the same differential.
    The construction lifts through the graded runs that
    ``resolve_over_a`` took each d_t from, and builds no other; the
    every-block loop builds fresh graded runs over d_t's columns.  Some
    inputs have nonzero blocks at |J| = 2, so that the walk's pair
    products are compared too."""
    skipped = 0
    pair_blocks = 0
    for rd, pres in _homotopy_inputs():
        res = resolve_over_a(rd, pres)
        kept = dict(res.image_bases)
        assert set(kept) == set(range(1, res.length + 1))
        sys = compute_higher_homotopies(res, rd)
        assert res.image_bases == kept
        every = _every_block_sigma(res, rd)
        assert set(sys.sigma) == set(every)
        for J, blocks in every.items():
            nonzero = {t: m.entries for t, m in blocks.items()
                       if not m.is_zero()}
            assert {t: m.entries for t, m in sys.sigma[J].items()} == nonzero
            skipped += len(blocks) - len(nonzero)
            pair_blocks += len(nonzero) if sum(J) >= 2 else 0
        reference = HigherHomotopySystem(res, every)
        assert build_twisted_complex(sys, rd).D.entries == \
            build_twisted_complex(reference, rd).D.entries
    assert skipped > 0
    assert pair_blocks >= 10


def test_strict_action_accepted(koszul_action):
    rd, res, sys, X = koszul_action
    assert set(sys.sigma) == {(1, 0), (0, 1)}
    verify_system(sys, rd)


def test_perturbed_action_rejected():
    A = PolyRing(GF101, ("x", "y"))
    rd = RingData(A, [A.parse("x^2"), A.parse("y^2")])
    d1 = matrix_of(A, [["x", "y"]])
    d2 = matrix_of(A, [["-y"], ["x"]])
    res = FreeResolution(rd, [d1, d2], [[0], [1, 1], [2]],
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
    res = FreeResolution(rd, [d1, d2], [[0], [1, 1], [2]],
                         complete=True)
    e1 = [matrix_of(A, [["x"]]), matrix_of(A, [["0", "x"]])]
    e2 = [matrix_of(A, [["0"], ["y"]]), matrix_of(A, [["-y", "0"]])]
    with pytest.raises(PipelineError, match="shape"):
        ingest_dg_structure(res, [e1, e2], rd)


# -- strict dg actions against the two-loop validator ------------------------


def _two_loop_dg_check(res, actions, rd):
    """Reference: the validator before strict actions were checked as a
    homotopy system.  It tests e_i e_j + e_j e_i = 0 for i <= j, so that a
    square is counted twice (and so not at all over GF(2)), then
    d e_i + e_i d = f_i id; the first failure as a message, or None."""
    ranks = [len(d) for d in res.degrees]
    L = res.length
    for i in range(rd.c):
        for j in range(i, rd.c):
            for t in range(L - 1):
                total = (actions[i][t + 1] @ actions[j][t]
                         + actions[j][t + 1] @ actions[i][t])
                if not total.is_zero():
                    return (f"e{i + 1}*e{j + 1} + e{j + 1}*e{i + 1} != 0 "
                            f"at block {t}, entry {min(total.entries)}")
    for i in range(rd.c):
        for t in range(L + 1):
            acc = PolyMatrix.identity(rd.ring, ranks[t], scalar=-rd.ci[i])
            if t < L:
                acc = acc + res.differentials[t] @ actions[i][t]
            if t >= 1:
                acc = acc + actions[i][t - 1] @ res.differentials[t - 1]
            if not acc.is_zero():
                return (f"d*e{i + 1} + e{i + 1}*d != f_{i + 1}*id "
                        f"at block {t}, entry {min(acc.entries)}")
    return None


def _dg_verdict(res, actions, rd):
    try:
        ingest_dg_structure(res, actions, rd)
    except PipelineError as exc:
        return str(exc)
    return None


DG_MESSAGE = re.compile(r"(d\*e(\d+) \+ e\2\*d != f_\2\*id"
                        r"|e(\d+)\*e(\d+) \+ e\4\*e\3 != 0"
                        r"|e(\d+)\*e\5 != 0) at block \d+, entry \(\d+, \d+\)")

# The Koszul complex on x, y, z with ci x^2, and e_1 = x times the exterior
# product with the first basis vector.
KOSZUL_XYZ = """ring x, y, z weights 1, 1, 1
ci x^2
complex d1 [[x, y, z]] d2 [[-y, -z, 0], [x, 0, -z], [0, x, y]]
complex d3 [[z], [-y], [x]]
"""
WEDGE_X = ("action e1 [[x], [0], [0]] [[0, x, 0], [0, 0, x], [0, 0, 0]] "
           "[[0, 0, x]]\n")


def _dg_inputs(texts):
    """(rd, F, actions) of each complex session text."""
    out = []
    for text in texts:
        session = parse_session(text)
        rd, mod = session.ring_data, session.module
        res = FreeResolution(rd, mod.differentials, mod.degrees,
                             complete=True)
        out.append((rd, res, mod.actions))
    return out


def _random_term(rng, ring):
    mono = tuple(rng.randrange(2) for _ in range(ring.nvars))
    return ring.monomial(mono, rng.randrange(1, ring.field.p))


def _perturbed(rng, rd, res, actions):
    """The actions with one e_i changed in one of three ways: a random term
    added to one entry of one block, which breaks d e_i + e_i d = f_i id
    and mostly the products too; e_i scaled by a random term g != 1, which
    breaks only d e_i + e_i d = f_i id; or e_i + d s - s d for a random s
    of homological degree 2, which keeps that identity and leaves the
    products to decide."""
    ranks = [len(d) for d in res.degrees]
    L = res.length
    out = [list(blocks) for blocks in actions]
    i = rng.randrange(rd.c)
    kind = rng.choice(["term", "scale"] + (["homotopy"] * 2 if L >= 2 else []))
    if kind == "term":
        t = rng.randrange(L)
        b = out[i][t]
        bump = {(rng.randrange(b.nrows), rng.randrange(b.ncols)):
                _random_term(rng, rd.ring)}
        out[i][t] = b + PolyMatrix(rd.ring, b.nrows, b.ncols, bump)
    elif kind == "scale":
        g = _random_term(rng, rd.ring)
        while g == rd.ring.one():
            g = _random_term(rng, rd.ring)
        out[i] = [b.scale(g) for b in out[i]]
    else:
        for t in range(L - 1):
            s = PolyMatrix(rd.ring, ranks[t + 2], ranks[t],
                           {(r, c): _random_term(rng, rd.ring)
                            for r in range(ranks[t + 2])
                            for c in range(ranks[t]) if rng.random() < 0.6})
            out[i][t] = out[i][t] + res.differentials[t + 1] @ s
            out[i][t + 1] = out[i][t + 1] - s @ res.differentials[t]
    return out


def test_strict_actions_are_judged_as_by_the_two_loop_validator():
    """Over GF(101) the identity check of the system accepts and rejects
    exactly the actions the two-loop validator does; where that one fails
    only on d e_i + e_i d, both name the same identity and entry."""
    rng = random.Random(5)
    texts = [(SESSIONS / name).read_text()
             for name in ("koszul_residue.session", "dg_nonregular.session")]
    texts.append("field GF(101)\n" + KOSZUL_XYZ + WEDGE_X)
    seen = {"accept": 0, "d*e": 0, "products": 0}
    for rd, res, actions in _dg_inputs(texts):
        assert _two_loop_dg_check(res, actions, rd) is None
        for k in range(40):
            acts = actions if k == 0 else _perturbed(rng, rd, res, actions)
            old = _two_loop_dg_check(res, acts, rd)
            new = _dg_verdict(res, acts, rd)
            assert (old is None) == (new is None), (old, new)
            if old is None:
                seen["accept"] += 1
                continue
            assert DG_MESSAGE.fullmatch(new), new
            if old.startswith("d*"):
                assert new == old
                seen["d*e"] += 1
            else:
                seen["products"] += 1
    assert min(seen.values()) > 0, seen


def test_over_gf2_a_square_that_is_not_zero_is_rejected():
    """Over GF(2) the two-loop validator tests e_i e_i + e_i e_i = 0, which
    always holds; the system check also rejects exactly when some
    e_i e_i != 0.  Among the inputs: the Koszul complex on x, y, z with its
    action, and the same complex with an e_1 that satisfies
    d e_1 + e_1 d = x^2 id but squares to a nonzero map."""
    rng = random.Random(7)
    texts = ["field GF(2)\n" + KOSZUL_XYZ + WEDGE_X,
             "field GF(2)\n" + KOSZUL_XYZ
             + "action e1 [[x], [z], [y]] [[0, x + z, z], [0, y, x + y], "
               "[x, x + y, x + z]] [[x, x, x + y + z]]\n",
             (SESSIONS / "koszul_residue.session").read_text()
             .replace("GF(101)", "GF(2)")]
    seen = {"accept": 0, "square only": 0, "both": 0}
    for rd, res, actions in _dg_inputs(texts):
        for k in range(40):
            acts = actions if k == 0 else _perturbed(rng, rd, res, actions)
            old = _two_loop_dg_check(res, acts, rd)
            new = _dg_verdict(res, acts, rd)
            square = any(not (blocks[t + 1] @ blocks[t]).is_zero()
                         for blocks in acts for t in range(res.length - 1))
            assert (new is not None) == (old is not None or square), \
                (old, new)
            if new is None:
                seen["accept"] += 1
            elif old is None:
                assert re.fullmatch(r"e(\d+)\*e\1 != 0 .*", new), new
                seen["square only"] += 1
            else:
                seen["both"] += 1
    assert min(seen.values()) > 0, seen


def test_dualized_system_verifies(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    dualize_and_verify(sys, dualize_over_a(res), rd)


def test_dualize_twice_restores_blocks(final_pipeline):
    rd, pres, res, sys, X = final_pipeline
    dual_sys = dualize_and_verify(sys, dualize_over_a(res), rd)
    back = dualize_and_verify(dual_sys, dualize_over_a(dual_sys.resolution),
                              rd)
    for J, blocks in sys.sigma.items():
        for t, mat in blocks.items():
            assert back.sigma[J][t].entries == mat.entries
