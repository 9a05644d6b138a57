"""Structural invariants checked on fixtures and random twisted complexes.

The helpers here are also exercised by the acceptance suite.
"""

import random

import pytest

from jumploci import GF, PolyRing
from jumploci.twisted import minimalize, s_dual
from jumploci.loci import (jump_locus_ideal, jump_loci_report, crk_at,
                           betti_degree, complexity_of)

from conftest import random_twisted_complex
from oracles import additivity_check, jump_locus_via_exterior_power, shift


def _random_instances(count=10, seed=17):
    rng = random.Random(seed)
    S = PolyRing(GF(5), ("chi1", "chi2"), (2, 2))
    return [random_twisted_complex(S, rng) for _ in range(count)]


RANDOMS = _random_instances()


def _fixture_instances(koszul, nonreg, flag):
    return [koszul[3], nonreg[3], flag[4]]


@pytest.fixture(scope="module")
def instances(koszul_action, nonregular_action, flag_pipeline):
    return (_fixture_instances(koszul_action, nonregular_action,
                               flag_pipeline) + RANDOMS)


def check_differential_squares_to_zero(X):
    assert (X.D @ X.D).is_zero()


def check_descending_chain(X):
    """Varieties descend with the index, so the ideals ascend up to
    radical: each defining ideal contains the previous one."""
    r = minimalize(X).rank
    prev = None
    for i in range(0, r + 2):
        I = jump_locus_ideal(X, i)
        if prev is not None:
            for g in prev.gens:
                assert I.radical_contains(g), i
        prev = I


def check_parity_collapse(X):
    r = minimalize(X).rank
    for i in range(1, r + 1):
        if (r - i) % 2 != 0:
            assert jump_locus_ideal(X, i).same_variety(
                jump_locus_ideal(X, i + 1)), i


def check_routes_agree(X):
    r = minimalize(X).rank
    for i in range(1, r + 2):
        assert jump_locus_ideal(X, i).same_variety(
            jump_locus_via_exterior_power(X, i)), i


def check_jump_endpoints(X):
    rep = jump_loci_report(X)
    if rep.jump_numbers:
        assert rep.jump_numbers[0] % 2 == 0
        assert rep.jump_numbers[-1] == minimalize(X).rank


def check_shift_and_minimalization_invariance(X):
    r = minimalize(X).rank
    for Y in (shift(X, 1), minimalize(X)):
        for i in range(1, r + 2):
            assert jump_locus_ideal(Y, i).same_variety(
                jump_locus_ideal(X, i)), i


def check_dual_involution(X):
    """s_dual lists its basis by cohomological degree, so it is an
    involution on complexes in that order: X(M), and every dual."""
    coh = [u for u, _ in X.basis_degrees]
    for Y in ([X] if coh == sorted(coh) else []) + [s_dual(X)]:
        YY = s_dual(s_dual(Y))
        assert YY.D.entries == Y.D.entries
        assert YY.basis_degrees == Y.basis_degrees


def check_dual_has_the_jump_ideals(X):
    """s_dual is a transpose and I_t(D^T) = I_t(D), so the fast dual has
    the reduced jump ideals of X; the duality check relies on this."""
    X = minimalize(X)
    Y = s_dual(X)
    for i in range(0, X.rank + 2):
        assert (jump_locus_ideal(Y, i).groebner_generators()
                == jump_locus_ideal(X, i).groebner_generators()), i


def check_degree_counts(X):
    """Computing the Betti degree must never produce mismatched parity
    counts; it either returns a nonnegative integer or declines because
    the complexity is too small.  The complexity it reads off the Hilbert
    numerator is the one of the homology presentation."""
    cx, bdeg = betti_degree(X)
    assert cx == complexity_of(X)
    if cx >= 1:
        assert bdeg is not None and bdeg >= 0
    else:
        assert bdeg is None


ALL_CHECKS = [check_differential_squares_to_zero,
              check_descending_chain,
              check_parity_collapse,
              check_routes_agree,
              check_jump_endpoints,
              check_shift_and_minimalization_invariance,
              check_dual_involution,
              check_dual_has_the_jump_ideals,
              check_degree_counts]


@pytest.mark.parametrize("check", ALL_CHECKS,
                         ids=lambda c: c.__name__.removeprefix("check_"))
def test_invariants(check, instances):
    for X in instances:
        check(X)


def test_additivity_on_random_pairs():
    rng = random.Random(23)
    for _ in range(5):
        X = rng.choice(RANDOMS)
        Y = rng.choice(RANDOMS)
        assert additivity_check(X, Y)


def test_generic_crk_bounds():
    rng = random.Random(19)
    for X in RANDOMS:
        r = minimalize(X).rank
        generic = crk_at(X, None)
        assert 0 <= generic <= r
        assert (r - generic) % 2 == 0
        # the rank at a point never exceeds the generic rank
        for _ in range(5):
            a = [rng.randrange(X.S.field.p) for _ in range(X.S.nvars)]
            assert X.D.rank_at(a) <= X.D.generic_rank()


def run_invariant_suite(instances):
    """Entry point shared with the acceptance suite: run every invariant
    check on every instance, returning the number of checks executed."""
    n = 0
    for check in ALL_CHECKS:
        for X in instances:
            check(X)
            n += 1
    return n
