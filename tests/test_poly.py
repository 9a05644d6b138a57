"""Exact scalar and polynomial arithmetic, against a dense oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci.poly import MAX_EXPONENT, MAX_PARSE_WORK


GF5 = GF(5)
GF101 = GF(101)


# -- fields ----------------------------------------------------------------


def test_prime_field_inverses():
    for a in range(1, 5):
        assert GF5.mul(a, GF5.inv(a)) == 1


def test_rational_field_exactness():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)


# -- dense oracle ----------------------------------------------------------


class DensePoly:
    """Brute-force dense polynomial over GF(p) in ``n`` variables, as a
    full coefficient table indexed by exponent tuples."""

    def __init__(self, n, maxdeg, coeffs, p):
        self.n, self.maxdeg, self.coeffs, self.p = n, maxdeg, dict(coeffs), p

    @classmethod
    def zero(cls, n, maxdeg, p):
        return cls(n, maxdeg, {}, p)

    def add(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = (out.get(m, 0) + c) % self.p
        return DensePoly(self.n, self.maxdeg, out, self.p)

    def mul(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = (out.get(m, 0) + c1 * c2) % self.p
        return DensePoly(self.n, self.maxdeg, out, self.p)

    def normalized(self):
        return {m: c for m, c in self.coeffs.items() if c % self.p}


def _sparse_from_dense(ring, dense):
    out = ring.zero()
    for m, c in dense.coeffs.items():
        out = out + ring.monomial(m, c)
    return out


def _exponents(n, maxdeg):
    return [m for m in itertools.product(range(maxdeg + 1), repeat=n)
            if sum(m) <= maxdeg]


def test_exhaustive_one_variable_degree_two():
    """Every pair of univariate polynomials of degree <= 2 over GF(5)."""
    ring = PolyRing(GF5, ("x",))
    monos = _exponents(1, 2)
    all_polys = []
    for coeffs in itertools.product(range(5), repeat=len(monos)):
        all_polys.append(dict(zip(monos, coeffs)))
    for ca in all_polys:
        for cb in all_polys:
            da = DensePoly(1, 2, ca, 5)
            db = DensePoly(1, 2, cb, 5)
            a = _sparse_from_dense(ring, da)
            b = _sparse_from_dense(ring, db)
            assert (a + b).terms == da.add(db).normalized()
            assert (a * b).terms == da.mul(db).normalized()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_three_variables_degree_three(data):
    ring = PolyRing(GF5, ("x", "y", "z"))
    monos = _exponents(3, 3)
    pick = st.dictionaries(st.sampled_from(monos),
                           st.integers(min_value=1, max_value=4), max_size=6)
    da = DensePoly(3, 3, data.draw(pick), 5)
    db = DensePoly(3, 3, data.draw(pick), 5)
    a = _sparse_from_dense(ring, da)
    b = _sparse_from_dense(ring, db)
    assert (a + b).terms == da.add(db).normalized()
    assert (a * b).terms == da.mul(db).normalized()
    assert (a - a).is_zero()


# -- documented micro-fixtures ---------------------------------------------


def test_difference_of_squares():
    ring = PolyRing(GF101, ("x", "y"))
    a = ring.parse("x + y")
    b = ring.parse("x - y")
    assert a * b == ring.parse("x^2 - y^2")


def test_multiplication_by_zero_absorbs():
    ring = PolyRing(GF101, ("x", "y"))
    assert (ring.parse("x^3 - 2*x*y^2") * ring.zero()).is_zero()


def test_binomial_square_over_rationals():
    S = PolyRing(QQ, ("chi1", "chi2"))
    sq = S.parse("chi1 + chi2") ** 2
    assert sq == S.parse("chi1^2 + 2*chi1*chi2 + chi2^2")


def test_power_by_squaring_matches_repeated_products():
    ring = PolyRing(GF101, ("x", "y"))
    p = ring.parse("x + 2*y - 3")
    product = ring.one()
    for n in range(12):
        assert p ** n == product
        product = product * p


def test_mismatched_rings_rejected():
    r1 = PolyRing(GF5, ("x",))
    r2 = PolyRing(GF5, ("y",))
    with pytest.raises(ValueError, match="mismatched ring tags"):
        r1.parse("x") + r2.parse("y")


# -- parser and printer ----------------------------------------------------


def test_parse_print_round_trip():
    ring = PolyRing(GF101, ("x", "y", "z"))
    for text in ("x^3 - 2*x*y^2", "x*z + y*z^2", "1", "x - y + z"):
        p = ring.parse(text)
        assert ring.parse(str(p)) == p


def test_parse_rejects_unknown_variable():
    ring = PolyRing(GF5, ("x", "y"))
    with pytest.raises(ValueError):
        ring.parse("x + w")


def test_parse_caps_the_exponent():
    ring = PolyRing(GF5, ("x",))
    assert ring.parse(f"x^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    with pytest.raises(ValueError, match="exceeds the limit"):
        ring.parse(f"x^{MAX_EXPONENT + 1}")


def test_parse_caps_the_work_of_expanding_a_power_of_a_sum():
    ring = PolyRing(GF101, ("x", "y", "z", "w"))
    total = ring.parse("x + y + z + w")
    assert ring.parse("(x + y + z + w)^16") == total ** 16
    for text in ("(x + y + z + w)^28", "(x + y + z + w)^80",
                 "(x + y + z + w)^16 * (x + y + z + w)^16"):
        with pytest.raises(ValueError, match=str(MAX_PARSE_WORK)):
            ring.parse(text)


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError, match="duplicate variable name 'x'"):
        PolyRing(GF5, ("x", "y", "x"))


def test_weighted_degrees():
    ring = PolyRing(GF5, ("x", "y"), (1, 2))
    assert ring.parse("x^2*y").degree() == 4
    assert ring.parse("x^2 + y").is_homogeneous()


def test_no_zero_coefficients_stored():
    ring = PolyRing(GF5, ("x",))
    p = ring.parse("x + 4*x")
    assert p.is_zero() and p.terms == {}
    q = ring.parse("x^2 + x") - ring.parse("x")
    assert all(c for c in q.terms.values())
