"""Exact scalar and polynomial arithmetic, against a dense oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumploci import GF, QQ, PolyRing
from jumploci.field import Field
from jumploci.groebner import ModuleGB
from jumploci.matrix import PolyMatrix
from jumploci.poly import MAX_EXPONENT, MAX_PARSE_WORK, Polynomial
from jumploci.resolution import FreeResolution, RingData
from jumploci.session import ModuleInput
from jumploci.twisted import TwistedComplex

from oracles import polynomial_str_by_cases


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


def test_power_by_squaring_matches_repeated_products():
    """The parser's ``^`` squares its base; over GF(101) and QQ it equals
    the repeated product, and over QQ a binomial square expands as by
    hand."""
    for field in (GF101, QQ):
        ring = PolyRing(field, ("x", "y"))
        p = ring.parse("x + 2*y - 3")
        product = ring.one()
        for n in range(12):
            assert ring.parse(f"(x + 2*y - 3)^{n}") == product
            product = product * p
    S = PolyRing(QQ, ("chi1", "chi2"))
    assert (S.parse("(chi1 + chi2)^2")
            == S.parse("chi1^2 + 2*chi1*chi2 + chi2^2"))


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


# Coefficients the printer has a case for: +-1, negative ones and, over
# QQ, fractional ones (over GF(p), their numerators).
_PRINTED_COEFFICIENTS = st.sampled_from(
    [1, -1, 2, -2, 100, Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 101, 0]),
       terms=st.dictionaries(
           st.tuples(*[st.integers(0, 3)] * 3), _PRINTED_COEFFICIENTS,
           max_size=5))
def test_printer_matches_the_one_with_a_case_per_term_shape(p, terms):
    """Over GF(2), GF(3), GF(101) and QQ in a weighted ring, on
    polynomials with constants, zero, and coefficients +-1, negative and
    fractional: ``str`` prints what the printer with a branch for
    constants and one for terms with factors printed
    (``polynomial_str_by_cases``)."""
    ring = PolyRing(QQ if p == 0 else GF(p), ("x", "y", "z'"), (1, 2, 3))
    fld = ring.field
    coerced = {}
    for m, c in terms.items():
        c = fld.coerce(c if p == 0 else Fraction(c).numerator)
        if c:
            coerced[m] = c
    poly = Polynomial(ring, coerced)
    assert str(poly) == polynomial_str_by_cases(poly)


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
    product = ring.one()
    for _ in range(16):
        product = product * total
    assert ring.parse("(x + y + z + w)^16") == product
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


# -- term order and its per-ring caches -------------------------------------


def _monomials(nvars, top):
    return [m for m in itertools.product(range(top + 1), repeat=nvars)
            if sum(m) <= top]


def _grevlex_greater(a, b, weights):
    """a > b in weighted grevlex: larger weighted degree, or the same
    degree and a negative last nonzero entry of a - b."""
    da = sum(e * w for e, w in zip(a, weights))
    db = sum(e * w for e, w in zip(b, weights))
    if da != db:
        return da > db
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3), (3, 1, 2)])
def test_mono_key_is_the_closed_grevlex_formula(weights):
    """Every monomial of degree <= 4 in three variables, once to fill the
    cache and once to read it."""
    ring = PolyRing(GF101, ("x", "y", "z"), weights)
    monos = _monomials(3, 4)
    for _ in range(2):
        for m in monos:
            deg = sum(e * w for e, w in zip(m, weights))
            assert ring.wdeg(m) == deg
            assert ring.mono_key(m) == (deg, (-m[2], -m[1], -m[0]))
            assert ring.mono_key_desc(m) == (-deg, (m[2], m[1], m[0]))
    for a in monos:
        for b in monos:
            assert ((ring.mono_key(a) > ring.mono_key(b))
                    == _grevlex_greater(a, b, weights)), (a, b)


def test_key_caches_cannot_be_observed():
    """Two rings built alike stay equal, with one hash and one repr, after
    only one of them has filled its caches, and their polynomials mix."""
    for weights in ((), (1, 2, 3)):
        r1 = PolyRing(GF101, ("x", "y", "z"), weights)
        r2 = PolyRing(GF101, ("x", "y", "z"), weights)
        p = r1.parse("x^2*y + 3*z^2 - y")
        str(p)  # sorts the terms by mono_key
        for m in _monomials(3, 4):
            r1.mono_key_desc(m)
        assert r1._keys and r1._desc_keys and not r2._desc_keys
        assert r1 == r2 and hash(r1) == hash(r2) and repr(r1) == repr(r2)
        assert len({r1, r2}) == 1
        q = r2.parse("x*z - y^2")
        assert p * q == q * p == r2.parse(str(p)) * r1.parse(str(q))
        assert (p + q) - q == p and hash(p + q) == hash(q + p)
        assert (p * q).lead_monomial() == (q * p).lead_monomial()


# -- records ---------------------------------------------------------------


def test_fields_and_rings_print_as_before():
    assert repr(GF101) == "GF(101)" and repr(QQ) == "QQ"
    assert (repr(PolyRing(GF101, ("x", "y"), (1, 2)))
            == "PolyRing(field=GF(101), variables=('x', 'y'), weights=(1, 2))")
    assert (repr(PolyRing(QQ, ("x",)))
            == "PolyRing(field=QQ, variables=('x',), weights=(1,))")


def test_fields_and_rings_are_values():
    """Equal when built alike, with one hash; a different prime, name or
    weight, or another type, is unequal."""
    assert Field(101) == GF101 and hash(Field(101)) == hash(GF101)
    assert Field(0) == QQ and GF5 != GF101 and GF5 != 5 and QQ != 0
    ring = PolyRing(GF101, ("x", "y"))
    assert ring == PolyRing(Field(101), ("x", "y"), (1, 1))
    assert hash(ring) == hash(PolyRing(Field(101), ("x", "y"), (1, 1)))
    for other in (PolyRing(GF5, ("x", "y")), PolyRing(GF101, ("x", "z")),
                  PolyRing(GF101, ("x", "y"), (1, 2)),
                  PolyRing(GF101, ("x",)), ("x", "y")):
        assert ring != other and not ring == other


@pytest.mark.parametrize("n", range(4))
def test_default_weights_are_one(n):
    names = tuple(f"x{i}" for i in range(n))
    assert PolyRing(GF5, names).weights == (1,) * n
    assert PolyRing(GF5, names) == PolyRing(GF5, names, (1,) * n)


@pytest.mark.parametrize("make, message", [
    (lambda: Field(4), "4 is not prime"),
    (lambda: Field(1), "1 is not prime"),
    (lambda: Field(-3), "characteristic must be nonnegative"),
    (lambda: Field(1 << 31), "prime must be < 2^31"),
    (lambda: Field((1 << 61) - 1), "prime must be < 2^31"),
    (lambda: GF(0), "0 is not prime"),
    (lambda: PolyRing(GF5, ("x", "y"), (1,)),
     "weights/variables length mismatch"),
    (lambda: PolyRing(GF5, ("x",), (1, 1)),
     "weights/variables length mismatch"),
    (lambda: PolyRing(GF5, ("x", "y"), (1, 0)), "weights must be positive"),
    (lambda: PolyRing(GF5, ("x", "y"), (-1, 2)), "weights must be positive"),
    (lambda: PolyRing(GF5, ("x", "y", "x")), "duplicate variable name 'x'"),
])
def test_constructor_refusals_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_records_take_their_keyword_forms():
    """The records keep their positional order, keyword names and
    defaults; a resolution built without tracked runs gets a dict of its
    own."""
    A = PolyRing(GF101, ("x",))
    rd = RingData(A, [A.parse("x^2")])
    d1 = PolyMatrix.from_rows(A, [[A.parse("x")]]).columns_as_vectors()
    bases = {1: ModuleGB(A, 1, d1, track=True)}
    res = FreeResolution(rd, [d1], [[0], [1]], complete=True,
                         image_bases=bases)
    assert (res.ring_data, res.differentials, res.degrees, res.complete,
            res.image_bases) == (rd, [d1], [[0], [1]], True, bases)
    bare, other = (FreeResolution(rd, [d1], [[0], [1]], False)
                   for _ in range(2))
    assert bare.image_bases == {} and bare.image_bases is not \
        other.image_bases
    module = ModuleInput("coker", rows=[["x"]])
    assert (module.kind, module.rows, module.differentials, module.actions,
            module.degrees) == ("coker", [["x"]], None, None, None)
    S = PolyRing(GF101, ("chi1",))
    D = PolyMatrix.from_rows(S, [[S.zero()]])
    X = TwistedComplex(S, [(0, 0)], D)
    assert (X.S, X.basis_degrees, X.D, X.chi_internal, X.rank) \
        == (S, [(0, 0)], D, None, 1)
    assert TwistedComplex(S, [(0, 0)], D, chi_internal=(2,)).chi_internal \
        == (2,)


def test_no_zero_coefficients_stored():
    ring = PolyRing(GF5, ("x",))
    p = ring.parse("x + 4*x")
    assert p.is_zero() and p.terms == {}
    q = ring.parse("x^2 + x") - ring.parse("x")
    assert all(c for c in q.terms.values())
