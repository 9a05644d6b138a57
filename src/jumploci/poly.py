"""Multivariate polynomials with exact coefficients and weighted grading.

A :class:`PolyRing` fixes the coefficient field, the variable names and
positive integer weights.  Polynomials are sparse maps from exponent tuples
to nonzero field elements.  The term order used throughout is weighted
graded reverse lexicographic.
"""

from __future__ import annotations

import re
from operator import add, mul

from .field import Field

Monomial = tuple  # exponent tuple, one entry per ring variable


class PolyRing:
    """A value: equal, with one hash and one repr, when the field, the
    variables and the weights are; the key caches take no part."""

    __slots__ = ("field", "variables", "weights", "_keys", "_desc_keys",
                 "_unit_weights")

    def __init__(self, field: Field, variables: tuple, weights: tuple = ()):
        if not weights:
            weights = (1,) * len(variables)
        if len(weights) != len(variables):
            raise ValueError("weights/variables length mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        for i, name in enumerate(variables):
            if name in variables[:i]:
                raise ValueError(f"duplicate variable name '{name}'")
        self.field = field
        self.variables = variables
        self.weights = weights
        # monomial -> mono_key / mono_key_desc, filled on first use
        self._keys = {}
        self._desc_keys = {}
        self._unit_weights = all(w == 1 for w in weights)

    def __eq__(self, other):
        if other.__class__ is not PolyRing:
            return NotImplemented
        return self is other or (
            (self.field, self.variables, self.weights)
            == (other.field, other.variables, other.weights))

    def __hash__(self):
        return hash((self.field, self.variables, self.weights))

    def __repr__(self):
        return (f"PolyRing(field={self.field!r}, "
                f"variables={self.variables!r}, weights={self.weights!r})")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def gen(self, i: int) -> "Polynomial":
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial(self, {tuple(exp): self.field.one()})

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, exps, c=1) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    def wdeg(self, mono: Monomial) -> int:
        if self._unit_weights:
            return sum(mono)
        return sum(map(mul, mono, self.weights))

    def mono_key(self, mono: Monomial):
        """Sort key realizing weighted grevlex (larger key = larger monomial)."""
        key = self._keys.get(mono)
        if key is None:
            key = self._keys[mono] = (self.wdeg(mono),
                                      tuple(-e for e in reversed(mono)))
        return key

    def mono_key_desc(self, mono: Monomial):
        """``mono_key`` with every entry negated: ascending order of this key
        is descending term order, for min-heaps of terms."""
        key = self._desc_keys.get(mono)
        if key is None:
            key = self._desc_keys[mono] = (-self.wdeg(mono),
                                           tuple(reversed(mono)))
        return key

    def extend(self, extra_var: str) -> "PolyRing":
        """Ring with one auxiliary variable of weight 1 appended
        (radical-membership trick)."""
        return PolyRing(self.field, self.variables + (extra_var,),
                        self.weights + (1,))

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponent tuple to coefficient."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        z = (0,) * self.ring.nvars
        return all(m == z for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

    def is_homogeneous(self) -> bool:
        degs = {self.ring.wdeg(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.wdeg(m) for m in self.terms)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("mismatched ring tags")

    def __add__(self, other):
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, 0) or fld.zero(), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return Polynomial(self.ring,
                          product_terms(self.ring.field, self.terms,
                                        other.terms))

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if not c:
            return self.ring.zero()
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.mul(v, c) for m, v in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    # -- leading data ---------------------------------------------------

    def lead_monomial(self) -> Monomial:
        return max(self.terms, key=self.ring.mono_key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    # -- substitution ---------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a tuple of field scalars."""
        if len(point) != self.ring.nvars:
            raise ValueError("point arity mismatch")
        fld = self.ring.field
        point = [fld.coerce(a) for a in point]
        total = fld.zero()
        for m, c in self.terms.items():
            v = c
            for e, a in zip(m, point):
                for _ in range(e):
                    v = fld.mul(v, a)
            total = fld.add(total, v)
        return total

    def map_ring(self, ring: PolyRing) -> "Polynomial":
        """The polynomial in ``ring``, which appends variables to its own
        ring over the same field (``PolyRing.extend``): each exponent is
        padded with zeros."""
        pad = (0,) * (ring.nvars - self.ring.nvars)
        return Polynomial(ring, {m + pad: c for m, c in self.terms.items()})

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- printing -------------------------------------------------------

    def __str__(self):
        """The terms from the leading one down, each its sign, its
        coefficient unless it is 1 and the term has a factor, and its
        factors, joined by ``*``; over QQ the sign prints apart from the
        magnitude."""
        if not self.terms:
            return "0"
        signed = not self.ring.field.p
        parts = []
        for m in sorted(self.terms, key=self.ring.mono_key, reverse=True):
            c = self.terms[m]
            neg = signed and c < 0
            mag = -c if neg else c
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(self.ring.variables, m) if e]
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
            parts.append(sign + "*".join(factors))
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring.field}[{','.join(self.ring.variables)}]>"


# Largest exponent the parser accepts; larger ones are input errors.
MAX_EXPONENT = 1000
# Deepest nesting of parentheses the parser accepts.  Each level costs the
# recursive descent three frames, so a deeper one is an input error rather
# than a RecursionError.
MAX_NESTING = 100
# Most term products (pairs of terms multiplied, a few microseconds each)
# the parser spends expanding one polynomial; a power of a sum such as
# (x + y + z + w)^28 needs more and is an input error.
MAX_PARSE_WORK = 250_000

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9']*|\^|\*|\+|-|\(|\))")


def product_terms(fld, a, b):
    """The terms of the product of two term dicts, zero sums dropped."""
    if len(a) == 1 and len(b) == 1:  # one term each: nothing to sum
        (m1, c1), = a.items()
        (m2, c2), = b.items()
        return {tuple(map(add, m1, m2)): fld.mul(c1, c2)}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = fld.add(out.get(m, fld.zero()), fld.mul(c1, c2))
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse ``x^3 - 2*x*y^2`` style syntax into a polynomial of ``ring``."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character in polynomial at column {pos + 1}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel
    idx = [0]

    def peek():
        return tokens[idx[0]]

    def take():
        t = tokens[idx[0]]
        idx[0] += 1
        return t

    var_index = {name: i for i, name in enumerate(ring.variables)}
    work = [0]
    depth = [0]

    def mul(a: Polynomial, b: Polynomial) -> Polynomial:
        work[0] += len(a.terms) * len(b.terms)
        if work[0] > MAX_PARSE_WORK:
            raise ValueError(f"expanding the polynomial takes more than "
                             f"{MAX_PARSE_WORK} term products")
        return a * b

    def power(base: Polynomial, n: int) -> Polynomial:
        out = ring.one()
        while n > 0:
            if n & 1:
                out = mul(out, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return out

    def parse_atom() -> Polynomial:
        t = take()
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t == "(":
            depth[0] += 1
            if depth[0] > MAX_NESTING:
                raise ValueError(f"parentheses nest deeper than the limit "
                                 f"{MAX_NESTING}")
            e = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            depth[0] -= 1
            base = e
        elif "/" in t:  # the one token with a slash is a fraction
            if ring.field.p:
                raise ValueError("fractional coefficient over a prime field")
            num, den = t.split("/")
            if not int(den):
                raise ValueError(f"zero denominator in {t!r}")
            base = ring.const(ring.field.coerce(int(num)) / int(den))
        elif t.isdigit():
            base = ring.const(int(t))
        elif t in var_index:
            base = ring.gen(var_index[t])
        else:
            raise ValueError(f"unknown variable {t!r}")
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            if int(e) > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {e} exceeds the limit {MAX_EXPONENT}")
            base = power(base, int(e))
        return base

    def parse_product() -> Polynomial:
        p = parse_atom()
        while peek() == "*":
            take()
            p = mul(p, parse_atom())
        return p

    def parse_sum() -> Polynomial:
        p = None
        while p is None or peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            q = parse_product().scale(sign)
            p = q if p is None else p + q
        return p

    out = parse_sum()
    if peek() is not None:
        raise ValueError(f"trailing tokens in polynomial: {peek()!r}")
    return out

