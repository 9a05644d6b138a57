"""Multivariate polynomials with exact coefficients and weighted grading.

A :class:`PolyRing` fixes the coefficient field, the variable names and
positive integer weights.  Polynomials are sparse maps from exponent tuples
to nonzero field elements.  The term order used throughout is weighted
graded reverse lexicographic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as _field
from operator import add, mul, sub

from .field import Field

Monomial = tuple  # exponent tuple, one entry per ring variable


def _cache():
    """A per-ring memo that takes no part in equality, hashing or repr."""
    return _field(default_factory=dict, init=False, compare=False,
                  hash=False, repr=False)


@dataclass(frozen=True)
class PolyRing:
    field: Field
    variables: tuple
    weights: tuple = ()
    # monomial -> mono_key / mono_key_desc, filled on first use
    _keys: dict = _cache()
    _desc_keys: dict = _cache()
    _unit_weights: bool = _field(default=False, init=False, compare=False,
                                 hash=False, repr=False)

    def __post_init__(self):
        if not self.weights:
            object.__setattr__(self, "weights", (1,) * len(self.variables))
        if len(self.weights) != len(self.variables):
            raise ValueError("weights/variables length mismatch")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "_unit_weights",
                           all(w == 1 for w in self.weights))
        for i, name in enumerate(self.variables):
            if name in self.variables[:i]:
                raise ValueError(f"duplicate variable name '{name}'")

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

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

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

    def extend(self, extra_var: str, weight: int = 1) -> "PolyRing":
        """Ring with one auxiliary variable appended (radical-membership trick)."""
        return PolyRing(self.field, self.variables + (extra_var,),
                        self.weights + (weight,))

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponent tuple to coefficient."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _make(ring, terms):
        return Polynomial(ring, {m: c for m, c in terms.items() if c})

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
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        fld = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = fld.add(out.get(m, fld.zero()), fld.mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if not c:
            return self.ring.zero()
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, n: int):
        out = self.ring.one()
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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

    def map_ring(self, ring: PolyRing, var_map=None) -> "Polynomial":
        """Reinterpret in ``ring``; ``var_map[i]`` = index of old variable i."""
        if var_map is None:
            var_map = list(range(self.ring.nvars))
        out = {}
        fld = ring.field
        for m, c in self.terms.items():
            exp = [0] * ring.nvars
            for i, e in enumerate(m):
                if e:
                    exp[var_map[i]] += e
            out[tuple(exp)] = fld.coerce(c)
        return Polynomial._make(ring, out)

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self/divisor, assuming the division is exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        fld = self.ring.field
        rem = dict(self.terms)
        out = {}
        dlm = divisor.lead_monomial()
        dlc = divisor.lead_coeff()
        key = self.ring.mono_key
        while rem:
            lm = max(rem, key=key)
            quot = tuple(map(sub, lm, dlm))
            if any(e < 0 for e in quot):
                raise ArithmeticError("division is not exact")
            qc = fld.div(rem[lm], dlc)
            out[quot] = qc
            for m, c in divisor.terms.items():
                mm = tuple(map(add, quot, m))
                s = fld.sub(rem.get(mm, fld.zero()), fld.mul(qc, c))
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Polynomial(self.ring, out)

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
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m in sorted(self.terms, key=self.ring.mono_key, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(c) if not self.ring.field.p else c)
            else:
                cc = c
                mag = abs(cc) if not self.ring.field.p else cc
                if mag == 1:
                    body = "*".join(factors)
                else:
                    body = str(mag) + "*" + "*".join(factors)
            neg = (not self.ring.field.p) and c < 0
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring.field}[{','.join(self.ring.variables)}]>"


# Largest exponent the parser accepts; larger ones are input errors.
MAX_EXPONENT = 1000
# Most term products (pairs of terms multiplied, a few microseconds each)
# the parser spends expanding one polynomial; a power of a sum such as
# (x + y + z + w)^28 needs more and is an input error.
MAX_PARSE_WORK = 250_000

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9']*|\^|\*|\+|-|\(|\))")


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
            e = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            base = e
        elif re.fullmatch(r"\d+/\d+", t):
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
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        p = parse_product().scale(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            p = p + parse_product().scale(sign)
        return p

    out = parse_sum()
    if peek() is not None:
        raise ValueError(f"trailing tokens in polynomial: {peek()!r}")
    return out

