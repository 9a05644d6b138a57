"""Exact coefficient fields: prime fields GF(p) and the rationals.

Scalars are stored as plain ``int`` (reduced representatives in [0, p) for
GF(p)) or ``fractions.Fraction`` for QQ.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(p) when ``p > 0``, the rationals when ``p == 0``.  A value: equal,
    with one hash, when ``p`` is."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("characteristic must be nonnegative")
        if p > 0:
            # the size check comes first: trial division of a huge
            # number would not finish
            if p >= 1 << 31:
                raise ValueError("prime must be < 2^31")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not Field:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def coerce(self, x):
        if self.p:
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, -1, self.p) if self.p else 1 / a

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


QQ = Field(0)


def GF(p: int) -> Field:
    if p == 0:  # Field(0) is the rationals
        raise ValueError("0 is not prime")
    return Field(p)
