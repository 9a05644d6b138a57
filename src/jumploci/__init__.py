"""Cohomological jump loci for modules over complete-intersection quotients.

Exact-arithmetic toolkit: minimal free resolutions, higher homotopies,
twisted cohomology-operator complexes, jump locus ideals, complexity,
Betti degree and Bass degree, with a small session-file CLI.
"""

from .field import Field, GF, QQ
from .poly import PolyRing, Polynomial
from .matrix import PolyMatrix

__all__ = [
    "Field", "GF", "QQ",
    "PolyRing", "Polynomial",
    "PolyMatrix",
]

__version__ = "0.1.0"
