"""tracecoef: geometric-side coefficients of the rank-2 symplectic trace formula over Q.

Exact local symbols and class enumerations, high-precision partial
L-functions and their Laurent data, the Shintani zeta function for binary
quadratic forms, unipotent orbit bookkeeping, truncation-dependent weight
factors, and the coefficients of unipotent weighted orbital integrals for
GL(2), SL(2), GL(3), SL(3), GSp(2) and Sp(2).
"""

__version__ = "0.1.0"

from .arith import OO, PlaceSet, SquareClassRep, CubeClassRep, hilbert, kronecker
from .characters import QuadChar, CubicChar, quad_char_of, enum_quad_chars, enum_cubic_chars, chi_S
from .lfun import LaurentData, zetaS, LS, laurent_at_1, deriv_LS

__all__ = [
    "OO",
    "PlaceSet",
    "SquareClassRep",
    "CubeClassRep",
    "hilbert",
    "kronecker",
    "QuadChar",
    "CubicChar",
    "quad_char_of",
    "enum_quad_chars",
    "enum_cubic_chars",
    "chi_S",
    "LaurentData",
    "zetaS",
    "LS",
    "laurent_at_1",
    "deriv_LS",
]
