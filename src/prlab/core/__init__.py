"""Shared exact-arithmetic value types: polynomials, matrices, colorings, sets."""

from .coloring import Coloring, arithmetic_runs
from .matrix import IntMatrix, parse_matrix
from .poly import (
    ParseError,
    Poly,
    PolyProps,
    linear_coefficients,
    parse_poly,
    poly_props,
)
from .sets import FiniteSet, PeriodicSet, parse_finite, parse_periodic

__all__ = [
    "Coloring",
    "FiniteSet",
    "IntMatrix",
    "ParseError",
    "PeriodicSet",
    "Poly",
    "PolyProps",
    "arithmetic_runs",
    "linear_coefficients",
    "parse_finite",
    "parse_matrix",
    "parse_periodic",
    "parse_poly",
    "poly_props",
]
