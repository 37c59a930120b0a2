"""Planar polynomial systems, their disk-swapping partner systems, and a
two-disk atlas of trajectories."""

from .poly import (
    BiPoly,
    BothZero,
    NotDivisible,
    circle_valuation,
    divide_exact_by_circle,
    is_coprime,
)
from .charts import OriginSingularity
from .conjugate import (
    ConjugationResult,
    DiffSystem,
    ZeroField,
    pushforward_residual,
    raw_conjugate,
)
from .parse import (
    ParseError,
    parse_polynomial,
    parse_system,
    system_from_json,
    system_from_text,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BothZero",
    "ConjugationResult",
    "DiffSystem",
    "NotDivisible",
    "OriginSingularity",
    "ParseError",
    "ZeroField",
    "circle_valuation",
    "divide_exact_by_circle",
    "is_coprime",
    "parse_polynomial",
    "parse_system",
    "pushforward_residual",
    "raw_conjugate",
    "system_from_json",
    "system_from_text",
]
