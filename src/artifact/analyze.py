"""Chart origins, linear classification, the point at infinity, symmetries.

The point added at the far end of the plane is an equilibrium exactly
when the partner system vanishes at its own origin, and it inherits that
origin's type; classification works on the Jacobian alone and is stable
under positive time rescaling, so the reduced partner pair is the right
thing to classify. A chart origin is read from the constant and linear
coefficients; the equilibrium test and the Jacobian at any other
rational point are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conjugate import DiffSystem, conjugate
from .poly import integer_numerators

SYMMETRY_KINDS = ("origin", "axis-first", "axis-second", "diagonal",
                  "antidiagonal")


def classify_linear(jac) -> str:
    """Name the linear type of a 2x2 rational matrix.

    Scalar multiples of the identity are split out first (dicritical
    nodes sit on the trace^2 = 4 det boundary but have their own name);
    the rest follows the trace/determinant chart. A linear center is
    reported as "center-linear" because it does not certify a nonlinear
    center, and any singular matrix is "degenerate".
    """
    (a, b), (c, d) = jac
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    det = a * d - b * c
    trace = a + d
    if det == 0:
        return "degenerate"
    if det < 0:
        return "saddle"
    side = "stable" if trace < 0 else "unstable"
    if b == 0 and c == 0 and a == d:
        return f"{side} dicritical node"
    gap = trace * trace - 4 * det
    if gap > 0:
        return f"{side} node"
    if gap == 0:
        return f"{side} degenerate node"
    if trace == 0:
        return "center-linear"
    return f"{side} focus"


@dataclass(frozen=True)
class InfinityStatus:
    """Type of a chart origin: the other plane's infinitely remote point."""

    status: str                      # "regular" or "equilibrium"
    eq_class: str | None             # set when status == "equilibrium"
    linear_part: tuple               # Jacobian at a chart origin

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "class": self.eq_class,
            "conjugate_linear_part": [[str(v) for v in row]
                                      for row in self.linear_part],
        }


def origin_status(sys: DiffSystem) -> InfinityStatus:
    """Status of a system's chart origin: regular, or typed equilibrium.

    A system's origin is the other plane's infinitely remote point, so
    this is also the status of the far point of the partner plane. The
    equilibrium test and the Jacobian at (0, 0) are the constant and
    linear coefficients, read off without evaluating anything.
    """
    p, q = sys.rhs
    jac = ((p.coefficient(1, 0), p.coefficient(0, 1)),
           (q.coefficient(1, 0), q.coefficient(0, 1)))
    if p.coefficient(0, 0) or q.coefficient(0, 0):
        return InfinityStatus("regular", None, jac)
    return InfinityStatus("equilibrium", classify_linear(jac), jac)


def infinite_point_status(sys: DiffSystem) -> InfinityStatus:
    """Status of the infinitely remote point: regular, or typed equilibrium.

    Conjugates the system and looks at the partner's origin, whose type
    transfers verbatim to the far point.
    """
    return origin_status(conjugate(sys).conjugate)


def check_symmetry(sys: DiffSystem, kind: str) -> bool:
    """Test one of the five directional-field symmetries symbolically.

    Each symmetry of the field is equivalent to a polynomial identity,
    quadratic in the right sides, so it is formed exactly on their integer
    numerators D*P, D*Q and compared with the zero polynomial.
    """
    (p, q), _ = integer_numerators(*sys.rhs)
    if kind == "origin":
        ident = p * q.scale_vars(-1, -1) - p.scale_vars(-1, -1) * q
    elif kind == "axis-first":
        ident = p * q.scale_vars(1, -1) + p.scale_vars(1, -1) * q
    elif kind == "axis-second":
        ident = p * q.scale_vars(-1, 1) + p.scale_vars(-1, 1) * q
    elif kind == "diagonal":
        ident = p * p.swap_vars() - q * q.swap_vars()
    elif kind == "antidiagonal":
        ident = (p.scale_vars(-1, -1) * p.swap_vars()
                 - q.scale_vars(-1, -1) * q.swap_vars())
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}; "
                         f"expected one of {SYMMETRY_KINDS}")
    return ident.is_zero()


def symmetry_profile(sys: DiffSystem) -> dict[str, bool]:
    """All five symmetry checks at once."""
    return {kind: check_symmetry(sys, kind) for kind in SYMMETRY_KINDS}
