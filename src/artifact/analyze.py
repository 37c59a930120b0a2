"""Chart origins, linear classification, the point at infinity, symmetries.

The point added at the far end of the plane is an equilibrium exactly
when the partner system vanishes at its own origin, and it inherits that
origin's type; classification works on the Jacobian alone and is stable
under positive time rescaling, so the reduced partner pair is the right
thing to classify. A chart origin is read from the constant and linear
coefficients. For the far point those are the reduced partner's 1-jet,
which ``conjugate.partner_jet`` reads from the field's top homogeneous
parts without building the partner. The equilibrium test and the
Jacobian at any other rational point are test oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conjugate import DiffSystem, partner_jet
# no path here conjugates, but the benchmark's tracer wraps this name here
from .conjugate import conjugate  # noqa: F401
from .poly import integer_numerators

# each symmetry is a signed permutation of the axes, (swap, sx, sy):
# (x, y) -> (sx*y, sy*x) if swap else (sx*x, sy*y)
_SYMMETRIES = {"origin": (False, -1, -1), "axis-first": (False, 1, -1),
               "axis-second": (False, -1, 1), "diagonal": (True, 1, 1),
               "antidiagonal": (True, -1, -1)}
SYMMETRY_KINDS = tuple(_SYMMETRIES)


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
    return _chart_origin_status(
        (p.coefficient(0, 0), q.coefficient(0, 0)),
        ((p.coefficient(1, 0), p.coefficient(0, 1)),
         (q.coefficient(1, 0), q.coefficient(0, 1))))


def infinite_point_status(sys: DiffSystem) -> InfinityStatus:
    """Status of the infinitely remote point: regular, or typed equilibrium.

    The far point has the type of the partner's origin, classified from
    the partner's constant pair and Jacobian; ``partner_jet`` reads both
    from the top homogeneous parts of the field, with no conjugation.
    """
    _, const, jac = partner_jet(sys)
    return _chart_origin_status(const, jac)


def _chart_origin_status(const: tuple, jac: tuple) -> InfinityStatus:
    """A chart origin from the field's constant pair and its Jacobian
    there: regular unless both constants vanish."""
    if const[0] or const[1]:
        return InfinityStatus("regular", None, jac)
    return InfinityStatus("equilibrium", classify_linear(jac), jac)


def _holds(p, q, swap: bool, sx: int, sy: int) -> bool:
    """Whether F = (p, q) keeps its directions under the signed permutation
    L = (swap, sx, sy): whether F(Lz) x L F(z) vanishes. Times sy, one
    sign, sx*sy, is left."""
    pl, ql = p.scale_vars(sx, sy), q.scale_vars(sx, sy)
    if swap:
        pl, ql, p, q = pl.swap_vars(), ql.swap_vars(), q, p
    ident = pl * q - ql * p if sx == sy else pl * q + ql * p
    return ident.is_zero()


def symmetry_profile(sys: DiffSystem) -> dict[str, bool]:
    """Which of the five directional-field symmetries the system has.

    Each is one signed permutation L of the axes, tested by an identity
    quadratic in the integer numerators D*P, D*Q of the right sides. As
    |Lp| = |p|, L commutes with the transition, so the partner system
    has the same symmetries.
    """
    (p, q), _ = integer_numerators(*sys.rhs)
    return {kind: _holds(p, q, *perm) for kind, perm in _SYMMETRIES.items()}
