"""The two planes and the map between them: transitions, curve images.

Two tangent planes touch the unit sphere at its poles, and each projects
onto the sphere from the opposite pole. The change of coordinates
between the planes is p -> 4p/|p|^2, an involution fixing the circle of
radius 2. The transition and the curve images are exact over the
rationals, and the transition and its Jacobian also map floats. The
projections onto the sphere, their inverses and their Jacobians are
checked in the tests (``tests/oracles.py``) but computed by no command.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm


class OriginSingularity(ValueError):
    """The transition map is undefined at the origin."""


class Chart(Enum):
    """Which tangent plane a point lives in."""

    N = "N"   # plane through the south pole, projected from N
    S = "S"   # plane through the north pole, projected from S


class AtInfinity:
    """Marker for the single infinitely remote point of a plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AtInfinity"

    def to_json_dict(self) -> dict:
        return {"kind": "at-infinity"}


AT_INFINITY = AtInfinity()


def _squared_norm(x, y):
    """x^2 + y^2, which must not vanish."""
    s = x * x + y * y
    if not s:
        raise OriginSingularity("the transition map is undefined at (0, 0)")
    return s


def transition(p: tuple) -> tuple:
    """Coordinate change between the two planes: p -> 4p/|p|^2.

    Both directions share this formula; it is an involution on the
    punctured plane and fixes the circle x^2 + y^2 = 4 pointwise.
    """
    x, y = p
    s = _squared_norm(x, y)
    return (4 * x / s, 4 * y / s)


def transition_jacobian(px, py) -> tuple[tuple, tuple]:
    """Jacobian matrix of the transition at a point other than the origin.

    Exact on Fractions; on floats it carries a velocity into the other
    chart by the chain rule. ``s * s``, not ``s ** 2``: a float ``**``
    goes through the C library's ``pow``, which rounds some squares
    differently from the correctly rounded product.
    """
    s = _squared_norm(px, py)
    s2 = s * s
    return ((4 * (py * py - px * px) / s2, -8 * px * py / s2),
            (-8 * px * py / s2, 4 * (px * px - py * py) / s2))


# -- curve descriptors -------------------------------------------------------


def _as_fraction_pair(p) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0]), Fraction(p[1]))


@dataclass(frozen=True)
class Circle:
    center: tuple
    radius2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", _as_fraction_pair(self.center))
        object.__setattr__(self, "radius2", Fraction(self.radius2))
        if self.radius2 <= 0:
            raise ValueError("radius squared must be positive")

    def to_json_dict(self) -> dict:
        return {"kind": "circle",
                "center": [str(self.center[0]), str(self.center[1])],
                "radius2": str(self.radius2)}


@dataclass(frozen=True)
class Line:
    """a*x + b*y + c = 0, stored in normalized integer form."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        a, b, c = Fraction(self.a), Fraction(self.b), Fraction(self.c)
        if a == 0 and b == 0:
            raise ValueError("a line needs a nonzero (a, b)")
        den = lcm(a.denominator, b.denominator, c.denominator)
        a, b, c = a * den, b * den, c * den
        g = gcd(int(a), int(b), int(c))
        a, b, c = a / g, b / g, c / g
        lead = a if a else b
        if lead < 0:
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def to_json_dict(self) -> dict:
        return {"kind": "line", "A": str(self.a), "B": str(self.b),
                "C": str(self.c)}


@dataclass(frozen=True)
class Point:
    at: tuple

    def __post_init__(self):
        object.__setattr__(self, "at", _as_fraction_pair(self.at))

    def to_json_dict(self) -> dict:
        return {"kind": "point",
                "point": [str(self.at[0]), str(self.at[1])]}


def coefficients(curve) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(A, B, C, D) with the circle or line A(x^2+y^2) + Bx + Cy + D = 0.

    A is 1 for a circle and 0 for a line.
    """
    if isinstance(curve, Circle):
        cx, cy = curve.center
        return (Fraction(1), -2 * cx, -2 * cy,
                cx * cx + cy * cy - curve.radius2)
    if isinstance(curve, Line):
        return (Fraction(0), curve.a, curve.b, curve.c)
    raise TypeError(f"not a circle or line: {curve!r}")


def map_curve(curve):
    """Exact image of a circle, line, or point under the transition map.

    The transition is an inversion, so it maps A(x^2+y^2) + Bx + Cy + D = 0
    to D(u^2+v^2) + 4Bu + 4Cv + 16A = 0: a line when D = 0 (the curve
    passes through the origin), a circle otherwise. A point maps to its
    image, and the origin and the infinitely remote point swap.
    """
    if isinstance(curve, Point):
        x, y = curve.at
        if x == 0 and y == 0:
            return AT_INFINITY
        return Point(transition(curve.at))
    if isinstance(curve, AtInfinity):
        return Point((Fraction(0), Fraction(0)))
    a, b, c, d = coefficients(curve)
    a, b, c, d = d, 4 * b, 4 * c, 16 * a
    if a == 0:
        return Line(b, c, d)
    return Circle((-b / (2 * a), -c / (2 * a)),
                  (b * b + c * c) / (4 * a * a) - d / a)
