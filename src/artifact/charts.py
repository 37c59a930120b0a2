"""Sphere geometry: projections, chart maps, transitions, curve images.

Two tangent planes touch the unit sphere at its poles. Each plane
projects onto the sphere from the opposite pole, the two chart maps
invert those projections, and the change of coordinates between the
planes is p -> 4p/|p|^2, an involution fixing the circle of radius 2.
All of it is exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm


class PoleExcluded(ValueError):
    """The projection pole itself has no image in this chart."""


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


def stereo_project(chart: Chart, p: tuple) -> tuple:
    """Plane point -> sphere point, exact on rationals.

    The N chart sends (x, y) to (4x, 4y, s - 4)/(s + 4) with s = x^2 + y^2;
    the S chart flips the sign of the last coordinate.
    """
    x, y = p
    s = x * x + y * y
    d = s + 4
    if chart is Chart.N:
        return (4 * x / d, 4 * y / d, (s - 4) / d)
    return (4 * x / d, 4 * y / d, (4 - s) / d)


def chart_project(chart: Chart, sp: tuple) -> tuple:
    """Sphere point -> plane point; the projection pole is excluded."""
    xs, ys, zs = sp
    if chart is Chart.N:
        if zs >= 1:
            raise PoleExcluded("the north pole has no image in the N chart")
        w = 1 - zs
    else:
        if zs <= -1:
            raise PoleExcluded("the south pole has no image in the S chart")
        w = 1 + zs
    return (2 * xs / w, 2 * ys / w)


def _squared_norm(x, y):
    """x^2 + y^2, which must not vanish anywhere.

    Numbers test their truth and numpy arrays every element, so the
    formulas below map one point or many, element by element.
    """
    s = x * x + y * y
    if not (s.all() if hasattr(s, "all") else s):
        raise OriginSingularity("the transition map is undefined at (0, 0)")
    return s


def transition(p: tuple) -> tuple:
    """Coordinate change between the two planes: p -> 4p/|p|^2.

    Both directions share this formula; it is an involution on the
    punctured plane and fixes the circle x^2 + y^2 = 4 pointwise. ``p``
    may be a pair of numpy arrays, mapped point by point.
    """
    x, y = p
    s = _squared_norm(x, y)
    return (4 * x / s, 4 * y / s)


def transition_jacobian(px, py) -> tuple[tuple, tuple]:
    """Jacobian matrix of the transition at a point other than the origin.

    Exact on Fractions; on floats it carries a velocity into the other
    chart by the chain rule, and on numpy arrays it does so point by
    point with the same float operations. ``s * s``, not ``s ** 2``:
    a float ``**`` goes through the C library's ``pow``, which rounds
    some squares differently from the correctly rounded product numpy
    computes for an array.
    """
    s = _squared_norm(px, py)
    s2 = s * s
    return ((4 * (py * py - px * px) / s2, -8 * px * py / s2),
            (-8 * px * py / s2, 4 * (px * px - py * py) / s2))


def extended_transition(p: tuple):
    """Transition on the extended plane: origin and infinity swap."""
    if isinstance(p, AtInfinity):
        return (Fraction(0), Fraction(0))
    x, y = p
    if not (x * x + y * y):
        return AT_INFINITY
    return transition(p)


def psi_jacobians(p: tuple) -> tuple:
    """The three projection Jacobians at a plane point.

    Returns (D(x*,y*)/D(x,y), D(x*,z*)/D(x,y), D(y*,z*)/D(x,y)); they
    never vanish simultaneously, which is what makes the projection an
    immersion of the whole plane.
    """
    x, y = p
    s = x * x + y * y
    d3 = (s + 4) ** 3
    return (-16 * (s - 4) / d3, 64 * y / d3, -64 * x / d3)


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

    def contains(self, p: tuple) -> bool:
        x, y = Fraction(p[0]), Fraction(p[1])
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 == self.radius2

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

    def contains(self, p: tuple) -> bool:
        x, y = Fraction(p[0]), Fraction(p[1])
        return self.a * x + self.b * y + self.c == 0

    def to_json_dict(self) -> dict:
        return {"kind": "line", "A": str(self.a), "B": str(self.b),
                "C": str(self.c)}


@dataclass(frozen=True)
class Point:
    at: tuple

    def __post_init__(self):
        object.__setattr__(self, "at", _as_fraction_pair(self.at))

    def contains(self, p: tuple) -> bool:
        return _as_fraction_pair(p) == self.at

    def to_json_dict(self) -> dict:
        return {"kind": "point",
                "point": [str(self.at[0]), str(self.at[1])]}


def curve_from_json(data: dict):
    kind = data.get("kind")
    if kind == "circle":
        return Circle((Fraction(data["center"][0]), Fraction(data["center"][1])),
                      Fraction(data["radius2"]))
    if kind == "line":
        return Line(Fraction(data["A"]), Fraction(data["B"]),
                    Fraction(data["C"]))
    if kind == "point":
        return Point((Fraction(data["point"][0]), Fraction(data["point"][1])))
    if kind == "at-infinity":
        return AT_INFINITY
    raise ValueError(f"unknown curve kind {kind!r}")


def map_curve(curve):
    """Exact image of a circle, line, or point under the transition map.

    Case analysis:
      circle through the origin        -> line missing the origin
      circle elsewhere                 -> circle (origin-centered ones stay
                                          origin-centered, radius 4/old)
      point                            -> point (origin goes to infinity)
      line through the origin          -> the same line
      line missing the origin          -> circle through the origin
    """
    if isinstance(curve, Point):
        x, y = curve.at
        if x == 0 and y == 0:
            return AT_INFINITY
        return Point(transition(curve.at))
    if isinstance(curve, AtInfinity):
        return Point((Fraction(0), Fraction(0)))
    if isinstance(curve, Line):
        if curve.c == 0:
            return curve
        scale = Fraction(-2, 1) / curve.c
        return Circle((scale * curve.a, scale * curve.b),
                      4 * (curve.a ** 2 + curve.b ** 2) / curve.c ** 2)
    if isinstance(curve, Circle):
        cx, cy = curve.center
        through = cx * cx + cy * cy - curve.radius2
        if through == 0:
            # passes through the origin; image is a straight line
            return Line(-cx, -cy, Fraction(2))
        return Circle((4 * cx / through, 4 * cy / through),
                      16 * curve.radius2 / through ** 2)
    raise TypeError(f"not a curve descriptor: {curve!r}")
