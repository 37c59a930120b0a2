"""The paper's identities that the program checks but never computes.

The commands compute the partner system, the infinitely remote point,
the symmetries and the atlas. The paper states more: the divisibility
of the top form W_n, the level-r reduction quotients K_r and Q_r with
the closed-form rebuild of the reduced pair, the stereographic
projections with their inverses and Jacobians, the transition on the
extended plane, and the equilibria and Jacobians at any rational point.
No command needs these, so they live here, where the tests check them
against what the library computes. Nothing here shares the library's
transport: the rebuild runs on the Fraction form of it below, and the
transport as it ran on BiPoly ring operations, before it moved to plain
term dicts, is kept beside it. The removed circle power k has two
forms here that share nothing with the library's top-parts walk: a loop
of divisions by the circle for one polynomial's power, and a closed
formula for k from the roots +-i of the field's complex parts. The
published variants of four partner pairs that fail those identities,
recorded in the corpus data beside the expected pairs, load here too.

The library states two facts about the transition by one rule each: curve
images by the inversion rule on (A, B, C, D), the five symmetries by one
signed-permutation identity. Their case-by-case forms (each curve type,
each symmetry's own identity) are kept here, to check the rules against.

The float side keeps the whole Dormand-Prince tableau, of which the
integrator holds only the nonzero weights, and the plain forms of three
hot loops whose library versions do less interpreter work for the same
answer: the integrator with its step as a function, the closure test on
every segment and the scan for the atlas arrow. It also keeps the
conjugacy residual on whole numpy arrays, which the library's
plain-float residual must equal, and the atlas document as one JSON
dict, whose text the library's streamed JSON must equal.

The parser is kept as it was before it carried monomials as tuples:
every value a BiPoly, every product a BiPoly product. The library's
parser must give the same terms, errors and work count.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from itertools import accumulate, chain

import numpy as np

from artifact import parse
from artifact.charts import (
    AT_INFINITY,
    AtInfinity,
    Chart,
    Circle,
    Line,
    Point,
    transition,
)
from artifact.conjugate import DiffSystem, partner_vars
from artifact.corpus import _substitute
from artifact.dynamics import (
    _A21,
    _A31,
    _A32,
    _A41,
    _A42,
    _A43,
    _A51,
    _A52,
    _A53,
    _A54,
    _A61,
    _A62,
    _A63,
    _A64,
    _A65,
    _B1,
    _B3,
    _B4,
    _B5,
    _B6,
    _E1,
    _E3,
    _E4,
    _E5,
    _E6,
    _E7,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    MAX_TRIAL_STEPS,
    IntegratorConfig,
    Trajectory,
    _field,
    _finite,
    integrate,
)
from artifact.parse import (
    FRACTION_WEIGHT,
    MAX_NESTING,
    NegativeExponent,
    NonIntegerExponent,
    ParseError,
    _check_degree,
    _number,
    _tokenize,
    parse_polynomial,
)
from artifact.poly import (
    BiPoly,
    NotDivisible,
    divide_exact_by_circle,
    divmod_circle,
    integer_numerators,
    power,
)



def variable(name: str, vars: tuple[str, str]) -> BiPoly:
    """The polynomial ``name`` in the variables ``vars``."""
    if name == vars[0]:
        return BiPoly(vars, {(1, 0): Fraction(1)})
    if name == vars[1]:
        return BiPoly(vars, {(0, 1): Fraction(1)})
    raise ValueError(f"{name!r} is not one of the variables {vars}")


def transcribed_variants() -> dict:
    """The corpus's published variants of a partner pair, by case name:
    ((U, V), note), parsed as ``load_cases`` parses the expected pair."""
    raw = resources.files("artifact").joinpath("data/oracle_cases.json")
    variants = {}
    for entry in json.loads(raw.read_text(encoding="utf-8"))["cases"]:
        if "transcribed" in entry:
            subs, cvars = entry.get("subs", {}), tuple(entry["conjugate_vars"])
            pair = tuple(
                parse_polynomial(_substitute(entry["transcribed"][side], subs),
                                 cvars) for side in ("U", "V"))
            variants[entry["name"]] = (pair, entry.get("note"))
    return variants


# -- the partner pair and its reduction --------------------------------------


def homogeneous_components(p: BiPoly) -> list[tuple[int, BiPoly]]:
    """Split into homogeneous pieces, degrees strictly increasing; each
    piece keeps its terms in the order of p."""
    by_degree: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, j), c in p.terms.items():
        by_degree.setdefault(i + j, {})[(i, j)] = c
    return [(d, BiPoly._trusted(p.vars, t))
            for d, t in sorted(by_degree.items())]


def bipoly_transported_pair(sys: DiffSystem, out: tuple[str, str]
                            ) -> tuple[BiPoly, BiPoly, int]:
    """The library's ``_transported_pair`` as it ran on BiPoly ring
    operations, every stage a polynomial: the same integer numerators,
    parts, circle powers and products, so the same terms in the same
    order and the same scale 4D."""
    s = BiPoly._trusted(out, {(2, 0): 1, (0, 2): 1})    # u^2 + v^2
    a = BiPoly._trusted(out, {(0, 2): 1, (2, 0): -1})   # 4a = v^2 - u^2
    b = BiPoly._trusted(out, {(1, 1): 2})               # 4b = 2uv
    n = sys.degree
    sides, d = integer_numerators(*sys.rhs)
    powers = {}
    sums = []
    for side in sides:
        total = {}
        for j, part in homogeneous_components(side.with_vars(out)):
            part = part.scale_vars(4, 4)   # part homogeneous: times 4^j
            if j < n:
                if n - j not in powers:
                    powers[n - j] = power(s, n - j, BiPoly.__mul__)
                part = powers[n - j] * part
            total.update(part.terms)
        sums.append(BiPoly._trusted(out, total))
    sum_x, sum_y = sums
    return a * sum_x - b * sum_y, -(b * sum_x) + (-a) * sum_y, 4 * d


def fraction_transported_pair(sys: DiffSystem, out: tuple[str, str],
                              top: int) -> tuple[BiPoly, BiPoly]:
    """The field's parts of degree <= top carried into the other chart,
    on Fractions throughout: (a * S_X - b * S_Y, -b * S_X - a * S_Y) with
    a = (v^2-u^2)/4, b = uv/2 and S_X, S_Y the sums of the parts of P and
    Q as (u^2+v^2)^(top-j) * part_j(4u, 4v). This is the transport as it
    ran before the library moved to integer numerators; term order
    included, the library's partner must match it."""
    s = BiPoly(out, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    sums = [BiPoly(out), BiPoly(out)]
    parts = [dict(homogeneous_components(p)) for p in sys.rhs]
    for j in range(top + 1):
        for side in (0, 1):
            part = parts[side].get(j)
            if part is None:
                continue
            part = part.scale_vars(4, 4).with_vars(out)
            if j < top:
                part = power(s, top - j, BiPoly.__mul__) * part
            sums[side] = sums[side] + part
    sum_x, sum_y = sums
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    a = BiPoly(out, {(0, 2): quarter, (2, 0): -quarter})   # (v^2 - u^2)/4
    b = BiPoly(out, {(1, 1): half})                        # uv/2
    return a * sum_x - b * sum_y, -(b * sum_x) + (-a) * sum_y


def wn_divisibility(sys: DiffSystem) -> tuple[bool, BiPoly]:
    """Whether the top form x*Q_n - y*P_n is a circle multiple.

    Returns (True, quotient) when it is (the quotient may be zero), and
    (False, remainder) otherwise.
    """
    n = sys.degree
    x, y = (variable(name, sys.vars) for name in sys.vars)
    zero = BiPoly(sys.vars)
    px, py = (dict(homogeneous_components(p)) for p in sys.rhs)
    w = x * py.get(n, zero) - y * px.get(n, zero)
    quot, rem = divmod_circle(w)
    if not rem.is_zero():
        return False, rem
    return True, quot


def divide_by_circle(u: BiPoly, v: BiPoly, k: int) -> tuple[BiPoly, BiPoly]:
    """Both sides divided exactly by (first**2 + second**2)**k."""
    for _ in range(k):
        u = divide_exact_by_circle(u)
        v = divide_exact_by_circle(v)
    return u, v


def loop_circle_valuation(p: BiPoly):
    """``circle_valuation`` as a plain loop of divisions by the circle,
    with no early exit; math.inf for the zero polynomial."""
    if not p.terms:
        return math.inf
    k = 0
    while True:
        q, r = divmod_circle(p)
        if r.terms:
            return k
        k += 1
        p = q


# The removed circle power as a formula. Write F = P + iQ and z = u + iv,
# and let Fb_j = P_j - iQ_j be the degree-j parts with Q negated. The
# transport computes U + iV = -(z^2/4) * sum_j (z zb)^(n-j) * 4^j *
# Fb_j(u, v). The parts have distinct degrees 2n - j, so none cancel, and
# u^2 + v^2 = z zb divides U and V exactly k times, where
#     k = min(2 + min_j(n - j + mu_-(j)), min_j(n - j + mu_+(j)))
# and mu_+-(j) is the multiplicity of t = +-i as a root of
# P_j(t, 1) - i*Q_j(t, 1), over the nonzero parts: z, a factor of u + iv,
# vanishes at u/v = -i, and zb at u/v = +i. (The complex form dz/dt =
# F(z, zb) of a planar field, under which the transition is w = 4/zb;
# F. Dumortier, J. Llibre & J. C. Artes, Qualitative Theory of Planar
# Differential Systems, Springer, 2006.)


def _root_multiplicity(coeffs: list, sign: int) -> int:
    """Multiplicity of t = sign*i as a root of sum_a coeffs[a] * t^a, the
    coefficients Gaussian rationals as (re, im) pairs, not all zero."""
    mult = 0
    while True:
        # Horner from the top: the partial sums are the coefficients of
        # the quotient by t - sign*i, the last one the value at sign*i
        quotient, (re, im) = [], (0, 0)
        for c_re, c_im in reversed(coeffs):
            re, im = c_re - sign * im, c_im + sign * re
            quotient.append((re, im))
        if re or im:
            return mult
        coeffs = quotient[-2::-1]
        mult += 1


def circle_power_formula(sys: DiffSystem) -> int:
    """The circle power k that ``conjugate`` removes, by the formula
    above, from the field's parts alone."""
    n = sys.degree
    parts: dict[int, list] = {}
    for side, p in enumerate(sys.rhs):
        for (a, b), c in p.terms.items():
            if a + b not in parts:
                parts[a + b] = [[0, 0] for _ in range(a + b + 1)]
            parts[a + b][a][side] = -c if side else c
    minus = min(n - j + _root_multiplicity(c, -1) for j, c in parts.items())
    plus = min(n - j + _root_multiplicity(c, 1) for j, c in parts.items())
    return min(2 + minus, plus)


def reduction_quotients(sys: DiffSystem, k: int
                        ) -> tuple[list[BiPoly], list[BiPoly]]:
    """Exact quotients K_r, Q_r (r = 1..k) of the level-r reduction identities.

    For each r, with F = rhs part of degree n-r+1 and w = x*F_y - y*F_x:
    -2y*w - (x^2+y^2)*F_x = (x^2+y^2)^(k-r+1) * K_r and
    +2x*w - (x^2+y^2)*F_y = (x^2+y^2)^(k-r+1) * Q_r. Raises NotDivisible
    (with the failing level r attached) when either identity has no
    polynomial solution, meaning the closed rebuild form does not apply
    at this k.
    """
    n = sys.degree
    if k < 1 or 2 * k > n + 2:
        raise ValueError(f"need 1 <= k with 2k <= n + 2, got k={k}, n={n}")
    x, y = (variable(name, sys.vars) for name in sys.vars)
    s = x * x + y * y
    zero = BiPoly(sys.vars)
    two = BiPoly(sys.vars, {(0, 0): 2})
    px, py = (dict(homogeneous_components(p)) for p in sys.rhs)
    ks, qs = [], []
    for r in range(1, k + 1):
        d = n - r + 1
        fx, fy = px.get(d, zero), py.get(d, zero)
        w = x * fy - y * fx
        lhs_k = -two * (y * w) - s * fx
        lhs_q = two * (x * w) - s * fy
        try:
            kr, qr = divide_by_circle(lhs_k, lhs_q, k - r + 1)
        except NotDivisible as exc:
            err = NotDivisible(
                f"reduction identity fails at level r={r}: {exc}")
            err.r = r
            raise err from None
        ks.append(kr)
        qs.append(qr)
    return ks, qs


def rebuild_from_quotients(sys: DiffSystem, k: int,
                           out_vars: tuple[str, str] | None = None
                           ) -> tuple[BiPoly, BiPoly]:
    """Closed-form reduced pair built from the K_r/Q_r quotients.

    Must agree exactly with conjugate(sys) whenever k is the true shared
    circle power. The correction term for level r carries the scalar
    4^(2k-2r-1), which is 1/4 at r = k.
    """
    ks, qs = reduction_quotients(sys, k)
    out = partner_vars(sys.vars, out_vars)
    u, v = fraction_transported_pair(sys, out, sys.degree - k)
    for r in range(1, k + 1):
        scalar = BiPoly(out, {(0, 0): Fraction(4) ** (2 * k - 2 * r - 1)})
        u = u + scalar * ks[r - 1].scale_vars(4, 4).with_vars(out)
        v = v + scalar * qs[r - 1].scale_vars(4, 4).with_vars(out)
    return u, v


# -- points of the field ------------------------------------------------------


def partial(p: BiPoly, axis: int) -> BiPoly:
    """Partial derivative along variable 0 (first) or 1 (second)."""
    out = {}
    for (i, j), c in p.terms.items():
        if axis == 0 and i:
            out[(i - 1, j)] = c * i
        elif axis == 1 and j:
            out[(i, j - 1)] = c * j
    return BiPoly(p.vars, out)


def is_equilibrium(sys: DiffSystem, point: tuple) -> bool:
    """True when both right sides vanish exactly at the point."""
    x, y = Fraction(point[0]), Fraction(point[1])
    return sys.rhs[0].evaluate(x, y) == 0 and sys.rhs[1].evaluate(x, y) == 0


def jacobian_at(sys: DiffSystem, point: tuple
                ) -> tuple[tuple[Fraction, Fraction],
                           tuple[Fraction, Fraction]]:
    """Exact Jacobian of the field at a rational point."""
    x, y = Fraction(point[0]), Fraction(point[1])
    p, q = sys.rhs
    return ((partial(p, 0).evaluate(x, y), partial(p, 1).evaluate(x, y)),
            (partial(q, 0).evaluate(x, y), partial(q, 1).evaluate(x, y)))


# -- the symmetries, one written identity each --------------------------------


def symmetry_by_identity(sys: DiffSystem, kind: str) -> bool:
    """One of the five directional-field symmetries, by its own polynomial
    identity on the integer numerators D*P, D*Q."""
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
        raise ValueError(f"unknown symmetry kind {kind!r}")
    return ident.is_zero()


# -- the sphere ---------------------------------------------------------------


class PoleExcluded(ValueError):
    """The projection pole itself has no image in this chart."""


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


def extended_transition(p: tuple):
    """Transition on the extended plane: origin and infinity swap."""
    if isinstance(p, AtInfinity):
        return (Fraction(0), Fraction(0))
    x, y = p
    if not (x * x + y * y):
        return AT_INFINITY
    return transition(p)


# -- curves, case by case -----------------------------------------------------


def curve_from_json(data: dict):
    """The curve descriptor a ``to_json_dict`` wrote."""
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


def on_curve(curve, p: tuple) -> bool:
    """Whether the rational point p lies on the circle, line or point."""
    x, y = Fraction(p[0]), Fraction(p[1])
    if isinstance(curve, Circle):
        cx, cy = curve.center
        return (x - cx) ** 2 + (y - cy) ** 2 == curve.radius2
    if isinstance(curve, Line):
        return curve.a * x + curve.b * y + curve.c == 0
    return (x, y) == curve.at


def map_curve_by_cases(curve):
    """Image of a circle, line or point under the transition, by cases:
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
    cx, cy = curve.center
    through = cx * cx + cy * cy - curve.radius2
    if through == 0:
        # passes through the origin; image is a straight line
        return Line(-cx, -cy, Fraction(2))
    return Circle((4 * cx / through, 4 * cy / through),
                  16 * curve.radius2 / through ** 2)


def curve_text_by_cases(curve) -> str:
    """The text ``artifact map-curve`` prints for a curve, by cases:
    (u - cx)^2 + (v - cy)^2 - r^2 = 0 for a circle, a*u + b*v + c = 0 for
    a line."""
    if curve is AT_INFINITY:
        return "the infinitely remote point"
    if isinstance(curve, Line):
        lhs = {(1, 0): curve.a, (0, 1): curve.b, (0, 0): curve.c}
        return BiPoly(("u", "v"), lhs).to_text() + " = 0"
    if isinstance(curve, Circle):
        cx, cy = curve.center
        lhs = {(2, 0): 1, (0, 2): 1, (1, 0): -2 * cx, (0, 1): -2 * cy,
               (0, 0): cx * cx + cy * cy - curve.radius2}
        return BiPoly(("u", "v"), lhs).to_text() + " = 0"
    px, py = curve.at
    return f"({px}, {py})"


# -- the integrator's step, its closure test and the atlas arrow -------------
#
# ``integrate`` runs the whole Dormand-Prince step in its own frame and
# picks its step factors by comparisons; ``detect_closed`` tests only the
# segments that can reach the start; the atlas finds its arrow by bisection.
# The forms they replaced are kept here verbatim: a step function called
# once per trial step, a closure test on every segment and a scan over
# every sample. The library must give their answers bit for bit.


class DormandPrince54:
    """Embedded Runge-Kutta 5(4) pair (Dormand & Prince 1980), whole.

    Classic coefficients: seven stages, fifth-order propagation with an
    embedded fourth-order error estimate (E is the difference of the two
    weight rows). The last stage evaluates the field at the step's new
    point, since its row of A equals the propagation weights B ("first
    same as last", FSAL). The library keeps only the nonzero weights, as
    the module constants ``_A21`` ... ``_E7`` of ``artifact.dynamics``,
    each written with the same float expression as its entry here.
    """

    C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    A = (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
    B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
    E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def loop_rk_step(f, x, y, h, k1x, k1y):
    """One fused trial step from (x, y) with first stage (k1x, k1y).

    Returns the new point, the embedded error estimate and the field at
    the new point (the next step's first stage), or None when a stage
    blows past finite floats; the caller treats that as a rejected step,
    exactly like a failed error test.

    With a field from ``_compile`` the result equals a loop of ``sum``
    over the whole tableau bit for bit. Leaving out the zero weights and
    the 0 that ``sum`` starts from changes no bit: the field's zeros all
    carry one sign, and the weights of each sum have both signs. A
    non-finite second stage rejects the step, as in that loop, where a
    zero weight turns it into NaN.
    """
    try:
        k2x, k2y = f(x + h * (_A21 * k1x), y + h * (_A21 * k1y))
        k3x, k3y = f(x + h * (_A31 * k1x + _A32 * k2x),
                     y + h * (_A31 * k1y + _A32 * k2y))
        k4x, k4y = f(x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
                     y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y))
        k5x, k5y = f(x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x
                              + _A54 * k4x),
                     y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y
                              + _A54 * k4y))
        k6x, k6y = f(x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x
                              + _A64 * k4x + _A65 * k5x),
                     y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y
                              + _A64 * k4y + _A65 * k5y))
        nx = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x
                      + _B6 * k6x)
        ny = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y
                      + _B6 * k6y)
        k7x, k7y = f(nx, ny)
        ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                  + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                  + _E6 * k6y + _E7 * k7y)
    except OverflowError:
        return None
    isfinite = math.isfinite
    if (isfinite(nx) and isfinite(ny) and isfinite(ex) and isfinite(ey)
            and isfinite(k2x) and isfinite(k2y)):
        return nx, ny, ex, ey, k7x, k7y
    return None


def loop_integrate(sys: DiffSystem, start,
                   cfg: IntegratorConfig | None = None,
                   direction: str = "forward") -> Trajectory:
    """Adaptive Dormand-Prince 5(4) trajectory from a starting point.

    Stops at the configured time limit, on leaving the outer disk, on
    entering the origin guard, when the field magnitude drops below the
    absolute tolerance (an equilibrium), when a rejected step leaves h
    below 1e-14 * max(1, t), or after ``MAX_TRIAL_STEPS`` trial steps.

    The field is compiled once per system and direction and kept on the
    system. The step is FSAL: the last stage of an accepted step is the
    field at the new point, which serves as the equilibrium test there
    and as the next step's first stage, and a rejected step keeps its
    first stage for the retry. So a trial step costs six field
    evaluations, plus one at the start. The returned trajectory counts
    accepted and rejected steps and keeps the field at every sample.
    """
    cfg = cfg or IntegratorConfig()
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward: {direction}")
    f = _field(sys, 1.0 if direction == "forward" else -1.0)
    x, y = float(start[0]), float(start[1])
    if math.hypot(x, y) > cfg.outer_radius:
        raise ValueError("start lies outside the outer disk")
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_step, max_time = cfg.max_step, cfg.max_time
    t = 0.0
    h = min(cfg.initial_step, max_step, max_time)
    samples = [(0.0, x, y)]
    accepted = rejected = 0
    termination = None
    kx, ky = _finite(f, x, y)
    velocities = [kx, ky]  # a list appends faster than an array
    if math.hypot(kx, ky) < abs_tol:
        termination = "converged-to-equilibrium"
    while termination is None:
        if accepted + rejected == MAX_TRIAL_STEPS:
            termination = "step-limit"
            break
        h = min(h, max_step, max_time - t)
        trial = loop_rk_step(f, x, y, h, kx, ky)
        err = None  # a trial step that overflows is rejected
        if trial is not None:
            nx, ny, ex, ey, nkx, nky = trial
            sx = abs_tol + rel_tol * max(abs(x), abs(nx))
            sy = abs_tol + rel_tol * max(abs(y), abs(ny))
            try:
                err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2)
            except OverflowError:
                pass
        if err is None or err > 1.0:
            rejected += 1
            h *= 0.2 if err is None else max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                termination = "step-underflow"
                break
            continue
        accepted += 1
        t += h
        x, y, kx, ky = nx, ny, nkx, nky
        samples.append((t, x, y))
        velocities.append(kx)
        velocities.append(ky)
        radius = math.hypot(x, y)
        if radius <= cfg.origin_guard:
            termination = "entered-origin-guard"
            break
        if radius >= cfg.outer_radius:
            termination = "exited-outer-disk"
            break
        # finite: the last stage enters the error estimate
        if math.hypot(kx, ky) < abs_tol:
            termination = "converged-to-equilibrium"
            break
        if t >= max_time * (1 - 1e-12):
            termination = "time-limit"
            break
        h *= min(5.0, 0.9 * (err ** -0.2 if err > 0 else 5.0))
    return Trajectory(array("d", chain.from_iterable(samples)), termination,
                      accepted, rejected, array("d", velocities))


def loop_detect_closed(traj: Trajectory, tol: float) -> bool:
    """Does the trajectory come back to its start?

    True when, after first leaving a 2*tol neighborhood of the start,
    some later segment passes within tol of the start while heading
    within 5 degrees of the initial direction.
    """
    if len(traj.samples) < 10:
        raise ValueError("closure detection needs at least 10 samples")
    pts = [(sx, sy) for _, sx, sy in traj.samples]
    x0, y0 = pts[0]
    d0 = None
    for xx, yy in pts[1:]:
        norm = math.hypot(xx - x0, yy - y0)
        if norm > 0:
            d0 = ((xx - x0) / norm, (yy - y0) / norm)
            break
    if d0 is None:
        return False  # never moved
    cos_cap = math.cos(math.radians(5.0))
    left = False
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        if not left:
            if math.hypot(bx - x0, by - y0) > 2 * tol:
                left = True
            continue
        ux, uy = bx - ax, by - ay
        seg = math.hypot(ux, uy)
        if seg == 0:
            continue
        # closest approach of the segment to the start point
        proj = max(0.0, min(1.0, ((x0 - ax) * ux + (y0 - ay) * uy) / seg ** 2))
        cx, cy = ax + proj * ux, ay + proj * uy
        if math.hypot(cx - x0, cy - y0) < tol:
            if (ux * d0[0] + uy * d0[1]) / seg >= cos_cap:
                return True
    return False


def loop_mid_arc_arrow(traj: Trajectory):
    """Arrow at the sample nearest half the polyline's arc length."""
    pts = [(x, y) for _, x, y in traj.samples]
    if len(pts) < 3:
        return None
    lens = list(accumulate(map(math.dist, pts[1:], pts), initial=0.0))
    total = lens[-1]
    if total == 0:
        return None
    idx = min(range(1, len(pts) - 1), key=lambda i: abs(lens[i] - total / 2))
    ux, uy = pts[idx + 1][0] - pts[idx - 1][0], pts[idx + 1][1] - pts[idx - 1][1]
    norm = math.hypot(ux, uy)
    if norm == 0:
        return None
    return pts[idx], (ux / norm, uy / norm)


# -- the atlas JSON as one dict ----------------------------------------------
#
# ``atlas.json_pieces`` writes the atlas JSON a trajectory at a time, each
# one's rows formatted from its packed floats. The dict it replaced, every
# sample a list, is kept here: ``json.dumps`` of it with indent 2 and a
# newline must give the same text.


def disk_json_dict(disk) -> dict:
    """One ``DiskChart`` of an atlas document as a JSON dict."""
    return {
        "chart": disk.chart.value,
        "vars": list(disk.vars),
        "radius": disk.radius,
        "trajectories": [{"chart": disk.chart.value,
                          "termination": t.termination,
                          "samples": list(map(list, t.samples))}
                         for t in disk.trajectories],
        "equilibria": [{"point": [x, y], "label": label}
                       for (x, y), label in disk.equilibria],
        "arrows": [{"at": [x, y], "direction": [ux, uy]}
                   for (x, y), (ux, uy) in disk.arrows],
        "curves": [c.to_json_dict() for c in disk.curves],
    }


def atlas_json_dict(doc) -> dict:
    """An ``AtlasDocument`` as a JSON dict."""
    return {"schema": 1,
            "size": 420,
            "disks": [disk_json_dict(d) for d in doc.disks],
            "provenance": doc.provenance}


def atlas_json_text(doc) -> str:
    """The atlas JSON as the command line wrote it from the dict."""
    return json.dumps(atlas_json_dict(doc), indent=2) + "\n"


# -- the whole-array residual ------------------------------------------------
#
# ``conjugacy_residual`` walks the kept samples once in plain floats. The
# numpy form it replaced is kept here: the same float operations, array by
# array, with the transition and its Jacobian spelled out for arrays (the
# library's ``charts`` maps one point at a time; a zero here is a
# RuntimeWarning, which the tests turn into an error). ``np.cumsum`` adds
# left to right, so the library must give its answer bit for bit.


def arrays(traj: Trajectory):
    """Times (n,), points (n, 2) and velocities (n, 2) as float arrays."""
    txy = np.array(traj.flat).reshape(-1, 3)
    return txy[:, 0], txy[:, 1:], np.array(traj.velocities).reshape(-1, 2)


def array_transition(x, y):
    """``charts.transition`` point by point."""
    s = x * x + y * y
    return (4 * x / s, 4 * y / s)


def array_transition_jacobian(px, py):
    """``charts.transition_jacobian`` point by point."""
    s = px * px + py * py
    s2 = s * s
    return ((4 * (py * py - px * px) / s2, -8 * px * py / s2),
            (-8 * px * py / s2, 4 * (px * px - py * py) / s2))


def _hermite(p0, v0, p1, v1, h, theta):
    """Points and velocities at the fractions ``theta`` of cubic Hermite
    steps of length ``h`` from (p0, v0) to (p1, v1); p0 exactly at theta
    = 0. ``h`` and ``theta`` broadcast against the points' (x, y) axis.
    """
    chord = p1 - p0
    c2 = 3 * chord - h * (2 * v0 + v1)
    c3 = h * (v0 + v1) - 2 * chord
    return (p0 + theta * (h * v0 + theta * (c2 + theta * c3)),
            v0 + theta * (2 * c2 + 3 * theta * c3) / h)


def array_residual(sys: DiffSystem, result, start,
                   cfg: IntegratorConfig | None = None):
    """``conjugacy_residual`` on whole arrays, and the squared gap at
    each compared sample (a list of floats)."""
    cfg = cfg or IntegratorConfig()
    first = replace(cfg, max_step=min(cfg.max_step, 0.02))
    t, pts, vel = arrays(integrate(sys, start, first))
    # only ever the final sample, on a guard stop
    kept = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] > cfg.origin_guard ** 2
    if not kept.any():
        raise ValueError("the whole trajectory sat inside the origin guard")
    (x, y), (vx, vy) = pts[kept].T, vel[kept].T
    (j00, j01), (j10, j11) = array_transition_jacobian(x, y)
    q = np.column_stack(array_transition(x, y))
    w = np.column_stack([j00 * vx + j01 * vy, j10 * vx + j11 * vy])
    h = np.diff(t[kept])[:, None]
    rate = 0.0
    for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        at, _ = _hermite(q[:-1], w[:-1], q[1:], w[1:], h, node)
        inverse = 1.0 / (at[:, 0] * at[:, 0] + at[:, 1] * at[:, 1])
        for _ in range(result.m):  # products: no pow, whose rounding varies
            weight = weight * inverse
        rate = rate + weight
    tau = np.concatenate([[0.0], np.cumsum(h[:, 0] * rate)])
    end = float(tau[-1])
    if end == 0.0:  # one kept sample: nothing to compare
        return 0.0, []
    q0 = transition((float(start[0]), float(start[1])))
    partner = integrate(result.conjugate, q0,
                        replace(cfg, max_time=end, max_step=end))
    tp, r, g = arrays(partner)
    if len(tp) < 2:  # the partner sits at an equilibrium
        return 0.0, []
    # a partner at the time limit may stop a relative 1e-12 short of it
    if partner.termination != "time-limit":
        within = tau <= tp[-1]
        tau, q = tau[within], q[within]
    i = np.clip(np.searchsorted(tp, tau, side="right") - 1, 0, len(tp) - 2)
    step = (tp[i + 1] - tp[i])[:, None]
    at, v = _hermite(r[i], g[i], r[i + 1], g[i + 1], step,
                     (tau - tp[i])[:, None] / step)
    gap = q - at
    speed2 = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    along = np.divide(gap[:, 0] * v[:, 0] + gap[:, 1] * v[:, 1], speed2,
                      out=np.zeros_like(speed2), where=speed2 > 0)
    gap = gap - along[:, None] * v
    gap2 = gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]
    return float(np.sqrt(gap2).max()), gap2.tolist()


# -- the parser on BiPoly values ----------------------------------------------


def _poly_degree(p: BiPoly) -> int:
    return p.total_degree() or 0


def _poly_weight(p: BiPoly) -> int:
    """The terms of p, each counted once more per 1024 coefficient bits,
    and FRACTION_WEIGHT times when its coefficient is not an integer."""
    return sum((1 if c.denominator == 1 else FRACTION_WEIGHT)
               + (c.numerator.bit_length() + c.denominator.bit_length())
               // 1024 for c in p.terms.values())


class PolyParser:
    """The library's recursive descent with every value a BiPoly, on int
    coefficients but for "p/q" literals; ``parse`` returns the expanded
    polynomial and ``products`` counts against ``parse.MAX_PRODUCTS``,
    read at each product so a test may lower it."""

    def __init__(self, text: str, variables: tuple[str, str]):
        self.vars = variables
        self.tokens = _tokenize(text, variables)
        self.pos = 0
        self.depth = 0
        self.products = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def nested(self, parse_one, where: int) -> BiPoly:
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than the limit of {MAX_NESTING}", where)
        self.depth += 1
        value = parse_one()
        self.depth -= 1
        return value

    def product(self, a: BiPoly, b: BiPoly, where: int) -> BiPoly:
        self.products += _poly_weight(a) * _poly_weight(b)
        if self.products > parse.MAX_PRODUCTS:
            raise ParseError(
                f"expansion needs more than {parse.MAX_PRODUCTS} term "
                f"products", where)
        return a * b

    def parse(self) -> BiPoly:
        value = self.expression()
        kind, text, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", where)
        return value

    def expression(self) -> BiPoly:
        terms = dict(self.term().terms)
        while True:
            op = self.peek()[0]
            if op not in ("+", "-"):
                return BiPoly._trusted(self.vars, terms)
            self.pos += 1
            for e, c in self.term().terms.items():
                if op == "-":
                    c = -c
                if e in terms:
                    c += terms[e]
                    if not c:
                        del terms[e]
                        continue
                terms[e] = c

    def term(self) -> BiPoly:
        value = self.signed_factor()
        while True:
            kind, _, where = self.peek()
            if kind == "*":
                self.pos += 1
                rhs = self.signed_factor()
            elif kind in ("num", "var", "("):
                rhs = self.factor()
            else:
                return value
            _check_degree(_poly_degree(value) + _poly_degree(rhs),
                          "product degree", where)
            value = self.product(value, rhs, where)

    def signed_factor(self) -> BiPoly:
        kind, _, where = self.peek()
        if kind == "-":
            self.pos += 1
            return -self.nested(self.signed_factor, where)
        return self.factor()

    def factor(self) -> BiPoly:
        base = self.atom()
        kind, _, where = self.peek()
        if kind == "^":
            self.pos += 1
            n = self.exponent()
            _check_degree(_poly_degree(base) * n, "power degree", where)
            if n == 0:
                return BiPoly._trusted(self.vars, {(0, 0): 1})
            return power(base, n, lambda a, b: self.product(a, b, where))
        return base

    def exponent(self) -> int:
        kind, value, where = self.peek()
        if kind == "-":
            raise NegativeExponent("exponent must be nonnegative", where)
        if kind != "num":
            raise ParseError("expected an integer exponent", where)
        self.pos += 1
        if "/" in value:
            raise NonIntegerExponent("exponent must be an integer", where)
        n = _number(value, where)
        _check_degree(n, "exponent", where)
        return n

    def atom(self) -> BiPoly:
        kind, value, where = self.take()
        if kind == "num":
            return BiPoly._trusted(self.vars, {(0, 0): _number(value, where)})
        if kind == "var":
            return BiPoly._trusted(self.vars, {
                (1, 0) if value == self.vars[0] else (0, 1): 1})
        if kind == "(":
            inner = self.nested(self.expression, where)
            kind, _, where = self.peek()
            if kind != ")":
                raise ParseError("expected ')'", where)
            self.pos += 1
            return inner
        raise ParseError(f"unexpected {value!r}", where)
