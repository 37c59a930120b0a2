"""Conjugation of a planar polynomial system under the disk-swapping map.

Given dx/dt = P(x, y), dy/dt = Q(x, y) of degree n, the partner system in
the opposite chart is obtained by pushing the field through the transition
map p -> 4p/|p|^2, clearing denominators with the circle factor, and
removing every full circle power the two components share. The reduced
pair (U, V) satisfies (u^2 + v^2)^m dtau = dt with m = n - k, where k is
the number of circle powers removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# OriginSingularity is re-exported: callers may catch it from here too
from .charts import OriginSingularity, transition, transition_jacobian
from .poly import (
    BiPoly,
    NotDivisible,
    circle_valuation,
    divide_exact_by_circle,
    divmod_circle,
    is_coprime,
)


class ZeroField(ValueError):
    """Both components of a vector field are identically zero."""


class ReductionTheoremViolated(ArithmeticError):
    """The removed circle power k breaks 0 <= m = n - k or 2k <= n + 2.

    Both bounds are theorems for every valid input, so this signals a
    fault in the exact core, not in the input.
    """


def partner_vars(vars: tuple[str, str],
                 override: tuple[str, str] | None = None) -> tuple[str, str]:
    """Variable names for the opposite chart: (x,y) <-> (u,v) by default."""
    if override is not None:
        return (str(override[0]), str(override[1]))
    if vars == ("u", "v"):
        return ("x", "y")
    return ("u", "v")


@dataclass(frozen=True)
class DiffSystem:
    """A planar polynomial system dx/dt = P, dy/dt = Q.

    ``degree`` is the larger total degree of the two right sides, so the
    top homogeneous forms are never both zero. ``coprime`` tells whether
    P and Q share no nonconstant factor; it is computed on first access
    and cached, since only ``--check-coprime`` and the partner's JSON
    read it. ``_float_fields`` holds the field compiled to float code by
    ``artifact.dynamics``, one entry per time direction, so it is built at
    most once per instance; it goes away with the instance, and pickles
    and copies leave it out.
    """

    vars: tuple[str, str]
    rhs: tuple[BiPoly, BiPoly]
    degree: int

    @cached_property
    def coprime(self) -> bool:
        return is_coprime(self.rhs[0], self.rhs[1])

    @cached_property
    def _float_fields(self) -> dict:
        return {}

    def __getstate__(self):
        # compiled fields are code built at run time and do not pickle;
        # a copy compiles its own on first use
        state = self.__dict__.copy()
        state.pop("_float_fields", None)
        return state

    @classmethod
    def build(cls, vars: tuple[str, str], p: BiPoly, q: BiPoly) -> "DiffSystem":
        vars = (str(vars[0]), str(vars[1]))
        if p.is_zero() and q.is_zero():
            raise ZeroField("both right sides are zero")
        degrees = [d for d in (p.total_degree(), q.total_degree())
                   if d is not None]
        return cls(vars=vars, rhs=(p, q), degree=max(degrees))

    def to_json_dict(self) -> dict:
        """The form ``parse.system_from_json`` reads back."""
        return {"vars": list(self.vars), "rhs": [p.to_text() for p in self.rhs]}


@dataclass(frozen=True)
class ConjugationResult:
    system: DiffSystem
    conjugate: DiffSystem
    k: int
    m: int

    def time_relation(self) -> str:
        u, v = self.conjugate.vars
        return f"({u}^2+{v}^2)^{self.m} dtau = dt"

    def to_json_dict(self) -> dict:
        return {
            "n": self.system.degree,
            "k": self.k,
            "m": self.m,
            "U": self.conjugate.rhs[0].to_text(),
            "V": self.conjugate.rhs[1].to_text(),
            "coprime": self.conjugate.coprime,
            "time_relation": self.time_relation(),
        }


def _circle(vars: tuple[str, str]) -> BiPoly:
    return BiPoly(vars, {(2, 0): Fraction(1), (0, 2): Fraction(1)})


def wn_divisibility(sys: DiffSystem) -> tuple[bool, BiPoly]:
    """Whether the top form x*Q_n - y*P_n is a circle multiple.

    Returns (True, quotient) when it is (the quotient may be zero), and
    (False, remainder) otherwise.
    """
    n = sys.degree
    x = BiPoly.var(sys.vars[0], sys.vars)
    y = BiPoly.var(sys.vars[1], sys.vars)
    zero = BiPoly.zero(sys.vars)
    px, py = (dict(p.homogeneous_components()) for p in sys.rhs)
    w = x * py.get(n, zero) - y * px.get(n, zero)
    quot, rem = divmod_circle(w)
    if rem:
        return False, rem
    return True, quot


def _transported_pair(sys: DiffSystem, out: tuple[str, str], top: int
                      ) -> tuple[BiPoly, BiPoly]:
    """The field's parts of degree <= top carried into the other chart.

    Returns (a * S_X - b * S_Y, -b * S_X - a * S_Y) with a = (v^2-u^2)/4
    and b = uv/2, where S_X and S_Y sum the homogeneous parts of P and Q
    as (u^2+v^2)^(top-j) * part_j(4u, 4v).
    """
    s = _circle(out)
    sum_x = BiPoly.zero(out)
    sum_y = BiPoly.zero(out)
    px, py = (dict(p.homogeneous_components()) for p in sys.rhs)
    for j in range(top + 1):
        weight = s ** (top - j)
        xj = px.get(j)
        if xj:
            sum_x = sum_x + weight * xj.scale_vars(4, 4).with_vars(out)
        yj = py.get(j)
        if yj:
            sum_y = sum_y + weight * yj.scale_vars(4, 4).with_vars(out)
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    a = BiPoly(out, {(0, 2): quarter, (2, 0): -quarter})   # (v^2 - u^2)/4
    b = BiPoly(out, {(1, 1): half})                        # uv/2
    return (a * sum_x - b * sum_y,
            -1 * (b * sum_x) + (-1 * a) * sum_y)


def raw_conjugate(sys: DiffSystem,
                  out_vars: tuple[str, str] | None = None
                  ) -> tuple[BiPoly, BiPoly]:
    """The unreduced partner field, exactly over the rationals.

    The transported pair of the whole field (top degree n).
    """
    return _transported_pair(sys, partner_vars(sys.vars, out_vars),
                             sys.degree)


def conjugate(sys: DiffSystem,
              out_vars: tuple[str, str] | None = None) -> ConjugationResult:
    """Partner system with all shared circle powers removed.

    The result carries the partner, the removed power k and the
    time-reparametrization exponent m = n - k.
    """
    u0, v0 = raw_conjugate(sys, out_vars)
    if u0.is_zero() and v0.is_zero():
        raise ZeroField("conjugate field vanished identically")
    k = min(circle_valuation(u0), circle_valuation(v0))
    m = sys.degree - k
    if m < 0 or 2 * k > sys.degree + 2:
        raise ReductionTheoremViolated(
            f"removed circle power k={k} is impossible for n={sys.degree}")
    u, v = u0, v0
    for _ in range(k):
        u = divide_exact_by_circle(u)
        v = divide_exact_by_circle(v)
    conj = DiffSystem.build(partner_vars(sys.vars, out_vars), u, v)
    return ConjugationResult(system=sys, conjugate=conj, k=k, m=m)


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
    x = BiPoly.var(sys.vars[0], sys.vars)
    y = BiPoly.var(sys.vars[1], sys.vars)
    s = _circle(sys.vars)
    zero = BiPoly.zero(sys.vars)
    px, py = (dict(p.homogeneous_components()) for p in sys.rhs)
    ks: list[BiPoly] = []
    qs: list[BiPoly] = []
    for r in range(1, k + 1):
        d = n - r + 1
        fx, fy = px.get(d, zero), py.get(d, zero)
        w = x * fy - y * fx
        lhs_k = -2 * (y * w) - s * fx
        lhs_q = 2 * (x * w) - s * fy
        quots = []
        for lhs in (lhs_k, lhs_q):
            q = lhs
            try:
                for _ in range(k - r + 1):
                    q = divide_exact_by_circle(q)
            except NotDivisible as exc:
                err = NotDivisible(
                    f"reduction identity fails at level r={r}: {exc}")
                err.r = r
                raise err from None
            quots.append(q)
        ks.append(quots[0])
        qs.append(quots[1])
    return ks, qs


def rebuild_from_quotients(sys: DiffSystem, k: int,
                    out_vars: tuple[str, str] | None = None
                    ) -> tuple[BiPoly, BiPoly]:
    """Closed-form reduced pair built from the K_r/Q_r quotients.

    Cross-check path: must agree exactly with conjugate(sys) whenever k is
    the true shared circle power. The correction term for level r carries
    the scalar 4^(2k-2r-1), which is 1/4 at r = k.
    """
    ks, qs = reduction_quotients(sys, k)
    out = partner_vars(sys.vars, out_vars)
    u, v = _transported_pair(sys, out, sys.degree - k)
    for r in range(1, k + 1):
        scalar = Fraction(4) ** (2 * k - 2 * r - 1)
        u = u + scalar * ks[r - 1].scale_vars(4, 4).with_vars(out)
        v = v + scalar * qs[r - 1].scale_vars(4, 4).with_vars(out)
    return u, v


def pushforward_residual(sys: DiffSystem, result: ConjugationResult,
                         point: tuple) -> tuple[Fraction, Fraction]:
    """Difference between the transported field and the reduced partner field.

    At q = 4p/|p|^2 the reduced pair satisfies
    J(p) . (P(p), Q(p)) = (U(q), V(q)) / (q_u^2 + q_v^2)^m,
    so the returned pair is exactly (0, 0) whenever the conjugation is
    correct. Everything is evaluated in exact rational arithmetic.
    """
    px, py = Fraction(point[0]), Fraction(point[1])
    qx, qy = transition((px, py))
    jac = transition_jacobian(px, py)
    fx = sys.rhs[0].evaluate(px, py)
    fy = sys.rhs[1].evaluate(px, py)
    tx = jac[0][0] * fx + jac[0][1] * fy
    ty = jac[1][0] * fx + jac[1][1] * fy
    weight = (qx * qx + qy * qy) ** result.m
    ux = result.conjugate.rhs[0].evaluate(qx, qy) / weight
    vy = result.conjugate.rhs[1].evaluate(qx, qy) / weight
    return (tx - ux, ty - vy)
