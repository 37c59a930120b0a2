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
    integer_numerators,
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
    and cached, since only ``--check-coprime`` and the JSON ``coprime``
    of this system's conjugation read it (that flag is the partner's, and
    a theorem decides it on this pair). ``_float_fields`` holds the field
    compiled to float code by ``artifact.dynamics``, one entry per time
    direction, so it is built at most once per instance; it goes away
    with the instance, and pickles and copies leave it out.
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

    @cached_property
    def _coprime(self) -> bool:
        """The partner's answer, from the original pair (_divide_by_circle)."""
        j = min(map(circle_valuation, self.system.rhs))
        if j == 0:
            return self.system.coprime
        return is_coprime(*_divide_by_circle(*self.system.rhs, j))

    def to_json_dict(self) -> dict:
        return {
            "n": self.system.degree,
            "k": self.k,
            "m": self.m,
            "U": self.conjugate.rhs[0].to_text(),
            "V": self.conjugate.rhs[1].to_text(),
            "coprime": self._coprime,
            "time_relation": self.time_relation(),
        }


def wn_divisibility(sys: DiffSystem) -> tuple[bool, BiPoly]:
    """Whether the top form x*Q_n - y*P_n is a circle multiple.

    Returns (True, quotient) when it is (the quotient may be zero), and
    (False, remainder) otherwise.
    """
    n = sys.degree
    x, y = (BiPoly.var(name, sys.vars) for name in sys.vars)
    zero = BiPoly.zero(sys.vars)
    px, py = (dict(p.homogeneous_components()) for p in sys.rhs)
    w = x * py.get(n, zero) - y * px.get(n, zero)
    quot, rem = divmod_circle(w)
    if rem:
        return False, rem
    return True, quot


def _transported_pair(sys: DiffSystem, out: tuple[str, str], top: int
                      ) -> tuple[BiPoly, BiPoly, int]:
    """The field's parts of degree <= top carried into the other chart.

    Returns (a * S_X - b * S_Y, -b * S_X - a * S_Y) with a = (v^2-u^2)/4
    and b = uv/2, where S_X and S_Y sum the homogeneous parts of P and Q
    as (u^2+v^2)^(top-j) * part_j(4u, 4v), times 4D (D the lcm of the
    field's denominators) to make them ints, then 4D; _over divides."""
    s = BiPoly._trusted(out, {(2, 0): 1, (0, 2): 1})    # u^2 + v^2
    a = BiPoly._trusted(out, {(0, 2): 1, (2, 0): -1})   # 4a = v^2 - u^2
    b = BiPoly._trusted(out, {(1, 1): 2})               # 4b = 2uv
    sides, d = integer_numerators(*sys.rhs)
    sums = []
    for side in sides:
        total = BiPoly._trusted(out, {})
        for j, part in side.with_vars(out).homogeneous_components():
            if j <= top:
                part = part.scale_vars(4, 4)
                total = total + (s ** (top - j) * part if j < top else part)
        sums.append(total)
    sum_x, sum_y = sums
    return a * sum_x - b * sum_y, -(b * sum_x) + (-a) * sum_y, 4 * d


def _over(u: BiPoly, v: BiPoly, scale: int) -> tuple[BiPoly, BiPoly]:
    return tuple(BiPoly._trusted(p.vars, {e: Fraction(c, scale)
                                          for e, c in p.terms.items()})
                 for p in (u, v))


# Why the partner's coprimality is decided on the original pair.
#
# Write s = x^2+y^2 and r^2 = u^2+v^2, and let j be the circle power the
# two sides of (P, Q) share. Dividing it out leaves (P', Q') of degree
# n - 2j. Since P_i = s^j * P'_(i-2j) and s(4u, 4v) = 16 * r^2, the
# transported sums are S_X = 16^j * r^(2j) * S_X' and likewise S_Y, so
# the partner of (P, Q) is 16^j times the partner of (P', Q'), with
# k = k' + j and m = m' + j. It remains to compare a pair that shares no
# circle power with its partner, which after the strip shares no r^2.
#   - _transported_pair gives (U, V) = M * (S_X, S_Y) for a 2x2 matrix M
#     of polynomials with det M = -(u^2+v^2)^2/16. So a factor of U and V
#     other than r^2 divides S_X and S_Y, and conversely.
#   - S_X and S_Y are r^(2n) * P o T and r^(2n) * Q o T, the pullbacks
#     under the inversion T: p -> 4p/|p|^2, a birational involution. The
#     pullback is multiplicative. It sends an irreducible g other than s
#     to a polynomial that is not a constant times a power of r^2, and
#     pulling that back under T gives g again, times a power of s.
#   - s itself goes to r^4 * s o T = 16 * r^2, a constant times the
#     circle, and s is irreducible over Q.
# So the shared factors other than the circle match one to one, and the
# partner is coprime exactly when (P', Q') is. (Collins, JACM 14 (1967);
# Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, 3.5.)
def _divide_by_circle(u: BiPoly, v: BiPoly, k: int) -> tuple[BiPoly, BiPoly]:
    """Both sides divided exactly by (first**2 + second**2)**k."""
    for _ in range(k):
        u = divide_exact_by_circle(u)
        v = divide_exact_by_circle(v)
    return u, v


def raw_conjugate(sys: DiffSystem,
                  out_vars: tuple[str, str] | None = None
                  ) -> tuple[BiPoly, BiPoly]:
    """The unreduced partner field, exactly over the rationals: the
    transported pair of the whole field (top degree n)."""
    return _over(*_transported_pair(sys, partner_vars(sys.vars, out_vars),
                                    sys.degree))


def conjugate(sys: DiffSystem,
              out_vars: tuple[str, str] | None = None) -> ConjugationResult:
    """Partner system with all shared circle powers removed.

    The result carries the partner, the removed power k and the
    time-reparametrization exponent m = n - k.
    """
    out = partner_vars(sys.vars, out_vars)
    u0, v0, scale = _transported_pair(sys, out, sys.degree)
    k = min(circle_valuation(u0), circle_valuation(v0))
    m = sys.degree - k
    if m < 0 or 2 * k > sys.degree + 2:
        raise ReductionTheoremViolated(
            f"removed circle power k={k} is impossible for n={sys.degree}")
    conj = DiffSystem.build(out, *_over(*_divide_by_circle(u0, v0, k), scale))
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
    x, y = (BiPoly.var(name, sys.vars) for name in sys.vars)
    s = x * x + y * y
    zero = BiPoly.zero(sys.vars)
    px, py = (dict(p.homogeneous_components()) for p in sys.rhs)
    ks, qs = [], []
    for r in range(1, k + 1):
        d = n - r + 1
        fx, fy = px.get(d, zero), py.get(d, zero)
        w = x * fy - y * fx
        lhs_k = -2 * (y * w) - s * fx
        lhs_q = 2 * (x * w) - s * fy
        try:
            kr, qr = _divide_by_circle(lhs_k, lhs_q, k - r + 1)
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

    Cross-check path: must agree exactly with conjugate(sys) whenever k is
    the true shared circle power. The correction term for level r carries
    the scalar 4^(2k-2r-1), which is 1/4 at r = k.
    """
    ks, qs = reduction_quotients(sys, k)
    out = partner_vars(sys.vars, out_vars)
    u, v = _over(*_transported_pair(sys, out, sys.degree - k))
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
