"""Conjugation of a planar polynomial system under the disk-swapping map.

Given dx/dt = P(x, y), dy/dt = Q(x, y) of degree n, the partner system in
the opposite chart is obtained by pushing the field through the transition
map p -> 4p/|p|^2, clearing denominators with the circle factor, and
removing every full circle power the two components share. The reduced
pair (U, V) satisfies (u^2 + v^2)^m dtau = dt with m = n - k, where k is
the number of circle powers removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# re-exported: callers may catch OriginSingularity from here too
from .charts import OriginSingularity  # noqa: F401
from .charts import transition, transition_jacobian
from .poly import (
    BiPoly,
    _accumulate,
    _times,
    circle_valuation,  # noqa: F401  (the benchmark's tracer wraps it here)
    divide_exact_by_circle,  # noqa: F401  (and this one)
    integer_numerators,
    is_coprime,
    power,
    strip_circle_power,
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

    # Why the partner's coprimality is decided on the original pair.
    #
    # Write s = x^2+y^2 and r^2 = u^2+v^2, and let j be the circle power
    # the two sides of (P, Q) share. Dividing it out leaves (P', Q') of
    # degree n - 2j. Since P_i = s^j * P'_(i-2j) and s(4u, 4v) = 16 * r^2,
    # the transported sums are S_X = 16^j * r^(2j) * S_X' and likewise
    # S_Y, so the partner of (P, Q) is 16^j times the partner of
    # (P', Q'), with k = k' + j and m = m' + j. It remains to compare a
    # pair that shares no circle power with its partner, which after the
    # strip shares no r^2.
    #   - _transported_pair gives (U, V) = M * (S_X, S_Y) for a 2x2 matrix
    #     M of polynomials with det M = -(u^2+v^2)^2/16. So a factor of U
    #     and V other than r^2 divides S_X and S_Y, and conversely.
    #   - S_X and S_Y are r^(2n) * P o T and r^(2n) * Q o T, the pullbacks
    #     under the inversion T: p -> 4p/|p|^2, a birational involution.
    #     The pullback is multiplicative. It sends an irreducible g other
    #     than s to a polynomial that is not a constant times a power of
    #     r^2, and pulling that back under T gives g again, times a power
    #     of s.
    #   - s itself goes to r^4 * s o T = 16 * r^2, a constant times the
    #     circle, and s is irreducible over Q.
    # So the shared factors other than the circle match one to one, and
    # the partner is coprime exactly when (P', Q') is. (Collins, JACM 14
    # (1967); Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    # 3.5.)
    @cached_property
    def _coprime(self) -> bool:
        """The partner's answer, from the original pair once
        strip_circle_power has divided out the circle power it shares."""
        j, p, q = strip_circle_power(*self.system.rhs)
        if j == 0:
            return self.system.coprime
        return is_coprime(p, q)

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


_CIRCLE = {(2, 0): 1, (0, 2): 1}    # u^2 + v^2


def _transported_pair(sys: DiffSystem, out: tuple[str, str]
                      ) -> tuple[BiPoly, BiPoly, int]:
    """The field carried into the other chart, unreduced.

    Returns (a * S_X - b * S_Y, -b * S_X - a * S_Y) with a = (v^2-u^2)/4
    and b = uv/2, where S_X and S_Y sum the homogeneous parts of P and Q
    as (u^2+v^2)^(n-j) * part_j(4u, 4v), times 4D (D the lcm of the
    field's denominators) to make them ints, then 4D; _over divides.

    Everything between runs on plain {(i, j): int} dicts, and term order
    is output, so each stage adds its keys in a fixed order:
      - a side's terms are grouped by total degree j in first-seen order,
        and the parts taken by ascending j; each coefficient is scaled by
        4^j, and for j < n the part is multiplied by the circle power
        (u^2+v^2)^(n-j), that power's terms outer, with zeros dropped;
        the powers come from `power`, whose squarings fix their order;
      - U is 4a * S_X, (0, 2) before (2, 0), with zeros dropped, then
        minus 2uv * S_Y, appending any new key;
      - V is -2uv * S_X, then plus -4a * S_Y, (0, 2) before (2, 0);
      - the two returned polynomials drop their remaining zeros."""
    n = sys.degree
    sides, d = integer_numerators(*sys.rhs)
    powers = {}
    sums = []
    for side in sides:
        parts = {}
        for (i, j), c in side.terms.items():
            parts.setdefault(i + j, {})[(i, j)] = c
        # the parts have the distinct degrees 2n - j: no key repeats
        total = {}
        for j in sorted(parts):
            scale = 4 ** j      # part(4u, 4v), part homogeneous
            part = {e: c * scale for e, c in parts[j].items()}
            if j < n:
                if n - j not in powers:
                    powers[n - j] = power(_CIRCLE, n - j, _times)
                part = _times(powers[n - j], part)
            total.update(part)
        sums.append(total)
    sum_x, sum_y = sums
    u = _times({(0, 2): 1, (2, 0): -1}, sum_x)
    _accumulate(u, {(1, 1): -2}, sum_y)
    v = _accumulate({}, {(1, 1): -2}, sum_x)
    _accumulate(v, {(0, 2): -1, (2, 0): 1}, sum_y)
    return BiPoly._trusted(out, u), BiPoly._trusted(out, v), 4 * d


def _form_over_circle(a: list) -> list | None:
    """a / (u^2 + v^2) for a form of degree >= 2 given as its coefficient
    list, that of u^i * v^(d-i) at index i; None when a remainder is
    left. The quotient is b_i = a_(i+2) - b_(i+2), taken from the top;
    the remainder is (a_0 - b_0, a_1 - b_1)."""
    b = a[2:]
    for i in range(len(b) - 3, -1, -1):
        b[i] -= b[i + 2]
    if a[0] != b[0] or a[1] != (b[1] if len(b) > 1 else 0):
        return None
    return b


def _strip_form_pair(tu: list, tv: list) -> tuple[int, list, list]:
    """(r, tu / s^r, tv / s^r) for the largest r with s^r dividing both
    forms, s = u^2 + v^2; the two are not both zero."""
    r = 0
    while len(tu) > 2:
        qu = _form_over_circle(tu)
        if qu is None:
            break
        qv = _form_over_circle(tv)
        if qv is None:
            break
        tu, tv, r = qu, qv, r + 1
    return r, tu, tv


def partner_jet(sys: DiffSystem) -> tuple[int, tuple, tuple]:
    """(k, c, J) without conjugating: the circle power k that `conjugate`
    removes, and the reduced partner's constant pair c and Jacobian J at
    its origin, as Fractions.

    Write X_j, Y_j for the degree-j parts of D*P and D*Q (D the lcm of
    the field's denominators) and s = u^2 + v^2. The transported pair of
    `_transported_pair` is, over 4D, the sum over j of s^(n-j) * t_j,
    where t_j is the image of one part:
      U-side (v^2 - u^2) * X_j(4u, 4v) - 2uv * Y_j(4u, 4v),
      V-side -2uv * X_j(4u, 4v) + (u^2 - v^2) * Y_j(4u, 4v),
    two forms of degree j + 2. The terms have the distinct degrees
    2n + 2 - j, so none cancel. With v_j the circle power both sides of
    t_j share and e_j = n - j + v_j:
      - k is the least e_j;
      - the reduced partner's part of degree <= 1 is t_j / s^(v_j), over
        4D, for each j with e_j = k and j + 2 - 2 * v_j <= 1; a term with
        e_j > k is a multiple of s in the reduced pair.
    As e_j >= n - j, the walk down from j = n stops once n - j exceeds
    the least e_j so far. Raises ReductionTheoremViolated as `conjugate`
    does."""
    n = sys.degree
    d = math.lcm(*(c.denominator for p in sys.rhs for c in p.terms.values()))
    parts = {}
    for side, p in enumerate(sys.rhs):
        for (i, j), c in p.terms.items():
            parts.setdefault(i + j, ([], []))[side].append((i, c))
    k, jet = math.inf, {}
    for j in sorted(parts, reverse=True):
        if n - j > k:
            break
        # t_j as coefficient lists: the part's term u^i v^(j-i) lands at
        # index i (times v^2), i + 1 (times uv) and i + 2 (times u^2)
        tu, tv = [0] * (j + 3), [0] * (j + 3)
        xs, ys = parts[j]
        for i, c in xs:
            c = c.numerator * (d // c.denominator) * 4 ** j
            tu[i] += c
            tu[i + 2] -= c
            tv[i + 1] -= 2 * c
        for i, c in ys:
            c = c.numerator * (d // c.denominator) * 4 ** j
            tu[i + 1] -= 2 * c
            tv[i] -= c
            tv[i + 2] += c
        shared, tu, tv = _strip_form_pair(tu, tv)
        e = n - j + shared
        if e < k:
            k, jet = e, {}
        if e == k and len(tu) <= 2:
            jet[len(tu) - 1] = (tu, tv)
    m = n - k
    if m < 0 or 2 * k > n + 2:
        raise ReductionTheoremViolated(
            f"removed circle power k={k} is impossible for n={n}")
    scale = 4 * d
    (cu,), (cv,) = jet.get(0, ([0], [0]))
    # a linear form's list holds its v coefficient, then its u one
    (u_v, u_u), (v_v, v_u) = jet.get(1, ([0, 0], [0, 0]))
    return k, (Fraction(cu, scale), Fraction(cv, scale)), (
        (Fraction(u_u, scale), Fraction(u_v, scale)),
        (Fraction(v_u, scale), Fraction(v_v, scale)))


def _over(u: BiPoly, v: BiPoly, scale: int) -> tuple[BiPoly, BiPoly]:
    return tuple(BiPoly._trusted(p.vars, {e: Fraction(c, scale)
                                          for e, c in p.terms.items()})
                 for p in (u, v))


def raw_conjugate(sys: DiffSystem,
                  out_vars: tuple[str, str] | None = None
                  ) -> tuple[BiPoly, BiPoly]:
    """The unreduced partner field, exactly over the rationals."""
    return _over(*_transported_pair(sys, partner_vars(sys.vars, out_vars)))


def conjugate(sys: DiffSystem,
              out_vars: tuple[str, str] | None = None) -> ConjugationResult:
    """Partner system with all shared circle powers removed.

    The result carries the partner, the removed power k and the
    time-reparametrization exponent m = n - k.
    """
    out = partner_vars(sys.vars, out_vars)
    u, v, scale = _transported_pair(sys, out)
    k, u, v = strip_circle_power(u, v)
    m = sys.degree - k
    if m < 0 or 2 * k > sys.degree + 2:
        raise ReductionTheoremViolated(
            f"removed circle power k={k} is impossible for n={sys.degree}")
    conj = DiffSystem.build(out, *_over(u, v, scale))
    return ConjugationResult(system=sys, conjugate=conj, k=k, m=m)


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
