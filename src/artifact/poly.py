"""Exact sparse polynomials in two variables over the rationals.

Everything downstream (conjugation, chart algebra, curve images) runs on
these. Coefficients are `fractions.Fraction`, terms live in a dict keyed
by exponent pairs, and instances are never mutated after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

_ZERO = Fraction(0)


class NotDivisible(ArithmeticError):
    """Exact division was requested but a nonzero remainder is left."""


class BothZero(ValueError):
    """The operation needs at least one nonzero polynomial."""


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients.

    ``terms`` maps an exponent pair ``(i, j)`` to the coefficient of
    ``first**i * second**j``. Every instance keeps three invariants:
    coefficients are ``Fraction`` and exponents are ``int``; no zero
    coefficient is stored, so the zero polynomial has an empty dict; and
    the terms stay in the order the operation that made them built them.
    That order is output: the compiled float field sums terms in it.

    The public constructor coerces whatever it is given into that form.
    The ring operations build their results, whose terms already hold,
    through the private ``_trusted`` constructor, which only drops zero
    coefficients. Treat instances as immutable; every operation returns
    a new one. Boundary rule: the exact core runs the same operations on
    ``int`` coefficients (``integer_numerators``), but never returns one.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, str], terms: Mapping | None = None):
        self.vars = (str(vars[0]), str(vars[1]))
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, vars: tuple[str, str], terms: Mapping) -> "BiPoly":
        """A polynomial from terms already in the class's canonical form;
        zero values are dropped, into a new dict in the order of `terms`."""
        self = object.__new__(cls)
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, str]) -> "BiPoly":
        return cls(vars)

    @classmethod
    def const(cls, value, vars: tuple[str, str]) -> "BiPoly":
        return cls(vars, {(0, 0): Fraction(value)})

    @classmethod
    def var(cls, name: str, vars: tuple[str, str]) -> "BiPoly":
        if name == vars[0]:
            return cls(vars, {(1, 0): Fraction(1)})
        if name == vars[1]:
            return cls(vars, {(0, 1): Fraction(1)})
        raise ValueError(f"{name!r} is not one of the variables {vars}")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Largest i + j over stored terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(i + j for i, j in self.terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0, 0): Fraction(other)} if other else {})
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "BiPoly | None":
        if isinstance(other, BiPoly):
            if other.vars != self.vars:
                raise ValueError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other, self.vars)
        return None

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return BiPoly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._trusted(self.vars,
                               {e: -c for e, c in self.terms.items()})

    def _minus(self, other: "BiPoly") -> "BiPoly":
        """self - other in one pass, in the term order of self + (-other)."""
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] - c if e in terms else -c
        return BiPoly._trusted(self.vars, terms)

    def __sub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._minus(other)

    def __rsub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._minus(self)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return BiPoly._trusted(
                self.vars, {e: v * other for e, v in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return BiPoly._trusted(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BiPoly.const(1, self.vars) if n == 0 else None
        base = BiPoly._trusted(self.vars, self.terms)
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and structure --------------------------------------------

    def partial(self, axis: int) -> "BiPoly":
        """Partial derivative along variable 0 (first) or 1 (second)."""
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            if axis == 0 and i:
                out[(i - 1, j)] = c * i
            elif axis == 1 and j:
                out[(i, j - 1)] = c * j
        return BiPoly._trusted(self.vars, out)

    def evaluate(self, x, y):
        """Value at (x, y): exact for Fraction/int inputs, float otherwise."""
        total = _ZERO
        for (i, j), c in self.terms.items():
            total = total + c * x**i * y**j
        return total

    def homogeneous_components(self) -> list[tuple[int, "BiPoly"]]:
        """Split into homogeneous pieces, degrees strictly increasing."""
        by_degree: dict[int, dict[tuple[int, int], Fraction]] = {}
        for (i, j), c in self.terms.items():
            by_degree.setdefault(i + j, {})[(i, j)] = c
        return [(d, BiPoly._trusted(self.vars, t))
                for d, t in sorted(by_degree.items())]

    def scale_vars(self, cx, cy) -> "BiPoly":
        """The polynomial p(cx*first, cy*second) in the same variables.

        Integer scales stay ints, which is cheaper than Fraction powers;
        any other scale goes through Fraction, so the result stays exact.
        """
        if not isinstance(cx, int):
            cx = Fraction(cx)
        if not isinstance(cy, int):
            cy = Fraction(cy)
        return BiPoly._trusted(self.vars, {
            (i, j): c * (cx**i * cy**j) for (i, j), c in self.terms.items()})

    def swap_vars(self) -> "BiPoly":
        """The polynomial p(second, first), still over the same variable pair."""
        return BiPoly._trusted(
            self.vars, {(j, i): c for (i, j), c in self.terms.items()})

    def with_vars(self, vars: tuple[str, str]) -> "BiPoly":
        """Same terms, renamed variables."""
        return BiPoly._trusted((str(vars[0]), str(vars[1])), self.terms)

    # -- canonical text -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: descending total degree, then descending power of
        the first variable; ASCII operators, explicit '*' between factors."""
        if not self.terms:
            return "0"
        order = sorted(self.terms, key=lambda e: (-(e[0] + e[1]), -e[0]))
        pieces: list[str] = []
        for e in order:
            c = self.terms[e]
            body = self._term_text(abs(c), e)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def _term_text(self, c: Fraction, e: tuple[int, int]) -> str:
        factors = []
        for name, exp in zip(self.vars, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        if not factors:
            return str(c)
        if c != 1:
            factors.insert(0, str(c))
        return "*".join(factors)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BiPoly({self.vars[0]},{self.vars[1]}: {self.to_text()})"


def integer_numerators(*polys: BiPoly) -> tuple[list[BiPoly], int]:
    """The polys times the lcm D of all their denominators (ints), and D."""
    d = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [BiPoly._trusted(p.vars, {e: c.numerator * (d // c.denominator)
                                     for e, c in p.terms.items()})
            for p in polys], d


# -- division by the circle factor -----------------------------------------


def divmod_circle(p: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Quotient and remainder of p by (first**2 + second**2).

    Performed as univariate division in the second variable, so the
    remainder has degree at most 1 there: p = q*(first**2 + second**2) + r.
    """
    cols: dict[int, dict[int, Fraction]] = {}
    for (i, j), c in p.terms.items():
        cols.setdefault(j, {})[i] = c
    quot: dict[tuple[int, int], Fraction] = {}
    for j in range(max(cols, default=0), 1, -1):
        row = cols.pop(j, None)
        if not row:
            continue
        dst = cols.setdefault(j - 2, {})
        for i, c in row.items():
            if not c:
                continue
            quot[(i, j - 2)] = c  # row j is popped once: a new key
            dst[i + 2] = dst[i + 2] - c if i + 2 in dst else -c
    rem = {(i, j): c for j, row in cols.items() for i, c in row.items()}
    return BiPoly._trusted(p.vars, quot), BiPoly._trusted(p.vars, rem)


def divide_exact_by_circle(p: BiPoly) -> BiPoly:
    """p / (first**2 + second**2), raising NotDivisible on any remainder."""
    q, r = divmod_circle(p)
    if r.terms:
        raise NotDivisible(
            f"{p.to_text()} is not divisible by "
            f"{p.vars[0]}^2 + {p.vars[1]}^2")
    return q


def circle_valuation(p: BiPoly):
    """Largest k with (first**2 + second**2)**k dividing p.

    The zero polynomial is divisible by every power; it reports math.inf.
    A multiple's lowest homogeneous part is one too, so that is tried first.
    """
    if not p.terms:
        return math.inf
    if min(i + j for i, j in p.terms) < 2 or divmod_circle(
            p.homogeneous_components()[0][1])[1].terms:
        return 0
    k = 0
    while True:
        q, r = divmod_circle(p)
        if r.terms:
            return k
        k += 1
        p = q


# -- modular coprimality certificate ------------------------------------------
#
# A cheap sufficient test that runs before the exact subresultant chain.
# Coefficients are reduced mod the prime P = 2^61 - 1 as num * den^-1 (the
# certificate gives up if P divides a denominator). Then, with each
# variable in turn as the main one, the other variable is set to a few
# fixed large points mod P and a univariate Euclid gcd runs over GF(P).
# The main variable is certified once one point keeps the leading
# coefficient (in the main variable) of a or b nonzero and gives a gcd of
# degree 0; it is certified outright when a or b is free of it.
#
# Soundness. Suppose a and b share a factor G with deg_y G >= 1 (y the
# main variable). Scale a, b into Z[x, y] and take G primitive; by Gauss's
# lemma a = G*H with H in Z[x, y], so lc_y(a) = lc_y(G) * lc_y(H). At a
# point x0 where lc_y(a)(x0) != 0 mod P, lc_y(G)(x0) != 0 too, so G(x0, y)
# keeps its y-degree mod P and divides both a(x0, y) and b(x0, y): their
# gcd over GF(P) has degree >= 1. A degree-0 gcd therefore rules out every
# common factor of positive degree in the main variable, and certifying
# both variables rules out every nonconstant common factor. The
# certificate can only answer "coprime" or "don't know"; a "not coprime"
# answer always comes from the exact chain below.
#
# The points are large on purpose: at small integers coprime pairs often
# coincide (x/2 - 3 and x/2 - 3*y/2 are equal at y = 2).
#
# References: W. S. Brown, "On Euclid's algorithm and the computation of
# polynomial greatest common divisors", JACM 18 (1971); J. von zur Gathen
# and J. Gerhard, Modern Computer Algebra, ch. 6.

_P = (1 << 61) - 1
_POINTS = (0x2545F4914F6CDD1D % _P, 0x5851F42D4C957F2D % _P,
           0x14057B7EF767814F % _P)


def _reduce_mod_p(p: BiPoly) -> dict[tuple[int, int], int] | None:
    """The terms of p mod P, or None when P divides a denominator."""
    out: dict[tuple[int, int], int] = {}
    for e, c in p.terms.items():
        den = c.denominator % _P
        if not den:
            return None
        out[e] = c.numerator * pow(den, -1, _P) % _P
    return out


def _specialize(terms: dict[tuple[int, int], int], axis: int, point: int,
                degree: int) -> list[int]:
    """Dense coefficients in variable `axis`, the other variable at `point`."""
    out = [0] * (degree + 1)
    for e, c in terms.items():
        out[e[axis]] += c * pow(point, e[1 - axis], _P)
    out = [c % _P for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _gf_gcd_degree(u: list[int], v: list[int]) -> int:
    """Degree of gcd(u, v) over GF(P); u, v trimmed, not both empty."""
    while v:
        inv = pow(v[-1], -1, _P)
        dv = len(v) - 1
        u = list(u)
        while len(u) > dv:
            factor = u[-1] * inv % _P
            shift = len(u) - 1 - dv
            for b, cb in enumerate(v):
                u[shift + b] = (u[shift + b] - factor * cb) % _P
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) - 1


def certify_coprime(a: BiPoly, b: BiPoly) -> bool:
    """True only when the modular certificate proves a, b coprime.

    False means "not proved", never "shares a factor".
    """
    if not a.terms or not b.terms:
        return False
    ta, tb = _reduce_mod_p(a), _reduce_mod_p(b)
    if ta is None or tb is None:
        return False
    for axis in (0, 1):
        da = max(e[axis] for e in a.terms)
        db = max(e[axis] for e in b.terms)
        if da == 0 or db == 0:
            continue
        for point in _POINTS:
            ua = _specialize(ta, axis, point, da)
            ub = _specialize(tb, axis, point, db)
            if len(ua) - 1 < da and len(ub) - 1 < db:
                continue
            if _gf_gcd_degree(ua, ub) == 0:
                break
        else:
            return False
    return True


# -- exact coprimality: the subresultant chain -------------------------------
#
# The exact test runs Collins' subresultant chain over the integers. Each
# side is scaled by the lcm of its denominators into Z[x, y] (a nonzero
# constant factor does not change the answer) and written as a polynomial
# in a main variable whose coefficients are dense integer lists in the
# other variable (index = power). Each chain step takes the pseudo-
# remainder prem(A, B) and divides it exactly by g*h^delta in that ring,
# which keeps the coefficients as small as the subresultants themselves.
# The chain ends in zero exactly when the resultant in the main variable
# vanishes, that is, when the sides share a factor of positive degree in
# it. Every nonconstant factor has positive degree in some variable, so
# running the chain in each variable in which both sides have positive
# degree decides coprimality; a factor free of the second variable is
# caught by the chain in the first. An inexact division, impossible in
# theory, raises NotDivisible.
#
# References: G. E. Collins, "Subresultants and reduced polynomial
# remainder sequences", JACM 14 (1967); W. S. Brown and J. F. Traub, "On
# Euclid's algorithm and the theory of subresultants", JACM 18 (1971).


def _zx_mul(u: list[int], v: list[int]) -> list[int]:
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for a, ca in enumerate(u):
        for b, cb in enumerate(v):
            out[a + b] += ca * cb
    return out


def _zx_pow(u: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = _zx_mul(out, u)
    return out


def _zx_sub(u: list[int], v: list[int]) -> list[int]:
    out = u + [0] * (len(v) - len(u))
    for b, cb in enumerate(v):
        out[b] -= cb
    while out and not out[-1]:
        out.pop()
    return out


def _zx_div(u: list[int], d: list[int]) -> list[int]:
    """u / d in Z[x]; raises NotDivisible when d does not divide u."""
    u = list(u)
    out = [0] * max(len(u) - len(d) + 1, 0)
    while len(u) >= len(d):
        c, r = divmod(u[-1], d[-1])
        if r:
            raise NotDivisible("inexact division in the subresultant chain")
        shift = len(u) - len(d)
        out[shift] = c
        for b, cb in enumerate(d):
            u[shift + b] -= c * cb
        while u and not u[-1]:
            u.pop()
    if u:
        raise NotDivisible("inexact division in the subresultant chain")
    return out


def _integer_rows(p: BiPoly, axis: int) -> list[list[int]]:
    """p times its denominators' lcm, as coefficients in variable `axis`."""
    (p,), _ = integer_numerators(p)
    top = max(e[axis] for e in p.terms)
    rows: list[list[int]] = [[] for _ in range(top + 1)]
    for e, c in p.terms.items():
        row = rows[e[axis]]
        row.extend([0] * (e[1 - axis] + 1 - len(row)))
        row[e[1 - axis]] = c
    return rows


def _prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """lc(b)^(deg a - deg b + 1) * a mod b; deg a >= deg b."""
    lead, db = b[-1], len(b) - 1
    r, e = list(a), len(a) - db
    while len(r) > db:
        c = r.pop()
        shift = len(r) - db
        r = [_zx_mul(lead, x) for x in r]
        for k in range(db):
            r[shift + k] = _zx_sub(r[shift + k], _zx_mul(c, b[k]))
        while r and not r[-1]:
            r.pop()
        e -= 1
    f = _zx_pow(lead, e)
    return [_zx_mul(f, x) for x in r]


def _chain(a: list[list[int]], b: list[list[int]]):
    """Collins' subresultant chain of a, b (deg a >= deg b >= 1): yields
    each reduced remainder, up to the first of degree 0 or the zero one."""
    g = h = [1]
    while True:
        delta = len(a) - len(b)
        d = _zx_mul(g, _zx_pow(h, delta))
        a, b = b, [_zx_div(x, d) for x in _prem(a, b)]
        yield b
        if len(b) <= 1:
            return
        g = a[-1]
        if delta:
            h = _zx_div(_zx_pow(g, delta), _zx_pow(h, delta - 1))


def _subresultant_coprime(a: BiPoly, b: BiPoly) -> bool:
    """Exact coprimality of two nonzero polynomials (no certificate)."""
    for axis in (0, 1):
        ra, rb = _integer_rows(a, axis), _integer_rows(b, axis)
        if len(ra) > 1 and len(rb) > 1:
            for last in _chain(*sorted((ra, rb), key=len, reverse=True)):
                pass
            if not last:
                return False  # the resultant vanishes: a common factor
    return True


def is_coprime(a: BiPoly, b: BiPoly) -> bool:
    """True when a and b share no nonconstant polynomial factor.

    A zero side is decided directly. Otherwise the modular certificate
    settles most coprime pairs, and the exact subresultant chain decides
    the rest; only that chain reports a shared factor.
    """
    if not a.terms and not b.terms:
        raise BothZero("is_coprime needs at least one nonzero polynomial")
    if not a.terms:
        return b.total_degree() == 0
    if not b.terms:
        return a.total_degree() == 0
    return certify_coprime(a, b) or _subresultant_coprime(a, b)
