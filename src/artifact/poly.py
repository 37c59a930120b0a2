"""Exact sparse polynomials in two variables over the rationals.

Everything downstream (conjugation, chart algebra, curve images) runs on
these. Coefficients are `fractions.Fraction`, terms live in a dict keyed
by exponent pairs, and instances are never mutated after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

_ZERO = Fraction(0)


class NotDivisible(ArithmeticError):
    """Exact division was requested but a nonzero remainder is left."""


class BothZero(ValueError):
    """The operation needs at least one nonzero polynomial."""


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients.

    ``terms`` maps an exponent pair ``(i, j)`` to the coefficient of
    ``first**i * second**j``. Zero coefficients are dropped on
    construction, so the zero polynomial has an empty dict. Treat
    instances as immutable; every operation returns a new one.
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

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self.terms.items())

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
            terms[e] = terms.get(e, _ZERO) + c
        return BiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return BiPoly(self.vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, _ZERO) + c1 * c2
        return BiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
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
        return BiPoly(self.vars, out)

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
        return [(d, BiPoly(self.vars, t)) for d, t in sorted(by_degree.items())]

    def scale_vars(self, cx, cy) -> "BiPoly":
        """The polynomial p(cx*first, cy*second) in the same variables."""
        cx, cy = Fraction(cx), Fraction(cy)
        return BiPoly(self.vars, {
            (i, j): c * cx**i * cy**j for (i, j), c in self.terms.items()})

    def swap_vars(self) -> "BiPoly":
        """The polynomial p(second, first), still over the same variable pair."""
        return BiPoly(self.vars, {(j, i): c for (i, j), c in self.terms.items()})

    def with_vars(self, vars: tuple[str, str]) -> "BiPoly":
        """Same terms, renamed variables."""
        return BiPoly(vars, self.terms)

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
            quot[(i, j - 2)] = quot.get((i, j - 2), _ZERO) + c
            dst[i + 2] = dst.get(i + 2, _ZERO) - c
    rem = {(i, j): c for j, row in cols.items() for i, c in row.items() if c}
    return BiPoly(p.vars, quot), BiPoly(p.vars, rem)


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
    """
    if not p.terms:
        return math.inf
    k = 0
    while True:
        q, r = divmod_circle(p)
        if r.terms:
            return k
        k += 1
        p = q


# -- coprimality ------------------------------------------------------------
#
# The test runs a content-stripped pseudo-remainder sequence in the second
# variable, with coefficients in the univariate ring of the first variable,
# plus a gcd of the two contents. Between them these detect every
# nonconstant common factor: the content gcd catches factors free of the
# second variable, the remainder sequence catches the rest.
#
# Univariate polynomials over the rationals are represented as dense
# coefficient lists (index = power of the first variable); a polynomial
# with the second variable present is a dict {power of second: list}.


def _x_trim(u: list[Fraction]) -> list[Fraction]:
    while u and not u[-1]:
        u.pop()
    return u


def _x_mul(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    if not u or not v:
        return []
    out = [_ZERO] * (len(u) + len(v) - 1)
    for a, ca in enumerate(u):
        if not ca:
            continue
        for b, cb in enumerate(v):
            out[a + b] += ca * cb
    return _x_trim(out)

def _x_sub(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    out = list(u) + [_ZERO] * (len(v) - len(u))
    for b, cb in enumerate(v):
        out[b] -= cb
    return _x_trim(out)


def _x_rem(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    u = list(u)
    dv = len(v) - 1
    lead = v[-1]
    while len(u) - 1 >= dv and u:
        factor = u[-1] / lead
        shift = len(u) - 1 - dv
        for b, cb in enumerate(v):
            u[shift + b] -= factor * cb
        _x_trim(u)
    return u


def _x_gcd(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    u, v = _x_trim(list(u)), _x_trim(list(v))
    while v:
        u, v = v, _x_rem(u, v)
    if u:
        lead = u[-1]
        u = [c / lead for c in u]
    return u


def _x_div_exact(u: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    if not u:
        return []
    out = [_ZERO] * (len(u) - len(d) + 1)
    u = list(u)
    lead = d[-1]
    while u and len(u) >= len(d):
        factor = u[-1] / lead
        out[len(u) - len(d)] = factor
        shift = len(u) - len(d)
        for b, cb in enumerate(d):
            u[shift + b] -= factor * cb
        _x_trim(u)
    if u:
        raise NotDivisible("inexact content division")
    return _x_trim(out)


def _to_rows(p: BiPoly) -> dict[int, list[Fraction]]:
    rows: dict[int, list[Fraction]] = {}
    for (i, j), c in p.terms.items():
        row = rows.setdefault(j, [])
        if len(row) <= i:
            row.extend([_ZERO] * (i + 1 - len(row)))
        row[i] = c
    return {j: _x_trim(row) for j, row in rows.items() if _x_trim(row)}


def _rows_content(rows: dict[int, list[Fraction]]) -> list[Fraction]:
    g: list[Fraction] = []
    for row in rows.values():
        g = _x_gcd(g, row)
        if len(g) == 1:
            break
    return g


def _rows_primitive(rows, content):
    if len(content) == 1:
        return rows
    return {j: _x_div_exact(row, content) for j, row in rows.items()}


def _pseudo_mod(A: dict[int, list[Fraction]], B: dict[int, list[Fraction]]):
    """Remainder of A under fraction-free division by B in the second
    variable; equals lc(B)^t * A mod B for some t, which is enough here
    because the caller strips content anyway."""
    A = {j: list(r) for j, r in A.items()}
    db = max(B)
    lead_b = B[db]
    while A and max(A) >= db:
        da = max(A)
        lead_a = A.pop(da)
        shifted = {j + (da - db): r for j, r in B.items() if j != db}
        keys = set(A) | set(shifted.keys())
        new: dict[int, list[Fraction]] = {}
        for j in keys:
            term = _x_mul(lead_b, A.get(j, []))
            term = _x_sub(term, _x_mul(lead_a, shifted.get(j, [])))
            if term:
                new[j] = term
        A = new
    return A


# -- modular coprimality certificate ------------------------------------------
#
# A cheap sufficient test that runs before the exact remainder sequence.
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
# answer always comes from the exact sequence below.
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


def is_coprime(a: BiPoly, b: BiPoly) -> bool:
    """True when a and b share no nonconstant polynomial factor.

    A zero side is decided directly. Otherwise the modular certificate
    settles most coprime pairs, and the exact remainder sequence decides
    the rest; only that sequence reports a shared factor.
    """
    if not a.terms and not b.terms:
        raise BothZero("is_coprime needs at least one nonzero polynomial")
    if not a.terms:
        return b.total_degree() == 0
    if not b.terms:
        return a.total_degree() == 0
    if certify_coprime(a, b):
        return True
    rows_a = _to_rows(a)
    rows_b = _to_rows(b)
    content_a = _rows_content(rows_a)
    content_b = _rows_content(rows_b)
    if len(_x_gcd(content_a, content_b)) > 1:
        return False
    A = _rows_primitive(rows_a, content_a)
    B = _rows_primitive(rows_b, content_b)
    # a primitive polynomial free of the second variable is a constant
    if max(A) == 0 or max(B) == 0:
        return True
    if max(A) < max(B):
        A, B = B, A
    while True:
        R = _pseudo_mod(A, B)
        if not R:
            return False  # the chain stabilized on a factor of positive degree
        R = _rows_primitive(R, _rows_content(R))
        if max(R) == 0:
            return True
        A, B = B, R
