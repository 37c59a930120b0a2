"""Exact sparse polynomials in two variables over the rationals.

Everything downstream (conjugation, chart algebra, curve images) runs on
these. Terms live in a dict keyed by exponent pairs, and instances are
never mutated after construction. Coefficients are `fractions.Fraction`
in every polynomial the core returns; inside, it runs the same operations
on `int` numerators (`integer_numerators`), and the coprimality test
works on residues mod a prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, count
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "BiPoly | None":
        """other when it is a BiPoly over the same variables, None for any
        other type; a BiPoly over other variables raises ValueError."""
        if not isinstance(other, BiPoly):
            return None
        if other.vars != self.vars:
            raise ValueError(
                f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return BiPoly._trusted(self.vars, terms)

    def __neg__(self) -> "BiPoly":
        return BiPoly._trusted(self.vars,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "BiPoly":
        """self - other in one pass, in the term order of self + (-other)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] - c if e in terms else -c
        return BiPoly._trusted(self.vars, terms)

    def __mul__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return BiPoly._trusted(self.vars,
                               _accumulate({}, self.terms, other.terms))

    # -- calculus and structure --------------------------------------------

    def evaluate(self, x, y):
        """Value at (x, y): exact for Fraction/int inputs, float otherwise."""
        total = _ZERO
        for (i, j), c in self.terms.items():
            total = total + c * x**i * y**j
        return total

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
        first, second = self.vars
        pieces: list[str] = []
        for i, j in sorted(self.terms, key=lambda e: (-(e[0] + e[1]), -e[0])):
            c = self.terms[i, j]
            num, den = c.numerator, c.denominator
            if num < 0:
                pieces.append(" - " if pieces else "-")
            elif pieces:
                pieces.append(" + ")
            factors = ([] if den == 1 and num in (1, -1) and i + j
                       else [f"{abs(num)}/{den}" if den != 1 else str(abs(num))])
            if i:
                factors.append(first if i == 1 else f"{first}^{i}")
            if j:
                factors.append(second if j == 1 else f"{second}^{j}")
            pieces.append("*".join(factors))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({self.vars[0]},{self.vars[1]}: {self.to_text()})"


def _accumulate(acc: dict, p: dict, q: dict) -> dict:
    """acc plus the product of the term dicts p and q, in place: terms of
    p outer, of q inner, each new key appended as it is first seen. The
    one polynomial product: BiPoly's and the transport's."""
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return acc


def _times(p: dict, q: dict) -> dict:
    """The product of two term dicts with its zero values dropped, in the
    term order of BiPoly's product."""
    return {e: c for e, c in _accumulate({}, p, q).items() if c}


def power(base, n: int, multiply):
    """base ** n for n >= 1 by repeated squaring, each product taken as
    multiply(a, b); the squarings fix the term order of the result."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else multiply(result, base)
        n >>= 1
        if n:
            base = multiply(base, base)
    return result


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


def _forms(p: BiPoly) -> dict[int, list]:
    """The homogeneous forms of p, keyed by degree d in first-seen order,
    each as its coefficient list: that of first**i * second**(d-i) at
    index i."""
    forms: dict[int, list] = {}
    for (i, j), c in p.terms.items():
        d = i + j
        if d not in forms:
            forms[d] = [0] * (d + 1)
        forms[d][i] = c
    return forms


def circle_valuation(p: BiPoly):
    """Largest k with s**k dividing p, s = first**2 + second**2; math.inf
    for the zero polynomial, which every power divides. As s is a form,
    s**k divides p exactly when it divides every homogeneous form of p.
    A multiple of s has no term of degree below 2, so such a term gives 0
    before any form is built."""
    if not p.terms:
        return math.inf
    if min(i + j for i, j in p.terms) < 2:
        return 0
    return _strip_forms(*_forms(p).values())[0]


def _strip_forms(*forms: list) -> tuple:
    """(r, *forms / s^r) for the largest r with s^r dividing every one of
    the forms, s = u^2 + v^2; there is one at least, and not all are
    zero. A form of degree d is its coefficient list a, that of
    u^i * v^(d-i) at index i, and a / s is b_i = a_(i+2) - b_(i+2), taken
    from the top, with the remainder (a_0 - b_0, a_1 - b_1); a form of
    degree below 2 ends the division."""
    r = 0
    while True:
        quotients = []
        for a in forms:
            if len(a) < 3:
                return (r, *forms)
            b = a[2:]
            for i in range(len(b) - 3, -1, -1):
                b[i] -= b[i + 2]
            if a[0] != b[0] or a[1] != (b[1] if len(b) > 1 else 0):
                return (r, *forms)
            quotients.append(b)
        forms, r = quotients, r + 1


# -- coprimality: the resultant at enough points modulo one prime ----------
#
# Every nonconstant common factor has positive degree in some variable, so
# take each variable in which both sides have positive degree as the main
# one, y say, with a and b scaled into Z[x, y]. They share a factor of
# positive y-degree exactly when R(x) = Res_y(a, b) is the zero polynomial.
#   - deg R <= D = deg_x a * deg_y b + deg_x b * deg_y a, and expanding the
#     Sylvester determinant, each row bounded by its sum, bounds every
#     coefficient of R by B = |a|^(deg_y b) * |b|^(deg_y a), |.| the sum of
#     the absolute values of the coefficients.
#   - Where the leading coefficient in y of a or of b is nonzero mod a
#     prime p at x0, R(x0) is the resultant of a(x0, y) and b(x0, y) up to
#     a power of that coefficient, so R(x0) = 0 mod p exactly when their
#     gcd over GF(p) has positive degree.
#   - One degree-0 gcd, at any prime, proves R != 0: coprime in y.
#   - With p > B, positive-degree gcds at D + 1 such points prove R = 0
#     mod p, hence over Z: a shared factor. That p exceeds every
#     coefficient of a and b, so a leading coefficient vanishes mod p at no
#     more points than its degree, and the loop ends. p is the least prime
#     of _MERSENNE_EXPONENTS above B; a larger B raises ArithmeticError.
# The certificate runs first: the same loop at P = 2^61 - 1 on the sides
# reduced as num * den^-1 (skipped when P divides a denominator), over
# only the three _POINTS. It can only prove "coprime", and settles most
# coprime pairs. It must stop after them: coprime sides can share a factor
# mod P (xy - 1 and xy - 1 + P*x^2 are equal mod P), and then no point
# gives a degree-0 gcd.
# The points are large on purpose: at small integers coprime pairs often
# coincide (x/2 - 3 and x/2 - 3*y/2 are equal at y = 2).
#
# References: G. E. Collins, "The calculation of multivariate polynomial
# resultants", JACM 18 (1971); J. von zur Gathen and J. Gerhard, Modern
# Computer Algebra, ch. 6.

_P = (1 << 61) - 1
_POINTS = (0x2545F4914F6CDD1D % _P, 0x5851F42D4C957F2D % _P,
           0x14057B7EF767814F % _P)
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423)


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
                degree: int, prime: int) -> list[int]:
    """Coefficients mod prime in variable `axis`, the other at `point`."""
    out = [0] * (degree + 1)
    for e, c in terms.items():
        out[e[axis]] += c * pow(point, e[1 - axis], prime)
    out = [c % prime for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _gf_gcd_degree(u: list[int], v: list[int], prime: int) -> int:
    """Degree of gcd(u, v) over GF(prime); u, v trimmed, not both empty.
    A step takes lc(v)*u - lc(u)*x^s*v, with no inverse: one costs as
    much as 16 to 50 products mod the primes of the table."""
    while v:
        lead, dv = v[-1], len(v) - 1
        while len(u) > dv:
            factor, shift = u[-1], len(u) - 1 - dv
            u = [c * lead % prime for c in u[:-1]]  # the top term cancels
            for b in range(dv):
                u[shift + b] = (u[shift + b] - factor * v[b]) % prime
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) - 1


def _resultant_vanishes(ta: dict, tb: dict, axis: int, da: int, db: int,
                        prime: int, points, needed: int) -> bool:
    """The loop of the comment above on the terms of two sides of degrees
    da, db >= 1 in variable `axis`: False at the first usable point whose
    gcd has degree 0, True after `needed` usable points or all `points`."""
    for point in points:
        ua = _specialize(ta, axis, point, da, prime)
        ub = _specialize(tb, axis, point, db, prime)
        if len(ua) <= da and len(ub) <= db:
            continue  # both leading coefficients vanish at this point
        if _gf_gcd_degree(ua, ub, prime) == 0:
            return False
        needed -= 1
        if not needed:
            break
    return True


def _resultant_bounds(a: BiPoly, b: BiPoly, axis: int, da: int,
                      db: int) -> tuple[int, int]:
    """B and D of the comment above for a, b in Z[x, y] of degrees da, db
    in variable `axis`: bounds on the coefficients and on the degree of
    their resultant in that variable."""
    xa, xb = (max(e[1 - axis] for e in p.terms) for p in (a, b))
    na, nb = (sum(map(abs, p.terms.values())) for p in (a, b))
    return na**db * nb**da, xa * db + xb * da


def _shares_factor(a: BiPoly, b: BiPoly, axis: int, da: int,
                   db: int) -> bool:
    """Whether a and b, of positive degrees da, db in variable `axis`,
    share a factor of positive degree in it: the exact stage, after the
    certificate. ArithmeticError when no prime of the table exceeds B."""
    (a,), _ = integer_numerators(a)
    (b,), _ = integer_numerators(b)
    bound, degree = _resultant_bounds(a, b, axis, da, db)
    prime = next((m for m in ((1 << e) - 1 for e in _MERSENNE_EXPONENTS)
                  if m > bound), None)
    if prime is None:
        raise ArithmeticError(
            f"the coprimality test needs a prime above 2^"
            f"{bound.bit_length() - 1}, beyond its largest, 2^"
            f"{_MERSENNE_EXPONENTS[-1]} - 1")
    # |coefficient| <= bound < prime, so the terms are already residues
    return _resultant_vanishes(a.terms, b.terms, axis, da, db, prime,
                               chain(_POINTS, count()), degree + 1)


def is_coprime(a: BiPoly, b: BiPoly) -> bool:
    """True when a and b share no nonconstant polynomial factor.

    A zero side is decided directly. Otherwise, in each variable where
    both sides have positive degree, the certificate at 2^61 - 1 settles
    most pairs and `_shares_factor` the rest, raising ArithmeticError when
    it would need a prime beyond its table.
    """
    if not a.terms and not b.terms:
        raise BothZero("is_coprime needs at least one nonzero polynomial")
    if not a.terms:
        return b.total_degree() == 0
    if not b.terms:
        return a.total_degree() == 0
    ta, tb = _reduce_mod_p(a), _reduce_mod_p(b)
    for axis in (0, 1):
        da = max(e[axis] for e in a.terms)
        db = max(e[axis] for e in b.terms)
        if not (da and db):
            continue
        if ta is not None and tb is not None and not _resultant_vanishes(
                ta, tb, axis, da, db, _P, _POINTS, len(_POINTS)):
            continue
        if _shares_factor(a, b, axis, da, db):
            return False
    return True
