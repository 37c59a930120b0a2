"""Exact polynomial arithmetic: ring ops, circle division, coprimality."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    bipolys,
    case_by_name,
    circled,
    coefficients,
    const,
    nonzero_bipolys,
    planted_factors,
    rational_fields,
    sympy_coprime,
)
from oracles import homogeneous_components, loop_circle_valuation, partial
from artifact.conjugate import conjugate
from artifact.corpus import load_cases
from artifact.parse import parse_polynomial
from artifact import poly as poly_module
from artifact.poly import (
    _MERSENNE_EXPONENTS,
    _P,
    _POINTS,
    _resultant_bounds,
    _shares_factor,
    BiPoly,
    BothZero,
    NotDivisible,
    circle_valuation,
    divide_exact_by_circle,
    divmod_circle,
    integer_numerators,
    is_coprime,
    power,
)

XY = ("x", "y")
UV = ("u", "v")


def poly(text, vars=XY):
    return parse_polynomial(text, vars)


class TestRingOps:
    def test_binomial_square(self):
        assert poly("x + y") * poly("x + y") == poly("x^2 + 2*x*y + y^2")

    def test_additive_identity(self):
        p = poly("3*x^2*y - 1/2*y + 7")
        assert p + BiPoly(XY) == p

    def test_circle_square(self):
        s = poly("x^2 + y^2")
        assert s * s == poly("x^4 + 2*x^2*y^2 + y^4")

    def test_scalar_and_power(self):
        p = poly("x - y")
        assert const(2) * p == poly("2*x - 2*y")
        assert power(p, 3, BiPoly.__mul__) == poly(
            "x^3 - 3*x^2*y + 3*x*y^2 - y^3")
        assert power(p, 1, BiPoly.__mul__) == p

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            poly("x") + poly("u", UV)

    @given(bipolys(), bipolys(), bipolys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()

    @given(bipolys())
    def test_no_zero_coefficients_stored(self, p):
        assert all(c != 0 for c in p.terms.values())


class TestEvaluate:
    def test_point_on_circle(self):
        assert poly("x^2 + y^2 - 4").evaluate(2, 0) == 0

    def test_hyperbola_point(self):
        assert poly("x*y - 1").evaluate(1, 1) == 0

    def test_zero_polynomial(self):
        assert BiPoly(XY).evaluate(7, -3) == 0

    def test_exact_rational(self):
        value = poly("1/4*x^2 - y").evaluate(Fraction(1, 3), Fraction(2))
        assert value == Fraction(1, 36) - 2

    def test_float_path(self):
        value = poly("x^2 + y^2").evaluate(0.5, 0.25)
        assert value == pytest.approx(0.3125)


class TestHomogeneousComponents:
    def test_cubic_with_linear_part(self):
        p = poly("-y - x*(x^2 + y^2 - 1)")
        parts = dict(homogeneous_components(p))
        assert set(parts) == {1, 3}
        assert parts[1] == poly("x - y")
        assert parts[3] == poly("-x^3 - x*y^2")

    def test_term_grouping(self):
        parts = dict(homogeneous_components(poly("x^2 + y - 3")))
        assert parts[0] == const(-3)
        assert parts[1] == poly("y")
        assert parts[2] == poly("x^2")

    def test_homogeneous_input_is_single_component(self):
        p = poly("x^3 - 2*x*y^2")
        assert homogeneous_components(p) == [(3, p)]

    @given(bipolys())
    def test_sum_recovers_polynomial(self, p):
        total = BiPoly(XY)
        degrees = []
        for d, part in homogeneous_components(p):
            degrees.append(d)
            total = total + part
        assert total == p
        assert degrees == sorted(degrees)


class TestCircleDivision:
    def test_valuation_examples(self):
        assert circle_valuation(poly("-u^3 - u*v^2", UV)) == 1
        assert circle_valuation(poly("u^3", UV)) == 0
        assert circle_valuation(poly("7*(u^2 + v^2)^2", UV)) == 2

    def test_zero_polynomial_sentinel(self):
        assert circle_valuation(BiPoly(UV)) == math.inf

    def test_exact_division(self):
        assert divide_exact_by_circle(poly("-u^3 - u*v^2", UV)) == poly("-u", UV)
        s = poly("u^2 + v^2", UV)
        assert divide_exact_by_circle(s * s) == s

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact_by_circle(poly("u^3", UV))

    @given(bipolys(), st.integers(0, 3))
    def test_valuation_shifts_under_circle_powers(self, p, k):
        assert circle_valuation(circled(p, k)) == k + circle_valuation(p)

    @given(st.one_of(bipolys(), coefficients().map(const)), st.integers(0, 3))
    def test_valuation_matches_the_full_loop(self, p, k):
        # p * s^k covers the zero polynomial (math.inf) and, for a constant
        # p, pure circle powers; the integer numerators give the same k
        p = circled(p, k)
        assert circle_valuation(p) == loop_circle_valuation(p)
        (ints,), _ = integer_numerators(p)
        assert circle_valuation(ints) == loop_circle_valuation(p)

    def test_valuation_matches_the_full_loop_on_the_corpus(self):
        for case in load_cases():
            for sys in (case.system, conjugate(case.system).conjugate):
                for side in sys.rhs:
                    assert circle_valuation(side) == \
                        loop_circle_valuation(side), case.name

    @given(rational_fields(), st.integers(0, 4),
           st.one_of(st.just(BiPoly(XY)), bipolys(max_terms=1)))
    def test_valuation_matches_the_full_loop_on_fields(self, sys, k, term):
        # each side times s^k, and with a term added that may break it
        for side in sys.rhs:
            for p in (circled(side, k), circled(side, k) + term):
                assert circle_valuation(p) == loop_circle_valuation(p)

    @given(bipolys())
    def test_divide_undoes_multiply(self, p):
        s = BiPoly(XY, {(2, 0): 1, (0, 2): 1})
        assert divide_exact_by_circle(p * s) == p

    @given(bipolys())
    def test_divmod_reconstructs(self, p):
        s = BiPoly(XY, {(2, 0): 1, (0, 2): 1})
        q, r = divmod_circle(p)
        assert q * s + r == p
        assert all(j <= 1 for _, j in r.terms)


class TestCoprime:
    def test_distinct_variables(self):
        assert is_coprime(poly("x"), poly("y"))

    def test_shared_linear_factor(self):
        assert not is_coprime(poly("x*(x + y)"), poly("y*(x + y)"))

    def test_cubic_field_pair(self):
        p = poly("-y - x*(x^2 + y^2 - 1)")
        q = poly("x - y*(x^2 + y^2 - 1)")
        assert is_coprime(p, q)

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            is_coprime(BiPoly(XY), BiPoly(XY))

    def test_zero_against_constant_and_variable(self):
        assert is_coprime(BiPoly(XY), const(3))
        assert not is_coprime(BiPoly(XY), poly("x"))

    def test_shared_factor_free_of_second_variable(self):
        # common factor x is free of y, so the resultant in y stays
        # nonzero; the resultant in the first variable vanishes
        assert not is_coprime(poly("x*y + x"), poly("x*y^2 - x"))

    @given(nonzero_bipolys(), nonzero_bipolys(),
           nonzero_bipolys().filter(lambda g: (g.total_degree() or 0) >= 1))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_detected(self, p, q, g):
        assert not is_coprime(p * g, q * g)


@pytest.fixture
def exact_axes(monkeypatch):
    """The variables in which is_coprime ran the exact stage, in order."""
    axes = []
    real = poly_module._shares_factor

    def spy(a, b, axis, da, db):
        axes.append(axis)
        return real(a, b, axis, da, db)

    monkeypatch.setattr(poly_module, "_shares_factor", spy)
    return axes


class TestCoprimeDifferential:
    """is_coprime and its modular certificate against sympy.gcd."""

    @given(nonzero_bipolys(), nonzero_bipolys())
    @settings(max_examples=80, deadline=None)
    def test_random_pairs_agree_with_sympy(self, sympy, a, b):
        assert is_coprime(a, b) == sympy_coprime(sympy, a, b)

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)],
                             ids=["x-only", "y-only", "both"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_planted_factor_detected(self, sympy, axes, data):
        f = data.draw(planted_factors(axes), label="f")
        g = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="g")
        h = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="h")
        a, b = f * g, f * h
        assert not is_coprime(a, b)
        assert not sympy_coprime(sympy, a, b)

    def test_pair_equal_at_small_point_is_certified(self, exact_axes):
        # at y = 2 both sides are x/2 - 3
        assert is_coprime(poly("1/2*x - 3"), poly("1/2*x - 3/2*y"))
        assert exact_axes == []

    def test_corpus_partner_with_common_factor_uses_exact_path(
            self, exact_axes):
        case = case_by_name("4.9->4.10")
        u, v = conjugate(case.system, out_vars=case.conjugate_vars
                         ).conjugate.rhs
        assert not is_coprime(u, v)
        assert exact_axes == [0]

    def test_factor_hidden_at_every_point_is_not_certified(self,
                                                           exact_axes):
        # G's leading coefficient in each variable vanishes at every fixed
        # point, so G(x0, y) and G(x, y0) are constants there; skipping
        # such points is what keeps the certificate sound
        x, y = poly("x"), poly("y")
        lead_x, lead_y = const(1), const(1)
        for t in _POINTS:
            lead_x, lead_y = lead_x * (x - const(t)), lead_y * (y - const(t))
        g = lead_x * lead_y + const(1)
        assert not is_coprime(g * x, g * y)
        assert exact_axes == [0]

    def test_gives_up_when_prime_divides_a_denominator(self, exact_axes):
        a = poly("x + y") + const(Fraction(1, _P))
        assert is_coprime(a, poly("x - y"))
        assert exact_axes == [0, 1]

    def test_zero_side_is_never_certified(self, monkeypatch):
        for name in ("_resultant_vanishes", "_shares_factor"):
            monkeypatch.setattr(poly_module, name, None)
        assert is_coprime(BiPoly(XY), const(3))


def _exactly_coprime(a, b):
    """The exact stage alone, in each variable where both sides have
    positive degree."""
    degrees = [[max(e[axis] for e in p.terms) for p in (a, b)]
               for axis in (0, 1)]
    return not any(_shares_factor(a, b, axis, *degrees[axis])
                   for axis in (0, 1) if all(degrees[axis]))


class TestExactStage:
    """The exact stage on its own, without the certificate in front of it.

    Through is_coprime the certificate settles almost every coprime pair
    first, so the exact stage's "coprime" answer is checked here directly.
    """

    @given(nonzero_bipolys(), nonzero_bipolys())
    @settings(max_examples=80, deadline=None)
    def test_random_pairs_agree_with_sympy(self, sympy, a, b):
        assert _exactly_coprime(a, b) == sympy_coprime(sympy, a, b)

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)],
                             ids=["x-only", "y-only", "both"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_planted_factor_found(self, sympy, axes, data):
        f = data.draw(planted_factors(axes), label="f")
        g = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="g")
        h = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="h")
        assert not _exactly_coprime(f * g, f * h)
        assert not sympy_coprime(sympy, f * g, f * h)

    @given(nonzero_bipolys(max_exp=3, max_terms=4),
           nonzero_bipolys(max_exp=3, max_terms=4))
    @settings(max_examples=30, deadline=None)
    def test_circle_factor(self, sympy, g, h):
        s = poly("x^2 + y^2")
        assert not _exactly_coprime(s * g, s * h)
        assert _exactly_coprime(s * g, h) == sympy_coprime(sympy, s * g, h)

    def test_certified_pairs_are_coprime(self):
        p = poly("-y - x*(x^2 + y^2 - 1)")
        q = poly("x - y*(x^2 + y^2 - 1)")
        assert _exactly_coprime(p, q)

    def test_corpus_partner_with_common_factor(self):
        case = case_by_name("4.9->4.10")
        u, v = conjugate(case.system, out_vars=case.conjugate_vars
                         ).conjugate.rhs
        assert not _exactly_coprime(u, v)

    def test_prime_exceeds_the_bound(self):
        # the sides are equal mod 2^61 - 1, and their resultant in either
        # variable is +-(2^61 - 1), not 0
        a, b = poly("y - x"), poly("y - x") - const(_P)
        assert _exactly_coprime(a, b)
        assert is_coprime(a, b)

    def test_leading_coefficient_divisible_by_2_61_minus_1(self):
        # 2^61 - 1 divides the leading coefficient in x of the second side,
        # and the sides are equal mod it: no point gives a degree-0 gcd
        # there, so only the cap on the certificate's points ends that stage
        a = poly("x*y - 1")
        b = a + const(_P) * poly("x^2")
        started = time.monotonic()
        assert _exactly_coprime(a, b)
        assert is_coprime(a, b)
        assert time.monotonic() - started < 5.0

    @given(nonzero_bipolys(max_exp=3, max_terms=4),
           nonzero_bipolys(max_exp=3, max_terms=4), st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_resultant_within_the_bounds(self, sympy, a, b, axis):
        (a,), _ = integer_numerators(a)
        (b,), _ = integer_numerators(b)
        da, db = (max(e[axis] for e in p.terms) for p in (a, b))
        assume(da and db)
        bound, degree = _resultant_bounds(a, b, axis, da, db)
        x, y = sympy.symbols("x y")
        main, other = (x, y) if axis == 0 else (y, x)

        def expr(p):
            return sum(c * x**i * y**j for (i, j), c in p.terms.items())

        r = sympy.Poly(sympy.resultant(expr(a), expr(b), main), other)
        assert r.is_zero or r.degree() <= degree
        assert all(abs(c) <= bound for c in r.all_coeffs())

    def test_table_entries_are_prime(self, sympy):
        assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
        for e in _MERSENNE_EXPONENTS:
            assert sympy.isprime((1 << e) - 1), e

    def test_bound_beyond_the_table_is_refused(self, monkeypatch):
        monkeypatch.setattr(poly_module, "_MERSENNE_EXPONENTS", (61,))
        f = poly("x - 2*y + 1")
        a = f * poly("1000*x^2 + 999*y + 1")
        b = f * poly("999*y^2 - 1000*x + 7")
        with pytest.raises(ArithmeticError, match="2\\^61 - 1"):
            is_coprime(a, b)


class TestCanonicalText:
    def test_term_order(self):
        assert poly("3*u*v^2 - u^3", UV).to_text() == "-u^3 + 3*u*v^2"

    def test_rational_coefficients(self):
        assert poly("-2*v + 1/4*u^2", UV).to_text() == "1/4*u^2 - 2*v"

    def test_constants_and_zero(self):
        assert const(Fraction(-3, 2)).to_text() == "-3/2"
        assert BiPoly(XY).to_text() == "0"

    def test_unit_coefficients_are_bare(self):
        assert poly("y - x").to_text() == "-x + y"

    @given(bipolys(UV, coefs=st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        coefficients(bound=12, max_denominator=9))))
    @example(BiPoly(UV, {(0, 0): -1, (1, 0): -1, (0, 1): 1}))
    @example(BiPoly(UV, {(0, 0): 1, (2, 1): Fraction(-7, 3)}))
    @example(BiPoly(UV, {(0, 0): Fraction(-1, 2)}))
    def test_matches_the_fraction_formatter(self, p):
        assert p.to_text() == _ref_to_text(p)
        assert repr(p) == f"BiPoly(u,v: {p.to_text()})"
        # the core's int form prints as the Fraction form times D
        (scaled,), d = integer_numerators(p)
        assert scaled.to_text() == _ref_to_text(const(d, UV) * p)


# -- reference formatter --------------------------------------------------------
#
# to_text written on Fraction values (abs, comparisons and str(Fraction));
# the library reads numerator and denominator instead, which ints also have.


def _ref_term_text(vars, c, e):
    factors = []
    for name, exp in zip(vars, e):
        if exp == 1:
            factors.append(name)
        elif exp > 1:
            factors.append(f"{name}^{exp}")
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, str(c))
    return "*".join(factors)


def _ref_to_text(p):
    if not p.terms:
        return "0"
    pieces = []
    for e in sorted(p.terms, key=lambda e: (-(e[0] + e[1]), -e[0])):
        c = p.terms[e]
        body = _ref_term_text(p.vars, abs(c), e)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


# -- reference ring operations ------------------------------------------------
#
# The straightforward versions: each builds a plain dict, starting every new
# key from Fraction(0), and hands it to the public validating constructor.
# The library builds its results through BiPoly._trusted instead; the tests
# below require the same terms in the same order, since term order is output.

_ZERO = Fraction(0)


def _ref_add(a, b):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, _ZERO) + c
    return BiPoly(a.vars, terms)


def _ref_neg(a):
    return BiPoly(a.vars, {e: -c for e, c in a.terms.items()})


def _ref_sub(a, b):
    return _ref_add(a, _ref_neg(b))


def _ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, _ZERO) + c1 * c2
    return BiPoly(a.vars, out)


def _ref_pow(a, n):
    result, base = const(1, a.vars), a
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        n >>= 1
        if n:
            base = _ref_mul(base, base)
    return result


def _ref_homogeneous_components(a):
    by_degree = {}
    for (i, j), c in a.terms.items():
        by_degree.setdefault(i + j, {})[(i, j)] = c
    return [(d, BiPoly(a.vars, t)) for d, t in sorted(by_degree.items())]


def _ref_scale_vars(a, cx, cy):
    cx, cy = Fraction(cx), Fraction(cy)
    return BiPoly(a.vars, {
        (i, j): c * cx**i * cy**j for (i, j), c in a.terms.items()})


def _ref_divmod_circle(p):
    cols = {}
    for (i, j), c in p.terms.items():
        cols.setdefault(j, {})[i] = c
    quot = {}
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


def _same(result, reference, *operands):
    """Equal terms in equal order, canonical types, and no shared dict."""
    assert result.vars == reference.vars
    assert list(result.terms.items()) == list(reference.terms.items())
    assert all(type(v) is str for v in result.vars)
    for (i, j), c in result.terms.items():
        assert type(i) is int and type(j) is int
        assert type(c) is Fraction and c != 0
    for p in operands:
        assert result.terms is not p.terms


_scalars = st.one_of(st.integers(-4, 4), coefficients())


class TestTrustedRingOps:
    @given(bipolys(), bipolys())
    def test_add_and_sub(self, a, b):
        _same(a + b, _ref_add(a, b), a, b)
        _same(a - b, _ref_sub(a, b), a, b)
        _same(-a, _ref_neg(a), a)

    @given(bipolys(), _scalars)
    def test_scalar_add_and_sub(self, a, k):
        k = const(k)
        _same(a + k, _ref_add(a, k), a)
        _same(k + a, _ref_add(k, a), a)
        _same(a - k, _ref_sub(a, k), a)
        _same(k - a, _ref_sub(k, a), a)

    @given(bipolys())
    def test_cancellation(self, a):
        _same(a - a, BiPoly(XY), a)
        _same(a + (-a), BiPoly(XY), a)
        assert (a - a).terms == {}

    @given(bipolys(), bipolys(), _scalars)
    def test_mul(self, a, b, k):
        _same(a * b, _ref_mul(a, b), a, b)
        _same(a * const(k), _ref_mul(a, const(k)), a)
        _same(const(k) * a, _ref_mul(const(k), a), a)

    @given(bipolys(max_terms=4), st.integers(1, 3))
    def test_pow(self, a, n):
        # n = 1 returns a itself, which is immutable
        _same(power(a, n, BiPoly.__mul__), _ref_pow(a, n))

    @given(bipolys(), st.sampled_from([0, 1]))
    def test_partial(self, sympy, a, axis):
        # against sympy.diff, which shares no code with the oracle
        x, y = sympy.symbols("x y")
        expr = sum((sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                    for (i, j), c in a.terms.items()), sympy.Integer(0))
        want = sympy.Poly(sympy.diff(expr, (x, y)[axis]), x, y).as_dict()
        got = partial(a, axis)
        assert got.vars == a.vars and got.terms is not a.terms
        assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
        assert got.terms == {e: Fraction(int(c.p), int(c.q))
                             for e, c in want.items()}

    @given(bipolys())
    def test_homogeneous_components(self, a):
        got = homogeneous_components(a)
        ref = _ref_homogeneous_components(a)
        assert [d for d, _ in got] == [d for d, _ in ref]
        for (_, part), (_, ref_part) in zip(got, ref):
            _same(part, ref_part, a)

    @given(bipolys(), _scalars, _scalars)
    def test_scale_vars(self, a, cx, cy):
        _same(a.scale_vars(cx, cy), _ref_scale_vars(a, cx, cy), a)
        _same(a.scale_vars(4, 4), _ref_scale_vars(a, 4, 4), a)

    @given(bipolys())
    def test_swap_and_rename(self, a):
        ref = BiPoly(a.vars, {(j, i): c for (i, j), c in a.terms.items()})
        _same(a.swap_vars(), ref, a)
        _same(a.with_vars(UV), BiPoly(UV, a.terms), a)

    @given(bipolys(), bipolys(max_exp=2, max_terms=4))
    def test_divmod_circle(self, a, b):
        s = BiPoly(XY, {(2, 0): 1, (0, 2): 1})
        for p in (a, a * s, a * s + b, a * s - b.swap_vars()):
            q, r = divmod_circle(p)
            ref_q, ref_r = _ref_divmod_circle(p)
            _same(q, ref_q, p)
            _same(r, ref_r, p)

    def test_divmod_circle_cancelling_quotient_entry(self):
        # y^4 sends -x^2*y^2 down to the y^2 column, where it cancels the
        # x^2*y^2 that would otherwise have become the quotient term x^2
        p = poly("x^2*y^2 + y^4 + x^4")
        q, r = divmod_circle(p)
        ref_q, ref_r = _ref_divmod_circle(p)
        _same(q, ref_q, p)
        _same(r, ref_r, p)
        assert q == poly("y^2") and r == poly("x^4")


def _same_scaled(result, reference, scale):
    """int coefficients equal to scale times the reference's, same order."""
    assert result.vars == reference.vars
    assert list(result.terms) == list(reference.terms)
    for e, c in result.terms.items():
        assert type(c) is int and c == scale * reference.terms[e]


class TestIntegerNumerators:
    """The exact core's integer form: the Fraction ring operations run
    unchanged on int coefficients and keep them ints, in the term order
    they give on the Fractions."""

    @given(bipolys(), bipolys())
    def test_scaling(self, a, b):
        (ia, ib), d = integer_numerators(a, b)
        dens = [c.denominator for p in (a, b) for c in p.terms.values()]
        assert d == math.lcm(*dens)
        _same_scaled(ia, a, d)
        _same_scaled(ib, b, d)

    @given(bipolys(max_terms=4), bipolys(max_terms=4), st.integers(0, 3))
    def test_ring_operations_keep_ints(self, a, b, n):
        (ia, ib), d = integer_numerators(a, b)
        _same_scaled(ia + ib, a + b, d)
        _same_scaled(ia - ib, a - b, d)
        _same_scaled(-ia, -a, d)
        _same_scaled(ia * ib, a * b, d * d)
        _same_scaled(ia.scale_vars(4, 4), a.scale_vars(4, 4), d)
        _same_scaled(ia.scale_vars(-1, 1), a.scale_vars(-1, 1), d)
        _same_scaled(ia.swap_vars(), a.swap_vars(), d)
        for q, ref in zip(divmod_circle(ia), divmod_circle(a)):
            _same_scaled(q, ref, d)
        if n:
            _same_scaled(power(ia, n, BiPoly.__mul__),
                         power(a, n, BiPoly.__mul__), d ** n)


class TestExactEdges:
    """Values from outside the library never reach a result unconverted."""

    def _assert_exact(self, p):
        for (i, j), c in p.terms.items():
            assert type(i) is int and type(j) is int
            assert type(c) is Fraction

    def test_scale_vars_by_float_and_fraction(self):
        p = poly("3*x^2*y - x + 1/2")
        for cx, cy in ((0.5, 1), (Fraction(1, 3), 2), (2, -0.25)):
            scaled = p.scale_vars(cx, cy)
            self._assert_exact(scaled)
            assert scaled == _ref_scale_vars(p, cx, cy)
        assert p.scale_vars(0.5, 1) == poly("3/4*x^2*y - 1/2*x + 1/2")

    def test_scalar_products(self):
        p = poly("x - 2*y")
        for k in (2, Fraction(1, 2)):
            self._assert_exact(p * const(k))
            self._assert_exact(const(k) * p)
        assert p * const(Fraction(1, 2)) == poly("1/2*x - y")

    def test_floats_are_refused_by_the_ring(self):
        # so are ints and Fractions: a scalar enters as a constant BiPoly
        p = poly("x + 1")
        for k in (0.5, 2, Fraction(1, 2)):
            for op in (lambda: p * k, lambda: k * p, lambda: p + k,
                       lambda: k + p, lambda: p - k, lambda: k - p,
                       lambda: p ** 2):
                with pytest.raises(TypeError):
                    op()

    def test_public_constructor_coerces(self):
        p = BiPoly(XY, {(1.0, 0): 2, (0, 1): 0.5, (2, 2): 0})
        assert list(p.terms) == [(1, 0), (0, 1)]
        self._assert_exact(p)
        assert p.terms[(0, 1)] == Fraction(1, 2)

    def test_with_vars_coerces_names(self):
        p = poly("x*y").with_vars(["u", "v"])
        assert type(p.vars) is tuple and p == poly("u*v", UV)
