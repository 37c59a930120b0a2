"""Exact polynomial arithmetic: ring ops, circle division, coprimality."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bipolys, coefficients, nonzero_bipolys
from artifact.conjugate import conjugate
from artifact.corpus import case_by_name
from artifact.parse import parse_polynomial
from artifact.poly import (
    _P,
    _POINTS,
    BiPoly,
    BothZero,
    NotDivisible,
    certify_coprime,
    circle_valuation,
    divide_exact_by_circle,
    divmod_circle,
    is_coprime,
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
        assert p + BiPoly.zero(XY) == p

    def test_circle_square(self):
        s = poly("x^2 + y^2")
        assert s * s == poly("x^4 + 2*x^2*y^2 + y^4")

    def test_scalar_and_power(self):
        p = poly("x - y")
        assert 2 * p == poly("2*x - 2*y")
        assert p ** 3 == poly("x^3 - 3*x^2*y + 3*x*y^2 - y^3")
        assert p ** 0 == BiPoly.const(1, XY)

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
        assert a - a == BiPoly.zero(XY)

    @given(bipolys())
    def test_no_zero_coefficients_stored(self, p):
        assert all(c != 0 for c in p.terms.values())


class TestEvaluate:
    def test_point_on_circle(self):
        assert poly("x^2 + y^2 - 4").evaluate(2, 0) == 0

    def test_hyperbola_point(self):
        assert poly("x*y - 1").evaluate(1, 1) == 0

    def test_zero_polynomial(self):
        assert BiPoly.zero(XY).evaluate(7, -3) == 0

    def test_exact_rational(self):
        value = poly("1/4*x^2 - y").evaluate(Fraction(1, 3), Fraction(2))
        assert value == Fraction(1, 36) - 2

    def test_float_path(self):
        value = poly("x^2 + y^2").evaluate(0.5, 0.25)
        assert value == pytest.approx(0.3125)


class TestHomogeneousComponents:
    def test_cubic_with_linear_part(self):
        p = poly("-y - x*(x^2 + y^2 - 1)")
        parts = dict(p.homogeneous_components())
        assert set(parts) == {1, 3}
        assert parts[1] == poly("x - y")
        assert parts[3] == poly("-x^3 - x*y^2")

    def test_term_grouping(self):
        parts = dict(poly("x^2 + y - 3").homogeneous_components())
        assert parts[0] == BiPoly.const(-3, XY)
        assert parts[1] == poly("y")
        assert parts[2] == poly("x^2")

    def test_homogeneous_input_is_single_component(self):
        p = poly("x^3 - 2*x*y^2")
        assert p.homogeneous_components() == [(3, p)]

    @given(bipolys())
    def test_sum_recovers_polynomial(self, p):
        total = BiPoly.zero(XY)
        degrees = []
        for d, part in p.homogeneous_components():
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
        assert circle_valuation(BiPoly.zero(UV)) == math.inf

    def test_exact_division(self):
        assert divide_exact_by_circle(poly("-u^3 - u*v^2", UV)) == poly("-u", UV)
        s = poly("u^2 + v^2", UV)
        assert divide_exact_by_circle(s * s) == s

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact_by_circle(poly("u^3", UV))

    @given(bipolys(), st.integers(0, 3))
    def test_valuation_shifts_under_circle_powers(self, p, k):
        s = BiPoly(XY, {(2, 0): 1, (0, 2): 1})
        assert circle_valuation(p * s ** k) == k + circle_valuation(p)

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
            is_coprime(BiPoly.zero(XY), BiPoly.zero(XY))

    def test_zero_against_constant_and_variable(self):
        assert is_coprime(BiPoly.zero(XY), BiPoly.const(3, XY))
        assert not is_coprime(BiPoly.zero(XY), poly("x"))

    def test_shared_factor_free_of_second_variable(self):
        # common factor x never shows up in the remainder sequence; the
        # content check has to catch it
        assert not is_coprime(poly("x*y + x"), poly("x*y^2 - x"))

    @given(nonzero_bipolys(), nonzero_bipolys(),
           nonzero_bipolys().filter(lambda g: (g.total_degree() or 0) >= 1))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_detected(self, p, q, g):
        assert not is_coprime(p * g, q * g)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_coprime(sympy, a, b):
    """Oracle: sympy's gcd over QQ[x, y] has total degree 0."""
    x, y = sympy.symbols("x y")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}, x, y, domain=sympy.QQ)

    return sympy.gcd(to_sympy(a), to_sympy(b)).total_degree() == 0


def _planted_factors(axes):
    """Nonconstant polynomials whose terms use only the given axes."""
    def build(entries):
        terms = {}
        for i, j, c in entries:
            terms[(i if 0 in axes else 0, j if 1 in axes else 0)] = c
        return BiPoly(XY, terms)

    entry = st.tuples(st.integers(0, 3), st.integers(0, 3), coefficients())
    return st.lists(entry, min_size=1, max_size=4).map(build).filter(
        lambda f: (f.total_degree() or 0) >= 1)


class TestCoprimeDifferential:
    """is_coprime and its modular certificate against sympy.gcd."""

    @given(nonzero_bipolys(), nonzero_bipolys())
    @settings(max_examples=80, deadline=None)
    def test_random_pairs_agree_with_sympy(self, sympy, a, b):
        expected = _sympy_coprime(sympy, a, b)
        assert is_coprime(a, b) == expected
        if certify_coprime(a, b):
            assert expected

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)],
                             ids=["x-only", "y-only", "both"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_planted_factor_detected(self, sympy, axes, data):
        f = data.draw(_planted_factors(axes), label="f")
        g = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="g")
        h = data.draw(nonzero_bipolys(max_exp=3, max_terms=4), label="h")
        a, b = f * g, f * h
        assert not certify_coprime(a, b)
        assert not is_coprime(a, b)
        assert not _sympy_coprime(sympy, a, b)

    def test_pair_equal_at_small_point_is_certified(self):
        # at y = 2 both sides are x/2 - 3
        assert certify_coprime(poly("1/2*x - 3"), poly("1/2*x - 3/2*y"))

    def test_corpus_partner_with_common_factor_uses_exact_path(self):
        case = case_by_name("4.9->4.10")
        u, v = conjugate(case.system, out_vars=case.conjugate_vars
                         ).conjugate.rhs
        assert not certify_coprime(u, v)
        assert not is_coprime(u, v)

    def test_factor_hidden_at_every_point_is_not_certified(self):
        # G's leading coefficient in each variable vanishes at every fixed
        # point, so G(x0, y) and G(x, y0) are constants there; skipping
        # such points is what keeps the certificate sound
        x, y = poly("x"), poly("y")
        lead_x, lead_y = BiPoly.const(1, XY), BiPoly.const(1, XY)
        for t in _POINTS:
            lead_x, lead_y = lead_x * (x - t), lead_y * (y - t)
        g = lead_x * lead_y + 1
        assert not certify_coprime(g * x, g * y)
        assert not is_coprime(g * x, g * y)

    def test_gives_up_when_prime_divides_a_denominator(self):
        a = poly("x") + Fraction(1, _P)
        assert not certify_coprime(a, poly("y"))
        assert is_coprime(a, poly("y"))

    def test_zero_side_is_never_certified(self):
        assert not certify_coprime(BiPoly.zero(XY), BiPoly.const(3, XY))


class TestCanonicalText:
    def test_term_order(self):
        assert poly("3*u*v^2 - u^3", UV).to_text() == "-u^3 + 3*u*v^2"

    def test_rational_coefficients(self):
        assert poly("-2*v + 1/4*u^2", UV).to_text() == "1/4*u^2 - 2*v"

    def test_constants_and_zero(self):
        assert BiPoly.const(Fraction(-3, 2), XY).to_text() == "-3/2"
        assert BiPoly.zero(XY).to_text() == "0"

    def test_unit_coefficients_are_bare(self):
        assert poly("y - x").to_text() == "-x + y"
