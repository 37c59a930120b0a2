"""Expression grammar, positioned errors, and system input forms."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import bipolys
from artifact.corpus import load_cases
from artifact.parse import (
    MAX_DEGREE,
    MAX_NESTING,
    BothRhsZero,
    NegativeExponent,
    NonIntegerExponent,
    ParseError,
    UnknownVariable,
    load_system,
    parse_polynomial,
    parse_system,
    system_from_json,
    system_from_text,
)
from artifact.poly import BiPoly

XY = ("x", "y")


def poly(text, vars=XY):
    return parse_polynomial(text, vars)


class TestGrammar:
    def test_difference_of_squares(self):
        p = poly("x^2 - y^2")
        assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}

    def test_expansion_of_nested_product(self):
        p = poly("-y - x*(x^2 + y^2 - 1)")
        assert p == poly("-x^3 - x*y^2 + x - y")

    def test_juxtaposition(self):
        assert poly("3x^2y") == poly("3*x^2*y")
        assert poly("2(x+y)") == poly("2*x + 2*y")
        assert poly("xy") == poly("x*y")

    def test_rational_literals(self):
        assert poly("1/4*x^2 - 1/2*y").coefficient(2, 0) == Fraction(1, 4)

    def test_power_of_parenthesized_sum(self):
        assert poly("(x^2 + y^2)^2") == poly("x^4 + 2*x^2*y^2 + y^4")

    def test_unary_minus_binds_below_power(self):
        assert poly("-x^2") == -poly("x^2")
        assert poly("- 2x + y") == poly("y - 2*x")

    def test_typographic_minus_alias(self):
        assert poly("−x + y") == poly("y - x")

    def test_whitespace_insensitive(self):
        assert poly("  x ^ 2+ y ") == poly("x^2 + y")

    @given(bipolys())
    def test_round_trip(self, p):
        assert poly(p.to_text()) == p


class TestErrors:
    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            poly("x^-1")

    def test_fractional_exponent(self):
        with pytest.raises(NonIntegerExponent):
            poly("x^1/2")

    def test_unknown_variable_position(self):
        with pytest.raises(UnknownVariable) as info:
            poly("x + zebra")
        assert info.value.position == 4

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            poly("(x + y")

    def test_trailing_operator(self):
        with pytest.raises(ParseError) as info:
            poly("x +")
        assert info.value.position == 3

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            poly("3/0")

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            poly("x ? y")
        assert info.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            poly("")


class TestDegreeLimit:
    def test_large_power_refused_before_expanding(self):
        with pytest.raises(ParseError, match="exponent 200") as info:
            parse_system(XY, ("(x+y)^200", "y"))
        assert info.value.position == 6

    def test_power_of_polynomial_refused(self):
        with pytest.raises(ParseError, match="power degree 34"):
            poly("(x^2 + 1)^17")

    @pytest.mark.parametrize("text", ["x^20*y^20", "x^20 y^20",
                                      "(x+1)^16*(x+y)^16*x"])
    def test_product_over_limit_refused(self, text):
        with pytest.raises(ParseError, match="product degree"):
            poly(text)

    def test_limit_itself_accepted(self):
        assert poly(f"x^{MAX_DEGREE}").total_degree() == MAX_DEGREE

    def test_corpus_and_degree_16_field_parse(self):
        assert len(load_cases()) == 27
        sys = parse_system(XY, ("(x + y)^16 - 3*x^5*y", "x^8*y^8 + y^16 - 1"))
        assert sys.degree == 16


class TestNestingLimit:
    @pytest.mark.parametrize("text", ["(" * 400 + "x" + ")" * 400,
                                      "-" * 5000 + "x"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_nesting_refused(self, text):
        with pytest.raises(ParseError, match="nesting deeper") as info:
            poly(text)
        assert info.value.position == MAX_NESTING

    def test_limit_itself_accepted(self):
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert poly(deep) == poly("x")
        assert poly("-" * MAX_NESTING + "y") == poly("y")
        assert poly("-(" * (MAX_NESTING // 2) + "y" + ")" * (MAX_NESTING // 2)
                    ) == poly("y")


class TestSystems:
    def test_saddle_pair(self):
        sys = parse_system(XY, ("x", "-y"))
        assert sys.degree == 1
        assert sys.rhs[0] == poly("x")
        assert sys.rhs[1] == poly("-y")
        assert sys.coprime

    def test_constant_system_degree_zero(self):
        sys = parse_system(XY, ("1", "0"))
        assert sys.degree == 0

    def test_both_zero_rejected(self):
        with pytest.raises(BothRhsZero):
            parse_system(XY, ("0", "0"))

    def test_non_coprime_flag_recorded(self):
        sys = parse_system(XY, ("x*(x + y)", "y*(x + y)"))
        assert not sys.coprime

    def test_variables_must_differ(self):
        with pytest.raises(ValueError):
            parse_system(("x", "x"), ("x", "1"))

    def test_json_form(self):
        text = json.dumps({"vars": ["u", "v"], "rhs": ["v", "-u"]})
        sys = system_from_json(text)
        assert sys.vars == ("u", "v")
        assert sys.rhs[0] == poly("v", ("u", "v"))

    def test_json_missing_key(self):
        with pytest.raises(ValueError):
            system_from_json({"vars": ["x", "y"]})

    @pytest.mark.parametrize("key,entry", [
        ("vars", 1), ("vars", None), ("vars", "xy"), ("vars", ["x"]),
        ("rhs", {"a": "x", "b": "y"}), ("rhs", ["x", None]),
        ("rhs", [1, 2]), ("rhs", ["x", "y", "1"])],
        ids=["vars-number", "vars-null", "vars-string", "vars-one",
             "rhs-object", "rhs-null-entry", "rhs-numbers", "rhs-three"])
    def test_json_entries_must_be_two_strings(self, key, entry):
        data = {"vars": ["x", "y"], "rhs": ["y", "-x"], key: entry}
        with pytest.raises(ValueError,
                           match=f'^"{key}" must be a list of two strings$'):
            system_from_json(data)

    def test_json_dict_round_trip(self):
        for case in load_cases():
            again = system_from_json(json.dumps(case.system.to_json_dict()))
            assert again == case.system

    def test_text_form_infers_variables(self):
        sys = system_from_text("dx/dt = -y\ndy/dt = x\n")
        assert sys.vars == XY
        assert sys.rhs == (poly("-y"), poly("x"))

    def test_text_form_rejects_bad_line(self):
        with pytest.raises(ValueError):
            system_from_text("dx/dt = 1\nwat = 2")

    def test_load_system_sniffs_both_forms(self):
        a = load_system('{"vars": ["x", "y"], "rhs": ["x", "-y"]}')
        b = load_system("dx/dt = x\ndy/dt = -y")
        assert a.rhs == b.rhs
