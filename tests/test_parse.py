"""Expression grammar, positioned errors, and system input forms."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bipolys, const
from oracles import PolyParser, variable
from artifact import parse
from artifact.conjugate import ZeroField
from artifact.corpus import _substitute, load_cases
from artifact.parse import (
    MAX_DEGREE,
    MAX_NESTING,
    MAX_PRODUCTS,
    NegativeExponent,
    NonIntegerExponent,
    ParseError,
    UnknownVariable,
    _Parser,
    load_system,
    parse_polynomial,
    parse_system,
    system_from_json,
    system_from_text,
)
from artifact.poly import BiPoly, power

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


# -- random expression trees ---------------------------------------------------
#
# Each node is (text, reference, degree bound, leaf). The reference is the
# same tree evaluated with the Fraction BiPoly operations; the parser runs
# on int coefficients inside and must return the same terms, in the same
# order, as Fractions. Compound children are parenthesized; leaves are not,
# so "3/4^2", "2 x" and "-x" reach the grammar as written.

_leaves = st.one_of(
    st.integers(0, 30).map(
        lambda n: (str(n), const(n), 0, True)),
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", const(Fraction(*pq)), 0, True)),
    st.sampled_from(XY).map(lambda v: (v, variable(v, XY), 1, True)))


def _wrapped(node):
    return node[0] if node[3] else f"({node[0]})"


def _binary(op, a, b):
    text = f"{_wrapped(a)}{op}{_wrapped(b)}"
    if op in (" + ", " - "):
        ref = a[1] + b[1] if op == " + " else a[1] - b[1]
        return text, ref, max(a[2], b[2]), False
    return text, a[1] * b[1], a[2] + b[2], False


def _power(p, n):
    return power(p, n, BiPoly.__mul__) if n else const(1)


def _expression_nodes(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from([" + ", " - ", "*", " "]),
                  children, children),
        children.map(lambda a: ("-" + _wrapped(a), -a[1], a[2], False)),
        st.builds(lambda a, n: (f"{_wrapped(a)}^{n}", _power(a[1], n),
                                a[2] * n, False),
                  children, st.integers(0, 3)))


expression_trees = st.recursive(_leaves, _expression_nodes, max_leaves=10)


class TestIntegerBoundary:
    """Products run on int coefficients; what leaves is all Fraction."""

    def _assert_fractions(self, p):
        assert all(type(c) is Fraction for c in p.terms.values())

    @given(expression_trees)
    def test_matches_the_fraction_evaluation(self, tree):
        text, reference, bound, _ = tree
        assume(bound <= MAX_DEGREE)
        p = poly(text)
        assert list(p.terms.items()) == list(reference.terms.items())
        self._assert_fractions(p)

    @given(st.lists(st.tuples(st.sampled_from("+-"),
                              st.sampled_from(("1", "2", "1/2")),
                              st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=12))
    def test_flat_sum_matches_the_fold(self, summands):
        # one chain of summands, without parentheses, cancelling often
        text, reference = "", BiPoly(XY)
        for sign, c, i, j in summands:
            text += f" {sign if text or sign == '-' else ''} {c}*x^{i}*y^{j}"
            mono = BiPoly(XY, {(i, j): Fraction(c)})
            reference = reference + mono if sign == "+" else reference - mono
        p = poly(text)
        assert list(p.terms.items()) == list(reference.terms.items())
        self._assert_fractions(p)

    def test_cancelled_term_comes_back_last(self):
        assert list(poly("x - x + y + x").terms) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("text,expected", [
        ("0*x + 0", {}), ("4/6", {(0, 0): Fraction(2, 3)}),
        ("-(-(x))*y^0", {(1, 0): Fraction(1)}), ("x^0", {(0, 0): 1}),
        ("6/3*y", {(0, 1): Fraction(2)})])
    def test_hand_cases(self, text, expected):
        p = poly(text)
        assert p.terms == expected
        self._assert_fractions(p)

    def test_corpus_coefficients_are_fractions(self):
        for case in load_cases():
            for p in case.system.rhs + (case.expected_u, case.expected_v):
                self._assert_fractions(p)


# -- parity with the parser on BiPoly values ----------------------------------
#
# Random strings from a small grammar, one in ten with a character dropped,
# inserted or the tail cut. Literals are short, long (past 1024 bits alone
# or once squared) or p/q, joined by "*", "*-", a space or nothing. About
# one atom in 200 is refused, and one exponent in 50 is 9, 17 or refused.

_SHORT = ["0", "1", "2", "3", "7", "12", "1/2", "6/3", "0/4", "3/10"]
_LONG = ["9" * 200, "8" * 330, "1/" + "7" * 330]
_VARIABLES = ["x", "y", "xy", "yx"]


def _atom(rng, depth):
    r = rng.random()
    if r < 0.005:
        return rng.choice(["5/0", "z", "x1"])
    if r < 0.4:
        return rng.choice(_LONG if rng.random() < 0.1 else _SHORT)
    if r < 0.8 or depth == 3:
        return rng.choice(_VARIABLES)
    return f"({_sum(rng, depth + 1)})"


def _factor(rng, depth):
    text, r = _atom(rng, depth), rng.random()
    if r < 0.25:
        return f"{text}^{rng.choice('01235')}"
    if r < 0.27:
        return f"{text}^{rng.choice(['9', '17', '-1', '1/2', 'x'])}"
    return text


def _term(rng, depth):
    text = "-" * rng.choice((0, 0, 0, 1, 2)) + _factor(rng, depth)
    for _ in range(rng.choice((0, 1, 1, 2))):
        join, rhs = rng.choice(("*", "*", "*-", "", " ")), _factor(rng, depth)
        if join == "" and rhs[0].isdigit():
            join = " "  # "x" then "2" would read as the name "x2"
        text += join + rhs
    return text


def _sum(rng, depth=0):
    text = _term(rng, depth)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        text += rng.choice((" + ", " - ", "+", "-")) + _term(rng, depth)
    return text


# zero factors ahead of high degrees, cancellations and zero powers
_CHOSEN = ["0*x + y + x", "x - x + y + x", "0*x^20*y^20", "(0*x^17)^2*y^17",
           "(x - x)*x^20*y^20", "0 x^17 y^17 + 0^0", "(x+y)^0*x^32",
           "6/3*x^0*y", "(1/2*x - 1/2*x)^9*(x+y)^30", "0^0*" + "9" * 400]


def _random_strings(seed, count):
    yield from _CHOSEN
    rng = random.Random(seed)
    for _ in range(count):
        text = _sum(rng)
        if rng.random() < 0.1:
            i, r = rng.randrange(len(text) + 1), rng.random()
            text = (text[:i] + text[i + 1:] if r < 0.4 else
                    text[:i] + rng.choice("+-*^()x1/ ") + text[i:] if r < 0.8
                    else text[:i])
        yield text


def _outcome(parser_class, text):
    """The terms in order and the work count, or the refusal with its
    class, message, position and the work count when it was raised."""
    parser = None
    try:
        parser = parser_class(text, XY)
        terms = list(parser.parse().terms.items())
    except ValueError as error:
        return (type(error), str(error), error.position,
                parser and parser.products)
    return "ok", terms, parser.products


class TestParity:
    """Monomials carried as tuples give what BiPoly values give."""

    @pytest.mark.parametrize("budget", [MAX_PRODUCTS, 100])
    def test_matches_the_poly_parser(self, budget, monkeypatch):
        # at 100 the budget refuses a good share of the strings
        monkeypatch.setattr(parse, "MAX_PRODUCTS", budget)
        kinds = Counter()
        for text in _random_strings(budget, 5000):
            ours = _outcome(_Parser, text)
            assert ours == _outcome(PolyParser, text), text
            kinds[ours[0] if ours[0] == "ok" else ours[1][:16]] += 1
        # most strings parse; the rest meet some twenty different refusals
        assert kinds["ok"] > 2500 and len(kinds) > 20
        assert (kinds["expansion needs "] > 400) == (budget == 100)


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


def _dense(degree):
    """Every monomial of total degree <= degree, coefficients 1 to 5."""
    return " + ".join(f"{(3 * i + j) % 5 + 1}*x^{i}*y^{j}"
                      for i in range(degree + 1) for j in range(degree + 1 - i))


def _sum_to(unit, size=100_000):
    return " + ".join([unit] * (size // (len(unit) + 3)))


class TestWorkBudget:
    @pytest.mark.parametrize("text", [
        "(x+y+1)^32", "(x+2*y+1)^16*(3*x-y+1)^16",
        "(x+y+1)^32 + (x-y+1)^32"])
    def test_large_expansions_within_the_budget(self, text):
        assert poly(text).total_degree() == 32

    @pytest.mark.parametrize("degree", [8, 12, 16, 32])
    def test_dense_fields_parse(self, degree):
        sys = parse_system(XY, (_dense(degree), _dense(degree - 1)))
        assert sys.degree == degree
        assert len(sys.rhs[0].terms) == (degree + 1) * (degree + 2) // 2

    @pytest.mark.parametrize("unit", [
        "(x+2*y+1)^16*(3*x-y+1)^16", "(x+y+1)^32"], ids=["product", "power"])
    def test_100kb_sum_refused_quickly(self, unit):
        text = _sum_to(unit)
        assert len(text) > 99_000
        started = time.monotonic()
        with pytest.raises(ParseError, match="term products") as info:
            parse_system(XY, (text, "y"))
        assert time.monotonic() - started < 0.5
        # each copy parses alone; the budget spans the whole expression,
        # powers included, so the sum is refused within its first copies
        assert info.value.position < 3 * (len(unit) + 3)

    @pytest.mark.parametrize("text,products", [
        ("(x+y+1)^32", 25_704), (_dense(32), 5_192)], ids=["power", "dense"])
    def test_counts_quoted_at_the_budget(self, text, products):
        parser = _Parser(text, XY)
        parser.parse()
        assert parser.products == products

    def test_largest_corpus_expression_count(self):
        # the expected partner pair of 4.9->4.10, both sides
        raw = resources.files("artifact").joinpath("data/oracle_cases.json")
        counts = {}
        for entry in json.loads(raw.read_text(encoding="utf-8"))["cases"]:
            subs = entry.get("subs", {})
            sides = [(text, entry["vars"]) for text in entry["rhs"]] + [
                (entry["expected"][k], entry["conjugate_vars"]) for k in "UV"]
            for k, (text, vars_) in enumerate(sides):
                parser = _Parser(_substitute(text, subs), tuple(vars_))
                parser.parse()
                counts[entry["name"], k] = parser.products
        assert max(counts.values()) == 144
        assert [key for key, n in counts.items() if n == 144] == [
            ("4.9->4.10", 2), ("4.9->4.10", 3)]

    def test_fraction_coefficients_count_their_cost(self):
        # a pair of p/q coefficients costs about 15 integer pairs: the
        # integer power parses, the same power over p/q is refused
        assert poly("(x+2*y+1)^32").total_degree() == 32
        assert poly("(1/3*x+2/7*y+1/5)^16").total_degree() == 16
        with pytest.raises(ParseError, match="term products"):
            poly("(1/3*x+2/7*y+1/5)^32")

    def test_100kb_fraction_sum_refused_within_its_first_copy(self):
        unit = "(1/3*x+2/7*y+1/5)^16*(3/11*x-5/13*y+1/17)^16"
        text = _sum_to(unit)
        started = time.monotonic()
        with pytest.raises(ParseError, match="term products") as info:
            parse_system(XY, (text, "y"))
        assert time.monotonic() - started < 0.25
        assert info.value.position < len(unit)

    def test_large_coefficients_count_their_size(self):
        # 270 term pairs, but a 4000-digit coefficient counts once per 1024
        # bits, and every squaring doubles its length
        big = "9" * 4000
        assert poly(f"({big}*x + {big}*y + 1)^2").total_degree() == 2
        with pytest.raises(ParseError, match="term products"):
            poly(f"({big}*x + {big}*y + 1)^8")


class TestLongLiterals:
    # past Python's int string limit (4300 digits by default) int() raises
    # a bare ValueError; the parser reports it at the literal
    @pytest.mark.parametrize("text,position", [
        ("1" * 5000 + "*x", 0), ("x + 2/" + "3" * 5000, 4),
        ("x^" + "1" * 5000, 2)], ids=["integer", "denominator", "exponent"])
    def test_refused_with_position(self, text, position):
        with pytest.raises(ParseError, match="digits") as info:
            poly(text)
        assert info.value.position == position

    def test_just_below_the_limit_parses(self):
        assert poly("1" * 4000 + "*x").coefficient(1, 0) == int("1" * 4000)


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
        with pytest.raises(ZeroField):
            parse_system(XY, ("0", "0"))

    def test_non_coprime_flag_recorded(self):
        sys = parse_system(XY, ("x*(x + y)", "y*(x + y)"))
        assert not sys.coprime

    def test_variables_must_differ(self):
        with pytest.raises(ValueError):
            parse_system(("x", "x"), ("x", "1"))

    @pytest.mark.parametrize("variables,message", [
        (("x", "x"), r"^variables must be distinct, got \('x', 'x'\)$"),
        (("x", "2y"), r"^bad variable name '2y'$")],
        ids=["same-name", "bad-name"])
    def test_parse_polynomial_checks_the_pair(self, variables, message):
        with pytest.raises(ValueError, match=message):
            parse_polynomial("x*x", variables)

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
