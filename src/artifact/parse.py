"""Parsers for polynomial expressions and two-equation system inputs.

The expression grammar covers exactly what the library emits plus the
usual hand-written shorthands: integer and rational "p/q" literals, the
two declared variables, + - * ^ with parentheses, unary minus, and
implicit multiplication by juxtaposition ("3x^2y", "2(x+y)").
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .conjugate import DiffSystem
from .poly import BiPoly, power


class ParseError(ValueError):
    """Malformed expression; ``position`` is a 0-based offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass


class NonIntegerExponent(ParseError):
    pass


class NegativeExponent(ParseError):
    pass


# Largest exponent, and largest total degree of any intermediate product,
# the parser expands. Twice the highest degree the bundled corpus, the
# tests and the benchmark use (16), and low enough that "(x+y)^200" is
# refused before any expansion instead of running for seconds.
MAX_DEGREE = 32

# Deepest nesting of parentheses and unary minuses the recursive descent
# follows; deeper input is refused instead of exhausting the call stack.
MAX_NESTING = 100

# Most term pairs one parse_polynomial multiplies, over every product and
# every squaring of a power; a coefficient counts once more for each 1024
# bits it has, so long literals raised to powers count their size, and a
# coefficient that is not an integer counts FRACTION_WEIGHT times, since a
# pair of them costs about 15 times an integer pair (a gcd normalises each
# product and sum). The largest corpus expression needs 144, "(x+y+1)^32"
# 25 704, and "c*x^i*y^j" for every monomial of degree <= 32 5 192; a
# 100 KB sum of such powers is refused after two of them instead of running
# for seconds, and one with p/q coefficients within the first.
MAX_PRODUCTS = 60_000
FRACTION_WEIGHT = 4


def _check_degree(degree: int, what: str, where: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(
            f"{what} {degree} exceeds the limit of {MAX_DEGREE}", where)


def _weight(c: int | Fraction) -> int:
    """A coefficient's count against MAX_PRODUCTS: 0 for zero, else 1, or
    FRACTION_WEIGHT when it is not an integer, plus 1 per 1024 bits."""
    if not c:
        return 0
    return ((1 if c.denominator == 1 else FRACTION_WEIGHT)
            + (c.numerator.bit_length() + c.denominator.bit_length()) // 1024)


def _degree(value) -> int:
    """Total degree of a monomial (c, i, j) or a BiPoly; 0 for zero."""
    if type(value) is tuple:
        return value[1] + value[2] if value[0] else 0
    return value.total_degree() or 0


def _number(literal: str, where: int) -> int | Fraction:
    """The literal "p" or "p/q" as an int or a Fraction; a zero q, or a
    part longer than Python's digit limit, is refused at `where`."""
    num, _, den = literal.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError:
        raise ParseError("zero denominator", where) from None
    except ValueError:
        raise ParseError(
            f"number longer than the limit of "
            f"{sys.get_int_max_str_digits()} digits", where) from None


_NUMBER = re.compile(r"\d+(?:/\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _tokenize(text: str, variables: tuple[str, str]) -> list[tuple]:
    """Token stream of (kind, value, position) triples ending in
    ("end", None, len(text)); kind is 'num', 'var', or an operator's own
    character. A run of letters that is not a declared variable but
    spells a product of them ("xy") is split into variable tokens;
    anything else raises UnknownVariable.
    """
    tokens: list[tuple] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()−":  # typographic minus is accepted as an alias
            op = "-" if ch == "−" else ch
            tokens.append((op, op, i))
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            name = m.group()
            if name in variables:
                tokens.append(("var", name, i))
            elif all(c in variables for c in name):
                for off, c in enumerate(name):
                    tokens.append(("var", c, i + off))
            else:
                raise UnknownVariable(f"unknown variable {name!r}", i)
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over the token stream; a value is a monomial
    (c, i, j) until a parenthesised sum, a BiPoly, enters its product, on
    int coefficients but for "p/q" literals (parse_polynomial converts)."""

    def __init__(self, text: str, variables: tuple[str, str]):
        self.vars = variables
        self.tokens = _tokenize(text, variables)
        self.pos = 0
        self.depth = 0
        self.products = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def nested(self, parse, where: int):
        """parse() one nesting level deeper, refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than the limit of {MAX_NESTING}", where)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def product(self, a, b, where: int):
        """a * b, refused when it takes the parse past MAX_PRODUCTS, which
        counts the weights of the term pairs it multiplies; two monomials
        multiply as tuples, a monomial and a sum as BiPoly."""
        if type(a) is tuple is type(b):
            self.products += _weight(a[0]) * _weight(b[0])
        else:
            if type(a) is tuple:
                a = BiPoly._trusted(self.vars, {a[1:]: a[0]})
            elif type(b) is tuple:
                b = BiPoly._trusted(self.vars, {b[1:]: b[0]})
            self.products += (sum(map(_weight, a.terms.values()))
                              * sum(map(_weight, b.terms.values())))
        if self.products > MAX_PRODUCTS:
            raise ParseError(
                f"expansion needs more than {MAX_PRODUCTS} term products",
                where)
        if type(a) is tuple:
            return a[0] * b[0], a[1] + b[1], a[2] + b[2]
        return a * b

    def parse(self) -> BiPoly:
        value = self.expression()
        kind, text, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", where)
        return value

    def expression(self) -> BiPoly:
        """The summands added into one dict. A key is deleted as soon as
        its coefficient cancels, as BiPoly's + and - drop it after each
        summand, so a key that comes back goes last: "x - x + y + x" has
        the terms y, x. A zero monomial adds nothing, as a zero BiPoly
        has no terms: "0*x + y + x" has the terms y, x."""
        terms = {}
        negate = False
        while True:
            value = self.term()
            if type(value) is tuple:
                pairs = ((value[1:], value[0]),) if value[0] else ()
            else:
                pairs = value.terms.items()
            for e, c in pairs:
                if negate:
                    c = -c
                if e in terms:
                    c += terms[e]
                    if not c:
                        del terms[e]
                        continue
                terms[e] = c
            op = self.peek()[0]
            if op not in ("+", "-"):
                return BiPoly._trusted(self.vars, terms)
            self.pos += 1
            negate = op == "-"

    def term(self):
        value = self.signed_factor()
        while True:
            kind, _, where = self.peek()
            if kind == "*":
                self.pos += 1
                rhs = self.signed_factor()
            elif kind in ("num", "var", "("):
                # juxtaposition: "3x", "2(x+y)", "x^2y"
                rhs = self.factor()
            else:
                return value
            _check_degree(_degree(value) + _degree(rhs), "product degree",
                          where)
            value = self.product(value, rhs, where)

    def signed_factor(self):
        kind, _, where = self.peek()
        if kind == "-":
            self.pos += 1
            value = self.nested(self.signed_factor, where)
            if type(value) is tuple:
                return -value[0], value[1], value[2]
            return -value
        return self.factor()

    def factor(self):
        base = self.atom()
        kind, _, where = self.peek()
        if kind == "^":
            self.pos += 1
            n = self.exponent()
            _check_degree(_degree(base) * n, "power degree", where)
            if n == 0:
                return 1, 0, 0
            return power(base, n, lambda a, b: self.product(a, b, where))
        return base

    def exponent(self) -> int:
        kind, value, where = self.peek()
        if kind == "-":
            raise NegativeExponent("exponent must be nonnegative", where)
        if kind != "num":
            raise ParseError("expected an integer exponent", where)
        self.pos += 1
        if "/" in value:
            raise NonIntegerExponent("exponent must be an integer", where)
        n = _number(value, where)
        _check_degree(n, "exponent", where)
        return n

    def atom(self):
        kind, value, where = self.take()
        if kind == "num":
            return _number(value, where), 0, 0
        if kind == "var":
            return (1, 1, 0) if value == self.vars[0] else (1, 0, 1)
        if kind == "(":
            inner = self.nested(self.expression, where)
            kind, _, where = self.peek()
            if kind != ")":
                raise ParseError("expected ')'", where)
            self.pos += 1
            return inner
        raise ParseError(f"unexpected {value!r}", where)


def parse_polynomial(text: str, variables: tuple[str, str]) -> BiPoly:
    """Parse an expression into a fully expanded polynomial."""
    variables = (str(variables[0]), str(variables[1]))
    if variables[0] == variables[1]:
        raise ValueError(f"variables must be distinct, got {variables}")
    for name in variables:
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
    return BiPoly(variables, _Parser(text, variables).parse().terms)


def parse_system(variables, rhs) -> DiffSystem:
    """Parse the two right sides against the declared variable pair."""
    variables = (str(variables[0]), str(variables[1]))
    expressions = (str(rhs[0]), str(rhs[1]))
    if not expressions[0].strip() or not expressions[1].strip():
        raise ValueError("right-hand sides must be nonempty")
    p = parse_polynomial(expressions[0], variables)
    q = parse_polynomial(expressions[1], variables)
    return DiffSystem.build(variables, p, q)


def system_from_json(source) -> DiffSystem:
    """Build a system from {"vars": ["x","y"], "rhs": ["...", "..."]}."""
    data = json.loads(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(data, dict) or "vars" not in data or "rhs" not in data:
        raise ValueError('system JSON needs "vars" and "rhs" entries')
    for key in ("vars", "rhs"):
        entry = data[key]
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(item, str) for item in entry)):
            raise ValueError(f'"{key}" must be a list of two strings')
    return parse_system(data["vars"], data["rhs"])


_EQUATION_LINE = re.compile(
    r"^\s*d([A-Za-z][A-Za-z0-9_]*)\s*/\s*dt\s*=\s*(.+?)\s*$")


def system_from_text(text: str) -> DiffSystem:
    """Build a system from the two-line "dx/dt = ..." / "dy/dt = ..." form."""
    pairs: list[tuple[str, str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _EQUATION_LINE.match(line)
        if m is None:
            raise ValueError(f"cannot read equation line: {line.strip()!r}")
        pairs.append((m.group(1), m.group(2)))
    if len(pairs) != 2:
        raise ValueError(f"expected two equations, found {len(pairs)}")
    (v1, e1), (v2, e2) = pairs
    return parse_system((v1, v2), (e1, e2))


def load_system(text: str) -> DiffSystem:
    """The JSON or two-line text form; one leading byte-order mark is cut."""
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        return system_from_json(text)
    return system_from_text(text)
