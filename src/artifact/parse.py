"""Parsers for polynomial expressions and two-equation system inputs.

The expression grammar covers exactly what the library emits plus the
usual hand-written shorthands: integer and rational "p/q" literals, the
two declared variables, + - * ^ with parentheses, unary minus, and
implicit multiplication by juxtaposition ("3x^2y", "2(x+y)").
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .conjugate import DiffSystem, ZeroField
from .poly import BiPoly


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


# the old name stays importable; DiffSystem.build is the one check
BothRhsZero = ZeroField


# Largest exponent, and largest total degree of any intermediate product,
# the parser expands. Twice the highest degree the bundled corpus, the
# tests and the benchmark use (16), and low enough that "(x+y)^200" is
# refused before any expansion instead of running for seconds.
MAX_DEGREE = 32

# Deepest nesting of parentheses and unary minuses the recursive descent
# follows; deeper input is refused instead of exhausting the call stack.
MAX_NESTING = 100


def _check_degree(degree: int, what: str, where: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(
            f"{what} {degree} exceeds the limit of {MAX_DEGREE}", where)


def _degree(p: BiPoly) -> int:
    return p.total_degree() or 0


_NUMBER = re.compile(r"\d+(?:/\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _tokenize(text: str, variables: tuple[str, str]) -> list[tuple]:
    """Token stream of (kind, value, position) triples.

    kind is one of 'num', 'var', 'op'. A run of letters that is not a
    declared variable but spells a product of them ("xy") is split into
    variable tokens; anything else raises UnknownVariable.
    """
    tokens: list[tuple] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":  # typographic minus is accepted as an alias
            tokens.append(("op", "-", i))
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
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
    return tokens


class _Parser:
    """Recursive descent over the token stream; every method returns BiPoly."""

    def __init__(self, text: str, variables: tuple[str, str]):
        self.text = text
        self.vars = variables
        self.tokens = _tokenize(text, variables)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            where = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r}", where)
        self.pos += 1

    def nested(self, parse, where: int) -> BiPoly:
        """parse() one nesting level deeper, refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than the limit of {MAX_NESTING}", where)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> BiPoly:
        value = self.expression()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expression(self) -> BiPoly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self) -> BiPoly:
        value = self.signed_factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.pos += 1
                rhs = self.signed_factor()
            elif tok and (tok[0] in ("num", "var")
                          or (tok[0] == "op" and tok[1] == "(")):
                # juxtaposition: "3x", "2(x+y)", "x^2y"
                rhs = self.factor()
            else:
                return value
            _check_degree(_degree(value) + _degree(rhs), "product degree",
                          tok[2])
            value = value * rhs

    def signed_factor(self) -> BiPoly:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return -self.nested(self.signed_factor, tok[2])
        return self.factor()

    def factor(self) -> BiPoly:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            power = self.exponent()
            _check_degree(_degree(base) * power, "power degree", tok[2])
            return base ** power
        return base

    def exponent(self) -> int:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            raise NegativeExponent("exponent must be nonnegative", tok[2])
        if tok is None or tok[0] != "num":
            where = tok[2] if tok else len(self.text)
            raise ParseError("expected an integer exponent", where)
        self.pos += 1
        if "/" in tok[1]:
            raise NonIntegerExponent("exponent must be an integer", tok[2])
        power = int(tok[1])
        _check_degree(power, "exponent", tok[2])
        return power

    def atom(self) -> BiPoly:
        tok = self.take()
        kind, value, where = tok
        if kind == "num":
            try:
                return BiPoly.const(Fraction(value), self.vars)
            except ZeroDivisionError:
                raise ParseError("zero denominator", where) from None
        if kind == "var":
            return BiPoly.var(value, self.vars)
        if kind == "op" and value == "(":
            inner = self.nested(self.expression, where)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}", where)


def parse_polynomial(text: str, variables: tuple[str, str]) -> BiPoly:
    """Parse an expression into a fully expanded polynomial."""
    variables = (str(variables[0]), str(variables[1]))
    return _Parser(text, variables).parse()


def parse_system(variables, rhs) -> DiffSystem:
    """Parse the two right sides against the declared variable pair."""
    variables = (str(variables[0]), str(variables[1]))
    if variables[0] == variables[1]:
        raise ValueError(f"variables must be distinct, got {variables}")
    for name in variables:
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
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
    """Accept either the JSON or the two-line plain-text system form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return system_from_json(text)
    return system_from_text(text)
