"""Shared hypothesis strategies, seeded text fields, corpus lookup,
trajectories through given points, a fresh interpreter, an alarm and the
sympy oracle for the test suite."""

import contextlib
import gc
import os
import random
import signal
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

import artifact
from artifact.charts import AT_INFINITY, Circle, Line, Point
from artifact.conjugate import DiffSystem
from artifact.corpus import load_cases
from artifact.dynamics import Samples, Trajectory
from artifact.poly import BiPoly, power


def coefficients(bound: int = 5, max_denominator: int = 4):
    return st.fractions(min_value=Fraction(-bound), max_value=Fraction(bound),
                        max_denominator=max_denominator)


def bipolys(vars: tuple[str, str] = ("x", "y"), max_exp: int = 4,
            max_terms: int = 6, coefs=None):
    """Small random polynomials, including the zero polynomial."""
    entry = st.tuples(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        coefficients() if coefs is None else coefs)
    return st.lists(entry, max_size=max_terms).map(
        lambda kv: BiPoly(vars, dict(kv)))


def nonzero_bipolys(vars: tuple[str, str] = ("x", "y"), **kwargs):
    return bipolys(vars, **kwargs).filter(lambda p: not p.is_zero())


def const(c, vars: tuple[str, str] = ("x", "y")) -> BiPoly:
    """The constant polynomial c: how a scalar enters a BiPoly product."""
    return BiPoly(vars, {(0, 0): c})


def circled(p: BiPoly, k: int) -> BiPoly:
    """p times (first^2 + second^2)^k, for k >= 0."""
    s = BiPoly(p.vars, {(2, 0): 1, (0, 2): 1})
    return p * power(s, k, BiPoly.__mul__) if k else p


@st.composite
def rational_fields(draw, max_exp=3, max_power=2):
    """Fields with rational coefficients, circle factors on one side, on
    both or shared, and sometimes one zero side."""
    xy = ("x", "y")
    small = nonzero_bipolys(xy, max_exp=max_exp, max_terms=4)
    shared = draw(st.integers(0, 1), label="shared circle power")
    p = circled(draw(small, label="P"), draw(
        st.integers(0, max_power), label="circle power of P") + shared)
    q = circled(draw(small, label="Q"), draw(
        st.integers(0, max_power), label="circle power of Q") + shared)
    zero = draw(st.sampled_from([None, 0, 1]), label="zero side")
    if zero == 0:
        p = BiPoly(xy)
    elif zero == 1:
        q = BiPoly(xy)
    return DiffSystem.build(xy, p, q)


def curves():
    """Circles, lines and points with small rational data, drawn often
    from the transition's special cases: circles through the origin and
    centred on it, lines through it, the origin and the infinitely
    remote point."""
    r = coefficients(bound=20, max_denominator=12)
    positive = r.filter(lambda v: v > 0)
    point = st.tuples(r, r)
    off_origin = point.filter(any)
    return st.one_of(
        st.builds(Circle, point, positive),
        positive.map(lambda r2: Circle((0, 0), r2)),
        off_origin.map(lambda c: Circle(c, c[0] ** 2 + c[1] ** 2)),
        st.tuples(off_origin, r).map(lambda t: Line(*t[0], t[1])),
        off_origin.map(lambda ab: Line(*ab, 0)),
        point.map(Point),
        st.just(Point((0, 0))),
        st.just(AT_INFINITY),
    )


def planted_factors(axes, vars: tuple[str, str] = ("x", "y")):
    """Nonconstant polynomials whose terms use only the given axes."""
    def build(entries):
        terms = {}
        for i, j, c in entries:
            terms[(i if 0 in axes else 0, j if 1 in axes else 0)] = c
        return BiPoly(vars, terms)

    entry = st.tuples(st.integers(0, 3), st.integers(0, 3), coefficients())
    return st.lists(entry, min_size=1, max_size=4).map(build).filter(
        lambda f: (f.total_degree() or 0) >= 1)


def _monomial(i: int, j: int) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
    return "*".join(parts)


def _side(terms) -> str:
    """A right side from (coefficient, i, j) triples, as a signed sum."""
    text = ""
    for coef, i, j in terms:
        mono = _monomial(i, j)
        body = f"{abs(coef)}*{mono}" if mono else str(abs(coef))
        text += ("-" if coef < 0 else "+") + " " + body + " "
    return text.strip().lstrip("+ ")


def dense_field(rng: random.Random, degree: int):
    """Every monomial of total degree up to ``degree`` on both sides,
    coefficients in +-{1, ..., 9}."""
    monomials = [(i, d - i) for d in range(degree, -1, -1)
                 for i in range(d, -1, -1)]
    return tuple(_side([(rng.choice((-1, 1)) * rng.randint(1, 9), i, j)
                        for i, j in monomials]) for _ in range(2))


def random_field(rng: random.Random, degree: int, terms: int):
    """Two sides of total degree ``degree`` with ``terms`` distinct
    monomials each, coefficients in +-{1, 2, 3}; the first side has a
    monomial of top degree. The same draws as the benchmark's sweep."""
    monomials = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
    top = [m for m in monomials if sum(m) == degree]
    sides = []
    for side in range(2):
        chosen = rng.sample(monomials, terms)
        if side == 0 and not any(sum(m) == degree for m in chosen):
            chosen[0] = rng.choice([m for m in top if m not in chosen])
        chosen.sort(key=lambda m: (-sum(m), -m[0]))
        sides.append(_side([(rng.choice((-3, -2, -1, 1, 2, 3)), i, j)
                            for i, j in chosen]))
    return tuple(sides)


def sweep_fields(seed: int) -> list:
    """The benchmark's degree-sweep pool for one seed, then its tail."""
    rng = random.Random(seed)
    shapes = ((2, 4), (2, 4), (2, 4), (3, 6))
    fields = [random_field(rng, *shapes[index % len(shapes)])
              for index in range(120)]
    rng = random.Random(seed)
    return fields + [random_field(rng, n, (n + 1) * (n + 2) // 4)
                     for n in (8, 12, 16)]


def polyline(points) -> Trajectory:
    """A time-limit run through the (x, y) points, the k-th at t = k."""
    flat = array("d", [v for t, (x, y) in enumerate(points)
                       for v in (t, x, y)])
    return Trajectory(Samples(flat), "time-limit")


@cache
def _cases_by_name() -> dict:
    return {case.name: case for case in load_cases()}


def case_by_name(name: str):
    """One bundled corpus case; the corpus is parsed once and the cases
    shared."""
    return _cases_by_name()[name]


def run_child(script: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``script`` on this checkout's library."""
    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=60)


class Alarm(BaseException):
    """The alarm of ``alarm`` went off; no ``except Exception`` takes it."""


def _ring(signum, frame):
    raise Alarm()


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise Alarm in the body once ``seconds`` have passed. The collector
    stays off meanwhile: an alarm that lands in a collection is raised in
    Hypothesis's gc callback, which swallows it, and the body runs on."""
    previous = signal.signal(signal.SIGALRM, _ring)
    collecting = gc.isenabled()
    gc.disable()
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if collecting:
            gc.enable()
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_coprime(sympy, a, b):
    """Oracle: sympy's gcd over QQ[x, y] has total degree 0."""
    x, y = sympy.symbols("x y")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}, x, y, domain=sympy.QQ)

    return sympy.gcd(to_sympy(a), to_sympy(b)).total_degree() == 0
