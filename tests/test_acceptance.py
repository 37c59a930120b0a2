"""Acceptance gate: one test per contract criterion, stated tolerances.

Run with -v to get one pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction

from oracles import (
    chart_project,
    on_curve,
    psi_jacobians,
    stereo_project,
    transcribed_variants,
)

from artifact.analyze import (
    SYMMETRY_KINDS,
    infinite_point_status,
    symmetry_profile,
)
from artifact.atlas import AtlasConfig, build_atlas, render_svg
from artifact.charts import (
    AT_INFINITY,
    Chart,
    Circle,
    Line,
    Point,
    map_curve,
    transition,
)
from artifact.conjugate import (
    DiffSystem,
    conjugate,
    pushforward_residual,
    transition_jacobian,
)
from artifact.corpus import load_cases
from artifact.dynamics import IntegratorConfig, conjugacy_residual, integrate
from artifact.parse import parse_system
from artifact.poly import BiPoly

ALL_PAIRS = {
    "4.4->4.5", "4.6->4.7", "4.6->4.8", "4.9->4.10", "4.9->4.11",
    "4.9->4.12", "5.1->5.2", "5.3->5.4", "5.5->5.6", "5.7->5.8",
    "5.9->5.10", "5.11->5.12", "6.1->6.2", "6.3->6.4", "6.5->6.6",
    "6.7->6.8", "7.1->7.2", "7.3->7.4", "7.5->7.6", "7.7->7.8",
    "9.1->9.2", "9.4->9.5", "9.6->9.7", "9.8->9.9", "9.10->9.13",
    "9.11->9.14", "9.12->9.15",
}


def by_name(name):
    return next(c for c in load_cases() if c.name == name)


def test_a1_symbolic_oracle_suite_exact():
    started = time.monotonic()
    cases = load_cases()
    transcribed = transcribed_variants()
    assert {c.name for c in cases} == ALL_PAIRS
    for case in cases:
        result = conjugate(case.system, out_vars=case.conjugate_vars)
        pu, pv = result.conjugate.rhs
        assert pu == case.expected_u and pv == case.expected_v, case.name
        assert (result.k, result.m) == \
            (case.expected_k, case.expected_m), case.name
        assert result.system.degree == case.expected_n, case.name
        if case.name in transcribed:
            # a recorded published variant that fails the exact identities;
            # adjudicated and documented on the case, never patched in
            pair, note = transcribed[case.name]
            assert pair != (pu, pv), case.name
            assert note, case.name
    assert time.monotonic() - started < 5.0


def _random_coprime_system(rng):
    vars_ = ("x", "y")
    while True:
        polys = []
        for _ in range(2):
            poly = BiPoly(vars_)
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(0, 3)
                j = rng.randint(0, 3 - i)
                poly = poly + BiPoly(vars_, {(i, j): rng.randint(-5, 5)})
            polys.append(poly)
        if polys[0].is_zero() and polys[1].is_zero():
            continue
        system = DiffSystem.build(vars_, polys[0], polys[1])
        if system.coprime:
            return system


def _double_conjugate_is_scaled_identity(system):
    once = conjugate(system)
    twice = conjugate(once.conjugate)
    scale = BiPoly(system.vars, {(0, 0): Fraction(16) ** once.m})
    assert twice.conjugate.vars == system.vars
    assert twice.conjugate.rhs[0] == scale * system.rhs[0]
    assert twice.conjugate.rhs[1] == scale * system.rhs[1]
    assert twice.m == once.m
    back = once.k + twice.k
    assert back == system.degree + once.conjugate.degree - 2 * once.m
    if once.m == 0:
        assert twice.conjugate.rhs == system.rhs


def test_a2_involution_exact():
    started = time.monotonic()
    for case in load_cases():
        _double_conjugate_is_scaled_identity(case.system)
    rng = random.Random(2704)
    for _ in range(200):
        _double_conjugate_is_scaled_identity(_random_coprime_system(rng))
    assert time.monotonic() - started < 30.0


def test_a3_pushforward_identity_exact():
    rng = random.Random(1103)
    for case in load_cases():
        result = conjugate(case.system)
        done = 0
        while done < 20:
            point = (Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                     Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
            if point == (0, 0):
                continue
            assert pushforward_residual(case.system, result, point) \
                == (0, 0), f"{case.name} at {point}"
            done += 1


def test_a4_chart_math_exact_and_jacobians():
    rng = random.Random(41)
    for _ in range(1000):
        p = (Fraction(rng.randint(-100, 100), rng.randint(1, 20)),
             Fraction(rng.randint(-100, 100), rng.randint(1, 20)))
        for chart in (Chart.N, Chart.S):
            sp = stereo_project(chart, p)
            assert sum(c * c for c in sp) == 1
            assert chart_project(chart, sp) == p
            assert stereo_project(chart, chart_project(chart, sp)) == sp
        if p != (0, 0):
            assert transition(transition(p)) == p

    def psi(x, y):
        s = x * x + y * y
        return (4 * x / (s + 4), 4 * y / (s + 4), (s - 4) / (s + 4))

    for _ in range(50):
        x = rng.uniform(0.2, 2.5) * rng.choice([-1, 1])
        y = rng.uniform(0.2, 2.5) * rng.choice([-1, 1])
        h = 1e-5
        dx = [(a - b) / (2 * h) for a, b in zip(psi(x + h, y), psi(x - h, y))]
        dy = [(a - b) / (2 * h) for a, b in zip(psi(x, y + h), psi(x, y - h))]
        fd = (dx[0] * dy[1] - dx[1] * dy[0],
              dx[0] * dy[2] - dx[2] * dy[0],
              dx[1] * dy[2] - dx[2] * dy[1])
        exact = psi_jacobians((Fraction(x).limit_denominator(10**12),
                               Fraction(y).limit_denominator(10**12)))
        for got, want in zip(fd, (float(v) for v in exact)):
            assert abs(got - want) < 1e-6 * max(1.0, abs(want)), (x, y)


CURVE_CASES = [
    # circle through the origin -> line
    (Circle((Fraction(-1), Fraction(0)), Fraction(1)),
     Line(Fraction(1), Fraction(0), Fraction(2))),
    # circle missing the origin -> circle
    (Circle((Fraction(3), Fraction(0)), Fraction(4)),
     Circle((Fraction(12, 5), Fraction(0)), Fraction(64, 25))),
    # origin-centered circle -> origin-centered circle, radius inverted
    (Circle((Fraction(0), Fraction(0)), Fraction(16)),
     Circle((Fraction(0), Fraction(0)), Fraction(1))),
    # the fixed circle maps to itself
    (Circle((Fraction(0), Fraction(0)), Fraction(4)),
     Circle((Fraction(0), Fraction(0)), Fraction(4))),
    # line through the origin -> itself
    (Line(Fraction(1), Fraction(-1), Fraction(0)),
     Line(Fraction(1), Fraction(-1), Fraction(0))),
    # line missing the origin -> circle through the origin
    (Line(Fraction(1), Fraction(0), Fraction(-2)),
     Circle((Fraction(1), Fraction(0)), Fraction(1))),
    # point -> its transition image
    (Point((Fraction(1), Fraction(0))), Point((Fraction(4), Fraction(0)))),
]


def _curve_samples(curve, count=10):
    if isinstance(curve, Circle):
        cx, cy = curve.center
        radius = Fraction(math.isqrt(curve.radius2.numerator),
                          math.isqrt(curve.radius2.denominator))
        assert radius * radius == curve.radius2
        for k in range(1, count + 1):
            t = Fraction(k, count + 3)
            den = 1 + t * t
            yield (cx + radius * (1 - t * t) / den, cy + radius * 2 * t / den)
    elif isinstance(curve, Line):
        if curve.b != 0:
            for k in range(1, count + 1):
                x = Fraction(k, 3)
                yield (x, (-curve.c - curve.a * x) / curve.b)
        else:
            for k in range(1, count + 1):
                yield (-curve.c / curve.a, Fraction(k, 3))
    else:
        yield curve.at


def test_a5_curve_images_exact():
    for curve, want in CURVE_CASES:
        assert map_curve(curve) == want, curve
        image = map_curve(curve)
        for p in _curve_samples(curve):
            if p == (0, 0):
                continue
            assert on_curve(curve, p)
            q = transition(p)
            if isinstance(image, Point):
                assert q == image.at
            else:
                assert on_curve(image, q), (curve, p)
    assert map_curve(Point((Fraction(0), Fraction(0)))) is AT_INFINITY


def test_a6_symmetry_examples_and_transfer():
    recorded = 0
    for case in load_cases():
        profile = symmetry_profile(case.system)
        if case.symmetries:
            recorded += 1
            for kind, want in case.symmetries.items():
                assert profile[kind] == want, (case.name, kind)
        partner_profile = symmetry_profile(
            conjugate(case.system, out_vars=case.conjugate_vars).conjugate)
        for kind in SYMMETRY_KINDS:
            assert profile[kind] == partner_profile[kind], (case.name, kind)
    assert recorded >= 7  # the worked symmetry examples are all on record


def test_a7_infinity_classification_exact():
    assert infinite_point_status(by_name("5.1->5.2").system).eq_class \
        == "stable dicritical node"
    assert infinite_point_status(by_name("7.3->7.4").system).eq_class \
        == "unstable dicritical node"
    folded = parse_system(("x", "y"), ("x^2 - y^2", "2*x*y"))
    assert infinite_point_status(folded).status == "regular"


def test_a8_numeric_dynamics_desk_scale():
    started = time.monotonic()
    tight = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10,
                             max_time=2 * math.pi)
    traj = integrate(by_name("5.3->5.4").system, (1.0, 0.0), tight)
    assert max(abs(math.hypot(x, y) - 1.0) for _, x, y in traj.samples) \
        < 1e-7

    partner = conjugate(by_name("7.1->7.2").system).conjugate
    falling = integrate(partner, (3.0, 0.0), IntegratorConfig())
    rs = [math.hypot(x, y) for _, x, y in falling.samples][:101]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    rising = integrate(partner, (4.5, 0.0), IntegratorConfig())
    rs = [math.hypot(x, y) for _, x, y in rising.samples][:101]
    assert all(a < b for a, b in zip(rs, rs[1:]))

    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, max_time=6.0)
    rng = random.Random(5858)
    for name in ["5.1->5.2", "5.3->5.4", "5.5->5.6",
                 "5.7->5.8", "5.9->5.10", "5.11->5.12"]:
        case = by_name(name)
        result = conjugate(case.system)
        done = 0
        while done < 5:
            start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if math.hypot(*start) < 0.05:
                continue
            if integrate(case.system, start, cfg).termination \
                    == "entered-origin-guard":
                continue
            residual = conjugacy_residual(case.system, result, start, cfg)
            assert residual < 1e-5, (name, start, residual)
            done += 1
    assert time.monotonic() - started < 20.0


def test_a9_rendering_determinism():
    cfg = AtlasConfig(rays=4, rings=2,
                      integrator=IntegratorConfig(max_time=6.0))
    for name in ("5.3->5.4", "7.3->7.4"):
        system = by_name(name).system
        first = render_svg(build_atlas(system, cfg))
        second = render_svg(build_atlas(system, cfg))
        assert first == second, name
    empty = AtlasConfig(rays=0, rings=0)
    svg = render_svg(build_atlas(by_name("5.3->5.4").system, empty))
    assert svg.count(b"<circle") == 2


def test_a10_conformality_numeric():
    rng = random.Random(1010)
    for _ in range(100):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.3, 3.0)
        p = (Fraction(radius * math.cos(angle)).limit_denominator(10**9),
             Fraction(radius * math.sin(angle)).limit_denominator(10**9))
        jac = [[float(v) for v in row] for row in transition_jacobian(*p)]
        a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        pairs = []
        for a in (a1, a2):
            vx, vy = math.cos(a), math.sin(a)
            wx = jac[0][0] * vx + jac[0][1] * vy
            wy = jac[1][0] * vx + jac[1][1] * vy
            pairs.append(((vx, vy), (wx, wy)))
        (v1, w1), (v2, w2) = pairs
        before = math.atan2(abs(v1[0] * v2[1] - v1[1] * v2[0]),
                            v1[0] * v2[0] + v1[1] * v2[1])
        after = math.atan2(abs(w1[0] * w2[1] - w1[1] * w2[0]),
                           w1[0] * w2[0] + w1[1] * w2[1])
        assert abs(before - after) < 1e-9, p
