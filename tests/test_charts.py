"""Projections, chart inverses, transition involution, curve images."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_by_name, curves
from oracles import (
    PoleExcluded,
    chart_project,
    curve_from_json,
    extended_transition,
    map_curve_by_cases,
    on_curve,
    psi_jacobians,
    stereo_project,
)

from artifact.charts import (
    AT_INFINITY,
    Chart,
    Circle,
    Line,
    OriginSingularity,
    Point,
    coefficients,
    map_curve,
    transition,
    transition_jacobian,
)
from artifact.dynamics import IntegratorConfig, integrate

rationals = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                         max_denominator=12)
points = st.tuples(rationals, rationals)
punctured = points.filter(lambda p: p != (0, 0))


class TestStereoProject:
    def test_south_tangency(self):
        assert stereo_project(Chart.N, (Fraction(0), Fraction(0))) == (0, 0, -1)

    def test_equator_point(self):
        assert stereo_project(Chart.N, (Fraction(2), Fraction(0))) == (1, 0, 0)

    def test_north_tangency(self):
        assert stereo_project(Chart.S, (Fraction(0), Fraction(0))) == (0, 0, 1)

    @given(points)
    def test_unit_norm_exact(self, p):
        for chart in Chart:
            xs, ys, zs = stereo_project(chart, p)
            assert xs * xs + ys * ys + zs * zs == 1


class TestStereoProjectFloats:
    def test_stationary_origin(self):
        assert stereo_project(Chart.N, (0.0, 0.0)) == (0.0, 0.0, -1.0)

    def test_partner_chart_flips_pole(self):
        assert stereo_project(Chart.S, (0.0, 0.0)) == (0.0, 0.0, 1.0)

    def test_fixed_circle_hits_equator(self):
        for k in range(6):
            for chart in Chart:
                _, _, z = stereo_project(chart, (2 * math.cos(k),
                                                 2 * math.sin(k)))
                assert abs(z) < 1e-15

    def test_unit_circle_parallel(self):
        _, _, z = stereo_project(Chart.N, (math.cos(0.4), math.sin(0.4)))
        assert z == pytest.approx(-3 / 5, abs=1e-15)

    def test_norms_on_integrated_trajectory(self):
        sys = case_by_name("5.5->5.6").system
        # the original system's trajectory lies in the chart N
        traj = integrate(sys, (0.4, 0.2), IntegratorConfig(max_time=4.0))
        for _, px, py in traj.samples:
            x, y, z = stereo_project(Chart.N, (px, py))
            assert abs(x * x + y * y + z * z - 1.0) <= 1e-12


class TestChartProject:
    def test_equator_inverse(self):
        assert chart_project(Chart.N, (Fraction(1), Fraction(0), Fraction(0))) \
            == (2, 0)

    def test_pole_excluded(self):
        with pytest.raises(PoleExcluded):
            chart_project(Chart.N, (Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(PoleExcluded):
            chart_project(Chart.S, (Fraction(0), Fraction(0), Fraction(-1)))

    def test_north_tangency(self):
        assert chart_project(Chart.S, (Fraction(0), Fraction(0), Fraction(1))) \
            == (0, 0)

    @given(points)
    def test_inverse_of_projection(self, p):
        for chart in Chart:
            assert chart_project(chart, stereo_project(chart, p)) == p


class TestTransition:
    def test_fixed_circle(self):
        assert transition((Fraction(2), Fraction(0))) == (2, 0)

    def test_doubling(self):
        assert transition((Fraction(1), Fraction(0))) == (4, 0)

    def test_origin_excluded(self):
        with pytest.raises(OriginSingularity):
            transition((0, 0))

    def test_extended_map_swaps_origin_and_infinity(self):
        assert extended_transition((0, 0)) is AT_INFINITY
        assert extended_transition(AT_INFINITY) == (0, 0)

    @pytest.mark.parametrize("zero", [(Fraction(0), Fraction(0)),
                                      (0.0, -0.0)])
    def test_origin_excluded_on_every_number_kind(self, zero):
        with pytest.raises(OriginSingularity):
            transition(zero)
        with pytest.raises(OriginSingularity):
            transition_jacobian(*zero)

    @given(punctured)
    def test_involution(self, p):
        assert transition(transition(p)) == p

    @given(punctured)
    def test_composition_of_charts(self, p):
        assert transition(p) == chart_project(
            Chart.S, stereo_project(Chart.N, p))


class TestPsiJacobians:
    def test_at_origin(self):
        assert psi_jacobians((Fraction(0), Fraction(0))) == (1, 0, 0)

    def test_on_equator(self):
        assert psi_jacobians((Fraction(2), Fraction(0))) == (0, 0, Fraction(-1, 4))

    @given(points)
    def test_never_all_zero(self, p):
        assert psi_jacobians(p) != (0, 0, 0)

    def test_matches_central_differences(self):
        h = 1e-6
        for p in [(0.3, -1.2), (2.0, 0.5), (-4.0, 3.0), (0.0, 0.1)]:
            x, y = p

            def proj(a, b):
                return stereo_project(Chart.N, (a, b))

            dx = [(r - l) / (2 * h)
                  for r, l in zip(proj(x + h, y), proj(x - h, y))]
            dy = [(r - l) / (2 * h)
                  for r, l in zip(proj(x, y + h), proj(x, y - h))]
            numeric = (dx[0] * dy[1] - dx[1] * dy[0],
                       dx[0] * dy[2] - dx[2] * dy[0],
                       dx[1] * dy[2] - dx[2] * dy[1])
            exact = psi_jacobians(p)
            for got, want in zip(numeric, exact):
                if want == 0:
                    assert abs(got) < 1e-6
                else:
                    assert abs(got - float(want)) / abs(float(want)) < 1e-6


def circle_samples(cx, cy, r, count=10):
    """Rational points on a circle with rational center and radius."""
    out = []
    t = Fraction(1, 3)
    while len(out) < count:
        x = cx + r * (1 - t * t) / (1 + t * t)
        y = cy + r * 2 * t / (1 + t * t)
        if (x, y) != (0, 0):
            out.append((x, y))
        t += Fraction(2, 5)
    return out


def line_samples(line, count=10):
    out = []
    t = Fraction(1, 2)
    while len(out) < count:
        if line.b:
            p = (t, -(line.c + line.a * t) / line.b)
        else:
            p = (-line.c / line.a, t)
        if p != (0, 0):
            out.append(p)
        t += Fraction(3, 4)
    return out


class TestMapCurve:
    def test_circle_through_origin_becomes_line(self):
        image = map_curve(Circle((-1, 0), 1))
        assert image == Line(1, 0, 2)

    def test_circle_away_from_origin_stays_circle(self):
        image = map_curve(Circle((3, 0), 1))
        assert image == Circle((Fraction(3, 2), 0), Fraction(1, 4))

    def test_fixed_circle_is_preserved(self):
        assert map_curve(Circle((0, 0), 4)) == Circle((0, 0), 4)

    def test_origin_centered_radius_inverts(self):
        # radius 4 -> radius 1, radius 1 -> radius 4
        assert map_curve(Circle((0, 0), 16)) == Circle((0, 0), 1)
        assert map_curve(Circle((0, 0), 1)) == Circle((0, 0), 16)

    def test_point_image(self):
        assert map_curve(Point((1, 1))) == Point((2, 2))

    def test_origin_point_goes_to_infinity(self):
        assert map_curve(Point((0, 0))) is AT_INFINITY
        assert map_curve(AT_INFINITY) == Point((0, 0))

    def test_diagonal_line_unchanged(self):
        assert map_curve(Line(1, -1, 0)) == Line(1, -1, 0)

    def test_coordinate_axis_unchanged(self):
        assert map_curve(Line(1, 0, 0)) == Line(1, 0, 0)

    def test_offset_line_becomes_circle_through_origin(self):
        image = map_curve(Line(1, 1, 1))
        assert image == Circle((-2, -2), 8)
        assert on_curve(image, (0, 0))

    def test_inside_and_outside_swap(self):
        inner = transition((Fraction(1, 2), Fraction(0)))
        assert inner[0] ** 2 + inner[1] ** 2 > 4
        outer = transition((Fraction(5), Fraction(0)))
        assert outer[0] ** 2 + outer[1] ** 2 < 4

    def test_sample_consistency_all_seven_cases(self):
        checks = [
            (Circle((-1, 0), 1), circle_samples(-1, 0, 1)),
            (Circle((3, 0), 1), circle_samples(3, 0, 1)),
            (Circle((0, 0), 4), circle_samples(0, 0, 2)),
            (Line(1, -1, 0), None),
            (Line(1, 0, 0), None),
            (Line(1, 1, 1), None),
        ]
        for curve, samples in checks:
            if samples is None:
                samples = line_samples(curve)
            image = map_curve(curve)
            assert len(samples) == 10
            for p in samples:
                assert on_curve(curve, p)
                assert on_curve(image, transition(p))
        # the point case: a point is its own sample
        assert on_curve(map_curve(Point((1, 1))), transition((1, 1)))

    def test_double_image_returns_original(self):
        for curve in (Circle((-1, 0), 1), Circle((3, 0), 1),
                      Circle((0, 0), 16), Point((1, 1)),
                      Line(1, -1, 0), Line(1, 1, 1)):
            assert map_curve(map_curve(curve)) == curve


class TestInversionRule:
    """``map_curve``'s one rule on (A, B, C, D) against the case list."""

    @settings(max_examples=300)
    @given(curves())
    def test_matches_case_analysis(self, curve):
        image, want = map_curve(curve), map_curve_by_cases(curve)
        assert type(image) is type(want)
        assert image == want
        assert image.to_json_dict() == want.to_json_dict()

    @given(curves().filter(lambda c: isinstance(c, (Circle, Line))), points)
    def test_coefficients_state_the_curve(self, curve, p):
        a, b, c, d = coefficients(curve)
        x, y = p
        value = a * (x * x + y * y) + b * x + c * y + d
        if isinstance(curve, Circle):
            cx, cy = curve.center
            assert a == 1
            assert value == (x - cx) ** 2 + (y - cy) ** 2 - curve.radius2
        else:
            assert a == 0
            assert value == curve.a * x + curve.b * y + curve.c
        assert (value == 0) == on_curve(curve, p)

    def test_not_a_circle_or_line(self):
        with pytest.raises(TypeError):
            coefficients(Point((1, 1)))


class TestDescriptors:
    def test_line_normalization(self):
        assert Line(Fraction(-1, 2), 0, Fraction(-3, 2)) == Line(1, 0, 3)
        assert Line(0, -2, 4) == Line(0, 1, -2)

    def test_degenerate_line_rejected(self):
        with pytest.raises(ValueError):
            Line(0, 0, 1)

    def test_degenerate_circle_rejected(self):
        with pytest.raises(ValueError):
            Circle((1, 1), 0)

    def test_json_round_trip(self):
        for curve in (Circle((Fraction(3, 2), 0), Fraction(1, 4)),
                      Line(1, -1, 0), Point((2, 2))):
            assert curve_from_json(curve.to_json_dict()) == curve
        assert curve_from_json(AT_INFINITY.to_json_dict()) is AT_INFINITY


class TestConformality:
    @given(punctured, st.tuples(rationals, rationals), st.tuples(rationals, rationals))
    @settings(max_examples=60)
    def test_cosine_of_angle_preserved_exactly(self, p, d1, d2):
        if d1 == (0, 0) or d2 == (0, 0):
            return
        jac = transition_jacobian(Fraction(p[0]), Fraction(p[1]))
        e1 = (jac[0][0] * d1[0] + jac[0][1] * d1[1],
              jac[1][0] * d1[0] + jac[1][1] * d1[1])
        e2 = (jac[0][0] * d2[0] + jac[0][1] * d2[1],
              jac[1][0] * d2[0] + jac[1][1] * d2[1])
        dot = d1[0] * d2[0] + d1[1] * d2[1]
        dot_image = e1[0] * e2[0] + e1[1] * e2[1]
        n1 = d1[0] ** 2 + d1[1] ** 2
        n2 = d2[0] ** 2 + d2[1] ** 2
        m1 = e1[0] ** 2 + e1[1] ** 2
        m2 = e2[0] ** 2 + e2[1] ** 2
        # cos^2 matches exactly and the sign of the cosine is preserved
        assert dot_image ** 2 * n1 * n2 == dot ** 2 * m1 * m2
        assert (dot > 0) == (dot_image > 0) and (dot < 0) == (dot_image < 0)
