"""Equilibrium classification, infinity status, and symmetry checks."""

import random
from fractions import Fraction

import pytest

import artifact.analyze as analyze_module
import artifact.conjugate as conjugate_module
from conftest import (
    bipolys,
    case_by_name,
    const,
    dense_field,
    linear_times_circle,
    rational_fields,
    sweep_fields,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    is_equilibrium,
    jacobian_at,
    symmetry_by_identity,
)

from artifact.analyze import (
    SYMMETRY_KINDS,
    InfinityStatus,
    classify_linear,
    infinite_point_status,
    origin_status,
    symmetry_profile,
)
from artifact.charts import transition
from artifact.conjugate import DiffSystem, ZeroField, conjugate, partner_jet
from artifact.corpus import load_cases
from artifact.parse import parse_system

XY = ("x", "y")

# each symmetry kind as the matrix M of z -> Mz; every M is its own inverse
MATRICES = {
    "origin": ((-1, 0), (0, -1)),
    "axis-first": ((1, 0), (0, -1)),
    "axis-second": ((-1, 0), (0, 1)),
    "diagonal": ((0, 1), (1, 0)),
    "antidiagonal": ((0, -1), (-1, 0)),
}


def system(px, qy):
    return parse_system(XY, (px, qy))


class TestEquilibria:
    def test_saddle_origin(self):
        assert is_equilibrium(system("x", "-y"), (0, 0))

    def test_shifted_radial_equilibrium(self):
        assert is_equilibrium(system("x - 1", "y - 1"), (1, 1))

    def test_regular_point(self):
        assert not is_equilibrium(system("x", "-y"), (1, 1))

    def test_jacobian_of_saddle(self):
        assert jacobian_at(system("x", "-y"), (0, 0)) == ((1, 0), (0, -1))

    def test_jacobian_of_cubic_partner(self):
        partner = conjugate(case_by_name("7.3->7.4").system).conjugate
        assert jacobian_at(partner, (0, 0)) == ((16, 0), (0, 16))

    def test_jacobian_of_spiral_partner(self):
        partner = conjugate(case_by_name("5.5->5.6").system).conjugate
        assert jacobian_at(partner, (0, 0)) == ((-1, -1), (1, -1))


class TestClassifyLinear:
    def test_named_cases(self):
        assert classify_linear(((1, 0), (0, 1))) == "unstable dicritical node"
        assert classify_linear(((-2, 0), (0, -2))) == "stable dicritical node"
        assert classify_linear(((1, 0), (0, -1))) == "saddle"
        assert classify_linear(((-1, -1), (1, -1))) == "stable focus"
        assert classify_linear(((0, 1), (-1, 0))) == "center-linear"
        assert classify_linear(((-3, 0), (0, -1))) == "stable node"
        assert classify_linear(((2, 0), (0, 5))) == "unstable node"
        assert classify_linear(((1, 1), (0, 1))) == "unstable degenerate node"
        assert classify_linear(((-1, 1), (0, -1))) == "stable degenerate node"
        assert classify_linear(((0, 0), (0, 0))) == "degenerate"
        assert classify_linear(((1, 1), (1, 1))) == "degenerate"

    def test_dicritical_needs_equal_diagonal(self):
        # same trace/det as the identity-like boundary but not scalar
        assert classify_linear(((1, 1), (0, 1))) != "unstable dicritical node"

    @given(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9),
                        max_denominator=9),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                     st.integers(-5, 5), st.integers(-5, 5)))
    def test_positive_rescaling_invariance(self, c, entries):
        a, b, d, e = entries
        jac = ((Fraction(a), Fraction(b)), (Fraction(d), Fraction(e)))
        scaled = ((c * a, c * b), (c * d, c * e))
        assert classify_linear(jac) == classify_linear(scaled)


class TestInfinity:
    def test_radial_contraction(self):
        status = infinite_point_status(system("x", "y"))
        assert status.status == "equilibrium"
        assert status.eq_class == "stable dicritical node"

    def test_cubic_darboux_case(self):
        status = infinite_point_status(case_by_name("7.3->7.4").system)
        assert status.status == "equilibrium"
        assert status.eq_class == "unstable dicritical node"

    def test_regular_far_point(self):
        status = infinite_point_status(system("x^2 - y^2", "2*x*y"))
        assert status.status == "regular"
        assert status.eq_class is None

    def test_corpus_expectations(self):
        for case in load_cases():
            if case.infinity is None:
                continue
            status = infinite_point_status(case.system)
            assert status.status == case.infinity["status"], case.name
            assert status.eq_class == case.infinity.get("class"), case.name

    def test_json_shape(self):
        data = infinite_point_status(system("x", "y")).to_json_dict()
        assert data["status"] == "equilibrium"
        assert data["class"] == "stable dicritical node"
        assert data["conjugate_linear_part"] == [["-1", "0"], ["0", "-1"]]


def evaluated_origin_status(sys):
    """The origin's status from the general point tools, as an oracle."""
    jac = jacobian_at(sys, (0, 0))
    if not is_equilibrium(sys, (0, 0)):
        return InfinityStatus("regular", None, jac)
    return InfinityStatus("equilibrium", classify_linear(jac), jac)


def assert_matches_oracle(sys):
    status = origin_status(sys)
    assert status == evaluated_origin_status(sys)
    assert all(type(v) is Fraction for row in status.linear_part for v in row)


class TestOriginStatus:
    def test_corpus_systems_and_partners(self):
        for case in load_cases():
            partner = conjugate(case.system,
                                out_vars=case.conjugate_vars).conjugate
            assert_matches_oracle(case.system)
            assert_matches_oracle(partner)
            assert origin_status(partner) == \
                infinite_point_status(case.system), case.name

    @given(bipolys(max_exp=2), bipolys(max_exp=2), st.booleans())
    def test_random_systems(self, p, q, drop_constants):
        if drop_constants:
            p -= const(p.coefficient(0, 0))
            q -= const(q.coefficient(0, 0))
        try:
            sys = DiffSystem.build(XY, p, q)
        except ZeroField:
            return
        assert_matches_oracle(sys)

    def test_fraction_coefficients(self):
        sys = system("1/2*x - 3/4*y + x^2", "2/3*x*y + 5/7*y")
        status = origin_status(sys)
        assert status.linear_part == ((Fraction(1, 2), Fraction(-3, 4)),
                                      (Fraction(0), Fraction(5, 7)))
        assert status.eq_class == "unstable node"
        assert_matches_oracle(sys)


class TestInfinityFromTopParts:
    """infinite_point_status reads the partner's 1-jet from the field's
    top homogeneous parts; the partner's own origin after a full
    conjugation is the oracle, and the circle power partner_jet finds
    is conjugate's k."""

    @staticmethod
    def check(sys):
        result = conjugate(sys)
        status = infinite_point_status(sys)
        assert status == origin_status(result.conjugate)
        assert all(type(v) is Fraction
                   for row in status.linear_part for v in row)
        assert partner_jet(sys)[0] == result.k

    def test_corpus(self):
        for case in load_cases():
            self.check(case.system)

    @pytest.mark.parametrize("seed", [1, 7, 7777])
    def test_sweep_pool_and_tail(self, seed):
        for field in sweep_fields(seed):
            self.check(parse_system(XY, field))

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_dense_fields(self, degree):
        self.check(parse_system(XY, dense_field(random.Random(degree),
                                                degree)))

    @given(rational_fields())
    @settings(max_examples=150, deadline=None)
    def test_rational_fields(self, sys):
        self.check(sys)

    @given(linear_times_circle())
    @settings(max_examples=150, deadline=None)
    def test_linear_parts_times_circle_powers(self, sys):
        self.check(sys)

    def test_examples(self):
        for rhs in [
                # the top part alone: e_5 = 3 and a linear 1-jet
                ("x*(x^2 + y^2)^2 + 1", "y*(x^2 + y^2)^2"),
                # x^4 lowers k to 1 below the top part's e_5 = 3, and
                # leaves the 1-jet zero
                ("x*(x^2 + y^2)^2 + x^4", "y*(x^2 + y^2)^2"),
                # the linear part reduces to degree 1 but has e_1 = 2 > k
                ("x + x^2 + y^2", "y"),
                ("-y*(x^2 + y^2)^3 + x^2", "x*(x^2 + y^2)^3"),
                ("0", "y*(x^2 + y^2)"), ("1", "0")]:
            self.check(system(*rhs))

    def test_no_conjugation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("infinite_point_status conjugated")

        sys = parse_system(XY, dense_field(random.Random(32), 32))
        expected = origin_status(conjugate(sys).conjugate)
        for module in (conjugate_module, analyze_module):
            monkeypatch.setattr(module, "conjugate", refuse)
        monkeypatch.setattr(conjugate_module, "_transported_pair", refuse)
        assert infinite_point_status(sys) == expected


class TestSymmetry:
    def test_saddle_axis_symmetry(self):
        assert symmetry_profile(system("x", "-y"))["axis-first"]

    def test_spiral_origin_symmetry(self):
        assert symmetry_profile(case_by_name("5.5->5.6").system)["origin"]

    def test_spiral_axis_symmetry_fails(self):
        assert not symmetry_profile(
            case_by_name("5.5->5.6").system)["axis-first"]

    def test_corpus_profiles(self):
        for case in load_cases():
            if case.symmetries is None:
                continue
            assert symmetry_profile(case.system) == case.symmetries, case.name

    def test_corpus_matches_written_identities(self):
        for case in load_cases():
            assert symmetry_profile(case.system) == {
                kind: symmetry_by_identity(case.system, kind)
                for kind in SYMMETRY_KINDS}, case.name

    @settings(max_examples=300)
    @given(bipolys(max_exp=3, max_terms=4), bipolys(max_exp=3, max_terms=4),
           st.sampled_from(SYMMETRY_KINDS + (None,)), st.sampled_from((1, -1)))
    def test_planted_symmetries_match_written_identities(self, p, q, kind,
                                                         sign):
        # F + sign * M F(Mz) keeps its directions under M (sign 1 keeps
        # the flow, -1 reverses it); kind None leaves the field as drawn
        if kind is not None:
            (a, b), (c, d) = MATRICES[kind]
            # F(Mz) for the signed permutation M
            pm, qm = (f.scale_vars(a, d) if b == 0
                      else f.swap_vars().scale_vars(c, b) for f in (p, q))
            a, b, c, d, sign = map(const, (a, b, c, d, sign))
            p, q = (p + sign * (a * pm + b * qm),
                    q + sign * (c * pm + d * qm))
        assume(not (p.is_zero() and q.is_zero()))
        sys = DiffSystem.build(XY, p, q)
        profile = symmetry_profile(sys)
        assert profile == {k: symmetry_by_identity(sys, k)
                           for k in SYMMETRY_KINDS}
        assert kind is None or profile[kind]

    def test_transfer_to_partner_system(self):
        for case in load_cases():
            partner = conjugate(case.system,
                                out_vars=case.conjugate_vars).conjugate
            for kind in SYMMETRY_KINDS:
                assert symmetry_profile(case.system)[kind] == \
                    symmetry_profile(partner)[kind], (case.name, kind)


class TestEquilibriumTransfer:
    def test_listed_equilibria_map_to_partner_equilibria(self):
        pairs = [
            ("6.1->6.2", (1, 1)),
            ("6.3->6.4", (1, 1)),
            ("6.5->6.6", (0, 1)),
        ]
        for name, point in pairs:
            case = case_by_name(name)
            assert is_equilibrium(case.system, point), name
            partner = conjugate(case.system,
                                out_vars=case.conjugate_vars).conjugate
            image = transition((Fraction(point[0]), Fraction(point[1])))
            assert is_equilibrium(partner, image), name

    def test_example_image_points(self):
        assert transition((Fraction(1), Fraction(1))) == (2, 2)
        assert transition((Fraction(0), Fraction(1))) == (0, 4)
