"""Partner-system computation: raw transform, reduction, cross-checks."""

import os
import random
import subprocess
import sys
import textwrap
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact
import artifact.conjugate as conjugate_module
import artifact.poly as poly_module
from conftest import (
    circled,
    coefficients,
    const,
    dense_field,
    linear_times_circle,
    nonzero_bipolys,
    planted_factors,
    random_field,
    rational_fields,
    sweep_fields,
    sympy_coprime,
)
from oracles import (
    bipoly_transported_pair,
    circle_power_formula,
    divide_by_circle,
    fraction_transported_pair,
    rebuild_from_quotients,
    reduction_quotients,
    transcribed_variants,
    wn_divisibility,
)
from artifact.conjugate import (
    DiffSystem,
    OriginSingularity,
    ReductionTheoremViolated,
    ZeroField,
    conjugate,
    partner_vars,
    pushforward_residual,
    raw_conjugate,
    transition_jacobian,
)
from artifact.corpus import load_cases
from artifact.parse import parse_polynomial, parse_system
from artifact.poly import (
    BiPoly,
    NotDivisible,
    circle_valuation,
    integer_numerators,
)

XY = ("x", "y")
UV = ("u", "v")


def poly(text, vars=UV):
    return parse_polynomial(text, vars)


def system(px, qy):
    return parse_system(XY, (px, qy))


class TestWnDivisibility:
    def test_radial_field_quotient_zero(self):
        ok, quot = wn_divisibility(system("x", "y"))
        assert ok and quot.is_zero()

    def test_saddle_not_divisible(self):
        ok, rem = wn_divisibility(system("x", "-y"))
        assert not ok
        assert rem == poly("-2*x*y", XY)

    def test_rotation_quotient(self):
        ok, quot = wn_divisibility(system("y", "-x"))
        assert ok and quot == const(-1)


class TestRawConjugate:
    def test_radial_field(self):
        u0, v0 = raw_conjugate(system("x", "y"))
        assert u0 == poly("-u^3 - u*v^2")
        assert v0 == poly("-u^2*v - v^3")

    def test_saddle(self):
        u0, v0 = raw_conjugate(system("x", "-y"))
        assert u0 == poly("-u^3 + 3*u*v^2")
        assert v0 == poly("-3*u^2*v + v^3")

    def test_constant_field(self):
        u0, v0 = raw_conjugate(system("1", "2"))
        assert u0 == poly("-1/4*u^2 - u*v + 1/4*v^2")
        assert v0 == poly("1/2*u^2 - 1/2*u*v - 1/2*v^2")


class TestConjugate:
    def test_radial_field_reduces_fully(self):
        res = conjugate(system("x", "y"))
        assert res.conjugate.rhs == (poly("-u"), poly("-v"))
        assert (res.k, res.m) == (1, 0)

    def test_saddle_keeps_time_factor(self):
        res = conjugate(system("x", "-y"))
        assert res.conjugate.rhs == (poly("-u^3 + 3*u*v^2"),
                                     poly("-3*u^2*v + v^3"))
        assert (res.k, res.m) == (0, 1)
        assert res.time_relation() == "(u^2+v^2)^1 dtau = dt"

    def test_quadratic_image_of_constants_comes_back(self):
        first = conjugate(system("1", "2"))
        back = conjugate(first.conjugate, out_vars=XY)
        assert back.conjugate.rhs == (const(1), const(2))
        assert (back.k, back.m) == (2, 0)

    def test_output_variables_default_to_partner_pair(self):
        res = conjugate(system("x", "-y"))
        assert res.conjugate.vars == UV
        again = conjugate(res.conjugate)
        assert again.conjugate.vars == XY

    def test_json_dict_shape(self):
        data = conjugate(system("x", "-y")).to_json_dict()
        assert data == {
            "n": 1, "k": 0, "m": 1,
            "U": "-u^3 + 3*u*v^2", "V": "-3*u^2*v + v^3",
            "coprime": True,
            "time_relation": "(u^2+v^2)^1 dtau = dt",
        }


class TestCorpusCases:
    def test_every_case_reproduced_exactly(self):
        for case in load_cases():
            res = conjugate(case.system, out_vars=case.conjugate_vars)
            assert case.system.degree == case.expected_n, case.name
            assert (res.k, res.m) == (case.expected_k, case.expected_m), case.name
            assert res.conjugate.rhs == (case.expected_u, case.expected_v), case.name

    def test_transcribed_variants_fail_the_identities(self):
        # the four recorded published variants must not satisfy the
        # pushforward identity that the expected pairs satisfy
        transcribed = transcribed_variants()
        assert len(transcribed) == 4
        for case in load_cases():
            if case.name not in transcribed:
                continue
            pair, note = transcribed[case.name]
            res = conjugate(case.system, out_vars=case.conjugate_vars)
            assert pair != res.conjugate.rhs, case.name
            assert note, case.name

    def test_reduced_pair_never_jointly_circle_divisible(self):
        for case in load_cases():
            res = conjugate(case.system, out_vars=case.conjugate_vars)
            u, v = res.conjugate.rhs
            assert min(circle_valuation(u), circle_valuation(v)) == 0, case.name

    def test_wn_divisibility_agrees_with_k(self):
        for case in load_cases():
            ok, _ = wn_divisibility(case.system)
            assert ok == (case.expected_k >= 1), case.name

    def test_degree_bound_on_k(self):
        for case in load_cases():
            assert 2 * case.expected_k <= case.expected_n + 2, case.name


class TestNoCirclePowerLeft:
    """conjugate divides the transported pair exactly k times, with k
    from the top-parts walk, not until a remainder: a k one too low
    would leave a circle power in both sides of the partner, and one
    too high raises."""

    @staticmethod
    def check(sys):
        u, v = conjugate(sys).conjugate.rhs
        assert min(circle_valuation(u), circle_valuation(v)) == 0

    @pytest.mark.parametrize("seed", [1, 7, 7777])
    def test_sweep_pool_and_tail(self, seed):
        for field in sweep_fields(seed):
            self.check(system(*field))

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_dense_fields(self, degree):
        self.check(system(*dense_field(random.Random(degree), degree)))

    @given(linear_times_circle())
    @settings(max_examples=150, deadline=None)
    def test_linear_parts_times_circle_powers(self, sys):
        self.check(sys)


class TestKrDecomposition:
    def test_radial_field(self):
        ks, qs = reduction_quotients(system("x", "y"), 1)
        assert ks == [poly("-x", XY)]
        assert qs == [poly("-y", XY)]

    def test_rotation(self):
        ks, qs = reduction_quotients(system("y", "-x"), 1)
        assert ks == [poly("y", XY)]
        assert qs == [poly("-x", XY)]

    def test_saddle_fails_at_level_one(self):
        with pytest.raises(NotDivisible) as info:
            reduction_quotients(system("x", "-y"), 1)
        assert info.value.r == 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            reduction_quotients(system("x", "y"), 2)


class TestRebuild:
    def test_radial_field(self):
        assert rebuild_from_quotients(system("x", "y"), 1) == (poly("-u"), poly("-v"))

    def test_rotation(self):
        assert rebuild_from_quotients(system("y", "-x"), 1) == (poly("v"), poly("-u"))

    def test_shifted_radial_field(self):
        u, v = rebuild_from_quotients(system("x - 1", "y - 1"), 1)
        assert u == poly("-u + 1/4*u^2 + 1/2*u*v - 1/4*v^2")
        assert v == poly("-v - 1/4*u^2 + 1/2*u*v + 1/4*v^2")

    def test_agrees_with_direct_path_on_corpus(self):
        for case in load_cases():
            if case.expected_k < 1:
                continue
            res = conjugate(case.system, out_vars=case.conjugate_vars)
            rebuilt = rebuild_from_quotients(case.system, res.k,
                                      out_vars=case.conjugate_vars)
            assert rebuilt == res.conjugate.rhs, case.name


class TestPushforward:
    def test_rotation_at_unit_point(self):
        sys = system("y", "-x")
        res = conjugate(sys)
        assert pushforward_residual(sys, res, (1, 0)) == (0, 0)

    def test_radial_field_at_diagonal_point(self):
        sys = system("x", "y")
        res = conjugate(sys)
        assert pushforward_residual(sys, res, (1, 1)) == (0, 0)

    def test_origin_rejected(self):
        sys = system("x", "y")
        res = conjugate(sys)
        with pytest.raises(OriginSingularity):
            pushforward_residual(sys, res, (0, 0))

    def test_jacobian_at_unit_point(self):
        assert transition_jacobian(Fraction(1), Fraction(0)) == (
            (Fraction(-4), Fraction(0)), (Fraction(0), Fraction(4)))

    def test_zero_residual_across_corpus(self):
        rng = random.Random(20260816)
        for case in load_cases():
            res = conjugate(case.system, out_vars=case.conjugate_vars)
            for _ in range(3):
                p = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                if p == (0, 0):
                    continue
                assert pushforward_residual(case.system, res, p) == (0, 0), case.name


def _double_conjugate_matches(sys):
    first = conjugate(sys)
    back = conjugate(first.conjugate, out_vars=sys.vars)
    scale = const(Fraction(16) ** first.m, sys.vars)
    assert back.conjugate.rhs[0] == scale * sys.rhs[0]
    assert back.conjugate.rhs[1] == scale * sys.rhs[1]
    assert back.m == first.m
    n_star = first.conjugate.degree
    assert first.k + back.k == sys.degree + n_star - 2 * first.m


class TestInvolution:
    """Conjugating twice returns the original field times 16^m.

    The transition map is an exact point involution, and the polynomial
    form multiplies the pushed-forward field by (u^2+v^2)^n before
    stripping circle powers; composing both directions leaves exactly the
    time-scale factor 16^m, so the identity is literal precisely when
    m = 0.
    """

    def test_corpus_round_trips(self):
        for case in load_cases():
            _double_conjugate_matches(case.system)

    def test_identity_when_m_is_zero(self):
        for rhs in (("x", "y"), ("y", "-x"), ("x - 1", "y - 1")):
            sys = system(*rhs)
            first = conjugate(sys)
            assert first.m == 0
            back = conjugate(first.conjugate, out_vars=XY)
            assert back.conjugate.rhs == sys.rhs

    @given(st.tuples(coefficients(), coefficients(), coefficients(),
                     coefficients(), coefficients(), coefficients()))
    @settings(max_examples=30, deadline=None)
    def test_random_linear_systems_round_trip(self, cs):
        a, b, c, d, e, f = cs
        p = BiPoly(XY, {(0, 0): a, (1, 0): b, (0, 1): c})
        q = BiPoly(XY, {(0, 0): d, (1, 0): e, (0, 1): f})
        if p.is_zero() and q.is_zero():
            return
        _double_conjugate_matches(DiffSystem.build(XY, p, q))


class TestGuards:
    def test_zero_field_rejected_at_build(self):
        with pytest.raises(ZeroField):
            DiffSystem.build(XY, BiPoly(XY), BiPoly(XY))


def test_package_does_not_shadow_the_submodule():
    import artifact.conjugate as module
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules["artifact.conjugate"] is artifact.conjugate
    assert module.conjugate is conjugate


class TestTheoremChecks:
    """The bounds 0 <= m and 2k <= n + 2 are checked without assert, in
    the one place that decides k."""

    # (field, forced k): k = 99 makes m negative; n = 4, k = 4 gives
    # m = 0 but 2k > n + 2. The top-parts walk finds k as n - j + (the
    # circle power of the top part t_j) at j = n, so forcing that power
    # forces k, for conjugate and partner_jet alike.
    IMPOSSIBLE = [(("x", "y"), 99), (("x^4", "y^4"), 4)]
    ENTRIES = ["conjugate", "partner_jet"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("rhs,k", IMPOSSIBLE)
    def test_impossible_k_raises(self, monkeypatch, rhs, k, entry):
        monkeypatch.setattr(conjugate_module, "_strip_forms",
                            lambda tu, tv: (k, tu, tv))
        with pytest.raises(ReductionTheoremViolated, match=f"k={k}"):
            getattr(conjugate_module, entry)(system(*rhs))

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("rhs,k", IMPOSSIBLE)
    def test_impossible_k_raises_under_optimize(self, rhs, k, entry):
        script = textwrap.dedent(f"""
            import sys
            import artifact.conjugate as mod
            from artifact.parse import parse_system
            if not sys.flags.optimize:
                sys.exit(2)
            mod._strip_forms = lambda tu, tv: ({k}, tu, tv)
            try:
                mod.{entry}(parse_system(("x", "y"), {rhs!r}))
            except mod.ReductionTheoremViolated:
                sys.exit(0)
            sys.exit(1)
        """)
        done = _run_optimized(script)
        assert done.returncode == 0, done.stderr

    # The transport is invertible (see ConjugationResult._coprime), so a
    # nonzero field never transports to two zero sides; if it did, k
    # divisions would leave them zero and the partner's build would
    # refuse them.
    def test_zero_transport_raises(self, monkeypatch):
        zero = BiPoly(UV)
        monkeypatch.setattr(conjugate_module, "_transported_pair",
                            lambda sides, n, out: (zero, zero))
        with pytest.raises(ZeroField):
            conjugate(system("x", "y"))

    def test_zero_transport_raises_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            import artifact.conjugate as mod
            from artifact.parse import parse_system
            from artifact.poly import BiPoly
            if not sys.flags.optimize:
                sys.exit(2)
            zero = BiPoly(("u", "v"))
            mod._transported_pair = lambda sides, n, out: (zero, zero)
            try:
                mod.conjugate(parse_system(("x", "y"), ("x", "y")))
            except mod.ZeroField:
                sys.exit(0)
            sys.exit(1)
        """)
        done = _run_optimized(script)
        assert done.returncode == 0, done.stderr


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """script run by a fresh interpreter under -O on this library."""
    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


class TestSharedFactorPartner:
    """Both sides share x - 2*y + 1, so the partner's sides share a factor
    too; the certificate cannot settle that, the exact stage decides it."""

    FIELD = ("(x - 2*y + 1)*(- 2*x^3*y^2 + 3*y^5 + 2*x^2*y + x + 3*y - 1)",
             "(x - 2*y + 1)*(2*y^5 + 2*x^3*y + 3*y^4 - 3*x^2*y - 2*y^3 + 2)")

    def test_partner_not_coprime_in_bounded_time(self):
        result = conjugate(system(*self.FIELD))
        started = time.monotonic()
        assert result.conjugate.coprime is False
        assert time.monotonic() - started < 5.0


class TestLazyCoprime:
    """DiffSystem.coprime runs is_coprime only when something reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = conjugate_module.is_coprime

        def counting(a, b):
            seen.append((a, b))
            return real(a, b)

        monkeypatch.setattr(conjugate_module, "is_coprime", counting)
        return seen

    def test_parse_and_conjugate_make_no_call(self, calls):
        conjugate(system("-y - x*(x^2 + y^2 - 1)", "x - y*(x^2 + y^2 - 1)"))
        assert calls == []

    def test_json_reads_the_original_pair_once(self, calls):
        # the partner's flag is decided on the original pair (see
        # TestPartnerCoprimeByTheorem), and --check-coprime shares it
        result = conjugate(system("x*y - 1", "x^2 - y^3"))
        doc = result.to_json_dict()
        assert calls == [result.system.rhs]
        assert doc["coprime"] is True
        assert result.system.coprime is True
        result.to_json_dict()
        assert len(calls) == 1
        assert result.conjugate.coprime is True


class TestPartnerCoprimeByTheorem:
    """The JSON ``coprime`` is the partner's answer, decided on the original
    pair once the circle power its two sides share is divided out; the
    partner's own direct test and sympy.gcd on the partner are the
    oracles."""

    @staticmethod
    def check(sympy, p, q):
        result = conjugate(DiffSystem.build(XY, p, q))
        flag = result.to_json_dict()["coprime"]
        assert flag is result.conjugate.coprime
        assert flag == sympy_coprime(sympy, *result.conjugate.rhs)
        return flag

    @pytest.mark.parametrize("rhs,partner_coprime", [
        # a shared circle power makes (P, Q) share a factor while the
        # partner is coprime: the rule must divide it out first
        (("x*(x^2 + y^2)", "y*(x^2 + y^2)"), True),
        (("(x - y^2)*(x^2 + y^2)^2", "(x*y + 1)*(x^2 + y^2)"), True),
        (("(x + y)*(x^2 + y^2)", "(x + y)*(x^2 + y^2)*y"), False),
        (("x^2 + y^2", "x*(x^2 + y^2)^2"), True),
        (("0", "(x^2 + y^2)^2"), True),
        (("0", "x*(x^2 + y^2)"), False),
        (("x - 2*y + 1", "0"), False),
    ])
    def test_examples(self, sympy, rhs, partner_coprime):
        p, q = (parse_polynomial(side, XY) for side in rhs)
        assert self.check(sympy, p, q) is partner_coprime

    @pytest.mark.parametrize("shared", [0, 1],
                             ids=["own-circles", "shared-circle"])
    @pytest.mark.parametrize("axes", [None, (0,), (1,), (0, 1)],
                             ids=["random", "x-only", "y-only", "both"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_the_partner(self, sympy, axes, shared, data):
        small = nonzero_bipolys(XY, max_exp=2, max_terms=3)
        g, h = data.draw(small, label="g"), data.draw(small, label="h")
        if axes is not None:
            f = data.draw(planted_factors(axes), label="f")
            g, h = f * g, f * h
        a = data.draw(st.integers(0, 2), label="circle power of P")
        b = data.draw(st.integers(0, 2), label="circle power of Q")
        p, q = circled(g, a + shared), circled(h, b + shared)
        zero = data.draw(st.sampled_from([None, 0, 1]), label="zero side")
        if zero == 0:
            p = BiPoly(XY)
        elif zero == 1:
            q = BiPoly(XY)
        self.check(sympy, p, q)

    def test_shared_circle_power_divided_once(self, monkeypatch):
        # the pair shares s^3: three divisions a side, and none spent on
        # finding that power
        result = conjugate(system("x*(x^2 + y^2)^3", "y*(x^2 + y^2)^3"))
        calls, real = [], poly_module.divmod_circle

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poly_module, "divmod_circle", counted)
        assert result._coprime is True
        assert len(calls) == 6


class TestCirclePowerFormula:
    """The k that ``conjugate`` removes against the closed formula from
    the roots +-i of the field's complex parts (``circle_power_formula``
    in tests/oracles.py), which shares nothing with the top-parts walk."""

    def test_corpus(self):
        ks = set()
        for case in load_cases():
            k = conjugate(case.system).k
            assert circle_power_formula(case.system) == k, case.name
            ks.add(k)
        assert ks == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("seed", [1, 7, 7777])
    def test_sweep_pool_and_tail(self, seed):
        for field in sweep_fields(seed):
            sys = system(*field)
            assert circle_power_formula(sys) == conjugate(sys).k

    @given(rational_fields())
    @settings(max_examples=100, deadline=None)
    def test_rational_fields(self, sys):
        assert circle_power_formula(sys) == conjugate(sys).k

    @given(linear_times_circle())
    @settings(max_examples=100, deadline=None)
    def test_linear_parts_times_circle_powers(self, sys):
        assert circle_power_formula(sys) == conjugate(sys).k


def _same_public(got, ref):
    """Equal terms in equal order, and Fraction coefficients only."""
    assert list(got.terms.items()) == list(ref.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


class TestIntegerTransport:
    """conjugate and raw_conjugate work on integer numerators and convert
    once; the Fraction transport is the oracle, and the closed-form
    rebuild on it must give the same reduced pair wherever it applies."""

    @given(rational_fields())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_fraction_transport(self, sys):
        raw = raw_conjugate(sys)
        ref_raw = fraction_transported_pair(sys, UV, sys.degree)
        for got, ref in zip(raw, ref_raw):
            _same_public(got, ref)
        k = min(map(circle_valuation, ref_raw))
        result = conjugate(sys)
        assert (result.k, result.m) == (k, sys.degree - k)
        for got, ref in zip(result.conjugate.rhs, divide_by_circle(*ref_raw, k)):
            _same_public(got, ref)
        if k >= 1:
            try:
                rebuilt = rebuild_from_quotients(sys, k)
            except NotDivisible:
                return     # the closed form does not apply at this k
            assert rebuilt == result.conjugate.rhs


def _seeded_fields(count: int) -> list:
    """Random fields of degree 1 to 10, from one to all monomials a side."""
    rng = random.Random(30)
    fields = []
    for _ in range(count):
        n = rng.randint(1, 10)
        terms = rng.randint(1, (n + 1) * (n + 2) // 2)
        fields.append(random_field(rng, n, terms))
    return fields


class TestTermDictTransport:
    """_transported_pair runs on plain term dicts; the BiPoly-chain
    transport it replaced is the oracle: the same terms in the same
    order, the same coefficient types and the same scale."""

    @staticmethod
    def transport(sys, out):
        """(U, V, 4D) from the field's integer sides, as the oracle
        returns them."""
        sides, d = integer_numerators(*sys.rhs)
        return (*conjugate_module._transported_pair(sides, sys.degree, out),
                4 * d)

    def check(self, sys):
        out = partner_vars(sys.vars)
        got = self.transport(sys, out)
        ref = bipoly_transported_pair(sys, out)
        assert got[2] == ref[2]
        for side, ref_side in zip(got[:2], ref[:2]):
            assert side.vars == ref_side.vars == out
            assert list(side.terms.items()) == list(ref_side.terms.items())
            assert ([type(c) for c in side.terms.values()]
                    == [type(c) for c in ref_side.terms.values()])

    def test_corpus(self):
        for case in load_cases():
            self.check(case.system)

    @pytest.mark.parametrize("seed", [1, 7, 7777])
    def test_sweep_pool_and_tail(self, seed):
        for field in sweep_fields(seed):
            self.check(system(*field))

    def test_seeded_random_fields(self):
        for field in _seeded_fields(1500):
            self.check(system(*field))

    @given(rational_fields())
    @settings(max_examples=60, deadline=None)
    def test_rational_fields(self, sys):
        self.check(sys)

    def test_a_cancelled_key_is_appended_again(self):
        # a*S_X cancels u^2*v^2 and 2uv*S_Y brings it back: it must come
        # last in U, after the terms a*S_X kept
        sys = system("x^2 + y^2", "x*y")
        u, v, scale = self.transport(sys, UV)
        assert list(u.terms.items()) == [((0, 4), 16), ((4, 0), -16),
                                         ((2, 2), -32)]
        assert scale == 4
        self.check(sys)


class TestConjugationAgainstSympy:
    """The partner against sympy, independently of the exact core: the
    field pushed through p -> 4p/|p|^2 by the chain rule, substituted,
    and cancelled, equals (U, V)/(u^2+v^2)^m, and no circle power is left
    in both of U, V."""

    @given(rational_fields(max_exp=2, max_power=1))
    @settings(max_examples=15, deadline=None)
    def test_pushforward_is_the_partner(self, sympy, sys):
        x, y, u, v = sympy.symbols("x y u v")

        def expr(p, a, b):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * a**i * b**j for (i, j), c in p.terms.items()),
                       sympy.Integer(0))

        image = sympy.Matrix([4 * x / (x**2 + y**2), 4 * y / (x**2 + y**2)])
        field = sympy.Matrix([expr(p, x, y) for p in sys.rhs])
        pushed = (image.jacobian([x, y]) * field).subs(
            {x: 4 * u / (u**2 + v**2), y: 4 * v / (u**2 + v**2)},
            simultaneous=True)
        result = conjugate(sys)
        r2 = u**2 + v**2
        partner = [expr(p, u, v) for p in result.conjugate.rhs]
        raw = [expr(p, u, v) for p in raw_conjugate(sys)]
        for lhs, reduced, unreduced in zip(pushed, partner, raw):
            assert sympy.cancel(lhs - reduced / r2**result.m) == 0
            assert sympy.cancel(lhs - unreduced / r2**sys.degree) == 0
        circle = sympy.Poly(r2, u, v)
        assert not all(sympy.Poly(side, u, v).rem(circle).is_zero
                       for side in partner)
