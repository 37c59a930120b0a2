"""Integration, closure detection, and orbit-correspondence checks."""

import dataclasses
import math
import pickle
import random
import types
from fractions import Fraction

import pytest

from artifact import dynamics
from artifact.conjugate import conjugate
from artifact.corpus import case_by_name, load_cases
from artifact.dynamics import (
    DormandPrince54,
    IntegratorConfig,
    NumericOverflow,
    Trajectory,
    conjugacy_residual,
    detect_closed,
    field_eval,
    integrate,
)
from artifact.parse import parse_system


def tight(**kw):
    base = dict(rel_tol=1e-10, abs_tol=1e-10)
    base.update(kw)
    return IntegratorConfig(**base)


def radii(traj):
    return [math.hypot(x, y) for _, x, y in traj.samples]


class TestConfig:
    def test_defaults_valid(self):
        cfg = IntegratorConfig()
        assert cfg.origin_guard < cfg.outer_radius

    @pytest.mark.parametrize("bad", [
        dict(rel_tol=0.0),
        dict(abs_tol=-1e-9),
        dict(origin_guard=5.0, outer_radius=4.0),
        dict(max_time=0.0),
        dict(max_step=-1.0),
        dict(initial_step=0.0),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


class TestFieldEval:
    def test_rotation(self):
        sys = case_by_name("5.3->5.4").system
        assert field_eval(sys, (1.0, 0.0)) == (0.0, -1.0)

    def test_equilibrium(self):
        sys = case_by_name("5.1->5.2").system
        assert field_eval(sys, (0.0, 0.0)) == (0.0, 0.0)

    def test_partner_system(self):
        partner = conjugate(case_by_name("7.1->7.2").system).conjugate
        assert field_eval(partner, (4.0, 0.0)) == (0.0, 128.0)

    def test_overflow(self):
        sys = case_by_name("7.1->7.2").system
        with pytest.raises(NumericOverflow):
            field_eval(sys, (1e150, 0.0))


class TestIntegrate:
    def test_circle_closes(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (1.0, 0.0), tight(max_time=2 * math.pi + 0.1))
        assert traj.termination == "closed"
        assert max(abs(r - 1.0) for r in radii(traj)) < 1e-7

    def test_radial_escape(self):
        sys = case_by_name("5.1->5.2").system
        traj = integrate(sys, (0.1, 0.0), tight(max_time=10.0))
        assert traj.termination == "exited-outer-disk"
        rs = radii(traj)
        assert all(a < b for a, b in zip(rs, rs[1:]))

    def test_inside_unstable_cycle_falls_in(self):
        partner = conjugate(case_by_name("7.1->7.2").system).conjugate
        traj = integrate(partner, (3.0, 0.0), IntegratorConfig())
        assert traj.termination == "entered-origin-guard"
        rs = radii(traj)[:101]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_outside_unstable_cycle_escapes(self):
        partner = conjugate(case_by_name("7.1->7.2").system).conjugate
        traj = integrate(partner, (4.5, 0.0), IntegratorConfig())
        assert traj.termination == "exited-outer-disk"
        rs = radii(traj)[:101]
        assert all(a < b for a, b in zip(rs, rs[1:]))

    def test_equilibrium_start(self):
        sys = case_by_name("6.1->6.2").system
        traj = integrate(sys, (1.0, 1.0), tight())
        assert traj.termination == "converged-to-equilibrium"
        assert len(traj.samples) == 1

    def test_start_outside_disk_rejected(self):
        sys = case_by_name("5.1->5.2").system
        with pytest.raises(ValueError):
            integrate(sys, (200.0, 0.0), IntegratorConfig())

    def test_bad_direction_rejected(self):
        sys = case_by_name("5.1->5.2").system
        with pytest.raises(ValueError):
            integrate(sys, (1.0, 0.0), direction="sideways")

    def test_times_and_spacing(self):
        sys = case_by_name("5.5->5.6").system
        cfg = IntegratorConfig(max_time=4.0, max_step=0.125)
        traj = integrate(sys, (0.3, 0.1), cfg)
        ts = [t for t, _, _ in traj.samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(b - a <= cfg.max_step * (1 + 1e-12)
                   for a, b in zip(ts, ts[1:]))

    def test_time_limit_lands_exactly(self):
        sys = case_by_name("5.5->5.6").system
        traj = integrate(sys, (0.1, 0.0), tight(max_time=2.0))
        assert traj.termination == "time-limit"
        assert traj.samples[-1][0] == pytest.approx(2.0, abs=1e-12)

    def test_json_shape(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (1.0, 0.0), IntegratorConfig(max_time=1.0))
        doc = traj.to_json_dict()
        assert doc["chart"] == "N"
        assert doc["termination"] == "time-limit"
        assert all(len(row) == 3 for row in doc["samples"])

    def test_deterministic(self):
        sys = case_by_name("5.9->5.10").system
        a = integrate(sys, (0.7, -0.2), IntegratorConfig(max_time=5.0))
        b = integrate(sys, (0.7, -0.2), IntegratorConfig(max_time=5.0))
        assert a.samples == b.samples and a.termination == b.termination


class TestReversibility:
    @pytest.mark.parametrize("name,start", [
        ("5.3->5.4", (1.0, 0.0)),
        ("5.7->5.8", (0.5, 0.8)),
        ("5.5->5.6", (0.3, 0.2)),
        ("6.1->6.2", (0.4, 0.3)),
    ])
    def test_forward_then_backward(self, name, start):
        sys = case_by_name(name).system
        cfg = tight(max_time=1.0)
        fwd = integrate(sys, start, cfg)
        _, ex, ey = fwd.samples[-1]
        back = integrate(sys, (ex, ey), cfg, direction="backward")
        _, bx, by = back.samples[-1]
        assert math.hypot(bx - start[0], by - start[1]) < 1e-6

    def test_step_halving_stable_terminal(self):
        sys = case_by_name("5.3->5.4").system
        ends = []
        for step in (0.02, 0.01):
            cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10,
                                   max_time=3.0, max_step=step)
            ends.append(integrate(sys, (1.0, 0.0), cfg).samples[-1])
        gap = math.hypot(ends[0][1] - ends[1][1], ends[0][2] - ends[1][2])
        assert gap < 10 * 1e-8


class TestDetectClosed:
    def test_circle(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (1.0, 0.0), tight(max_time=2 * math.pi + 0.1))
        assert detect_closed(traj, 1e-3)

    def test_spiral_is_open(self):
        sys = case_by_name("5.5->5.6").system
        traj = integrate(sys, (0.1, 0.0), tight(max_time=6.0))
        assert not detect_closed(traj, 1e-3)

    def test_unstable_cycle(self):
        partner = conjugate(case_by_name("7.1->7.2").system).conjugate
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, max_time=0.25)
        traj = integrate(partner, (4.0, 0.0), cfg)
        assert traj.termination == "closed"
        assert detect_closed(traj, 1e-3)

    def test_needs_ten_samples(self):
        from artifact.charts import Chart
        stub = Trajectory(Chart.N, [(0.0, 1.0, 0.0)] * 5, "time-limit")
        with pytest.raises(ValueError):
            detect_closed(stub, 1e-3)


SECTION5 = ["5.1->5.2", "5.3->5.4", "5.5->5.6",
            "5.7->5.8", "5.9->5.10", "5.11->5.12"]


class TestConjugacyResidual:
    def test_spiral_pair(self):
        case = case_by_name("5.5->5.6")
        res = conjugate(case.system)
        r = conjugacy_residual(case.system, res, (0.5, 0.0), tight(max_time=6.0))
        assert r < 1e-5

    def test_circle_pair(self):
        case = case_by_name("5.3->5.4")
        res = conjugate(case.system)
        r = conjugacy_residual(case.system, res, (1.0, 0.0),
                               tight(max_time=2 * math.pi + 0.1))
        assert r < 1e-5

    def test_equilibrium_maps_to_equilibrium(self):
        case = case_by_name("6.1->6.2")
        res = conjugate(case.system)
        r = conjugacy_residual(case.system, res, (1.0, 1.0), tight())
        assert r == 0.0

    @pytest.mark.parametrize("name", SECTION5)
    def test_random_starts(self, name):
        case = case_by_name(name)
        res = conjugate(case.system)
        cfg = tight(max_time=6.0)
        rng = random.Random(hash(name) & 0xFFFF)
        done = 0
        while done < 5:
            start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if math.hypot(*start) < 0.05:
                continue
            if integrate(case.system, start, cfg).termination \
                    == "entered-origin-guard":
                continue
            assert conjugacy_residual(case.system, res, start, cfg) < 1e-5, \
                f"{name} from {start}"
            done += 1


class TestRadiusDrift:
    def test_circle_orbit_conserves_radius(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (1.0, 0.0), tight(max_time=2 * math.pi))
        assert max(abs(r - 1.0) for r in radii(traj)) < 1e-7


def loop_field(sys, sign=1.0):
    """Reference float field: the plain loop over the terms."""
    polys = [[(float(c), i, j) for (i, j), c in p.terms.items()]
             for p in sys.rhs]

    def field(x, y):
        out = []
        for terms in polys:
            acc = 0.0
            for c, i, j in terms:
                acc += c * x**i * y**j
            out.append(sign * acc)
        return tuple(out)

    return field


def _dot(row, ks, axis):
    # sum() over floats, as Python before 3.12 computes it: from the int 0,
    # left to right
    acc = 0
    for w, k in zip(row, ks):
        acc += w * k[axis]
    return acc


def tableau_step(f, x, y, h):
    """Reference step: the generic loop over the whole tableau."""
    try:
        ks = []
        for row in DormandPrince54.A:
            ks.append(f(x + h * _dot(row, ks, 0), y + h * _dot(row, ks, 1)))
        nx = x + h * _dot(DormandPrince54.B, ks, 0)
        ny = y + h * _dot(DormandPrince54.B, ks, 1)
        ex = h * _dot(DormandPrince54.E, ks, 0)
        ey = h * _dot(DormandPrince54.E, ks, 1)
    except OverflowError:
        return None
    if all(map(math.isfinite, (nx, ny, ex, ey))):
        return nx, ny, ex, ey
    return None


def bits(values):
    return None if values is None else [float.hex(v) for v in values]


def corpus_fields():
    """Every corpus system and its partner, by name."""
    for case in load_cases():
        yield case.name, case.system
        yield case.name + " partner", conjugate(case.system).conjugate


def field_points(rng, count, spread):
    pts = [(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
           for _ in range(count)]
    # zeros of either sign, where only the sign of a zero sum can differ
    return pts + [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                  (-0.0, 1.5), (0.75, -0.0)]


@pytest.fixture
def compile_log(monkeypatch):
    """Logs each compile's sign and every call of a compiled field."""
    log = types.SimpleNamespace(built=[], calls=[])
    real = dynamics._compile

    def logged(sys, sign=1.0):
        log.built.append(sign)
        field = real(sys, sign)

        def counted(x, y):
            log.calls.append((x, y))
            return field(x, y)

        return counted

    monkeypatch.setattr(dynamics, "_compile", logged)
    return log


class TestCompiledField:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_term_loop_bit_for_bit(self, sign):
        rng = random.Random(4)
        for name, sys in corpus_fields():
            compiled = dynamics._compile(sys, sign)
            reference = loop_field(sys, sign)
            for x, y in field_points(rng, 40, 3.0):
                assert bits(compiled(x, y)) == bits(reference(x, y)), \
                    f"{name} at ({x!r}, {y!r})"

    def test_dense_field_at_the_degree_cap(self):
        # every monomial up to degree 32, and a partner of some 1700 terms
        rng = random.Random(32)
        text = " + ".join(f"{rng.randint(1, 9)}*x^{i}*y^{d - i}"
                          for d in range(33) for i in range(d + 1))
        sys = parse_system(("x", "y"), (text, "-" + text))
        for field in (sys, conjugate(sys).conjugate):
            compiled = dynamics._compile(field, -1.0)
            reference = loop_field(field, -1.0)
            for x, y in [(0.3, -0.2), (1.1, 0.7), (-0.0, 0.5)]:
                assert bits(compiled(x, y)) == bits(reference(x, y))

    def test_compiled_once_per_instance_and_direction(self, compile_log):
        case = case_by_name("5.5->5.6")
        sys = dataclasses.replace(case.system)
        cfg = IntegratorConfig(max_time=0.5)
        for _ in range(3):
            integrate(sys, (0.3, 0.1), cfg)
            integrate(sys, (0.3, 0.1), cfg, direction="backward")
        field_eval(sys, (0.3, 0.1))
        conjugacy_residual(sys, conjugate(sys), (0.3, 0.1), cfg)
        # the residual's partner is a new system, compiled once
        assert sorted(compile_log.built) == [-1.0, 1.0, 1.0]
        # a new instance of the same system compiles again
        integrate(dataclasses.replace(sys), (0.3, 0.1), cfg)
        assert len(compile_log.built) == 4


    def test_system_with_compiled_field_pickles(self):
        sys = dataclasses.replace(case_by_name("5.3->5.4").system)
        integrate(sys, (1.0, 0.0), IntegratorConfig(max_time=0.1))
        copy = pickle.loads(pickle.dumps(sys))
        assert copy == sys and "_float_fields" not in vars(copy)
        assert field_eval(copy, (0.5, 2.0)) == field_eval(sys, (0.5, 2.0))


class TestFusedStep:
    def test_tableau_consistent(self):
        def exact(row):
            return [Fraction(w).limit_denominator(10**6) for w in row]

        T = DormandPrince54
        for c, row in zip(T.C, T.A):
            assert exact([c]) == [sum(exact(row))]
        assert T.A[6] == T.B[:6] and T.B[6] == 0.0
        assert sum(exact(T.B)) == 1
        assert sum(exact(T.E)) == 0
        # weights the fused step leaves out
        assert T.B[1] == T.E[1] == 0.0

    @pytest.mark.parametrize("name", ["5.3->5.4", "5.9->5.10", "6.3->6.4",
                                      "7.1->7.2"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_tableau_loop_bit_for_bit(self, name, sign):
        rng = random.Random(name)
        system = case_by_name(name).system
        for sys in (system, conjugate(system).conjugate):
            f = dynamics._compile(sys, sign)
            pts = field_points(rng, 60, 2.0) + [(1e80, -1e80), (1e30, 2.0)]
            for x, y in pts:
                h = 10 ** rng.uniform(-4, 0)
                fused = dynamics._rk_step(f, x, y, h, *f(x, y))
                reference = tableau_step(f, x, y, h)
                if reference is None:
                    assert fused is None, (x, y, h)
                    continue
                assert bits(fused[:4]) == bits(reference), (x, y, h)
                # the returned last stage is the field at the new point
                assert bits(fused[4:]) == bits(f(*fused[:2])), (x, y, h)

    def test_infinite_second_stage_rejects(self):
        # x enters neither component, and of all stages only the second
        # has a y large enough for 10^303*y^8 to overflow, so every other
        # stage stays finite; the tableau loop still rejects the step
        sys = parse_system(("x", "y"), (f"1{'0' * 303}*y^8",
                                        "2 - 3/2*y + 23/100*y^2"))
        f = dynamics._compile(sys)
        x, y, h = 0.0, -2.5, 6.0
        k1x, k1y = f(x, y)
        a21 = DormandPrince54.A[1][0]
        assert math.isinf(f(x + h * (a21 * k1x), y + h * (a21 * k1y))[0])
        assert tableau_step(f, x, y, h) is None
        assert dynamics._rk_step(f, x, y, h, k1x, k1y) is None

    def test_six_evaluations_per_trial_step(self, compile_log):
        calls = compile_log.calls
        sys = dataclasses.replace(case_by_name("5.9->5.10").system)
        for direction in ("forward", "backward"):
            calls.clear()
            traj = integrate(sys, (0.7, -0.2), IntegratorConfig(max_time=5.0),
                             direction=direction)
            assert traj.accepted == len(traj.samples) - 1 > 10
            assert len(calls) == 1 + 6 * (traj.accepted + traj.rejected)

    def test_overflowing_first_step_is_rejected_and_reuses_k1(self,
                                                                compile_log):
        calls = compile_log.calls
        # x' = y' = x*y from (1000, 1000): a first step of length 1 grows
        # the stages past the float range (products, so inf, not
        # OverflowError), and the retry starts from the same first stage
        sys = parse_system(("x", "y"), ("x*y", "x*y"))
        f = dynamics._compile(sys)
        assert dynamics._rk_step(f, 1000.0, 1000.0, 1.0,
                                 *f(1000.0, 1000.0)) is None
        calls.clear()
        cfg = IntegratorConfig(initial_step=1.0, max_step=1.0,
                               outer_radius=1e4)
        traj = integrate(sys, (1000.0, 1000.0), cfg)
        assert traj.termination == "exited-outer-disk"
        assert traj.rejected >= 1
        assert traj.samples[1][0] < cfg.initial_step
        assert calls.count((1000.0, 1000.0)) == 1
        assert len(calls) == 1 + 6 * (traj.accepted + traj.rejected)

    def test_counters_stay_out_of_json(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (1.0, 0.0), IntegratorConfig(max_time=1.0))
        assert traj.accepted > 0
        assert set(traj.to_json_dict()) == {"chart", "termination", "samples"}


ORACLE = [("5.3->5.4", False, (1.0, 0.0)),
          ("5.5->5.6", False, (0.5, 0.0)),
          ("5.9->5.10", False, (0.7, -0.2)),
          ("7.3->7.4", False, (0.5, 0.5)),
          ("4.6->4.7", True, (2.0, 1.0)),
          ("5.5->5.6", True, (3.0, 1.0)),
          ("6.3->6.4", True, (2.0, -1.0)),
          ("7.1->7.2", True, (3.0, 0.0))]


class TestScipyOracle:
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("name,partner,start", ORACLE)
    def test_endpoint_matches_dop853(self, name, partner, start, rel_tol):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        sys = case_by_name(name).system
        if partner:
            sys = conjugate(sys).conjugate
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100,
                               max_time=3.0)
        traj = integrate(sys, start, cfg)
        t_end, x_end, y_end = traj.samples[-1]
        f = loop_field(sys)
        sol = solve_ivp(lambda t, p: f(p[0], p[1]), (0.0, t_end), start,
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success
        gap = math.hypot(sol.y[0, -1] - x_end, sol.y[1, -1] - y_end)
        # each accepted step keeps its local error within rel_tol of the
        # state; on these orbits the errors at most add up
        scale = max(1.0, math.hypot(x_end, y_end))
        assert gap < traj.accepted * rel_tol * scale
