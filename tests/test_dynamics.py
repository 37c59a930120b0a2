"""Integration, closure detection, and orbit-correspondence checks."""

import copy
import dataclasses
import json
import math
import pickle
import random
import re
import types
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import case_by_name, polyline, shared_atlas
from oracles import (
    DormandPrince54,
    array_residual,
    loop_detect_closed,
    loop_integrate,
    loop_rk_step,
)

from artifact import dynamics
from artifact import atlas
from artifact.atlas import (
    AtlasConfig,
    AtlasDocument,
    DiskChart,
    detect_closed,
)
from artifact.charts import Chart, transition, transition_jacobian
from artifact.conjugate import conjugate
from artifact.corpus import load_cases
from artifact.dynamics import (
    _GAUSS_WEIGHTS,
    MAX_TRIAL_STEPS,
    TERMINATIONS,
    IntegratorConfig,
    NumericOverflow,
    Samples,
    conjugacy_residual,
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


def atlas_runs(sys, start, cfg):
    """The atlas's forward and backward runs from one seed in the
    original disk, integrated with ``cfg`` inside a disk of radius 6."""
    doc = shared_atlas(sys, AtlasConfig(rays=0, rings=0, integrator=cfg,
                                        extra_seeds=((1, start),)))
    return doc.disks[0].trajectories


def atlas_json(traj):
    """A trajectory's entry in the JSON of an atlas document."""
    disk = DiskChart(Chart.N, ("x", "y"), 100.0, [traj], [], [], [])
    text = "".join(atlas.json_pieces(AtlasDocument((disk,), {})))
    return json.loads(text)["disks"][0]["trajectories"][0]


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
        IntegratorConfig)])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            IntegratorConfig(**{name: value})

    def test_infinite_partner_time_raises(self, monkeypatch):
        # a partner time that overflows would be the partner's time limit;
        # only m > 0 weighs the Gauss nodes (for m = 0 the rate is 1.0)
        monkeypatch.setattr(dynamics, "_GAUSS_WEIGHTS", (math.inf,) * 3)
        case = case_by_name("5.7->5.8")
        with pytest.raises(ValueError, match="must be finite: inf"):
            conjugacy_residual(case.system, conjugate(case.system),
                               (0.3, 0.1), IntegratorConfig(max_time=0.5))


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


# dx/dt = 10^300 x^2: too stiff for any step the integrator may take
STIFF = (f"1{'0' * 300}*x^2", "y")


class TestIntegrate:
    def test_step_underflow(self):
        sys = parse_system(("x", "y"), STIFF)
        traj = integrate(sys, (1.0, 0.0), IntegratorConfig())
        assert traj.termination == "step-underflow"
        assert list(traj.samples) == [(0.0, 1.0, 0.0)] and traj.accepted == 0

    def test_circle_closes(self):
        # integrate stops at the time limit; the atlas keeps the run and
        # labels it closed, in its JSON too
        sys = case_by_name("5.3->5.4").system
        cfg = tight(max_time=2 * math.pi + 0.1)
        traj = integrate(sys, (1.0, 0.0), cfg)
        assert traj.termination == "time-limit"
        forward, backward = atlas_runs(sys, (1.0, 0.0), cfg)
        assert forward.samples == traj.samples
        for run in (forward, backward):
            assert run.termination == "closed"
            assert atlas_json(run)["termination"] == "closed"
            assert max(abs(r - 1.0) for r in radii(run)) < 1e-7

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
        doc = atlas_json(traj)
        assert list(doc) == ["chart", "termination", "samples"]
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
        assert traj.termination == "time-limit"
        assert detect_closed(traj, 1e-3)

    def test_needs_ten_samples(self):
        stub = polyline([(1.0, 0.0)] * 5)
        with pytest.raises(ValueError):
            detect_closed(stub, 1e-3)


def closure_trajectories(count):
    """At least ``count`` integrated trajectories of 10 samples or more:
    seeded starts, times and directions on the corpus fields outside
    chapter 9 (some of whose runs crawl), with loose tolerances so that
    they stay cheap."""
    fields = [sys for name, sys in corpus_fields()
              if not name.startswith("9.")]
    rng = random.Random(7)
    trajs = []
    while len(trajs) < count:
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8,
                               max_step=rng.choice([0.05, 0.25]),
                               max_time=rng.uniform(1.0, 8.0),
                               outer_radius=20.0)
        start = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            traj = integrate(rng.choice(fields), start, cfg,
                             rng.choice(["forward", "backward"]))
        except (ArithmeticError, ValueError):
            continue
        if len(traj.samples) >= 10:
            trajs.append(traj)
    return trajs


def return_at(delta, offset=(0.0, 0.0)):
    """A loop from the origin (heading +x) that comes back down the
    line x = delta to (delta, 0) and leaves along +x, all moved by
    ``offset``: the closest approach to the start, delta, is at the end
    of a segment pointing straight away from it, where the bound
    (da + db - s) / 2 equals the distance itself."""
    ox, oy = offset
    loop = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.5),
            (1.0, 1.0), (0.5, 1.25), (0.0, 1.25), (delta, 1.0),
            (delta, 0.5), (delta, 0.0), (delta + 1.0, 0.0),
            (delta + 2.0, 0.0)]
    return [(ox + x, oy + y) for x, y in loop]


def segment_gaps(pts):
    """The closest approach of each segment to the first point, by the
    closure test's own formula."""
    (x0, y0) = pts[0]
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        ux, uy = bx - ax, by - ay
        seg = math.hypot(ux, uy)
        if seg:
            proj = max(0.0, min(1.0, ((x0 - ax) * ux + (y0 - ay) * uy)
                                / seg ** 2))
            yield math.hypot(ax + proj * ux - x0, ay + proj * uy - y0)


class TestDetectClosedAgainstLoop:
    """``detect_closed`` skips the segments whose bound (da + db - s) / 2
    keeps them at least tol from the start; ``loop_detect_closed``
    (tests/oracles.py) tests every segment. They decide alike."""

    def test_integrated_trajectories(self):
        trajs = closure_trajectories(5000)
        for tol in (1e-3, 1e-2, 0.1, 0.5):
            closed = 0
            for traj in trajs:
                got = detect_closed(traj, tol)
                assert got == loop_detect_closed(traj, tol), tol
                closed += got
            # both answers occur often
            assert 50 < closed < len(trajs) - 50

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.1])
    def test_closest_approach_at_tol(self, tol):
        for factor, closed in [(1 - 1e-12, True), (1.0, False),
                               (1 + 1e-12, False)]:
            traj = polyline(return_at(tol * factor))
            assert detect_closed(traj, tol) is closed
            assert loop_detect_closed(traj, tol) is closed
            # away from the origin the coordinates round
            for offset in [(100.0, -30.0), (-0.3, 7e3), (1e-9, 1e-9)]:
                traj = polyline(return_at(tol * factor, offset))
                assert detect_closed(traj, tol) == \
                    loop_detect_closed(traj, tol)

    def test_tol_at_each_segment_gap(self):
        # every gap and the float just above it as tol: the test's strict
        # < decides on the last bit. On the loops of return_at the bound
        # is sharp, and without its slack the prefilter drops some of
        # these passes (about 2% of them).
        rng = random.Random(11)
        answers = set()
        loops = []
        for _ in range(60):
            center = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            radius = 10 ** rng.uniform(-2, 1)
            turn = rng.uniform(1.0, 1.2) * 2 * math.pi
            pts = []
            for k in range(rng.randint(10, 60)):
                angle = turn * k / 40
                r = radius * (1 + rng.uniform(-0.05, 0.05)) if k else radius
                pts.append((center[0] + r * math.cos(angle),
                            center[1] + r * math.sin(angle)))
            loops.append(pts)
        for _ in range(400):
            offset = rng.choice([(0.0, 0.0), (rng.uniform(-100, 100),
                                              rng.uniform(-100, 100))])
            loops.append(return_at(10 ** rng.uniform(-6, -1), offset))
        for pts in loops:
            traj = polyline(pts)
            for gap in segment_gaps(pts):
                for tol in (gap, math.nextafter(gap, math.inf)):
                    got = detect_closed(traj, tol)
                    assert got == loop_detect_closed(traj, tol)
                    answers.add(got)
        assert answers == {False, True}

    def test_zero_length_segments(self):
        loop = return_at(0.5e-3)
        # the start, the leg back and the closing segment each repeated
        pts = [loop[0]] * 3 + [p for p in loop[1:] for _ in (0, 1)]
        assert detect_closed(polyline(pts), 1e-3)
        assert loop_detect_closed(polyline(pts), 1e-3)

    def test_never_leaves(self):
        # circles the start at 1.9 * tol, through the start's direction
        traj = polyline([(0.0, 0.0)] + [
            (1.9e-3 * math.cos(k / 3), 1.9e-3 * math.sin(k / 3))
            for k in range(30)])
        assert not detect_closed(traj, 1e-3)
        assert not loop_detect_closed(traj, 1e-3)

    def test_never_moves(self):
        traj = polyline([(0.5, -0.25)] * 12)
        assert not detect_closed(traj, 1e-3)
        assert not loop_detect_closed(traj, 1e-3)

    @pytest.mark.parametrize("degrees,closed", [(4.0, True), (-4.0, True),
                                                (6.0, False),
                                                (-6.0, False)])
    def test_heading_off_by(self, degrees, closed):
        # the loop returns through the start itself, heading this far
        # off its first direction (+x)
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        pts = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0),
               (0.0, 1.0), (-1.0, 1.0), (-1.0 * c, -1.0 * s),
               (-0.5 * c, -0.5 * s), (0.5 * c, 0.5 * s), (1.0 * c, 1.0 * s)]
        traj = polyline(pts)
        assert detect_closed(traj, 1e-3) is closed
        assert loop_detect_closed(traj, 1e-3) is closed


SECTION5 = ["5.1->5.2", "5.3->5.4", "5.5->5.6",
            "5.7->5.8", "5.9->5.10", "5.11->5.12"]


@pytest.fixture
def residual_spy(monkeypatch):
    """Records what conjugacy_residual integrates (``runs``) and how many
    samples it compares (``compared``): it finds the partner's step for
    each compared sample by one bisection of the partner's times."""
    spy = types.SimpleNamespace(runs=[], compared=0,
                                integrate=dynamics.integrate)
    bisect_right = dynamics.bisect_right

    def integrate(*args, **kwargs):
        traj = spy.integrate(*args, **kwargs)
        spy.runs.append(traj)
        return traj

    def read(times, tau):
        spy.compared += 1
        return bisect_right(times, tau)

    monkeypatch.setattr(dynamics, "integrate", integrate)
    monkeypatch.setattr(dynamics, "bisect_right", read)
    return spy


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

    def test_equilibrium_maps_to_equilibrium(self, residual_spy):
        case = case_by_name("6.1->6.2")
        res = conjugate(case.system)
        r = conjugacy_residual(case.system, res, (1.0, 1.0), tight())
        assert r == 0.0
        # one kept sample, so no partner time to run to: the original's
        # is the only run
        assert len(residual_spy.runs) == 1

    # seed-1 starts of the residual benchmark whose mapped orbit leaves
    # for the outer disk, where the partner's clock runs fast: the
    # partner's last time is far past the original's time limit
    @pytest.mark.parametrize("name,start", [
        ("5.11->5.12", (1.7457623471978385, -0.31157200015433917)),
        ("5.7->5.8", (-1.9473280337805035, 1.34987632838584)),
    ], ids=["5.11->5.12", "5.7->5.8"])
    def test_every_kept_sample_is_compared(self, residual_spy, name, start):
        case = case_by_name(name)
        cfg = tight(max_time=6.0)
        r = conjugacy_residual(case.system, conjugate(case.system), start,
                               cfg)
        assert r < 1e-5
        first, partner = residual_spy.runs
        assert partner.termination == "time-limit"
        assert partner.samples[-1][0] > 10 * cfg.max_time
        assert residual_spy.compared == len(first.samples)

    def test_no_closure_test(self, residual_spy, monkeypatch):
        # "closed" is the atlas's label: both runs reach the time limit,
        # and neither is tested for closure, whichever module holds the
        # test
        tested = []
        for module in (atlas, dynamics):
            if hasattr(module, "detect_closed"):
                real = module.detect_closed
                monkeypatch.setattr(
                    module, "detect_closed",
                    lambda traj, tol, real=real: tested.append(tol)
                    or real(traj, tol))
        case = case_by_name("5.3->5.4")
        conjugacy_residual(case.system, conjugate(case.system), (1.0, 0.0),
                           tight(max_time=2 * math.pi + 0.1))
        assert [len(t.samples) >= 10 and t.termination
                for t in residual_spy.runs] == ["time-limit"] * 2
        assert tested == []

    def test_partner_a_hair_short_of_its_time_limit(self, residual_spy):
        # integrate may stop a relative 1e-12 short of max_time; the last
        # sample's partner time is then just past the partner's last
        # time, and must still be compared
        run = residual_spy.integrate

        def short(sys, start, cfg=None, direction="forward"):
            if residual_spy.runs:  # the partner runs second
                cfg = dataclasses.replace(
                    cfg, max_time=cfg.max_time * (1 - 5e-13))
            return run(sys, start, cfg, direction)

        residual_spy.integrate = short
        case = case_by_name("5.11->5.12")
        start = (1.7457623471978385, -0.31157200015433917)
        r = conjugacy_residual(case.system, conjugate(case.system), start,
                               tight(max_time=6.0))
        assert r < 1e-5
        first, partner = residual_spy.runs
        assert partner.termination == "time-limit"
        assert residual_spy.compared == len(first.samples)

    @pytest.mark.parametrize("name", SECTION5)
    def test_random_starts(self, name):
        case = case_by_name(name)
        res = conjugate(case.system)
        cfg = tight(max_time=6.0)
        # a str's hash() changes from process to process; crc32 does not
        rng = random.Random(zlib.crc32(name.encode()))
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

    # Starts that the same draw gives for other seeds. On 5.9->5.10, two
    # near the origin (seeds 887 and 2426): the first overflows the step
    # error estimate at t = 0, which rejects that step, the second sends
    # the partner out to |q| of about 77. On 5.7->5.8, two within 0.001 of
    # the y-axis, where the partner reaches |q| of about 80 and moves
    # fast: there a small timing error is a gap along the orbit of up to
    # 1.6e-5, which the residual leaves out.
    @pytest.mark.parametrize("name,start", [
        ("5.9->5.10", (-0.022902775398550457, -0.04842323605900978)),
        ("5.9->5.10", (-0.05125800243318279, 0.0071012380479400505)),
        ("5.7->5.8", (0.0008000118128697054, -1.511214992017556)),
        ("5.7->5.8", (0.0009433516955277277, 0.9869764125081644)),
    ], ids=["overflow", "residual-above-bound", "fast-partner-negative-y",
            "fast-partner-positive-y"])
    def test_known_bad_starts(self, name, start):
        case = case_by_name(name)
        res = conjugate(case.system)
        assert conjugacy_residual(case.system, res, start,
                                  tight(max_time=6.0)) < 1e-5


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
    """The step as one function (``loop_rk_step``, the form ``integrate``
    ran before it took the step into its own frame) against the tableau
    loop; ``TestIntegrateAgainstLoop`` holds ``integrate`` to that form
    trajectory by trajectory."""

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

    def test_library_constants_are_the_tableau(self):
        # each of integrate's constants is its entry of the reference bit
        # for bit; the last row of A is B, and b2, b7 and e2 are zero
        T = DormandPrince54
        expected = {f"_A{i + 1}{j + 1}": w for i, row in enumerate(T.A[:-1])
                    for j, w in enumerate(row)}
        expected.update((f"_{name}{i + 1}", w)
                        for name, row in (("B", T.B), ("E", T.E))
                        for i, w in enumerate(row) if w)
        assert len(expected) == 26
        assert T.B[6] == 0.0
        library = {name: value for name, value in vars(dynamics).items()
                   if re.fullmatch(r"_[ABE]\d+", name)}
        assert library.keys() == expected.keys()
        for name, w in expected.items():
            assert float.hex(library[name]) == float.hex(w), name

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
                fused = loop_rk_step(f, x, y, h, *f(x, y))
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
        assert loop_rk_step(f, x, y, h, k1x, k1y) is None

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
        assert loop_rk_step(f, 1000.0, 1000.0, 1.0,
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
        assert set(atlas_json(traj)) == {"chart", "termination", "samples"}


def outcome(run, *args, **kwargs):
    """What an integration gives, bits and all: the samples and
    velocities as float.hex, the step counts and the termination, or
    the type and message of what it raised."""
    try:
        traj = run(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return ([bits(sample) for sample in traj.samples],
            bits(traj.velocities), traj.accepted, traj.rejected,
            traj.termination)


def assert_same_as_loop(*args, **kwargs):
    """``integrate`` gives what ``loop_integrate`` gives; returns it."""
    got = outcome(integrate, *args, **kwargs)
    assert got == outcome(loop_integrate, *args, **kwargs)
    return got


TERMINATION_RUNS = {
    "time-limit": ("5.5->5.6", False, (0.1, 0.0), tight(max_time=2.0)),
    "exited-outer-disk": ("5.1->5.2", False, (0.1, 0.0),
                          tight(max_time=10.0)),
    "entered-origin-guard": ("7.1->7.2", True, (3.0, 0.0),
                             IntegratorConfig()),
    "converged-to-equilibrium": ("6.1->6.2", False, (1.0, 1.0), tight()),
    "closed": ("5.3->5.4", False, (1.0, 0.0),
               tight(max_time=2 * math.pi + 0.1)),
    # the crawl below, run on past the budget of trial steps
    "step-limit": ("9.12->9.15", True, (0.5, 0.3),
                   IntegratorConfig(max_time=2.0), "backward"),
    "step-underflow": (STIFF, False, (1.0, 0.0), IntegratorConfig()),
}


class TestIntegrateAgainstLoop:
    """``integrate`` runs its step in its own frame and picks its step
    factors by comparisons; ``loop_integrate`` (tests/oracles.py) is the
    form it replaced, a step function and ``min``/``max``/``abs``. The
    two give the same trajectory bit for bit."""

    def test_corpus_systems_and_partners_both_ways(self):
        # this partner's backward runs crawl, at some 840 000 trial steps
        # per unit of time from either start
        crawl = {"9.12->9.15 partner": 0.01}
        ends = set()
        rejected = 0
        for name, sys in corpus_fields():
            cfg = IntegratorConfig(max_time=crawl.get(name, 1.0))
            for start in [(0.5, 0.3), (-1.25, 0.75)]:
                for direction in ("forward", "backward"):
                    got = assert_same_as_loop(sys, start, cfg, direction)
                    ends.add(got[-1])
                    rejected += got[3] if len(got) == 5 else 0
        assert {"time-limit", "exited-outer-disk",
                "entered-origin-guard"} <= ends
        assert rejected > 0

    @pytest.mark.parametrize("termination", TERMINATIONS)
    def test_each_termination(self, termination):
        name, partner, start, cfg, *direction = TERMINATION_RUNS[termination]
        if isinstance(name, str):
            sys = case_by_name(name).system
        else:
            sys = parse_system(("x", "y"), name)
        if partner:
            sys = conjugate(sys).conjugate
        got = assert_same_as_loop(sys, start, cfg, *direction)
        if termination == "closed":
            # integrate stops at the time limit; the atlas keeps that run
            # and labels it, as the test of every segment does
            assert got[-1] == "time-limit"
            assert loop_detect_closed(loop_integrate(sys, start, cfg), 1e-3)
            forward, _ = atlas_runs(sys, start, cfg)
            # the atlas keeps no velocities; the rest is the bare run's
            kept = outcome(lambda: forward)
            assert kept[:1] + kept[2:] == got[:1] + got[2:-1] + ("closed",)
        else:
            assert got[-1] == termination
        if termination == "step-limit":
            assert got[2] + got[3] == MAX_TRIAL_STEPS

    def test_equilibrium_reached_after_steps(self):
        sys = parse_system(("x", "y"), ("-x", "-2*y"))
        got = assert_same_as_loop(sys, (1.0, 1.0),
                                  IntegratorConfig(abs_tol=1e-4))
        assert got[-1] == "converged-to-equilibrium" and got[2] > 10

    def test_rejected_steps(self):
        # a first step of 1 is far too long for this spiral
        sys = case_by_name("5.9->5.10").system
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                               initial_step=1.0, max_step=1.0, max_time=3.0)
        got = assert_same_as_loop(sys, (0.7, -0.2), cfg)
        assert got[3] > 0

    def test_overflowing_first_step(self):
        sys = parse_system(("x", "y"), ("x*y", "x*y"))
        cfg = IntegratorConfig(initial_step=1.0, max_step=1.0,
                               outer_radius=1e4)
        got = assert_same_as_loop(sys, (1000.0, 1000.0), cfg)
        assert got[3] >= 1 and got[-1] == "exited-outer-disk"

    def test_infinite_second_stage(self):
        # the system of TestFusedStep.test_infinite_second_stage_rejects,
        # with that step of 6 as the first trial step; at this loose
        # rel_tol it passes the error test (err about 0.43), so only its
        # infinite second stage rejects it
        sys = parse_system(("x", "y"), (f"1{'0' * 303}*y^8",
                                        "2 - 3/2*y + 23/100*y^2"))
        cfg = IntegratorConfig(rel_tol=1.0, initial_step=6.0, max_step=6.0,
                               outer_radius=1e4)
        got = assert_same_as_loop(sys, (0.0, -2.5), cfg)
        assert got[3] >= 1 and float.fromhex(got[0][1][0]) < 6.0

    def test_step_underflow(self):
        sys = parse_system(("x", "y"), STIFF)
        got = assert_same_as_loop(sys, (1.0, 0.0), IntegratorConfig())
        assert got[-1] == "step-underflow" and got[2] == 0 and got[3] > 0


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


# -- whole-array residual against the per-step and per-sample loops ----------


def _loop_lengths(pts):
    if len(pts) < 2:
        return np.zeros(len(pts))
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _loop_truncate(pts, target):
    lens = _loop_lengths(pts)
    if lens[-1] <= target:
        return pts
    stop = int(np.searchsorted(lens, target))
    a, b = pts[stop - 1], pts[stop]
    span = lens[stop] - lens[stop - 1]
    frac = (target - lens[stop - 1]) / span if span else 0.0
    return np.concatenate([pts[:stop], (a + frac * (b - a))[None, :]])


def _loop_resample(pts, grid):
    lens = _loop_lengths(pts)
    return np.column_stack([np.interp(grid, lens, pts[:, 0]),
                            np.interp(grid, lens, pts[:, 1])])


def loop_distance(p, q, samples=4096):
    """Reference distance: the arc lengths of each curve found again for
    the truncation and for the resampling."""
    common = min(_loop_lengths(p)[-1], _loop_lengths(q)[-1])
    p = _loop_truncate(p, common)
    q = _loop_truncate(q, common)
    grid = np.linspace(0.0, common, samples + 1)
    gaps = np.linalg.norm(_loop_resample(p, grid) - _loop_resample(q, grid),
                          axis=1)
    return float(gaps.max())


def loop_hermite(p0, v0, p1, v1, h, theta):
    """One component of one Hermite step, in _hermite's operation order."""
    chord = p1 - p0
    c2 = 3 * chord - h * (2 * v0 + v1)
    c3 = h * (v0 + v1) - 2 * chord
    return (p0 + theta * (h * v0 + theta * (c2 + theta * c3)),
            v0 + theta * (2 * c2 + 3 * theta * c3) / h)


def loop_step(curve, k, h, theta):
    """Point and velocity of a list of ((x, y), (vx, vy)) at a step."""
    (p0, v0), (p1, v1) = curve[k], curve[k + 1]
    return zip(*(loop_hermite(p0[c], v0[c], p1[c], v1[c], h, theta)
                 for c in (0, 1)))


def loop_residual(sys, result, start, cfg):
    """Reference residual, one sample at a time: maps each sample on its
    own and evaluates both fields there again, sums the partner time step
    by step, runs the partner once to the last of them with no step cap,
    and walks the partner's steps forward to each of those times."""
    first = dataclasses.replace(cfg, max_step=min(cfg.max_step, 0.02),
                                initial_step=min(cfg.initial_step, 0.02))
    field = dynamics._field(sys)
    guard2 = cfg.origin_guard ** 2
    times, mapped = [], []
    for t, xx, yy in integrate(sys, start, first).samples:
        if xx * xx + yy * yy <= guard2:
            continue
        fx, fy = dynamics._finite(field, xx, yy)
        (j00, j01), (j10, j11) = transition_jacobian(xx, yy)
        times.append(t)
        mapped.append((transition((xx, yy)),
                       (j00 * fx + j01 * fy, j10 * fx + j11 * fy)))
    taus = [0.0]
    for k in range(len(mapped) - 1):
        h = times[k + 1] - times[k]
        rate = 0.0
        for node, weight in zip(dynamics._GAUSS_NODES,
                                dynamics._GAUSS_WEIGHTS):
            (px, py), _ = loop_step(mapped, k, h, node)
            inverse = 1.0 / (px * px + py * py)
            for _ in range(result.m):
                weight = weight * inverse
            rate = rate + weight
        taus.append(taus[-1] + h * rate)
    if taus[-1] == 0.0:
        return 0.0
    q0 = transition((float(start[0]), float(start[1])))
    partner_field = dynamics._field(result.conjugate)
    run = integrate(result.conjugate, q0,
                    dataclasses.replace(cfg, max_time=taus[-1],
                                        max_step=taus[-1]))
    second = run.samples
    if len(second) < 2:
        return 0.0
    reached = run.termination == "time-limit"
    partner = [((xx, yy), dynamics._finite(partner_field, xx, yy))
               for _, xx, yy in second]
    worst, k = 0.0, 0
    for tau, ((qx, qy), _) in zip(taus, mapped):
        if tau > second[-1][0] and not reached:
            break
        while k < len(second) - 2 and second[k + 1][0] <= tau:
            k += 1
        step = second[k + 1][0] - second[k][0]
        (ax, ay), (vx, vy) = loop_step(partner, k, step,
                                       (tau - second[k][0]) / step)
        gx, gy = qx - ax, qy - ay
        speed2 = vx * vx + vy * vy
        along = (gx * vx + gy * vy) / speed2 if speed2 > 0 else 0.0
        gx, gy = gx - along * vx, gy - along * vy
        worst = max(worst, math.sqrt(gx * gx + gy * gy))
    return worst


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def random_curve(rng, n, spread=3.0):
    pts = np.array([(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
                    for _ in range(n)])
    times = np.cumsum([rng.uniform(1e-3, 0.1) for _ in range(n)])
    vels = np.array([(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(n)])
    return pts, times, vels


class TestDistanceAgainstLoop:
    def test_random_curves_of_unequal_length(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_curve(rng, rng.randint(2, 60))[0]
            q = random_curve(rng, rng.randint(2, 60))[0]
            assert dynamics.hausdorff_distance(p, q).hex() \
                == loop_distance(p, q).hex()

    def test_truncation_extends_the_length_prefix(self):
        rng = random.Random(42)
        for _ in range(1000):
            p = random_curve(rng, rng.randint(2, 40))[0]
            lens = dynamics._cumulative_lengths(p)
            target = rng.uniform(0.0, 1.2) * lens[-1]
            cut, cut_lens = dynamics._truncate_to_length(p, lens, target)
            want = _loop_truncate(p, target)
            assert same_bits(cut, want)
            assert same_bits(cut_lens, _loop_lengths(want))

    def test_single_point_against_a_curve(self):
        p = np.array([[0.0, 0.0]])
        q = np.array([[3.0, 4.0], [6.0, 8.0]])
        assert dynamics.hausdorff_distance(p, q) == 5.0
        assert dynamics.hausdorff_distance(q, p) == 5.0
        assert dynamics.hausdorff_distance(p, p) == 0.0


class TestResidualAgainstLoop:
    @pytest.mark.parametrize("name", SECTION5)
    def test_chapter_five_cases(self, name):
        case = case_by_name(name)
        res = conjugate(case.system)
        rng = random.Random(2024)
        for cfg in (tight(max_time=6.0), IntegratorConfig(max_time=4.0)):
            for _ in range(3):
                start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
                got = conjugacy_residual(case.system, res, start, cfg)
                want = loop_residual(case.system, res, start, cfg)
                assert got.hex() == want.hex(), (name, start)

    def test_guard_stop_drops_the_last_sample(self):
        # 7.1->7.2's partner falls into its origin inside r = 4
        partner = conjugate(case_by_name("7.1->7.2").system)
        back = conjugate(partner.conjugate)
        start, cfg = (3.0, 0.0), IntegratorConfig(max_time=6.0)
        assert integrate(partner.conjugate, start, cfg).termination \
            == "entered-origin-guard"
        got = conjugacy_residual(partner.conjugate, back, start, cfg)
        want = loop_residual(partner.conjugate, back, start, cfg)
        assert got.hex() == want.hex()


def residual_draw(seed):
    """The starts of the benchmark's residual workload for one seed: 36
    draws, cycling through the chapter-5 cases, each start at least 0.05
    from the origin."""
    rng = random.Random(seed)
    for index in range(36):
        start = (0.0, 0.0)
        while math.hypot(*start) < 0.05:
            start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        yield SECTION5[index % len(SECTION5)], start


@pytest.fixture
def gap_spy(monkeypatch):
    """Every squared gap that conjugacy_residual takes the largest of."""
    gaps, real = [], dynamics._squared_gaps

    def record(*args):
        for gap2 in real(*args):
            gaps.append(gap2)
            yield gap2

    monkeypatch.setattr(dynamics, "_squared_gaps", record)
    return gaps


class TestResidualAgainstArrays:
    """The plain-float residual against the whole-array form it replaced
    (``oracles.array_residual``), bit for bit."""

    def test_every_gap_on_the_benchmark_draw(self, gap_spy):
        # the largest gap can hide a change in the last bit of the others:
        # compare each one, on the inputs of seeds 1-3 that the benchmark
        # admits (those whose run does not enter the origin guard)
        cfg = tight(max_time=6.0)
        admitted = 0
        for seed in (1, 2, 3):
            for name, start in residual_draw(seed):
                sys = case_by_name(name).system
                if integrate(sys, start, cfg).termination \
                        == "entered-origin-guard":
                    continue
                admitted += 1
                res = conjugate(sys)
                gap_spy.clear()
                got = conjugacy_residual(sys, res, start, cfg)
                want, gaps = array_residual(sys, res, start, cfg)
                assert got.hex() == want.hex(), (name, start)
                assert list(map(float.hex, gap_spy)) \
                    == list(map(float.hex, gaps)), (name, start)
        assert admitted == 108

    @pytest.mark.parametrize("name", SECTION5)
    def test_chapter_five_cases(self, name):
        # m = 0 for the first three cases, m = 1 for the last three
        case = case_by_name(name)
        res = conjugate(case.system)
        rng = random.Random(zlib.crc32(name.encode()) ^ 23)
        for cfg in (tight(max_time=6.0), IntegratorConfig(max_time=4.0)):
            for _ in range(4):
                start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
                got = conjugacy_residual(case.system, res, start, cfg)
                want, _ = array_residual(case.system, res, start, cfg)
                assert got.hex() == want.hex(), (name, start)

    def test_flat_rate_is_the_weights_sum(self):
        # for m = 0 the residual writes the rate as 1.0: the general
        # loop's sum of the weights, from 0.0 in order, is exactly that
        rate = 0.0
        for weight in _GAUSS_WEIGHTS:
            rate = rate + weight
        assert rate.hex() == (1.0).hex()

    def test_guard_stop(self):
        partner = conjugate(case_by_name("7.1->7.2").system)
        back = conjugate(partner.conjugate)
        start, cfg = (3.0, 0.0), IntegratorConfig(max_time=6.0)
        assert integrate(partner.conjugate, start, cfg).termination \
            == "entered-origin-guard"
        got = conjugacy_residual(partner.conjugate, back, start, cfg)
        want, _ = array_residual(partner.conjugate, back, start, cfg)
        assert got.hex() == want.hex()

    def test_equilibrium_start(self):
        case = case_by_name("6.1->6.2")
        res = conjugate(case.system)
        got = conjugacy_residual(case.system, res, (1.0, 1.0), tight())
        want, _ = array_residual(case.system, res, (1.0, 1.0), tight())
        assert got.hex() == want.hex() == (0.0).hex()

    @pytest.mark.parametrize("name", ["5.5->5.6", "5.7->5.8"])
    def test_partner_stops_early(self, residual_spy, name):
        # the partner pair's orbits head inward from (-1, 1.5), so the
        # mapped orbit heads out and its partner leaves a disk of radius 3
        # long before its time limit
        sys = conjugate(case_by_name(name).system).conjugate
        back = conjugate(sys)
        start = (-1.0, 1.5)
        cfg = IntegratorConfig(max_time=6.0, outer_radius=3.0)
        got = conjugacy_residual(sys, back, start, cfg)
        first, partner = residual_spy.runs
        assert partner.termination == "exited-outer-disk"
        assert 0 < residual_spy.compared < len(first.samples)
        want, _ = array_residual(sys, back, start, cfg)
        assert got.hex() == want.hex()


class TestHermiteAndGauss:
    def test_cubics_are_reproduced(self):
        # p(t) = a + b t + c t^2 + d t^3 on a step from t0 to t0 + h
        a, b, c, d = (np.array(v) for v in
                      ((0.3, -1.0), (2.0, 0.5), (-1.5, 4.0), (0.75, -2.0)))
        t0, h = 0.4, 0.3
        theta = np.linspace(0.0, 1.0, 11)[:, None]

        def at(t):
            return a + t * (b + t * (c + t * d)), b + t * (2 * c + 3 * t * d)

        (p0, v0), (p1, v1) = at(t0), at(t0 + h)
        points, velocities = oracles._hermite(p0, v0, p1, v1, h, theta)
        want_p, want_v = at(t0 + h * theta)
        assert np.abs(points - want_p).max() < 1e-14
        assert np.abs(velocities - want_v).max() < 1e-13
        assert same_bits(points[0], p0)

    def test_gauss_rule_is_exact_for_quintics(self):
        for power in range(6):
            got = sum(w * x ** power for x, w in zip(dynamics._GAUSS_NODES,
                                                     dynamics._GAUSS_WEIGHTS))
            assert abs(got - 1 / (power + 1)) < 1e-15


def oracle_gap(sys, result, start, cfg, scipy):
    """The residual from DOP853 at rtol 1e-12 for both systems and quad
    for the partner time, at the samples conjugacy_residual compares."""
    solve_ivp, quad = scipy.solve_ivp, scipy.quad
    cfg = dataclasses.replace(cfg, max_step=0.02, initial_step=0.02)
    times = [t for t, _, _ in integrate(sys, start, cfg).samples]
    f, g = loop_field(sys), loop_field(result.conjugate)
    first = solve_ivp(lambda t, p: f(*p), (0.0, times[-1]), start,
                      method="DOP853", rtol=1e-12, atol=1e-12,
                      dense_output=True)

    def rate(t):
        qx, qy = transition(tuple(first.sol(t)))
        return (qx * qx + qy * qy) ** -result.m

    taus = np.cumsum([0.0] + [quad(rate, a, b, epsabs=1e-14,
                                   epsrel=1e-12)[0]
                              for a, b in zip(times, times[1:])])
    second = solve_ivp(lambda t, q: g(*q), (0.0, taus[-1]),
                       transition(start), method="DOP853", rtol=1e-12,
                       atol=1e-12, dense_output=True)
    worst = 0.0
    for t, tau in zip(times, taus):
        r = second.sol(tau)
        gap = np.array(transition(tuple(first.sol(t)))) - r
        v = np.array(g(*r))
        worst = max(worst, np.linalg.norm(gap - (gap @ v) / (v @ v) * v))
    return worst


class TestResidualScipyOracle:
    # two chapter-5 cases with the time change m = 1, where both curves
    # run to the time limit
    @pytest.mark.parametrize("name,start", [("5.7->5.8", (0.8, -0.6)),
                                            ("5.11->5.12", (0.6, -0.4))])
    def test_time_change_against_dop853_and_quad(self, name, start):
        scipy = pytest.importorskip("scipy.integrate")
        case = case_by_name(name)
        res = conjugate(case.system)
        cfg = tight(max_time=3.0)
        assert oracle_gap(case.system, res, start, cfg, scipy) < 1e-9
        assert conjugacy_residual(case.system, res, start, cfg) < 1e-6
        # a wrong time change leaves a gap across the orbit, and both
        # measure the same one
        for m in (res.m - 1, res.m + 1):
            wrong = dataclasses.replace(res, m=m)
            want = oracle_gap(case.system, wrong, start, cfg, scipy)
            got = conjugacy_residual(case.system, wrong, start, cfg)
            assert want > 1e-2
            assert abs(got - want) < 1e-3 * want


def field_bits(field, x, y):
    return [v.hex() for v in field(x, y)]


def assert_velocities_are_the_field(traj, field):
    assert len(traj.velocities) == 2 * len(traj.samples)
    for n, (_, x, y) in enumerate(traj.samples):
        got = traj.velocities[2 * n:2 * n + 2]
        assert [v.hex() for v in got] == field_bits(field, x, y), n


class TestVelocities:
    @pytest.mark.parametrize("direction,sign",
                             [("forward", 1.0), ("backward", -1.0)])
    @pytest.mark.parametrize("name", ["5.5->5.6", "7.3->7.4", "4.6->4.7"])
    def test_integrate_keeps_the_field_at_every_sample(self, name,
                                                       direction, sign):
        sys = case_by_name(name).system
        for start in ((0.5, 0.3), (2.0, -1.0)):
            traj = integrate(sys, start, IntegratorConfig(max_time=3.0),
                             direction=direction)
            assert len(traj.samples) > 2
            assert_velocities_are_the_field(traj, dynamics._field(sys, sign))

    def test_equilibrium_start_keeps_one_velocity(self):
        sys = case_by_name("5.3->5.4").system
        traj = integrate(sys, (0.0, 0.0))
        assert traj.termination == "converged-to-equilibrium"
        assert list(traj.velocities) == [0.0, 0.0]

    @pytest.mark.parametrize("name", ["5.5->5.6", "4.6->4.7"])
    def test_atlas_trajectories_keep_none(self, name):
        cfg = AtlasConfig(rays=4, rings=1,
                          integrator=IntegratorConfig(max_time=3.0))
        doc = shared_atlas(case_by_name(name).system, cfg)
        runs = [traj for disk in doc.disks for traj in disk.trajectories]
        assert any(t.termination == "exited-outer-disk" for t in runs)
        assert all(len(t.velocities) == 0 for t in runs)

    def test_copies_keep_velocities_and_json_leaves_them_out(self):
        sys = case_by_name("5.9->5.10").system
        traj = integrate(sys, (0.7, -0.2), IntegratorConfig(max_time=2.0))
        for twin in (copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
            assert twin.velocities == traj.velocities
            assert twin.velocities is not traj.velocities
        assert set(atlas_json(traj)) == {"chart", "termination", "samples"}
        assert len(traj.velocities) == 2 * len(traj.samples)


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestSamples:
    """``Samples`` reads like the list of (t, x, y) tuples it replaced."""

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
    def test_reads_like_the_list_of_rows(self, points):
        rows = [(float(t), x, y) for t, (x, y) in enumerate(points)]
        samples = polyline(points).samples
        assert len(samples) == len(rows)
        assert list(samples) == rows
        assert all(type(row) is tuple for row in samples)
        for index in range(-len(rows), len(rows)):
            assert samples[index] == rows[index]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                samples[index]
        # repr tells -0.0 from 0.0
        assert repr(list(samples)) == repr(rows)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
           st.data())
    def test_equal_when_the_floats_are(self, points, data):
        samples = polyline(points).samples
        assert samples == polyline(points).samples
        for twin in (pickle.loads(pickle.dumps(samples)),
                     copy.deepcopy(samples)):
            assert twin == samples and twin.flat is not samples.flat
            assert twin.flat.typecode == "d"
            assert repr(list(twin)) == repr(list(samples))
        k = data.draw(st.integers(0, len(points) - 1))
        x, y = points[k]
        # the next float toward zero, or 1.0 for a zero
        moved = points[:k] + [(math.nextafter(x, 0.0) if x else 1.0, y)] \
            + points[k + 1:]
        assert samples != polyline(moved).samples
        assert samples != polyline(points + [(x, y)]).samples

    def test_integrate_packs_what_the_loop_collects(self):
        sys = case_by_name("5.9->5.10").system
        cfg = IntegratorConfig(max_time=5.0)
        traj = integrate(sys, (0.7, -0.2), cfg)
        assert type(traj.samples) is Samples
        assert traj.samples == loop_integrate(sys, (0.7, -0.2), cfg).samples
        assert len(traj.samples.flat) == 3 * len(traj.samples) > 30
