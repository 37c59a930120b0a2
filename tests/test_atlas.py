"""Atlas assembly and rendering determinism."""

import ast
import inspect
import json
import math
import os
import pickle
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import Alarm, alarm, case_by_name, polyline
from oracles import atlas_json_dict, atlas_json_text, loop_mid_arc_arrow
from test_golden import ATLAS

from artifact import atlas
from artifact.atlas import (
    MAX_RAYS,
    AtlasConfig,
    OutOfRange,
    build_atlas,
    disk_radius,
    render_svg,
)
from artifact.charts import Circle, Line, Point, map_curve
from artifact.dynamics import TERMINATIONS, IntegratorConfig
from artifact.parse import parse_system


# fields whose atlas is refused before any run or fork: a coefficient
# that does not fit a float fails the first run's start check, and
# 10^307 x^2 is not finite at the seeds of radius 4.5 and more
TOO_LARGE_FOR_FLOATS = {
    "coefficient": (f"1{'0' * 400}*x - y", "x"),
    "field-at-seed": (f"1{'0' * 307}*x^2 - y", "x"),
}


# the pinned atlases rebuilt here, all but 9.11->9.14: its 24 runs at the
# budget of trial steps make it the slowest, at about twice 7.1->7.2;
# 9.4->9.5 and 9.6->9.7 have runs at the budget too
REBUILT = sorted(set(ATLAS) - {"9.11->9.14"})


def quick_config(**kw):
    base = dict(rays=4, rings=1,
                integrator=IntegratorConfig(max_time=3.0))
    base.update(kw)
    return AtlasConfig(**base)


class TestDiskRadius:
    def test_equator(self):
        assert disk_radius(1) == 2.0

    def test_default(self):
        assert disk_radius(Fraction(1, 5)) == 6.0

    @pytest.mark.parametrize("bad", [Fraction(8, 5), 0, -1, 2])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            disk_radius(bad)

    def test_too_small_for_floats(self):
        # (2 - eps)/eps past the largest float: refused, not an OverflowError
        assert disk_radius(Fraction(1, 10**300)) > 1e150
        with pytest.raises(OutOfRange, match="too small"):
            disk_radius(Fraction(1, 10**400))

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=1),
           st.fractions(min_value=Fraction(1, 1000), max_value=1))
    def test_coverage(self, e1, e2):
        assert disk_radius(e1) * disk_radius(e2) >= 4

    def test_boundary_maps_to_concentric_circle(self):
        r_squared = 4 * (2 - Fraction(1, 5)) / Fraction(1, 5)
        image = map_curve(Circle((Fraction(0), Fraction(0)), r_squared))
        assert isinstance(image, Circle)
        assert image.center == (0, 0)
        assert image.radius2 == 16 / r_squared  # radius 4/r


class TestConfig:
    def test_bad_disk_index(self):
        with pytest.raises(ValueError):
            AtlasConfig(extra_seeds=((3, (1.0, 0.0)),))

    def test_negative_grid(self):
        with pytest.raises(ValueError):
            AtlasConfig(rays=-1)

    def test_rays_capped(self):
        # the cap is checked before any seed is built
        assert AtlasConfig(rays=MAX_RAYS).rays == MAX_RAYS
        with pytest.raises(ValueError, match=f"limit of {MAX_RAYS}"):
            AtlasConfig(rays=MAX_RAYS + 1)

    def test_hash_tracks_config(self):
        assert AtlasConfig().config_hash() != \
            AtlasConfig(rays=9).config_hash()
        assert AtlasConfig().config_hash() == AtlasConfig().config_hash()

    def test_default_hash_is_stable(self):
        # the default document's provenance must not drift between releases
        assert AtlasConfig().config_hash() == (
            "d65873e6a44555b2fb1775112322d435e544008d97644f2dc1c836d921a808ee")


class TestBuildAtlas:
    def test_error_estimate_overflow_rejects_the_step(self):
        # a trial step whose error norm overflows is rejected like any
        # other trial step too large for floats, so the atlas finishes
        doc = build_atlas(case_by_name("4.9->4.10").system)
        for disk in doc.disks:
            assert disk.trajectories
            assert {t.termination for t in disk.trajectories} \
                <= set(TERMINATIONS)

    def test_radial_rays(self):
        sys = case_by_name("5.1->5.2").system
        doc = build_atlas(sys, quick_config())
        first = doc.disks[0]
        assert first.vars == ("x", "y")
        assert first.trajectories, "expected seeded trajectories"
        for traj in first.trajectories:
            _, x0, y0 = traj.samples[0]
            for _, x, y in traj.samples:
                assert abs(x * y0 - y * x0) < 1e-6 * max(1.0, x * x + y * y)

    def test_origin_markers(self):
        doc = build_atlas(case_by_name("5.1->5.2").system, quick_config())
        assert doc.disks[0].equilibria == \
            [((0.0, 0.0), "unstable dicritical node")]
        assert doc.disks[1].equilibria == \
            [((0.0, 0.0), "stable dicritical node")]

    def test_regular_remote_point_unmarked(self):
        from artifact.parse import parse_system
        sys = parse_system(("x", "y"), ("x^2 - y^2", "2*x*y"))
        doc = build_atlas(sys, quick_config())
        assert doc.disks[1].equilibria == []

    def test_samples_stay_in_disks(self):
        doc = build_atlas(case_by_name("5.5->5.6").system, quick_config())
        for disk in doc.disks:
            for traj in disk.trajectories:
                for _, x, y in traj.samples:
                    assert math.hypot(x, y) <= disk.radius * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["5.5->5.6", "4.6->4.7"])
    def test_field_evaluated_only_in_start_checks(self, name, monkeypatch):
        # one start check per forward run, none at a clipped exit; with
        # no fork, every evaluation happens in this process
        calls = []
        real = atlas.field_eval

        def counted(system, point):
            calls.append(point)
            return real(system, point)

        monkeypatch.setattr(atlas, "field_eval", counted)
        doc = serial_atlas(monkeypatch, case_by_name(name).system,
                           quick_config())
        runs = [t for disk in doc.disks for t in disk.trajectories]
        assert any(t.termination == "exited-outer-disk" for t in runs)
        assert len(calls) == len(runs) // 2

    def test_cycle_marker_image_and_seeds(self):
        marker = Circle((Fraction(0), Fraction(0)), Fraction(1))
        bare = quick_config(rays=0, rings=0)
        with_marker = quick_config(rays=0, rings=0, markers=((1, marker),))
        doc = build_atlas(case_by_name("7.3->7.4").system, with_marker)
        base = build_atlas(case_by_name("7.3->7.4").system, bare)
        assert doc.disks[0].curves == [marker]
        assert doc.disks[1].curves == \
            [Circle((Fraction(0), Fraction(0)), Fraction(16))]
        added = len(doc.disks[0].trajectories) - len(base.disks[0].trajectories)
        assert added == 4  # two bracket seeds, both directions

    def test_empty_config(self):
        doc = build_atlas(case_by_name("5.1->5.2").system,
                          quick_config(rays=0, rings=0))
        assert sum(len(d.trajectories) for d in doc.disks) == 0
        assert doc.disks[0].radius == 6.0 and doc.disks[1].radius == 6.0

    def test_deterministic_document(self):
        sys = case_by_name("5.3->5.4").system
        a = atlas_json_dict(build_atlas(sys, quick_config()))
        b = atlas_json_dict(build_atlas(sys, quick_config()))
        assert a == b

    def test_json_shape(self):
        doc = build_atlas(case_by_name("5.3->5.4").system, quick_config())
        blob = json.loads("".join(atlas.json_pieces(doc)))
        assert blob["schema"] == 1
        assert [d["vars"] for d in blob["disks"]] == [["x", "y"], ["u", "v"]]
        assert blob["provenance"]["conjugation"]["k"] == 1
        assert len(blob["provenance"]["config_hash"]) == 64


class TestRenderSvg:
    def test_empty_has_two_circles(self):
        doc = build_atlas(case_by_name("5.1->5.2").system,
                          quick_config(rays=0, rings=0))
        svg = render_svg(doc)
        assert svg.count(b"<circle") == 2
        assert svg.count(b"<polyline") == 0

    def test_trajectories_never_add_circles(self):
        doc = build_atlas(case_by_name("5.3->5.4").system, quick_config())
        svg = render_svg(doc)
        assert svg.count(b"<circle") == 2
        assert svg.count(b"<polyline") >= len(doc.disks[0].trajectories)

    def test_repeat_render_identical(self):
        doc = build_atlas(case_by_name("7.3->7.4").system, quick_config())
        assert render_svg(doc) == render_svg(doc)

    def test_rebuild_render_identical(self):
        sys = case_by_name("5.3->5.4").system
        a = render_svg(build_atlas(sys, quick_config()))
        b = render_svg(build_atlas(sys, quick_config()))
        assert a == b

    @given(st.floats(), st.floats(), st.floats(),
           st.lists(st.tuples(st.floats(), st.floats()), max_size=6))
    def test_points_match_fmt_per_number(self, cx, cy, scale, xys):
        expected = " ".join(
            f"{atlas._fmt(cx + x * scale)},{atlas._fmt(cy - y * scale)}"
            for x, y in xys)
        assert atlas._points(cx, cy, scale, xys) == expected

    def test_points_negative_zero(self):
        assert atlas._points(0.0, 0.0, 1.0, [(-0.00004, 0.00004),
                                             (-10.0, -0.0)]) == \
            "0.0000,0.0000 -10.0000,0.0000"

    def test_arrowheads_present(self):
        doc = build_atlas(case_by_name("5.3->5.4").system, quick_config())
        svg = render_svg(doc)
        assert svg.count(b'fill="#1f4e79"') == \
            sum(len(d.arrows) for d in doc.disks)


class TestMidArcArrow:
    """The arrow's sample is found by bisection on the cumulative
    lengths; ``loop_mid_arc_arrow`` (tests/oracles.py) scans every sample
    for the least gap to half the length, the first of equals winning.
    ``repr`` tells -0.0 from 0.0."""

    def test_corpus_atlases(self):
        count = 0
        for name in REBUILT:
            doc = build_atlas(case_by_name(name).system)
            for disk in doc.disks:
                for traj in disk.trajectories:
                    assert repr(atlas._mid_arc_arrow(traj)) == \
                        repr(loop_mid_arc_arrow(traj)), name
                    count += 1
        assert count == 96 * len(REBUILT)

    def test_ties_on_a_grid(self):
        # unit and zero steps on the grid: every length is an integer, so
        # gaps tie exactly, across runs of repeated samples too
        rng = random.Random(5)
        moves = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                 (0.0, 0.0), (0.0, 0.0)]
        for _ in range(3000):
            pts = [(0.0, 0.0)]
            for _ in range(rng.randint(2, 14)):
                dx, dy = rng.choice(moves)
                pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
            traj = polyline(pts)
            assert repr(atlas._mid_arc_arrow(traj)) == \
                repr(loop_mid_arc_arrow(traj)), pts

    def test_rounding_ties_distinct_lengths(self):
        # lengths 0.5 and 0.5 + 2^-53 below half of 4: both gaps round to
        # 1.5, so the first sample wins, not the nearer one
        tiny = 2.0 ** -53
        pts = [(0.0, 0.0), (0.5, 0.0), (0.5 + tiny, 0.0), (4.0, 0.0)]
        arrow = atlas._mid_arc_arrow(polyline(pts))
        assert arrow == loop_mid_arc_arrow(polyline(pts))
        assert arrow[0] == (0.5, 0.0)

    @pytest.mark.parametrize("pts", [
        [(0.0, 0.0), (1.0, 0.0)],
        [(1.0, 1.0)] * 5,
        [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)],
    ])
    def test_no_arrow(self, pts):
        assert atlas._mid_arc_arrow(polyline(pts)) is None
        assert loop_mid_arc_arrow(polyline(pts)) is None


def test_atlas_uses_only_public_dynamics_names():
    tree = ast.parse(inspect.getsource(atlas))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dynamics"
             for alias in node.names]
    assert "field_eval" in names
    assert not [name for name in names if name.startswith("_")]


def test_atlas_imports_only_origin_status_from_analyze():
    tree = ast.parse(inspect.getsource(atlas))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "analyze"
             for alias in node.names]
    assert names == ["origin_status"]


class TestOverlays:
    # on disk 1 (radius 6): a circle that crosses the boundary, a line
    # through the disk, a line that misses it and a marked point
    MARKERS = ((1, Circle((Fraction(5), Fraction(0)), Fraction(4))),
               (1, Line(1, -1, 2)),
               (1, Line(1, 0, -10)),
               (1, Point((Fraction(1), Fraction(-2)))))

    def build(self):
        doc = build_atlas(case_by_name("5.1->5.2").system,
                          quick_config(rays=0, rings=0, markers=self.MARKERS))
        runs = [[(curve, run) for curve in disk.curves
                 for run in atlas._curve_polylines(curve, disk.radius)]
                for disk in doc.disks]
        return doc, runs

    def test_dashed_polylines(self):
        doc, runs = self.build()
        # disk 1: the circle's arc inside and one chord; disk 2: the
        # circle's image and the two lines' images, circles through the
        # origin, all inside
        assert [len(r) for r in runs] == [2, 3]
        assert [type(c) for c in doc.disks[0].curves] == [Circle, Line, Line]
        assert [type(c) for c in doc.disks[1].curves] == [Circle] * 3
        assert render_svg(doc).count(b'stroke-dasharray="6 4"') == 5

    def test_runs_stay_in_their_disk(self):
        doc, runs = self.build()
        for disk, disk_runs in zip(doc.disks, runs):
            for _, run in disk_runs:
                assert len(run) >= 2
                for x, y in run:
                    assert math.hypot(x, y) <= disk.radius * (1 + 1e-9)
        # the crossing circle leaves the disk, so its run is an arc
        assert len(runs[0][0][1]) < 257

    def test_chord_ends_lie_on_the_boundary(self):
        doc, runs = self.build()
        chords = [run for curve, run in runs[0] if isinstance(curve, Line)]
        assert len(chords) == 1 and len(chords[0]) == 2
        for x, y in chords[0]:
            assert math.isclose(math.hypot(x, y), doc.disks[0].radius,
                                rel_tol=1e-12)
            assert x - y + 2 == pytest.approx(0.0, abs=1e-12)

    def test_point_marker_is_a_marked_equilibrium(self):
        doc, _ = self.build()
        assert doc.disks[0].equilibria[-1] == ((1.0, -2.0), "marked")
        assert all(label != "marked" for _, label in doc.disks[1].equilibria)
        assert render_svg(doc).count(b"<title>marked</title>") == 1


# -- the seed runs split between this process and one forked child ---------

@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork while the test ran."""
    calls, real = [], os.fork

    def counted():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _no_fork():
    raise OSError("fork refused by the test")


def serial_atlas(monkeypatch, system, cfg=None):
    """The document of the in-process loop alone: fork always fails."""
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _no_fork)
        return build_atlas(system, cfg)


def assert_same_document(split, serial):
    # Trajectory equality also covers step counts (and the velocities,
    # which every atlas run leaves empty)
    assert split.disks == serial.disks
    assert render_svg(split) == render_svg(serial)
    assert "".join(atlas.json_pieces(split)) == \
        "".join(atlas.json_pieces(serial))


def expected_forks() -> int:
    return 1 if atlas._may_fork(2) else 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# run 3 of a quick_config atlas is the backward run from its second seed,
# (0, 3) up to rounding; it is in this process's share (index % 4 == 3),
# and no run of the child's share starts above y = 2.9
RUN_3_ERROR = r"backward from \([-.\de]+, 3\.0\)"


def fail_run_3(monkeypatch):
    """Make run 3 raise after the split, in whichever process runs it."""
    real = atlas.integrate

    def failing(system, start, *args, direction, **kwargs):
        if direction == "backward" and start[1] > 2.9:
            raise ValueError(f"backward from {start}")
        return real(system, start, *args, direction=direction, **kwargs)

    monkeypatch.setattr(atlas, "integrate", failing)


class TestSplitRuns:
    @pytest.mark.parametrize("name", REBUILT)
    def test_corpus_atlas_matches_serial(self, name, monkeypatch, forks):
        system = case_by_name(name).system
        split = build_atlas(system)
        assert len(forks) == expected_forks()
        assert_same_document(split, serial_atlas(monkeypatch, system))

    def test_markers_and_extra_seeds_match_serial(self, monkeypatch, forks):
        cfg = quick_config(
            extra_seeds=((1, (0.5, 0.25)), (2, (1.0, -1.5))),
            markers=((1, Circle((Fraction(0), Fraction(0)), Fraction(1))),
                     (1, Point((Fraction(1, 2), Fraction(0))))))
        system = case_by_name("7.3->7.4").system
        split = build_atlas(system, cfg)
        assert len(forks) == expected_forks()
        assert split.disks[0].equilibria[-1] == ((0.5, 0.0), "marked")
        assert_same_document(split, serial_atlas(monkeypatch, system, cfg))

    @pytest.mark.parametrize("name", sorted(TOO_LARGE_FOR_FLOATS))
    def test_failure_matches_serial(self, name, monkeypatch, forks):
        # refused before any run: no fork
        system = parse_system(("x", "y"), TOO_LARGE_FOR_FLOATS[name])
        with pytest.raises(ArithmeticError) as split:
            build_atlas(system)
        with pytest.raises(ArithmeticError) as serial:
            serial_atlas(monkeypatch, system)
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)
        assert forks == []

    def test_failure_in_this_process_share_surfaces(self, monkeypatch,
                                                     forks):
        fail_run_3(monkeypatch)
        system = case_by_name("5.1->5.2").system
        with pytest.raises(ValueError, match=RUN_3_ERROR) as split:
            build_atlas(system, quick_config())
        assert len(forks) == expected_forks()
        assert_no_child_left()
        with pytest.raises(ValueError) as serial:
            serial_atlas(monkeypatch, system, quick_config())
        assert str(split.value) == str(serial.value)

    def test_child_that_dies_gives_the_serial_result(self, monkeypatch, forks):
        system = case_by_name("5.3->5.4").system
        serial = serial_atlas(monkeypatch, system, quick_config())
        parent, real = os.getpid(), atlas.integrate

        def die_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(atlas, "integrate", die_in_child)
        assert_same_document(build_atlas(system, quick_config()), serial)
        assert len(forks) == expected_forks()
        assert_no_child_left()

    def test_bytes_that_do_not_unpickle_give_the_serial_result(
            self, monkeypatch, forks):
        system = case_by_name("5.3->5.4").system
        serial = serial_atlas(monkeypatch, system, quick_config())
        real = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda blob: real(blob[:-1]))
        assert_same_document(build_atlas(system, quick_config()), serial)
        assert len(forks) == expected_forks()

    def test_runs_pickle_packed(self):
        # what the child sends: 24 bytes a sample and about 70 a run; a
        # tuple of three floats a sample pickled to about 29 bytes
        doc = build_atlas(case_by_name("5.3->5.4").system)
        runs = [t for disk in doc.disks for t in disk.trajectories]
        samples = sum(len(t.samples) for t in runs)
        blob = pickle.dumps(runs, pickle.HIGHEST_PROTOCOL)
        assert samples > 100 * len(runs)
        assert len(blob) <= 24 * samples + 100 * len(runs)
        assert pickle.loads(blob) == runs

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        build_atlas(case_by_name("5.3->5.4").system, quick_config())
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, None])
    def test_no_fork_on_one_cpu_without_affinity(self, cpus, monkeypatch,
                                                  forks):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        build_atlas(case_by_name("5.3->5.4").system, quick_config())
        assert forks == []

    def test_fork_on_two_cpus_without_affinity(self, monkeypatch, forks):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        build_atlas(case_by_name("5.3->5.4").system, quick_config())
        assert len(forks) == 1

    def test_no_fork_while_another_thread_lives(self, forks):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            build_atlas(case_by_name("5.3->5.4").system, quick_config())
        finally:
            release.set()
            waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert forks == []

    def test_no_fork_without_runs(self, forks):
        build_atlas(case_by_name("5.3->5.4").system,
                    quick_config(rays=0, rings=0))
        assert forks == []


class TestNoChildLeft:
    def test_after_return(self, forks):
        build_atlas(case_by_name("5.3->5.4").system)
        assert len(forks) == expected_forks()
        assert_no_child_left()

    def test_after_exception(self, monkeypatch, forks):
        fail_run_3(monkeypatch)
        with pytest.raises(ValueError, match=RUN_3_ERROR):
            build_atlas(case_by_name("5.1->5.2").system, quick_config())
        assert len(forks) == expected_forks()
        assert_no_child_left()

    def test_after_alarm_mid_atlas(self, forks):
        # 768 runs of 7.1->7.2 with a time limit that most of them reach
        # only at the budget of trial steps: far longer than the alarm,
        # and the collector stays off meanwhile (``alarm``)
        cfg = AtlasConfig(rays=32, rings=6,
                          integrator=IntegratorConfig(max_time=1e4))
        with pytest.raises(Alarm), alarm(0.5):
            build_atlas(case_by_name("7.1->7.2").system, cfg)
        assert len(forks) == expected_forks()
        assert_no_child_left()
