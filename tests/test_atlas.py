"""Atlas assembly and rendering determinism."""

import ast
import inspect
import json
import math
import os
import pickle
import signal
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import case_by_name
from test_golden import ATLAS

from artifact import atlas
from artifact.atlas import (
    AtlasConfig,
    OutOfRange,
    build_atlas,
    disk_radius,
    render_svg,
)
from artifact.charts import Circle, Line, Point, map_curve
from artifact.dynamics import IntegratorConfig, NumericOverflow


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

    def test_coverage_enforced(self):
        with pytest.raises(ValueError):
            AtlasConfig(radius1=1.0, radius2=1.0).radii()

    def test_hash_tracks_config(self):
        assert AtlasConfig().config_hash() != \
            AtlasConfig(rays=9).config_hash()
        assert AtlasConfig().config_hash() == AtlasConfig().config_hash()

    def test_default_hash_is_stable(self):
        # the default document's provenance must not drift between releases
        assert AtlasConfig().config_hash() == (
            "d65873e6a44555b2fb1775112322d435e544008d97644f2dc1c836d921a808ee")


class TestBuildAtlas:
    def test_error_estimate_overflow_is_numeric_overflow(self):
        # a trial step whose error norm overflows must surface as the
        # integrator's own error, not a bare OverflowError
        with pytest.raises(NumericOverflow, match="t="):
            build_atlas(case_by_name("4.9->4.10").system)

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
        a = build_atlas(sys, quick_config()).to_json_dict()
        b = build_atlas(sys, quick_config()).to_json_dict()
        assert a == b

    def test_json_shape(self):
        doc = build_atlas(case_by_name("5.3->5.4").system, quick_config())
        blob = doc.to_json_dict()
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
    # Trajectory equality also covers velocities and step counts
    assert split.disks == serial.disks
    assert render_svg(split) == render_svg(serial)
    assert json.dumps(split.to_json_dict()) == \
        json.dumps(serial.to_json_dict())


def expected_forks() -> int:
    return 1 if atlas._may_fork(2) else 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitRuns:
    @pytest.mark.parametrize("name", sorted(ATLAS))
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

    @pytest.mark.parametrize("name", ["4.9->4.10", "9.12->9.15"])
    def test_failure_matches_serial(self, name, monkeypatch):
        system = case_by_name(name).system
        with pytest.raises(ArithmeticError) as split:
            build_atlas(system)
        with pytest.raises(ArithmeticError) as serial:
            serial_atlas(monkeypatch, system)
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)

    def test_first_failure_in_serial_order_wins(self, monkeypatch, forks):
        # every backward run fails: run 1 (the child's) comes before
        # run 3 (this process's), so run 1's error must surface
        real = atlas.integrate

        def no_backward(system, start, *args, direction, **kwargs):
            if direction == "backward":
                raise ValueError(f"backward from {start}")
            return real(system, start, *args, direction=direction, **kwargs)

        monkeypatch.setattr(atlas, "integrate", no_backward)
        with pytest.raises(ValueError, match=r"backward from \(3\.0, 0\.0\)"):
            build_atlas(case_by_name("5.1->5.2").system, quick_config())
        assert len(forks) == expected_forks()

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


class _Alarm(BaseException):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm()


class TestNoChildLeft:
    def test_after_return(self, forks):
        build_atlas(case_by_name("5.3->5.4").system)
        assert len(forks) == expected_forks()
        assert_no_child_left()

    def test_after_exception(self, forks):
        with pytest.raises(NumericOverflow):
            build_atlas(case_by_name("4.9->4.10").system)
        assert len(forks) <= 1
        assert_no_child_left()

    def test_after_alarm_mid_atlas(self, forks):
        # 9.6->9.7 runs for far longer than the alarm
        previous = signal.signal(signal.SIGALRM, _raise_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(_Alarm):
                build_atlas(case_by_name("9.6->9.7").system)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == expected_forks()
        assert_no_child_left()
