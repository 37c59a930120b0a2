"""Atlas assembly and rendering determinism."""

import ast
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact import atlas
from artifact.atlas import (
    AtlasConfig,
    OutOfRange,
    build_atlas,
    disk_radius,
    render_svg,
)
from artifact.charts import Circle, Line, Point, map_curve
from artifact.corpus import case_by_name
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
