"""Two-disk phase portraits: building the atlas document and rendering it.

A portrait pairs a disk in the original plane with a disk in the partner
plane. Their radii multiply to at least 4, so the two disks jointly cover
the whole sphere, the second disk supplying a neighborhood of the
infinitely remote point that the first one cannot show. This holds by
construction: for eps in (0, 1] the float of (2 - eps)/eps is at least
1.0, and so is its square root, as rounding is monotone and 1.0 exact;
so each disk_radius is at least 2.0 and the product at least 4.0.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import signal
import threading
from bisect import bisect_left
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import add, gt, lt, sub

from .analyze import origin_status
from .charts import Chart, Circle, Line, Point, map_curve
from .conjugate import DiffSystem, conjugate
from .dynamics import IntegratorConfig, Trajectory, field_eval, integrate


class OutOfRange(ValueError):
    """Disk parameter outside (0, 1]."""


def disk_radius(eps) -> float:
    """Radius of the disk whose boundary projects to the cut at height 1-eps.

    eps = 1 cuts at the equator, giving radius 2 (the fixed circle of
    the transition map).
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise OutOfRange(f"disk parameter must lie in (0, 1]: {eps}")
    try:
        return 2 * math.sqrt(float((2 - eps) / eps))
    except OverflowError:
        raise OutOfRange("disk parameter too small for floats") from None


# Most rays per ring (one per degree; every seed runs before any result),
# and each disk's width in pixels in the SVG.
MAX_RAYS = 360
_SIZE = 420


@dataclass(frozen=True)
class AtlasConfig:
    """Knobs for atlas assembly.

    Disk radii are disk_radius(eps1) and disk_radius(eps2).
    Curve markers annotate known cycles or separatrices: each entry is
    (disk, descriptor) with disk 1 for the original plane and 2 for the
    partner plane. Circles and lines are drawn in both disks, as their
    image in the other one; a point is marked in its own disk only.
    Circle markers contribute two extra seeds bracketing the circle.
    """

    eps1: Fraction = Fraction(1, 5)
    eps2: Fraction = Fraction(1, 5)
    rays: int = 8
    rings: int = 3
    extra_seeds: tuple = ()   # (disk, (x, y)) pairs
    markers: tuple = ()       # (disk, Circle | Line | Point) pairs
    integrator: IntegratorConfig = IntegratorConfig(max_time=12.0)

    def __post_init__(self):
        if self.rays < 0 or self.rings < 0:
            raise ValueError("seed grid counts cannot be negative")
        if self.rays > MAX_RAYS:
            raise ValueError(
                f"{self.rays} rays exceed the limit of {MAX_RAYS}")
        for disk, _ in tuple(self.extra_seeds) + tuple(self.markers):
            if disk not in (1, 2):
                raise ValueError(f"disk index must be 1 or 2: {disk}")

    def config_hash(self) -> str:
        blob = json.dumps({
            "eps1": str(self.eps1), "eps2": str(self.eps2),
            # fixed entries: every pinned config hash depends on all three
            "radius1": None, "radius2": None, "size": 420,
            "rays": self.rays, "rings": self.rings,
            "extra_seeds": [[d, [float(x), float(y)]]
                            for d, (x, y) in self.extra_seeds],
            "markers": [[d, c.to_json_dict()] for d, c in self.markers],
            "integrator": asdict(self.integrator),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class DiskChart:
    chart: Chart
    vars: tuple[str, str]
    radius: float
    trajectories: list
    equilibria: list   # ((x, y), label) pairs
    arrows: list       # ((x, y), (ux, uy)) unit direction at mid arc
    curves: list       # Circle / Line overlays


@dataclass
class AtlasDocument:
    """The ordered disk pair: the original plane's disk always first."""

    disks: tuple
    provenance: dict


# Slack on the segment prefilter of ``detect_closed``, relative to the
# largest of tol, |start| and the samples' distances from the start: the
# rounding of either test is a few units in the last place of those.
_CLOSURE_SLACK = 1e-12


def detect_closed(traj: Trajectory, tol: float) -> bool:
    """Does the trajectory come back to its start?

    True when, after first leaving a 2*tol neighborhood of the start,
    some later segment passes within tol of the start while heading
    within 5 degrees of the initial direction.

    Every sample's distance to the start is taken once. A segment of
    length s between samples at distances da and db stays at least
    (da + db - s) / 2 from the start (the triangle inequality), so the
    exact closest-approach test runs only on segments where that bound
    is under tol, plus a rounding slack; the others cannot pass it.
    """
    if len(traj.samples) < 10:
        raise ValueError("closure detection needs at least 10 samples")
    flat = traj.samples.flat
    pts = list(zip(flat[1::3], flat[2::3]))
    p0 = x0, y0 = pts[0]
    # math.dist(p, p0) is math.hypot of the differences, bit for bit
    dist = list(map(math.dist, pts, repeat(p0)))
    moved = next((i for i in range(1, len(pts)) if dist[i] > 0), None)
    if moved is None:
        return False  # never moved
    norm = dist[moved]
    xx, yy = pts[moved]
    d0 = ((xx - x0) / norm, (yy - y0) / norm)
    # the segment that first leaves 2*tol is not tested; the next one is
    left = next(compress(count(1), map(gt, dist[1:], repeat(2 * tol))), None)
    if left is None:
        return False
    slack = _CLOSURE_SLACK * (tol + math.hypot(x0, y0) + max(dist))
    bounds = map(sub, map(add, dist[left:], dist[left + 1:]),
                 map(math.dist, pts[left + 1:], pts[left:]))
    cos_cap = math.cos(math.radians(5.0))
    for i in compress(count(left), map(lt, bounds, repeat(2 * (tol + slack)))):
        (ax, ay), (bx, by) = pts[i], pts[i + 1]
        ux, uy = bx - ax, by - ay
        seg = math.hypot(ux, uy)
        if seg == 0:
            continue
        # closest approach of the segment to the start point
        proj = max(0.0, min(1.0, ((x0 - ax) * ux + (y0 - ay) * uy) / seg ** 2))
        cx, cy = ax + proj * ux, ay + proj * uy
        if math.hypot(cx - x0, cy - y0) < tol:
            if (ux * d0[0] + uy * d0[1]) / seg >= cos_cap:
                return True
    return False


def _clip_exit(traj: Trajectory, radius: float) -> None:
    """Pull an overshooting final sample back onto the disk boundary."""
    if traj.termination != "exited-outer-disk":
        return
    flat = traj.samples.flat
    t0, x0, y0, t1, x1, y1 = flat[-6:]
    dx, dy = x1 - x0, y1 - y0
    # smallest s in [0, 1] with |(x0, y0) + s*(dx, dy)| = radius
    a = dx * dx + dy * dy
    b = x0 * dx + y0 * dy
    c = x0 * x0 + y0 * y0 - radius * radius
    if a == 0:
        return
    disc = b * b - a * c
    if disc < 0:
        return
    s = (-b + math.sqrt(disc)) / a
    s = max(0.0, min(1.0, s))
    flat[-3], flat[-2], flat[-1] = t0 + s * (t1 - t0), x0 + s * dx, y0 + s * dy


def _mid_arc_arrow(traj: Trajectory):
    """Arrow at the sample nearest half the polyline's arc length."""
    flat = traj.samples.flat
    pts = list(zip(flat[1::3], flat[2::3]))
    if len(pts) < 3:
        return None
    lens = list(accumulate(map(math.dist, pts[1:], pts), initial=0.0))
    total = lens[-1]
    if total == 0:
        return None
    half = total / 2

    def gap(length):
        return abs(length - half)

    # the inner sample whose gap to half the length is least, the first
    # of equals: the gaps fall up to the first length >= half, then rise
    last = len(pts) - 1
    idx = bisect_left(lens, half, 1, last)
    if idx == last or (idx > 1 and gap(lens[idx - 1]) <= gap(lens[idx])):
        # the first sample below half with the least gap; rounding can
        # give that gap to a run of lengths, repeated samples among them
        idx = bisect_left(lens, -gap(lens[idx - 1]), 1, idx,
                          key=lambda length: -gap(length))
    ux, uy = pts[idx + 1][0] - pts[idx - 1][0], pts[idx + 1][1] - pts[idx - 1][1]
    norm = math.hypot(ux, uy)
    if norm == 0:
        return None
    return pts[idx], (ux / norm, uy / norm)


def _grid_seeds(radius: float, rays: int, rings: int):
    seeds = []
    for ring in range(1, rings + 1):
        rho = radius * ring / (rings + 1)
        for ray in range(rays):
            angle = 2 * math.pi * ray / rays
            seeds.append((rho * math.cos(angle), rho * math.sin(angle)))
    return seeds


def _circle_bracket_seeds(circle: Circle):
    cx, cy = float(circle.center[0]), float(circle.center[1])
    rad = math.sqrt(float(circle.radius2))
    return [(cx + 0.85 * rad, cy), (cx + 1.15 * rad, cy)]


def _run(job) -> Trajectory:
    """One seed run: integrate, label a run to the time limit that
    returns to its start "closed", and clip an exit onto the disk. The
    run keeps no velocities: no part of the atlas reads them, and a
    clipped exit's would be the field at the overshoot."""
    system, seed, icfg, direction = job
    traj = integrate(system, seed, icfg, direction=direction)
    if traj.termination == "time-limit" and len(traj.samples) >= 10:
        _, x0, y0 = traj.samples[0]
        # loose enough to absorb the sag of sampled chords on a curved orbit
        if detect_closed(traj, 1e-3 * max(1.0, math.hypot(x0, y0))):
            traj.termination = "closed"
    _clip_exit(traj, icfg.outer_radius)
    del traj.velocities[:]
    return traj


def _may_fork(runs: int) -> bool:
    """Whether a second process could take half of the runs.

    Not for fewer than two runs, without ``fork``, on one CPU, or while
    other threads are alive (forking a threaded process can deadlock).
    """
    if runs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _child_runs(jobs, share, parent: int, mask, read_fd: int,
                write_fd: int) -> None:
    """The forked child: run the share in order and send all of its runs
    as one pickle. Sends nothing if it is interrupted, or once the parent
    is gone. Never returns."""
    try:
        os.close(read_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        sent = []
        for i in share:
            if os.getppid() != parent:
                return
            sent.append(_run(jobs[i]))
        with open(write_fd, "wb") as pipe:
            pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _run_split(jobs) -> dict:
    """The runs that one forked child and this process deliver, by index.

    The child takes the runs with index i % 4 in (1, 2), so each side
    gets about half the forward and half the backward runs. This process
    runs the rest, then reads the child's pipe to its end. The child's
    share is missing only when the child dies or is interrupted. The
    child is killed and reaped before this returns or raises. It is a
    fork, not a fresh interpreter: it inherits the loaded library and the
    runs, so nothing is imported or sent to it. A fresh interpreter's
    start-up alone costs more than a typical atlas.
    """
    share = [i for i in range(len(jobs)) if i % 4 in (1, 2)]
    parent = os.getpid()
    done, pid = {}, -1
    try:
        read_fd, write_fd = os.pipe()
    except OSError:   # no descriptors left; the runs stay serial
        return done
    # signals wait until pid is stored, so no handler that raises can
    # leave a child behind
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:
            _child_runs(jobs, share, parent, mask, read_fd, write_fd)
        os.close(write_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if pid < 0:
            return done
        for i in range(len(jobs)):
            if i % 4 in (0, 3):
                done[i] = _run(jobs[i])
        with open(read_fd, "rb", closefd=False) as pipe:
            blob = pipe.read()
    finally:
        os.close(read_fd)
        if pid > 0:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    try:
        sent = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError):  # the child sent nothing
        sent = []
    done.update(zip(share, sent))
    return done


def _run_all(jobs) -> list:
    """Every run's trajectory, in job order. No run raises once the start
    checks of ``build_atlas`` pass; what the child does not deliver, this
    process runs itself."""
    done = _run_split(jobs) if _may_fork(len(jobs)) else {}
    return [done[i] if i in done else _run(job) for i, job in enumerate(jobs)]


def build_atlas(sys: DiffSystem, cfg: AtlasConfig | None = None) -> AtlasDocument:
    """Assemble the two-disk portrait document for a system.

    Seeds a polar grid in each disk (plus configured extras), runs each
    seed forward and backward clipped to its disk, and marks chart
    origins that are equilibria; the partner disk's origin stands for
    the original plane's infinitely remote point. The runs of both disks
    are split between this process and one forked child when a second
    CPU is free; the document does not depend on the split. Its only
    field evaluations are the start checks: it raises before any run or
    fork if a run would fail at its start, for its system or its seed,
    and then no run can raise, so every run, of one sample or more, is
    in the document and which error surfaces does not depend on the
    split.
    """
    cfg = cfg or AtlasConfig()
    r1, r2 = disk_radius(cfg.eps1), disk_radius(cfg.eps2)
    result = conjugate(sys)
    partner = result.conjugate

    disks, ranges, jobs = [], [], []
    for disk_no, (system, chart, radius) in enumerate(
            [(sys, Chart.N, r1), (partner, Chart.S, r2)], start=1):
        seeds = _grid_seeds(radius, cfg.rays, cfg.rings)
        seeds += [tuple(map(float, p)) for d, p in cfg.extra_seeds
                  if d == disk_no]
        curves = []
        for d, marker in cfg.markers:
            own = marker if d == disk_no else map_curve(marker)
            if isinstance(own, (Circle, Line)):
                curves.append(own)
                if d == disk_no and isinstance(own, Circle):
                    seeds += _circle_bracket_seeds(own)
        icfg = replace(cfg.integrator, outer_radius=radius)
        first = len(jobs)
        jobs += [(system, seed, icfg, direction)
                 for seed in seeds if math.hypot(*seed) < radius
                 for direction in ("forward", "backward")]
        ranges.append((first, len(jobs)))
        label = origin_status(system).eq_class
        equilibria = [] if label is None else [((0.0, 0.0), label)]
        for d, marker in cfg.markers:
            if d == disk_no and isinstance(marker, Point):
                px, py = float(marker.at[0]), float(marker.at[1])
                if math.hypot(px, py) <= radius:
                    equilibria.append(((px, py), "marked"))
        disks.append(DiskChart(chart=chart, vars=system.vars, radius=radius,
                               trajectories=[], equilibria=equilibria,
                               arrows=[], curves=curves))

    # each run's start check; the child inherits the compiled forward fields
    for system, seed, _, _ in jobs[::2]:   # the forward runs
        field_eval(system, seed)
    runs = _run_all(jobs)
    for disk, (first, end) in zip(disks, ranges):
        disk.trajectories = runs[first:end]
        disk.arrows = [a for a in map(_mid_arc_arrow, disk.trajectories) if a]

    provenance = {
        "system": sys.to_json_dict(),
        "conjugation": result.to_json_dict(),
        "config_hash": cfg.config_hash(),
    }
    return AtlasDocument(disks=tuple(disks), provenance=provenance)


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _dot_path(cx: float, cy: float, r: float) -> str:
    # a filled dot drawn as two arcs, keeping <circle> reserved for
    # the disk boundaries
    return (f"M {_fmt(cx - r)} {_fmt(cy)} "
            f"a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(2 * r)} 0 "
            f"a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(-2 * r)} 0 Z")


def _points(cx: float, cy: float, scale: float, xys) -> str:
    """SVG ``points`` of plane coordinates in a disk viewport at (cx, cy),
    each number as _fmt writes it. Every one has four decimals, so
    "-0.0000" can only match a whole negative zero."""
    flat = [c for x, y in xys for c in (cx + x * scale, cy - y * scale)]
    text = " ".join(["%.4f,%.4f"] * (len(flat) // 2)) % tuple(flat)
    return text.replace("-0.0000", "0.0000")


def _curve_polylines(curve, radius: float):
    """Clip an overlay curve to the disk, as one or more point runs."""
    runs, run = [], []
    if isinstance(curve, Circle):
        ccx, ccy = float(curve.center[0]), float(curve.center[1])
        rad = math.sqrt(float(curve.radius2))
        pts = [(ccx + rad * math.cos(2 * math.pi * k / 256),
                ccy + rad * math.sin(2 * math.pi * k / 256))
               for k in range(257)]
    else:
        a, b, c = float(curve.a), float(curve.b), float(curve.c)
        norm = math.hypot(a, b)
        if abs(c) / norm > radius:
            return []
        # foot of the perpendicular from the center, then the chord
        fx, fy = -a * c / norm ** 2, -b * c / norm ** 2
        half = math.sqrt(max(0.0, radius ** 2 - (c / norm) ** 2))
        tx, ty = -b / norm, a / norm
        pts = [(fx - half * tx, fy - half * ty), (fx + half * tx, fy + half * ty)]
    for x, y in pts:
        if math.hypot(x, y) <= radius * (1 + 1e-9):
            run.append((x, y))
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return [r for r in runs if len(r) >= 2]


def svg_pieces(doc: AtlasDocument):
    """The SVG of a document, one line at a time: two disks side by side.

    Trajectories are polylines with one mid-arc arrowhead, equilibria
    are filled dots, overlay curves are dashed. The only <circle>
    elements are the two disk boundaries. Each piece ends with a newline.
    """
    size = _SIZE
    margin = 40
    gap = 60
    width = 2 * size + 2 * margin + gap
    height = size + 2 * margin + 30
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">\n')
    yield f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
    for index, disk in enumerate(doc.disks):
        cx = margin + size / 2 + index * (size + gap)
        cy = margin + size / 2
        scale = size / 2 / disk.radius
        yield (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
               f'r="{_fmt(size / 2)}" fill="none" stroke="#333333" '
               f'stroke-width="1.5"/>\n')
        for curve in disk.curves:
            for run in _curve_polylines(curve, disk.radius):
                pts = _points(cx, cy, scale, run)
                yield (f'<polyline points="{pts}" fill="none" '
                       f'stroke="#b3402a" stroke-width="1.2" '
                       f'stroke-dasharray="6 4"/>\n')
        for traj in disk.trajectories:
            flat = traj.samples.flat
            pts = _points(cx, cy, scale, zip(flat[1::3], flat[2::3]))
            yield (f'<polyline points="{pts}" fill="none" '
                   f'stroke="#1f4e79" stroke-width="1"/>\n')
        for (ax, ay), (ux, uy) in disk.arrows:
            px, py = cx + ax * scale, cy - ay * scale
            # screen-space direction (y axis flips)
            dx, dy = ux, -uy
            size_px = 5.0
            tip = (px + dx * size_px, py + dy * size_px)
            left = (px - dy * size_px * 0.6, py + dx * size_px * 0.6)
            right = (px + dy * size_px * 0.6, py - dx * size_px * 0.6)
            path = (f"M {_fmt(tip[0])} {_fmt(tip[1])} "
                    f"L {_fmt(left[0])} {_fmt(left[1])} "
                    f"L {_fmt(right[0])} {_fmt(right[1])} Z")
            yield f'<path d="{path}" fill="#1f4e79"/>\n'
        for (ex, ey), label in disk.equilibria:
            px, py = cx + ex * scale, cy - ey * scale
            yield (f'<path d="{_dot_path(px, py, 3.5)}" '
                   f'fill="#111111"><title>{label}</title></path>\n')
        caption = f"({disk.vars[0]}, {disk.vars[1]})  radius {_fmt(disk.radius)}"
        yield (f'<text x="{_fmt(cx)}" y="{_fmt(margin + size + 22)}" '
               f'font-family="sans-serif" font-size="13" '
               f'text-anchor="middle" fill="#333333">{caption}</text>\n')
    yield "</svg>\n"


def render_svg(doc: AtlasDocument) -> bytes:
    """The whole SVG of ``svg_pieces``, as UTF-8 bytes."""
    return "".join(svg_pieces(doc)).encode("utf-8")


# One (t, x, y) row of a trajectory's "samples" as json.dumps(...,
# indent=2) writes it at that depth. json writes a finite float as its
# repr, and every sample is finite.
_ROW = ("[\n              %r,\n              %r,\n"
        "              %r\n            ]")


def json_pieces(doc: AtlasDocument):
    """The document's JSON, ``json.dumps(document, indent=2)`` and a
    newline, in pieces.

    ``json`` writes a skeleton of the document whose trajectories hold
    null in place of their samples; each trajectory's rows are then
    formatted from its packed floats, one trajectory at a time.
    """
    skeleton = {
        "schema": 1,
        "size": _SIZE,
        "disks": [{
            "chart": disk.chart.value,
            "vars": list(disk.vars),
            "radius": disk.radius,
            "trajectories": [{"chart": disk.chart.value,
                              "termination": t.termination,
                              "samples": None}
                             for t in disk.trajectories],
            "equilibria": [{"point": [x, y], "label": label}
                           for (x, y), label in disk.equilibria],
            "arrows": [{"at": [x, y], "direction": [ux, uy]}
                       for (x, y), (ux, uy) in disk.arrows],
            "curves": [c.to_json_dict() for c in disk.curves],
        } for disk in doc.disks],
        "provenance": doc.provenance,
    }
    # json escapes every quote inside a string, so this text comes only
    # from the trajectories, one each
    head, *tails = json.dumps(skeleton, indent=2).split('"samples": null')
    yield head
    runs = (t for disk in doc.disks for t in disk.trajectories)
    for traj, tail in zip(runs, tails):
        rows = ",\n            ".join([_ROW] * len(traj.samples))
        yield '"samples": [\n            ' + rows % tuple(traj.samples.flat)
        yield "\n          ]" + tail
    yield "\n"
