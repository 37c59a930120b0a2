"""Two-disk phase portraits: building the atlas document and rendering it.

A portrait pairs a disk in the original plane with a disk in the partner
plane. Chosen with r1*r2 >= 4, the two disks jointly cover the whole
sphere, the second disk supplying a neighborhood of the infinitely
remote point that the first one cannot show.
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
from array import array
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import accumulate

from .analyze import origin_status
from .charts import AT_INFINITY, Chart, Circle, Line, Point, map_curve
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
    return 2 * math.sqrt(float((2 - eps) / eps))


@dataclass(frozen=True)
class AtlasConfig:
    """Knobs for atlas assembly.

    Disk sizes come from eps1/eps2 unless explicit radii are given.
    Curve markers annotate known cycles or separatrices: each entry is
    (disk, descriptor) with disk 1 for the original plane and 2 for the
    partner plane; the marker is also drawn as its image in the other
    disk, and circle markers contribute two extra seeds bracketing the
    circle.
    """

    eps1: Fraction = Fraction(1, 5)
    eps2: Fraction = Fraction(1, 5)
    radius1: float | None = None
    radius2: float | None = None
    rays: int = 8
    rings: int = 3
    extra_seeds: tuple = ()   # (disk, (x, y)) pairs
    markers: tuple = ()       # (disk, Circle | Line | Point) pairs
    integrator: IntegratorConfig = IntegratorConfig(max_time=12.0)
    size: int = 420

    def __post_init__(self):
        if self.rays < 0 or self.rings < 0:
            raise ValueError("seed grid counts cannot be negative")
        if self.size < 64:
            raise ValueError("render size below 64 px is unreadable")
        for which in ("radius1", "radius2"):
            value = getattr(self, which)
            if value is not None and value <= 0:
                raise ValueError(f"{which} must be positive")
        for disk, _ in tuple(self.extra_seeds) + tuple(self.markers):
            if disk not in (1, 2):
                raise ValueError(f"disk index must be 1 or 2: {disk}")

    def radii(self) -> tuple[float, float]:
        r1 = self.radius1 if self.radius1 is not None else disk_radius(self.eps1)
        r2 = self.radius2 if self.radius2 is not None else disk_radius(self.eps2)
        if r1 * r2 < 4:
            raise ValueError(
                f"disks of radii {r1} and {r2} leave a gap around the "
                "infinitely remote point (need r1*r2 >= 4)")
        return r1, r2

    def config_hash(self) -> str:
        blob = json.dumps({
            "eps1": str(self.eps1), "eps2": str(self.eps2),
            "radius1": self.radius1, "radius2": self.radius2,
            "rays": self.rays, "rings": self.rings,
            "extra_seeds": [[d, [float(x), float(y)]]
                            for d, (x, y) in self.extra_seeds],
            "markers": [[d, c.to_json_dict()] for d, c in self.markers],
            "integrator": asdict(self.integrator),
            "size": self.size,
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

    def to_json_dict(self) -> dict:
        return {
            "chart": self.chart.value,
            "vars": list(self.vars),
            "radius": self.radius,
            "trajectories": [t.to_json_dict() for t in self.trajectories],
            "equilibria": [{"point": [x, y], "label": label}
                           for (x, y), label in self.equilibria],
            "arrows": [{"at": [x, y], "direction": [ux, uy]}
                       for (x, y), (ux, uy) in self.arrows],
            "curves": [c.to_json_dict() for c in self.curves],
        }


@dataclass
class AtlasDocument:
    """The ordered disk pair: the original plane's disk always first."""

    disks: tuple
    provenance: dict
    size: int = 420

    def to_json_dict(self) -> dict:
        return {"schema": 1,
                "size": self.size,
                "disks": [d.to_json_dict() for d in self.disks],
                "provenance": self.provenance}


def _clip_exit(traj: Trajectory, radius: float, system: DiffSystem,
               sign: float) -> None:
    """Pull an overshooting final sample back onto the disk boundary.

    Its velocity becomes the field there times ``sign``; -1.0 negates it
    exactly, as the time-reversed field the integrator ran on does.
    """
    if traj.termination != "exited-outer-disk" or len(traj.samples) < 2:
        return
    t0, x0, y0 = traj.samples[-2]
    t1, x1, y1 = traj.samples[-1]
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
    x, y = x0 + s * dx, y0 + s * dy
    traj.samples[-1] = (t0 + s * (t1 - t0), x, y)
    fx, fy = field_eval(system, (x, y))
    traj.velocities[-2:] = array("d", (sign * fx, sign * fy))


def _mid_arc_arrow(traj: Trajectory):
    """Arrow at the sample nearest half the polyline's arc length."""
    pts = [(x, y) for _, x, y in traj.samples]
    if len(pts) < 3:
        return None
    lens = list(accumulate(map(math.dist, pts[1:], pts), initial=0.0))
    total = lens[-1]
    if total == 0:
        return None
    idx = min(range(1, len(pts) - 1), key=lambda i: abs(lens[i] - total / 2))
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


def _image_curve(curve):
    image = map_curve(curve)
    if image is AT_INFINITY or isinstance(image, Point):
        return None
    return image


def _run(job) -> Trajectory:
    """One seed run: integrate, then clip the exit onto the disk."""
    system, seed, icfg, direction, chart, radius, sign = job
    traj = integrate(system, seed, icfg, direction=direction, chart=chart)
    _clip_exit(traj, radius, system, sign)
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
    """The forked child: run the share in order and send, as one pickle,
    the leading runs that succeeded. Stops at the first failing run, and
    between runs once the parent is gone. Never returns."""
    try:
        os.close(read_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        sent = []
        for i in share:
            if os.getppid() != parent:
                break
            try:
                sent.append(_run(jobs[i]))
            except (ArithmeticError, ValueError):
                break
        with open(write_fd, "wb") as pipe:
            pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _run_split(jobs) -> dict:
    """The runs that one forked child and this process deliver, by index;
    a run that fails, or that the child never sends, is missing.

    The child takes the runs with index i % 4 in (1, 2), so each side
    gets about half the forward and half the backward runs. This process
    runs the rest, stopping at its first failure, then reads the child's
    pipe to its end. It kills and reaps the child before it returns or
    raises, whatever it raises. The child is a fork, not a fresh
    interpreter: it inherits the loaded library and the runs, so nothing
    is imported or sent to it. A fresh interpreter's start-up alone costs
    more than a typical atlas.
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
                try:
                    done[i] = _run(jobs[i])
                except (ArithmeticError, ValueError):
                    break
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
    except (pickle.UnpicklingError, EOFError):  # the child died first
        sent = []
    done.update(zip(share, sent))
    return done


def _run_all(jobs) -> list:
    """Every run's trajectory, as a serial loop gives them: a failing
    run raises what it raises there, and runs after it do not count."""
    done = _run_split(jobs) if _may_fork(len(jobs)) else {}
    return [done[i] if i in done else _run(job) for i, job in enumerate(jobs)]


def build_atlas(sys: DiffSystem, cfg: AtlasConfig | None = None) -> AtlasDocument:
    """Assemble the two-disk portrait document for a system.

    Seeds a polar grid in each disk (plus configured extras), runs each
    seed forward and backward clipped to its disk, and marks chart
    origins that are equilibria; the partner disk's origin stands for
    the original plane's infinitely remote point. The runs of both disks
    are split between this process and one forked child when a second
    CPU is free; the document does not depend on the split.
    """
    cfg = cfg or AtlasConfig()
    r1, r2 = cfg.radii()
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
            own = marker if d == disk_no else _image_curve(marker)
            if isinstance(own, (Circle, Line)):
                curves.append(own)
                if d == disk_no and isinstance(own, Circle):
                    seeds += _circle_bracket_seeds(own)
        icfg = replace(cfg.integrator, outer_radius=radius)
        first = len(jobs)
        jobs += [(system, seed, icfg, direction, chart, radius, sign)
                 for seed in seeds if math.hypot(*seed) < radius
                 for direction, sign in (("forward", 1.0), ("backward", -1.0))]
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

    runs = _run_all(jobs)
    for disk, (first, end) in zip(disks, ranges):
        disk.trajectories = [t for t in runs[first:end] if len(t.samples) >= 2]
        disk.arrows = [a for a in map(_mid_arc_arrow, disk.trajectories) if a]

    provenance = {
        "system": sys.to_json_dict(),
        "conjugation": result.to_json_dict(),
        "config_hash": cfg.config_hash(),
    }
    return AtlasDocument(disks=tuple(disks), provenance=provenance,
                         size=cfg.size)


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


def render_svg(doc: AtlasDocument) -> bytes:
    """Deterministic SVG for a document: two disks side by side.

    Trajectories are polylines with one mid-arc arrowhead, equilibria
    are filled dots, overlay curves are dashed. The only <circle>
    elements are the two disk boundaries.
    """
    size = doc.size
    margin = 40
    gap = 60
    width = 2 * size + 2 * margin + gap
    height = size + 2 * margin + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for index, disk in enumerate(doc.disks):
        cx = margin + size / 2 + index * (size + gap)
        cy = margin + size / 2
        scale = size / 2 / disk.radius
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                     f'r="{_fmt(size / 2)}" fill="none" stroke="#333333" '
                     f'stroke-width="1.5"/>')
        for curve in disk.curves:
            for run in _curve_polylines(curve, disk.radius):
                pts = _points(cx, cy, scale, run)
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="#b3402a" stroke-width="1.2" '
                             f'stroke-dasharray="6 4"/>')
        for traj in disk.trajectories:
            pts = _points(cx, cy, scale,
                          ((x, y) for _, x, y in traj.samples))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="#1f4e79" stroke-width="1"/>')
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
            parts.append(f'<path d="{path}" fill="#1f4e79"/>')
        for (ex, ey), label in disk.equilibria:
            px, py = cx + ex * scale, cy - ey * scale
            parts.append(f'<path d="{_dot_path(px, py, 3.5)}" '
                         f'fill="#111111"><title>{label}</title></path>')
        caption = f"({disk.vars[0]}, {disk.vars[1]})  radius {_fmt(disk.radius)}"
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(margin + size + 22)}" '
                     f'font-family="sans-serif" font-size="13" '
                     f'text-anchor="middle" fill="#333333">{caption}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
