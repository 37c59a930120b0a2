"""Trajectory integration and numeric checks on orbit correspondence.

Integration always runs on a polynomial field (for the partner system
that is the reduced pair, smooth at the chart origin); the positive
factor (u^2+v^2)^m only reparametrizes time away from the origin, so
orbits integrated here are the orbits the geometry talks about. An
origin guard stops any trajectory heading into the chart origin, which
corresponds to passing through the other plane's infinitely remote
point and must be continued in the other chart instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .charts import Chart, transition, transition_jacobian
from .conjugate import ConjugationResult, DiffSystem


class StepUnderflow(RuntimeError):
    """Adaptive step size collapsed; the field is too stiff or singular."""


class NumericOverflow(ArithmeticError):
    """Field evaluation or state left the range of finite floats."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    initial_step: float = 1e-3
    max_step: float = 0.25
    max_time: float = 40.0
    outer_radius: float = 100.0
    origin_guard: float = 1e-6

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.origin_guard < self.outer_radius:
            raise ValueError("origin guard must sit inside the outer radius")
        if self.max_time <= 0 or self.max_step <= 0 or self.initial_step <= 0:
            raise ValueError("time and step bounds must be positive")


TERMINATIONS = ("time-limit", "exited-outer-disk", "entered-origin-guard",
                "converged-to-equilibrium", "closed")


@dataclass
class Trajectory:
    chart: Chart
    samples: list  # (t, x, y) triples, times strictly increasing
    termination: str

    def points(self) -> np.ndarray:
        return np.array([(x, y) for _, x, y in self.samples], dtype=float)

    def to_json_dict(self) -> dict:
        return {"chart": self.chart.value,
                "termination": self.termination,
                "samples": [[t, x, y] for t, x, y in self.samples]}


def _compile(sys: DiffSystem, sign: float = 1.0):
    """The field as a float function (x, y) -> (fx, fy), compiled once.

    ``sign`` -1 reverses time. The function may raise OverflowError or
    return non-finite values; ``_finite`` turns both into NumericOverflow.
    """
    px, py = (tuple((float(c), i, j) for (i, j), c in poly.terms.items())
              for poly in sys.rhs)

    def field(x: float, y: float) -> tuple[float, float]:
        fx = 0.0
        for c, i, j in px:
            fx += c * x**i * y**j
        fy = 0.0
        for c, i, j in py:
            fy += c * x**i * y**j
        return sign * fx, sign * fy

    return field


def _finite(field, x: float, y: float) -> tuple[float, float]:
    """A compiled field at a point; non-finite values are an error."""
    try:
        fx, fy = field(x, y)
    except OverflowError:
        raise NumericOverflow(f"field not finite at ({x}, {y})") from None
    if math.isfinite(fx) and math.isfinite(fy):
        return fx, fy
    raise NumericOverflow(f"field not finite at ({x}, {y})")


def field_eval(sys: DiffSystem, point) -> tuple[float, float]:
    """Floating evaluation of the field; non-finite values are an error."""
    return _finite(_compile(sys), float(point[0]), float(point[1]))


class DormandPrince54:
    """Embedded Runge-Kutta 5(4) pair.

    Classic Dormand-Prince coefficients: seven stages, fifth-order
    propagation with an embedded fourth-order error estimate (E is the
    difference of the two weight rows). The last stage evaluates at the
    step endpoint with the propagation weights.
    """

    C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    A = (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
    B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
    E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def _rk_step(f, x, y, h):
    """One trial step: new point plus embedded error estimate.

    Returns None when a stage blows past finite floats; the caller
    treats that as a rejected step, exactly like a failed error test.
    """
    try:
        ks = []
        for row in DormandPrince54.A:
            ax = x + h * sum(w * k[0] for w, k in zip(row, ks))
            ay = y + h * sum(w * k[1] for w, k in zip(row, ks))
            ks.append(f(ax, ay))
        nx = x + h * sum(w * k[0] for w, k in zip(DormandPrince54.B, ks))
        ny = y + h * sum(w * k[1] for w, k in zip(DormandPrince54.B, ks))
        ex = h * sum(w * k[0] for w, k in zip(DormandPrince54.E, ks))
        ey = h * sum(w * k[1] for w, k in zip(DormandPrince54.E, ks))
    except OverflowError:
        return None
    if all(map(math.isfinite, (nx, ny, ex, ey))):
        return nx, ny, ex, ey
    return None


def integrate(sys: DiffSystem, start, cfg: IntegratorConfig | None = None,
              direction: str = "forward", chart: Chart = Chart.N
              ) -> Trajectory:
    """Adaptive trajectory from a starting point.

    Stops at the configured time limit, on leaving the outer disk, on
    entering the origin guard, or when the field magnitude drops below
    the absolute tolerance (an equilibrium). A trajectory that runs to
    the time limit and demonstrably returns to its start is relabeled
    "closed".
    """
    cfg = cfg or IntegratorConfig()
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward: {direction}")
    f = _compile(sys, 1.0 if direction == "forward" else -1.0)
    x, y = float(start[0]), float(start[1])
    if math.hypot(x, y) > cfg.outer_radius:
        raise ValueError("start lies outside the outer disk")
    t = 0.0
    h = min(cfg.initial_step, cfg.max_step, cfg.max_time)
    samples = [(0.0, x, y)]
    termination = None
    fx, fy = _finite(f, x, y)
    if math.hypot(fx, fy) < cfg.abs_tol:
        termination = "converged-to-equilibrium"
    while termination is None:
        h = min(h, cfg.max_step, cfg.max_time - t)
        trial = _rk_step(f, x, y, h)
        if trial is not None:
            nx, ny, ex, ey = trial
            sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(nx))
            sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(ny))
            try:
                err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2)
            except OverflowError:
                raise NumericOverflow(
                    f"error estimate overflowed near t={t}") from None
        if trial is None or err > 1.0:
            h *= 0.2 if trial is None else max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepUnderflow(f"step collapsed near t={t}")
            continue
        t += h
        x, y = nx, ny
        samples.append((t, x, y))
        radius = math.hypot(x, y)
        if radius <= cfg.origin_guard:
            termination = "entered-origin-guard"
            break
        if radius >= cfg.outer_radius:
            termination = "exited-outer-disk"
            break
        fx, fy = _finite(f, x, y)
        if math.hypot(fx, fy) < cfg.abs_tol:
            termination = "converged-to-equilibrium"
            break
        if t >= cfg.max_time * (1 - 1e-12):
            termination = "time-limit"
            break
        h *= min(5.0, 0.9 * (err ** -0.2 if err > 0 else 5.0))
    traj = Trajectory(chart=chart, samples=samples, termination=termination)
    if termination == "time-limit" and len(samples) >= 10:
        # loose enough to absorb the sag of sampled chords on a curved orbit
        tol = 1e-3 * max(1.0, math.hypot(samples[0][1], samples[0][2]))
        if detect_closed(traj, tol):
            traj.termination = "closed"
    return traj


def detect_closed(traj: Trajectory, tol: float) -> bool:
    """Does the trajectory come back to its start?

    True when, after first leaving a 2*tol neighborhood of the start,
    some later segment passes within tol of the start while heading
    within 5 degrees of the initial direction.
    """
    if len(traj.samples) < 10:
        raise ValueError("closure detection needs at least 10 samples")
    pts = [(sx, sy) for _, sx, sy in traj.samples]
    x0, y0 = pts[0]
    d0 = None
    for xx, yy in pts[1:]:
        norm = math.hypot(xx - x0, yy - y0)
        if norm > 0:
            d0 = ((xx - x0) / norm, (yy - y0) / norm)
            break
    if d0 is None:
        return False  # never moved
    cos_cap = math.cos(math.radians(5.0))
    left = False
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        if not left:
            if math.hypot(bx - x0, by - y0) > 2 * tol:
                left = True
            continue
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


def _cumulative_lengths(pts: np.ndarray) -> np.ndarray:
    if len(pts) < 2:
        return np.zeros(len(pts))
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _truncate_to_length(pts: np.ndarray, target: float) -> np.ndarray:
    """Initial sub-polyline of a given arc length (endpoint interpolated)."""
    lens = _cumulative_lengths(pts)
    if lens[-1] <= target:
        return pts
    stop = int(np.searchsorted(lens, target))
    head = pts[:stop]
    a, b = pts[stop - 1], pts[stop]
    span = lens[stop] - lens[stop - 1]
    frac = (target - lens[stop - 1]) / span if span else 0.0
    tail = (a + frac * (b - a))[None, :]
    return np.concatenate([head, tail])


def _hermite_densify(pts: np.ndarray, times: np.ndarray, vels: np.ndarray,
                     turn_cap: float = 3e-4) -> np.ndarray:
    """Refine sampled curve points with cubic Hermite interpolation.

    Tangent vectors come from the field itself, so each integration step
    can be subdivided until the leftover chord sag is far below the
    distances being measured. Subdivision count per step follows the
    turning angle of the velocity across the step.
    """
    if len(pts) < 2:
        return pts
    out = [pts[:1]]
    for idx in range(len(pts) - 1):
        p0, p1 = pts[idx], pts[idx + 1]
        v0, v1 = vels[idx], vels[idx + 1]
        dt = times[idx + 1] - times[idx]
        n0, n1 = np.linalg.norm(v0), np.linalg.norm(v1)
        if n0 > 0 and n1 > 0:
            cosang = np.clip(np.dot(v0, v1) / (n0 * n1), -1.0, 1.0)
            turn = math.acos(cosang)
        else:
            turn = 0.0
        pieces = min(256, max(2, math.ceil(turn / turn_cap)))
        theta = np.linspace(0.0, 1.0, pieces + 1)[1:, None]
        h00 = 2 * theta**3 - 3 * theta**2 + 1
        h10 = theta**3 - 2 * theta**2 + theta
        h01 = -2 * theta**3 + 3 * theta**2
        h11 = theta**3 - theta**2
        out.append(h00 * p0 + h10 * dt * v0 + h01 * p1 + h11 * dt * v1)
    return np.concatenate(out)


def _resample_by_length(pts: np.ndarray, grid: np.ndarray) -> np.ndarray:
    lens = _cumulative_lengths(pts)
    return np.column_stack([np.interp(grid, lens, pts[:, 0]),
                            np.interp(grid, lens, pts[:, 1])])


def hausdorff_distance(p: np.ndarray, q: np.ndarray,
                       samples: int = 4096) -> float:
    """Symmetric Hausdorff distance between two curves.

    Both curves are resampled at a shared grid of arc lengths, trimming
    the longer to the common length first; the distance is the largest
    pointwise gap. For curves tracing the same path from the same end
    this equals the Hausdorff distance of the point sets; in general it
    bounds it from above.
    """
    common = min(_cumulative_lengths(p)[-1], _cumulative_lengths(q)[-1])
    p = _truncate_to_length(p, common)
    q = _truncate_to_length(q, common)
    grid = np.linspace(0.0, common, samples + 1)
    gaps = np.linalg.norm(_resample_by_length(p, grid)
                          - _resample_by_length(q, grid), axis=1)
    return float(gaps.max())


def conjugacy_residual(sys: DiffSystem, result: ConjugationResult, start,
                       cfg: IntegratorConfig | None = None) -> float:
    """How far the mapped trajectory strays from the partner's own.

    Integrates the system, pushes every sample through the transition
    map, integrates the partner system from the mapped start, and
    measures the symmetric Hausdorff distance between the two curves
    after Hermite densification. Time parametrizations differ by the
    positive factor (u^2+v^2)^m and are deliberately not compared;
    trajectories are aligned by arc length instead.
    """
    cfg = cfg or IntegratorConfig()
    # cap the step so cubic interpolation between samples is far more
    # accurate than the distances being measured
    cfg = replace(cfg, max_step=min(cfg.max_step, 0.02),
                  initial_step=min(cfg.initial_step, 0.02))
    first = integrate(sys, start, cfg)
    field = _compile(sys)
    guard2 = cfg.origin_guard ** 2
    mapped, mapped_vel, mapped_t = [], [], []
    for t, xx, yy in first.samples:
        if xx * xx + yy * yy <= guard2:
            continue  # only ever the final sample, on a guard stop
        fx, fy = _finite(field, xx, yy)
        (j00, j01), (j10, j11) = transition_jacobian(xx, yy)
        mapped.append(transition((xx, yy)))
        mapped_vel.append((j00 * fx + j01 * fy, j10 * fx + j11 * fy))
        mapped_t.append(t)
    if not mapped:
        raise ValueError("the whole trajectory sat inside the origin guard")
    q0 = transition((float(start[0]), float(start[1])))
    second = integrate(result.conjugate, q0, cfg, chart=Chart.S)
    b_pts = second.points()
    partner = _compile(result.conjugate)
    b_vel = np.array([_finite(partner, xx, yy)
                      for _, xx, yy in second.samples])
    b_t = np.array([t for t, _, _ in second.samples])
    a = _hermite_densify(np.array(mapped), np.array(mapped_t),
                         np.array(mapped_vel))
    b = _hermite_densify(b_pts, b_t, b_vel)
    return hausdorff_distance(a, b)
