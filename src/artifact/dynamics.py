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
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .charts import Chart, transition, transition_jacobian
from .conjugate import ConjugationResult, DiffSystem
from .poly import BiPoly


class StepUnderflow(ArithmeticError):
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
    """Samples of one integrated orbit and why the integration stopped.

    ``velocities`` holds the field (signed like time) at each sample as
    (vx, vy) pairs; ``accepted`` and ``rejected`` count the integrator's
    trial steps. All three are deterministic but stay out of
    ``to_json_dict``, so output documents do not change with them.
    """

    chart: Chart
    samples: list  # (t, x, y) triples, times strictly increasing
    termination: str
    accepted: int = 0
    rejected: int = 0
    velocities: array = field(default_factory=lambda: array("d"))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times (n,), points (n, 2) and velocities (n, 2) as float arrays."""
        txy = np.array(self.samples, dtype=float)
        return txy[:, 0], txy[:, 1:], np.array(self.velocities).reshape(-1, 2)

    def to_json_dict(self) -> dict:
        return {"chart": self.chart.value,
                "termination": self.termination,
                "samples": [[t, x, y] for t, x, y in self.samples]}


_TERMS_PER_LINE = 64


def _compile(sys: DiffSystem, sign: float = 1.0):
    """The field as a float function (x, y) -> (fx, fy).

    The function is straight-line code built with ``exec``. Each power
    ``x**e`` and ``y**e`` is computed once, and each component is
    ``0.0 + c * x**i * y**j + ...`` in term order, the order in which the
    exact core built the polynomial, so it equals that loop over the
    terms bit for bit (a factor ``x**0`` is 1.0 and left out,
    ``x**1`` is ``x``). The source holds only generated names and integer
    exponents; the coefficients are bound in its namespace. ``sign`` -1
    reverses time. The function may raise OverflowError or return
    non-finite values; ``_finite`` turns both into NumericOverflow. A
    coefficient that does not fit a float raises NumericOverflow here.
    """
    names: dict = {}
    powers = set()
    sums = []
    for target, var, poly in zip(("fx", "fy"), sys.vars, sys.rhs):
        terms = []
        for (i, j), c in poly.terms.items():
            name = f"c{len(names)}"
            try:
                names[name] = float(c)
            except OverflowError:
                monomial = BiPoly(sys.vars, {(i, j): Fraction(1)}).to_text()
                raise NumericOverflow(
                    f"the coefficient of {monomial} in d{var}/dt does not "
                    f"fit a float") from None
            factors = [name]
            for v, e in (("x", i), ("y", j)):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}{e}")
                    powers.add((v, e))
            terms.append(" * ".join(factors))
        # a bounded number of terms per line: one chain of + nests as
        # deep as it is long, and the compiler's recursion limit stops
        # it at about 3000 terms on CPython 3.11 (fewer on some builds)
        for at in range(0, max(len(terms), 1), _TERMS_PER_LINE):
            head = "0.0" if at == 0 else target
            chunk = [head] + terms[at:at + _TERMS_PER_LINE]
            sums.append(f"    {target} = {' + '.join(chunk)}")
    neg = "" if sign > 0 else "-"
    source = "\n".join(
        ["def field(x, y):"]
        + [f"    {v}{e} = {v} ** {e}" for v, e in sorted(powers)]
        + sums + [f"    return {neg}fx, {neg}fy"])
    exec(source, names)
    return names["field"]


def _field(sys: DiffSystem, sign: float = 1.0):
    """``_compile(sys, sign)``, built at most once per system and sign."""
    fields = sys._float_fields
    if sign not in fields:
        fields[sign] = _compile(sys, sign)
    return fields[sign]


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
    return _finite(_field(sys), float(point[0]), float(point[1]))


class DormandPrince54:
    """Embedded Runge-Kutta 5(4) pair (Dormand & Prince 1980).

    Classic coefficients: seven stages, fifth-order propagation with an
    embedded fourth-order error estimate (E is the difference of the two
    weight rows). The last stage evaluates the field at the step's new
    point, since its row of A equals the propagation weights B ("first
    same as last", FSAL): it is the first stage of the next step, so a
    trial step costs six field evaluations. ``_rk_step`` spells these
    coefficients out as straight-line code.
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


# Butcher's names, numbered like the stages k1..k7. The fused step leaves
# out the zero weights b2, b7 and e2; the last row of A is B, so the last
# stage is taken at the new point.
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), _) = DormandPrince54.A
_B1, _, _B3, _B4, _B5, _B6, _ = DormandPrince54.B
_E1, _, _E3, _E4, _E5, _E6, _E7 = DormandPrince54.E


def _rk_step(f, x, y, h, k1x, k1y):
    """One fused trial step from (x, y) with first stage (k1x, k1y).

    Returns the new point, the embedded error estimate and the field at
    the new point (the next step's first stage), or None when a stage
    blows past finite floats; the caller treats that as a rejected step,
    exactly like a failed error test.

    With a field from ``_compile`` the result equals a loop of ``sum``
    over the whole tableau bit for bit. Leaving out the zero weights and
    the 0 that ``sum`` starts from changes no bit: the field's zeros all
    carry one sign, and the weights of each sum have both signs. A
    non-finite second stage rejects the step, as in that loop, where a
    zero weight turns it into NaN.
    """
    try:
        k2x, k2y = f(x + h * (_A21 * k1x), y + h * (_A21 * k1y))
        k3x, k3y = f(x + h * (_A31 * k1x + _A32 * k2x),
                     y + h * (_A31 * k1y + _A32 * k2y))
        k4x, k4y = f(x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
                     y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y))
        k5x, k5y = f(x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x
                              + _A54 * k4x),
                     y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y
                              + _A54 * k4y))
        k6x, k6y = f(x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x
                              + _A64 * k4x + _A65 * k5x),
                     y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y
                              + _A64 * k4y + _A65 * k5y))
        nx = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x
                      + _B6 * k6x)
        ny = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y
                      + _B6 * k6y)
        k7x, k7y = f(nx, ny)
        ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                  + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                  + _E6 * k6y + _E7 * k7y)
    except OverflowError:
        return None
    isfinite = math.isfinite
    if (isfinite(nx) and isfinite(ny) and isfinite(ex) and isfinite(ey)
            and isfinite(k2x) and isfinite(k2y)):
        return nx, ny, ex, ey, k7x, k7y
    return None


def integrate(sys: DiffSystem, start, cfg: IntegratorConfig | None = None,
              direction: str = "forward", chart: Chart = Chart.N
              ) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) trajectory from a starting point.

    Stops at the configured time limit, on leaving the outer disk, on
    entering the origin guard, or when the field magnitude drops below
    the absolute tolerance (an equilibrium). A trajectory that runs to
    the time limit and demonstrably returns to its start is relabeled
    "closed".

    The field is compiled once per system and direction and kept on the
    system. The step is FSAL: the last stage of an accepted step is the
    field at the new point, which serves as the equilibrium test there
    and as the next step's first stage, and a rejected step keeps its
    first stage for the retry. So a trial step costs six field
    evaluations, plus one at the start. The returned trajectory counts
    accepted and rejected steps and keeps the field at every sample.
    """
    cfg = cfg or IntegratorConfig()
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward: {direction}")
    f = _field(sys, 1.0 if direction == "forward" else -1.0)
    x, y = float(start[0]), float(start[1])
    if math.hypot(x, y) > cfg.outer_radius:
        raise ValueError("start lies outside the outer disk")
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_step, max_time = cfg.max_step, cfg.max_time
    t = 0.0
    h = min(cfg.initial_step, max_step, max_time)
    samples = [(0.0, x, y)]
    accepted = rejected = 0
    termination = None
    kx, ky = _finite(f, x, y)
    velocities = [kx, ky]  # a list appends faster than an array
    if math.hypot(kx, ky) < abs_tol:
        termination = "converged-to-equilibrium"
    while termination is None:
        h = min(h, max_step, max_time - t)
        trial = _rk_step(f, x, y, h, kx, ky)
        if trial is not None:
            nx, ny, ex, ey, nkx, nky = trial
            sx = abs_tol + rel_tol * max(abs(x), abs(nx))
            sy = abs_tol + rel_tol * max(abs(y), abs(ny))
            try:
                err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2)
            except OverflowError:
                raise NumericOverflow(
                    f"error estimate overflowed near t={t}") from None
        if trial is None or err > 1.0:
            rejected += 1
            h *= 0.2 if trial is None else max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepUnderflow(f"step collapsed near t={t}")
            continue
        accepted += 1
        t += h
        x, y, kx, ky = nx, ny, nkx, nky
        samples.append((t, x, y))
        velocities.append(kx)
        velocities.append(ky)
        radius = math.hypot(x, y)
        if radius <= cfg.origin_guard:
            termination = "entered-origin-guard"
            break
        if radius >= cfg.outer_radius:
            termination = "exited-outer-disk"
            break
        # finite: the last stage enters the error estimate
        if math.hypot(kx, ky) < abs_tol:
            termination = "converged-to-equilibrium"
            break
        if t >= max_time * (1 - 1e-12):
            termination = "time-limit"
            break
        h *= min(5.0, 0.9 * (err ** -0.2 if err > 0 else 5.0))
    traj = Trajectory(chart, samples, termination, accepted, rejected,
                      array("d", velocities))
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
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _truncate_to_length(pts: np.ndarray, lens: np.ndarray, target: float):
    """Initial sub-polyline of a given arc length, and its ``lens``."""
    if lens[-1] <= target:
        return pts, lens
    stop = max(1, int(np.searchsorted(lens, target)))
    a, b = pts[stop - 1], pts[stop]
    span = lens[stop] - lens[stop - 1]
    frac = (target - lens[stop - 1]) / span if span else 0.0
    pts = np.concatenate([pts[:stop], (a + frac * (b - a))[None, :]])
    # a cumsum adds left to right: the new lengths extend a prefix
    last = _cumulative_lengths(pts[-2:])[-1]
    return pts, np.append(lens[:stop], lens[stop - 1] + last)


_DISTANCE_SAMPLES = 4096  # arc-length grid intervals of hausdorff_distance


def hausdorff_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Arc-length-aligned upper bound on the symmetric Hausdorff distance.

    Both curves are resampled at a shared grid of arc lengths, trimming
    the longer to the common length first; the result is the largest
    pointwise gap. For curves tracing the same path from the same end
    this equals the Hausdorff distance of the point sets.
    """
    lp, lq = _cumulative_lengths(p), _cumulative_lengths(q)
    common = min(lp[-1], lq[-1])
    p, lp = _truncate_to_length(p, lp, common)
    q, lq = _truncate_to_length(q, lq, common)
    grid = np.linspace(0.0, common, _DISTANCE_SAMPLES + 1)
    gaps = np.column_stack([np.interp(grid, lp, p[:, k])
                            - np.interp(grid, lq, q[:, k]) for k in (0, 1)])
    return float(np.linalg.norm(gaps, axis=1).max())


# three-node Gauss-Legendre rule on [0, 1], exact for quintics
_GAUSS_NODES = (0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10)
_GAUSS_WEIGHTS = (5 / 18, 8 / 18, 5 / 18)


def _hermite(p0, v0, p1, v1, h, theta):
    """Points and velocities at the fractions ``theta`` of cubic Hermite
    steps of length ``h`` from (p0, v0) to (p1, v1); p0 exactly at theta
    = 0. ``h`` and ``theta`` broadcast against the points' (x, y) axis.
    """
    chord = p1 - p0
    c2 = 3 * chord - h * (2 * v0 + v1)
    c3 = h * (v0 + v1) - 2 * chord
    return (p0 + theta * (h * v0 + theta * (c2 + theta * c3)),
            v0 + theta * (2 * c2 + 3 * theta * c3) / h)


def conjugacy_residual(sys: DiffSystem, result: ConjugationResult, start,
                       cfg: IntegratorConfig | None = None) -> float:
    """How far the mapped trajectory strays from the partner's own.

    Pushes every sample of the system's trajectory and its velocity (the
    integrator's) through the transition and its Jacobian. The partner
    runs along the mapped orbit in its own time, dtau = |q|^(-2m) dt,
    which Gauss-Legendre sums over each cubic Hermite step of the mapped
    curve. The partner's trajectory from the mapped start is read at
    those times through its own Hermite steps, up to its last time.
    Returns the largest gap across the partner's velocity: a drift along
    the orbit is only a timing error, and the conjugacy matches orbits.
    """
    cfg = cfg or IntegratorConfig()
    # cap the step so cubic interpolation between samples is far more
    # accurate than the distances being measured
    cfg = replace(cfg, max_step=min(cfg.max_step, 0.02),
                  initial_step=min(cfg.initial_step, 0.02))
    t, pts, vel = integrate(sys, start, cfg).arrays()
    # only ever the final sample, on a guard stop
    kept = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] > cfg.origin_guard ** 2
    if not kept.any():
        raise ValueError("the whole trajectory sat inside the origin guard")
    (x, y), (vx, vy) = pts[kept].T, vel[kept].T
    (j00, j01), (j10, j11) = transition_jacobian(x, y)
    q = np.column_stack(transition((x, y)))
    w = np.column_stack([j00 * vx + j01 * vy, j10 * vx + j11 * vy])
    h = np.diff(t[kept])[:, None]
    rate = 0.0
    for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        at, _ = _hermite(q[:-1], w[:-1], q[1:], w[1:], h, node)
        inverse = 1.0 / (at[:, 0] * at[:, 0] + at[:, 1] * at[:, 1])
        for _ in range(result.m):  # products: no pow, whose rounding varies
            weight = weight * inverse
        rate = rate + weight
    tau = np.concatenate([[0.0], np.cumsum(h[:, 0] * rate)])
    q0 = transition((float(start[0]), float(start[1])))
    tp, r, g = integrate(result.conjugate, q0, cfg, chart=Chart.S).arrays()
    if len(tp) < 2:  # the partner sits at an equilibrium
        return 0.0
    within = tau <= tp[-1]
    tau, q = tau[within], q[within]
    i = np.clip(np.searchsorted(tp, tau, side="right") - 1, 0, len(tp) - 2)
    step = (tp[i + 1] - tp[i])[:, None]
    at, v = _hermite(r[i], g[i], r[i + 1], g[i + 1], step,
                     (tau - tp[i])[:, None] / step)
    gap = q - at
    speed2 = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    along = np.divide(gap[:, 0] * v[:, 0] + gap[:, 1] * v[:, 1], speed2,
                      out=np.zeros_like(speed2), where=speed2 > 0)
    gap = gap - along[:, None] * v
    return float(np.sqrt(gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]).max())
