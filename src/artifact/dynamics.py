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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from struct import pack

from .charts import transition, transition_jacobian
from .conjugate import ConjugationResult, DiffSystem
from .poly import BiPoly


class NumericOverflow(ArithmeticError):
    """A coefficient, or the field at a given point, is not a finite float."""


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
        # an infinite time limit never ends a trajectory, and NaN fails
        # every comparison below
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.origin_guard < self.outer_radius:
            raise ValueError("origin guard must sit inside the outer radius")
        if self.max_time <= 0 or self.max_step <= 0 or self.initial_step <= 0:
            raise ValueError("time and step bounds must be positive")


TERMINATIONS = ("time-limit", "exited-outer-disk", "entered-origin-guard",
                "converged-to-equilibrium", "step-underflow", "step-limit",
                "closed")

# trial steps (accepted plus rejected) after which a run ends "step-limit"
MAX_TRIAL_STEPS = 10_000


class Samples:
    """The samples of one run, packed in one ``array('d')`` as t, x, y,
    t, x, y, ... (``flat``), 24 bytes a sample.

    It reads as a sequence of (t, x, y) triples: ``len`` counts samples,
    an int index (negative ones too) gives one triple, and iteration
    gives each in order. Two are equal when their floats are. Readers of
    many samples work on ``flat`` itself.
    """

    __slots__ = ("flat",)

    def __init__(self, flat: array):
        self.flat = flat

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __getitem__(self, index: int) -> tuple[float, float, float]:
        count = len(self)
        if not -count <= index < count:
            raise IndexError("sample index out of range")
        at = 3 * (index % count)
        return tuple(self.flat[at:at + 3])

    def __iter__(self):
        floats = iter(self.flat)
        return zip(floats, floats, floats)

    def __eq__(self, other):
        if not isinstance(other, Samples):
            return NotImplemented
        return self.flat == other.flat

    def __reduce__(self):
        return Samples, (self.flat,)

    def __repr__(self) -> str:
        return f"Samples({self.flat!r})"


@dataclass
class Trajectory:
    """Samples of one integrated orbit and why the integration stopped.

    ``samples`` packs (t, x, y) at the start and after each accepted
    step, times strictly increasing. ``termination`` is one of
    ``TERMINATIONS``; ``integrate`` gives the first six, and only the
    atlas relabels a time-limit run "closed". ``velocities`` holds the
    field (signed like time) at each sample as (vx, vy) pairs in a run
    from ``integrate``; an atlas run keeps none. ``accepted`` and
    ``rejected`` count the integrator's trial steps. The velocities and
    both counts are deterministic but stay out of the atlas JSON, so
    output documents do not change with them.
    """

    samples: Samples
    termination: str
    accepted: int = 0
    rejected: int = 0
    velocities: array = field(default_factory=lambda: array("d"))


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
    trial step costs six field evaluations. ``integrate`` spells these
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


# Butcher's names, numbered like the stages k1..k7. The step in
# ``integrate`` leaves out the zero weights b2, b7 and e2; the last row of
# A is B, so the last stage is taken at the new point.
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), _) = DormandPrince54.A
_B1, _, _B3, _B4, _B5, _B6, _ = DormandPrince54.B
_E1, _, _E3, _E4, _E5, _E6, _E7 = DormandPrince54.E


def integrate(sys: DiffSystem, start, cfg: IntegratorConfig | None = None,
              direction: str = "forward") -> Trajectory:
    """Adaptive Dormand-Prince 5(4) trajectory from a starting point.

    Stops at the configured time limit, on leaving the outer disk, on
    entering the origin guard, when the field magnitude drops below the
    absolute tolerance (an equilibrium), when a rejected step leaves h
    below 1e-14 * max(1, t), or after ``MAX_TRIAL_STEPS`` trial steps; the
    termination names which, and the atlas asks whether a run closes up.
    Raises NumericOverflow when a coefficient or the start field is not finite.

    The field is compiled once per system and direction and kept on the
    system. The step is FSAL: the last stage of an accepted step is the
    field at the new point, which serves as the equilibrium test there
    and as the next step's first stage, and a rejected step keeps its
    first stage for the retry. So a trial step costs six field
    evaluations, plus one at the start. The returned trajectory counts
    accepted and rejected steps and keeps the field at every sample.

    The whole step runs in this one frame, spelled out as straight-line
    code. With a field from ``_compile`` it equals a loop of ``sum`` over
    the whole tableau bit for bit: leaving out the zero weights and the 0
    that ``sum`` starts from changes no bit, since the field's zeros all
    carry one sign and the weights of each sum have both signs. A stage
    or error norm that overflows, or a stage that is not finite, rejects
    the step like a failed error test; a non-finite second stage does
    too, as in that loop, where a zero weight turns it into NaN. Step
    control compares where it could call ``min``, ``max`` and ``abs``, and
    each comparison picks the float the builtin would, the first of
    equals included.
    """
    cfg = cfg or IntegratorConfig()
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward: {direction}")
    f = _field(sys, 1.0 if direction == "forward" else -1.0)
    x, y = float(start[0]), float(start[1])
    hypot, isfinite, sqrt = math.hypot, math.isfinite, math.sqrt
    outer, guard = cfg.outer_radius, cfg.origin_guard
    if hypot(x, y) > outer:
        raise ValueError("start lies outside the outer disk")
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_step, max_time = cfg.max_step, cfg.max_time
    t_end = max_time * (1 - 1e-12)
    t = 0.0
    h = min(cfg.initial_step, max_step, max_time)
    samples = [0.0, x, y]  # t, x, y flat; lists grow faster than arrays
    accepted = rejected = 0
    termination = None
    k1x, k1y = _finite(f, x, y)
    velocities = [k1x, k1y]
    velocity = velocities.append
    if hypot(k1x, k1y) < abs_tol:
        termination = "converged-to-equilibrium"
    while termination is None:
        if accepted + rejected == MAX_TRIAL_STEPS:
            termination = "step-limit"
            break
        # h = min(h, max_step, max_time - t)
        if max_step < h:
            h = max_step
        rest = max_time - t
        if rest < h:
            h = rest
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
            if (isfinite(nx) and isfinite(ny) and isfinite(ex)
                    and isfinite(ey) and isfinite(k2x) and isfinite(k2y)):
                # max(abs(x), abs(nx)); 0.0 - x is abs(x) for x <= 0,
                # -0.0 included
                sx = x if x > 0.0 else 0.0 - x
                ax = nx if nx > 0.0 else 0.0 - nx
                if ax > sx:
                    sx = ax
                sy = y if y > 0.0 else 0.0 - y
                ay = ny if ny > 0.0 else 0.0 - ny
                if ay > sy:
                    sy = ay
                sx = abs_tol + rel_tol * sx
                sy = abs_tol + rel_tol * sy
                err = sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2)
            else:
                err = None
        except OverflowError:
            err = None
        if err is None or err > 1.0:
            rejected += 1
            if err is None:
                h *= 0.2
            else:  # max(0.2, 0.9 * err ** -0.2)
                grow = 0.9 * err ** -0.2
                h *= grow if grow > 0.2 else 0.2
            # max(1.0, abs(t)), with t >= 0
            if h < 1e-14 * (t if t > 1.0 else 1.0):
                termination = "step-underflow"
            continue
        accepted += 1
        t += h
        x, y, k1x, k1y = nx, ny, k7x, k7y
        samples += (t, x, y)
        velocity(k1x)
        velocity(k1y)
        radius = hypot(x, y)
        if radius <= guard:
            termination = "entered-origin-guard"
            break
        if radius >= outer:
            termination = "exited-outer-disk"
            break
        # finite: the last stage enters the error estimate
        if hypot(k1x, k1y) < abs_tol:
            termination = "converged-to-equilibrium"
            break
        if t >= t_end:
            termination = "time-limit"
            break
        # min(5.0, 0.9 * (err ** -0.2 if err > 0 else 5.0))
        grow = 0.9 * (err ** -0.2 if err > 0 else 5.0)
        h *= grow if grow < 5.0 else 5.0
    return Trajectory(Samples(_packed(samples)), termination, accepted,
                      rejected, _packed(velocities))


def _packed(floats: list) -> array:
    """The floats in an ``array('d')``, through one ``struct.pack``: about
    twice as fast as ``array('d', floats)``, and the same doubles."""
    return array("d", pack(f"{len(floats)}d", *floats))


# No library code calls hausdorff_distance (the benchmark's tracer looks it
# up by name). It and its helpers take numpy arrays and import numpy.


def _cumulative_lengths(pts):
    import numpy as np
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _truncate_to_length(pts, lens, target: float):
    """Initial sub-polyline of a given arc length, and its ``lens``."""
    import numpy as np
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


def hausdorff_distance(p, q) -> float:
    """Arc-length-aligned upper bound on the symmetric Hausdorff distance.

    Both curves are resampled at a shared grid of arc lengths, trimming
    the longer to the common length first; the result is the largest
    pointwise gap. For curves tracing the same path from the same end
    this equals the Hausdorff distance of the point sets.
    """
    import numpy as np
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


def conjugacy_residual(sys: DiffSystem, result: ConjugationResult, start,
                       cfg: IntegratorConfig | None = None) -> float:
    """How far the mapped trajectory strays from the partner's own.

    Pushes every sample of the system's trajectory and its velocity (the
    integrator's) through the transition and its Jacobian. The partner
    runs along the mapped orbit in its own time, dtau = |q|^(-2m) dt,
    which Gauss-Legendre sums over each cubic Hermite step of the mapped
    curve. The partner's trajectory from the mapped start runs once, up
    to the last of those times, with its step left to error control, and
    is read at each of them through its own Hermite steps; so every kept
    sample is compared unless the partner stops early (leaves its outer
    disk, enters its origin guard or settles at an equilibrium). Returns
    the largest gap across the partner's velocity: a drift along the
    orbit is only a timing error, and the conjugacy matches orbits.

    A Hermite step of length h from (p0, v0) to (p1, v1) is spelled out
    with chord = p1 - p0, c2 = 3 * chord - h * (2 * v0 + v1) and
    c3 = h * (v0 + v1) - 2 * chord. For m = 0 every step's rate is the
    rule's weights summed, exactly 1.0, and no Hermite point is needed.
    """
    cfg = cfg or IntegratorConfig()
    # cap the original's step: its samples are the points compared, and
    # the cubic through them must be far more accurate than the gaps
    first = replace(cfg, max_step=min(cfg.max_step, 0.02))
    traj = integrate(sys, start, first)
    m = result.m
    guard2 = cfg.origin_guard ** 2
    mapped = []  # (tau, qx, qy) at each kept sample
    tau = 0.0
    samples = iter(traj.samples.flat.tolist())
    velocities = iter(traj.velocities)
    for t, x, y, vx, vy in zip(samples, samples, samples,
                               velocities, velocities):
        if not x * x + y * y > guard2:
            continue  # only ever the final sample, on a guard stop
        qx, qy = transition((x, y))
        (j00, j01), (j10, j11) = transition_jacobian(x, y)
        wx, wy = j00 * vx + j01 * vy, j10 * vx + j11 * vy
        if mapped:
            h = t - t0
            rate = 1.0  # the weights summed as below, exactly
            if m:
                chx, chy = qx - px, qy - py
                c2x, c3x = 3 * chx - h * (2 * ux + wx), h * (ux + wx) - 2 * chx
                c2y, c3y = 3 * chy - h * (2 * uy + wy), h * (uy + wy) - 2 * chy
                rate = 0.0
                for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
                    ax = px + node * (h * ux + node * (c2x + node * c3x))
                    ay = py + node * (h * uy + node * (c2y + node * c3y))
                    inverse = 1.0 / (ax * ax + ay * ay)
                    for _ in range(m):  # products: no pow, which may round
                        weight = weight * inverse
                    rate = rate + weight
            tau = tau + h * rate
        mapped.append((tau, qx, qy))
        t0, px, py, ux, uy = t, qx, qy, wx, wy
    if not mapped:
        raise ValueError("the whole trajectory sat inside the origin guard")
    if tau == 0.0:  # one kept sample: nothing to compare
        return 0.0
    q0 = transition((float(start[0]), float(start[1])))
    partner = integrate(result.conjugate, q0,
                        replace(cfg, max_time=tau, max_step=tau))
    if len(partner.samples) < 2:  # the partner sits at an equilibrium
        return 0.0
    # sqrt is monotone: the largest gap. max replaces its first item, 0.0,
    # only by a greater one, so a NaN gap is passed over
    return math.sqrt(max(chain((0.0,), _squared_gaps(mapped, partner))))


def _squared_gaps(mapped, partner: Trajectory):
    """The squared gap across the partner's velocity at each mapped
    sample (tau, qx, qy), in order, up to the partner's last time."""
    samples, g = partner.samples.flat.tolist(), partner.velocities
    times = samples[0::3]
    # a partner at the time limit may stop a relative 1e-12 short of it
    end = math.inf if partner.termination == "time-limit" else times[-1]
    last = len(times) - 2
    for tau, qx, qy in mapped:
        if tau > end:
            return  # the times only grow
        # times[0] is 0 and no tau is negative, so only the top clip bites
        i = bisect_right(times, tau) - 1
        if i > last:
            i = last
        t0, px, py, t1, rx, ry = samples[3 * i:3 * i + 6]
        ux, uy, wx, wy = g[2 * i:2 * i + 4]
        h = t1 - t0
        theta = (tau - t0) / h
        chx, chy = rx - px, ry - py
        c2x, c3x = 3 * chx - h * (2 * ux + wx), h * (ux + wx) - 2 * chx
        c2y, c3y = 3 * chy - h * (2 * uy + wy), h * (uy + wy) - 2 * chy
        gx = qx - (px + theta * (h * ux + theta * (c2x + theta * c3x)))
        gy = qy - (py + theta * (h * uy + theta * (c2y + theta * c3y)))
        vx = ux + theta * (2 * c2x + 3 * theta * c3x) / h
        vy = uy + theta * (2 * c2y + 3 * theta * c3y) / h
        speed2 = vx * vx + vy * vy
        along = (gx * vx + gy * vy) / speed2 if speed2 > 0 else 0.0
        gx, gy = gx - along * vx, gy - along * vy
        yield gx * gx + gy * gy
