"""The four benchmark workloads: inputs from a seed, one op, its check.

Every op goes through the library's public functions, looked up on the
module at call time so that the tracer's wrappers see them. The checks
and digests run after the op's timer has stopped.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

MODULES = ("poly", "parse", "conjugate", "charts", "analyze", "dynamics",
           "atlas", "corpus")

# Cases that cannot produce a default atlas at the commit this benchmark
# was written against: four raise OverflowError, and 9.6->9.7 and
# 9.11->9.14 run for more than a minute. Timed workloads must not contain
# failing ops, so these run only in the failure pass (run.py --failures).
ATLAS_KNOWN_FAILURES = ("4.9->4.10", "9.4->9.5", "9.6->9.7", "9.8->9.9",
                        "9.11->9.14", "9.12->9.15")

# The atlas workload times these cases. Each input runs many times in a
# run so that its fastest time can be found (see README, Spread); with
# every case that succeeds, a pass took about 24 s, half of it in
# 7.1->7.2 and 7.3->7.4 alone, too long for enough passes. These seven
# span chapters 4, 5, 6 and 9, 0.15-0.6 s an op, about 2.4 s a pass, and
# include 5.3->5.4, ROADMAP's reference atlas.
ATLAS_CASES = ("4.4->4.5", "4.6->4.7", "5.3->5.4", "5.7->5.8", "6.1->6.2",
               "6.7->6.8", "9.10->9.13")

# The residual workload uses the acceptance test a8's chapter-5 cases.
RESIDUAL_CASES = ("5.1->5.2", "5.3->5.4", "5.5->5.6", "5.7->5.8",
                  "5.9->5.10", "5.11->5.12")

# Degree-sweep inputs cycle through these (degree, terms per component)
# shapes. Three quadratics per cubic put the median among the quadratics
# and the 90th percentile among the cubics, away from the gap between
# them, so both percentiles repeat across seeds.
SWEEP_SHAPES = ((2, 4), (2, 4), (2, 4), (3, 6))
# The tail the failure pass tries: far past any budget at the time the
# benchmark was written (the coprimality test alone ran 145 s at n=8).
SWEEP_TAIL = (8, 12, 16)
SWEEP_POOL = 120
RESIDUAL_POOL = 36

# Fixed nonzero rational points for the exact pushforward check.
CHECK_POINTS = ((Fraction(1), Fraction(2)), (Fraction(-3, 2), Fraction(1, 3)),
                (Fraction(5, 7), Fraction(-2)))


def import_library(src: Path) -> SimpleNamespace:
    """Fresh import of every artifact module from ``src``.

    Earlier imports are dropped first, so calling this again measures the
    import once more (numpy, already loaded, is not imported again).
    """
    for name in [m for m in sys.modules
                 if m == "artifact" or m.startswith("artifact.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(**{m: importlib.import_module(f"artifact.{m}")
                             for m in MODULES})
    origin = Path(lib.poly.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"artifact was imported from {origin}, not {src}")
    return lib


@dataclass
class Input:
    key: str
    data: tuple


@dataclass
class Prepared:
    inputs: list
    load_ms: float | None   # corpus load time, when the workload loads it


def _load_cases(lib):
    started = time.perf_counter()
    cases = lib.corpus.load_cases()
    return cases, (time.perf_counter() - started) * 1000


# -- corpus-verify -----------------------------------------------------------


def _verify_prepare(lib, seed: int) -> Prepared:
    cases, load_ms = _load_cases(lib)
    random.Random(seed).shuffle(cases)
    inputs = [Input(c.name, (c, tuple(p.to_text() for p in c.system.rhs)))
              for c in cases]
    return Prepared(inputs, load_ms)


def _verify_op(lib, data):
    case, texts = data
    system = lib.parse.parse_system(case.system.vars, texts)
    result = lib.conjugate.conjugate(system, out_vars=case.conjugate_vars)
    profile = lib.analyze.symmetry_profile(system) if case.symmetries else None
    status = lib.analyze.infinite_point_status(system) if case.infinity \
        else None
    return system, result, profile, status


def _verify_check(lib, inp: Input, out) -> str | None:
    case, _ = inp.data
    system, result, profile, status = out
    pu, pv = result.conjugate.rhs
    bad = []
    if system.rhs != case.system.rhs:
        bad.append("parse")
    if not (pu == case.expected_u and pv == case.expected_v):
        bad.append("pair")
    if result.k != case.expected_k:
        bad.append("k")
    if result.m != case.expected_m:
        bad.append("m")
    if result.system.degree != case.expected_n:
        bad.append("n")
    if case.symmetries and any(profile[kind] != want
                               for kind, want in case.symmetries.items()):
        bad.append("symmetry")
    if case.infinity and (status.status != case.infinity["status"]
                          or status.eq_class != case.infinity.get("class")):
        bad.append("infinity")
    return ", ".join(bad) or None


def _verify_digest(out) -> bytes:
    _, result, profile, status = out
    return json.dumps({"partner": result.to_json_dict(), "symmetry": profile,
                       "infinity": status.to_json_dict() if status else None},
                      sort_keys=True).encode()


# -- degree-sweep ------------------------------------------------------------


def _monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def random_field(rng: random.Random, degree: int, terms: int):
    """Two right sides of total degree ``degree`` as text.

    Each side has ``terms`` distinct monomials with coefficients in
    +-{1, 2, 3}; the first side always has a monomial of top degree.
    """
    monomials = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
    top = [m for m in monomials if sum(m) == degree]
    sides = []
    for side in range(2):
        chosen = rng.sample(monomials, terms)
        if side == 0 and not any(sum(m) == degree for m in chosen):
            chosen[0] = rng.choice([m for m in top if m not in chosen])
        chosen.sort(key=lambda m: (-sum(m), -m[0]))
        text = ""
        for i, j in chosen:
            coef = rng.choice((-3, -2, -1, 1, 2, 3))
            mono = _monomial(i, j)
            body = f"{abs(coef)}*{mono}" if mono else str(abs(coef))
            text += ("-" if coef < 0 else "+") + " " + body + " "
        sides.append(text.strip().lstrip("+ "))
    return tuple(sides)


def _sweep_prepare(lib, seed: int) -> Prepared:
    rng = random.Random(seed)
    inputs = []
    for index in range(SWEEP_POOL):
        degree, terms = SWEEP_SHAPES[index % len(SWEEP_SHAPES)]
        inputs.append(Input(f"n{degree}#{index}",
                            random_field(rng, degree, terms)))
    return Prepared(inputs, None)


def sweep_tail(seed: int) -> list:
    rng = random.Random(seed)
    return [Input(f"n{n}#tail", random_field(rng, n, (n + 1) * (n + 2) // 4))
            for n in SWEEP_TAIL]


def _sweep_op(lib, data):
    system = lib.parse.parse_system(("x", "y"), data)
    result = lib.conjugate.conjugate(system)
    return system, result, result.to_json_dict()


def _sweep_check(lib, inp: Input, out) -> str | None:
    system, result, doc = out
    n, k, m = doc["n"], doc["k"], doc["m"]
    if not (m == n - k >= 0 and (n, k, m) == (system.degree, result.k,
                                              result.m)):
        return f"bookkeeping n={n} k={k} m={m}"
    for point in CHECK_POINTS:
        if lib.conjugate.pushforward_residual(system, result, point) != (0, 0):
            return f"pushforward residual nonzero at {point}"
    return None


def _sweep_digest(out) -> bytes:
    return json.dumps(out[2], sort_keys=True).encode()


# -- atlas-corpus ------------------------------------------------------------


def _atlas_prepare(lib, seed: int) -> Prepared:
    cases, load_ms = _load_cases(lib)
    cases = [c for c in cases if c.name in ATLAS_CASES]
    random.Random(seed).shuffle(cases)
    return Prepared([Input(c.name, (c,)) for c in cases], load_ms)


def atlas_failure_inputs(lib) -> list:
    cases, _ = _load_cases(lib)
    return [Input(c.name, (c,)) for c in cases
            if c.name in ATLAS_KNOWN_FAILURES]


def _atlas_op(lib, data):
    doc = lib.atlas.build_atlas(data[0].system, lib.atlas.AtlasConfig())
    return doc, lib.atlas.render_svg(doc)


def _atlas_check(lib, inp: Input, out) -> str | None:
    case = inp.data[0]
    doc, svg = out
    circles = svg.count(b"<circle")
    if circles != 2:
        return f"{circles} <circle> elements"
    for disk in doc.disks:
        limit = disk.radius * (1 + 1e-9)
        for traj in disk.trajectories:
            if any(math.hypot(x, y) > limit for _, x, y in traj.samples):
                return f"sample outside disk {disk.chart.value}"
    partner_vars = doc.disks[1].vars
    conj = doc.provenance["conjugation"]
    if (conj["U"] != case.expected_u.with_vars(partner_vars).to_text()
            or conj["V"] != case.expected_v.with_vars(partner_vars).to_text()):
        return "provenance partner pair differs from the expected pair"
    return None


def _atlas_digest(out) -> bytes:
    return out[1]


# -- residual ----------------------------------------------------------------


def _residual_prepare(lib, seed: int) -> Prepared:
    cases, load_ms = _load_cases(lib)
    by_name = {c.name: c for c in cases}
    chosen = [by_name[name] for name in RESIDUAL_CASES]
    cfg = lib.dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10,
                                        max_time=6.0)
    rng = random.Random(seed)
    inputs = []
    for index in range(RESIDUAL_POOL):
        case = chosen[index % len(chosen)]
        start = (0.0, 0.0)
        while math.hypot(*start) < 0.05:
            start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        inputs.append(Input(f"{case.name}@{start[0]!r},{start[1]!r}",
                            (case, start, cfg)))
    return Prepared(inputs, load_ms)


def _residual_admit(lib, inp: Input) -> bool:
    # a8 skips starts whose forward trajectory runs into the origin guard
    case, start, cfg = copy.deepcopy(inp.data)
    traj = lib.dynamics.integrate(case.system, start, cfg)
    return traj.termination != "entered-origin-guard"


def _residual_op(lib, data):
    case, start, cfg = data
    result = lib.conjugate.conjugate(case.system)
    return lib.dynamics.conjugacy_residual(case.system, result, start, cfg)


def _residual_check(lib, inp: Input, out) -> str | None:
    if not out < 1e-5:
        return f"residual {out!r} is not below 1e-5"
    return None


def _residual_digest(out) -> bytes:
    return repr(out).encode()


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float       # an op running longer is stopped and fails
    reports_p90: bool
    prepare: object
    op: object
    check: object
    digest: object
    admit: object = None  # input filter run outside the timed region


# Budgets sit far from every op time measured when the benchmark was
# written (slowest successful op: corpus-verify 0.17 s, degree-sweep
# 0.4 s, atlas-corpus 0.6 s, residual 0.25 s; the atlas timeouts ran
# over 60 s and the degree-8 tail over 145 s), so failure counts repeat.
WORKLOADS = {w.name: w for w in (
    Workload("corpus-verify", 5.0, True, _verify_prepare, _verify_op,
             _verify_check, _verify_digest),
    Workload("degree-sweep", 5.0, True, _sweep_prepare, _sweep_op,
             _sweep_check, _sweep_digest),
    Workload("atlas-corpus", 30.0, False, _atlas_prepare, _atlas_op,
             _atlas_check, _atlas_digest),
    Workload("residual", 5.0, True, _residual_prepare, _residual_op,
             _residual_check, _residual_digest, _residual_admit),
)}
