"""In-memory span tracer that wraps the library from the outside.

Spans are recorded only while an op is open, so set-up, input filtering
and the per-op checks never show up in the per-layer numbers. A wrapped
function is replaced at the module attribute where its caller looks it
up (``artifact.conjugate.is_coprime`` is what ``DiffSystem.build`` calls),
so nothing under ``src/`` is edited.

Spans nest strictly (one thread, one op at a time). A span's self time
is its duration minus the durations of its direct children. Counters
that need a look at a result (term counts, termination reasons) run in a
``trace.hook`` span of their own, so their cost is reported as tracing
overhead instead of being charged to a layer.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

HOOK = "trace.hook"
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._op = -1
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._open(self._id(OP))

    def end_op(self) -> None:
        # an op stopped by its budget may leave inner spans open
        while len(self._stack) > 1:
            self._close(self._stack[-1])
        self._close(self._stack[-1])
        self._op = -1

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def high(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, span: str, fn, hook=None):
        name_id = self._id(span)
        hook_id = self._id(HOOK)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(hook_id)
                try:
                    hook(self, result)
                finally:
                    self._close(h)
            return result

        return traced

    def totals(self):
        """Per span name: (calls, total duration ns, total self time ns)."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        dur: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        for i in range(n):
            key = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            calls[key] += 1
            dur[key] += d
            own[key] += d - child[i]
        return calls, dur, own

    def write(self, path) -> None:
        doc = {"names": self.names,
               "columns": {"name": self.name.tolist(),
                           "start_ns": self.start.tolist(),
                           "end_ns": self.end.tolist(),
                           "parent": self.parent.tolist(),
                           "op": self.op.tolist()}}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _coef_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


def _on_raw(tracer: Tracer, pair) -> None:
    tracer.count("conjugate.raw_terms", len(pair[0].terms) + len(pair[1].terms))
    tracer.high("conjugate.coef_bits_max", _coef_bits(pair))


def _on_conjugate(tracer: Tracer, result) -> None:
    tracer.count("conjugate.k", result.k)


def _on_parse(tracer: Tracer, system) -> None:
    tracer.count("parse.terms_out", sum(len(p.terms) for p in system.rhs))


def _on_integrate(tracer: Tracer, traj) -> None:
    tracer.count("dynamics.accepted_steps", len(traj.samples) - 1)
    tracer.count("dynamics.term." + traj.termination)


def _on_build(tracer: Tracer, doc) -> None:
    tracer.count("atlas.samples", sum(len(t.samples) for disk in doc.disks
                                      for t in disk.trajectories))


def _on_render(tracer: Tracer, svg) -> None:
    tracer.count("atlas.svg_bytes", len(svg))


def _on_partner_json(tracer: Tracer, _doc) -> None:
    # ConjugationResult.to_json_dict is the only output that carries a
    # coprimality flag (the partner's); nothing reads the input's flag.
    tracer.count("poly.coprime_used")


def install(lib, tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    points = [
        (lib.parse, "parse_system", "parse", _on_parse),
        (lib.conjugate, "is_coprime", "poly.coprime", None),
        (lib.conjugate, "circle_valuation", "poly.circle", None),
        (lib.conjugate, "divide_exact_by_circle", "poly.circle", None),
        (lib.conjugate, "raw_conjugate", "conjugate.raw", _on_raw),
        (lib.conjugate, "conjugate", "conjugate", _on_conjugate),
        (lib.analyze, "conjugate", "conjugate", _on_conjugate),
        (lib.atlas, "conjugate", "conjugate", _on_conjugate),
        (lib.analyze, "symmetry_profile", "analyze.symmetry", None),
        (lib.analyze, "infinite_point_status", "analyze.infinity", None),
        (lib.dynamics, "integrate", "dynamics.integrate", _on_integrate),
        (lib.atlas, "integrate", "dynamics.integrate", _on_integrate),
        (lib.dynamics, "field_eval", "dynamics.field_eval", None),
        (lib.dynamics, "hausdorff_distance", "dynamics.distance", None),
        (lib.dynamics, "conjugacy_residual", "dynamics.residual", None),
        (lib.dynamics, "transition", "charts.transition", None),
        (lib.atlas, "build_atlas", "atlas.build", _on_build),
        (lib.atlas, "render_svg", "atlas.render", _on_render),
    ]
    for owner, attr, span, hook in points:
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), hook))
    cls = lib.conjugate.ConjugationResult
    cls.to_json_dict = tracer.wrap("conjugate.to_json", cls.to_json_dict,
                                   _on_partner_json)
