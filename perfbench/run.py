"""Benchmark for the artifact library: four closed-loop workloads.

One client runs one op at a time in this single-threaded process, so
the load never needs more than one of the machine's cores.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --failures [--seed N]

The first form measures one workload. With ``--trace 0`` nothing is
wrapped and the last line of output carries the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` the library's layer boundaries are
wrapped and the last line carries the per-layer metrics. Every run prints
all of its metrics with units first and writes a results file with its
provenance under perfbench/results/. ``--report`` runs every workload
untraced and traced, then the failure pass, and prints one table with the
tracing overhead. ``--failures`` runs the inputs known to fail, each
under its workload's budget, and lists how each one ends.

The host's speed changes while it runs, so op and set-up times are
reported at the speed of a fixed reference loop timed right around each
of them (README, Host speed).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (the reference loop's; the library needs it too)
import spans as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 2  # whole passes over the inputs every run makes
# The host switches between two speeds about 1.8x apart, so every timing
# is divided by the time of a fixed reference loop run right before and
# right after it, and reported at the loop's speed of REFERENCE_MS: about
# its time in the faster state (see README, Host speed).
REFERENCE_MS = 2.0

LAYER_TIMES = (  # metric, span, whether child spans are subtracted
    ("poly.coprime_ms", "poly.coprime", False),
    ("poly.circle_ms", "poly.circle", False),
    ("conjugate.self_ms", "conjugate", True),
    ("conjugate.raw_ms", "conjugate.raw", False),
    ("conjugate.to_json_ms", "conjugate.to_json", True),
    ("parse.ms", "parse", True),
    ("analyze.symmetry_ms", "analyze.symmetry", False),
    ("analyze.infinity_self_ms", "analyze.infinity", True),
    ("dynamics.integrate_ms", "dynamics.integrate", False),
    ("dynamics.field_eval_ms", "dynamics.field_eval", False),
    ("dynamics.residual_self_ms", "dynamics.residual", True),
    ("dynamics.distance_ms", "dynamics.distance", False),
    ("charts.transition_ms", "charts.transition", False),
    ("atlas.build_self_ms", "atlas.build", True),
    ("atlas.render_ms", "atlas.render", False),
    ("bench.op_self_ms", tracing.OP, True),
    ("trace.hook_ms", tracing.HOOK, False),
)


class OverBudget(BaseException):
    """Raised by the alarm when an op runs past its budget."""


def _alarm(signum, frame):
    raise OverBudget()


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        _fail(f"cannot read BENCHMARK.json: {err}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(**extra) -> dict:
    return {"commit": _commit(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            **extra}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def reference_ns() -> int:
    """Time of one fixed reference loop: Fraction, float and numpy work."""
    started = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    acc = 0.0
    for i in range(10000):
        acc += (i * 0.5) ** 0.5
    vec, step = np.zeros(2), np.array([1.0, 2.0])
    for _ in range(700):
        vec = vec * 0.5 + step
    return time.perf_counter_ns() - started


def reference_scaled(elapsed_ns: int, before_ns: int, after_ns: int) -> float:
    """``elapsed_ns`` in ms at the reference speed."""
    return elapsed_ns * REFERENCE_MS * 2 / (before_ns + after_ns)


def run_op(workload, lib, inp, tracer=None, index=0):
    """One op under its budget: (elapsed ns, scaled ms, output, error).

    The op gets its own deep copy of the input, made before the timer
    starts, so nothing an earlier op of the same input touched is reused.
    The scaled time is the elapsed time in ms at the reference speed,
    from the reference loop run right before and right after the op.
    """
    data = copy.deepcopy(inp.data)
    before = reference_ns()
    if tracer is not None:
        tracer.begin_op(index)
    started = ended = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
            started = time.perf_counter_ns()
            out = workload.op(lib, data)
        finally:
            ended = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except OverBudget:
        out, error = None, f"OverBudget: ran past {workload.budget_s} s"
    except Exception as exc:  # any library error is a failed op
        out, error = None, f"{type(exc).__name__}: {exc}"[:300]
    finally:
        if tracer is not None:
            tracer.end_op()
    after = reference_ns()
    if started is None or ended is None:
        elapsed = int(workload.budget_s * 1e9)
    else:
        elapsed = ended - started
    return elapsed, reference_scaled(elapsed, before, after), out, error


def _setup(workload, seed: int):
    """Import, corpus load and input generation, repeated; medians.

    Set-up times are in s at the reference speed, like the op times.
    """
    totals, loads = [], []
    reference_ns()  # the loop's first run is slower; keep it out
    for _ in range(SETUP_REPEATS):
        before = reference_ns()
        started = time.perf_counter_ns()
        lib = wl.import_library(SRC)
        prepared = workload.prepare(lib, seed)
        elapsed = time.perf_counter_ns() - started
        totals.append(reference_scaled(elapsed, before, reference_ns()) / 1000)
        if prepared.load_ms is not None:
            loads.append(prepared.load_ms)
    load_ms = statistics.median(loads) if loads else 0.0
    return lib, prepared.inputs, statistics.median(totals), load_ms


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, ops: int, load_ms: float, terminations) -> dict:
    calls, dur, own = tracer.totals()
    per_op = max(ops, 1)
    out = {}
    for metric, span, subtract in LAYER_TIMES:
        total = own[span] if subtract else dur[span]
        out[metric] = (total / 1e6 / per_op, "ms")
    cnt = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    out.update({
        "poly.coprime_calls": (calls["poly.coprime"] / per_op, "count"),
        "poly.coprime_used_ratio": (ratio(cnt["poly.coprime_used"],
                                          calls["poly.coprime"]), "ratio"),
        "conjugate.calls_per_op": (calls["conjugate"] / per_op, "count"),
        "conjugate.raw_terms": (ratio(cnt["conjugate.raw_terms"],
                                      calls["conjugate.raw"]), "count"),
        "conjugate.coef_bits_max": (
            tracer.maxima.get("conjugate.coef_bits_max", 0), "bits"),
        "conjugate.k": (ratio(cnt["conjugate.k"], calls["conjugate"]),
                        "count"),
        "parse.calls": (calls["parse"] / per_op, "count"),
        "parse.terms_out": (ratio(cnt["parse.terms_out"], calls["parse"]),
                            "count"),
        "dynamics.integrate_calls": (calls["dynamics.integrate"] / per_op,
                                     "count"),
        "dynamics.accepted_steps": (cnt["dynamics.accepted_steps"] / per_op,
                                    "count"),
        "dynamics.field_eval_calls": (calls["dynamics.field_eval"] / per_op,
                                      "count"),
        "charts.transition_calls": (calls["charts.transition"] / per_op,
                                    "count"),
        "atlas.samples": (cnt["atlas.samples"] / per_op, "count"),
        "atlas.svg_bytes": (cnt["atlas.svg_bytes"] / per_op, "bytes"),
        "corpus.load_ms": (load_ms, "ms"),
    })
    for reason in terminations:
        out["dynamics.term." + reason] = (
            cnt["dynamics.term." + reason] / per_op, "count")
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = wl.WORKLOADS[name]
    lib, inputs, setup_s, load_ms = _setup(workload, seed)
    if workload.admit is not None:
        inputs = [inp for inp in inputs if workload.admit(lib, inp)]
    if not inputs:
        _fail(f"{name}: no input was admitted")
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(lib, tracer)
    # Every input runs once a pass, so each is timed many times.
    op_ms: dict[str, list] = {inp.key: [] for inp in inputs}
    wall_ms: dict[str, list] = {inp.key: [] for inp in inputs}
    busy_ns = 0
    failures, wrong, digests = [], [], {}
    attempted = 0
    min_ops = len(inputs) * MIN_PASSES
    phase_start = time.monotonic()
    phase_cpu = time.process_time()
    for inp in itertools.cycle(inputs):
        if attempted >= min_ops and time.monotonic() - phase_start >= seconds:
            break
        elapsed, scaled, out, error = run_op(workload, lib, inp, tracer,
                                             attempted)
        attempted += 1
        busy_ns += elapsed
        wall_ms[inp.key].append(elapsed / 1e6)
        if error is not None:
            failures.append({"input": inp.key, "error": error})
            # a failed op ranks behind every op that finished in budget
            op_ms[inp.key].append(workload.budget_s * 1000)
            continue
        op_ms[inp.key].append(scaled)
        problem = workload.check(lib, inp, out)
        if problem is not None:
            wrong.append({"input": inp.key, "problem": problem})
        if inp.key not in digests:
            digests[inp.key] = _digest(workload.digest(out))
        out = None  # keep one op's output alive at a time
    phase_wall = time.monotonic() - phase_start
    succeeded = attempted - len(failures)
    # one time per input, the median of its ops, so each input counts once
    per_input = [statistics.median(times) for times in op_ms.values()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(per_input), "ms"),
    }
    if workload.reports_p90:
        metrics["op_p90_ms"] = (_percentile(per_input, 90), "ms")
    metrics["op_wall_p50_ms"] = (statistics.median(
        statistics.median(times) for times in wall_ms.values()), "ms")
    metrics.update({
        "ops_per_s": (succeeded / (busy_ns / 1e9), "1/s"),
        "fail_ratio": (len(failures) / attempted, "ratio"),
        "wrong_ratio": (len(wrong) / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    })
    layers = layer_metrics(tracer, attempted, load_ms,
                           lib.dynamics.TERMINATIONS) if traced else {}
    result = {
        "provenance": provenance(workload=name, seed=seed, seconds=seconds,
                                 trace=int(traced)),
        "attempted": attempted, "failed": len(failures), "wrong": len(wrong),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "layers": {k: {"value": v, "unit": u}
                   for k, (v, u) in layers.items()},
        "failures": failures, "wrong_ops": wrong,
        "digests": digests, "op_ms": op_ms, "wall_ms": wall_ms,
        # CPU time well below wall time means the host took the CPU away
        "phase": {"wall_s": phase_wall, "busy_s": busy_ns / 1e9,
                  "cpu_s": time.process_time() - phase_cpu,
                  "inputs": len(op_ms),
                  "passes": min(len(times) for times in op_ms.values())},
        "output_digest": _digest(json.dumps(sorted(digests.items()))
                                 .encode()),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}_seed{seed}_trace{int(traced)}"
    if traced:
        tracer.write(stem.with_suffix(".spans.json.gz"))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for key, entry in metrics.items():
        print(f"  {key:<36} {entry['value']:>16.6g} {entry['unit']}")


def cmd_workload(args, spec) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    _print_metrics(f"{args.workload} seed={args.seed} "
                   f"attempted={result['attempted']} "
                   f"failed={result['failed']} wrong={result['wrong']}",
                   result["metrics"])
    if args.trace:
        _print_metrics("per layer (traced, per op)", result["layers"])
    for entry in result["failures"]:
        print(f"  FAILED {entry['input']}: {entry['error']}")
    for entry in result["wrong_ops"]:
        print(f"  WRONG {entry['input']}: {entry['problem']}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    chosen = {}
    for metric in wanted:
        entry = source.get(metric["name"])
        if entry is None or entry["unit"] != metric["unit"]:
            _fail(f"{args.workload} does not measure {metric['name']} "
                  f"in {metric['unit']}")
        chosen[metric["name"]] = entry
    correct = result["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0 if correct else 1


def cmd_failures(args) -> int:
    lib = wl.import_library(SRC)
    runs = [(wl.WORKLOADS["atlas-corpus"], wl.atlas_failure_inputs(lib)),
            (wl.WORKLOADS["degree-sweep"], wl.sweep_tail(args.seed))]
    listed = []
    for workload, inputs in runs:
        for inp in inputs:
            elapsed, _, out, error = run_op(workload, lib, inp)
            if error is None:
                problem = workload.check(lib, inp, out)
                outcome = "ok" if problem is None else f"wrong: {problem}"
            else:
                outcome = error
            listed.append({"workload": workload.name, "input": inp.key,
                           "seconds": elapsed / 1e9, "outcome": outcome})
            print(f"  {workload.name:<14} {inp.key:<12} "
                  f"{elapsed / 1e9:8.3f} s  {outcome}", flush=True)
    failed = sum(1 for e in listed if e["outcome"] != "ok")
    RESULTS.mkdir(exist_ok=True)
    doc = {"provenance": provenance(seed=args.seed), "ops": listed,
           "attempted": len(listed), "failed": failed}
    (RESULTS / f"failures_seed{args.seed}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"attempted": len(listed), "failed": failed}))
    return 0


def _child(args_list) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), *args_list]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        _fail(f"{' '.join(args_list)} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _print_table(title: str, columns: dict) -> None:
    """One row per metric, one column per workload; '-' where absent."""
    units = {}
    for column in columns.values():
        for metric, entry in column.items():
            units.setdefault(metric, entry["unit"])
    labels = {m: f"{m} [{u}]" for m, u in units.items()}
    key = max(map(len, labels.values())) + 2
    print(title)
    print(f"  {'metric':<{key}}" + "".join(f"{n:>14}" for n in columns))
    for metric, label in labels.items():
        cells = "".join(f"{c[metric]['value']:>14.4g}" if metric in c
                        else f"{'-':>14}" for c in columns.values())
        print(f"  {label:<{key}}{cells}")


def cmd_report(args) -> int:
    names = list(wl.WORKLOADS)
    rows = {}
    for name in names:
        for trace in (0, 1):
            _child(["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)])
            stem = f"{name}_seed{args.seed}_trace{trace}.json"
            rows[(name, trace)] = json.loads((RESULTS / stem).read_text())
    _print_table("end to end (untraced)",
                 {n: rows[(n, 0)]["metrics"] for n in names})
    print("tracing overhead (traced op_p50_ms - untraced op_p50_ms)")
    overhead = {}
    for n in names:
        plain = rows[(n, 0)]["metrics"]["op_p50_ms"]["value"]
        traced = rows[(n, 1)]["metrics"]["op_p50_ms"]["value"]
        overhead[n] = traced - plain
        print(f"  {n:<16} {traced - plain:+10.3f} ms "
              f"({(traced - plain) / plain:+.1%})")
    _print_table("per layer (traced run, per op)",
                 {n: rows[(n, 1)]["layers"] for n in names})
    print("largest shares of the traced op time")
    for n in names:
        layers = rows[(n, 1)]["layers"]
        total = sum(layers[m]["value"] for m, _, _ in LAYER_TIMES)
        shares = sorted(((layers[m]["value"] / total, m)
                         for m, _, _ in LAYER_TIMES if total), reverse=True)
        top = ", ".join(f"{m} {s:.0%}" for s, m in shares[:3])
        print(f"  {n}: {top}")
    print("failure pass (inputs kept out of the timed workloads)")
    failures = _child(["--failures", "--seed", str(args.seed)])
    doc = {"provenance": provenance(seed=args.seed, seconds=args.seconds),
           "runs": {f"{n}/trace{t}": r for (n, t), r in rows.items()},
           "tracing_overhead_ms": overhead,
           "failure_pass": json.loads(
               (RESULTS / f"failures_seed{args.seed}.json").read_text())}
    (RESULTS / f"report_seed{args.seed}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    print(f"  {failures['failed']}/{failures['attempted']} failed; "
          f"see perfbench/results/failures_seed{args.seed}.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--workload", choices=list(wl.WORKLOADS))
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--failures", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "artifact" / "__init__.py").is_file():
        _fail(f"no library sources under {SRC}")
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    signal.signal(signal.SIGALRM, _alarm)
    if args.failures:
        return cmd_failures(args)
    if args.report:
        return cmd_report(args)
    if args.workload is None:
        parser.error("one of --workload, --report or --failures is required")
    return cmd_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
