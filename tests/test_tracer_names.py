"""Every library name the benchmark's tracer wraps still exists.

perfbench/spans.py wraps functions by module attribute; a renamed or
removed one breaks every traced benchmark run. The check runs the
tracer's own ``install`` on a fresh import of the library, in a child
process, since the wrappers replace module attributes for good, and
then one op through each traced path: a conjugation, a residual and an
atlas.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "perfbench"))
    import spans
    import workloads

    lib = workloads.import_library(root / "src")
    tracer = spans.Tracer()
    spans.install(lib, tracer)
    case = lib.corpus.case_by_name("4.4->4.5")
    texts = tuple(p.to_text() for p in case.system.rhs)
    tracer.begin_op(0)
    system = lib.parse.parse_system(case.system.vars, texts)
    lib.conjugate.conjugate(system).to_json_dict()
    lib.analyze.symmetry_profile(system)
    lib.analyze.infinite_point_status(system)
    spiral = lib.corpus.case_by_name("5.5->5.6").system
    short = lib.dynamics.IntegratorConfig(max_time=1.0)
    lib.dynamics.conjugacy_residual(spiral, lib.conjugate.conjugate(spiral),
                                    (0.5, 0.0), short)
    cfg = lib.atlas.AtlasConfig(rays=2, rings=1, integrator=short)
    lib.atlas.render_svg(lib.atlas.build_atlas(spiral, cfg))
    tracer.end_op()
    calls, _, _ = tracer.totals()
    print(" ".join(sorted(calls)))
""")


def test_install_on_a_fresh_import():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    spans = set(done.stdout.split())
    assert {"parse", "conjugate", "poly.circle", "conjugate.to_json",
            "analyze.symmetry", "analyze.infinity", "dynamics.residual",
            "dynamics.integrate", "atlas.build", "atlas.render"} <= spans
