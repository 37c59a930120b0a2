"""Adversarial inputs within the parser's caps, each under a time bound.

Every row runs one subcommand in this process under an alarm at its
bound, with the garbage collector off (``conftest.alarm``). A row names
what it expects: exit 0 with nothing on stderr, or a refusal, exit 1
with a one-line message holding the row's words and no traceback. A row
that misses today is a strict xfail naming the ROADMAP item that would
make it pass. When the alarm goes off, the row also holds that no child
process is left. One more row bounds an atlas's memory.
"""

import json
import random
from pathlib import Path

import pytest
from conftest import (
    Alarm,
    alarm,
    assert_no_child_left,
    case_by_name,
    dense_field,
    random_field,
    run_child,
)

from artifact.cli import main


# (dx/dt, dy/dt); the exponent cap refuses 10^300, so it is written out
N = 10 ** 1999 + 7
INPUTS = {
    "circle-power": ("x*(x^2 + y^2)^15", "y*(x^2 + y^2)^15"),
    "binomial-16": ("(x + y)^16", "(x + y)^15*(x - y)"),
    "binomial-32": ("(x + y)^32", "(x + y)^31*(x - y)"),
    "stiff": (f"1{'0' * 300}*x^2", "y"),
    "dense-32": dense_field(random.Random(32), 32),
    # a 2000-digit pair sharing the factor N*x + y
    "big-coefficients": (f"({N}*x + y)^2", f"({N}*x + y)*(x - 1)"),
    # both sides of a degree-31 pair times one linear factor
    "planted-32": tuple(f"(x - 2*y + 1)*({side})"
                        for side in random_field(random.Random(32), 31, 20)),
}
# 14 copies of the dense field's first side, 97 KB, past the parser's budget
INPUTS["dense-sum"] = (" + ".join([INPUTS["dense-32"][0]] * 14), "y")
# a fast rotation plus 10^-30 times the dense field; the grammar has no
# division and no negative exponent, so the scale is a p/q literal
INPUTS["fast-dense"] = tuple(f"{rotation} + 1/1{'0' * 30}*({side})"
                             for rotation, side in zip(("-1000*y", "1000*x"),
                                                       INPUTS["dense-32"]))


def _misses(item: int, why: str, **kwargs):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}",
                             **kwargs)


# (input, subcommand, bound in seconds, exit 0 or the refusal's words):
# the bound is several times what the row takes on a 2-core host, whose
# speed drifts by up to 1.8x; a missing row takes at least 3.5 times its
# bound there, so no drift lets it pass by chance
ROWS = [
    ("circle-power", "conjugate", 2.0, 0),
    ("circle-power", "atlas", 2.0, 0),
    # 0.02 s; its atlas takes about 2.4 s and stays out of tier-1
    ("binomial-16", "conjugate", 2.0, 0),
    ("binomial-32", "conjugate", 4.0, 0),
    ("binomial-32", "atlas", 12.0, 0),
    ("stiff", "conjugate", 2.0, 0),
    ("stiff", "atlas", 2.0, 0),
    # 0.05 s in all, parse and coprimality included
    ("dense-32", "conjugate", 0.5, 0),
    # 0.019-0.036 s, most of it the parse: no conjugation
    ("dense-32", "infinity", 0.5, 0),
    # 0.004 s and 0.002 s: neither reaches the coprimality test
    ("big-coefficients", "symmetry", 2.0, 0),
    ("big-coefficients", "infinity", 2.0, 0),
    # refused in 0.02 s, before the first run
    ("big-coefficients", "atlas", 2.0, "does not fit a float"),
    # refused in 0.11-0.13 s; when the parser multiplied each monomial as
    # a BiPoly it took 0.29-0.49 s, close to the bound, not past it
    ("dense-sum", "conjugate", 0.5, "term products"),
    pytest.param("dense-32", "symmetry", 0.25, 0, marks=_misses(
        8, "symmetry forms every identity in full, 0.94-1.16 s")),
    pytest.param("big-coefficients", "conjugate", 2.0, 0, marks=_misses(
        6, "the coprimality test has no prime above the bound")),
    pytest.param("planted-32", "conjugate", 1.0, 0, marks=_misses(
        6, "the shared factor takes 2.8-3.3 s to find")),
    # only the alarm may fail it: an atlas that leaves its forked child
    # behind fails the row's assertion, which is no expected failure
    pytest.param("fast-dense", "atlas", 10.0, 0, marks=_misses(
        15, "each run takes its 10 000 trial steps, 58 s in all",
        raises=pytest.fail.Exception)),
]


def _row_id(row) -> str:
    values = row.values if hasattr(row, "values") else row
    return f"{values[0]}-{values[1]}"


@pytest.mark.parametrize("name,command,seconds,expected", ROWS,
                         ids=list(map(_row_id, ROWS)))
def test_finishes_or_refuses(name, command, seconds, expected, tmp_path,
                             capsys):
    path = tmp_path / "sys.txt"
    path.write_text("dx/dt = {}\ndy/dt = {}\n".format(*INPUTS[name]))
    argv = [command, "-i", str(path)]
    if command not in ("symmetry", "infinity"):  # these print to stdout
        argv += ["-o", str(tmp_path / "out")]
    try:
        with alarm(seconds):
            code = main(argv)
    except Alarm:
        # the atlas killed and reaped its forked child on the way out
        assert_no_child_left()
        pytest.fail(f"still running after {seconds} s")
    err = capsys.readouterr().err
    refused = expected != 0
    assert (code, "Traceback" in err) == (int(refused), False), err
    if refused:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err
    else:
        assert err == ""


# The memory row: the default atlas of 7.1->7.2 with its JSON, 96 runs
# and 176 401 samples, in a fresh interpreter (this one maps numpy) whose
# address space may grow by ATLAS_HEADROOM_MB past what its imports left.
# It grows by 8-12 MB; with a tuple per sample and the whole JSON text
# in memory it grew by 140-150 MB and raised MemoryError here. The limit
# holds for the forked child too. About 1.4 s on a 2-core host.
ATLAS_HEADROOM_MB = 64


def test_atlas_in_bounded_memory(tmp_path):
    pytest.importorskip("resource")
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the address space from")
    system = case_by_name("7.1->7.2").system
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": list(system.vars),
                                "rhs": [p.to_text() for p in system.rhs]}))
    svg, doc = tmp_path / "a.svg", tmp_path / "a.json"
    done = run_child(f"""
        import resource, sys
        import artifact.atlas
        from artifact.cli import main
        with open("/proc/self/status") as status:
            size = next(int(line.split()[1]) for line in status
                        if line.startswith("VmSize:"))
        cap = (size << 10) + ({ATLAS_HEADROOM_MB} << 20)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        sys.exit(main(["atlas", "-i", {str(path)!r}, "-o", {str(svg)!r},
                       "--json", {str(doc)!r}]))
    """)
    assert (done.returncode, done.stderr) == (0, "")
    assert svg.read_bytes().endswith(b"</svg>\n")
    assert doc.read_bytes().endswith(b"}\n")
