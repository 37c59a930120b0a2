"""Adversarial inputs within the parser's caps, each under a time bound.

Every row runs one subcommand in this process under an alarm at its
bound, with the garbage collector off (``conftest.alarm``). A row names
the exit it expects: 0 with nothing on stderr, or 1 (a refusal) with a
one-line message and no traceback.
"""

import pytest
from conftest import Alarm, alarm

from artifact.cli import main

# (dx/dt, dy/dt); the exponent cap refuses 10^300, so it is written out
INPUTS = {
    "circle-power": ("x*(x^2 + y^2)^15", "y*(x^2 + y^2)^15"),
    "binomial-32": ("(x + y)^32", "(x + y)^31*(x - y)"),
    "stiff": (f"1{'0' * 300}*x^2", "y"),
}

# (input, subcommand, bound in seconds, exit): the bound is several times
# what the row takes on a 2-core host, whose speed drifts by up to 1.8x
ROWS = [
    ("circle-power", "conjugate", 2.0, 0),
    ("circle-power", "atlas", 2.0, 0),
    ("binomial-32", "conjugate", 4.0, 0),
    ("binomial-32", "atlas", 12.0, 0),
    ("stiff", "conjugate", 2.0, 0),
    ("stiff", "atlas", 2.0, 0),
]


@pytest.mark.parametrize("name,command,seconds,expected", ROWS,
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS])
def test_finishes_or_refuses(name, command, seconds, expected, tmp_path,
                             capsys):
    path = tmp_path / "sys.txt"
    path.write_text("dx/dt = {}\ndy/dt = {}\n".format(*INPUTS[name]))
    argv = [command, "-i", str(path), "-o", str(tmp_path / "out")]
    try:
        with alarm(seconds):
            code = main(argv)
    except Alarm:
        pytest.fail(f"still running after {seconds} s")
    err = capsys.readouterr().err
    assert (code, "Traceback" in err) == (expected, False), err
    if expected == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
