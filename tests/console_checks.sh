#!/bin/bash
# The checks of the installed `artifact` console script, run outside the
# checkout: CI's step "Installed console script, outside the checkout"
# runs this file, and the later step "Install without extras" reads the
# saddle.json and saddle.svg it leaves in $RUNNER_TEMP.
#
# Usage: RUNNER_TEMP=<scratch directory> bash tests/console_checks.sh
# with `artifact` and `python` on PATH. Without an installed package, a
# stand-in script named `artifact` that runs
#     exec -a artifact python3 -m artifact.cli "$@"
# with PYTHONPATH set to the checkout's src/ serves, and keeps "artifact"
# in the argv of its processes, so that the last check still sees them.
#
# no PYTHONPATH: the [project.scripts] entry point must find the
# installed package on its own; a 100 KB right side past the
# parser's work budget, a sum of powers or the 97 KB sum of 14
# copies of the dense degree-32 side of tests/test_bounds.py,
# must exit 1, neither 0 nor 124 (timeout), and one copy of that
# side must be conjugated, exit 0 with a "coprime" key in its JSON,
# and typed at infinity, exit 0 with a "status" key in its JSON;
# under python -O, which strips asserts, x*s^15, y*s^15 (s =
# x^2+y^2) must conjugate with k = 16 and m = 15, and
# -y*s^3 + x^2, x*s^3 with k = 4;
# an atlas (whose seed runs may be split with one forked child)
# must finish and leave no artifact process behind, and the atlas
# of the center x' = y, y' = -x must label its runs "closed" in
# its JSON (the atlas owns that label); the default atlas of corpus
# case 7.1->7.2 with its SVG and JSON must finish under ulimit -v
# 98304 (96 MB; it needs about 38 MB, and needed about 166 MB with a
# tuple per sample and each document whole in memory) and write the
# same bytes as an unlimited run; the atlas at --eps1 1
# --eps2 1 (both radii 2, the least that covers the sphere) must
# finish, and one whose seed grid is past the ray cap must exit 1,
# neither 0 nor 124; the atlas of dx/dt = 10^300 x^2, dy/dt = y
# must exit 0 and list all 96 of its runs, each ending
# "step-underflow" with one sample; the atlas of dx/dt =
# 10^307 x^2 - y, dy/dt = x, whose field is not finite at its
# outer seeds, must be refused with exit 1, neither 0 nor 124;
# map-curve must print README's text, take a negative rational such
# as -1/3 as a value and exit 0; symmetry must exit 0, and so must
# infinity, with a "status" key in its JSON.

set -e

cd "$RUNNER_TEMP"
artifact verify
artifact map-curve --circle -1 0 1 | grep -F '"text": "u + 2 = 0"'
status=0
artifact map-curve --line 1 -1/3 1 > line.json || status=$?
test "$status" -eq 0
grep -F '"text": "u^2 + v^2 + 4*u - 4/3*v = 0"' line.json
python -c 'import json; unit = "(x+2*y+1)^16*(3*x-y+1)^16"; rhs = " + ".join([unit] * (100000 // (len(unit) + 3))); print(json.dumps({"vars": ["x", "y"], "rhs": [rhs, "y"]}))' > adversarial.json
status=0
timeout 10 artifact conjugate -i adversarial.json || status=$?
test "$status" -eq 1
python - > dense.json <<'PY'
import json, random
rng, text = random.Random(32), ""
for d in range(32, -1, -1):
    for i in range(d, -1, -1):
        coef = rng.choice((-1, 1)) * rng.randint(1, 9)
        mono = "*".join(f"{v}^{e}" if e > 1 else v
                        for v, e in (("x", i), ("y", d - i)) if e)
        body = f"{abs(coef)}*{mono}" if mono else str(abs(coef))
        text += ("-" if coef < 0 else "+") + " " + body + " "
side = text.strip().lstrip("+ ")
print(json.dumps({"vars": ["x", "y"], "rhs": [side, "y"]}))
print(json.dumps({"vars": ["x", "y"],
                  "rhs": [" + ".join([side] * 14), "y"]}))
PY
head -n 1 dense.json > dense1.json
tail -n 1 dense.json > dense14.json
timeout 10 artifact conjugate -i dense1.json > dense1.out
python -c 'import json, sys; sys.exit("coprime" not in json.load(open("dense1.out")))'
timeout 10 artifact infinity -i dense1.json > dense1.inf.json
python -c 'import json, sys; sys.exit("status" not in json.load(open("dense1.inf.json")))'
status=0
timeout 10 artifact conjugate -i dense14.json || status=$?
test "$status" -eq 1
python -c 'import json; print(json.dumps({"vars": ["x", "y"], "rhs": ["x*(x^2+y^2)^15", "y*(x^2+y^2)^15"]}))' > radial.json
python -O -m artifact.cli conjugate -i radial.json > radial.out
grep -F '"k": 16,' radial.out && grep -F '"m": 15,' radial.out
python -c 'import json; print(json.dumps({"vars": ["x", "y"], "rhs": ["-y*(x^2+y^2)^3 + x^2", "x*(x^2+y^2)^3"]}))' > rotated.json
python -O -m artifact.cli conjugate -i rotated.json > rotated.out
grep -F '"k": 4,' rotated.out
python -c 'import json; print(json.dumps({"vars": ["x", "y"], "rhs": ["x", "-y"]}))' > saddle.json
artifact symmetry -i saddle.json
artifact infinity -i saddle.json > saddle.inf.json
python -c 'import json, sys; sys.exit("status" not in json.load(open("saddle.inf.json")))'
timeout 60 artifact atlas -i saddle.json -o saddle.svg --json saddle.doc.json
test -s saddle.svg && test -s saddle.doc.json
timeout 60 artifact atlas -i saddle.json --eps1 1 --eps2 1 -o eq.svg
status=0
timeout 10 artifact atlas -i saddle.json --seeds grid:1000000000 || status=$?
test "$status" -eq 1
python -c 'print("dx/dt = 1" + "0" * 300 + "*x^2"); print("dy/dt = y")' > stiff.txt
timeout 60 artifact atlas -i stiff.txt -o stiff.svg --json stiff.doc.json
python -c 'import json, sys; runs = [t["termination"] for d in json.load(open("stiff.doc.json"))["disks"] for t in d["trajectories"]]; sys.exit(runs != ["step-underflow"] * 96)'
python -c 'print("dx/dt = 1" + "0" * 307 + "*x^2 - y"); print("dy/dt = x")' > overflow.txt
status=0
timeout 10 artifact atlas -i overflow.txt -o overflow.svg 2> overflow.err || status=$?
test "$status" -eq 1
head -n 1 overflow.err | grep -q '^error: field not finite at'
python -c 'import json; print(json.dumps({"vars": ["x", "y"], "rhs": ["y", "-x"]}))' > center.json
timeout 60 artifact atlas -i center.json -o center.svg --json center.doc.json
grep -qF '"termination": "closed"' center.doc.json
python -c 'import json; print(json.dumps({"vars": ["x", "y"], "rhs": ["x^3 - x^2*y + x*y^2 - y^3 - x - y", "x^3 + x^2*y + x*y^2 + y^3 + x - y"]}))' > cubic.json
(ulimit -v 98304 && exec timeout 60 artifact atlas -i cubic.json -o cubic.svg --json cubic.doc.json)
timeout 60 artifact atlas -i cubic.json -o cubic.free.svg --json cubic.free.json
cmp cubic.svg cubic.free.svg
cmp cubic.doc.json cubic.free.json
python - <<'PY'
import os
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv = f.read().split(b"\0")
    except OSError:
        continue
    if any(os.path.basename(arg) == b"artifact" for arg in argv):
        left.append(pid)
if left:
    raise SystemExit(f"artifact processes left: {left}")
PY
