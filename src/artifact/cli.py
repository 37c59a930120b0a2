"""Command-line front end.

Subcommands mirror the library: conjugate a system, report its symmetry
profile, classify the infinitely remote point, map a curve through the
transition, build the two-disk atlas, and verify the build against the
embedded reference corpus.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analyze import (
    SYMMETRY_KINDS,
    infinite_point_status,
    symmetry_profile,
)
from .atlas import AtlasConfig, build_atlas, render_svg
from .charts import AT_INFINITY, Circle, Line, Point, map_curve
from .conjugate import conjugate
from .corpus import load_cases
from .parse import ParseError, load_system
from .poly import BiPoly


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _seed_rays(text: str) -> int:
    if text.startswith("grid:"):
        try:
            rays = int(text[5:])
        except ValueError:
            rays = -1
        if rays >= 0:
            return rays
    raise argparse.ArgumentTypeError(
        f"seeds must look like grid:N, got {text!r}")


def _read_system(path: str):
    if path == "-":
        return load_system(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return load_system(handle.read())


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _curve_text(curve) -> str:
    if curve is AT_INFINITY:
        return "the infinitely remote point"
    u = BiPoly.var("u", ("u", "v"))
    v = BiPoly.var("v", ("u", "v"))
    if isinstance(curve, Line):
        return (curve.a * u + curve.b * v + curve.c).to_text() + " = 0"
    if isinstance(curve, Circle):
        cx, cy = curve.center
        lhs = (u - cx) ** 2 + (v - cy) ** 2 - curve.radius2
        return lhs.to_text() + " = 0"
    px, py = curve.at
    return f"({px}, {py})"


def _cmd_conjugate(args) -> int:
    system = _read_system(args.input)
    if args.check_coprime and not system.coprime:
        print("error: the two right sides share a nonconstant factor",
              file=sys.stderr)
        return 1
    result = conjugate(system)
    payload = {"system": system.to_json_dict()}
    payload.update(result.to_json_dict())
    _emit(_json_text(payload), args.output)
    return 0


def _cmd_symmetry(args) -> int:
    system = _read_system(args.input)
    profile = symmetry_profile(system)
    payload = {kind: profile[kind] for kind in SYMMETRY_KINDS}
    _emit(_json_text(payload), None)
    return 0


def _cmd_infinity(args) -> int:
    system = _read_system(args.input)
    _emit(_json_text(infinite_point_status(system).to_json_dict()), None)
    return 0


def _cmd_map_curve(args) -> int:
    if args.circle is not None:
        cx, cy, r2 = args.circle
        curve = Circle((cx, cy), r2)
    elif args.line is not None:
        curve = Line(*args.line)
    else:
        curve = Point(tuple(args.point))
    image = map_curve(curve)
    payload = {
        "input": curve.to_json_dict(),
        "image": image.to_json_dict(),
        "text": _curve_text(image),
    }
    _emit(_json_text(payload), None)
    return 0


def _cmd_atlas(args) -> int:
    system = _read_system(args.input)
    fields = {"eps1": args.eps1, "eps2": args.eps2}
    if args.seeds is not None:
        fields["rays"] = args.seeds
    cfg = AtlasConfig(**fields)
    doc = build_atlas(system, cfg)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(_json_text(doc.to_json_dict()))
    svg = render_svg(doc)
    if args.output is not None:
        with open(args.output, "wb") as handle:
            handle.write(svg)
    elif args.json is None:
        sys.stdout.buffer.write(svg)
    return 0


def _verify_case(case) -> tuple[bool, str]:
    result = conjugate(case.system, out_vars=case.conjugate_vars)
    pu, pv = result.conjugate.rhs
    checks = [
        (pu == case.expected_u and pv == case.expected_v, "pair"),
        (result.k == case.expected_k, "k"),
        (result.m == case.expected_m, "m"),
        (result.system.degree == case.expected_n, "n"),
    ]
    if case.symmetries:
        profile = symmetry_profile(case.system)
        checks.append((all(profile[kind] == want
                           for kind, want in case.symmetries.items()),
                       "symmetry"))
    if case.infinity:
        status = infinite_point_status(case.system)
        checks.append((status.status == case.infinity["status"]
                       and status.eq_class == case.infinity.get("class"),
                       "infinity"))
    bad = [label for ok, label in checks if not ok]
    return (not bad, ", ".join(bad) if bad else "ok")


def _cmd_verify(args) -> int:
    cases = load_cases()
    width = max(len(c.name) for c in cases)
    failures = 0
    for case in cases:
        ok, detail = _verify_case(case)
        verdict = "pass" if ok else f"FAIL ({detail})"
        print(f"{case.name:<{width}}  n={case.expected_n} "
              f"k={case.expected_k} m={case.expected_m}  {verdict}")
        failures += 0 if ok else 1
    total = len(cases)
    print(f"{total - failures}/{total} cases pass")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Stereographic conjugation toolkit for planar "
                    "polynomial systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", help="compute the partner system")
    p.add_argument("-i", "--input", required=True,
                   help="system file (JSON or two dx/dt lines), - for stdin")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.add_argument("--check-coprime", action="store_true",
                   help="refuse right sides with a common factor")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("symmetry", help="report all five symmetry kinds")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("infinity",
                       help="classify the infinitely remote point")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_infinity)

    p = sub.add_parser("map-curve",
                       help="image of a circle, line, or point under the "
                            "transition map")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circle", nargs=3, type=_rational,
                       metavar=("CX", "CY", "R2"),
                       help="center and squared radius")
    group.add_argument("--line", nargs=3, type=_rational,
                       metavar=("A", "B", "C"), help="A*x + B*y + C = 0")
    group.add_argument("--point", nargs=2, type=_rational,
                       metavar=("PX", "PY"))
    p.set_defaults(func=_cmd_map_curve)

    p = sub.add_parser("atlas", help="build the two-disk portrait")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--eps1", type=_rational, default=Fraction(1, 5))
    p.add_argument("--eps2", type=_rational, default=Fraction(1, 5))
    p.add_argument("--seeds", type=_seed_rays, metavar="grid:N",
                   help="rays per disk (three rings each)")
    p.add_argument("-o", "--output", help="SVG path (default: stdout)")
    p.add_argument("--json", help="also write the document as JSON here")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("verify",
                       help="recompute every embedded reference case")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
