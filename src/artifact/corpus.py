"""Embedded reference cases: systems with their known partner systems.

Each case records a system, the expected reduced partner pair with its
(n, k, m) bookkeeping, and optionally the symmetry profile and the status
of the point added at infinity. The data file also gives four cases a
"transcribed" pair, a published variant of the partner system that fails
the exactness identities, with a note; only the tests read those.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .conjugate import DiffSystem
from .parse import parse_polynomial, parse_system
from .poly import BiPoly


@dataclass(frozen=True)
class OracleCase:
    name: str
    system: DiffSystem
    conjugate_vars: tuple[str, str]
    expected_n: int
    expected_k: int
    expected_m: int
    expected_u: BiPoly
    expected_v: BiPoly
    symmetries: dict[str, bool] | None = None
    infinity: dict | None = None


def _substitute(template: str, subs: dict[str, str]) -> str:
    out = template
    for symbol, value in subs.items():
        out = re.sub(rf"\b{re.escape(symbol)}\b", f"({value})", out)
    return out


def load_cases() -> list[OracleCase]:
    """All embedded cases, in file order."""
    raw = resources.files("artifact").joinpath("data/oracle_cases.json")
    data = json.loads(raw.read_text(encoding="utf-8"))
    cases = []
    for entry in data["cases"]:
        subs = entry.get("subs", {})
        vars_ = (entry["vars"][0], entry["vars"][1])
        cvars = (entry["conjugate_vars"][0], entry["conjugate_vars"][1])
        system = parse_system(
            vars_,
            (_substitute(entry["rhs"][0], subs),
             _substitute(entry["rhs"][1], subs)))
        expected = entry["expected"]
        eu = parse_polynomial(_substitute(expected["U"], subs), cvars)
        ev = parse_polynomial(_substitute(expected["V"], subs), cvars)
        cases.append(OracleCase(
            name=entry["name"],
            system=system,
            conjugate_vars=cvars,
            expected_n=expected["n"],
            expected_k=expected["k"],
            expected_m=expected["m"],
            expected_u=eu,
            expected_v=ev,
            symmetries=entry.get("symmetries"),
            infinity=entry.get("infinity"),
        ))
    return cases

