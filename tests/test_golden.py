"""Golden outputs: digests of what the CLI and the exact core emit today.

Each pin is the first 16 hex digits of a sha256 digest, one pin per
corpus case, so a failure names the case whose output changed. A pin
changes only with a deliberate change of output, never to make a
refactor pass.
"""

import hashlib
import json

import pytest

from artifact.cli import main
from artifact.conjugate import conjugate
from artifact.corpus import load_cases

CASES = {case.name: case for case in load_cases()}


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()[:16]


def _system_file(tmp_path, case) -> str:
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "vars": list(case.system.vars),
        "rhs": [p.to_text() for p in case.system.rhs]}))
    return str(path)


CONJUGATE = {
    "4.4->4.5": "f1fe35d9fec6bd14",
    "4.6->4.7": "4e8275565f6ce760",
    "4.6->4.8": "fa6cbd34b62feb3b",
    "4.9->4.10": "c973652adebb6648",
    "4.9->4.11": "d8031edddc7f3bc6",
    "4.9->4.12": "231c9aeb960f5533",
    "5.1->5.2": "aba16d2d452f81bf",
    "5.3->5.4": "3e278fb2691d8b9c",
    "5.5->5.6": "0f5425aa149e6a97",
    "5.7->5.8": "99c14fd053342cf8",
    "5.9->5.10": "9eeca9ddc290870e",
    "5.11->5.12": "4163a745c86f61d1",
    "6.1->6.2": "d1362b00ae14b650",
    "6.3->6.4": "72e531a77e010283",
    "6.5->6.6": "1d85eacf9a535495",
    "6.7->6.8": "0636f27078074a9f",
    "7.1->7.2": "2078940904a8d1b5",
    "7.3->7.4": "b390d47172d60fc6",
    "7.5->7.6": "9b7fc81780345fc3",
    "7.7->7.8": "499cb36ce628cacc",
    "9.1->9.2": "38714ce0d8f84b37",
    "9.4->9.5": "eb9a635554545a6d",
    "9.6->9.7": "45187a47dd1008ea",
    "9.8->9.9": "400aa6af5c015f00",
    "9.10->9.13": "c4431928cc21cc72",
    "9.11->9.14": "6b07e7d25ea9f5e1",
    "9.12->9.15": "7c8035259c0c05cd",
}


@pytest.mark.parametrize("name", sorted(CONJUGATE))
def test_conjugate_stdout(name, tmp_path, capsys):
    assert main(["conjugate", "-i", _system_file(tmp_path, CASES[name])]) == 0
    assert _digest(capsys.readouterr().out.encode()) == CONJUGATE[name]


def test_conjugate_pins_every_case():
    assert sorted(CONJUGATE) == sorted(CASES)


VERIFY = "7bbcb0b3ac9ce76e"


def test_verify_stdout(capsys):
    assert main(["verify"]) == 0
    assert _digest(capsys.readouterr().out.encode()) == VERIFY


# The compiled float field sums each component's terms in the order the
# exact core built them (artifact.dynamics._compile), so the partner's
# term order fixes the last bits of every partner trajectory. Two
# polynomials that are equal can still differ here; this pin catches a
# rewrite of the exact core that keeps the polynomials and moves the
# atlas.
TERM_ORDER = {
    "4.4->4.5": "91c03ca66f9703ba",
    "4.6->4.7": "e58f28c460bfb0e5",
    "4.6->4.8": "4488a21f1cbf893d",
    "4.9->4.10": "8df90b06babc13e3",
    "4.9->4.11": "b52c50efb2d92f9b",
    "4.9->4.12": "357a709e190a1b3c",
    "5.1->5.2": "ab2ab39d54fd180d",
    "5.3->5.4": "8d6e83f07825d436",
    "5.5->5.6": "2f6723de304794fc",
    "5.7->5.8": "00ee0e55440ccb07",
    "5.9->5.10": "7c2edc168d70a344",
    "5.11->5.12": "3840ca6eaddeabe7",
    "6.1->6.2": "e9853f7c5e27d33f",
    "6.3->6.4": "a7157a463dd1a2e4",
    "6.5->6.6": "785708e8d736d692",
    "6.7->6.8": "e708eed3590d1f2a",
    "7.1->7.2": "094bb4c06c75a09f",
    "7.3->7.4": "e67f453e5104b507",
    "7.5->7.6": "cf0017506e43fcdf",
    "7.7->7.8": "a8dbf14df4a87a19",
    "9.1->9.2": "905012e9d2f49c68",
    "9.4->9.5": "348d6c599712ea43",
    "9.6->9.7": "39776a25f75e69ca",
    "9.8->9.9": "905012e9d2f49c68",
    "9.10->9.13": "021b12d6be062ace",
    "9.11->9.14": "bf032f438e16a95e",
    "9.12->9.15": "db0c590ed67f3806",
}


@pytest.mark.parametrize("name", sorted(TERM_ORDER))
def test_partner_term_order(name):
    partner = conjugate(CASES[name].system).conjugate
    order = [list(p.terms) for p in partner.rhs]
    assert _digest(json.dumps(order).encode()) == TERM_ORDER[name]


def test_term_order_pins_every_case():
    assert sorted(TERM_ORDER) == sorted(CASES)


# SVG and JSON of the default atlas, for the corpus cases whose atlas
# finishes. 4.9->4.10, 9.4->9.5, 9.8->9.9 and 9.12->9.15 stop with
# NumericOverflow; 9.6->9.7 and 9.11->9.14 run for minutes. The samples
# go through the platform libm's pow, sin and cos, so these pins hold
# for the libm they were made with; another libm may move a last bit.
ATLAS = {
    "4.4->4.5": "0db75e4848e1903b",
    "4.6->4.7": "cdf7cee67801d0d2",
    "4.6->4.8": "736f0b9ccafddf53",
    "4.9->4.11": "0a34a1ef9d354cab",
    "4.9->4.12": "50c689cc1715615d",
    "5.1->5.2": "5105832567328264",
    "5.3->5.4": "f9d109ce98750c45",
    "5.5->5.6": "be3f24732209c250",
    "5.7->5.8": "d2199aae4c8ccfda",
    "5.9->5.10": "640c8b69aa1ee9fe",
    "5.11->5.12": "b4c4f9fcebd50289",
    "6.1->6.2": "a211fe8331f55514",
    "6.3->6.4": "c6ebf459a1f41f5b",
    "6.5->6.6": "78de0f0d62f7ae87",
    "6.7->6.8": "2deb24a7cb0b6b84",
    "7.1->7.2": "e357b32316e6ec7b",
    "7.3->7.4": "080c9551eeb8a1f3",
    "7.5->7.6": "668165042a77e68b",
    "7.7->7.8": "b58c3bb167ce19d2",
    "9.1->9.2": "fb62123b33eba3d8",
    "9.10->9.13": "c4269bebfb4cbf3a",
}


@pytest.mark.parametrize("name", sorted(ATLAS))
def test_atlas_outputs(name, tmp_path):
    svg, doc = tmp_path / "atlas.svg", tmp_path / "atlas.json"
    assert main(["atlas", "-i", _system_file(tmp_path, CASES[name]),
                 "-o", str(svg), "--json", str(doc)]) == 0
    assert _digest(svg.read_bytes(), doc.read_bytes()) == ATLAS[name]
