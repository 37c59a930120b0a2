"""End-to-end checks of the command-line interface."""

import io
import json
import time

import pytest

from artifact.cli import main
from artifact.corpus import load_cases


@pytest.fixture
def sys_file(tmp_path):
    def write(vars_, rhs, name="sys.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"vars": vars_, "rhs": rhs}))
        return str(path)
    return write


class TestConjugate:
    def test_saddle_pair(self, sys_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["conjugate", "-i", sys_file(["x", "y"], ["x", "-y"]),
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["U"] == "-u^3 + 3*u*v^2"
        assert doc["V"] == "-3*u^2*v + v^3"
        assert doc["m"] == 1 and doc["k"] == 0
        assert capsys.readouterr().out == ""

    def test_stdout_default(self, sys_file, capsys):
        code = main(["conjugate", "-i", sys_file(["x", "y"], ["x", "y"])])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["U"] == "-u" and doc["V"] == "-v"

    def test_check_coprime_rejects(self, sys_file, capsys):
        code = main(["conjugate", "--check-coprime",
                     "-i", sys_file(["x", "y"], ["x^2", "x*y"])])
        assert code == 1
        assert "share a nonconstant factor" in capsys.readouterr().err

    def test_check_coprime_rejects_shared_linear_factor(self, sys_file,
                                                        capsys):
        code = main(["conjugate", "--check-coprime",
                     "-i", sys_file(["x", "y"], ["x*(x + y)", "y*(x + y)"])])
        assert code == 1
        assert "share a nonconstant factor" in capsys.readouterr().err

    def test_degree_over_parse_limit_exits_1(self, sys_file, capsys):
        code = main(["conjugate", "-i", sys_file(["x", "y"],
                                                 ["(x+y)^200", "y"])])
        assert code == 1
        assert "exponent 200 exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("rhs", ["(" * 400 + "x" + ")" * 400,
                                     "-" * 5000 + "x"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_nesting_exits_1(self, sys_file, capsys, rhs):
        code = main(["conjugate", "-i", sys_file(["x", "y"], [rhs, "y"])])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: nesting deeper")

    def test_shared_factor_partner_is_not_coprime(self, sys_file, capsys):
        # both sides carry x - 2*y + 1, so the partner's sides share a
        # factor; only the exact chain can say so
        rhs = ["(x - 2*y + 1)*(- 2*x^3*y^2 + 3*y^5 + 2*x^2*y + x + 3*y - 1)",
               "(x - 2*y + 1)*(2*y^5 + 2*x^3*y + 3*y^4 - 3*x^2*y - 2*y^3 + 2)"]
        started = time.monotonic()
        code = main(["conjugate", "-i", sys_file(["x", "y"], rhs)])
        elapsed = time.monotonic() - started
        assert code == 0
        assert json.loads(capsys.readouterr().out)["coprime"] is False
        assert elapsed < 5.0

    def test_stdin(self, sys_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("dx/dt = y\ndy/dt = -x\n"))
        assert main(["conjugate", "-i", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["system"]["rhs"] == ["y", "-x"]

    @pytest.mark.parametrize("key,entry", [
        ("vars", 1), ("vars", None), ("rhs", {"a": "x", "b": "y"}),
        ("rhs", ["x", None]), ("rhs", [1, 2])],
        ids=["vars-number", "vars-null", "rhs-object", "rhs-null-entry",
             "rhs-numbers"])
    def test_malformed_system_json_exits_1(self, sys_file, capsys, key,
                                           entry):
        fields = {"vars": ["x", "y"], "rhs": ["y", "-x"], key: entry}
        assert main(["conjugate", "-i", sys_file(*fields.values())]) == 1
        assert capsys.readouterr().err == (
            f'error: "{key}" must be a list of two strings\n')

    def test_both_sides_zero_exits_1(self, sys_file, capsys):
        code = main(["conjugate", "-i", sys_file(["x", "y"], ["0", "x - x"])])
        assert code == 1
        assert capsys.readouterr().err == "error: both right sides are zero\n"

    def test_missing_file(self, capsys):
        assert main(["conjugate", "-i", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSymmetry:
    def test_five_kinds_reported(self, sys_file, capsys):
        code = main(["symmetry", "-i", sys_file(["x", "y"], ["y", "-x"])])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["origin", "axis-first", "axis-second",
                             "diagonal", "antidiagonal"]
        assert doc["origin"] is True


class TestInfinity:
    def test_radial(self, sys_file, capsys):
        code = main(["infinity", "-i", sys_file(["x", "y"], ["x", "y"])])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "equilibrium"
        assert doc["class"] == "stable dicritical node"

    def test_text_format_input(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("dx/dt = x^2 - y^2\ndy/dt = 2*x*y\n")
        assert main(["infinity", "-i", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "regular"


class TestMapCurve:
    def test_circle_through_origin(self, capsys):
        assert main(["map-curve", "--circle", "-1", "0", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["image"]["kind"] == "line"
        assert doc["text"] == "u + 2 = 0"

    def test_fixed_circle(self, capsys):
        assert main(["map-curve", "--circle", "0", "0", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["image"] == {"kind": "circle", "center": ["0", "0"],
                                "radius2": "4"}

    def test_origin_point(self, capsys):
        assert main(["map-curve", "--point", "0", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["image"] == {"kind": "at-infinity"}
        assert doc["text"] == "the infinitely remote point"

    def test_rational_arguments(self, capsys):
        assert main(["map-curve", "--line", "1/2", "0", "-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["image"]["kind"] == "circle"

    def test_degenerate_line(self, capsys):
        assert main(["map-curve", "--line", "0", "0", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAtlas:
    def test_svg_and_json(self, sys_file, tmp_path):
        svg_path = tmp_path / "atlas.svg"
        json_path = tmp_path / "atlas.json"
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "y"]),
                     "--seeds", "grid:2",
                     "-o", str(svg_path), "--json", str(json_path)])
        assert code == 0
        svg = svg_path.read_bytes()
        assert svg.count(b"<circle") == 2
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == 1 and len(doc["disks"]) == 2

    def test_byte_deterministic(self, sys_file, tmp_path):
        src = sys_file(["x", "y"], ["y", "-x"])
        blobs = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            assert main(["atlas", "-i", src, "--seeds", "grid:2",
                         "-o", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_eps_out_of_range(self, sys_file, capsys):
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "y"]),
                     "--eps1", "8/5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_coefficient_too_large_for_float(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text(f"dx/dt = 1{'0' * 400}*x - y\ndy/dt = x\n")
        code = main(["atlas", "-i", str(path), "-o", str(tmp_path / "a.svg")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the coefficient of x in dx/dt does not fit a float\n")

    def test_bad_seed_spec_is_usage_error(self, sys_file):
        with pytest.raises(SystemExit) as exc:
            main(["atlas", "-i", sys_file(["x", "y"], ["x", "y"]),
                  "--seeds", "hexgrid"])
        assert exc.value.code == 2


class TestVerify:
    def test_all_cases_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        names = {case.name for case in load_cases()}
        assert lines[-1] == f"{len(names)}/{len(names)} cases pass"
        for name in names:
            assert any(line.startswith(name) and " pass" in line
                       for line in lines), name


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_input_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["conjugate"])
        assert exc.value.code == 2

    def test_bad_rational(self):
        with pytest.raises(SystemExit) as exc:
            main(["map-curve", "--circle", "one", "0", "1"])
        assert exc.value.code == 2
