"""End-to-end checks of the command-line interface."""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import curves, run_child
from hypothesis import given, settings
from oracles import atlas_json_text, curve_text_by_cases

from artifact import analyze, atlas, cli
from artifact import conjugate as conjugate_module
from artifact import poly as poly_module
from artifact.charts import Circle, Line, Point, map_curve
from artifact.cli import main
from artifact.corpus import load_cases
from artifact.parse import load_system


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

    def test_check_coprime_refuses_a_bound_beyond_the_prime_table(
            self, sys_file, capsys, monkeypatch):
        # with only 2^61 - 1 in the table, the exact stage cannot decide
        # this shared-factor pair, whose coefficient bound exceeds it
        monkeypatch.setattr(poly_module, "_MERSENNE_EXPONENTS", (61,))
        rhs = ["(x - 2*y + 1)*(1000*x^2 + 999*y + 1)",
               "(x - 2*y + 1)*(999*y^2 - 1000*x + 7)"]
        code = main(["conjugate", "--check-coprime",
                     "-i", sys_file(["x", "y"], rhs)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "prime" in lines[0]

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

    @pytest.mark.parametrize("unit", ["(x+2*y+1)^16*(3*x-y+1)^16",
                                      "(x+y+1)^32"],
                             ids=["product", "power"])
    def test_100kb_expansion_exits_1(self, sys_file, capsys, unit):
        rhs = " + ".join([unit] * (100_000 // (len(unit) + 3)))
        started = time.monotonic()
        code = main(["conjugate", "-i", sys_file(["x", "y"], ["y", rhs])])
        elapsed = time.monotonic() - started
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expansion needs more than")
        assert elapsed < 0.5

    def test_long_literal_exits_1(self, sys_file, capsys):
        code = main(["conjugate", "-i",
                     sys_file(["x", "y"], ["1" * 5000 + "*x", "y"])])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: number longer than the limit")

    def test_shared_factor_partner_is_not_coprime(self, sys_file, capsys):
        # both sides carry x - 2*y + 1, so the partner's sides share a
        # factor; only the exact stage of is_coprime can say so
        rhs = ["(x - 2*y + 1)*(- 2*x^3*y^2 + 3*y^5 + 2*x^2*y + x + 3*y - 1)",
               "(x - 2*y + 1)*(2*y^5 + 2*x^3*y + 3*y^4 - 3*x^2*y - 2*y^3 + 2)"]
        started = time.monotonic()
        code = main(["conjugate", "-i", sys_file(["x", "y"], rhs)])
        elapsed = time.monotonic() - started
        assert code == 0
        assert json.loads(capsys.readouterr().out)["coprime"] is False
        assert elapsed < 5.0

    def test_check_coprime_tests_the_original_pair_once(self, sys_file,
                                                         capsys, monkeypatch):
        calls = []
        real = conjugate_module.is_coprime

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(conjugate_module, "is_coprime", counting)
        path = sys_file(["x", "y"], ["x*y - 1", "x^2 - y^3"])
        assert main(["conjugate", "--check-coprime", "-i", path]) == 0
        assert json.loads(capsys.readouterr().out)["coprime"] is True
        original = load_system(Path(path).read_text())
        assert calls == [original.rhs]

    def test_planted_degree_12_field_in_bounded_time(self, sys_file, capsys):
        # both sides carry x - 2*y + 1 times a seeded dense cofactor; the
        # partner has degree 26, and deciding its coprimality directly
        # takes several times the limit
        rng = random.Random(12)

        def cofactor():
            return " + ".join(f"{c}*x^{i}*y^{j}" for i in range(12)
                              for j in range(12 - i)
                              for c in [rng.randint(-3, 3)] if c)

        rhs = [f"(x - 2*y + 1)*({cofactor()})" for _ in range(2)]
        started = time.monotonic()
        code = main(["conjugate", "-i", sys_file(["x", "y"], rhs)])
        elapsed = time.monotonic() - started
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["k"], doc["coprime"]) == (12, 0, False)
        assert elapsed < 5.0

    def test_stdin(self, sys_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("dx/dt = y\ndy/dt = -x\n"))
        assert main(["conjugate", "-i", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["system"]["rhs"] == ["y", "-x"]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("text", [
        '{"vars": ["x", "y"], "rhs": ["y", "-x^3"]}',
        "dx/dt = y\ndy/dt = -x^3\n"], ids=["json", "text"])
    def test_byte_order_mark_is_dropped(self, text, source, tmp_path,
                                        capsys, monkeypatch):
        # some editors start a UTF-8 file with the mark EF BB BF
        outputs = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
            if source == "file":
                path = tmp_path / "sys.txt"
                path.write_bytes(data)
                assert main(["conjugate", "-i", str(path)]) == 0
            else:
                monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                    io.BytesIO(data), encoding="utf-8"))
                assert main(["conjugate", "-i", "-"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs[0].out
        assert outputs[1] == outputs[0]

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

    @pytest.mark.parametrize("flag,values,curve,text", [
        ("--circle", ["-1/2", "-3/4", "1/9"],
         Circle((Fraction(-1, 2), Fraction(-3, 4)), Fraction(1, 9)),
         "u^2 + v^2 + 576/101*u + 864/101*v + 2304/101 = 0"),
        ("--line", ["1", "-1/3", "1"], Line(1, Fraction(-1, 3), 1),
         "u^2 + v^2 + 4*u - 4/3*v = 0"),
        ("--point", ["-1/3", "-2/5"],
         Point((Fraction(-1, 3), Fraction(-2, 5))), "(-300/61, -360/61)"),
    ], ids=["circle", "line", "point"])
    def test_negative_rational_arguments(self, capsys, flag, values, curve,
                                         text):
        # argparse's own test would read "-1/3" as an unknown option
        assert main(["map-curve", flag, *values]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"] == curve.to_json_dict()
        assert doc["image"] == map_curve(curve).to_json_dict()
        assert doc["text"] == text

    def test_degenerate_line(self, capsys):
        assert main(["map-curve", "--line", "0", "0", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=300)
    @given(curves())
    def test_text_matches_case_analysis(self, curve):
        # one BiPoly A(u^2+v^2) + Bu + Cv + D against a formula per type
        assert cli._curve_text(curve) == curve_text_by_cases(curve)


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

    def test_negative_rational_eps_reaches_the_range_check(self, sys_file,
                                                           capsys):
        args = cli.build_parser().parse_args(
            ["atlas", "-i", "f", "--eps1", "-1/5", "--eps2", "-.5"])
        assert (args.eps1, args.eps2) == (Fraction(-1, 5), Fraction(-1, 2))
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "y"]),
                     "--eps1", "-1/5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: disk parameter must lie in (0, 1]: -1/5\n")

    @pytest.mark.parametrize("flag", ["--eps1", "--eps2"])
    def test_eps_too_small_for_floats(self, flag, sys_file, capsys):
        # below about 1.1e-308, (2 - eps)/eps does not fit a float
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "-y"]),
                     flag, "1e-400"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: disk parameter too small for floats\n")

    def test_tiny_eps_that_fits_a_float(self, sys_file, tmp_path, capsys):
        # a disk of radius 2.8e150 around the saddle's original plane
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "-y"]),
                     "--eps1", "1e-300", "--seeds", "grid:2",
                     "-o", str(tmp_path / "a.svg")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_coefficient_too_large_for_float(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text(f"dx/dt = 1{'0' * 400}*x - y\ndy/dt = x\n")
        code = main(["atlas", "-i", str(path), "-o", str(tmp_path / "a.svg")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the coefficient of x in dx/dt does not fit a float\n")

    def test_step_underflow_exits_0(self, tmp_path, capsys):
        # dx/dt = 10^300 x^2 is too stiff for any step the integrator
        # may take; the exponent cap refuses 10^300, so write it out.
        # Every run ends "step-underflow" at its start, and the atlas
        # lists each of them with its one sample
        path = tmp_path / "sys.txt"
        path.write_text(f"dx/dt = 1{'0' * 300}*x^2\ndy/dt = y\n")
        doc = tmp_path / "a.json"
        code = main(["atlas", "-i", str(path), "-o", str(tmp_path / "a.svg"),
                     "--json", str(doc)])
        assert code == 0
        assert capsys.readouterr().err == ""
        disks = json.loads(doc.read_text())["disks"]
        for disk in disks:
            runs = disk["trajectories"]
            assert len(runs) == 48   # 24 seeds, each forward and backward
            assert {(t["termination"], len(t["samples"])) for t in runs} \
                == {("step-underflow", 1)}

    # one atlas each with a one-sample "step-underflow" run, a clipped
    # exit and a "closed" run
    @pytest.mark.parametrize("rhs,termination", [
        ([f"1{'0' * 300}*x^2", "y"], "step-underflow"),
        (["x", "-y"], "exited-outer-disk"),
        (["y", "-x"], "closed"),
    ], ids=["step-underflow", "clipped-exit", "closed"])
    def test_streamed_files_equal_the_whole_documents(self, rhs, termination,
                                                      sys_file, tmp_path):
        svg, doc_path = tmp_path / "a.svg", tmp_path / "a.json"
        src = sys_file(["x", "y"], rhs)
        assert main(["atlas", "-i", src, "--seeds", "grid:3",
                     "-o", str(svg), "--json", str(doc_path)]) == 0
        doc = atlas.build_atlas(load_system(Path(src).read_text()),
                                atlas.AtlasConfig(rays=3))
        runs = [t for disk in doc.disks for t in disk.trajectories]
        assert termination in {t.termination for t in runs}
        if termination == "step-underflow":
            assert {len(t.samples) for t in runs} == {1}
        assert svg.read_bytes() == atlas.render_svg(doc)
        assert doc_path.read_bytes() == atlas_json_text(doc).encode()

    @pytest.mark.parametrize("outputs,renders", [
        (["--json", "a.json"], 0), (["-o", "a.svg"], 1),
        (["-o", "a.svg", "--json", "a.json"], 1), ([], 1)])
    def test_svg_rendered_only_when_written(self, outputs, renders,
                                            sys_file, tmp_path, monkeypatch,
                                            capsysbinary):
        calls = []
        for name in ("svg_pieces", "render_svg"):
            real = getattr(atlas, name)
            monkeypatch.setattr(atlas, name, lambda doc, real=real: (
                calls.append(doc) or real(doc)))
        argv = ["atlas", "-i", sys_file(["x", "y"], ["x", "-y"]),
                "--seeds", "grid:2"]
        argv += [str(tmp_path / word) if word.startswith("a.") else word
                 for word in outputs]
        assert main(argv) == 0
        assert len(calls) == renders
        out = capsysbinary.readouterr().out
        assert out.startswith(b"<svg") if not outputs else out == b""

    def test_seed_grid_past_the_cap_exits_1(self, sys_file, capsys):
        # refused before any seed is built, so it returns at once
        started = time.monotonic()
        code = main(["atlas", "-i", sys_file(["x", "y"], ["x", "-y"]),
                     "--seeds", "grid:1000000000"])
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 1000000000 rays exceed the limit of 360\n")

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


    def test_conjugates_each_case_once(self, monkeypatch, capsys):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, analyze):
            monkeypatch.setattr(module, "conjugate", counted(module.conjugate))
        assert main(["verify"]) == 0
        capsys.readouterr()
        assert len(calls) == len(load_cases()) == 27


def test_subcommands_leave_numpy_unloaded(sys_file, tmp_path):
    # the library runs on the standard library alone, the atlas's float
    # integration included
    svg = str(tmp_path / "saddle.svg")
    done = run_child(f"""
        import sys
        import artifact
        loaded = "numpy" in sys.modules
        from artifact.cli import main
        codes = (main(["conjugate", "-i", {sys_file(["x", "y"],
                                                   ["x*y - 1", "x^2"])!r}]),
                 main(["verify"]),
                 main(["atlas", "-i", {sys_file(["x", "y"], ["x", "-y"],
                                                "saddle.json")!r},
                       "--seeds", "grid:2", "-o", {svg!r}]))
        sys.exit(1 if loaded or "numpy" in sys.modules else max(codes))
    """)
    assert done.returncode == 0, done.stderr
    assert Path(svg).read_text().startswith("<svg")


def test_library_import_starts_no_thread():
    # atlas._may_fork reads threading.active_count(), which sees only
    # Python's threads; a library that started one of its own (as
    # numpy's OpenBLAS pool does) would make a fork unsafe behind its back
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count OS threads in")
    done = run_child("""
        import importlib, os, pkgutil, sys
        import artifact
        for module in pkgutil.iter_modules(artifact.__path__):
            importlib.import_module("artifact." + module.name)
        print(len(os.listdir("/proc/self/task")), "numpy" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False"]


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

    @pytest.mark.parametrize("word", ["-x", "-1/0"])
    def test_dash_word_that_is_no_rational(self, word):
        with pytest.raises(SystemExit) as exc:
            main(["map-curve", "--line", "1", word, "1"])
        assert exc.value.code == 2
