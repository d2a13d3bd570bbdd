"""CLI subcommands, report schema, exit codes, and serialization round-trips."""

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dulac.analyze
import dulac.darboux
import dulac.errors
import dulac.flow
import dulac.synthesis
from dulac import cli
from dulac.analyze import (
    BEST_EFFORT_NOTE,
    P_CONNECTED_NOTE,
    AnalysisReport,
    run_analyze,
)
from dulac.certify import Box2
from dulac.cli import build_parser, main, parse_region
from dulac.jsonform import from_json, to_json
from dulac.parse import parse_system
from dulac.synthesis import Matrix2

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"

VDP = str(SYSTEMS / "vanderpol.vf")
RADIAL = str(SYSTEMS / "radial.vf")
ROTATION = str(SYSTEMS / "rotation.vf")
CUBIC = str(SYSTEMS / "cubic_circle.vf")
SADDLE = str(SYSTEMS / "saddle.vf")
SHEAR = str(SYSTEMS / "shear.vf")

SCHEMA_KEYS = {"system", "command", "result", "certificate", "notes"}
CERT_KEYS = {"outcome", "carrier", "witness", "depth"}


def run_json(capsys, argv) -> tuple:
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_parse(self, capsys):
        code, report = run_json(capsys, ["parse", "--system", VDP])
        assert code == 0
        assert set(report) == SCHEMA_KEYS
        assert report["result"]["Q"] == "-x^2*y - x + y"
        assert report["result"]["params"] == {"mu": "1"}

    def test_equilibria(self, capsys):
        code, report = run_json(capsys, [
            "equilibria", "--system", VDP, "--region=-3:3,-3:3"])
        assert code == 0
        eqs = report["result"]["equilibria"]
        assert len(eqs) == 1
        assert eqs[0]["classification"] == "focus"

    def test_dulac_linear(self, capsys):
        code, report = run_json(capsys, ["dulac-linear", "--matrix", "0,1;-1,1"])
        assert code == 0
        r = report["result"]
        assert (r["b20"], r["b11"], r["b02"]) == ("3/7", "-4/7", "6/7")
        assert r["closed_form"]["reading"] == "c^2 - 3d^2"

    def test_bendixson_positive(self, capsys):
        code, report = run_json(capsys, [
            "bendixson", "--system", VDP, "--region=-0.95:0.95,-4:4"])
        assert code == 0
        cert = report["certificate"]
        assert set(cert) == CERT_KEYS
        assert cert["outcome"] == "positive"
        assert cert["witness"] is None
        assert report["result"]["conclusion"] == \
            "no_periodic_orbit_fully_contained"

    def test_bendixson_violation_witness(self, capsys):
        code, report = run_json(capsys, [
            "bendixson", "--system", VDP, "--region=-3:3,-3:3"])
        assert code == 0
        cert = report["certificate"]
        assert cert["outcome"] == "violation"
        wx, wy = cert["witness"]
        assert isinstance(wx, str) and isinstance(wy, str)
        from fractions import Fraction
        from dulac.parse import parse_poly
        carrier = parse_poly(cert["carrier"])
        value = carrier.evaluate_exact(Fraction(wx), Fraction(wy))
        assert value.re <= 0

    def test_certify_with_multiplier(self, capsys):
        code, report = run_json(capsys, [
            "certify", "--system", RADIAL, "--region", "1:2,1:2",
            "--multiplier", "(x^2+y^2)/4"])
        assert code == 0
        assert report["certificate"]["outcome"] == "positive"
        assert report["certificate"]["carrier"] == "x^2 + y^2"

    def test_local_dulac_point(self, capsys):
        code, report = run_json(capsys, [
            "local-dulac", "--system", VDP, "--point", "0,0"])
        assert code == 0
        entries = report["result"]["local_certificates"]
        assert len(entries) == 1
        assert entries[0]["multiplier"] == "3/7*x^2 - 4/7*x*y + 6/7*y^2"
        assert report["certificate"]["outcome"] == "positive"

    def test_cofactor(self, capsys):
        code, report = run_json(capsys, [
            "cofactor", "--system", CUBIC, "--curves", "x^2 + y^2 - 1"])
        assert code == 0
        assert report["result"]["curves"][0]["k"] == "-2*x^2 - 2*y^2"

    def test_cofactor_not_invariant(self, capsys):
        code, report = run_json(capsys, [
            "cofactor", "--system", SADDLE, "--curves", "x + 1"])
        assert code == 0
        entry = report["result"]["curves"][0]
        assert entry["error"] == "not_invariant"
        assert entry["remainder"] == "-1"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cofactor_empty_curve_list(self, capsys, fmt):
        # exited 0 with "curves": [] (an empty line in text mode)
        assert main(["cofactor", "--system", VDP, "--curves", ";",
                     "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: at least one invariant curve needed\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("curve", ["x^2 + y^2 - 10^400",
                                       "10^400*x^2 + 10^400*y^2 - 1"],
                             ids=["constant_term", "leading_terms"])
    def test_curve_beyond_float_range_stays_exact(self, capsys, curve):
        # the advisory singular-point probe exited 3 with "... is beyond
        # float range"; the exact cofactor under the rotation is 0, and the
        # probe's warning is a note, not a Python warning on stderr
        for command in ("cofactor", "darboux"):
            code = main([command, "--system", ROTATION, "--curves", curve,
                         "--format", "json"])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            report = json.loads(captured.out)
            (note,) = report["notes"]
            assert note.startswith("singular points not probed: ")
            assert note.endswith("is beyond float range")
            if command == "cofactor":
                (entry,) = report["result"]["curves"]
                assert entry["k"] == "0"
            else:
                integral = report["result"]["first_integral"]
                assert integral["total_cofactor"] == "0"
                assert [c["k"] for c in integral["curve_factors"]] == ["0"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command",
                             ["cofactor", "darboux", "verify-integral"])
    def test_singular_curve_warnings_become_notes(self, capsys, command):
        # the double circle is singular all along x^2 + y^2 = 1, where the
        # rotation does not vanish: each probed point was a Python warning.
        # Listed twice, the curve is probed twice, and each note came twice.
        seen = []
        for curves in ["(x^2+y^2-1)^2", "(x^2+y^2-1)^2;(x^2+y^2-1)^2"]:
            argv = [command, "--system", ROTATION, "--curves", curves]
            assert main(argv + ["--format", "json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            notes = json.loads(captured.out)["notes"]
            assert len(notes) == 28
            assert all(
                n.startswith("singular point (")
                and n.endswith(") of the curve is not a zero of the field")
                for n in notes)
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert [line[len("note: "):] for line in captured.out.splitlines()
                    if line.startswith("note: ")] == notes
            seen.append(notes)
        assert seen[0] == seen[1]

    def test_expfactor(self, capsys):
        code, report = run_json(capsys, [
            "expfactor", "--system", str(SYSTEMS / "saddle.vf"), "--g", "0"])
        assert code == 0
        assert report["result"]["k"] == "0"

    def test_intfactor(self, capsys):
        code, report = run_json(capsys, [
            "intfactor", "--system", ROTATION, "--multiplier", "1"])
        assert code == 0
        assert report["result"]["verdict"] == "integrating factor"

    @pytest.mark.parametrize("multiplier", ["0", "exp(x)*0"])
    def test_intfactor_rejects_zero(self, capsys, multiplier):
        # mu = 0 was reported "integrating factor (residual 0)", exit 0
        assert main(["intfactor", "--system", RADIAL, "--multiplier",
                     multiplier]) == 3
        assert capsys.readouterr().err == "error: mu must be nonzero\n"

    def test_inv_intfactor(self, capsys):
        code, report = run_json(capsys, [
            "inv-intfactor", "--system", RADIAL, "--multiplier", "x^2+y^2"])
        assert code == 0
        assert report["result"]["verdict"] == "inverse integrating factor"

    def test_inv_intfactor_rejects_exp(self, capsys):
        # a given g of 0 is still the exponential form
        for multiplier in ("exp(x)", "exp(0)*x"):
            assert main(["inv-intfactor", "--system", SADDLE, "--multiplier",
                         multiplier]) == 3
            assert capsys.readouterr().err == (
                "error: inverse integrating factors must be polynomials\n")

    def test_darboux(self, capsys):
        code, report = run_json(capsys, [
            "darboux", "--system", SADDLE, "--curves", "x;y"])
        assert code == 0
        expr = report["result"]["first_integral"]
        assert expr["expression"] == "(x)^1 * (y)^1"
        assert expr["total_cofactor"] == "0"

    def test_darboux_no_relation(self, capsys):
        code, report = run_json(capsys, [
            "darboux", "--system", CUBIC, "--curves", "x^2+y^2-1"])
        assert code == 0
        assert report["result"]["first_integral"] is None

    def test_verify_integral(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.darboux, "VERIFY_TRAJECTORIES", 2)
        monkeypatch.setattr(dulac.darboux, "VERIFY_T_SPAN", 5.0)
        code, report = run_json(capsys, [
            "verify-integral", "--system", SADDLE, "--curves", "x;y"])
        assert code == 0
        assert report["result"]["symbolic_residual"] == "0"
        assert report["result"]["numeric_max_drift"] < 1e-6

    def test_simulate_csv(self, capsys):
        code = main(["simulate", "--system", ROTATION, "--z0", "1,0",
                     "--t-span", "1.0", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,x,y"
        assert lines[1].startswith("0,1,0")

    def test_limit_cycle(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.flow, "CYCLE_TOL", 1e-9)
        code, report = run_json(capsys, [
            "limit-cycle", "--system", VDP, "--seed", "2,0"])
        assert code == 0
        cyc = report["result"]["limit_cycle"]
        assert cyc["stability"] == "stable"
        assert 6.6 <= cyc["period"] <= 6.73


class TestFieldAtSeed:
    """``limit-cycle``, ``simulate`` and ``local-dulac`` where the field is
    zero or nan."""

    NAN_FIELD = "P = x^2*y - x*y^2\nQ = 1\n"  # inf - inf far out
    NAN_START = "10^150,10^100"

    def test_limit_cycle_seed_at_zero(self, capsys):
        assert main(["limit-cycle", "--system", VDP, "--seed", "0,0"]) == 3
        assert capsys.readouterr().err == (
            "error: seed (0, 0) is a zero of the field: max(|P|, |Q|) "
            "<= 1e-09\n")

    def test_limit_cycle_nan_field(self, capsys, tmp_path):
        # the message names the field at the seed, not the section built from it
        path = tmp_path / "nan.vf"
        path.write_text(self.NAN_FIELD)
        assert main(["limit-cycle", "--system", str(path), "--seed",
                     self.NAN_START]) == 3
        assert capsys.readouterr().err == (
            "error: the field is not finite at the seed (1e+150, 1e+100): "
            "X = (nan, 1)\n")

    @pytest.mark.parametrize("field", [
        NAN_FIELD, "P = 1\nQ = x^2*y - x*y^2\n", "P = 0\nQ = x^2*y - x*y^2\n",
    ], ids=["nan-one", "one-nan", "zero-nan"])
    def test_local_dulac_nan_field(self, capsys, tmp_path, field):
        # (nan, 1) passed the zero test, and rings were tried around the point
        path = tmp_path / "nan.vf"
        path.write_text(field)
        code, report = run_json(capsys, ["local-dulac", "--system", str(path),
                                         "--point", self.NAN_START])
        assert code == 0
        assert report["result"]["local_certificates"] == []
        assert report["notes"] == [
            "(1e+150, 1e+100): |X(1e+150, 1e+100)| > 1e-09"]

    def test_simulate_nan_start_is_step_failure(self, capsys, tmp_path,
                                                monkeypatch):
        # this hung in RK45.step, so a step now fails the test at once
        class NoStep(dulac.flow.RK45):
            def step(self):
                raise AssertionError("a step was attempted")

        monkeypatch.setattr(dulac.flow, "RK45", NoStep)
        path = tmp_path / "nan.vf"
        path.write_text(self.NAN_FIELD)
        code, report = run_json(capsys, ["simulate", "--system", str(path),
                                         "--z0", self.NAN_START,
                                         "--t-span", "1"])
        assert code == 0
        assert report["result"]["status"] == "step_failure"
        assert report["result"]["steps"] == 0

    @pytest.mark.filterwarnings("error")
    def test_simulate_huge_field_fails_quietly(self, capsys, tmp_path):
        # a finite right-hand side near 1e308: the first step's stages
        # overflow.  The initial step underflows to 0 (0/0 in its estimate),
        # and the run must end in a failed step with nothing on stderr.
        path = tmp_path / "huge.vf"
        path.write_text("P = x^2*y - x*y^2\nQ = 10^200\n")
        assert main(["simulate", "--system", str(path), "--z0",
                     "10^103,10^102", "--t-span", "1e-97"]) == 0
        out, err = capsys.readouterr()
        assert "step_failure, 0 steps" in out
        assert err == ""


@pytest.mark.parametrize("package", ["scipy", "numpy"])
def test_cli_import_loads_no_test_dependency(package):
    # the integrator is flow.RK45, on lists of Python floats; scipy and
    # numpy are test dependencies only
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dulac.cli; print(sorted("
         f"m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["parse", "--system", "no_such_file.vf"]) == 3

    def test_bad_region(self, capsys):
        assert main(["bendixson", "--system", VDP, "--region", "oops"]) == 3

    def test_bad_system(self, tmp_path, capsys):
        bad = tmp_path / "bad.vf"
        bad.write_text("P = x/y\nQ = 1\n")
        assert main(["parse", "--system", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "nonconstant" in err

    def test_trace_zero_matrix(self, capsys):
        assert main(["dulac-linear", "--matrix", "0,1;-1,0"]) == 3

    def test_csv_unavailable(self, capsys):
        assert main(["parse", "--system", VDP, "--format", "csv"]) == 3

    def test_csv_refused_before_the_work(self, capsys, monkeypatch):
        # analyze ran the whole analysis, then refused csv
        def no_work(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(cli, "run_analyze", no_work)
        assert main(["analyze", "--system", VDP, "--region=-4:4,-4:4",
                     "--format", "csv"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'csv'" in captured.err

    def test_csv_refused_before_the_system_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.vf")
        assert main(["parse", "--system", missing, "--format", "csv"]) == 3
        err = capsys.readouterr().err
        assert "invalid choice: 'csv'" in err
        assert "missing.vf" not in err

    @pytest.mark.parametrize("system", sorted(SYSTEMS.glob("*.vf")),
                             ids=lambda path: path.stem)
    def test_bad_min_radius_exits_3_before_work(self, capsys, monkeypatch,
                                                system):
        # --min-radius is no option of analyze or local-dulac: refused as a
        # usage error on every system, before any equilibrium search
        def no_work(*args):
            raise AssertionError("work started before the usage check")

        monkeypatch.setattr(cli, "find_equilibria", no_work)
        monkeypatch.setattr(dulac.analyze, "find_equilibria", no_work)
        monkeypatch.setattr(dulac.synthesis, "local_quadratic_multiplier",
                            no_work)
        commands = (["local-dulac", "--point", "0,0"],
                    ["local-dulac", "--region=-4:4,-4:4"],
                    ["analyze", "--region=-4:4,-4:4"])
        for radius in ("inf", "nan", "0", "-1e-3"):
            for command in commands:
                code = main(command + ["--system", str(system),
                                       f"--min-radius={radius}"])
                captured = capsys.readouterr()
                assert code == 3, (command, radius)
                assert captured.out == ""
                assert captured.err.splitlines()[-1] == (
                    "dulac: error: unrecognized arguments: "
                    f"--min-radius={radius}")

    def test_simulate_stops_at_step_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.flow, "MAX_STEPS", 100)
        code, report = run_json(capsys, ["simulate", "--system", ROTATION,
                                         "--z0", "1,0", "--t-span", "1000"])
        assert code == 0
        assert report["result"]["status"] == "step_failure"
        assert report["result"]["steps"] == 100

    @pytest.mark.parametrize("args", [
        ["certify", "--system", RADIAL, "--region=-1:2,1:2",
         "--multiplier", "(x^2+y^2)/4"],
        ["bendixson", "--system", VDP, "--region=-3:3,-3:3"],
    ], ids=["certify", "bendixson"])
    def test_negative_depth(self, capsys, args):
        # a depth limit of -1 was reported as an inconclusive certificate
        code = main(args + ["--depth", "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "depth must be >= 0" in captured.err
        assert captured.err.count("\n") == 1


    def test_complex_exponent_exits_3(self, capsys):
        # exp(i*x) parses, but its carrier has nonreal coefficients
        code = main(["certify", "--system", RADIAL, "--region", "1:2,1:2",
                     "--multiplier", "exp(i*x)"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: Bernstein certification requires real coefficients\n")


# the arguments that precede each kind of list argument
LIST_ARGS = {
    "region": ["certify", "--system", RADIAL, "--multiplier", "1", "--region"],
    "point": ["local-dulac", "--system", VDP, "--point"],
    "seed": ["limit-cycle", "--system", VDP, "--seed"],
    "z0": ["simulate", "--system", ROTATION, "--t-span", "1", "--z0"],
    "matrix": ["dulac-linear", "--matrix"],
    "curves": ["cofactor", "--system", CUBIC, "--curves"],
    "expfactors": ["darboux", "--system", SADDLE, "--curves", "x;y",
                   "--expfactors"],
}

# (kind, value, stderr) for malformed list arguments; every one exits 3.
# Positions are absolute in the argument, and a shape error points at the
# first extra separator or at where its list ends.
LIST_ARG_ERRORS = [
    ("region", "1:2,1:@", "line 1, column 7: unexpected character '@'"),
    ("region", "oops",
     'line 1, column 5: region must look like "x0:x1,y0:y1"'),
    ("region", "1:2", 'line 1, column 4: region must look like "x0:x1,y0:y1"'),
    ("region", "1:2,3:4,5:6",
     'line 1, column 8: region must look like "x0:x1,y0:y1"'),
    ("region", "1:2:3,4:5",
     'line 1, column 4: region must look like "x0:x1,y0:y1"'),
    ("region", "1,3:4",
     'line 1, column 2: region must look like "x0:x1,y0:y1"'),
    ("region", "1:,3:4", "line 1, column 3: unexpected end of expression"),
    ("region", "1:2,3:x", "line 1, column 7: unknown identifier 'x'"),
    ("region", "2:1,1:2",
     "box must satisfy x_min < x_max and y_min < y_max"),
    ("region", "1:2,3:4)", "line 1, column 8: unexpected token ')'"),
    ("region", "1.:2,3:4", "line 1, column 1: malformed number"),
    ("region", "1:2;3:4",
     'line 1, column 8: region must look like "x0:x1,y0:y1"'),
    ("region", "1:2,\n3:@", "line 2, column 3: unexpected character '@'"),
    ("point", "0", 'line 1, column 2: point must look like "x,y"'),
    ("point", "0,0,0", 'line 1, column 4: point must look like "x,y"'),
    ("point", "0,y", "line 1, column 3: unknown identifier 'y'"),
    ("point", "1/0,0", "line 1, column 2: division by zero"),
    ("seed", "2;0", 'line 1, column 4: point must look like "x,y"'),
    ("seed", "2,(0", "line 1, column 5: expected ')'"),
    ("z0", "1,0:", "line 1, column 4: unexpected token ':'"),
    ("z0", ",0", "line 1, column 1: unexpected end of expression"),
    ("matrix", "0,1;-1", "line 1, column 7: each matrix row must have "
     "two ','-separated entries"),
    ("matrix", "0,1,2;1,1", "line 1, column 4: each matrix row must have "
     "two ','-separated entries"),
    ("matrix", "1;2;3",
     "line 1, column 4: matrix must have two ';'-separated rows"),
    ("matrix", "0,1;-1,1;",
     "line 1, column 9: matrix must have two ';'-separated rows"),
    ("matrix", "0,1;-1,@", "line 1, column 8: unexpected character '@'"),
    ("matrix", "0,1;-1,x", "line 1, column 8: unknown identifier 'x'"),
    # curves are separated by ';' only
    ("curves", "x,y", "line 1, column 2: unexpected token ','"),
    ("curves", "x;y+", "line 1, column 5: unexpected end of expression"),
    ("curves", "x;@", "line 1, column 3: unexpected character '@'"),
    ("curves", "x; y/x", "line 1, column 5: nonpolynomial construct: "
     "division by a nonconstant expression"),
    ("expfactors", "y",
     'line 1, column 2: --expfactors must look like "g1:h1;g2:h2"'),
    ("expfactors", "y:1:2",
     'line 1, column 4: --expfactors must look like "g1:h1;g2:h2"'),
    # the whole list is read before its first factor is used
    ("expfactors", "y:1;x",
     'line 1, column 6: --expfactors must look like "g1:h1;g2:h2"'),
    ("expfactors", "y:@", "line 1, column 3: unexpected character '@'"),
    ("expfactors", "y:", "line 1, column 3: unexpected end of expression"),
]

# work budgets that hung or answered falsely; each must exit 3 at once
BAD_BUDGETS = {
    "simulate_t_span_inf": ["simulate", "--system", ROTATION, "--z0", "1,0",
                            "--t-span", "inf"],
    "simulate_t_span_nan": ["simulate", "--system", ROTATION, "--z0", "1,0",
                            "--t-span", "nan"],
}


class TestListArguments:
    @pytest.mark.parametrize(
        "kind,value,message", LIST_ARG_ERRORS,
        ids=[f"{case[0]}-{n}" for n, case in enumerate(LIST_ARG_ERRORS)])
    def test_error_corpus(self, capsys, kind, value, message):
        code = main(LIST_ARGS[kind] + [value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text,bounds", [
        ("-3:3,-3:3", ("-3", "3", "-3", "3")),
        ("-0.95:0.95,-4:4", ("-19/20", "19/20", "-4", "4")),
        ("1:2,1:2", ("1", "2", "1", "2")),
        ("-4:4,-4:4", ("-4", "4", "-4", "4")),
        ("-1/2:1/2,0.25:3", ("-1/2", "1/2", "1/4", "3")),
        (" 1 : 2 , 3 : 4 ", ("1", "2", "3", "4")),
    ])
    def test_region_values(self, text, bounds):
        box = parse_region(text)
        assert tuple(map(str, (box.x_min, box.x_max, box.y_min, box.y_max))) \
            == bounds

    @pytest.mark.parametrize("text,point", [
        ("0,0", (0.0, 0.0)), ("2,0", (2.0, 0.0)), ("1,0", (1.0, 0.0)),
        ("-1/2, 0.25", (-0.5, 0.25)),
    ])
    def test_point_values(self, text, point):
        assert cli._parse_point(text) == point

    @pytest.mark.parametrize("text,printed", [
        ("0,1;-1,1", "0,1;-1,1"), ("1/2, -3 ; 0.25, 4", "1/2,-3;1/4,4"),
    ])
    def test_matrix_values(self, text, printed):
        assert str(Matrix2.parse(text)) == printed

    @pytest.mark.parametrize("text,curves", [
        ("x^2+y^2-1", ["x^2 + y^2 - 1"]), ("x;y", ["x", "y"]),
        (" x ; ; y ;", ["x", "y"]),
    ])
    def test_curve_values(self, capsys, text, curves):
        code, report = run_json(capsys, ["cofactor", "--system", SADDLE,
                                         "--curves", text])
        assert code == 0
        assert [entry["f"] for entry in report["result"]["curves"]] == curves

    @pytest.mark.parametrize("text,factors", [
        ("y:1", [("y", "1", "1")]),
        ("y:1; ;2*y : 1", [("y", "1", "1"), ("2*y", "1", "2")]),
    ])
    def test_expfactor_values(self, text, factors):
        shear = parse_system(Path(SHEAR).read_text())
        args = argparse.Namespace(curves="x", expfactors=text)
        _, expf = cli._build_darboux(args, shear)
        assert [(str(e.g), str(e.h), str(e.k)) for e in expf] == factors


class TestBadBudgets:
    @pytest.mark.parametrize("argv", BAD_BUDGETS.values(), ids=BAD_BUDGETS)
    def test_exits_3(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


# one cheap invocation per subcommand
ENVELOPE_CASES = {
    "parse": ["--system", VDP],
    "equilibria": ["--system", VDP, "--region=-3:3,-3:3"],
    "dulac-linear": ["--matrix", "0,1;-1,1"],
    "certify": ["--system", RADIAL, "--region", "1:2,1:2",
                "--multiplier", "(x^2+y^2)/4"],
    "bendixson": ["--system", VDP, "--region=-0.95:0.95,-4:4"],
    "local-dulac": ["--system", VDP, "--point", "0,0"],
    "cofactor": ["--system", CUBIC, "--curves", "x^2+y^2-1"],
    "expfactor": ["--system", SADDLE, "--g", "0"],
    "intfactor": ["--system", ROTATION, "--multiplier", "1"],
    "inv-intfactor": ["--system", RADIAL, "--multiplier", "x^2+y^2"],
    "darboux": ["--system", SADDLE, "--curves", "x;y"],
    "verify-integral": ["--system", SADDLE, "--curves", "x;y"],
    "simulate": ["--system", ROTATION, "--z0", "1,0", "--t-span", "1.0"],
    "limit-cycle": ["--system", VDP, "--seed", "2,0"],
    "analyze": ["--system", RADIAL, "--region=-2:2,-2:2"],
}


CSV_COMMANDS = {"simulate", "limit-cycle"}


class TestEnvelope:
    def test_cases_cover_every_subcommand(self):
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        assert set(subs.choices) == set(ENVELOPE_CASES)

    @pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
    def test_csv_only_where_a_record_has_it(self, capsys, command):
        # --format csv is a usage error everywhere but these two
        assert main([command, "--help"]) == 0
        assert ("csv" in capsys.readouterr().out) == (command in CSV_COMMANDS)
        code = main([command] + ENVELOPE_CASES[command] + ["--format", "csv"])
        captured = capsys.readouterr()
        if command in CSV_COMMANDS:
            assert code == 0
            assert captured.out.splitlines()[0] == "t,x,y"
        else:
            assert code == 3
            assert captured.out == ""
            assert "invalid choice: 'csv'" in captured.err

    @pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
    def test_keys_and_command(self, capsys, monkeypatch, command):
        # one short drift trajectory keeps verify-integral cheap
        monkeypatch.setattr(dulac.darboux, "VERIFY_TRAJECTORIES", 1)
        monkeypatch.setattr(dulac.darboux, "VERIFY_T_SPAN", 1.0)
        code, report = run_json(capsys, [command] + ENVELOPE_CASES[command])
        assert code == 0
        assert set(report) == SCHEMA_KEYS
        assert report["command"] == command
        assert isinstance(report["system"], str) and report["system"]
        assert isinstance(report["notes"], list)

    @pytest.mark.parametrize("region", ["-0.95:0.95,-4:4", "-3:3,-3:3"],
                             ids=["positive", "violation"])
    def test_bendixson_is_certify_with_multiplier_one(self, capsys, region):
        argv = ["--system", VDP, f"--region={region}"]
        _, bend = run_json(capsys, ["bendixson"] + argv)
        _, cert = run_json(capsys, ["certify"] + argv + ["--multiplier", "1"])
        assert bend.pop("command") == "bendixson"
        assert cert.pop("command") == "certify"
        assert bend == cert


class TestAnalyzeGolden:
    def test_radial_fully_certified(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        code, report = run_json(capsys, [
            "analyze", "--system", RADIAL, "--region=-2:2,-2:2"])
        assert code == 0
        r = report["result"]
        assert r["uncovered_regions"] == []
        assert r["limit_cycles"] == []
        assert len(r["equilibria"]) == 1
        assert r["equilibria"][0]["classification"] == "node"

    def test_van_der_pol_cycle_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 4)
        code, report = run_json(capsys, [
            "analyze", "--system", VDP, "--region=-4:4,-4:4"])
        assert code == 1
        r = report["result"]
        assert len(r["equilibria"]) == 1
        assert r["equilibria"][0]["classification"] == "focus"
        assert len(r["local_certificates"]) == 1
        assert len(r["global_boxes_certified"]) > 1  # local box + strip tiles
        assert len(r["uncovered_regions"]) > 0
        assert len(r["limit_cycles"]) == 1
        assert r["limit_cycles"][0]["stability"] == "stable"

    def test_rotation_marginal_family(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        code, report = run_json(capsys, [
            "analyze", "--system", ROTATION, "--region=-2:2,-2:2"])
        assert code == 1
        r = report["result"]
        assert r["equilibria"][0]["classification"] == "center_candidate"
        assert r["global_boxes_certified"] == []
        assert r["limit_cycles"][0]["stability"] == "marginal"
        assert any("non-isolated" in n for n in r["notes"])

    def test_no_vacuous_local_certificate(self, tmp_path, capsys,
                                          monkeypatch):
        # at min radius 1/2 no ring above the core certifies around any of
        # the nine equilibria, so no local box may be claimed
        monkeypatch.setattr(dulac.analyze, "LOCAL_MIN_RADIUS", 0.5)
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        path = tmp_path / "cubic_damping.vf"
        path.write_text("P = x - 4*x^3\nQ = y - 4*y^3\n")
        code, report = run_json(capsys, [
            "analyze", "--system", str(path), "--region=-2:2,-2:2"])
        r = report["result"]
        assert len(r["equilibria"]) == 9
        assert r["local_certificates"] == []
        assert r["global_boxes_certified"] == []
        assert sum("local certification failed" in n for n in r["notes"]) == 9
        assert code == 2

    def test_local_certificate_beyond_old_zero_test(self, tmp_path, capsys,
                                                    monkeypatch):
        # Newton stops |X| at 1e-9 near the origin, where local synthesis
        # demanded 1e-10, so analyze certified nothing; local-dulac --point
        # 0,0 proves a box of half-width 1/4
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 0)
        path = tmp_path / "perturbed.vf"
        path.write_text("P = -1/16*x^2 - 1/3*y\n"
                        "Q = 1/25*x^3 + 1/11*x^2*y - 2*x - y\n")
        code, report = run_json(capsys, [
            "analyze", "--system", str(path), "--region=-4:4,-4:4"])
        (local,) = report["result"]["local_certificates"]
        assert math.hypot(*local["equilibrium"]["location"]) < 1e-9
        assert local["certificate"]["outcome"] == "positive"
        box = from_json(Box2, local["box"])
        assert box.contains_point((0.0, 0.0), strict=True)
        assert abs(box.width - Fraction(1, 2)) < 1e-9
        assert not any("local synthesis failed" in n
                       for n in report["notes"])

    def test_inconclusive_exit_code(self, capsys, monkeypatch):
        # disable the cycle scan: uncovered tiles remain unresolved
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 0)
        code, report = run_json(capsys, [
            "analyze", "--system", ROTATION, "--region=-2:2,-2:2"])
        assert code == 2


class TestCycleBudgets:
    """``flow.CYCLE_*`` are the one statement of the cycle search's budgets."""

    def test_analyze_passes_no_budget(self, monkeypatch):
        # analyze ran 20 iterations, each return within t = 200
        calls = []

        def capture(*args, **kwargs):
            calls.append((args, kwargs))
            raise dulac.errors.CycleNotFoundError("captured")

        monkeypatch.setattr(dulac.analyze, "detect_limit_cycle", capture)
        monkeypatch.setattr(dulac.analyze, "TILE_N", 2)
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        region = parse_region("-4:4,-4:4")
        report = run_analyze(parse_system(Path(VDP).read_text()), region)
        assert report.limit_cycles == ()
        assert calls
        assert all(len(args) == 2 and not kwargs for args, kwargs in calls)

    def test_distinct_cycles_of_equal_period(self, tmp_path, capsys,
                                             monkeypatch):
        # stable cycles at r = 1 and r = 3, both of period 2*pi (r = 2 is
        # unstable); the seeds find amplitudes 3, 1, 1, 3, and the report
        # kept only the first.  The damping is scaled by 1/40 to keep the
        # stepping cheap; unscaled on [-4,4]^2 the result is the same.
        path = tmp_path / "three_circles.vf"
        path.write_text(
            "P = -y - x*(x^2+y^2-1)*(x^2+y^2-4)*(x^2+y^2-9)/40\n"
            "Q = x - y*(x^2+y^2-1)*(x^2+y^2-4)*(x^2+y^2-9)/40\n")
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 4)
        code, report = run_json(capsys, [
            "analyze", "--system", str(path), "--region=-2:2,-2:2"])
        assert code == 1
        cycles = report["result"]["limit_cycles"]
        assert sorted(round(c["amplitude_x"], 6) for c in cycles) == [1, 3]
        for c in cycles:
            assert abs(c["period"] - 2 * math.pi) < 1e-6
            assert c["stability"] == "stable"


class TestDeepNesting:
    """Input nested 3,000 deep raised an uncaught RecursionError (exit 1,
    a cycle's exit code for analyze).  Parentheses that deep exit 3; a run
    of 3,000 signs reads as x."""

    DEEP = {"parentheses": "(" * 3000 + "x" + ")" * 3000,
            "unary_minus": "-" * 3000 + "x"}

    @staticmethod
    def _commands(text, path):
        path.write_text(f"P = y\nQ = {text}\n")
        return (["certify", "--system", RADIAL, "--region=1:2,1:2",
                 f"--multiplier={text}"],
                ["cofactor", "--system", SADDLE, f"--curves=x;{text}"],
                ["parse", "--system", str(path)],
                ["analyze", "--system", str(path), "--region=-1:1,-1:1"])

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_exits_3_naming_the_position(self, capsys, tmp_path, shape):
        text = self.DEEP[shape]
        path = tmp_path / "deep.vf"
        if shape == "unary_minus":
            # signs are read in a loop: each command runs as it does on x,
            # and all but analyze (inconclusive on [-1,1]^2) exit 0
            for argv, plain in zip(self._commands(text, path),
                                   self._commands("x", tmp_path / "x.vf")):
                code = main(argv)
                captured = capsys.readouterr()
                plain_code = main(plain)
                plain_captured = capsys.readouterr()
                assert code == plain_code == (2 if argv[0] == "analyze"
                                              else 0), argv
                assert captured.err == plain_captured.err == ""
                assert captured.out == plain_captured.out
            return
        for argv in self._commands(text, path):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error: line ")
            assert "column" in captured.err
            assert "expression nested too deeply" in captured.err
            assert captured.err.count("\n") == 1


class TestLocalDulacRegion:
    @pytest.mark.parametrize("region", ["-4:4,-4:4", "-2:2,-2:2"])
    @pytest.mark.parametrize("system", sorted(SYSTEMS.glob("*.vf")),
                             ids=lambda path: path.stem)
    def test_reports_analyze_local_certificates(self, capsys, monkeypatch,
                                                system, region):
        # local-dulac --region had its own loop: on radial.vf and [-2,2]^2
        # it certified [-1,1]^2, and analyze [-2,2]^2
        code, report = run_json(capsys, ["local-dulac", "--system",
                                         str(system), f"--region={region}"])
        assert code == 0
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 0)
        expected = run_analyze(parse_system(system.read_text()),
                               parse_region(region))
        assert report["result"]["local_certificates"] == [
            {"point": list(c.equilibrium.location),
             "multiplier": str(c.multiplier),
             "box": to_json(c.box),
             "certificate_full": to_json(c.certificate)}
            for c in expected.local_certificates]
        assert report["notes"] == [
            n for n in expected.notes
            if n not in (BEST_EFFORT_NOTE, P_CONNECTED_NOTE)]

    @pytest.mark.parametrize("budget", [
        ["--depth", "-1"],
        ["--min-radius", "inf"],
    ], ids=["depth", "min_radius"])
    def test_bad_budget_exits_3_before_the_search(self, capsys, monkeypatch,
                                                   budget):
        # the budgets are constants: a budget flag is a usage error, refused
        # before the equilibrium search
        def no_work(*args):
            raise AssertionError("the equilibrium search ran")

        monkeypatch.setattr(dulac.analyze, "find_equilibria", no_work)
        monkeypatch.setattr(dulac.synthesis, "local_quadratic_multiplier",
                            no_work)
        for where in (["--region=-4:4,-4:4"], ["--point", "0,0"]):
            code = main(["local-dulac", "--system", VDP] + where + budget)
            captured = capsys.readouterr()
            assert code == 3, where
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"dulac: error: unrecognized arguments: {' '.join(budget)}")

    def test_no_box_fits_at_the_corner(self, capsys):
        # the node sits on the region's corner, where [-1,1]^2 was claimed
        code, report = run_json(capsys, ["local-dulac", "--system", RADIAL,
                                         "--region=0:1,0:1"])
        assert code == 0
        assert report["result"]["local_certificates"] == []
        assert report["notes"] == ["local certification failed at (0, 0): "
                                   "no box around (0, 0) fits the region"]


class TestRoundTrips:
    def test_json_report_round_trip(self, capsys, monkeypatch):
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        code, report = run_json(capsys, [
            "analyze", "--system", VDP, "--region=-4:4,-4:4"])
        text = json.dumps(report)
        assert json.loads(text) == report
        rebuilt = from_json(AnalysisReport, report["result"])
        assert to_json(rebuilt) == report["result"]

    def test_coverage_tiles_region(self, capsys, monkeypatch):
        # every tile center is inside a certified box or an uncovered tile
        monkeypatch.setattr(dulac.analyze, "TILE_N", 10)
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 0)
        code, report = run_json(capsys, [
            "analyze", "--system", VDP, "--region=-4:4,-4:4"])
        rebuilt = from_json(AnalysisReport, report["result"])
        n = 10
        for i in range(n):
            for j in range(n):
                cx = -4 + 8 * (i + 0.5) / n
                cy = -4 + 8 * (j + 0.5) / n
                covered = any(b.contains_point((cx, cy))
                              for b in rebuilt.global_boxes_certified)
                uncovered = any(b.contains_point((cx, cy))
                                for b in rebuilt.uncovered_regions)
                assert covered or uncovered

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["bendixson", "--system", VDP,
                     "--region=-0.95:0.95,-4:4", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certificate"]["outcome"] == "positive"

    def test_parse_region_rationals(self):
        box = parse_region("-1/2:1/2,0.25:3")
        assert box.x_min == -0.5 and box.y_min == 0.25


# required options and exclusive ones, each with argparse's message
USAGE_ERRORS = {
    # a missing --region ended in a TypeError traceback and exit 1
    "equilibria_no_region": (["equilibria", "--system", VDP],
                             "required: --region"),
    "certify_no_region": (["certify", "--system", VDP], "required: --region"),
    "bendixson_no_region": (["bendixson", "--system", VDP],
                            "required: --region"),
    "analyze_no_region": (["analyze", "--system", VDP], "required: --region"),
    # --region was silently ignored next to --point
    "local_dulac_point_and_region": (
        ["local-dulac", "--system", VDP, "--point", "0,0",
         "--region=-1:1,-1:1"], "not allowed with argument --point"),
    "local_dulac_neither": (["local-dulac", "--system", VDP],
                            "one of the arguments --point --region"),
    # these were checked by hand in the handlers
    "no_system": (["parse"], "required: --system"),
    "no_matrix": (["dulac-linear"], "required: --matrix"),
    "cofactor_no_curves": (["cofactor", "--system", SADDLE],
                           "required: --curves"),
    "darboux_no_curves": (["darboux", "--system", SADDLE],
                          "required: --curves"),
    "verify_integral_no_curves": (["verify-integral", "--system", SADDLE],
                                  "required: --curves"),
    "expfactor_no_g": (["expfactor", "--system", SHEAR], "required: --g"),
    # Newton's tolerance is flow.ZERO_TOL, not an option
    "equilibria_tol": (["equilibria", "--system", VDP, "--region=-3:3,-3:3",
                        "--tol", "1e-9"], "unrecognized arguments: --tol"),
    # the cycle scan runs at flow.CYCLE_TOL, as limit-cycle does by default
    "analyze_tol_nan": (["analyze", "--system", VDP, "--region=-4:4,-4:4",
                         "--tol", "nan"], "unrecognized arguments: --tol"),
    "analyze_tol_large": (["analyze", "--system", VDP, "--region=-4:4,-4:4",
                           "--tol", "0.5"], "unrecognized arguments: --tol"),
}

# the budgets of analyze, local-dulac, the cycle search and the drift check
# are module constants (analyze.TILE_N, TILE_DEPTH, MAX_CYCLE_SEEDS,
# synthesis.LOCAL_MIN_RADIUS, LOCAL_MAX_DEPTH, flow.CYCLE_MAX_ITERS,
# CYCLE_TOL, CYCLE_MAX_TIME, INTEGRATE_TOL and darboux.VERIFY_TRAJECTORIES,
# VERIFY_T_SPAN), so each of their twelve old flags is refused as a usage
# error, as --tol and --grid are: (place, flag, value)
REMOVED_FLAG_PLACES = {
    "analyze": ["analyze", "--region=-4:4,-4:4"],
    "local_point": ["local-dulac", "--point", "0,0"],
    "local_region": ["local-dulac", "--region=-4:4,-4:4"],
    "limit_cycle": ["limit-cycle", "--seed", "2,0"],
    "verify_integral": ["verify-integral", "--curves", "x;y"],
    "simulate": ["simulate", "--z0", "1,0", "--t-span", "1"],
}
REMOVED_FLAGS = {
    # values that ran before
    "analyze_tiles": ("analyze", "--tiles", "10"),
    "analyze_depth": ("analyze", "--depth", "6"),
    "analyze_min_radius": ("analyze", "--min-radius", "1e-3"),
    "analyze_max_cycle_seeds": ("analyze", "--max-cycle-seeds", "0"),
    "local_dulac_point_depth": ("local_point", "--depth", "8"),
    "local_dulac_region_min_radius": ("local_region", "--min-radius", "1e-3"),
    "limit_cycle_max_iters": ("limit_cycle", "--max-iters", "25"),
    "limit_cycle_tol": ("limit_cycle", "--tol", "1e-10"),
    "limit_cycle_max_time": ("limit_cycle", "--max-time", "100"),
    "verify_integral_trajectories": ("verify_integral", "--trajectories",
                                     "5"),
    "verify_integral_t_span": ("verify_integral", "--t-span", "10"),
    "simulate_tol": ("simulate", "--tol", "1e-9"),
    # values refused before, once the system was read: tiles 0 divided by
    # zero and tiles -3 tiled nothing, so rotation came out "fully
    # certified"; a depth of -1 was reported as an inconclusive
    # certificate; a min radius of inf ended in an OverflowError traceback
    "analyze_tiles_0": ("analyze", "--tiles", "0"),
    "analyze_tiles_neg": ("analyze", "--tiles", "-3"),
    "analyze_max_cycle_seeds_neg": ("analyze", "--max-cycle-seeds", "-1"),
    "analyze_min_radius_zero": ("analyze", "--min-radius", "0"),
    "analyze_depth_neg": ("analyze", "--depth", "-1"),
    "local_dulac_point_depth_neg": ("local_point", "--depth", "-1"),
    "local_dulac_region_depth_neg": ("local_region", "--depth", "-1"),
    "local_dulac_point_min_radius_0": ("local_point", "--min-radius", "0"),
    "local_dulac_point_min_radius_inf": ("local_point", "--min-radius", "inf"),
    "local_dulac_region_min_radius_inf": ("local_region", "--min-radius",
                                          "inf"),
    # values refused before, once the system was read; unchecked, a
    # negative max time ran the return map in reverse time, a negative max
    # iters ran a return map, then "did not converge within -1
    # iterations", and negative trajectories reported "0 trajectories"
    "limit_cycle_max_time_nan": ("limit_cycle", "--max-time", "nan"),
    "limit_cycle_tol_nan": ("limit_cycle", "--tol", "nan"),
    "verify_integral_t_span_nan": ("verify_integral", "--t-span", "nan"),
    "limit_cycle_max_time_neg": ("limit_cycle", "--max-time", "-100"),
    "verify_integral_trajectories_neg": ("verify_integral", "--trajectories",
                                         "-1"),
    "limit_cycle_max_iters_neg": ("limit_cycle", "--max-iters", "-1"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["certify", "--system", VDP, "--region=-1:1,-1:1", "--depth", "abc"],
        ["parse", "--system", VDP, "--no-such-option"],
        ["simulate", "--system", ROTATION, "--z0", "1,0"],
        [],
        ["equilibria", "--system", VDP, "--region=-3:3,-3:3", "--grid", "8"],
        ["local-dulac", "--system", RADIAL, "--region=-2:2,-2:2",
         "--grid", "8"],
        ["analyze", "--system", RADIAL, "--region=-2:2,-2:2", "--grid", "8"],
    ], ids=["bad_int", "unknown_option", "missing_t_span", "no_subcommand",
            "equilibria_grid", "local_dulac_grid", "analyze_grid"])
    def test_exit_3(self, capsys, argv):
        # argparse exits 2, which analyze reserves for inconclusive coverage
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(),
                             ids=USAGE_ERRORS)
    def test_required_and_exclusive_options(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("place,flag,value", REMOVED_FLAGS.values(),
                             ids=REMOVED_FLAGS)
    def test_removed_budget_flag(self, capsys, tmp_path, place, flag, value):
        # refused before the system file is read: the missing file goes
        # unreported
        missing = str(tmp_path / "missing.vf")
        argv = REMOVED_FLAG_PLACES[place] + ["--system", missing, flag, value]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"dulac: error: unrecognized arguments: {flag} {value}")
        assert "missing.vf" not in captured.err

    def test_simulate_empty_region_is_parsed(self, capsys):
        # an empty --region= was read as "no domain"
        code = main(["simulate", "--system", ROTATION, "--z0", "1,0",
                     "--t-span", "1", "--region="])
        assert code == 3
        assert capsys.readouterr().err == (
            'error: line 1, column 1: region must look like "x0:x1,y0:y1"\n')

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


HUGE = "10^400"


class TestBeyondFloatRange:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--system", ROTATION, "--z0", f"{HUGE},0",
         "--t-span", "1"],
        ["limit-cycle", "--system", VDP, "--seed", f"{HUGE},0"],
        ["local-dulac", "--system", VDP, "--point", f"{HUGE},0"],
        ["equilibria", "--system", VDP, "--region", f"0:{HUGE},0:1"],
        ["local-dulac", "--system", VDP, "--region", f"0:{HUGE},0:1"],
        ["analyze", "--system", VDP, "--region", f"0:{HUGE},0:1"],
        ["simulate", "--system", ROTATION, "--z0", "0,0", "--t-span", "1",
         "--region", f"0:{HUGE},0:1"],
    ], ids=["simulate_z0", "limit_cycle_seed", "local_point",
            "equilibria_region", "local_region", "analyze_region",
            "simulate_region"])
    def test_exit_3(self, capsys, argv):
        # these ended in OverflowError and exit 1, which analyze uses for
        # "a cycle was detected"
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "beyond float range" in captured.err

    def test_names_the_corner_briefly(self, capsys):
        # the whole box was printed, 401 digits of it in one corner
        assert main(["analyze", "--system", VDP, "--region",
                     f"0:{HUGE},-1:1"]) == 3
        assert capsys.readouterr().err == (
            "error: box x_max = 100000...(401 digits) is beyond float "
            "range\n")

    @pytest.mark.parametrize("field,argv", [
        ("P = 10^400*y\nQ = -x", ["analyze", "--region=-1:1,-1:1"]),
        (None, ["analyze", "--region=-10^200:10^200,-10^200:10^200"]),
        (None, ["simulate", "--z0", "10^200,0", "--t-span", "1"]),
    ], ids=["analyze_coefficient", "analyze_power", "simulate_power"])
    def test_field_values_exit_3(self, capsys, tmp_path, field, argv):
        # a coefficient or a power beyond float range ended in an
        # OverflowError traceback and exit 1
        path = VDP
        if field is not None:
            path = tmp_path / "huge.vf"
            path.write_text(field)
        assert main(argv + ["--system", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.err.endswith(" is beyond float range\n")

    def test_analyze_scan_skips_seed_beyond_float_range(self, monkeypatch):
        # no zero of the field and no certified tile, so every tile centre
        # is a seed, and Q = x^2 is beyond float range at each of them
        monkeypatch.setattr(dulac.analyze, "TILE_N", 2)
        monkeypatch.setattr(dulac.analyze, "MAX_CYCLE_SEEDS", 2)
        system = parse_system("P = 1\nQ = x^2")
        report = run_analyze(system, parse_region("10^200:10^201,0:1"))
        assert report.limit_cycles == ()
        assert len(report.uncovered_regions) == 4

    def test_certify_stays_exact(self, capsys):
        code, report = run_json(capsys, ["certify", "--system", VDP,
                                         "--region", f"0:{HUGE},0:1"])
        assert code == 0
        assert report["certificate"]["outcome"] == "violation"
        assert report["result"]["box"]["x_max"] == str(10 ** 400)


def test_simulate_rejects_start_outside_region(capsys):
    # the start lay 4 units outside the box, yet the run reported a
    # boundary crossing and exited 0
    code = main(["simulate", "--system", ROTATION, "--z0", "5,0",
                 "--t-span", "1", "--region=-1:1,-1:1"])
    assert code == 3
    assert "z0 must lie in the domain" in capsys.readouterr().err
