"""The JSON codec: key order of report records, round trips, CLI golden output."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dulac.analyze import AnalysisReport, AnalyzeConfig, LocalCertificate, run_analyze
from dulac.certify import Box2, Certificate, certify_dulac, certify_positive
from dulac.cli import main
from dulac.flow import EquilibriumReport, classify_equilibrium
from dulac.jsonform import from_json, to_json
from dulac.multiplier import ExpPolyMultiplier
from dulac.parse import parse_poly, parse_system

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "cli_golden.jsonl"
VDP = parse_system((REPO / "systems" / "vanderpol.vf").read_text())
UNIT = Box2(-1, 1, -1, 1)


def round_trip(tp, value):
    return from_json(tp, json.loads(json.dumps(to_json(value))))


@pytest.fixture(scope="module")
def report():
    # one equilibrium with a local certificate, certified strips and a cycle
    rep = run_analyze(VDP, Box2(-3, 3, -3, 3),
                      AnalyzeConfig(max_cycle_seeds=2))
    assert rep.local_certificates and rep.limit_cycles
    return rep


class TestKeyOrder:
    def test_analyze_records(self, report):
        d = to_json(report)
        assert list(d) == ["system", "equilibria", "local_certificates",
                           "global_boxes_certified", "uncovered_regions",
                           "limit_cycles", "notes"]
        assert list(d["equilibria"][0]) == [
            "location", "jacobian", "eigenvalues", "classification",
            "hyperbolic"]
        local = d["local_certificates"][0]
        assert list(local) == ["equilibrium", "multiplier", "box",
                               "certificate"]
        assert list(local["multiplier"]) == ["type", "p"]
        assert list(local["certificate"]) == [
            "outcome", "carrier", "witness", "depth", "box", "box_count"]
        for box in [local["box"], *d["global_boxes_certified"],
                    *d["uncovered_regions"]]:
            assert list(box) == ["x_min", "x_max", "y_min", "y_max"]
        assert list(d["limit_cycles"][0]) == [
            "period", "amplitude_x", "return_map_slope", "stability",
            "points", "times"]

    def test_exp_poly_multiplier(self):
        mult = ExpPolyMultiplier(g=parse_poly("x"), p=parse_poly("y^2+1"))
        assert to_json(mult) == {"type": "exp_poly", "g": "x", "p": "y^2 + 1"}


class TestRoundTrips:
    def test_analysis_report(self, report):
        assert round_trip(AnalysisReport, report) == report

    def test_local_certificate_with_exp_poly_multiplier(self):
        mult = ExpPolyMultiplier(g=parse_poly("x"), p=parse_poly("y^2+1"))
        box = Box2(Fraction(1, 4), Fraction(3, 4), 0, 1)
        local = LocalCertificate(
            equilibrium=classify_equilibrium(VDP, (0.0, 0.0)),
            multiplier=mult, box=box,
            certificate=certify_dulac(VDP, mult, box).certificate)
        assert round_trip(LocalCertificate, local) == local

    @pytest.mark.parametrize("poly, depth, outcome", [
        ("x^2 + y^2 + 1", 6, "positive"),
        ("x", 6, "violation"),
        ("x^2 + y^2", 0, "inconclusive"),
    ], ids=["positive", "violation", "inconclusive"])
    def test_certificate_outcomes(self, poly, depth, outcome):
        cert = certify_positive(parse_poly(poly), UNIT, depth)
        assert to_json(cert)["outcome"] == outcome
        assert round_trip(Certificate, cert) == cert

    def test_equilibrium_with_complex_eigenvalues(self):
        eq = classify_equilibrium(VDP, (0.0, 0.0))
        d = to_json(eq)
        assert d["jacobian"] == [[0.0, 1.0], [-1.0, 1.0]]
        assert d["eigenvalues"] == [[0.5, math.sqrt(3) / 2],
                                    [0.5, -math.sqrt(3) / 2]]
        assert round_trip(EquilibriumReport, eq) == eq


GOLDEN_CASES = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[
    f"{k}-{case['args'][0]}" for k, case in enumerate(GOLDEN_CASES)])
def test_cli_golden(capsys, monkeypatch, case):
    # exact subcommands print the same JSON, byte for byte
    monkeypatch.chdir(REPO)
    code = main(case["args"] + ["--format", "json"])
    assert code == case["code"]
    assert capsys.readouterr().out == case["stdout"]
