"""The JSON codec: key order of report records, round trips, CLI golden output."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dulac import analyze, darboux
from dulac.analyze import AnalysisReport, LocalCertificate, run_analyze
from dulac.certify import (
    Box2,
    Certificate,
    bendixson,
    bernstein_coefficients,
    certify_dulac,
    certify_positive,
)
from dulac.cli import main
from dulac.darboux import (
    check_integrating_factor,
    cofactor_of,
    darboux_first_integral,
    exponential_factor_cofactor,
    verify_first_integral,
)
from dulac.flow import EquilibriumReport, classify_equilibrium, integrate
from dulac.jsonform import from_json, to_json
from dulac.multiplier import Multiplier
from dulac.parse import parse_multiplier, parse_poly, parse_system
from dulac.synthesis import Matrix2, quadratic_dulac_linear

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "cli_golden.jsonl"
VDP = parse_system((REPO / "systems" / "vanderpol.vf").read_text())
UNIT = Box2(-1, 1, -1, 1)


def round_trip(tp, value):
    return from_json(tp, json.loads(json.dumps(to_json(value))))


@pytest.fixture(scope="module")
def report():
    # one equilibrium with a local certificate, certified strips and a cycle
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyze, "MAX_CYCLE_SEEDS", 2)
        rep = run_analyze(VDP, Box2(-3, 3, -3, 3))
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
        mult = Multiplier(parse_poly("y^2+1"), parse_poly("x"))
        d = to_json(mult)
        assert d == {"type": "exp_poly", "g": "x", "p": "y^2 + 1"}
        assert list(d) == ["type", "g", "p"]


class TestRoundTrips:
    def test_analysis_report(self, report):
        assert round_trip(AnalysisReport, report) == report

    def test_local_certificate_with_exp_poly_multiplier(self):
        mult = Multiplier(parse_poly("y^2+1"), parse_poly("x"))
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


def every_record(report):
    """One value of each record type the package returns, by name."""
    shear = parse_system("P = x\nQ = 1")
    saddle = parse_system("P = x\nQ = -y")
    rotation = parse_system("P = -y\nQ = x")
    curve = cofactor_of(parse_poly("x"), shear)
    factor = exponential_factor_cofactor(parse_poly("y"), parse_poly("1"),
                                         shear)
    # H = x^1 * y^1; its exponents are Gaussian rationals (CRat)
    saddle_integral = darboux_first_integral(
        [cofactor_of(parse_poly("x"), saddle),
         cofactor_of(parse_poly("y"), saddle)])
    strip = Box2(Fraction(-19, 20), Fraction(19, 20), -4, 4)
    return {
        "certificate-positive": certify_positive(
            parse_poly("x^2 + y^2 + 1"), UNIT, 6),
        "certificate-violation": certify_positive(parse_poly("x"), UNIT, 6),
        "certificate-inconclusive": certify_positive(
            parse_poly("x^2 + y^2"), UNIT, 0),
        "dulac-positive": bendixson(VDP, strip),
        "dulac-violation": certify_dulac(
            VDP, parse_multiplier("exp(x)*y"), Box2(0, 1, 0, 1)),
        "darboux-curves": saddle_integral,
        "darboux-exp-factor": darboux_first_integral([curve], [factor]),
        "residual-exact": check_integrating_factor(
            parse_multiplier("1"), rotation),
        "residual-inexact": check_integrating_factor(
            parse_multiplier("x"), rotation),
        "residual-drift": verify_first_integral(saddle_integral, saddle),
        "analysis": report,
        "local-certificate": report.local_certificates[0],
        "equilibrium": report.equilibria[0],
        "limit-cycle": report.limit_cycles[0],
        "trajectory": integrate(VDP, (1.0, 0.0), 1.0),
        "quadratic-multiplier": quadratic_dulac_linear(
            Matrix2.parse("0,1;-1,1")),
        "invariant-curve": curve,
        "exponential-factor": factor,
        "bernstein-patch": bernstein_coefficients(
            parse_poly("x^2 - 1/3*x*y + 2"), Box2(Fraction(-1, 2), 1, 0, 3)),
        "box": Box2(Fraction(-1, 3), 2, 0, Fraction(7, 5)),
    }


RECORD_NAMES = [
    "certificate-positive", "certificate-violation",
    "certificate-inconclusive", "dulac-positive", "dulac-violation",
    "darboux-curves", "darboux-exp-factor", "residual-exact",
    "residual-inexact", "residual-drift", "analysis", "local-certificate",
    "equilibrium", "limit-cycle", "trajectory", "quadratic-multiplier",
    "invariant-curve", "exponential-factor", "bernstein-patch", "box"]
# views with derived keys, which from_json does not decode
ENCODE_ONLY = {"dulac-positive", "dulac-violation", "darboux-curves",
               "darboux-exp-factor"}


@pytest.fixture(scope="module")
def records(report):
    # two short drift trajectories keep the fixture cheap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(darboux, "VERIFY_TRAJECTORIES", 2)
        patch.setattr(darboux, "VERIFY_T_SPAN", 1.0)
        return every_record(report)


class TestEveryRecord:
    """``to_json`` encodes every record the package returns."""

    def test_names_cover_every_record(self, records):
        assert list(records) == RECORD_NAMES

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_to_json_is_plain_data(self, records, name):
        d = to_json(records[name])
        # lists, not tuples, and nothing json cannot write
        assert json.loads(json.dumps(d, allow_nan=False)) == d

    @pytest.mark.parametrize(
        "name", [n for n in RECORD_NAMES if n not in ENCODE_ONLY])
    def test_from_json_round_trip(self, records, name):
        value = records[name]
        assert round_trip(type(value), value) == value

    def test_dulac_certificate_is_the_certify_result(self, records):
        dulac = records["dulac-violation"]
        assert to_json(dulac) == {
            "conclusion": "not_certified",
            "multiplier": "exp(x)*y",
            "box": to_json(Box2(0, 1, 0, 1)),
            "certificate_full": to_json(dulac.certificate)}

    @pytest.mark.parametrize("name", ["darboux-curves",
                                      "darboux-exp-factor"])
    def test_darboux_expression(self, records, name):
        expr = records[name]
        d = to_json(expr)
        assert d["expression"] == str(expr)
        assert d["total_cofactor"] == "0"
        for key, factors in [("curve_factors", expr.curve_factors),
                             ("exp_factors", expr.exp_factors)]:
            assert [f["exponent"] for f in d[key]] == [
                [str(c.re), str(c.im)] for _, c in factors]

    @pytest.mark.parametrize("name, exact", [
        ("residual-exact", True), ("residual-inexact", False),
        ("residual-drift", True)])
    def test_residual_report_keeps_exact(self, records, name, exact):
        d = to_json(records[name])
        assert list(d) == ["symbolic_residual", "exact", "numeric_max_drift",
                           "trajectories_checked"]
        assert d["exact"] is exact

    def test_tuple_without_item_types_is_not_decoded(self):
        # a bare tuple annotation would decode to () and lose the data
        with pytest.raises(TypeError, match="no JSON form"):
            from_json(tuple, [1, 2])


GOLDEN_CASES = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[
    f"{k}-{case['args'][0]}" for k, case in enumerate(GOLDEN_CASES)])
def test_cli_golden(capsys, monkeypatch, case):
    # exact subcommands print the same JSON, byte for byte
    monkeypatch.chdir(REPO)
    code = main(case["args"] + ["--format", "json"])
    assert code == case["code"]
    assert capsys.readouterr().out == case["stdout"]
