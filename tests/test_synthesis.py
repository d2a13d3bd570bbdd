"""Multiplier synthesis: quadratic, gradient, local, and flow-box routes."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dulac import analyze, synthesis
from dulac.analyze import run_analyze
from dulac.certify import Box2, Positive, certify_positive
from dulac.errors import (
    CertificationFailedError,
    ConstantInputError,
    DoubleZeroEigenvalueError,
    FlowBoxError,
    NotAnEquilibriumError,
    SingularAnsatzError,
    TraceZeroError,
)
from dulac.multiplier import ExpPolyMultiplier, PolyMultiplier
from dulac.parse import parse_poly, parse_system
from dulac.poly import Point, Poly, VectorField, div_product, divergence
from dulac.synthesis import (
    Matrix2,
    QuadraticMultiplier,
    Reading,
    RECORDED_READING,
    certify_punctured_box,
    flowbox_dulac,
    gradient_field,
    gradient_multipliers,
    local_dulac_hyperbolic,
    local_quadratic_multiplier,
    printed_coefficients,
    quadratic_dulac_linear,
)

from conftest import (batch_eval, rand_field, rand_fraction, rand_poly,
                      same_float, sample_box)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
VDP_TEXT = "P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1"
# cubic damping: the local carrier changes sign near radius 1/2
CUBIC_DAMPING = "P = x - 4*x^3\nQ = y - 4*y^3"


def rand_matrix(rng: random.Random) -> Matrix2:
    return Matrix2(rand_fraction(rng), rand_fraction(rng),
                   rand_fraction(rng), rand_fraction(rng))


def valid_matrix(rng: random.Random) -> Matrix2:
    while True:
        m = rand_matrix(rng)
        if m.trace != 0 and (3 * m.a ** 2 + 10 * m.a * m.d
                             - 4 * m.b * m.c + 3 * m.d ** 2) != 0:
            return m


class TestQuadraticDulacLinear:
    @pytest.mark.parametrize("matrix,expected", [
        ("1,0;0,1", (Fraction(1, 4), Fraction(0), Fraction(1, 4))),
        ("1,0;0,2", (Fraction(1, 5), Fraction(0), Fraction(4, 7))),
        ("1,0;1,1", (Fraction(13, 32), Fraction(3, 8), Fraction(1, 4))),
    ])
    def test_worked_examples(self, matrix, expected):
        quad = quadratic_dulac_linear(Matrix2.parse(matrix))
        assert (quad.b20, quad.b11, quad.b02) == expected

    def test_trace_zero(self):
        with pytest.raises(TraceZeroError):
            quadratic_dulac_linear(Matrix2.parse("0,1;-1,0"))

    def test_double_zero_eigenvalue(self):
        with pytest.raises(DoubleZeroEigenvalueError):
            quadratic_dulac_linear(Matrix2.parse("0,1;0,0"))

    def test_singular_ansatz(self):
        # a=1, d=1, bc = (3+10+3)/4 = 4: take b=2, c=2
        with pytest.raises(SingularAnsatzError):
            quadratic_dulac_linear(Matrix2.parse("1,2;2,1"))

    def test_exactness_on_random_matrices(self, rng):
        for _ in range(100):
            m = valid_matrix(rng)
            quad = quadratic_dulac_linear(m)
            field = m.field()
            carrier = div_product(quad.to_poly(), field)
            assert carrier == field.p * field.p + field.q * field.q

    def test_transpose_similarity(self, rng):
        # preconditions depend only on a, d and the product bc
        for _ in range(200):
            m = rand_matrix(rng)
            mt = Matrix2(m.a, m.c, m.b, m.d)
            try:
                quadratic_dulac_linear(m)
                ok = True
            except (TraceZeroError, SingularAnsatzError,
                    DoubleZeroEigenvalueError):
                ok = False
            try:
                quadratic_dulac_linear(mt)
                ok_t = True
            except (TraceZeroError, SingularAnsatzError,
                    DoubleZeroEigenvalueError):
                ok_t = False
            assert ok == ok_t


class TestPrintedCoefficients:
    def test_displayed_fractions(self):
        b20, b02, b11 = printed_coefficients(Matrix2.parse("1,0;0,2"))
        assert b20 == Fraction(21, 105) == Fraction(1, 5)
        b20, b02, b11 = printed_coefficients(Matrix2.parse("1,0;1,1"))
        assert b02 == Fraction(8, 32) == Fraction(1, 4)
        b20, b02, b11 = printed_coefficients(Matrix2.parse("1,0;0,1"))
        assert b20 == Fraction(8, 32) == Fraction(1, 4)

    def test_agreement_with_solver(self, rng):
        for _ in range(100):
            m = valid_matrix(rng)
            quad = quadratic_dulac_linear(m)
            b20, b02, b11 = printed_coefficients(m, RECORDED_READING)
            assert (b20, b02, b11) == (quad.b20, quad.b02, quad.b11)

    def test_recorded_reading_is_unique(self, rng):
        assert RECORDED_READING is Reading.C2_MINUS_3D2
        mismatch = 0
        for _ in range(100):
            m = valid_matrix(rng)
            quad = quadratic_dulac_linear(m)
            _, _, other = printed_coefficients(m, Reading.C_MINUS_3D2)
            if other != quad.b11:
                mismatch += 1
        assert mismatch > 0  # the rejected reading disagrees somewhere

    def test_denominator_zero(self):
        with pytest.raises(TraceZeroError):
            printed_coefficients(Matrix2.parse("1,0;0,-1"))
        with pytest.raises(SingularAnsatzError):
            printed_coefficients(Matrix2.parse("1,2;2,1"))


class TestGradientMultipliers:
    def test_paraboloid(self):
        v = parse_poly("x^2 + y^2")
        carriers = [c for _, c in gradient_multipliers(v)]
        assert carriers[0] == parse_poly("4 + 4*x^2 + 4*y^2")
        assert carriers[1] == parse_poly("4 - 4*x^2 - 4*y^2")
        assert carriers[2] == parse_poly("8*x^2 + 8*y^2")

    def test_linear_potential(self):
        carriers = [c for _, c in gradient_multipliers(parse_poly("x"))]
        assert carriers == [Poly.const(1), Poly.const(-1), Poly.const(1)]

    def test_cubic_carriers_vanish_at_origin(self):
        for _, carrier in gradient_multipliers(parse_poly("x^3")):
            assert carrier.evaluate((0.0, 0.0)) == 0

    def test_multiplier_shapes(self):
        v = parse_poly("x^2 - y^2")
        (b1, _), (b2, _), (b3, _) = gradient_multipliers(v)
        assert isinstance(b1, ExpPolyMultiplier) and b1.g == v
        assert isinstance(b2, ExpPolyMultiplier) and b2.g == -v
        assert isinstance(b3, PolyMultiplier) and b3.p == v

    def test_carriers_match_sign_carrier_identity(self, rng):
        from conftest import rand_poly
        for _ in range(40):
            v = rand_poly(rng, max_degree=4)
            if not v.is_real or v.degree < 1:
                continue
            field = gradient_field(v)
            for mult, carrier in gradient_multipliers(v):
                assert mult.sign_carrier(field) == carrier

    def test_constant_rejected(self):
        with pytest.raises(ConstantInputError):
            gradient_multipliers(Poly.const(2))

    def test_complex_potential_rejected(self):
        with pytest.raises(ValueError,
                           match="potential must have real coefficients"):
            gradient_multipliers(parse_poly("i*x^2"))


class TestLocalDulac:
    def test_van_der_pol_multiplier(self):
        vdp = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")
        mult, box, cert = local_dulac_hyperbolic(vdp, Point(0.0, 0.0))
        assert mult.p == parse_poly("(3*x^2 - 4*x*y + 6*y^2)/7")
        assert isinstance(cert.outcome, Positive)
        # against the linearization the carrier is (x - y)^2 + y^2
        lin = VectorField(parse_poly("y"), parse_poly("-x + y"))
        assert div_product(mult.p, lin) == parse_poly("x^2 - 2*x*y + 2*y^2")

    def test_radial_field(self):
        radial = parse_system("P = x\nQ = y")
        mult, box, cert = local_dulac_hyperbolic(radial, Point(0.0, 0.0))
        assert mult.p == parse_poly("(x^2 + y^2)/4")
        assert float(box.width) == 2.0  # full initial half-width certifies

    def test_rotation_rejected(self):
        rot = parse_system("P = -y\nQ = x")
        with pytest.raises(TraceZeroError):
            local_dulac_hyperbolic(rot, Point(0.0, 0.0))
        # a hyperbolic saddle with zero trace fails for the same reason
        saddle = parse_system((SYSTEMS / "saddle.vf").read_text())
        with pytest.raises(TraceZeroError, match="matrix has zero trace"):
            local_dulac_hyperbolic(saddle, Point(0.0, 0.0))

    def test_not_an_equilibrium(self):
        radial = parse_system("P = x\nQ = y")
        with pytest.raises(NotAnEquilibriumError):
            local_dulac_hyperbolic(radial, Point(0.5, 0.0))

    def test_carrier_positive_on_punctured_box_sampling(self):
        vdp = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")
        mult, box, cert = local_dulac_hyperbolic(vdp, Point(0.0, 0.0))
        carrier = cert.carrier
        xs, ys = sample_box(box, 10_000, seed=4)
        inside_core = (abs(xs) < 1e-3) & (abs(ys) < 1e-3)
        values = batch_eval(carrier, xs, ys)
        assert (values[~inside_core] > 0).all()

    def test_certification_failure_raises(self):
        # cubic damping flips the carrier sign around r = 1/2, so no ring
        # stack down to radius 0.4 can certify
        system = parse_system("P = x - 4*x^3\nQ = y - 4*y^3")
        with pytest.raises(CertificationFailedError):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=0.4)
        # shrinking the core restores a certificate on a smaller box
        _, box, _ = local_dulac_hyperbolic(system, Point(0.0, 0.0),
                                           min_radius=1e-3)
        assert float(box.width) <= 1.0

    def test_no_ring_above_min_radius_raises(self):
        # the ring (1, 1/2) fails and no ring lies inside it above radius
        # 1/2, so no box may be returned, not even one with zero leaves
        system = parse_system(CUBIC_DAMPING)
        with pytest.raises(CertificationFailedError):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=0.5)
        _, carrier, _ = local_quadratic_multiplier(system, Point(0.0, 0.0))
        half = Fraction(1, 2)
        assert certify_punctured_box(carrier, 0, 0, half, half, 8) is None


def ring_rectangles(c: Fraction, outer: Fraction):
    """Left and right columns, then the bottom and top between them."""
    inner = outer / 2
    return [Box2(c - outer, c - inner, c - outer, c + outer),
            Box2(c + inner, c + outer, c - outer, c + outer),
            Box2(c - inner, c + inner, c - outer, c - inner),
            Box2(c - inner, c + inner, c + inner, c + outer)]


class TestPuncturedBoxSearch:
    @pytest.mark.parametrize("text", [VDP_TEXT, CUBIC_DAMPING],
                             ids=["vanderpol", "cubic_damping"])
    def test_sound_and_maximal(self, text):
        system = parse_system(text)
        min_r = Fraction(1, 1000)
        _, carrier, _ = local_quadratic_multiplier(system, Point(0.0, 0.0))
        cert = certify_punctured_box(carrier, 0, 0, Fraction(1), min_r, 8)
        w = cert.box.x_max
        assert cert.box == Box2.centered(0, 0, w)
        # every ring inside w replays Positive, and the leaves add up
        outcomes = []
        outer = w
        while outer > min_r:
            for rect in ring_rectangles(Fraction(0), outer):
                replay = certify_positive(carrier, rect, 8)
                assert replay.is_positive
                outcomes.append(replay.outcome)
            outer /= 2
        assert cert.outcome.box_count == sum(o.box_count for o in outcomes)
        assert cert.outcome.max_depth_used == max(o.max_depth_used
                                                  for o in outcomes)
        # the next ring out fails, unless the box already reaches the bound
        if w < 1:
            assert not all(certify_positive(carrier, rect, 8).is_positive
                           for rect in ring_rectangles(Fraction(0), 2 * w))

    def test_analyze_grows_box_to_region(self, monkeypatch):
        monkeypatch.setattr(analyze, "MAX_CYCLE_SEEDS", 2)
        system = parse_system((SYSTEMS / "radial.vf").read_text())
        region = Box2(-2, 2, -2, 2)
        report = run_analyze(system, region)
        (local,) = report.local_certificates
        assert local.box == region
        assert local.certificate.box == region

    @pytest.mark.parametrize("half,width", [
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 8), Fraction(1, 4))])
    def test_analyze_shrinks_box_to_region(self, monkeypatch, half, width):
        # the search started at half-width 1, so [-1,1]^2 was claimed
        monkeypatch.setattr(analyze, "MAX_CYCLE_SEEDS", 0)
        system = parse_system((SYSTEMS / "radial.vf").read_text())
        region = Box2(-half, half, -half, half)
        report = run_analyze(system, region)
        (local,) = report.local_certificates
        assert local.box == Box2(-width, width, -width, width)

    @pytest.mark.parametrize("min_r", [0, -1])
    def test_nonpositive_min_radius_raises(self, min_r):
        # the rings above a radius <= 0 never end
        system = parse_system(VDP_TEXT)
        _, carrier, _ = local_quadratic_multiplier(system, Point(0.0, 0.0))
        with pytest.raises(ValueError, match="min_radius"):
            certify_punctured_box(carrier, 0, 0, Fraction(1), Fraction(min_r), 8)
        with pytest.raises(ValueError, match="min_radius"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=min_r)

    @pytest.mark.parametrize("min_r", [math.inf, math.nan, 0, -1])
    def test_bad_min_radius_raises_before_work(self, monkeypatch, min_r):
        def no_work(*args):
            raise AssertionError("work started before the min_radius check")

        monkeypatch.setattr(synthesis, "local_quadratic_multiplier", no_work)
        system = parse_system(VDP_TEXT)
        with pytest.raises(ValueError, match="min_radius must be finite"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=min_r)

    def test_negative_depth_raises(self):
        system = parse_system(VDP_TEXT)
        _, carrier, _ = local_quadratic_multiplier(system, Point(0.0, 0.0))
        with pytest.raises(ValueError, match="depth must be >= 0"):
            certify_punctured_box(carrier, 0, 0, Fraction(1),
                                  Fraction(1, 1000), -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), max_depth=-1)

    def test_budgets_checked_before_work(self, monkeypatch):
        # the depth first, then the radius, and then the search
        def no_work(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(synthesis, "local_quadratic_multiplier", no_work)
        system = parse_system(VDP_TEXT)
        for min_r in (1e-3, math.inf):
            with pytest.raises(ValueError, match="depth must be >= 0"):
                local_dulac_hyperbolic(system, Point(0.0, 0.0),
                                       min_radius=min_r, max_depth=-1)
        with pytest.raises(ValueError, match="min_radius must be finite"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0),
                                   min_radius=math.inf, max_depth=8)

    def test_local_certificates_finds_the_equilibria(self):
        system, region = parse_system(VDP_TEXT), Box2(-4, 4, -4, 4)
        equilibria, certs, notes = analyze.local_certificates(system, region)
        assert equilibria == analyze.find_equilibria(system, region)
        assert [c.equilibrium for c in certs] == equilibria
        assert notes == []


class TestFlowBox:
    def test_constant_field(self):
        field = VectorField(parse_poly("1"), parse_poly("0"))
        fb = flowbox_dulac(field, ((0.0, -1.0), (0.0, 1.0)), Poly.const(1),
                           n_across=5, n_along=9, t_span=2.0)
        # dB/dt = 1 with B(0) = 1, so B = t + 1 along the flow
        mid = fb.grid[2]
        assert abs(mid[-1].b_value - 3.0) < 1e-8
        for row in fb.grid:
            for node in row[1:-1]:
                assert node.div_bx > 0
        assert fb.fd_tolerance < 1e-6

    def test_exponential_relaxation(self):
        field = VectorField(parse_poly("x"), parse_poly("0"))
        fb = flowbox_dulac(field, ((1.0, -0.5), (1.0, 0.5)), Poly.const(1),
                           n_across=5, n_along=9, t_span=0.6)
        # Div X = 1: dB/dt = 1 - B with B(0) = 1 keeps B = 1, carrier = 1
        for row in fb.grid:
            for node in row:
                assert abs(node.b_value - 1.0) < 1e-9
        assert fb.fd_tolerance < 1e-6

    def test_equilibrium_encountered(self):
        radial = VectorField(parse_poly("x"), parse_poly("y"))
        with pytest.raises(FlowBoxError, match="equilibrium"):
            flowbox_dulac(radial, ((-1.0, -1.0), (1.0, 1.0)), Poly.const(1),
                          n_across=5, n_along=9, t_span=1.0)

    def test_equilibrium_is_flow_zero_test(self):
        # a sample is an equilibrium when max(|P|, |Q|) <= flow.ZERO_TOL
        rot = VectorField(parse_poly("-y"), parse_poly("x"))
        fb = flowbox_dulac(rot, ((5e-9, 0.0), (1.0, 0.0)), Poly.const(1),
                           n_across=5, n_along=9, t_span=1.0)
        assert fb.grid[0][0].point == (5e-9, 0.0)
        for x0 in (1e-9, 5e-10):
            with pytest.raises(FlowBoxError, match="equilibrium") as info:
                flowbox_dulac(rot, ((x0, 0.0), (1.0, 0.0)), Poly.const(1),
                              n_across=5, n_along=9, t_span=1.0)
            assert info.value.node == (0, 0)

    def test_nonpositive_g_rejected(self):
        field = VectorField(parse_poly("1"), parse_poly("0"))
        with pytest.raises(FlowBoxError, match="strictly positive"):
            flowbox_dulac(field, ((0.0, -1.0), (0.0, 1.0)), parse_poly("-1"),
                          n_across=5, n_along=9, t_span=1.0)

    def test_rotation_flow_box(self):
        rot = VectorField(parse_poly("-y"), parse_poly("x"))
        fb = flowbox_dulac(rot, ((1.0, 0.0), (2.0, 0.0)), Poly.const(1),
                           n_across=5, n_along=17, t_span=1.0)
        for row in fb.grid:
            for node in row[1:-1]:
                assert node.div_bx > 0
        assert fb.fd_tolerance < 5e-3  # curvilinear FD is only second order

    # (P, Q, g, transversal, (n_across, n_along), t_span): the two small
    # boxes, flowbox_demo.py's rotation box, Van der Pol with g = 1 + x^2
    # and the circle field from (0.5, 0) to (1.5, 0)
    NODEWISE_CASES = [
        ("-y", "x", "1", ((1.0, 0.0), (2.0, 0.0)), (5, 9), 1.0),
        ("y", "-x + (1 - x^2)*y", "1", ((1.0, 0.0), (2.0, 0.0)), (5, 9), -0.5),
        ("-y", "x", "1", ((1.0, 0.0), (2.0, 0.0)), (9, 65), 1.5),
        ("y", "-x + (1 - x^2)*y", "1 + x^2", ((1.0, 0.0), (2.0, 0.0)),
         (9, 33), 0.7),
        ("-y + x*(1 - x^2 - y^2)", "x + y*(1 - x^2 - y^2)", "1",
         ((0.5, 0.0), (1.5, 0.0)), (11, 41), 3.0),
    ]

    @pytest.mark.parametrize(
        "p,q,g,transversal,shape,t_span", NODEWISE_CASES,
        ids=[f"{c[0]}-{c[1]}-{c[-1]}" for c in NODEWISE_CASES])
    def test_divergence_matches_nodewise_central_differences(
            self, p, q, g, transversal, shape, t_span):
        field, g = VectorField(parse_poly(p), parse_poly(q)), parse_poly(g)
        fb = flowbox_dulac(field, transversal, g, n_across=shape[0],
                           n_along=shape[1], t_span=t_span)
        grid = fb.grid
        ds, dt = 1.0 / (len(grid) - 1), t_span / (len(grid[0]) - 1)

        def bx_by(i, k):
            z, b = grid[i][k].point, grid[i][k].b_value
            return (b * field.p.evaluate(z).real, b * field.q.evaluate(z).real)

        deviation = 0.0
        for i in range(1, len(grid) - 1):
            for k in range(1, len(grid[0]) - 1):
                xs = (grid[i + 1][k].point.x - grid[i - 1][k].point.x) / (2 * ds)
                ys = (grid[i + 1][k].point.y - grid[i - 1][k].point.y) / (2 * ds)
                xt = (grid[i][k + 1].point.x - grid[i][k - 1].point.x) / (2 * dt)
                yt = (grid[i][k + 1].point.y - grid[i][k - 1].point.y) / (2 * dt)
                det = xs * yt - ys * xt
                f1s = (bx_by(i + 1, k)[0] - bx_by(i - 1, k)[0]) / (2 * ds)
                f1t = (bx_by(i, k + 1)[0] - bx_by(i, k - 1)[0]) / (2 * dt)
                f2s = (bx_by(i + 1, k)[1] - bx_by(i - 1, k)[1]) / (2 * ds)
                f2t = (bx_by(i, k + 1)[1] - bx_by(i, k - 1)[1]) / (2 * dt)
                div = (f1s * yt - f1t * ys) / det + (f2t * xs - f2s * xt) / det
                assert div == grid[i][k].div_bx
                deviation = max(deviation,
                                abs(div - g.evaluate(grid[i][k].point).real))
        assert fb.fd_tolerance == deviation
        for row in (grid[0], grid[-1]):
            assert all(node.div_bx == g.evaluate(node.point).real
                       for node in row)

    def test_positivity_failure_reports_first_node(self):
        vdp = VectorField(parse_poly("y"), parse_poly("-x + (1 - x^2)*y"))
        with pytest.raises(FlowBoxError,
                           match=r"positivity fails at node \(5, 7\)") as info:
            flowbox_dulac(vdp, ((1.0, 0.0), (2.0, 0.0)), Poly.const(1),
                          n_across=7, n_along=9, t_span=1.2)
        assert info.value.node == (5, 7)

    def test_nan_divergence_rejected(self):
        # B*P overflows past P = 10^300, so every interior divergence is
        # nan; div <= 0 let it through with fd_tolerance = nan
        field = VectorField(parse_poly("10^300"), parse_poly("-1000*y"))
        with pytest.raises(FlowBoxError, match=r"positivity fails at node "
                           r"\(1, 1\): finite-difference Div\(B\*X\) = nan"
                           ) as info:
            flowbox_dulac(field, ((0.0, 1.0), (0.0, 2.0)), Poly.const(1),
                          n_across=5, n_along=9, t_span=0.5)
        assert info.value.node == (1, 1)

    def test_transversal_along_the_flow_is_degenerate(self):
        field = VectorField(parse_poly("1"), parse_poly("0"))
        with pytest.raises(FlowBoxError, match="degenerate") as info:
            flowbox_dulac(field, ((0.0, 0.0), (1.0, 0.0)), Poly.const(1),
                          n_across=5, n_along=9, t_span=1.0)
        assert info.value.node == (1, 1)

    def test_time_step_underflow_rejected(self):
        # 1e-323 / 8 rounds to 0, so no central difference in t exists
        rot = VectorField(parse_poly("-y"), parse_poly("x"))
        with pytest.raises(ValueError, match="underflows to 0"):
            flowbox_dulac(rot, ((1.0, 0.0), (2.0, 0.0)), Poly.const(1),
                          n_across=5, n_along=9, t_span=1e-323)

    def test_nan_transversal_end_rejected(self):
        rot = VectorField(parse_poly("-y"), parse_poly("x"))
        with pytest.raises(ValueError, match="all components of the initial "
                                             "state must be finite"):
            flowbox_dulac(rot, ((1.0, 0.0), (math.nan, 0.0)))

    def test_too_few_nodes_rejected(self):
        rot = VectorField(parse_poly("-y"), parse_poly("x"))
        with pytest.raises(ValueError, match=r"need n_across >= 3 and "
                                             r"n_along >= 3 for interior "
                                             r"nodes"):
            flowbox_dulac(rot, ((1.0, 0.0), (2.0, 0.0)), n_across=2)

    def test_field_beyond_float_range(self):
        field = VectorField(parse_poly("x^3"), parse_poly("1"))
        with pytest.raises(ValueError) as info:
            flowbox_dulac(field, ((1e200, 0.0), (1e200, 1.0)))
        assert str(info.value) == "x^3 at (1e+200, 0) is beyond float range"

    def test_multiplier_target_beyond_float_range(self):
        # P, Q and Div X are finite on the transversal; g = x^2 is the
        # first polynomial whose value there is beyond float range
        field = VectorField(parse_poly("y"), parse_poly("-x"))
        with pytest.raises(ValueError) as info:
            flowbox_dulac(field, ((1e200, 0.0), (1e200, 1.0)),
                          g=parse_poly("x^2"))
        assert str(info.value) == "x^2 at (1e+200, 0) is beyond float range"

    def test_right_hand_side_is_evaluate(self, monkeypatch):
        # the stepped (x, y, B) derivative is one generated function over
        # P, Q, g and Div X: bit for bit Poly.evaluate's values, and the
        # error of the first of them beyond float range
        class Captured(Exception):
            pass

        def capture(fun, *rest):
            captured.append(fun)
            raise Captured

        monkeypatch.setattr(synthesis, "_steps", capture)
        rng = random.Random(11)
        special = (0.0, -0.0, 1.5, math.inf, math.nan, 1e200)
        points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(10)]
        points += [(x, y) for x in special for y in special]
        for _ in range(40):
            field, g = rand_field(rng), rand_poly(rng)
            captured = []
            with pytest.raises(Captured):
                flowbox_dulac(field, ((0.5, 0.25), (0.75, 0.5)), g)
            rhs = captured[0]
            polys = [field.p, field.q, g, divergence(field)]
            for (x, y), b in zip(points, itertools.cycle((1.0, -0.5, 3.0))):
                try:
                    p, q, g_value, div_x = (f.evaluate((x, y)).real
                                            for f in polys)
                except ValueError as error:
                    with pytest.raises(ValueError) as info:
                        rhs([x, y, b])
                    assert str(info.value) == str(error)
                    continue
                got = rhs([x, y, b])
                want = [p, q, g_value - b * div_x]
                assert all(map(same_float, got, want)), (field, g, x, y)

    def test_blowup_leaves_integration_window(self):
        field = VectorField(parse_poly("x^2"), parse_poly("1"))
        with pytest.raises(FlowBoxError, match="integration window") as info:
            flowbox_dulac(field, ((1.0, 0.0), (1.0, 1.0)), Poly.const(1),
                          n_across=5, n_along=9, t_span=2.0)
        assert info.value.node == (0, 4)


class TestQuadraticMultiplierTranslation:
    def test_translated_form(self):
        quad = QuadraticMultiplier(Fraction(1), Fraction(0), Fraction(1),
                                   origin=(Fraction(1), Fraction(-2)))
        p = quad.to_poly()
        assert p == parse_poly("(x - 1)^2 + (y + 2)^2")
