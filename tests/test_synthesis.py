"""Multiplier synthesis: quadratic, gradient and local routes."""

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
    DulacError,
    NotAnEquilibriumError,
    SingularAnsatzError,
    TraceZeroError,
)
from dulac.parse import parse_poly, parse_system
from dulac.poly import Point, Poly, VectorField, div_product
from dulac.synthesis import (
    Matrix2,
    QuadraticMultiplier,
    Reading,
    RECORDED_READING,
    certify_punctured_box,
    gradient_multipliers,
    local_dulac_hyperbolic,
    local_quadratic_multiplier,
    printed_coefficients,
    quadratic_dulac_linear,
)

from conftest import batch_eval, rand_fraction, rand_poly, sample_box

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
        one = Poly.const(1)
        assert (b1.g, b1.p) == (v, one)
        assert (b2.g, b2.p) == (-v, one)
        assert (b3.g, b3.p) == (None, v)

    def test_carriers_match_sign_carrier_identity(self, rng):
        from conftest import rand_poly
        for _ in range(40):
            v = rand_poly(rng, max_degree=4)
            if not v.is_real or v.degree < 1:
                continue
            # the carriers are each multiplier's sign_carrier; check them
            # against the closed forms of the docstring
            vx, vy = v.derive("x"), v.derive("y")
            laplacian = vx.derive("x") + vy.derive("y")
            grad_sq = vx * vx + vy * vy
            assert [c for _, c in gradient_multipliers(v)] == [
                laplacian + grad_sq, laplacian - grad_sq,
                v * laplacian + grad_sq]

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
        with pytest.raises(CertificationFailedError,
                           match="no box around"):
            certify_punctured_box(carrier, 0, 0, Box2.centered(0, 0, half),
                                  half)


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
        cert = certify_punctured_box(carrier, 0, 0, Box2.centered(0, 0, 1),
                                     min_r)
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

    @pytest.mark.parametrize("min_r", [0, -1, math.inf, math.nan])
    def test_nonpositive_min_radius_raises(self, min_r):
        # the rings above a radius <= 0 never end, and no ring lies above
        # inf or nan
        system = parse_system(VDP_TEXT)
        _, carrier, _ = local_quadratic_multiplier(system, Point(0.0, 0.0))
        with pytest.raises(ValueError, match="min_radius must be finite"):
            certify_punctured_box(carrier, 0, 0, Box2.centered(0, 0, 1),
                                  min_r)
        with pytest.raises(ValueError, match="min_radius must be finite"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=min_r)

    @pytest.mark.parametrize("min_r", [math.inf, math.nan, 0, -1])
    def test_bad_min_radius_raises_before_work(self, monkeypatch, min_r):
        def no_work(*args):
            raise AssertionError("work started before the min_radius check")

        monkeypatch.setattr(synthesis, "local_quadratic_multiplier", no_work)
        system = parse_system(VDP_TEXT)
        with pytest.raises(ValueError, match="min_radius must be finite"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=min_r)

    @pytest.mark.parametrize("min_r", [1, 2])
    def test_min_radius_not_below_search_box_raises_before_work(
            self, monkeypatch, min_r):
        # no half-width above min_radius fits the unit box searched, so the
        # search would fail on a region its caller never gave
        def no_work(*args):
            raise AssertionError("work started before the min_radius check")

        monkeypatch.setattr(synthesis, "local_quadratic_multiplier", no_work)
        system = parse_system("P = x\nQ = y")
        message = (f"min_radius must be below 1, the half-width of the box "
                   f"searched, got {min_r}")
        with pytest.raises(ValueError, match=message):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=min_r)

    def test_min_radius_just_below_search_box_certifies_it(self):
        system = parse_system("P = x\nQ = y")
        _, box, cert = local_dulac_hyperbolic(system, Point(0.0, 0.0),
                                              min_radius=0.999)
        assert box == cert.box == Box2(-1, 1, -1, 1)
        assert cert.is_positive

    def test_budgets_checked_before_work(self, monkeypatch):
        # the radius first, and then the search
        def no_work(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(synthesis, "local_quadratic_multiplier", no_work)
        system = parse_system(VDP_TEXT)
        with pytest.raises(ValueError, match="min_radius must be finite"):
            local_dulac_hyperbolic(system, Point(0.0, 0.0), min_radius=math.inf)

    @pytest.mark.parametrize("path", sorted(SYSTEMS.glob("*.vf")),
                             ids=lambda path: path.stem)
    def test_local_dulac_is_local_certificates_in_the_unit_box(
            self, monkeypatch, path):
        # both callers size the box by certify_punctured_box: local-dulac
        # --point within the unit box around the point, analyze within its
        # region.  Newton restarted in that box lands 1e-12 away on
        # cubic_circle, so local_certificates is handed the equilibrium.
        system = parse_system(path.read_text())
        equilibria = [eq for eq in analyze.find_equilibria(
            system, Box2(-4, 4, -4, 4)) if eq.hyperbolic]
        for eq in equilibria:
            monkeypatch.setattr(analyze, "find_equilibria",
                                lambda system, region: [eq])
            ex, ey = Fraction(eq.location.x), Fraction(eq.location.y)
            _, certs, notes = analyze.local_certificates(
                system, Box2.centered(ex, ey, 1))
            try:
                mult, box, cert = local_dulac_hyperbolic(system, eq.location)
            except DulacError as exc:
                assert certs == []
                (note,) = notes
                assert note.endswith(f"failed at ({eq.location.x:.6g}, "
                                     f"{eq.location.y:.6g}): {exc}")
                continue
            (local,) = certs
            assert notes == []
            assert local.multiplier == mult
            assert local.box == box
            assert local.certificate == cert

    def test_local_certificates_finds_the_equilibria(self):
        system, region = parse_system(VDP_TEXT), Box2(-4, 4, -4, 4)
        equilibria, certs, notes = analyze.local_certificates(system, region)
        assert equilibria == analyze.find_equilibria(system, region)
        assert [c.equilibrium for c in certs] == equilibria
        assert notes == []


class TestQuadraticMultiplierTranslation:
    def test_translated_form(self):
        quad = QuadraticMultiplier(Fraction(1), Fraction(0), Fraction(1),
                                   origin=(Fraction(1), Fraction(-2)))
        p = quad.to_poly()
        assert p == parse_poly("(x - 1)^2 + (y + 2)^2")
