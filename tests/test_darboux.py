"""Cofactors, exponential factors, integrating factors, Darboux integrals."""

import warnings
from fractions import Fraction

import pytest

from dulac.darboux import (
    DarbouxExpr,
    check_integrating_factor,
    check_inverse_integrating_factor,
    cofactor_of,
    darboux_first_integral,
    exponential_factor_cofactor,
    verify_first_integral,
)
from dulac.errors import (
    ConstantInputError,
    DegenerateCurveWarning,
    DegreeBoundViolatedError,
    NoNontrivialRelationError,
    NotExponentialFactorError,
    NotInvariantError,
)
from dulac.parse import parse_multiplier, parse_poly, parse_system
from dulac.poly import CRat, Poly, VectorField

from conftest import rand_poly

SADDLE = parse_system("P = x\nQ = -y")
CUBIC = parse_system(
    "P = -y + x*(1 - x^2 - y^2)\nQ = x + y*(1 - x^2 - y^2)")
FOCUS = parse_system("P = x - y\nQ = x + y")


class TestCofactor:
    def test_saddle_axis(self):
        curve = cofactor_of(parse_poly("x"), SADDLE)
        assert curve.k == Poly.const(1)
        assert cofactor_of(parse_poly("y"), SADDLE).k == Poly.const(-1)

    def test_invariant_circle(self):
        curve = cofactor_of(parse_poly("x^2 + y^2 - 1"), CUBIC)
        assert curve.k == parse_poly("-2*x^2 - 2*y^2")

    def test_not_invariant(self):
        with pytest.raises(NotInvariantError) as err:
            cofactor_of(parse_poly("x + 1"), SADDLE)
        assert err.value.remainder == Poly.const(-1)

    def test_constant_rejected(self):
        with pytest.raises(ConstantInputError):
            cofactor_of(Poly.const(3), SADDLE)

    def test_uniqueness_by_redivision(self):
        from dulac.poly import lie_derivative, poly_divide
        curve = cofactor_of(parse_poly("x^2 + y^2 - 1"), CUBIC)
        _, rem = poly_divide(lie_derivative(curve.f, CUBIC) - curve.k * curve.f,
                             curve.f)
        assert rem.is_zero

    def test_no_warning_on_smooth_curves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cofactor_of(parse_poly("x^2 + y^2 - 1"), CUBIC)

    @pytest.mark.parametrize("p,q,count", [
        ("1 + 10^308*x^3 - 10^308*y^3", "1", 32),
        ("1", "1 - 10^308*x^3 + 10^308*y^3", 32),
        # X = (0, nan) at the diagonal points with |x| > 1.2: a nan Q is
        # not a zero of the field, though P is
        ("0", "10^308*x^3 - 10^308*y^3", 24),
    ])
    def test_nan_field_value_is_not_a_zero(self, p, q, count):
        # the singular points of (x - y)^2 are the whole diagonal; which
        # of them warn must not depend on the component that holds the nan
        field = VectorField(parse_poly(p), parse_poly(q))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cofactor_of(parse_poly("(x - y)^2"), field)
        assert [w.category for w in caught] == [DegenerateCurveWarning] * count

    @pytest.mark.parametrize("curve", ["x^2 + y^2 - 10^400",
                                       "10^400*x^2 + 10^400*y^2 - 1"],
                             ids=["constant_term", "leading_terms"])
    def test_probe_beyond_float_range_keeps_the_cofactor(self, curve):
        # the advisory probe's float search raised "... is beyond float
        # range" (at the curve's value, or in the gradient's equilibrium
        # search), so the exact cofactor 0 never came back
        rotation = parse_system("P = -y\nQ = x")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = cofactor_of(parse_poly(curve), rotation)
        assert result.k == Poly.zero()
        (warning,) = caught
        assert warning.category is DegenerateCurveWarning
        message = str(warning.message)
        assert message.startswith("singular points not probed: ")
        assert message.endswith(" is beyond float range")
        assert darboux_first_integral([result]).is_first_integral

    def test_additivity_construction(self, rng):
        # X = (f*g*A, f*g*B) keeps both factors invariant
        for _ in range(60):
            f = rand_poly(rng, 2)
            g = rand_poly(rng, 2)
            if f.is_constant or g.is_constant:
                continue
            if not (f.is_real and g.is_real):
                continue
            a = rand_poly(rng, 1)
            b = rand_poly(rng, 1)
            if not (a.is_real and b.is_real):
                continue
            field = VectorField(p=f * g * a, q=f * g * b)
            kf = cofactor_of(f, field, check_degeneracy=False).k
            kg = cofactor_of(g, field, check_degeneracy=False).k
            kfg = cofactor_of(f * g, field, check_degeneracy=False).k
            assert kfg == kf + kg

    def test_conjugate_pairing(self, rng):
        for _ in range(20):
            alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            beta = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            x, y = Poly.x(), Poly.y()
            focus = VectorField(p=x * alpha - y * beta, q=x * beta + y * alpha)
            f = parse_poly("x + i*y")
            k = cofactor_of(f, focus).k
            assert k == Poly.const(CRat(alpha, beta))
            k_bar = cofactor_of(f.conjugate(), focus).k
            assert k_bar == Poly.const(CRat(alpha, -beta))
            k_prod = cofactor_of(f * f.conjugate(), focus).k
            assert k_prod == Poly.const(2 * alpha)


class TestExponentialFactor:
    def test_basic(self):
        ef = exponential_factor_cofactor(parse_poly("y"), Poly.const(1),
                                         parse_system("P = x\nQ = 1"))
        assert ef.k == Poly.const(1)

    def test_degree_bound(self):
        with pytest.raises(DegreeBoundViolatedError):
            exponential_factor_cofactor(parse_poly("y"), Poly.const(1),
                                        parse_system("P = x\nQ = y"))

    def test_trivial_exponent(self):
        ef = exponential_factor_cofactor(Poly.zero(), Poly.const(1), SADDLE)
        assert ef.k.is_zero

    def test_rational_exponent(self):
        # exp(y/x) for P = x^2, Q = xy - 1: h<grad g,X> - g<grad h,X>
        #   = x*(x*y - 1) - y*x^2 = -x ... not divisible by x^2
        with pytest.raises(NotExponentialFactorError):
            exponential_factor_cofactor(parse_poly("y"), parse_poly("x"),
                                        parse_system("P = x^2\nQ = x*y - 1"))
        # P = x^2, Q = xy: numerator = x*(x*y) - y*(x^2) = 0, cofactor 0
        ef = exponential_factor_cofactor(parse_poly("y"), parse_poly("x"),
                                         parse_system("P = x^2\nQ = x*y"))
        assert ef.k.is_zero

    def test_zero_h_rejected(self):
        with pytest.raises(ValueError):
            exponential_factor_cofactor(parse_poly("y"), Poly.zero(), SADDLE)


class TestIntegratingFactors:
    def test_divergence_free(self):
        rot = parse_system("P = -y\nQ = x")
        assert check_integrating_factor(parse_multiplier("1"), rot).is_exact

    def test_radial_not_integrating(self):
        radial = parse_system("P = x\nQ = y")
        rep = check_integrating_factor(parse_multiplier("1"), radial)
        assert rep.symbolic_residual == Poly.const(2)

    def test_exponential_multiplier(self):
        rep = check_integrating_factor(parse_multiplier("exp(-2*y)*1"),
                                       parse_system("P = 1\nQ = 1"))
        assert rep.symbolic_residual == Poly.const(-2)

    def test_exponential_integrating_factor(self):
        # Div(e^{-2x} X) = 0 for X = (1, 2y): carrier = 2 + <grad(-2x), X> = 0
        rep = check_integrating_factor(parse_multiplier("exp(-2*x)*1"),
                                       parse_system("P = 1\nQ = 2*y"))
        assert rep.is_exact

    def test_inverse_integrating_factor(self):
        radial = parse_system("P = x\nQ = y")
        assert check_inverse_integrating_factor(parse_poly("x^2 + y^2"),
                                                radial).is_exact
        rot = parse_system("P = -y\nQ = x")
        assert check_inverse_integrating_factor(Poly.const(1), rot).is_exact
        rep = check_inverse_integrating_factor(parse_poly("x"), radial)
        assert rep.symbolic_residual == parse_poly("-x")

    def test_zero_v_rejected(self):
        with pytest.raises(ValueError):
            check_inverse_integrating_factor(Poly.zero(), SADDLE)

    @pytest.mark.parametrize("text", ["0", "exp(x)*0", "exp(x)*(y - y)"])
    def test_zero_mu_rejected(self, text):
        # Div(0*X) = 0 made the zero multiplier an "integrating factor"
        with pytest.raises(ValueError, match="mu must be nonzero"):
            check_integrating_factor(parse_multiplier(text), SADDLE)


class TestDarbouxFirstIntegral:
    def test_saddle(self):
        curves = [cofactor_of(parse_poly("x"), SADDLE),
                  cofactor_of(parse_poly("y"), SADDLE)]
        expr = darboux_first_integral(curves)
        exponents = [lam for _, lam in expr.curve_factors]
        assert exponents == [CRat(1), CRat(1)]
        assert expr.is_first_integral
        assert str(expr) == "(x)^1 * (y)^1"

    def test_node(self):
        node = parse_system("P = x\nQ = 2*y")
        curves = [cofactor_of(parse_poly("x"), node),
                  cofactor_of(parse_poly("y"), node)]
        expr = darboux_first_integral(curves)
        assert [lam for _, lam in expr.curve_factors] == [CRat(2), CRat(-1)]
        assert str(expr) == "(x)^2 * (y)^-1"

    def test_single_curve_nonzero_cofactor(self):
        with pytest.raises(NoNontrivialRelationError):
            darboux_first_integral([cofactor_of(parse_poly("x^2 + y^2 - 1"),
                                                CUBIC)])

    def test_zero_cofactor_curve_is_integral(self):
        rot = parse_system("P = -y\nQ = x")
        expr = darboux_first_integral([cofactor_of(parse_poly("x^2 + y^2"),
                                                   rot)])
        assert expr.curve_factors[0][1] == CRat(1)
        assert expr.is_first_integral

    def test_exponential_factor_combination(self):
        # H = x * exp(y)^-1 for X = (x, 1)
        system = parse_system("P = x\nQ = 1")
        curve = cofactor_of(parse_poly("x"), system)
        ef = exponential_factor_cofactor(parse_poly("y"), Poly.const(1), system)
        expr = darboux_first_integral([curve], [ef])
        assert expr.curve_factors[0][1] == CRat(1)
        assert expr.exp_factors[0][1] == CRat(-1)
        assert expr.is_first_integral

    def test_complex_conjugate_kernel(self):
        # no real combination exists here: any exact kernel vector is valid
        focus = parse_system("P = x - 2*y\nQ = 2*x + y")
        f = parse_poly("x + i*y")
        curves = [cofactor_of(f, focus), cofactor_of(f.conjugate(), focus)]
        expr = darboux_first_integral(curves)
        assert expr.is_first_integral
        assert any(lam for _, lam in expr.curve_factors)

    def test_real_combination_preferred(self):
        # on the rotation the conjugate pair admits the real vector (1, 1)
        rot = parse_system("P = -y\nQ = x")
        f = parse_poly("x + i*y")
        curves = [cofactor_of(f, rot), cofactor_of(f.conjugate(), rot)]
        expr = darboux_first_integral(curves)
        assert [lam for _, lam in expr.curve_factors] == [CRat(1), CRat(1)]

    def test_requires_input(self):
        with pytest.raises(ValueError):
            darboux_first_integral([])

    @pytest.mark.parametrize("system,curves,expected", [
        # three curves: a kernel of two basis vectors
        (SADDLE, "x;y;x*y", "(x)^0 * (y)^0 * (x*y)^1"),
        # only the sum of two basis vectors is this light
        (SADDLE, "x^2;y;x", "(x^2)^0 * (y)^1 * (x)^1"),
        # complex exponents, led by an imaginary part of either sign; the
        # real part (0, 1) and imaginary part (1, 0) of the kernel vector
        # (i, 1) are all-real but fail the kernel test, so they lose
        (FOCUS, "x+i*y;x-i*y", "(x + i*y)^(0 + i) * (x - i*y)^1"),
        (FOCUS, "x-i*y;x+i*y", "(x - i*y)^(0 + i) * (x + i*y)^-1"),
        (FOCUS, "x+i*y;x^2+y^2", "(x + i*y)^(1 - i) * (x^2 + y^2)^-1"),
    ])
    def test_printed_relation(self, system, curves, expected):
        expr = darboux_first_integral(
            [cofactor_of(parse_poly(f), system) for f in curves.split(";")])
        assert expr.is_first_integral
        assert str(expr) == expected


class TestVerifyFirstIntegral:
    def test_saddle_drift(self):
        curves = [cofactor_of(parse_poly("x"), SADDLE),
                  cofactor_of(parse_poly("y"), SADDLE)]
        expr = darboux_first_integral(curves)
        report = verify_first_integral(expr, SADDLE, trajectories=4,
                                       t_span=10.0)
        assert report.is_exact
        assert report.trajectories_checked == 4
        assert report.numeric_max_drift <= 1e-6

    def test_non_integral_drifts(self):
        radial = parse_system("P = x\nQ = y")
        curves = [cofactor_of(parse_poly("x"), radial,
                              check_degeneracy=False),
                  cofactor_of(parse_poly("y"), radial,
                              check_degeneracy=False)]
        expr = DarbouxExpr(curve_factors=((curves[0], CRat(1)),
                                          (curves[1], CRat(1))),
                           exp_factors=())
        report = verify_first_integral(expr, radial, trajectories=3,
                                       t_span=5.0)
        assert report.symbolic_residual == Poly.const(2)
        assert report.numeric_max_drift > 1.0  # log drift ~ 2 t

    def test_exponential_factor_drift(self):
        system = parse_system("P = x\nQ = 1")
        curve = cofactor_of(parse_poly("x"), system)
        ef = exponential_factor_cofactor(parse_poly("y"), Poly.const(1), system)
        expr = darboux_first_integral([curve], [ef])
        report = verify_first_integral(expr, system, trajectories=3,
                                       t_span=5.0)
        assert report.is_exact
        assert report.numeric_max_drift <= 1e-6

    def test_rotation_complex_log_unwrapping(self):
        # H = (x + iy)(x - iy) = x^2 + y^2; trajectories wind around the
        # origin, so the angle must be unwrapped continuously
        rot = parse_system("P = -y\nQ = x")
        f = parse_poly("x + i*y")
        curves = [cofactor_of(f, rot), cofactor_of(f.conjugate(), rot)]
        expr = darboux_first_integral(curves)
        report = verify_first_integral(expr, rot, trajectories=3, t_span=10.0)
        assert report.is_exact
        assert report.numeric_max_drift <= 1e-6
