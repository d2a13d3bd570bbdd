"""Exact polynomial arithmetic: ring axioms, calculus, division, printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dulac.parse import parse_poly
from dulac.poly import (
    CRat,
    Poly,
    VectorField,
    derive,
    div_product,
    divergence,
    evaluate,
    format_poly,
    kernel_basis,
    lie_derivative,
    poly_divide,
    short_numeral,
)

from conftest import polys, rand_poly, vector_fields


def P(text: str) -> Poly:
    return parse_poly(text)


class TestCRat:
    def test_exact_arithmetic(self):
        a = CRat(Fraction(1, 3), Fraction(1, 2))
        b = CRat(Fraction(2, 3), Fraction(-1, 2))
        assert a + b == CRat(1, 0)
        assert a * b == CRat(Fraction(2, 9) + Fraction(1, 4),
                             Fraction(1, 3) - Fraction(1, 6))
        assert (a / b) * b == a

    def test_conjugate_involution(self):
        z = CRat(Fraction(3, 7), Fraction(-2, 5))
        assert z.conjugate().conjugate() == z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CRat(1) / CRat(0)


class TestPolyBasics:
    def test_degree_conventions(self):
        assert Poly.zero().degree == -1
        assert Poly.const(3).degree == 0
        assert P("x^2*y + y").degree == 3

    def test_no_zero_terms_stored(self):
        p = P("x + 1") - P("x")
        assert p.terms == {(0, 0): CRat(1)}
        assert (p - 1).is_zero

    def test_equality_is_term_map_equality(self):
        assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")
        assert P("x") != P("y")

    def test_evaluate(self):
        assert evaluate(P("x^2 + y^2"), (3.0, 4.0)) == 25
        assert evaluate(P("7 - x*y"), (0.0, 0.0)) == 7
        assert abs(evaluate(P("1 - x^2"), (0.95, 0.0)).real - 0.0975) < 1e-15

    def test_evaluate_real_has_zero_imag(self):
        assert evaluate(P("x^3 - y"), (1.25, -0.5)).imag == 0.0

    def test_evaluate_exact(self):
        v = P("1 - x^2").evaluate_exact(Fraction(19, 20), Fraction(0))
        assert v == CRat(Fraction(39, 400))


def _assert_matches_exact(p: Poly, x: Fraction, y: Fraction) -> None:
    """Float value within 1e-12 of the exact one, relative to the term sizes."""
    value = p.evaluate((float(x), float(y)))
    exact = complex(p.evaluate_exact(x, y))
    scale = sum(abs(complex(c)) * abs(float(x)) ** i * abs(float(y)) ** j
                for (i, j), c in p.terms.items())
    assert abs(value - exact) <= 1e-12 * max(scale, 1.0)


class TestFloatEvaluator:
    @staticmethod
    def _point(rng):
        # dyadic coordinates, so the float point is the exact point
        return Fraction(rng.randint(-24, 24), 8), Fraction(rng.randint(-24, 24), 8)

    def test_complex_coefficients_match_exact(self):
        rng = random.Random(41)
        for _ in range(200):
            p = rand_poly(rng, allow_complex=True)
            _assert_matches_exact(p, *self._point(rng))

    def test_derived_polynomials_after_evaluation(self):
        # each result is a new Poly, so no float table cached on an operand
        # may stand in for it
        rng = random.Random(43)
        for _ in range(100):
            p = rand_poly(rng, allow_complex=True)
            q = rand_poly(rng, allow_complex=True)
            x, y = self._point(rng)
            before = p.evaluate((float(x), float(y)))
            q.evaluate((float(x), float(y)))
            for r in (p + q, p - q, p * q, -p, p * 3, p.derive("x"),
                      p.derive("y")):
                _assert_matches_exact(r, x, y)
            assert p.evaluate((float(x), float(y))) == before

    @pytest.mark.parametrize("text,z,message", [
        # a coefficient beyond float range, as in P = 10^400*y
        ("10^400*y", (0.5, -0.25),
         "100000...(401 digits)*y at (0.5, -0.25) is beyond float range"),
        # a power beyond float range: x^2 at x = 1e200
        ("-x^2*y - x + y", (1e200, 0.0),
         "-x^2*y - x + y at (1e+200, 0) is beyond float range"),
    ])
    def test_beyond_float_range_is_value_error(self, text, z, message):
        # these escaped as OverflowError, a traceback and exit 1 in the CLI
        with pytest.raises(ValueError) as info:
            P(text).evaluate(z)
        assert str(info.value) == message

    def test_beyond_float_range_text_is_cut(self):
        p = P(" + ".join(f"x^{k}" for k in range(1, 200)))
        with pytest.raises(ValueError) as info:
            p.evaluate((1e200, 0.0))
        assert str(info.value) == (
            "x^199 + x^198 + x^197 + x^196 + x^195 + x^194 + x^193 + "
            "x... at (1e+200, 0) is beyond float range")


class TestRingAxioms:
    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_add_mul_commutative_associative(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=30)
    @given(polys(allow_complex=True))
    def test_conjugation_is_ring_map(self, p):
        assert p.conjugate().conjugate() == p
        assert (p * p).conjugate() == p.conjugate() * p.conjugate()


class TestDerive:
    def test_spec_examples(self):
        assert derive(P("x^2*y"), "x") == P("2*x*y")
        assert derive(P("x^2"), "y").is_zero
        assert derive(P("x^3 - 3*x*y^2"), "x") == P("3*x^2 - 3*y^2")

    def test_finite_difference_oracle(self):
        rng = random.Random(7)
        h = 1e-5
        for _ in range(100):
            p = rand_poly(rng, max_degree=4)
            dpx = derive(p, "x")
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            exact = dpx.evaluate((x, y)).real
            fd = (p.evaluate((x + h, y)).real - p.evaluate((x - h, y)).real) / (2 * h)
            if abs(exact) > 0.1:
                assert abs(fd - exact) / abs(exact) <= 1e-6

    def test_leibniz_rule_for_derive(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = rand_poly(rng, 4), rand_poly(rng, 4)
            assert derive(a * b, "y") == derive(a, "y") * b + a * derive(b, "y")


class TestFieldOperators:
    def test_divergence_examples(self):
        assert divergence(VectorField(P("x"), P("y"))) == P("2")
        assert divergence(VectorField(P("-y"), P("x"))).is_zero
        vdp = VectorField(P("y"), P("-x + (1 - x^2)*y"))
        assert divergence(vdp) == P("1 - x^2")

    def test_lie_derivative_examples(self):
        rot = VectorField(P("-y"), P("x"))
        assert lie_derivative(P("x^2 + y^2"), rot).is_zero
        saddle = VectorField(P("x"), P("-y"))
        assert lie_derivative(P("x*y"), saddle).is_zero
        assert lie_derivative(P("x"), saddle) == P("x")

    def test_div_product_examples(self):
        radial = VectorField(P("x"), P("y"))
        assert div_product(P("1"), radial) == divergence(radial)
        assert div_product(P("(x^2 + y^2)/4"), radial) == P("x^2 + y^2")
        assert div_product(P("x"), VectorField(P("1"), P("0"))) == P("1")

    @settings(max_examples=60)
    @given(polys(), vector_fields())
    def test_leibniz_identity_exact(self, b, x):
        lhs = div_product(b, x)
        rhs = b * divergence(x) + lie_derivative(b, x)
        assert (lhs - rhs).is_zero


class TestKernelBasis:
    def test_real_rows_stay_fractions(self):
        rows = [[Fraction(1, 2), 0, Fraction(-3)], [0, Fraction(2, 3), 1]]
        (v,) = kernel_basis(rows, 3)
        assert all(type(c) is Fraction for c in v)
        assert v == [Fraction(6), Fraction(-3, 2), Fraction(1)]
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)

    def test_complex_rows_give_crat(self):
        rows = [[CRat(1), CRat(0, 1)]]
        (v,) = kernel_basis(rows, 2)
        assert v == [CRat(0, -1), CRat(1)]
        assert all(type(c) is CRat for c in v)
        assert all(type(c) is CRat for c in kernel_basis([], 2)[0])


class TestDivision:
    def test_spec_examples(self):
        q, r = poly_divide(P("x^2 - 1"), P("x - 1"))
        assert (q, r.is_zero) == (P("x + 1"), True)
        q, r = poly_divide(P("x"), P("x + 1"))
        assert q == P("1") and r == P("-1")
        q, r = poly_divide(P("-2*x^4 - 4*x^2*y^2 - 2*y^4 + 2*x^2 + 2*y^2"),
                           P("x^2 + y^2 - 1"))
        assert q == P("-2*x^2 - 2*y^2") and r.is_zero

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divide(P("x"), Poly.zero())

    @settings(max_examples=80)
    @given(polys(), polys())
    def test_division_contract(self, n, d):
        if d.is_zero:
            return
        q, r = poly_divide(n, d)
        assert q * d + r == n

    def test_exact_divisibility_detection(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rand_poly(rng, 3)
            if d.is_zero:
                continue
            q = rand_poly(rng, 3)
            quot, rem = poly_divide(q * d, d)
            assert rem.is_zero
            assert quot == q


class TestPrinting:
    def test_canonical_order_graded_lex(self):
        assert str(P("1 + y + x + y^2 + x*y + x^2")) == \
            "x^2 + x*y + y^2 + x + y + 1"

    def test_zero(self):
        assert str(Poly.zero()) == "0"

    def test_rational_and_complex_coefficients(self):
        assert str(P("0.5*x - y/3")) == "1/2*x - 1/3*y"
        assert str(P("i*y - x")) == "-x + i*y"

    def test_short_numerals(self):
        p = P("1234567*x + (10^7 + 3*i)*y - 1/3000000")
        assert format_poly(p, short_numeral) == (
            "123456...(7 digits)*x + (100000...(8 digits) + 3*i)*y "
            "- 1/300000...(7 digits)")
        assert format_poly(p) == str(p)

    @settings(max_examples=80)
    @given(polys(allow_complex=True))
    def test_print_parse_round_trip(self, p):
        assert parse_poly(str(p)) == p
