"""Exact polynomial arithmetic: ring axioms, calculus, division, printing."""

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac import poly
from dulac.parse import parse_poly
from dulac.poly import (
    CRat,
    Poly,
    VectorField,
    div_product,
    divergence,
    float_sums,
    format_poly,
    kernel_basis,
    lie_derivative,
    poly_divide,
    short_numeral,
)

from conftest import (cleared_row, gaussian_poly, polys, rand_fraction,
                      rand_poly, same_float, vector_fields)


def P(text: str) -> Poly:
    return parse_poly(text)


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

    def test_hash_agrees_with_equality(self):
        # a real constant Poly equals the int or Fraction it is, and hashes
        # as it does
        for v in [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)]:
            forms = [v, Fraction(v), Poly.const(v)]
            for a in forms:
                for b in forms:
                    assert a == b and a in {b}, (a, b)
        # a complex constant too, however it is built, and a CRat among CRats
        z = 1 + 2 * Poly.i()
        assert z in {P("1 + 2*i")} and P("(2 + 4*i)/2") in {z}
        assert CRat(1, 2) in {CRat(Fraction(2, 2), 2)}

    def test_i_is_the_imaginary_unit(self):
        i = Poly.i()
        assert P("i") == i and i * i == -1 and i * i in {-1}
        assert not i.is_real and i.is_constant and i.conjugate() == -i
        assert i.numerators == {(0, 0): poly._gaussian(0, 1)}
        assert i.terms == {(0, 0): CRat(0, 1)} and str(i) == "i"

    @pytest.mark.parametrize("make", [
        lambda c: Poly.const(c), lambda c: Poly.x() * c,
        lambda c: c * Poly.x(), lambda c: Poly.x() + c,
        lambda c: Poly({(1, 0): c}), lambda c: kernel_basis([[c]], 1)],
        ids=["const", "mul", "rmul", "add", "terms", "kernel_basis"])
    def test_crat_is_not_an_operand(self, make):
        # a CRat is a record of terms and exponents, not a coefficient
        for c in (CRat(1), CRat(0, 1)):
            with pytest.raises(TypeError):
                make(c)

    @pytest.mark.parametrize("exponent", [
        (-1, 1), (-1, 0), (0, -2), (1.7, 0), (1.0, 0), (Fraction(1), 0),
        (1,), (1, 0, 0), "xy", 1])
    def test_exponents_are_pairs_of_nonnegative_ints(self, exponent):
        # -y + y/x was stored with the term (-1, 1): printed as -y + y and
        # certified positive on [2, 3] x [1, 2], where it is -0.5 at (2, 1);
        # (-1, 0) raised IndexError in Bernstein conversion, (1.7, 0) was x
        with pytest.raises(ValueError, match="exponent"):
            Poly({exponent: 1})
        with pytest.raises(ValueError, match="exponent"):
            Poly({(0, 1): -1, exponent: 1})

    def test_repr_past_the_str_limit(self):
        # str of a Fraction refuses an int of over 4,300 digits
        big = "1" + "0" * 5000
        assert repr(CRat(10 ** 5000)) == f"CRat({big})"
        assert repr(CRat(Fraction(-1, 3), 10 ** 5000)) == f"CRat(-1/3, {big})"

    def test_division_by_zero_constant(self):
        for zero in (0, Fraction(0), Poly.zero(), Poly.i() * 0):
            with pytest.raises(ZeroDivisionError):
                P("x + i*y") / zero

    def test_evaluate(self):
        assert P("x^2 + y^2").evaluate((3.0, 4.0)) == 25
        assert P("7 - x*y").evaluate((0.0, 0.0)) == 7
        assert abs(P("1 - x^2").evaluate((0.95, 0.0)).real - 0.0975) < 1e-15

    def test_evaluate_real_has_zero_imag(self):
        assert P("x^3 - y").evaluate((1.25, -0.5)).imag == 0.0

    def test_evaluate_exact(self):
        v = P("1 - x^2").evaluate_exact(Fraction(19, 20), Fraction(0))
        assert v == Fraction(39, 400) and type(v) is Fraction
        assert P("2/3").constant_term == Fraction(2, 3)
        assert type(P("x").constant_term) is Fraction
        for p in (P("i*x"), P("x + (1 + i)*y^2"), Poly.i()):
            with pytest.raises(ValueError, match="real"):
                p.evaluate_exact(1, 2)
            with pytest.raises(ValueError, match="real"):
                p.constant_term


def _exact_parts(p: Poly, x: Fraction, y: Fraction) -> tuple:
    """The exact value of p at (x, y) as (re, im): the values of p's real
    and imaginary parts, (p + conj p) / 2 and (p - conj p) / 2i."""
    re = (p + p.conjugate()) / 2
    im = (p - p.conjugate()) / (2 * Poly.i())
    return re.evaluate_exact(x, y), im.evaluate_exact(x, y)


def _assert_matches_exact(p: Poly, x: Fraction, y: Fraction) -> None:
    """Float value within 1e-12 of the exact one, relative to the term sizes."""
    value = p.evaluate((float(x), float(y)))
    exact = complex(*map(float, _exact_parts(p, x, y)))
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


def _term_loop(p: Poly, z) -> complex:
    """Reference float evaluation: the float coefficients first, then the
    sum of ``c * x**i * y**j`` left to right from 0.0 in term order, the
    imaginary part over the terms whose float imaginary part is nonzero."""
    x, y = float(z[0]), float(z[1])
    table = [(i, j, float(c.re), float(c.im)) for (i, j), c in p.terms.items()]
    re = im = 0.0
    for i, j, c_re, c_im in table:
        re += c_re * x ** i * y ** j
        if c_im:
            im += c_im * x ** i * y ** j
    return complex(re, im)


def _range_message(p: Poly, x: float, y: float) -> str:
    text = format_poly(p, short_numeral)
    if len(text) > 60:
        text = text[:57] + "..."
    return f"{text} at ({x:.6g}, {y:.6g}) is beyond float range"


def _assert_matches_term_loop(p: Poly, z) -> None:
    try:
        expected = _term_loop(p, z)
    except OverflowError:
        with pytest.raises(ValueError) as info:
            p.evaluate(z)
        assert str(info.value) == _range_message(p, *z)
        return
    value = p.evaluate(z)
    assert same_float(value.real, expected.real), (p, z, value, expected)
    assert same_float(value.imag, expected.imag), (p, z, value, expected)


_SPECIAL = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e2, 1e200)


def _points(rng: random.Random, n: int):
    """Random points, mostly of moderate size, then every pair of special
    values: signed zeros, infinities, nan and points where powers overflow."""
    for _ in range(n):
        yield tuple(rng.uniform(-3, 3) * 10.0 ** rng.randint(-8, 8)
                    for _ in range(2))
    for x in _SPECIAL:
        for y in _SPECIAL:
            yield x, y


def _unit_poly(rng: random.Random) -> Poly:
    """Coefficients +-1, or +-i on about half of the terms."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        i = rng.randint(0, 6)
        c = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        terms[(i, rng.randint(0, 6 - i))] = c
    return gaussian_poly(terms)


class TestFloatEvaluatorAgainstTermLoop:
    """``Poly.evaluate`` runs generated straight-line code; it must give the
    term loop's values bit for bit, signs of zeros and nan included, and
    its ValueError wherever the loop raised OverflowError."""

    def test_random_real_and_gaussian_polynomials(self):
        rng = random.Random(2)
        for k in range(120):
            p = rand_poly(rng, max_degree=7, max_terms=10,
                          allow_complex=k % 2 == 1)
            for z in _points(rng, 30):
                _assert_matches_term_loop(p, z)

    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "7/3", "-2/9", "x", "-y", "x*y", "-x^2 + 1",
        "x^3 - 3*x*y^2 - 1", "y^5 - x^5 + x - y",
    ])
    def test_fixed_polynomials(self, text):
        for z in _points(random.Random(3), 50):
            _assert_matches_term_loop(P(text), z)

    def test_unit_and_imaginary_coefficients(self):
        rng = random.Random(4)
        for _ in range(80):
            p = _unit_poly(rng)
            for z in _points(rng, 20):
                _assert_matches_term_loop(p, z)

    def test_coefficients_that_round_to_signed_zero(self):
        # -10^-400 is the float -0.0: a real term of -0.0 * x**i * y**j,
        # and an imaginary part the loop skipped as zero
        tiny = Fraction(1, 10 ** 400)
        p = gaussian_poly({(2, 1): (-tiny, -tiny), (0, 1): (0, tiny),
                           (1, 0): (-tiny, 1)})
        for z in _points(random.Random(5), 20):
            _assert_matches_term_loop(p, z)

    def test_many_terms(self):
        # more terms than one generated statement holds, and more than one
        # expression could hold within the compiler's recursion limit
        rng = random.Random(6)
        for n in (250, 3000):
            p = Poly({(k % 60, k // 60): rand_fraction(rng) or 1
                      for k in range(n)})
            assert len(p.terms) == n
            for z in [(0.5, -2.0), (-1.0, 3.0), (1.0001, 0.0), (1e2, 1.0)]:
                _assert_matches_term_loop(p, z)

    @pytest.mark.parametrize("text,z", [
        ("x^200", (1e2, 1.0)),
        ("y + x^200", (-1e2, 0.5)),
        ("1 + x*y^3", (2.0, 1e200)),
        ("10^400*y", (0.5, -0.25)),
        ("x - 10^400*y^2", (0.0, 0.0)),
        ("x^2 + (1 + 10^400*i)*y", (1.0, 1.0)),
    ])
    def test_beyond_float_range_where_the_loop_overflowed(self, text, z):
        with pytest.raises(OverflowError):
            _term_loop(P(text), z)
        _assert_matches_term_loop(P(text), z)

    def test_failed_build_raises_on_every_call(self):
        p = P("x + 10^400*y")
        for z in [(0.5, -0.25), (0.0, 0.0), (0.5, -0.25), (3.0, 1.0)]:
            with pytest.raises(ValueError) as info:
                p.evaluate(z)
            assert str(info.value) == _range_message(p, *z)
        # a part's sum raises on every call when that part of a coefficient
        # is beyond float range: the real part here, both parts of q
        q = P("x + (10^400 + 10^400*i)*y")
        for r, parts in ((p, ["re"]), (q, ["re", "im"])):
            for part in parts:
                sums = float_sums([(r, part)])
                for _ in range(2):
                    with pytest.raises(ValueError) as info:
                        sums((1.0, 1.0))
                    assert str(info.value) == _range_message(r, 1.0, 1.0)
        # and evaluate raises for an imaginary part alone beyond float range
        r = P("x + (1 + 10^400*i)*y")
        assert float_sums([(r, "re")])((2.0, 3.0)) == [5.0]
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                r.evaluate((2.0, 3.0))
            assert str(info.value) == _range_message(r, 2.0, 3.0)

    def test_pickle_and_copy_after_evaluation(self):
        p = P("(1 + 2*i)*x^3*y - 5/7")
        value = p.evaluate((0.75, -1.5))
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert copied == p
            assert copied.evaluate((0.75, -1.5)) == value

    def test_functions_are_cached(self, monkeypatch):
        generated = []

        def counted(sums):
            generated.append(sums)
            return float_sums(sums)

        monkeypatch.setattr(poly, "float_sums", counted)
        p = P("x^2*y - 3")
        for z in [(2.0, 0.5), (1.0, 1.0), (2.0, 0.5)]:
            p.evaluate(z)
        # one function per Poly, over its real and imaginary parts
        assert generated == [[(p, "re"), (p, "im")]]
        value = p.evaluate((2.0, 0.5))
        assert value.real == -1.0 and same_float(value.imag, 0.0)
        re, im = float_sums(generated[0])((2.0, 0.5))
        assert re == -1.0 and same_float(im, 0.0)
        pickle.loads(pickle.dumps(p)).evaluate((2.0, 0.5))
        assert len(generated) == 2  # a copy generates its own

    def test_several_sums_with_many_terms(self):
        # one function over several sums of more terms than one generated
        # statement holds: each value is its polynomial's own, bit for bit
        rng = random.Random(7)
        polys = [gaussian_poly({(k % 30, k // 30): (rand_fraction(rng) or 1,
                                                    rand_fraction(rng))
                                for k in range(n)}) for n in (150, 260, 101)]
        sums = [(polys[0], "re"), (polys[1], "im"),
                (polys[2], "re"), (polys[0], "im")]
        f = float_sums(sums)
        for z in [(0.5, -2.0), (-1.0, 1.25), (1.0001, 0.0), (-0.0, math.nan),
                  (math.inf, 0.5)]:
            loops = [_term_loop(p, z) for p in polys]
            want = [loops[0].real, loops[1].imag, loops[2].real,
                    loops[0].imag]
            assert all(map(same_float, f(z), want)), z
            values = [p.evaluate(z) for p in polys]
            assert all(map(same_float, f(z), [
                values[0].real, values[1].imag, values[2].real,
                values[0].imag]))

    @pytest.mark.parametrize("overflows,named", [
        ((0,), 0), ((1,), 1), ((0, 1), 0), ((1, 2), 1)])
    def test_several_sums_name_the_first_overflow(self, overflows, named):
        # x^200 overflows at x = 100, x^2 does not; sums are read in order
        polys = [P("x^200 + y" if k in overflows else "x^2 + y")
                 for k in range(3)]
        f = float_sums([(p, "re") for p in polys])
        with pytest.raises(ValueError) as info:
            f((100.0, 1.0))
        assert str(info.value) == _range_message(polys[named], 100.0, 1.0)
        assert f((1.5, 1.0)) == [p.evaluate((1.5, 1.0)).real for p in polys]


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


class TestPowerBudget:
    """A power whose degree in x or y would pass ``poly.MAX_DEGREE`` is
    refused before any product: ``(x+y+1)^400`` ran past 120 s."""

    @pytest.fixture
    def products(self, monkeypatch):
        made = []
        mul = Poly.__mul__

        def counted(a, b):
            made.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counted)
        return made

    def test_refused_before_any_product(self, monkeypatch, products):
        monkeypatch.setattr(poly, "MAX_DEGREE", 4)
        x1 = Poly.x() + 1
        with pytest.raises(ValueError, match="^degree 5 in x is above the "
                                             "degree budget 4$"):
            x1 ** 5
        assert products == []
        assert (x1 ** 4).deg_x == 4
        y2 = Poly.y() ** 2 + Poly.const(2)
        with pytest.raises(ValueError, match="^degree 6 in y is above"):
            y2 ** 3

    def test_large_power_raises_at_once(self, products):
        with pytest.raises(ValueError, match="^degree 400 in x is above the "
                                             "degree budget 256$"):
            (Poly.x() + Poly.y() + 1) ** 400
        assert products == []

    def test_budget_itself_expands(self):
        p = (Poly.x() + Poly.y()) ** 256
        assert (p.deg_x, p.deg_y, len(p.numerators)) == (256, 256, 257)
        assert p.numerators[(128, 128)] == math.comb(256, 128)

    def test_constants_have_degree_zero(self):
        assert Poly.const(10) ** 5000 == Poly.const(10 ** 5000)
        assert Poly.zero() ** 300 == Poly.zero()
        assert poly.MAX_DEGREE == 256

    def test_product_refused_before_it_is_expanded(self, monkeypatch):
        def no_product(first, second):
            raise AssertionError("product expanded")

        x200, y200 = Poly({(200, 0): 1}), Poly({(0, 200): 1})
        monkeypatch.setattr(poly, "_product", no_product)
        with pytest.raises(ValueError, match="^degree 400 in x is above the "
                                             "degree budget 256$"):
            x200 * x200
        with pytest.raises(ValueError, match="^degree 400 in y "):
            (x200 + y200) * y200
        monkeypatch.undo()
        assert (Poly({(128, 0): 1}) * Poly({(128, 1): 1})).deg_x == 256
        assert Poly.zero() * Poly({(300, 0): 1}) == Poly.zero()
        monkeypatch.setattr(poly, "MAX_DEGREE", 4)
        with pytest.raises(ValueError, match="^degree 5 in x .* budget 4$"):
            (Poly.x() + 1) ** 2 * (Poly.x() + 1) ** 3

    @pytest.mark.parametrize("text,degree", [
        ("(x+y+1)^60*(x+y+1)^60*(x+y+1)^60*(x+y+1)^60*(x+y+1)^60", 300),
        ("x^200*x^200", 400),
    ], ids=["five_powers", "two_literals"])
    def test_parsed_product_refused_at_once(self, products, text, degree):
        # the budget held only at **: the first took 39 s to give degree
        # 300, and the second read as degree 400
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^degree {degree} in x is above "
                                             "the degree budget 256$"):
            P(text)
        assert time.perf_counter() - start < 1.0
        assert products == []

    @pytest.mark.parametrize("text,axis", [
        ("x^300", "x"), ("(x)^300", "x"), ("y^300", "y"), ("(y)^300", "y")])
    def test_literal_power_refused_as_parenthesized(self, text, axis):
        # x^300 was read, though (x)^300 was refused
        with pytest.raises(ValueError, match=f"^degree 300 in {axis} is above "
                                             "the degree budget 256$"):
            P(text)
        assert P("x^256") == P("(x)^256") == Poly({(256, 0): 1})


class TestDerive:
    def test_spec_examples(self):
        assert P("x^2*y").derive("x") == P("2*x*y")
        assert P("x^2").derive("y").is_zero
        assert P("x^3 - 3*x*y^2").derive("x") == P("3*x^2 - 3*y^2")

    def test_finite_difference_oracle(self):
        rng = random.Random(7)
        h = 1e-5
        for _ in range(100):
            p = rand_poly(rng, max_degree=4)
            dpx = p.derive("x")
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            exact = dpx.evaluate((x, y)).real
            fd = (p.evaluate((x + h, y)).real - p.evaluate((x - h, y)).real) / (2 * h)
            if abs(exact) > 0.1:
                assert abs(fd - exact) / abs(exact) <= 1e-6

    def test_leibniz_rule_for_derive(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = rand_poly(rng, 4), rand_poly(rng, 4)
            assert (a * b).derive("y") == a.derive("y") * b + a * b.derive("y")


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

    def test_pickle_and_copy_after_evaluation(self):
        field = VectorField(P("y"), P("-x + (1 - x^2)*y"),
                            params={"mu": Fraction(1)}, source_text="vdp")
        value, jacobian = field((0.75, -1.5)), field.jacobian
        jacobian_value = field.float_jacobian((0.75, -1.5))
        for copied in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
            # the cached functions and Jacobian are left behind and rebuilt
            assert "float_function" not in vars(copied)
            assert "float_jacobian" not in vars(copied)
            assert "jacobian" not in vars(copied)
            assert copied == field and hash(copied) == hash(field)
            assert (copied.params, copied.source_text) == ({"mu": 1}, "vdp")
            assert all(map(same_float, copied((0.75, -1.5)), value))
            assert copied.jacobian == jacobian
            assert all(map(same_float, copied.float_jacobian((0.75, -1.5)),
                           jacobian_value))

    @settings(max_examples=60)
    @given(polys(), vector_fields())
    def test_leibniz_identity_exact(self, b, x):
        lhs = div_product(b, x)
        rhs = b * divergence(x) + lie_derivative(b, x)
        assert (lhs - rhs).is_zero


def _over(got):
    """kernel_basis's vectors v over d as exact values v[i] / d, each an
    (re, im) pair of Fractions."""
    vectors, d = got
    return [[(Fraction(c.real, d), Fraction(c.imag, d)) for c in v]
            for v in vectors]


class TestKernelBasis:
    def test_real_rows_give_ints_over_d(self):
        rows = [[Fraction(1, 2), 0, Fraction(-3)], [0, Fraction(2, 3), 1]]
        (v,), d = kernel_basis(rows, 3)
        assert all(type(c) is int for c in v + [d]) and d > 0
        assert v[2] == d
        assert _over(([v], d)) == [[(6, 0), (Fraction(-3, 2), 0), (1, 0)]]
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)

    def test_complex_rows_give_gaussian_integers_over_d(self):
        rows = [[Fraction(1, 2), poly._gaussian(0, 1)]]
        (v,), d = kernel_basis(rows, 2)
        assert type(v[0]) is poly._Gaussian and type(d) is int and d > 0
        assert v[1] == d
        assert _over(([v], d)) == [[(0, -2), (1, 0)]]

    def test_no_rows_give_unit_vectors_over_one(self):
        assert kernel_basis([], 2) == ([[1, 0], [0, 1]], 1)

    def test_real_integer_rows_build_no_fraction(self, monkeypatch):
        rows = [[2, 4, 6, -1], [1, 3, 0, 5], [7, 0, -2, 2 ** 100]]
        expected = kernel_basis(rows, 4)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        got = kernel_basis(rows, 4)
        monkeypatch.undo()
        assert made == [] and got == expected
        assert Fraction(1, 2) + 1 == Fraction(3, 2)  # __new__ restored


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


# -- the integer form against the coefficient-map loops ----------------------
#
# A Poly stores integer numerators over one denominator.  The reference
# below replays the arithmetic of a map {exponent: (re, im)} of Fractions
# term by term, as Poly did when it stored one complex rational per term:
# values and the term order of ``terms`` must be the same.

def _c_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _c_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def _ref_make(raw):
    """The map of the (exponent, coefficient) pairs raw, zeros dropped."""
    return {e: c for e, c in raw if c != (0, 0)}


def _ref_accumulate(out, exp, c):
    s = out.get(exp)
    s = c if s is None else _c_add(s, c)
    if s != (0, 0):
        out[exp] = s
    else:
        out.pop(exp, None)


def _ref_add(a, b):
    out = dict(a)
    for exp, c in b.items():
        _ref_accumulate(out, exp, c)
    return out


def _ref_neg(a):
    return {e: (-re, -im) for e, (re, im) in a.items()}


def _ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            _ref_accumulate(out, (i1 + i2, j1 + j2), _c_mul(c1, c2))
    return out


def _ref_scale(a, c):
    return {e: _c_mul(v, c) for e, v in a.items()} if c != (0, 0) else {}


def _ref_pow(a, n):
    result, base = {(0, 0): (Fraction(1), Fraction(0))}, a
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_derive(a, axis):
    k = 0 if axis == "x" else 1
    return {(i - (k == 0), j - (k == 1)): _c_mul(c, ((i, j)[k], 0))
            for (i, j), c in a.items() if (i, j)[k]}


def _ref_divide(n, d):
    grlex = lambda e: (e[0] + e[1], e[0])  # noqa: E731
    d_exp = max(d, key=grlex)
    work, quotient, remainder = dict(n), {}, {}
    while work:
        exp = max(work, key=grlex)
        c = work[exp]
        if exp[0] >= d_exp[0] and exp[1] >= d_exp[1]:
            q_exp = (exp[0] - d_exp[0], exp[1] - d_exp[1])
            q_c = _c_div(c, d[d_exp])
            quotient[q_exp] = q_c
            for (di, dj), dc in d.items():
                t = (q_exp[0] + di, q_exp[1] + dj)
                v = _c_add(work.get(t, (0, 0)), _c_mul((-q_c[0], -q_c[1]), dc))
                if v != (0, 0):
                    work[t] = v
                else:
                    work.pop(t, None)
        else:
            remainder[exp] = c
            del work[exp]
    return quotient, remainder


def _ref_value(a, x, y):
    total = (Fraction(0), Fraction(0))
    for (i, j), c in a.items():
        total = _c_add(total, _c_mul(c, (x ** i * y ** j, 0)))
    return total


def _assert_matches(p: Poly, ref: dict) -> None:
    """Same terms in the same order, and the integer form in lowest terms."""
    assert list(p.terms) == list(ref)
    assert p.terms == {e: CRat(*c) for e, c in ref.items()}
    assert p.is_real == all(im == 0 for _, im in ref.values())
    parts = [v for n in p.numerators.values() for v in (n.real, n.imag)]
    assert p.denominator > 0
    assert math.gcd(p.denominator, *parts) == 1
    assert all(type(v) is int for v in parts)


_big = st.integers(-2 ** 1000, 2 ** 1000)
_parts = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, _big, st.integers(1, 2 ** 64)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 2 ** 1000)),
    st.just(Fraction(0)))


@st.composite
def _raw_terms(draw, allow_complex=True):
    """(exponent, (re, im)) pairs: small and 1,000-bit numerators and
    denominators, real or complex, zeros and repeated exponents included."""
    complex_ = allow_complex and draw(st.booleans())
    raw = []
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, 4))
        exp = (i, draw(st.integers(0, 4 - i)))
        im = draw(_parts) if complex_ and draw(st.booleans()) else Fraction(0)
        raw.append((exp, (draw(_parts), im)))
    return raw


def _from_raw(raw):
    return gaussian_poly(dict(raw)), _ref_make(dict(raw).items())


def _complex_constant(re, im):
    return re + im * Poly.i()


# operands: ints, Fractions and complex constants, which are Polys
_scalars = st.one_of(st.integers(-5, 5), _parts,
                     st.builds(_complex_constant, _parts, _parts))


def _pair(c):
    """(re, im) Fractions of an int, a Fraction, a numerator or a constant
    Poly."""
    if isinstance(c, Poly):
        n = c.numerators.get((0, 0), 0)
        return Fraction(n.real, c.denominator), Fraction(n.imag, c.denominator)
    return Fraction(c.real), Fraction(c.imag)


class TestIntegerFormAgainstCoefficientLoops:
    @settings(max_examples=100, deadline=None)
    @given(_raw_terms(), _raw_terms())
    def test_ring_operations(self, raw_a, raw_b):
        (a, ra), (b, rb) = _from_raw(raw_a), _from_raw(raw_b)
        _assert_matches(a, ra)
        _assert_matches(b, rb)
        _assert_matches(a + b, _ref_add(ra, rb))
        _assert_matches(a - b, _ref_add(ra, _ref_neg(rb)))
        _assert_matches(-a, _ref_neg(ra))
        _assert_matches(a * b, _ref_mul(ra, rb))
        _assert_matches(a - a, {})
        _assert_matches(a.conjugate(),
                        {e: (re, -im) for e, (re, im) in ra.items()})
        assert (a == b) == (ra == rb)
        assert (a + b == b + a) and hash(a + b) == hash(b + a)

    @settings(max_examples=100, deadline=None)
    @given(_raw_terms(), _scalars)
    def test_scalar_operations(self, raw, c):
        p, ref = _from_raw(raw)
        _assert_matches(p * c, _ref_scale(ref, _pair(c)))
        _assert_matches(c * p, _ref_scale(ref, _pair(c)))
        _assert_matches(p + c, _ref_add(ref, _ref_make([((0, 0), _pair(c))])))
        if _pair(c) != (0, 0):
            inv = _c_div((Fraction(1), Fraction(0)), _pair(c))
            _assert_matches(p / c, {e: _c_div(v, _pair(c))
                                    for e, v in ref.items()})
            assert p / c == p * _complex_constant(*inv)

    @settings(max_examples=60, deadline=None)
    @given(_raw_terms(), st.integers(0, 3))
    def test_power_and_derivatives(self, raw, n):
        p, ref = _from_raw(raw)
        _assert_matches(p ** n, _ref_pow(ref, n))
        for axis in "xy":
            _assert_matches(p.derive(axis), _ref_derive(ref, axis))

    @settings(max_examples=80, deadline=None)
    @given(_raw_terms(), _raw_terms(allow_complex=False),
           _raw_terms(allow_complex=False))
    def test_div_product(self, raw_b, raw_p, raw_q):
        # one sum over one denominator, in the order of the Poly expression
        (b, rb), (p, rp), (q, rq) = map(_from_raw, (raw_b, raw_p, raw_q))
        div = _ref_add(_ref_derive(rp, "x"), _ref_derive(rq, "y"))
        lie = _ref_add(_ref_mul(rp, _ref_derive(rb, "x")),
                       _ref_mul(rq, _ref_derive(rb, "y")))
        _assert_matches(div_product(b, VectorField(p, q)),
                        _ref_add(_ref_mul(rb, div), lie))

    @settings(max_examples=80, deadline=None)
    @given(_raw_terms(), _raw_terms())
    def test_division(self, raw_n, raw_d):
        (n, rn), (d, rd) = _from_raw(raw_n), _from_raw(raw_d)
        if not rd:
            with pytest.raises(ZeroDivisionError):
                poly_divide(n, d)
            return
        (q, r), (rq, rr) = poly_divide(n, d), _ref_divide(rn, rd)
        _assert_matches(q, rq)
        _assert_matches(r, rr)

    @settings(max_examples=60, deadline=None)
    @given(_raw_terms(), _parts, _parts)
    def test_exact_value(self, raw, x, y):
        p, ref = _from_raw(raw)
        re, im = _ref_value(ref, x, y)
        assert _exact_parts(p, x, y) == (re, im)
        if p.is_real:
            assert p.evaluate_exact(x, y) == re
        else:
            with pytest.raises(ValueError):
                p.evaluate_exact(x, y)

    @settings(max_examples=60, deadline=None)
    @given(_raw_terms())
    def test_pickle_and_copy(self, raw):
        p, ref = _from_raw(raw)
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            _assert_matches(copied, ref)
            assert copied == p and hash(copied) == hash(p)

    @settings(max_examples=60, deadline=None)
    @given(_scalars, _raw_terms())
    def test_hash_agrees_with_equality(self, c, raw):
        # a constant equals the one built from its parts, and a real one its
        # int or Fraction, and hashes as it does, also where it is left over
        # from a cancellation
        p, _ = _from_raw(raw)
        re, im = _pair(c)
        forms = [_complex_constant(re, im)]
        if not im:
            forms += [re] + ([int(re)] if re.denominator == 1 else [])
        for const in (c if isinstance(c, Poly) else Poly.const(c),
                      (p + c) - p, (Poly.x() + c) - Poly.x()):
            for v in forms:
                assert const == v and v == const and hash(const) == hash(v)
                assert const in {v} and v in {const}

    def test_cancellations(self):
        x, one = Poly.x(), Poly.const(1)
        _assert_matches((x + one) * (x - one),
                        {(2, 0): (1, 0), (0, 0): (-1, 0)})
        p = P("1/3*x^2*y - 2/7*x + (1 + i)*y + 5")
        _assert_matches(p - p, {})
        _assert_matches(Poly.zero(), {})
        assert (p - p).denominator == 1 and (p - p) == 0 and hash(p - p) == 0
        # a complex polynomial whose imaginary parts cancel is real
        q = p - P("(1 + i)*y")
        assert q.is_real and q == P("1/3*x^2*y - 2/7*x + 5")
        assert all(type(n) is int for n in q.numerators.values())

    def test_big_numerators_keep_lowest_terms(self):
        big = 2 ** 1000 + 1
        p = Poly({(1, 0): Fraction(big, 3), (0, 1): Fraction(2, 3)})
        assert (p.numerators, p.denominator) == ({(1, 0): big, (0, 1): 2}, 3)
        q = p * 3 - Poly({(0, 1): 2})
        assert (q.numerators, q.denominator) == ({(1, 0): big}, 1)

    @pytest.mark.parametrize("bad", [1.5, 0.5, "1", None, complex(1, 2)])
    def test_non_exact_coefficients_are_rejected(self, bad):
        # a float was stored as NotImplemented, which is truthy
        with pytest.raises(TypeError):
            Poly({(1, 0): bad})
        with pytest.raises(TypeError):
            Poly.const(bad)


def _ref_kernel_basis(rows, n_cols):
    """Gauss-Jordan on (re, im) pairs of Fractions, the solver before
    fraction-free elimination: its vectors hold (re, im) pairs."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    work = [[_pair(v) for v in r] for r in rows]
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != zero),
                     None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = _c_div(one, work[r][c])
        work[r] = [_c_mul(v, inv) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != zero:
                minus_f = (-work[i][c][0], -work[i][c][1])
                work[i] = [_c_add(v, _c_mul(minus_f, w))
                           for v, w in zip(work[i], work[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(work):
            break
    basis = []
    for fc in [c for c in range(n_cols) if c not in pivot_cols]:
        v = [zero] * n_cols
        v[fc] = one
        for pr, pc in enumerate(pivot_cols):
            v[pc] = (-work[pr][fc][0], -work[pr][fc][1])
        basis.append(v)
    return basis


_small = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))  # zeros often
_entry_parts = st.one_of(
    _small, _big, st.builds(Fraction, _small, st.integers(1, 6)),
    st.builds(Fraction, _big, st.integers(1, 2 ** 1000)))


@st.composite
def _matrices(draw):
    """(rows, n_cols): rows of ints and Fractions ("real"), of a
    Poly's numerators, ints and Gaussian integers ("numerators"), or of
    both ("mixed"); with zero rows, duplicate rows and combinations of
    rows, so the rank falls short, and no rows at all."""
    kind = draw(st.sampled_from(["real", "mixed", "numerators"]))
    n_cols = draw(st.integers(1, 5))
    ints = st.one_of(_small, _big)
    gaussians = st.builds(poly._gaussian, ints, st.one_of(st.just(0), ints))
    if kind == "real":
        entry = _entry_parts
    elif kind == "mixed":
        entry = st.one_of(_entry_parts, gaussians)
    else:
        entry = gaussians
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
            for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        how = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if how == "zero":
            rows.append([0] * n_cols)
        elif how == "duplicate":
            rows.append(list(u))
        else:
            a, b = draw(_small), draw(_small)
            if kind == "mixed":  # on pairs, cleared to (Gaussian) ints
                rows.append(cleared_row([_c_add(_c_mul((a, 0), _pair(s)),
                                                _c_mul((b, 0), _pair(t)))
                                         for s, t in zip(u, w)]))
            else:
                rows.append([a * s + b * t for s, t in zip(u, w)])
    return draw(st.permutations(rows)), n_cols


class TestKernelBasisAgainstGaussJordan:
    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_same_vectors_and_types(self, matrix):
        rows, n_cols = matrix
        expected = _ref_kernel_basis(rows, n_cols)
        got = kernel_basis(rows, n_cols)
        # equal vectors: the same free columns, in order, and RREF entries
        assert _over(got) == expected
        vectors, d = got
        assert type(d) is int and d > 0
        real = all(not _pair(v)[1] for row in rows for v in row)
        entry_types = (int,) if real else (int, poly._Gaussian)
        assert all(type(c) in entry_types for v in vectors for c in v)

    @pytest.mark.parametrize("rows,n_cols,expected", [
        ([], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[0, 0, 0]], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[2, 4, 6], [1, 2, 3], [0, 0, 0]], 3, [[-2, 1, 0], [-3, 0, 1]]),
        ([[1, 1], [1, -1]], 2, []),
        ([[0, 3, 0, 6], [0, 0, 2, 4]], 4, [[1, 0, 0, 0], [0, -2, -2, 1]]),
    ])
    def test_rank_deficient_and_zero_rows(self, rows, n_cols, expected):
        got = kernel_basis(rows, n_cols)
        assert _over(got) == [[(c, 0) for c in v] for v in expected]
        assert _over(got) == _ref_kernel_basis(rows, n_cols)

    def test_gaussian_rows(self):
        # (1 + i) x + 2 y = 0 and its multiple by i: x = -2/(1 + i) y
        rows = [[poly._gaussian(1, 1), 2], [poly._gaussian(-1, 1),
                                            poly._gaussian(0, 2)]]
        (v,), d = kernel_basis(rows, 2)
        assert v[1] == d and type(v[0]) is poly._Gaussian
        assert _over(([v], d)) == [[(-1, 1), (1, 0)]]
        assert _over(([v], d)) == _ref_kernel_basis(rows, 2)
