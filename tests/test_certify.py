"""Bernstein patches and positivity certificates."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from dulac.certify import (
    SPLIT,
    Box2,
    Certificate,
    Conclusion,
    Inconclusive,
    Positive,
    Violation,
    bendixson,
    bernstein_coefficients,
    certify_dulac,
    certify_positive,
    short_numeral,
    walk,
)
from dulac.jsonform import from_json, to_json
from dulac.multiplier import BENDIXSON, Multiplier
from dulac.parse import parse_multiplier, parse_poly, parse_system
from dulac.poly import Point, Poly, generate
from dulac.synthesis import local_dulac_hyperbolic

from conftest import (
    batch_eval,
    perturbed_linear_field,
    polys,
    rand_field,
    rand_poly,
    sample_box,
)

UNIT = Box2(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
SYM = Box2(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

box_st_cache = [
    Box2(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)),
    Box2(Fraction(0), Fraction(3), Fraction(-2), Fraction(-1)),
    Box2(Fraction(-1, 2), Fraction(5, 2), Fraction(1, 3), Fraction(2)),
    Box2(Fraction(-4), Fraction(-1), Fraction(-1, 2), Fraction(1, 2)),
]


class TestBox2:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def test_dict_round_trip(self):
        b = Box2(Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(7, 5))
        assert from_json(Box2, to_json(b)) == b

    @pytest.mark.parametrize("corner,message", [
        ("y_min", "box y_min = -100000...(401 digits) is beyond float range"),
        ("x_max", "box x_max = 333333...(401 digits) is beyond float range"),
    ])
    def test_as_floats_names_the_corner(self, corner, message):
        corners = {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1}
        corners[corner] = {"y_min": Fraction(-10 ** 400),
                           "x_max": Fraction(10 ** 401 // 3)}[corner]
        with pytest.raises(ValueError) as info:
            Box2(**corners).as_floats()
        assert str(info.value) == message

    @pytest.mark.parametrize("value,text", [
        (Fraction(-123456), "-123456"),
        (Fraction(1234567, 3), "123456...(7 digits)/3"),
        (Fraction(1, 10 ** 6), "1/100000...(7 digits)"),
        (Fraction(10 ** 6 - 1), "999999"),
        # beyond the digit limit of int-to-str conversion
        (Fraction(10 ** 5000 + 1), "100000...(5001 digits)"),
    ])
    def test_short_numeral(self, value, text):
        assert short_numeral(value) == text


class TestBernsteinPatch:
    def test_constant(self):
        patch = bernstein_coefficients(Poly.const(1), SYM)
        assert patch.numerators == ((patch.denominator,),)

    def test_linear_on_unit(self):
        patch = bernstein_coefficients(parse_poly("x"), UNIT)
        assert patch.numerators == ((0,), (patch.denominator,))

    def test_x_squared_on_sym(self):
        patch = bernstein_coefficients(parse_poly("x^2"), SYM)
        assert patch.degrees == (2, 0)
        d = patch.denominator
        assert [c[0] for c in patch.numerators] == [d, -d, d]

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            bernstein_coefficients(parse_poly("i*x"), SYM)

    def test_carrier_to_patch_builds_no_fraction(self, monkeypatch):
        # the carrier Div(B*X) and its conversion run on integer numerators
        system = parse_system("P = y/3 - x^3\nQ = -x/2 + (1 - 7/4*x^2)*y\n")
        mult = parse_multiplier("exp(x/2 - y^2/6)*(1 + x^2/4 - 2/9*x*y)")
        box = Box2(Fraction(-1, 3), Fraction(1, 2), Fraction(-2), Fraction(5, 7))
        expected = bernstein_coefficients(mult.sign_carrier(system), box)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        patch = bernstein_coefficients(mult.sign_carrier(system), box)
        monkeypatch.undo()
        assert made == [] and patch == expected
        assert Fraction(1, 2) + 1 == Fraction(3, 2)  # __new__ restored

    @settings(max_examples=50)
    @given(polys(max_degree=4))
    def test_corner_interpolation(self, p):
        if not p.is_real:
            return
        for box in box_st_cache[:2]:
            patch = bernstein_coefficients(p, box)
            for corner, num in zip(box.corners(), patch.corner_numerators()):
                assert num == p.evaluate_exact(*corner) * patch.denominator

    @settings(max_examples=50)
    @given(polys(max_degree=4))
    def test_range_enclosure(self, p):
        if not p.is_real:
            return
        rng = random.Random(5)
        for box in box_st_cache:
            patch = bernstein_coefficients(p, box)
            # the least and greatest coefficients, correctly rounded
            lo = float(patch.min_coefficient)
            hi = max(map(max, patch.numerators)) / patch.denominator
            x_min, x_max, y_min, y_max = box.as_floats()
            for _ in range(10):
                z = (rng.uniform(x_min, x_max), rng.uniform(y_min, y_max))
                v = p.evaluate(z).real
                assert lo - 1e-9 <= v <= hi + 1e-9

    def test_subdivision_is_exact(self):
        p = parse_poly("x^3*y - 2*x*y^2 + y - 1/3")
        patch = bernstein_coefficients(p, SYM)
        for child in patch.subdivide():
            direct = bernstein_coefficients(p, child.box)
            # equal coefficients: numerators cross-multiplied
            assert ([[c * direct.denominator for c in row]
                     for row in child.numerators]
                    == [[c * child.denominator for c in row]
                        for row in direct.numerators])


class TestWalk:
    def test_always_split_yields_the_grid_sw_first(self):
        box = Box2(Fraction(-1, 3), Fraction(2), Fraction(1, 7), Fraction(3))
        p = parse_poly("x^2*y - 3*x + 1/5")
        root = bernstein_coefficients(p, box)
        assert root.box is box

        def quarters(lo, hi):  # grid lines by repeated midpoints
            mid = (lo + hi) / 2
            return [lo, (lo + mid) / 2, mid, (mid + hi) / 2, hi]

        xs = quarters(box.x_min, box.x_max)
        ys = quarters(box.y_min, box.y_max)
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]  # SW, SE, NW, NE
        expected = [(2 * a + c, 2 * b + d) for a, b in order for c, d in order]
        got = list(walk((root,), lambda patches: SPLIT, 2))
        assert len(got) == 16
        for (verdict, (patch,), depth), (i, j) in zip(got, expected):
            assert verdict is SPLIT and depth == 2
            assert patch.cell == (2, i, j)
            cell = Box2(xs[i], xs[i + 1], ys[j], ys[j + 1])
            assert patch.box == cell
            direct = bernstein_coefficients(p, cell)
            assert ([[c * direct.denominator for c in row]
                     for row in patch.numerators]
                    == [[c * patch.denominator for c in row]
                        for row in direct.numerators])


class TestCertifyPositive:
    def test_positive_definite_plus_constant(self):
        cert = certify_positive(parse_poly("x^2 + y^2 + 1"), SYM)
        assert isinstance(cert.outcome, Positive)
        assert cert.outcome.max_depth_used <= 1

    def test_violation_at_corner(self):
        cert = certify_positive(parse_poly("x"), SYM)
        assert isinstance(cert.outcome, Violation)
        assert cert.outcome.witness[0] == Fraction(-1)
        assert cert.outcome.value == Fraction(-1)

    def test_van_der_pol_strip_carrier(self):
        box = Box2(Fraction(-19, 20), Fraction(19, 20), Fraction(-4), Fraction(4))
        cert = certify_positive(parse_poly("1 - x^2"), box)
        assert isinstance(cert.outcome, Positive)
        assert cert.outcome.max_depth_used <= 2
        patch = bernstein_coefficients(parse_poly("1 - x^2"), box)
        assert patch.min_coefficient == Fraction(39, 400)  # 0.0975 at x = 0.95

    def test_zero_polynomial_is_violation(self):
        cert = certify_positive(Poly.zero(), SYM)
        assert isinstance(cert.outcome, Violation)
        assert cert.outcome.value == 0

    def test_inconclusive_at_depth_limit(self):
        # vanishes at an interior non-dyadic point, positive at all vertices
        p = parse_poly("(3*x - 1)^2 + (3*y - 1)^2")
        cert = certify_positive(p, UNIT, max_depth=2)
        assert isinstance(cert.outcome, Inconclusive)
        assert cert.outcome.undecided_boxes > 0

    def test_depth_zero_decides_root_patch(self):
        cert = certify_positive(parse_poly("x^2 + y^2 + 1"), UNIT, max_depth=0)
        assert cert.outcome == Positive(max_depth_used=0, box_count=1)
        cert = certify_positive(parse_poly("x^2 + y^2 - 1/2"), SYM, max_depth=0)
        assert cert.outcome == Inconclusive(depth_limit=0, undecided_boxes=1)

    def test_negative_depth_rejected_before_conversion(self, monkeypatch):
        # a depth limit of -1 used to come back as Inconclusive(depth_limit=-1)
        import dulac.certify as certify

        def no_conversion(p, box):
            raise AssertionError("converted before checking the depth")

        monkeypatch.setattr(certify, "bernstein_coefficients", no_conversion)
        p = parse_poly("x^2 + y^2 + 1")
        with pytest.raises(ValueError, match="depth must be >= 0"):
            certify_positive(p, SYM, -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            bendixson(parse_system("P = x\nQ = y"), SYM, max_depth=-3)

    def test_kernels_generated_once_per_degree(self, monkeypatch):
        # each axis degree has one halving and one conversion function,
        # generated on first use and shared by every later patch
        import dulac.certify as certify

        generated = []

        def counted(lines, name, filename, **names):
            generated.append(filename)
            return generate(lines, name, filename, **names)

        monkeypatch.setattr(certify, "generate", counted)
        certify._halving.cache_clear()
        certify._conversion.cache_clear()
        rng = random.Random(5)
        for _ in range(30):
            # small near (1/3, 1/3), so every root patch splits
            p = parse_poly(f"{rng.choice((-1, 1))}*x^3*y^2/8 + (3*x - 1)^2"
                           f" + (3*y - 1)^2 + {rng.randint(1, 9)}/10")
            certify_positive(p, SYM, max_depth=3)
        assert sorted(generated) == [
            "<certify conversion 2>", "<certify conversion 3>",
            "<certify halving 2>", "<certify halving 3>"]
        assert certify._conversion.cache_info().hits == 2 * 30 - 2
        assert certify._halving.cache_info().hits > 30

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_degree_budget(self, monkeypatch, axis):
        # the budget's own degree certifies; one above is a ValueError
        # naming the axis and the degree, before any kernel is generated
        import dulac.certify as certify

        generated = []

        def counted(lines, name, filename, **names):
            generated.append(filename)
            return generate(lines, name, filename, **names)

        monkeypatch.setattr(certify, "MAX_DEGREE", 5)
        monkeypatch.setattr(certify, "generate", counted)
        certify._halving.cache_clear()
        certify._conversion.cache_clear()
        at = certify_positive(parse_poly(f"1 + {axis}^5"), UNIT)
        assert at.outcome == Positive(max_depth_used=0, box_count=1)
        assert generated
        generated.clear()
        with pytest.raises(ValueError, match=(
                f"^degree 6 in {axis} is above the Bernstein degree budget "
                "5$")):
            bernstein_coefficients(parse_poly(f"x*y + {axis}^6"), UNIT)
        assert generated == []

    def test_degree_above_default_budget_generates_nothing(self, monkeypatch):
        # x^257 would generate about 100,000 lines per kernel
        import dulac.certify as certify

        generated = []
        monkeypatch.setattr(certify, "generate",
                            lambda *args, **names: generated.append(args))
        assert certify.MAX_DEGREE == 256
        # built directly: the parser refuses x^257 against poly.MAX_DEGREE
        for exponent, axis in (((257, 0), "x"), ((256, 257), "y")):
            with pytest.raises(ValueError, match=f"degree 257 in {axis} is "
                                                 "above the Bernstein"):
                certify_positive(Poly({exponent: 1}), UNIT)
        assert generated == []

    def test_degree_16_kernels(self):
        # positive at the root on a non-dyadic box away from the origin,
        # and a violation at the exact centre vertex one split down
        box = Box2(Fraction(1, 3), Fraction(2, 3), Fraction(1, 7), Fraction(1))
        p = parse_poly("1 + x^16*y^16 + x*y^15 + 3*x^16")
        assert bernstein_coefficients(p, box).degrees == (16, 16)
        cert = certify_positive(p, box)
        assert cert.outcome == Positive(max_depth_used=0, box_count=1)
        q = parse_poly("(2*x - 1)^16*(2*y - 1)^16 + (2*x - 1)^2 + (2*y - 1)^2"
                       " - 1/8")
        cert = certify_positive(q, UNIT)
        half = Fraction(1, 2)
        assert cert.outcome == Violation(witness=(half, half),
                                         value=Fraction(-1, 8), depth=1)
        assert q.evaluate_exact(half, half) == Fraction(-1, 8)

    def test_violation_witness_exact(self):
        rng = random.Random(13)
        for _ in range(40):
            p = rand_poly(rng, 4)
            if not p.is_real:
                continue
            cert = certify_positive(p, SYM, max_depth=4)
            if isinstance(cert.outcome, Violation):
                wx, wy = cert.outcome.witness
                value = p.evaluate_exact(wx, wy)
                assert value == cert.outcome.value
                assert value <= 0

    def test_positive_soundness_by_sampling(self):
        rng = random.Random(17)
        found = 0
        while found < 10:
            p = rand_poly(rng, 4) + Poly.const(rng.randint(5, 30))
            if not p.is_real:
                continue
            cert = certify_positive(p, SYM, max_depth=8)
            if not isinstance(cert.outcome, Positive):
                continue
            found += 1
            xs, ys = sample_box(SYM, 2000, seed=found)
            assert batch_eval(p, xs, ys).min() > 0

    def test_subdivision_refinement_monotone(self):
        rng = random.Random(23)
        for _ in range(10):
            p = rand_poly(rng, 3)
            if not p.is_real:
                continue
            p = p * p + Poly.const(Fraction(1, 7))  # positive by construction
            last = None
            for depth in range(4):
                patches = [bernstein_coefficients(p, SYM)]
                for _ in range(depth):
                    patches = [c for patch in patches
                               for c in patch.subdivide()]
                bound = min(pt.min_coefficient for pt in patches)
                if last is not None:
                    assert bound >= last
                last = bound

    def test_determinism(self):
        p = parse_poly("x^2 + y^2 - 1/2")
        a = certify_positive(p, SYM, max_depth=6)
        b = certify_positive(p, SYM, max_depth=6)
        assert a == b

    def test_full_dict_round_trip(self):
        for p, depth in [(parse_poly("x^2 + y^2 + 1"), 6),
                         (parse_poly("x"), 6),
                         (parse_poly("(3*x-1)^2 + (3*y-1)^2"), 1)]:
            cert = certify_positive(p, UNIT, max_depth=depth)
            again = from_json(Certificate, to_json(cert))
            assert again == cert


# A time function g (grad g . X > 0) gives the flow-box multiplier
# B = exp(lam*g), with carrier Div X + lam * grad g . X.  The rotation's
# g = y certifies the box that holds the annular sector of radii 1-2 and
# angles 0-1.5; on [-2,2]^2, where every orbit is periodic, no axis time
# function certifies, so each such case has a violation witness.
TIME_FUNCTION_SYSTEMS = {
    "rotation": parse_system((SYSTEMS / "rotation.vf").read_text()),
    "constant": parse_system("P = 1\nQ = 0"),
}
TIME_FUNCTION_BOXES = {
    "sector": Box2(Fraction(1, 16), Fraction(2), Fraction(0), Fraction(2)),
    "sym": SYM,
    "big": Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2)),
}
TIME_FUNCTION_CASES = [
    ("rotation", "exp(y)", "sector", "x", True),
    ("rotation", "exp(4*y)", "sector", "4*x", True),
    ("constant", "exp(x)", "sym", "1", True),
] + [("rotation", f"exp({lam}*{g})", "big", f"{lam}*{g_dot_x}", False)
     for lam in ("1/4", "1", "4", "16")
     for g, g_dot_x in (("y", "x"), ("x", "-y"))]


class TestDulacCertificates:
    def setup_method(self):
        self.vdp = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")

    def test_bendixson_van_der_pol_strip(self):
        box = Box2(Fraction(-19, 20), Fraction(19, 20), Fraction(-4), Fraction(4))
        result = bendixson(self.vdp, box)
        assert result.conclusion is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        assert result.certificate.carrier == parse_poly("1 - x^2")

    def test_bendixson_violation_on_big_box(self):
        box = Box2(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3))
        result = bendixson(self.vdp, box)
        assert result.conclusion is Conclusion.NOT_CERTIFIED
        outcome = result.certificate.outcome
        assert isinstance(outcome, Violation)
        assert outcome.value <= 0
        assert abs(outcome.witness[0]) >= 1  # carrier 1 - x^2 needs |x| >= 1

    def test_bendixson_trivial_cases(self):
        radial = parse_system("P = x\nQ = y")
        result = bendixson(radial, Box2(Fraction(-5), Fraction(2),
                                        Fraction(-1), Fraction(7)))
        assert result.conclusion is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        rot = parse_system("P = -y\nQ = x")
        result = bendixson(rot, SYM)
        assert result.conclusion is Conclusion.NOT_CERTIFIED
        assert isinstance(result.certificate.outcome, Violation)

    def test_certify_dulac_with_quadratic_multiplier(self):
        radial = parse_system("P = x\nQ = y")
        box = Box2(Fraction(1), Fraction(2), Fraction(1), Fraction(2))
        result = certify_dulac(radial, parse_multiplier("(x^2+y^2)/4"), box)
        assert result.conclusion is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        assert result.certificate.carrier == parse_poly("x^2 + y^2")

    def test_conclusion_iff_positive(self):
        rng = random.Random(29)
        from conftest import rand_field
        for _ in range(25):
            system = rand_field(rng, 3)
            result = bendixson(system, SYM, max_depth=4)
            assert (result.conclusion is
                    Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED) == \
                result.certificate.is_positive

    def test_exp_multiplier_carrier(self):
        system = parse_system("P = 1\nQ = 1")
        mult = parse_multiplier("exp(-2*y)*1")
        result = certify_dulac(system, mult, SYM)
        assert result.certificate.carrier == parse_poly("-2")
        assert result.conclusion is Conclusion.NOT_CERTIFIED

    @pytest.mark.parametrize("system,multiplier,box,carrier,positive",
                             TIME_FUNCTION_CASES,
                             ids=["-".join(c[:3]) for c in TIME_FUNCTION_CASES])
    def test_time_function_multiplier(self, system, multiplier, box, carrier,
                                      positive):
        result = certify_dulac(TIME_FUNCTION_SYSTEMS[system],
                               parse_multiplier(multiplier),
                               TIME_FUNCTION_BOXES[box])
        cert = result.certificate
        assert cert.carrier == parse_poly(carrier)
        assert (result.conclusion is
                Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED) is positive
        if not positive:
            assert isinstance(cert.outcome, Violation)
            witness, value = cert.outcome.witness, cert.outcome.value
            assert value <= 0
            assert cert.carrier.evaluate_exact(*witness) == value

    def test_schema_dict(self):
        box = Box2(Fraction(-19, 20), Fraction(19, 20), Fraction(-4), Fraction(4))
        d = to_json(bendixson(self.vdp, box))
        # the certify report's result; its open-box note is in the golden file
        assert list(d) == ["conclusion", "multiplier", "box",
                           "certificate_full"]
        assert d["conclusion"] == "no_periodic_orbit_fully_contained"
        assert d["multiplier"] == "1"
        assert d["box"] == to_json(box)
        assert d["certificate_full"]["outcome"] == "positive"
        assert d["certificate_full"]["witness"] is None


class TestMultiplier:
    @pytest.mark.parametrize("text, printed, data", [
        ("1", "1", {"type": "poly", "p": "1"}),
        ("x^2+y", "x^2 + y", {"type": "poly", "p": "x^2 + y"}),
        ("exp(y)", "exp(y)*1", {"type": "exp_poly", "g": "y", "p": "1"}),
        ("exp(0)*x", "exp(0)*x", {"type": "exp_poly", "g": "0", "p": "x"}),
        ("exp(x)*y^2 + 1", "exp(x)*y^2 + 1",
         {"type": "exp_poly", "g": "x", "p": "y^2 + 1"}),
    ])
    def test_text_and_json_forms(self, text, printed, data):
        m = parse_multiplier(text)
        assert str(m) == printed
        assert json.dumps(to_json(m)) == json.dumps(data)  # key order too
        assert from_json(Multiplier, to_json(m)) == m

    @pytest.mark.parametrize("seed", range(12))
    def test_carrier_is_central_difference_divergence(self, seed):
        # Div(B*X) = carrier for B = p, and exp(g) * carrier for
        # B = exp(g) * p, against central differences of the float B*X
        rng = random.Random(seed)
        system = rand_field(rng, 3)
        p = rand_poly(rng, 3)
        g = rand_poly(rng, 2) * Fraction(1, 8)
        h = 1e-5

        def value(poly, x, y):
            return poly.evaluate((x, y)).real

        for b, scale in ((Multiplier(p), lambda x, y: 1.0),
                         (Multiplier(p, g),
                          lambda x, y: math.exp(value(g, x, y)))):
            carrier = b.sign_carrier(system)

            def bx(x, y):
                w = scale(x, y) * value(p, x, y)
                return w * value(system.p, x, y), w * value(system.q, x, y)

            for _ in range(20):
                x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
                ends = [bx(x + h, y), bx(x - h, y), bx(x, y + h), bx(x, y - h)]
                div = ((ends[0][0] - ends[1][0])
                       + (ends[2][1] - ends[3][1])) / (2 * h)
                size = max(1.0, *(abs(v) for end in ends for v in end))
                assert scale(x, y) * value(carrier, x, y) == pytest.approx(
                    div, abs=1e-6 * size), (str(b), x, y)


# --- differential tests against a plain Fraction reference -----------------
#
# The reference shares no code with dulac.certify: power coefficients of
# p(x0 + W u, y0 + H v) by the binomial theorem, the textbook sum
# b_kl = sum C(k,i) C(l,j) / (C(m,i) C(n,j)) a_ij, and de Casteljau halving
# by midpoint averages.


def _ref_bernstein(terms, m, n, box):
    x0, y0 = box.x_min, box.y_min
    w, h = box.x_max - box.x_min, box.y_max - box.y_min
    a = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in terms.items():
        for k in range(i + 1):
            for l in range(j + 1):
                a[k][l] += (c * math.comb(i, k) * x0 ** (i - k) * w ** k
                            * math.comb(j, l) * y0 ** (j - l) * h ** l)
    return [[sum((Fraction(math.comb(k, i) * math.comb(l, j),
                           math.comb(m, i) * math.comb(n, j)) * a[i][j]
                  for i in range(k + 1) for j in range(l + 1)), Fraction(0))
             for l in range(n + 1)]
            for k in range(m + 1)]


def _ref_halve(seq):
    """Left and right de Casteljau halves of a list of Fraction vectors."""
    left, right, tri = [seq[0]], [seq[-1]], list(seq)
    while len(tri) > 1:
        tri = [[(a + b) / 2 for a, b in zip(u, v)]
               for u, v in zip(tri, tri[1:])]
        left.append(tri[0])
        right.append(tri[-1])
    return left, right[::-1]


def _ref_children(b, corners):
    """(corners, coefficients) of the SW, SE, NW, NE halves."""
    x_min, x_max, y_min, y_max = corners
    xm, ym = (x_min + x_max) / 2, (y_min + y_max) / 2
    left, right = _ref_halve(b)
    out = []
    for ys, tb in (((y_min, ym), 0), ((ym, y_max), 1)):
        for xs, half in (((x_min, xm), left), ((xm, x_max), right)):
            cols = _ref_halve([list(col) for col in zip(*half)])[tb]
            out.append(((xs[0], xs[1], ys[0], ys[1]),
                        [list(row) for row in zip(*cols)]))
    return out


def _differential_polys():
    """Seeded real polys up to degree (6, 6) with non-dyadic coefficients,
    plus the zero, constant and one-axis extremes.  Each degree has its own
    generated kernels, so one-axis polys of every degree 0..12 in x and in
    y follow, then the mixed degrees (12, 7) and (0, 9), and a (3, 4) poly
    whose coefficients have 1,000-bit numerators of both signs."""
    rng = random.Random(3571)
    dens = (3, 5, 7, 9, 11, 13, 21, 1)

    def sample(dx, dy):
        terms = {(dx, dy): Fraction(rng.choice((-1, 1)), rng.choice(dens))}
        for _ in range(rng.randint(1, 10)):
            terms[(rng.randint(0, dx), rng.randint(0, dy))] = Fraction(
                rng.randint(-99, 99), rng.choice(dens))
        return {e: c for e, c in terms.items() if c}

    out = [{}, {(0, 0): Fraction(-5, 3)}, {(6, 0): Fraction(2, 7)},
           {(0, 6): Fraction(-1, 9), (0, 0): Fraction(1, 3)}]
    out += [sample(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(8)]
    for d in range(13):
        out += [sample(d, 0), sample(0, d)]
    out += [sample(12, 7), sample(0, 9)]
    out.append({(i, j): Fraction((-1) ** (i * j + j) * rng.getrandbits(1010),
                                 rng.choice(dens))
                for i in range(4) for j in range(5)})
    return out


# a float equilibrium rationalized, as analyze builds it: ~2^67 denominators
_FLOAT_X, _FLOAT_Y = Fraction(-7.3e-5), Fraction(4.1e-5)
DIFFERENTIAL_BOXES = [
    Box2(Fraction(-2, 3), Fraction(1, 3), Fraction(-1, 3), Fraction(4, 3)),
    Box2(Fraction(-3, 7), Fraction(5, 7), Fraction(1, 7), Fraction(2)),
    Box2.centered(_FLOAT_X, _FLOAT_Y, Fraction(1, 4)),
]


class TestDifferential:
    def test_float_box_has_large_denominators(self):
        box = DIFFERENTIAL_BOXES[2]
        assert all(c.denominator.bit_length() >= 60
                   for c in (box.x_min, box.x_max, box.y_min, box.y_max))

    def test_polys_reach_every_kernel_degree(self):
        polys = _differential_polys()
        for axis in (0, 1):
            degrees = {max((e[axis] for e in terms), default=0)
                       for terms in polys}
            assert degrees == set(range(13))
        big = [c.numerator for terms in polys for c in terms.values()
               if abs(c.numerator).bit_length() >= 1000]
        assert min(big) < 0 < max(big)

    @pytest.mark.parametrize("box", DIFFERENTIAL_BOXES,
                             ids=["thirds", "sevenths", "float"])
    def test_matches_reference_down_to_depth_3(self, box):
        for terms in _differential_polys():
            p = Poly(terms)
            m = max((i for i, _ in terms), default=0)
            n = max((j for _, j in terms), default=0)
            level = [(bernstein_coefficients(p, box),
                      (box.x_min, box.x_max, box.y_min, box.y_max),
                      _ref_bernstein(terms, m, n, box))]
            for depth in range(4):
                for patch, corners, ref in level:
                    self._check(patch, corners, ref, (m, n))
                if depth < 3:
                    level = [(child, c_corners, c_ref)
                             for patch, corners, ref in level
                             for child, (c_corners, c_ref) in zip(
                                 patch.subdivide(),
                                 _ref_children(ref, corners))]

    @staticmethod
    def _check(patch, corners, ref, degrees):
        m, n = degrees
        box = patch.box
        assert (box.x_min, box.x_max, box.y_min, box.y_max) == corners
        assert patch.degrees == degrees
        assert patch.denominator > 0
        assert all(type(c) is int for row in patch.numerators for c in row)
        d = patch.denominator
        assert patch.numerators == tuple(tuple(c * d for c in row)
                                         for row in ref)
        assert patch.min_coefficient == min(c for row in ref for c in row)
        assert patch.corner_numerators() == tuple(
            c * d for c in (ref[0][0], ref[m][0], ref[0][n], ref[m][n]))


# --- golden certificates ----------------------------------------------------

# full dicts recorded with the Fraction kernel that preceded the integer one
GOLDEN = Path(__file__).parent / "data" / "certify_golden.jsonl"
GOLDEN_SEED = 8


def golden_cases():
    """(name, certificate) pairs whose full dicts are pinned in GOLDEN.

    The first 10 local certificates of acceptance criterion 9, then 20
    certify_dulac queries on boxes with denominators 3, 7 and ~2^67: random
    cubic fields under B = 1 or a random quadratic B, alternating with
    fields whose divergence (a x - b)^2 + (c y - d)^2 + e, |e| <= 1/40,
    has its minimum inside the box.
    """
    rng = random.Random(909)
    for trial in range(10):
        _, _, cert = local_dulac_hyperbolic(perturbed_linear_field(rng),
                                            Point(0.0, 0.0), min_radius=1e-3)
        yield f"criterion9-{trial}", cert
    rng = random.Random(GOLDEN_SEED)
    for k in range(20):
        den = (3, 7, None)[k % 3]
        if k % 2:
            a, c = rng.choice((3, 5, 7)), rng.choice((3, 5, 7))
            b, d = rng.randint(-a, a), rng.randint(-c, c)
            e = rng.choice(("-1/40", "0", "1/40"))
            system = parse_system(
                f"P = ({a}*x - ({b}))^3/{3 * a} + ({e})*x"
                f" + ({rng.randint(-5, 5)})*y^2\n"
                f"Q = ({c}*y - ({d}))^3/{3 * c} + ({rng.randint(-5, 5)})*x^3")
            mult = BENDIXSON
            cx, cy = Fraction(b, a), Fraction(d, c)
        else:
            system = rand_field(rng, 3)
            mult = (BENDIXSON if k % 4 == 0
                    else Multiplier(rand_poly(rng, 2)))
            cx, cy = Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(-6, 6), 7)
        if den:
            box = Box2(cx - Fraction(rng.randint(1, den), den),
                       cx + Fraction(rng.randint(1, den), den),
                       cy - Fraction(rng.randint(1, den), den),
                       cy + Fraction(rng.randint(1, den), den))
        else:
            cx += Fraction(rng.uniform(-1e-4, 1e-4))
            cy += Fraction(rng.uniform(-1e-4, 1e-4))
            box = Box2.centered(cx, cy, Fraction(1, 2 ** rng.randint(0, 3)))
        result = certify_dulac(system, mult, box, rng.choice((2, 4, 6)))
        yield f"dulac-{k}", result.certificate


def golden_line(name, cert):
    return json.dumps({"case": name, "certificate": to_json(cert)},
                      sort_keys=True)


class TestGolden:
    def test_full_dicts_unchanged(self):
        expected = GOLDEN.read_text().splitlines()
        got = [golden_line(name, cert) for name, cert in golden_cases()]
        assert len(got) == len(expected) == 30
        for line, want in zip(got, expected):
            assert line == want

    def test_outcome_mix(self):
        # the queries cover every outcome, and not only at the root patch
        dicts = [json.loads(line)["certificate"]
                 for line in GOLDEN.read_text().splitlines()[10:]]
        for kind in ("positive", "violation", "inconclusive"):
            depths = [d["depth"] for d in dicts if d["outcome"] == kind]
            assert len(depths) >= 4 and max(depths) >= 2
