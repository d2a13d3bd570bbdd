"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets are wall-clock seconds and are asserted, not just reported.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from dulac import darboux
from dulac.certify import (
    Box2,
    Conclusion,
    Positive,
    Violation,
    bendixson,
    bernstein_coefficients,
    certify_positive,
)
from dulac.darboux import (
    cofactor_of,
    darboux_first_integral,
    verify_first_integral,
)
from dulac.errors import DulacError
from dulac.flow import (
    Stability,
    detect_limit_cycle,
    integrate,
)
from dulac.parse import parse_poly, parse_system
from dulac.poly import (
    CRat,
    Point,
    Poly,
    VectorField,
    div_product,
    divergence,
    lie_derivative,
)
from dulac.synthesis import (
    Matrix2,
    Reading,
    RECORDED_READING,
    gradient_multipliers,
    local_dulac_hyperbolic,
    printed_coefficients,
    quadratic_dulac_linear,
)

from conftest import batch_eval, perturbed_linear_field, rand_poly, sample_box

VDP = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")


class Criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget
        print(f"[criterion {self.number:2d}] {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s / budget {self.budget:g}s): {self.description}")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s")
        return False


def _rand_fraction(rng, num=8, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _valid_matrix(rng) -> Matrix2:
    while True:
        m = Matrix2(_rand_fraction(rng), _rand_fraction(rng),
                    _rand_fraction(rng), _rand_fraction(rng))
        if m.trace != 0 and (3 * m.a ** 2 + 10 * m.a * m.d
                             - 4 * m.b * m.c + 3 * m.d ** 2) != 0 \
                and not (m.trace == 0 and m.det == 0):
            return m


def test_criterion_1_quadratic_dulac_exactness():
    with Criterion(1, "quadratic Dulac exactness on 500 random matrices", 5.0):
        rng = random.Random(101)
        for _ in range(500):
            m = _valid_matrix(rng)
            quad = quadratic_dulac_linear(m)
            field = m.field()
            carrier = div_product(quad.to_poly(), field)
            assert carrier == field.p * field.p + field.q * field.q


def test_criterion_2_printed_coefficient_reproduction():
    with Criterion(2, "printed b20/b02 match; b11 under exactly one reading", 2.0):
        rng = random.Random(202)
        c2_all = True
        c1_all = True
        for _ in range(100):
            m = _valid_matrix(rng)
            quad = quadratic_dulac_linear(m)
            b20, b02, b11_c2 = printed_coefficients(m, Reading.C2_MINUS_3D2)
            assert b20 == quad.b20
            assert b02 == quad.b02
            c2_all &= (b11_c2 == quad.b11)
            _, _, b11_c1 = printed_coefficients(m, Reading.C_MINUS_3D2)
            c1_all &= (b11_c1 == quad.b11)
        assert c2_all and not c1_all  # exactly one reading fits uniformly
        assert RECORDED_READING is Reading.C2_MINUS_3D2  # recorded reading


def test_criterion_3_bendixson_van_der_pol_strip():
    with Criterion(3, "Bendixson strip certificate for van der Pol", 1.0):
        box = Box2(Fraction(-19, 20), Fraction(19, 20),
                   Fraction(-4), Fraction(4))
        result = bendixson(VDP, box)
        assert result.conclusion is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        cert = result.certificate
        assert isinstance(cert.outcome, Positive)
        assert cert.outcome.max_depth_used <= 2
        assert cert.carrier == parse_poly("1 - x^2")
        patch = bernstein_coefficients(cert.carrier, box)
        assert patch.min_coefficient == Fraction(39, 400)  # 0.0975 at x=0.95
        edge = cert.carrier.evaluate_exact(Fraction(19, 20), Fraction(0))
        assert edge == Fraction(39, 400)


def _reference_cycle_oracle(tol=1e-10):
    """Period and amplitude from a long reference integration.

    Crossing times of {y = 0, x > 0} come from sign changes of y on the
    densely stepped trajectory with linear interpolation: independent of the
    return-map and dense-output machinery under test.
    """
    traj = integrate(VDP, (2.0, 0.0), 70.0, tol)
    times, states = traj.times, traj.states
    crossings = []
    for k in range(1, len(times)):
        y0, y1 = states[k - 1].y, states[k].y
        if y0 > 0 >= y1 and states[k].x > 0:
            frac = y0 / (y0 - y1)
            t_cross = times[k - 1] + frac * (times[k] - times[k - 1])
            crossings.append(t_cross)
    period = crossings[-1] - crossings[-2]
    in_last_loop = [p for t, p in zip(times, states) if t >= crossings[-2]]
    amplitude = max(abs(p.x) for p in in_last_loop)
    return period, amplitude


def test_criterion_4_certificate_cycle_consistency():
    with Criterion(4, "violation on the big box + consistent stable cycle", 10.0):
        big = Box2(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3))
        result = bendixson(VDP, big)
        assert result.conclusion is Conclusion.NOT_CERTIFIED
        outcome = result.certificate.outcome
        assert isinstance(outcome, Violation)
        value = result.certificate.carrier.evaluate_exact(*outcome.witness)
        assert value == outcome.value and value <= 0

        cycle = detect_limit_cycle(VDP, (2.0, 0.0))
        assert cycle.stability is Stability.STABLE
        assert 1.95 <= cycle.amplitude_x <= 2.07
        assert 6.6 <= cycle.period <= 6.73

        period_ref, amplitude_ref = _reference_cycle_oracle()
        assert abs(cycle.period - period_ref) < 1e-3
        assert abs(cycle.amplitude_x - amplitude_ref) < 1e-3

        strip = Box2(Fraction(-19, 20), Fraction(19, 20),
                     Fraction(-4), Fraction(4))
        assert bendixson(VDP, strip).certificate.is_positive
        for box in (strip,):
            assert not all(box.contains_point(p, strict=True)
                           for p in cycle.points)


def test_criterion_5_darboux_suite(monkeypatch):
    with Criterion(5, "Darboux cofactors, first integrals, drift", 2.0):
        cubic = parse_system(
            "P = -y + x*(1 - x^2 - y^2)\nQ = x + y*(1 - x^2 - y^2)")
        circle = cofactor_of(parse_poly("x^2 + y^2 - 1"), cubic)
        assert circle.k == parse_poly("-2*x^2 - 2*y^2")

        saddle = parse_system("P = x\nQ = -y")
        cx = cofactor_of(parse_poly("x"), saddle)
        cy = cofactor_of(parse_poly("y"), saddle)
        assert (cx.k, cy.k) == (Poly.const(1), Poly.const(-1))

        h_saddle = darboux_first_integral([cx, cy])
        assert [lam for _, lam in h_saddle.curve_factors] == [CRat(1), CRat(1)]
        assert h_saddle.total_cofactor().is_zero

        node = parse_system("P = x\nQ = 2*y")
        h_node = darboux_first_integral([
            cofactor_of(parse_poly("x"), node),
            cofactor_of(parse_poly("y"), node)])
        assert [lam for _, lam in h_node.curve_factors] == [CRat(2), CRat(-1)]
        assert h_node.total_cofactor().is_zero

        monkeypatch.setattr(darboux, "VERIFY_TRAJECTORIES", 4)
        drift = verify_first_integral(h_saddle, saddle)
        assert drift.is_exact
        assert drift.numeric_max_drift <= 1e-6


def test_criterion_6_leibniz_and_additivity_properties():
    with Criterion(6, "Leibniz and cofactor-additivity, 1000 exact each", 10.0):
        rng = random.Random(606)
        checked = 0
        while checked < 1000:
            b = rand_poly(rng, 5)
            field = VectorField(rand_poly(rng, 5), rand_poly(rng, 5)) \
                if b.is_real else None
            if field is None:
                continue
            lhs = div_product(b, field)
            rhs = b * divergence(field) + lie_derivative(b, field)
            assert (lhs - rhs).is_zero
            checked += 1

        checked = 0
        while checked < 1000:
            f = rand_poly(rng, 2)
            g = rand_poly(rng, 2)
            a1 = rand_poly(rng, 1)
            a2 = rand_poly(rng, 1)
            if f.is_constant or g.is_constant or (f * g).is_constant:
                continue
            if not all(p.is_real for p in (f, g, a1, a2)):
                continue
            field = VectorField(p=f * g * a1, q=f * g * a2)
            kf = cofactor_of(f, field, check_degeneracy=False).k
            kg = cofactor_of(g, field, check_degeneracy=False).k
            kfg = cofactor_of(f * g, field, check_degeneracy=False).k
            assert kfg == kf + kg
            checked += 1


def test_criterion_7_bernstein_soundness():
    with Criterion(7, "range enclosure, positive sampling, exact witnesses", 30.0):
        rng = random.Random(707)

        def rand_box():
            x0 = _rand_fraction(rng, 4, 3)
            y0 = _rand_fraction(rng, 4, 3)
            return Box2(x0, x0 + Fraction(rng.randint(1, 4), 2),
                        y0, y0 + Fraction(rng.randint(1, 4), 2))

        triples = 0
        while triples < 1000:
            p = rand_poly(rng, 4)
            if not p.is_real:
                continue
            box = rand_box()
            patch = bernstein_coefficients(p, box)
            lo = float(patch.min_coefficient) - 1e-9
            hi = max(map(max, patch.numerators)) / patch.denominator + 1e-9
            x_min, x_max, y_min, y_max = box.as_floats()
            for _ in range(4):
                z = (rng.uniform(x_min, x_max), rng.uniform(y_min, y_max))
                assert lo <= p.evaluate(z).real <= hi
                triples += 1

        positives = 0
        seed = 0
        while positives < 40:
            seed += 1
            base = rand_poly(rng, 3)
            if not base.is_real:
                continue
            p = base * base + Poly.const(Fraction(rng.randint(1, 5), 7))
            box = rand_box()
            cert = certify_positive(p, box, max_depth=8)
            if not isinstance(cert.outcome, Positive):
                continue
            positives += 1
            xs, ys = sample_box(box, 10_000, seed=seed)
            assert batch_eval(p, xs, ys).min() > 0

        violations = 0
        while violations < 40:
            p = rand_poly(rng, 4)
            if not p.is_real:
                continue
            cert = certify_positive(p, rand_box(), max_depth=5)
            if not isinstance(cert.outcome, Violation):
                continue
            violations += 1
            wx, wy = cert.outcome.witness
            assert p.evaluate_exact(wx, wy) <= 0
            assert p.evaluate_exact(wx, wy) == cert.outcome.value


def test_criterion_8_gradient_multipliers():
    with Criterion(8, "gradient multipliers for V = x^2 + y^2", 1.0):
        v = parse_poly("x^2 + y^2")
        (_, carrier1), (_, carrier2), _ = gradient_multipliers(v)
        assert carrier1 == parse_poly("4 + 4*x^2 + 4*y^2")
        box = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
        cert1 = certify_positive(carrier1, box)
        assert isinstance(cert1.outcome, Positive)
        assert cert1.outcome.max_depth_used <= 1

        assert carrier2 == parse_poly("4 - 4*x^2 - 4*y^2")
        cert2 = certify_positive(carrier2, box)
        assert isinstance(cert2.outcome, Violation)
        wx, wy = cert2.outcome.witness
        assert wx * wx + wy * wy > 1  # witness lies outside the unit disk


def test_criterion_9_local_dulac_random_perturbed():
    with Criterion(9, "local Dulac at 50 perturbed hyperbolic equilibria", 60.0):
        rng = random.Random(909)
        successes = 0
        for trial in range(50):
            system = perturbed_linear_field(rng)
            try:
                mult, box, cert = local_dulac_hyperbolic(
                    system, Point(0.0, 0.0), min_radius=1e-3)
            except DulacError:
                continue
            assert float(box.width) / 2 >= 1e-3
            xs, ys = sample_box(box, 10_000, seed=trial)
            outside_core = (np.abs(xs) > 1e-3) | (np.abs(ys) > 1e-3)
            values = batch_eval(cert.carrier, xs, ys)
            assert (values[outside_core] > 0).all()
            successes += 1
        assert successes >= 45


def test_criterion_10_numeric_fidelity():
    with Criterion(10, "endpoints match matrix exponentials to 1e-8", 5.0):
        rng = random.Random(1010)
        checked = 0
        while checked < 20:
            a, b, c, d = (_rand_fraction(rng) for _ in range(4))
            m = np.array([[float(a), float(b)], [float(c), float(d)]])
            eigs = np.linalg.eigvals(m)
            if max(e.real for e in eigs) > -0.05 or abs(eigs[0] - eigs[1]) < 1e-6:
                continue
            x, y = Poly.x(), Poly.y()
            field = VectorField(p=x * a + y * b, q=x * c + y * d)
            z0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            traj = integrate(field, z0, 5.0, tol=1e-10)
            expected = expm(5.0 * m) @ np.array(z0)
            assert abs(traj.endpoint.x - expected[0]) < 1e-8
            assert abs(traj.endpoint.y - expected[1]) < 1e-8
            checked += 1
