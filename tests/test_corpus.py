"""A ground-truth corpus: fields whose periodic orbits are known exactly.

In (u, v) the field Y = (-v - u*f, u - v*f) with f = s * prod_k (u^2 + v^2
- c_k) has r*r' = -r^2 * f, so its periodic orbits are exactly the circles
r^2 = c_k, and the origin is its only equilibrium.  The circle r^2 = c_k is
stable where f rises through 0 there, i.e. where s * prod_{j != k} (c_k -
c_j) > 0, so stabilities alternate.  For a rational matrix A the field X(z)
= A*Y(A^-1*z) is linearly conjugate to Y, so its periodic orbits are exactly
the ellipses A*{r^2 = c_k}, with the same stabilities.

The corpus is built with Poly arithmetic from a fixed seed, with no data
file: 1 to 3 circles with c_k in {1/4, 1, 9/4, 4, 25/4}, s = +-1 and A =
[[1, a/2], [b/4, c/2]] for small integers a, b, c, on the region [-4,4]^2.
Its seed and size are fixed by the test time (a few seconds), not by what
the analysis finds.  The assertions are the ones that hold today: no field
with a known cycle inside the region exits 0, every reported cycle's fixed
point and every point of its loop lie within 1e-6 of one known ellipse,
whose stability it has, its period is within 1e-8 of 2*pi (the period of
every ellipse: on r^2 = c_k the angle in (u, v) turns at rate 1), and no
certified box of the report holds a whole known ellipse.
"""

import math
import random
from fractions import Fraction

import pytest

from dulac.analyze import exit_code, run_analyze
from dulac.certify import Box2
from dulac.flow import Stability
from dulac.poly import Poly, VectorField, lie_derivative, poly_divide

SEED = 1
SIZE = 8
RADII_SQUARED = tuple(Fraction(k * k, 4) for k in range(1, 6))
REGION = Box2(Fraction(-4), Fraction(4), Fraction(-4), Fraction(4))
CYCLE_TOL = 1e-6


class CorpusField:
    """One corpus field: the squared radii c_k with their stabilities, the
    map A and the field X."""

    def __init__(self, circles, s, a, b, c):
        self.circles = tuple(sorted(circles))
        self.matrix = ((Fraction(1), Fraction(a, 2)),
                       (Fraction(b, 4), Fraction(c, 2)))
        (a11, a12), (a21, a22) = self.matrix
        det = a11 * a22 - a12 * a21
        self.inverse = ((a22 / det, -a12 / det), (-a21 / det, a11 / det))
        x, y = Poly.x(), Poly.y()
        (i11, i12), (i21, i22) = self.inverse
        u, v = x * i11 + y * i12, x * i21 + y * i22
        r2 = u * u + v * v
        f = Poly.const(s)
        for ck in self.circles:
            f = f * (r2 - Poly.const(ck))
        self.r2, self.f = r2, f  # in z
        yu, yv = -v - u * f, u - v * f
        self.system = VectorField(yu * a11 + yv * a12, yu * a21 + yv * a22)
        self.stabilities = tuple(
            Stability.STABLE
            if s * math.prod(ck - cj for cj in self.circles if cj != ck) > 0
            else Stability.UNSTABLE for ck in self.circles)

    def holds(self, box: Box2, ck: Fraction) -> bool:
        """Whether the ellipse A*{r^2 = ck} lies inside the open box: its
        extent along axis i is sqrt(ck)*|row_i(A)|, compared squared."""
        bounds = ((box.x_min, box.x_max), (box.y_min, box.y_max))
        for (lo, hi), row in zip(bounds, self.matrix):
            extent2 = ck * sum(e * e for e in row)
            if not (lo < 0 < hi and lo * lo > extent2 and hi * hi > extent2):
                return False
        return True

    def nearest_circle(self, point):
        """(distance, index): the known circle nearest to A^-1*point, by
        radius in the (u, v) plane."""
        (i11, i12), (i21, i22) = self.inverse
        x, y = point
        u = float(i11) * x + float(i12) * y
        v = float(i21) * x + float(i22) * y
        r = math.hypot(u, v)
        return min((abs(r - math.sqrt(ck)), k)
                   for k, ck in enumerate(self.circles))


def corpus(seed: int = SEED, size: int = SIZE):
    """``size`` corpus fields drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    fields = []
    while len(fields) < size:
        circles = rng.sample(RADII_SQUARED, rng.randint(1, 3))
        s = rng.choice((-1, 1))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if 4 * c == a * b:  # A is singular
            continue
        fields.append(CorpusField(circles, s, a, b, c))
    return fields


@pytest.fixture(scope="module")
def analyzed():
    return [(field, run_analyze(field.system, REGION)) for field in corpus()]


def test_generator_cycles_are_invariant_ellipses():
    # in z, d/dt r^2 = -2 r^2 f exactly, and f has each r^2 - c_k as a
    # factor, so each ellipse is invariant
    for field in corpus():
        r2, f = field.r2, field.f
        assert lie_derivative(r2, field.system) == r2 * f * -2
        for ck in field.circles:
            _, rest = poly_divide(field.f, field.r2 - Poly.const(ck))
            assert rest.is_zero


def test_no_field_with_a_cycle_inside_exits_0(analyzed):
    for field, report in analyzed:
        if any(field.holds(REGION, ck) for ck in field.circles):
            assert exit_code(report) != 0, field.circles


def test_reported_cycles_are_known_ellipses(analyzed):
    # the cycle's fixed point on its section (the loop's start, or its end
    # for an unstable cycle) is within CYCLE_TOL of a known ellipse, the
    # whole loop stays nearest to that ellipse, and the stability is the
    # ellipse's
    for field, report in analyzed:
        for cycle in report.limit_cycles:
            fixed = cycle.points[
                -1 if cycle.stability is Stability.UNSTABLE else 0]
            distance, k = field.nearest_circle(fixed)
            assert distance <= CYCLE_TOL, (field.circles, distance)
            assert all(field.nearest_circle(z)[1] == k for z in cycle.points)
            assert cycle.stability is field.stabilities[k]


def test_reported_loops_stay_on_their_ellipse(analyzed):
    for field, report in analyzed:
        for cycle in report.limit_cycles:
            assert max(field.nearest_circle(z)[0]
                       for z in cycle.points) <= CYCLE_TOL


def test_reported_periods_are_2pi(analyzed):
    # every known ellipse is traversed in time 2*pi; an unstable cycle's
    # period is measured backward, where it attracts (forward, its error
    # grows by the return-map slope)
    for field, report in analyzed:
        for cycle in report.limit_cycles:
            assert abs(cycle.period - 2 * math.pi) <= 1e-8, (
                field.circles, cycle.period)


def test_no_certified_box_holds_a_known_ellipse(analyzed):
    for field, report in analyzed:
        for box in report.global_boxes_certified:
            assert not any(field.holds(box, ck) for ck in field.circles), (
                field.circles, box)
