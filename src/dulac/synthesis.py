"""Construction of Dulac multiplier candidates.

Four routes:

* quadratic multipliers for linear fields, solving Div(B*X) = P^2 + Q^2 by
  exact coefficient matching (with the published closed forms kept alongside
  for cross-checking),
* exponential/polynomial multipliers for gradient fields,
* local quadratic multipliers at hyperbolic equilibria of nonlinear fields,
  certified on nested rings around the equilibrium,
* sampled multipliers transported along the flow through an
  equilibrium-free box.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .certify import Box2, Certificate, Positive, certify_positive
from .errors import (
    CertificationFailedError,
    ConstantInputError,
    DoubleZeroEigenvalueError,
    FlowBoxError,
    SingularAnsatzError,
    TraceZeroError,
)
from .flow import _steps, _StepFailure, check_zero, is_zero
from .multiplier import ExpPolyMultiplier, PolyMultiplier
from .parse import parse_list
from .poly import (Point, Poly, VectorField, div_product, divergence,
                   float_sums, kernel_basis)


@dataclass(frozen=True)
class Matrix2:
    """2x2 rational matrix, row-major (a, b; c, d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def parse(cls, text: str) -> "Matrix2":
        """Parse the CLI form "a,b;c,d" with rational entries."""
        (a, b), (c, d) = parse_list(text, [
            (";", 2, "matrix must have two ';'-separated rows"),
            (",", 2, "each matrix row must have two ','-separated entries")])
        return cls(a, b, c, d)

    @property
    def trace(self) -> Fraction:
        return self.a + self.d

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def field(self) -> VectorField:
        """The linear vector field z -> Az."""
        x, y = Poly.x(), Poly.y()
        return VectorField(p=x * self.a + y * self.b, q=x * self.c + y * self.d)

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


@dataclass(frozen=True)
class QuadraticMultiplier:
    """Quadratic form multiplier b20*X^2 + b11*X*Y + b02*Y^2 in X = x - x0, Y = y - y0."""

    b20: Fraction
    b11: Fraction
    b02: Fraction
    origin: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))

    def to_poly(self) -> Poly:
        px = Poly.x() - Poly.const(Fraction(self.origin[0]))
        py = Poly.y() - Poly.const(Fraction(self.origin[1]))
        return px * px * self.b20 + px * py * self.b11 + py * py * self.b02


def _ansatz_discriminant(m: Matrix2) -> Fraction:
    return 3 * m.a ** 2 + 10 * m.a * m.d - 4 * m.b * m.c + 3 * m.d ** 2


def quadratic_dulac_linear(m: Matrix2) -> QuadraticMultiplier:
    """Quadratic multiplier B with Div(B*Az) = |Az|^2, as an exact identity.

    Matches the x^2, xy, y^2 coefficients of Div(B*X) against P^2 + Q^2 and
    solves the resulting 3x3 rational system exactly.  Its determinant is
    2(a+d)(3a^2+10ad-4bc+3d^2), so the checks below leave it nonsingular.
    """
    if m.trace == 0:
        if m.det == 0:
            raise DoubleZeroEigenvalueError("both eigenvalues are zero")
        raise TraceZeroError("matrix has zero trace")
    if _ansatz_discriminant(m) == 0:
        raise SingularAnsatzError("3a^2 + 10ad - 4bc + 3d^2 = 0")
    a, b, c, d = m.a, m.b, m.c, m.d
    # (rows | -rhs): its one kernel vector ends in 1 and starts with B
    rows = (
        (3 * a + d, c, 0, -(a * a + c * c)),
        (2 * b, 2 * (a + d), 2 * c, -2 * (a * b + c * d)),
        (0, b, a + 3 * d, -(b * b + d * d)),
    )
    (kernel,) = kernel_basis(rows, 4)
    b20, b11, b02 = kernel[:3]
    return QuadraticMultiplier(b20=b20, b11=b11, b02=b02)


class Reading(Enum):
    """Two readings of the ambiguous b11 numerator term "b(c^-3d^2)"."""

    C_MINUS_3D2 = "c - 3d^2"
    C2_MINUS_3D2 = "c^2 - 3d^2"


# Reading selected by the agreement test against the solved 3x3 system
# (see README and tests/test_synthesis.py).
RECORDED_READING = Reading.C2_MINUS_3D2


def printed_coefficients(m: Matrix2, reading: Reading = RECORDED_READING):
    """Literal transcription of the closed-form display for (b20, b02, b11).

    Kept as an independent cross-check of quadratic_dulac_linear; the b11
    numerator carries an ambiguous exponent resolved by ``reading``.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if m.trace == 0:
        raise TraceZeroError("denominator zero: a + d = 0")
    if _ansatz_discriminant(m) == 0:
        raise SingularAnsatzError("denominator zero: 3a^2 + 10ad - 4bc + 3d^2 = 0")
    den = (a + d) * _ansatz_discriminant(m)
    num_b20 = (a ** 4 + 4 * a ** 3 * d - a ** 2 * (2 * b * c - c ** 2 - 3 * d ** 2)
               + 3 * a * c * d * (c - b) + c ** 2 * (b ** 2 - b * c + d ** 2))
    num_b02 = (a ** 2 * (b ** 2 + 3 * d ** 2) + a * d * (3 * b ** 2 - 3 * b * c + 4 * d ** 2)
               - b ** 3 * c + b ** 2 * (c ** 2 + d ** 2) - 2 * b * c * d ** 2 + d ** 4)
    t = c - 3 * d ** 2 if reading is Reading.C_MINUS_3D2 else c ** 2 - 3 * d ** 2
    num_b11 = (2 * a ** 3 * b + a ** 2 * d * (7 * b + 3 * c)
               - a * (3 * b ** 2 * c + b * t - 7 * c * d ** 2)
               - c * d * (b ** 2 + 3 * b * c - 2 * d ** 2))
    return num_b20 / den, num_b02 / den, num_b11 / den


def gradient_multipliers(v: Poly):
    """Three multiplier candidates for the gradient field X = grad V.

    Returns [(exp(V), lap V + |grad V|^2), (exp(-V), lap V - |grad V|^2),
    (V, V*lap V + |grad V|^2)]; each second element is the exact polynomial
    sign carrier of Div(B*X).
    """
    if not v.is_real:
        raise ValueError("potential must have real coefficients")
    if v.degree < 1:
        raise ConstantInputError("potential must be nonconstant")
    vx = v.derive("x")
    vy = v.derive("y")
    laplacian = vx.derive("x") + vy.derive("y")
    grad_sq = vx * vx + vy * vy
    one = Poly.const(1)
    return [
        (ExpPolyMultiplier(g=v, p=one), laplacian + grad_sq),
        (ExpPolyMultiplier(g=-v, p=one), laplacian - grad_sq),
        (PolyMultiplier(p=v), v * laplacian + grad_sq),
    ]


def gradient_field(v: Poly) -> VectorField:
    """The gradient field (V_x, V_y) of a real potential."""
    return VectorField(p=v.derive("x"), q=v.derive("y"))


# --- local multipliers at hyperbolic equilibria ------------------------------


# Box search defaults: a box of half-width 1 (analyze grows it up to 2^6 while
# it fits the region), each ring rectangle subdivided to depth 8, and rings
# down to a core of half-width 1e-3.
LOCAL_INITIAL_HALF_WIDTH = 1
LOCAL_MAX_GROWTH_STEPS = 6
LOCAL_MAX_DEPTH = 8
LOCAL_MIN_RADIUS = 1e-3


def check_min_radius(min_radius: float) -> Fraction:
    """The core half-width as an exact Fraction of its float value.

    Raises ValueError unless min_radius is finite and > 0: at 0 or below the
    rings would never end, and inf or nan has no Fraction.
    """
    r = float(min_radius)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"min_radius must be finite and > 0, got {min_radius}")
    return Fraction(r)


def _ring_rectangles(cx: Fraction, cy: Fraction, outer: Fraction, inner: Fraction):
    return (
        Box2(cx - outer, cx - inner, cy - outer, cy + outer),
        Box2(cx + inner, cx + outer, cy - outer, cy + outer),
        Box2(cx - inner, cx + inner, cy - outer, cy - inner),
        Box2(cx - inner, cx + inner, cy + inner, cy + outer),
    )


def certify_punctured_box(carrier: Poly, cx: Fraction, cy: Fraction,
                          half_width: Fraction, min_radius: Fraction,
                          max_depth: int):
    """Certify carrier > 0 on the widest punctured box that fits half_width.

    The candidate half-widths are half_width/2^k.  The box of half-width w
    is the union of the rings (w/2^j, w/2^(j+1)) whose outer half-width
    exceeds min_radius, each split into four flanking rectangles; the core
    inside the innermost ring stays uncertified.  Rings are certified from
    the innermost outward until a rectangle fails.  Returns the aggregate
    Positive certificate of the widest box whose rings all certify, or None
    when the innermost ring fails or no ring lies above min_radius.  Raises
    ValueError when min_radius is not positive (the rings would never end)
    or max_depth is negative.
    """
    if min_radius <= 0:
        raise ValueError(f"min_radius must be > 0, got {float(min_radius)}")
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, got {max_depth}")
    outers = []
    outer = Fraction(half_width)
    while outer > min_radius:
        outers.append(outer)
        outer /= 2
    width, outcomes = None, []
    for outer in reversed(outers):
        ring = []
        for rect in _ring_rectangles(cx, cy, outer, outer / 2):
            cert = certify_positive(carrier, rect, max_depth)
            if not cert.is_positive:
                break
            ring.append(cert.outcome)
        if len(ring) < 4:
            break
        width = outer
        outcomes += ring
    if width is None:
        return None
    positive = Positive(max_depth_used=max(o.max_depth_used for o in outcomes),
                        box_count=sum(o.box_count for o in outcomes))
    return Certificate(positive, carrier=carrier, box=Box2.centered(cx, cy, width))


def local_quadratic_multiplier(system: VectorField, eq: Point):
    """Quadratic multiplier of the Jacobian, translated to the equilibrium.

    Returns (multiplier, sign carrier for the full nonlinear field,
    exact equilibrium coordinates).  Raises NotAnEquilibriumError when eq
    fails ``flow``'s zero test (``is_zero``), or the errors of
    quadratic_dulac_linear for the Jacobian (TraceZeroError,
    DoubleZeroEigenvalueError, SingularAnsatzError).
    """
    check_zero(system, eq)
    ex, ey = Fraction(float(eq[0])), Fraction(float(eq[1]))
    j_px, j_py, j_qx, j_qy = system.jacobian()
    jac = Matrix2(
        a=j_px.evaluate_exact(ex, ey).re,
        b=j_py.evaluate_exact(ex, ey).re,
        c=j_qx.evaluate_exact(ex, ey).re,
        d=j_qy.evaluate_exact(ex, ey).re,
    )
    quad = quadratic_dulac_linear(jac)
    b_poly = QuadraticMultiplier(quad.b20, quad.b11, quad.b02,
                                 origin=(ex, ey)).to_poly()
    carrier = div_product(b_poly, system)
    return PolyMultiplier(b_poly), carrier, (ex, ey)


def local_dulac_hyperbolic(system: VectorField, eq: Point,
                           min_radius: float = LOCAL_MIN_RADIUS,
                           max_depth: int = LOCAL_MAX_DEPTH):
    """Local Dulac multiplier near a hyperbolic equilibrium.

    Translates the quadratic multiplier of the Jacobian to the equilibrium
    and certifies its sign carrier on the widest punctured box of
    half-width ``LOCAL_INITIAL_HALF_WIDTH/2^k`` (see certify_punctured_box).
    The carrier vanishes at the equilibrium itself, so the certificate
    covers the box minus a core of half-width at most min_radius.  Raises
    CertificationFailedError when not even the innermost ring certifies,
    and ValueError before any work when max_depth is negative or
    min_radius is not finite and > 0.

    Returns (multiplier, box, certificate).
    """
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, got {max_depth}")
    min_r = check_min_radius(min_radius)
    multiplier, carrier, (ex, ey) = local_quadratic_multiplier(system, eq)
    cert = certify_punctured_box(carrier, ex, ey,
                                 Fraction(LOCAL_INITIAL_HALF_WIDTH),
                                 min_r, max_depth)
    if cert is None:
        raise CertificationFailedError(
            f"no punctured box down to radius {min_radius} certified")
    return multiplier, cert.box, cert


# --- flow-box multipliers -----------------------------------------------------


@dataclass(frozen=True)
class GridNode:
    point: Point
    b_value: float
    div_bx: float


@dataclass(frozen=True)
class SampledMultiplier:
    """Multiplier sampled on a flow-aligned grid.

    ``grid[i][k]`` is trajectory i (seeded on the transversal) at time step k.
    Interior nodes store the central finite-difference divergence of the
    sampled B*X field; edge nodes store the target value g there.
    ``fd_tolerance`` is the largest interior deviation |FD - g|.
    """

    grid: tuple[tuple[GridNode, ...], ...]
    transversal: tuple[Point, Point]
    fd_tolerance: float


def flowbox_dulac(system: VectorField, transversal,
                  g: Optional[Poly] = None,
                  n_across: int = 9, n_along: int = 33,
                  t_span: float = 1.0) -> SampledMultiplier:
    """Transport a multiplier along the flow so that Div(B*X) = g (default 1).

    Seeds B = 1 on the transversal segment and steps the state (x, y, B),
    with dB/dt = g(z(t)) - B*DivX(z(t)), through ``flow``'s RK loop at tol
    1e-10, reading n_along fixed times from each step's dense output.  Fails
    if a sample passes ``flow``'s zero test (``is_zero``), if g is not
    finite and strictly positive at a sample, if a trajectory cannot be
    integrated across [0, t_span], or if the central-difference divergence
    of B*X is not finite and positive at an interior node (the first such
    node in (i, k) order is reported; an overflowing B*P or B*Q gives a nan
    divergence there).  Raises
    ValueError if the time step t_span / (n_along - 1) underflows to 0.
    """
    if n_across < 3 or n_along < 3:
        raise ValueError("need n_across >= 3 and n_along >= 3 for interior nodes")
    if g is None:
        g = Poly.const(1)
    (ax, ay), (bx, by) = transversal
    # the float sums of flow.compile_field, and g's and Div X's after them
    values = float_sums([(f.terms, "re") for f in
                         (system.p, system.q, g, divergence(system))])

    def rhs(state):
        x, y, b = state
        p, q, g_value, div_x = values((x, y))
        return [p, q, g_value - b * div_x]

    ds, dt = 1.0 / (n_across - 1), t_span / (n_along - 1)
    if t_span and not dt:
        raise ValueError(f"t_span / (n_along - 1) underflows to 0: {t_span}")
    # sample times k * dt, with t_span exactly at the end
    times = [k * dt for k in range(n_along - 1)] + [t_span]
    reach = [abs(t) for t in times]
    nodes = []  # nodes[i][k]: x, y, B, B*P, B*Q and g at node (i, k)
    for i in range(n_across):
        frac = i / (n_across - 1)
        seed = (ax + (bx - ax) * frac, ay + (by - ay) * frac, 1.0)
        states = [seed]
        try:
            for solver in _steps(rhs, seed, t_span, 1e-10):
                end = bisect.bisect_right(reach, abs(solver.t))
                if end > len(states):
                    dense = solver.dense_output()
                    states.extend(map(dense, times[len(states):end]))
        except _StepFailure:
            raise FlowBoxError("trajectory left the integration window",
                               node=(i, len(states))) from None
        nodes.append([])
        for k, (xk, yk, bk) in enumerate(states):
            pk, qk, gk, _ = values((xk, yk))
            if is_zero((pk, qk)):
                raise FlowBoxError("equilibrium encountered", node=(i, k))
            if not (math.isfinite(gk) and gk > 0):
                raise FlowBoxError("g is not strictly positive and finite "
                                   "at a sample",
                                   node=(i, k))
            nodes[i].append((xk, yk, bk, bk * pk, bk * qk, gk))

    def central(j, i, k):  # d/ds and d/dt of component j at node (i, k)
        return ((nodes[i + 1][k][j] - nodes[i - 1][k][j]) / (2 * ds),
                (nodes[i][k + 1][j] - nodes[i][k - 1][j]) / (2 * dt))

    # edge nodes keep g; interior ones get their finite-difference Div(B*X)
    grid = [[GridNode(Point(x, y), b, gk) for x, y, b, _, _, gk in row]
            for row in nodes]
    deviations = []
    for i in range(1, n_across - 1):
        for k in range(1, n_along - 1):
            (xs, xt), (ys, yt), (f1s, f1t), (f2s, f2t) = (
                central(j, i, k) for j in (0, 1, 3, 4))
            det = xs * yt - ys * xt
            if abs(det) < 1e-14:
                raise FlowBoxError("degenerate flow-box coordinates",
                                   node=(i, k))
            div = (f1s * yt - f1t * ys) / det + (f2t * xs - f2s * xt) / det
            if not (math.isfinite(div) and div > 0):
                raise FlowBoxError(f"positivity fails at node {(i, k)}: "
                                   f"finite-difference Div(B*X) = {div:.3e}",
                                   node=(i, k))
            grid[i][k] = GridNode(grid[i][k].point, grid[i][k].b_value, div)
            deviations.append(abs(div - nodes[i][k][5]))
    return SampledMultiplier(
        grid=tuple(map(tuple, grid)),
        transversal=(Point(ax, ay), Point(bx, by)),
        fd_tolerance=max(deviations),
    )
