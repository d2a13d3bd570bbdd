"""Construction of Dulac multiplier candidates.

Three routes:

* quadratic multipliers for linear fields, solving Div(B*X) = P^2 + Q^2 by
  exact coefficient matching (with the published closed forms kept alongside
  for cross-checking),
* exponential/polynomial multipliers for gradient fields,
* local quadratic multipliers at hyperbolic equilibria of nonlinear fields,
  certified on nested rings around them (``certify_punctured_box``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .certify import Box2, Certificate, Positive, certify_positive
from .errors import (
    CertificationFailedError,
    ConstantInputError,
    DoubleZeroEigenvalueError,
    SingularAnsatzError,
    TraceZeroError,
)
from .flow import check_zero
from .multiplier import Multiplier
from .parse import parse_list
from .poly import Point, Poly, VectorField, kernel_basis


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
    (V, V*lap V + |grad V|^2)]; each second element is the multiplier's exact
    polynomial sign carrier of Div(B*X), its ``sign_carrier(grad V)``.
    """
    if not v.is_real:
        raise ValueError("potential must have real coefficients")
    if v.degree < 1:
        raise ConstantInputError("potential must be nonconstant")
    field = gradient_field(v)
    one = Poly.const(1)
    return [(m, m.sign_carrier(field)) for m in (
        Multiplier(one, v),
        Multiplier(one, -v),
        Multiplier(v),
    )]


def gradient_field(v: Poly) -> VectorField:
    """The gradient field (V_x, V_y) of a real potential."""
    return VectorField(p=v.derive("x"), q=v.derive("y"))


# --- local multipliers at hyperbolic equilibria ------------------------------


# certify_punctured_box tries half-widths 1 * 2^(6 - k), certifies each ring
# rectangle to depth 8 and ends the rings at a core of half-width 1e-3.
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
                          within: Box2, min_radius: float) -> Certificate:
    """Certify carrier > 0 on the widest punctured box at (cx, cy) in within.

    The one local box search.  Its half-widths are LOCAL_INITIAL_HALF_WIDTH
    * 2^(LOCAL_MAX_GROWTH_STEPS - k) above min_radius whose centred box lies
    inside ``within``; the box of half-width w is the union of the rings
    (w', w'/2) for those w' <= w, each split into four flanking rectangles
    certified to depth LOCAL_MAX_DEPTH, around an uncertified core.  Rings
    are certified from the innermost outward until a rectangle fails, and
    the aggregate Positive certificate of the widest box whose rings all
    certify is returned.  Raises ValueError unless min_radius is finite and
    > 0, and CertificationFailedError when no box fits or none certifies.
    """
    min_r = check_min_radius(min_radius)
    # the box of half-width w centred at (cx, cy) lies in within iff w <= room
    room = min(cx - within.x_min, within.x_max - cx,
               cy - within.y_min, within.y_max - cy)
    outers = []
    w = Fraction(LOCAL_INITIAL_HALF_WIDTH * 2 ** LOCAL_MAX_GROWTH_STEPS)
    while w > min_r:
        if w <= room:
            outers.append(w)
        w /= 2
    if not outers:
        raise CertificationFailedError(
            f"no box around ({float(cx):.6g}, {float(cy):.6g}) fits the region")
    width, outcomes = None, []
    for outer in reversed(outers):
        ring = []
        for rect in _ring_rectangles(cx, cy, outer, outer / 2):
            cert = certify_positive(carrier, rect, LOCAL_MAX_DEPTH)
            if not cert.is_positive:
                break
            ring.append(cert.outcome)
        if len(ring) < 4:
            break
        width = outer
        outcomes += ring
    if width is None:
        raise CertificationFailedError(
            f"no punctured box down to radius {float(min_r)} certified")
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
    b = Multiplier(QuadraticMultiplier(quad.b20, quad.b11, quad.b02,
                                       origin=(ex, ey)).to_poly())
    return b, b.sign_carrier(system), (ex, ey)


def local_dulac_hyperbolic(system: VectorField, eq: Point,
                           min_radius: float = LOCAL_MIN_RADIUS):
    """Local Dulac multiplier near a hyperbolic equilibrium.

    Translates the quadratic multiplier of the Jacobian to the equilibrium
    and certifies its sign carrier by certify_punctured_box within the box
    of half-width ``LOCAL_INITIAL_HALF_WIDTH`` around it.  The carrier
    vanishes at the equilibrium itself, so the certificate covers the box
    minus a core of half-width at most min_radius.  Raises ValueError
    before any work unless 0 < min_radius < LOCAL_INITIAL_HALF_WIDTH, and
    CertificationFailedError when no punctured box certifies.

    Returns (multiplier, box, certificate).
    """
    if check_min_radius(min_radius) >= LOCAL_INITIAL_HALF_WIDTH:
        raise ValueError(
            f"min_radius must be below {LOCAL_INITIAL_HALF_WIDTH}, the "
            f"half-width of the box searched, got {min_radius}")
    multiplier, carrier, (ex, ey) = local_quadratic_multiplier(system, eq)
    within = Box2.centered(ex, ey, LOCAL_INITIAL_HALF_WIDTH)
    cert = certify_punctured_box(carrier, ex, ey, within, min_radius)
    return multiplier, cert.box, cert
