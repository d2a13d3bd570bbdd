"""Invariant curves, cofactors, and Darboux first integrals.

An invariant curve {f = 0} of X satisfies <grad f, X> = k*f for a unique
polynomial cofactor k.  Products of invariant functions and exponential
factors raised to complex powers give Darboux functions; when the
exponent-weighted cofactor sum vanishes identically the product is a first
integral.  Cofactor bookkeeping here is exact; drift checks along numeric
trajectories provide the empirical counterpart.
"""

from __future__ import annotations

import cmath
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certify import Box2
from .errors import (
    ConstantInputError,
    DegenerateCurveWarning,
    DegreeBoundViolatedError,
    NoNontrivialRelationError,
    NotExponentialFactorError,
    NotInvariantError,
)
from .flow import find_equilibria, integrate
from .jsonform import to_json
from .multiplier import Multiplier
from .poly import (
    CRAT_ZERO,
    CRat,
    Poly,
    VectorField,
    divergence,
    kernel_basis,
    lie_derivative,
    poly_divide,
)

# ``verify_first_integral``'s defaults, for ``verify-integral`` too: how many
# random trajectories it checks and how long each runs
VERIFY_TRAJECTORIES = 5
VERIFY_T_SPAN = 10.0
# the integration tolerance of those trajectories, and the seed of the random
# generator that draws their starts
VERIFY_TOL = 1e-10
VERIFY_SEED = 0
# half width of the square around the origin in which a curve's singular
# points are sought
DEGENERATE_SEARCH_HALF_WIDTH = Fraction(5)


@dataclass(frozen=True)
class InvariantCurve:
    """Invariant function f with its cofactor k: <grad f, X> = k*f exactly."""

    f: Poly
    k: Poly


@dataclass(frozen=True)
class ExponentialFactor:
    """exp(g/h) with cofactor k: h*<grad g, X> - g*<grad h, X> = k*h^2."""

    g: Poly
    h: Poly
    k: Poly

    def __str__(self) -> str:
        if self.h == Poly.const(1):
            return f"exp({self.g})"
        return f"exp(({self.g})/({self.h}))"


def _fmt_exponent(c: CRat) -> str:
    if c.is_real:
        return str(c.re)
    sign = "-" if c.im < 0 else "+"
    mag = abs(c.im)
    istr = "i" if mag == 1 else f"{mag}*i"
    return f"({c.re} {sign} {istr})"


@dataclass(frozen=True)
class DarbouxExpr:
    """Product of invariant curves and exponential factors with exponents."""

    curve_factors: tuple  # of (InvariantCurve, CRat exponent)
    exp_factors: tuple  # of (ExponentialFactor, CRat exponent)

    def total_cofactor(self) -> Poly:
        factors = (*self.curve_factors, *self.exp_factors)
        return sum((f.k * e for f, e in factors), Poly.zero())

    @property
    def is_first_integral(self) -> bool:
        return self.total_cofactor().is_zero

    def __str__(self) -> str:
        parts = [f"({c.f})^{_fmt_exponent(lam)}" for c, lam in self.curve_factors]
        parts += [f"{ef}^{_fmt_exponent(mu)}" for ef, mu in self.exp_factors]
        return " * ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {
            "curve_factors": [
                {**to_json(c), "exponent": [str(lam.re), str(lam.im)]}
                for c, lam in self.curve_factors
            ],
            "exp_factors": [
                {**to_json(e), "exponent": [str(mu.re), str(mu.im)]}
                for e, mu in self.exp_factors
            ],
            "expression": str(self),
            "total_cofactor": str(self.total_cofactor()),
        }


@dataclass(frozen=True)
class ResidualReport:
    """Exact residual of a defining identity plus an optional numeric check."""

    symbolic_residual: Poly
    numeric_max_drift: float = 0.0
    trajectories_checked: int = 0

    @property
    def is_exact(self) -> bool:
        return self.symbolic_residual.is_zero

    def to_json(self) -> dict:
        return {
            "symbolic_residual": str(self.symbolic_residual),
            "exact": self.is_exact,
            "numeric_max_drift": self.numeric_max_drift,
            "trajectories_checked": self.trajectories_checked,
        }


# --- cofactors ----------------------------------------------------------------


def cofactor_of(f: Poly, system: VectorField,
                check_degeneracy: bool = True) -> InvariantCurve:
    """Extract the unique cofactor of an invariant function by exact division.

    Fails with NotInvariantError (carrying the remainder) when f does not
    divide <grad f, X>.  For real curves of degree >= 2 the degeneracy
    condition is probed numerically: a common zero of f and grad f that is
    not a zero of X (|P| or |Q| over 1e-6, or nan) is reported as a
    DegenerateCurveWarning.  The probe is advisory and can be switched off
    for bulk symbolic work; where its float search leaves float range it
    warns that the singular points were not probed.
    """
    if f.is_constant:
        raise ConstantInputError("invariant function must be nonconstant")
    lie = lie_derivative(f, system)
    k, remainder = poly_divide(lie, f)
    if not remainder.is_zero:
        raise NotInvariantError(
            f"<grad f, X> is not divisible by f (remainder {remainder})",
            remainder=remainder)
    if check_degeneracy and f.is_real and f.degree >= 2:
        _warn_degenerate_points(f, system)
    return InvariantCurve(f=f, k=k)


def _warn_degenerate_points(f: Poly, system: VectorField) -> None:
    fx, fy = f.derive("x"), f.derive("y")
    if fx.is_zero and fy.is_zero:
        return
    if fx.is_constant and fy.is_constant:
        return  # gradient never vanishes
    w = DEGENERATE_SEARCH_HALF_WIDTH
    gradient_field = VectorField(p=fx, q=fy)
    try:
        for report in find_equilibria(gradient_field, Box2(-w, w, -w, w)):
            z = report.location
            # nan fails <=, so a nan P or Q counts as nonzero
            if (abs(f.evaluate(z).real) < 1e-6
                    and not all(abs(v) <= 1e-6 for v in system(z))):
                warnings.warn(
                    f"singular point ({z.x:.6g}, {z.y:.6g}) of the curve is "
                    f"not a zero of the field",
                    DegenerateCurveWarning)
    except ValueError as exc:  # a value beyond float range
        warnings.warn(f"singular points not probed: {exc}",
                      DegenerateCurveWarning)


def exponential_factor_cofactor(g: Poly, h: Poly,
                                system: VectorField) -> ExponentialFactor:
    """Cofactor of exp(g/h): solve h*<grad g,X> - g*<grad h,X> = k*h^2.

    g and h are assumed coprime (not checked).  The cofactor must satisfy
    deg k <= d - 1 for d the field degree.
    """
    if h.is_zero:
        raise ValueError("h must be a nonzero polynomial")
    numerator = h * lie_derivative(g, system) - g * lie_derivative(h, system)
    k, remainder = poly_divide(numerator, h * h)
    if not remainder.is_zero:
        raise NotExponentialFactorError(
            f"defining identity has no polynomial cofactor (remainder {remainder})")
    bound = max(system.degree - 1, -1)
    if k.degree > bound:
        raise DegreeBoundViolatedError(
            f"cofactor degree {k.degree} exceeds d - 1 = {bound}")
    return ExponentialFactor(g=g, h=h, k=k)


# --- integrating factors --------------------------------------------------------


def check_integrating_factor(mu: Multiplier,
                             system: VectorField) -> ResidualReport:
    """Exact carrier of Div(mu*X); zero certifies an integrating factor.

    Raises ValueError for a multiplier whose polynomial factor is zero."""
    if mu.p.is_zero:
        raise ValueError("mu must be nonzero")
    return ResidualReport(symbolic_residual=mu.sign_carrier(system))


def check_inverse_integrating_factor(v: Poly,
                                     system: VectorField) -> ResidualReport:
    """Residual <grad V, X> - V*Div X; zero makes 1/V an integrating factor
    away from {V = 0} (V is then invariant with cofactor Div X)."""
    if v.is_zero:
        raise ValueError("V must be nonzero")
    residual = lie_derivative(v, system) - v * divergence(system)
    return ResidualReport(symbolic_residual=residual)


# --- Darboux first integrals ------------------------------------------------------


def _normalize_integer_vector(vec):
    """Scale a rational vector to coprime integers with a positive lead.

    The lead is the first nonzero part, real before imaginary.
    """
    parts = [q for c in vec for q in (c.re, c.im) if q]
    if not parts:
        return vec
    scale = Fraction(math.lcm(*(q.denominator for q in parts)),
                     math.gcd(*(q.numerator for q in parts)))
    if parts[0] < 0:
        scale = -scale
    return [CRat(c.re * scale, c.im * scale) for c in vec]


def _vector_weight(vec) -> Fraction:
    return sum((abs(c.re) + abs(c.im) for c in vec), Fraction(0))


def _sort_key(vec):
    all_real = all(c.is_real for c in vec)
    return (not all_real, _vector_weight(vec),
            tuple((c.re, c.im) for c in vec))


def darboux_first_integral(curves: Sequence[InvariantCurve],
                           expf: Sequence[ExponentialFactor] = ()) -> DarbouxExpr:
    """Find exponents making the cofactor-weighted sum vanish identically.

    Stacks every cofactor monomial-wise into an exact linear map and computes
    its rational kernel.  Among kernel combinations of at most two basis
    vectors (including real/imaginary parts, so conjugate pairs can combine
    to real expressions) the all-real, smallest-integer-weight vector is
    preferred.  Raises NoNontrivialRelationError when only the zero vector
    works.
    """
    curves = tuple(curves)
    expf = tuple(expf)
    cofactors = [c.k for c in curves] + [e.k for e in expf]
    if not cofactors:
        raise ValueError("at least one invariant curve or exponential factor needed")
    monomials = sorted({exp for k in cofactors for exp in k.terms},
                       key=lambda e: (e[0] + e[1], e[0]))
    n = len(cofactors)
    rows = [[k.terms.get(mono, CRAT_ZERO) for k in cofactors]
            for mono in monomials]
    basis = kernel_basis(rows, n)
    if not basis:
        raise NoNontrivialRelationError("cofactor relation has trivial kernel")

    combos = [[basis[a][j] + basis[b][j] * sign for j in range(n)]
              for a in range(len(basis)) for b in range(a + 1, len(basis))
              for sign in (1, -1)]
    candidates = [
        _normalize_integer_vector(vec)
        for v in basis + combos
        for vec in (v, [CRat(c.re) for c in v], [CRat(c.im) for c in v])
        if any(vec) and all(
            sum((row[j] * vec[j] for j in range(n)), CRAT_ZERO) == CRAT_ZERO
            for row in rows)]
    best = min(candidates, key=_sort_key)
    expr = DarbouxExpr(
        curve_factors=tuple((c, best[i]) for i, c in enumerate(curves)),
        exp_factors=tuple((e, best[len(curves) + i]) for i, e in enumerate(expf)),
    )
    if not expr.is_first_integral:
        raise AssertionError("kernel vector failed exact verification")
    return expr


# --- numeric drift ----------------------------------------------------------------


def verify_first_integral(h: DarbouxExpr, system: VectorField,
                          trajectories: int = VERIFY_TRAJECTORIES,
                          t_span: float = VERIFY_T_SPAN) -> ResidualReport:
    """Exact total cofactor plus drift of log H along random trajectories.

    H is evaluated through logarithms of the factors with continuous angle
    unwrapping, so complex curves and exponents are handled away from their
    zero sets; seeds landing within 1e-3 of any factor's zero set are
    resampled.  The reported drift is the largest relative change of log H
    along any checked trajectory.  The starts are drawn from a generator
    seeded with ``VERIFY_SEED`` and integrated at tolerance ``VERIFY_TOL``.
    """
    if trajectories < 0:
        raise ValueError(f"trajectories must be >= 0, got {trajectories}")
    symbolic = h.total_cofactor()
    rng = random.Random(VERIFY_SEED)
    factor_polys = [c.f for c, _ in h.curve_factors]
    factor_polys += [e.h for e, _ in h.exp_factors]
    max_drift = 0.0
    checked = 0
    attempts = 0
    while checked < trajectories and attempts < 200 * max(trajectories, 1):
        attempts += 1
        z0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(f.evaluate(z0)) < 1e-3 for f in factor_polys):
            continue
        traj = integrate(system, z0, t_span, VERIFY_TOL)
        drift = _log_drift(h, traj.states)
        if drift is None:
            continue
        max_drift = max(max_drift, drift)
        checked += 1
    return ResidualReport(symbolic_residual=symbolic,
                          numeric_max_drift=max_drift,
                          trajectories_checked=checked)


def _log_drift(h: DarbouxExpr, states):
    """Max |log H(z_t) - log H(z_0)| / max(1, |log H(z_0)|) along a path."""
    w_values = [0j] * len(states)
    for curve, lam in h.curve_factors:
        lam_c = complex(lam)
        prev = curve.f.evaluate(states[0])
        if abs(prev) < 1e-12:
            return None
        theta = cmath.phase(prev)
        w_values[0] += lam_c * complex(math.log(abs(prev)), theta)
        for idx in range(1, len(states)):
            val = curve.f.evaluate(states[idx])
            if abs(val) < 1e-12:
                return None
            theta += cmath.phase(val / prev)
            w_values[idx] += lam_c * complex(math.log(abs(val)), theta)
            prev = val
    for ef, mu in h.exp_factors:
        mu_c = complex(mu)
        for idx, z in enumerate(states):
            h_val = ef.h.evaluate(z)
            if abs(h_val) < 1e-12:
                return None
            w_values[idx] += mu_c * (ef.g.evaluate(z) / h_val)
    base = w_values[0]
    scale = max(1.0, abs(base))
    return max(abs(w - base) for w in w_values) / scale
