"""Floating-point dynamics for planar polynomial fields.

Equilibrium location and classification, adaptive Runge-Kutta trajectory
integration, Poincare return maps, and limit-cycle detection.  Newton
starts in the cells of ``certify.walk`` where the exact Bernstein ranges of
P and Q both contain 0.  ``is_zero`` (|P| and |Q| <= ``ZERO_TOL``; a nan
fails) is the one zero test: Newton stops at it, and ``check_zero`` and
the cycle detector apply it.  All stepping in the package goes through
one RK 5(4) loop (``_steps``), which alone checks a run's inputs and
steps ``RK45``: this module's Dormand-Prince 5(4) on lists of Python
floats with scipy's arithmetic.  Every field is autonomous, so a
right-hand side is ``fun(y)``, of the state alone.  The stages are
straight-line code generated from the tableau once per state length
(``_attempt_kernel``).  Events on a step are found by one bisection of
its dense output (``_locate``).  A cycle's period and its sampled loop
come from one return from its fixed point (``_first_return``), run
backward for an unstable cycle.  The cycle search's budgets are module
constants read at each call, not parameters.  Every float value of a
polynomial comes from one function that ``poly.float_sums`` generates for
its use; none is this module's own.  A field caches one over the real parts
of P and Q (``float_function``), shared by ``VectorField.__call__``
(Newton, the zero tests) and the RK right-hand side (``compile_field``),
and one over its Jacobian's (``float_jacobian``), which Newton and
``classify_equilibrium`` unpack.
Each raises the "beyond float range" ValueError itself.
This is the empirical cross-check side of the package: nothing here is
rigorous, and certificates always win over these numbers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .certify import DROP, SPLIT, Box2, bernstein_coefficients, walk
from .errors import CycleNotFoundError, NoReturnError, NotAnEquilibriumError
from .poly import Point, VectorField, generate

EIGENVALUE_ZERO_THRESHOLD = 1e-9  # relative to the eigenvalue magnitude
DEDUP_RADIUS = 1e-6
EQUILIBRIUM_SPLITS = 5  # at most 4^5 = 1024 cells get a Newton start
NEWTON_MAX_ITER = 50  # Newton steps from one start
ZERO_TOL = 1e-9  # the one zero test, ``is_zero``: |P| and |Q| both <= it
# The cycle search's budgets, for ``limit-cycle`` and ``analyze`` alike,
# read by ``detect_limit_cycle`` and ``poincare_return`` at each call:
# return-map iterations after the first return, the RK tolerance, and the
# time within which each Poincare return must come.
CYCLE_MAX_ITERS = 25
CYCLE_TOL = 1e-10
CYCLE_MAX_TIME = 100.0
INTEGRATE_TOL = 1e-9  # ``integrate``'s default RK tolerance, and ``simulate``'s
LOOP_SUBSAMPLES = 4  # dense-output points per RK step of a reported cycle


class Classification(Enum):
    NODE = "node"
    SADDLE = "saddle"
    FOCUS = "focus"
    CENTER_CANDIDATE = "center_candidate"
    DEGENERATE = "degenerate"


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class TrajectoryStatus(Enum):
    COMPLETED = "completed"
    LEFT_DOMAIN = "left_domain"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class EquilibriumReport:
    location: Point
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    eigenvalues: tuple[complex, complex]
    classification: Classification
    hyperbolic: bool


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[Point, ...]
    status: TrajectoryStatus

    @property
    def endpoint(self) -> Point:
        return self.states[-1]

    def write_csv(self, stream) -> None:
        _write_csv(stream, self.times, self.states)


@dataclass(frozen=True)
class Section:
    """Line through ``anchor`` with unit ``normal``, crossed along it."""

    anchor: Point
    normal: tuple

    def __post_init__(self):
        # written so that a nan length fails too
        if not abs(math.hypot(self.normal[0], self.normal[1]) - 1.0) <= 1e-12:
            raise ValueError("section normal must be a finite unit vector "
                             "(length within 1e-12 of 1)")

    @classmethod
    def through(cls, anchor, direction_vector) -> "Section":
        """Section at ``anchor`` whose normal is the normalized vector."""
        nx, ny = float(direction_vector[0]), float(direction_vector[1])
        n = math.hypot(nx, ny)
        if not (math.isfinite(n) and n > 0):
            raise ValueError(f"direction vector must be finite and nonzero, "
                             f"got ({nx:g}, {ny:g})")
        return cls(anchor=Point(*anchor), normal=(nx / n, ny / n))

    @property
    def tangent(self) -> tuple:
        return (-self.normal[1], self.normal[0])

    def signed_distance(self, z) -> float:
        return ((z[0] - self.anchor.x) * self.normal[0]
                + (z[1] - self.anchor.y) * self.normal[1])

    def along(self, z) -> float:
        tx, ty = self.tangent
        return (z[0] - self.anchor.x) * tx + (z[1] - self.anchor.y) * ty

    def point_at(self, u: float) -> Point:
        tx, ty = self.tangent
        return Point(self.anchor.x + u * tx, self.anchor.y + u * ty)


@dataclass(frozen=True)
class LimitCycleReport:
    period: float
    amplitude_x: float
    return_map_slope: float
    stability: Stability
    points: tuple[Point, ...]  # one full loop
    times: tuple[float, ...]  # sampling times, aligned with points

    def write_csv(self, stream) -> None:
        _write_csv(stream, self.times, self.points)


def _write_csv(stream, times, points) -> None:
    """CSV with header t,x,y at full float precision."""
    writer = csv.writer(stream)
    writer.writerow(["t", "x", "y"])
    for t, z in zip(times, points):
        writer.writerow([f"{t:.17g}", f"{z.x:.17g}", f"{z.y:.17g}"])


# --- field compilation -------------------------------------------------------


def compile_field(system: VectorField):
    """ODE right-hand side ``fun([x, y]) -> [P, Q]`` on Python floats: the
    field's cached ``float_function``, shared with ``VectorField.__call__``,
    so its values are those of ``Poly.evaluate``, and so is the ValueError
    it raises for a value beyond float range (P's first).
    """
    return system.float_function


# --- equilibria ---------------------------------------------------------------


def eigenvalues_2x2(j11: float, j12: float, j21: float, j22: float):
    """Closed-form eigenvalues of a real 2x2 matrix."""
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        return complex((tr + root) / 2.0), complex((tr - root) / 2.0)
    root = math.sqrt(-disc)
    return complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0)


def _classify(eigs) -> tuple:
    l1, l2 = eigs
    scale = max(abs(l1), abs(l2))
    if scale == 0.0:
        return Classification.DEGENERATE, False
    thr = EIGENVALUE_ZERO_THRESHOLD * scale
    hyperbolic = min(abs(l1.real), abs(l2.real)) > thr
    if l1.imag != 0.0:
        if abs(l1.real) <= thr:
            return Classification.CENTER_CANDIDATE, False
        return Classification.FOCUS, hyperbolic
    if abs(l1) <= thr or abs(l2) <= thr:
        return Classification.DEGENERATE, False
    if l1.real * l2.real < 0:
        return Classification.SADDLE, hyperbolic
    return Classification.NODE, hyperbolic


def is_zero(values) -> bool:
    """The zero test: every value is within ``ZERO_TOL`` of 0 (nan fails)."""
    return all(abs(v) <= ZERO_TOL for v in values)


def check_zero(system: VectorField, z) -> None:
    """Raise NotAnEquilibriumError unless X(z) passes ``is_zero``."""
    if not is_zero(system(z)):
        raise NotAnEquilibriumError(f"|X({z[0]}, {z[1]})| > {ZERO_TOL:g}")


def classify_equilibrium(system: VectorField, z) -> EquilibriumReport:
    """Classify a zero of the field from its symbolic Jacobian at z.

    A complex pair with real part below the relative threshold is reported as
    CENTER_CANDIDATE and never upgraded to a center: floats cannot certify a
    purely imaginary spectrum.
    """
    x, y = float(z[0]), float(z[1])
    check_zero(system, (x, y))
    j11, j12, j21, j22 = system.float_jacobian((x, y))
    eigs = eigenvalues_2x2(j11, j12, j21, j22)
    classification, hyperbolic = _classify(eigs)
    return EquilibriumReport(
        location=Point(x, y),
        jacobian=((j11, j12), (j21, j22)),
        eigenvalues=eigs,
        classification=classification,
        hyperbolic=hyperbolic,
    )


def find_equilibria(system: VectorField, box: Box2) -> list:
    """Zeros of the field in the box, classified and sorted by location.

    ``certify.walk`` halves P and Q together in Bernstein form to depth
    ``EQUILIBRIUM_SPLITS``, dropping a cell once the range of P or of Q
    excludes 0.  A Bernstein range encloses the values on the closed cell,
    so every zero in the box lies in a cell left at that depth.  Newton
    (stopping at ``is_zero``) starts at each such cell's centre; of points
    within ``DEDUP_RADIUS``, the one with the smallest max(|P|, |Q|) is kept.
    """
    x_min, x_max, y_min, y_max = box.as_floats()
    cells = walk((bernstein_coefficients(system.p, box),
                  bernstein_coefficients(system.q, box)),
                 _may_vanish, EQUILIBRIUM_SPLITS)
    zeros = [_newton(system, float(p.box.x_mid), float(p.box.y_mid))
             for _, (p, _q), _ in cells]
    found: list = []
    for _, x, y in sorted(filter(None, zeros)):  # smallest |X| first
        if not (x_min - 1e-9 <= x <= x_max + 1e-9
                and y_min - 1e-9 <= y <= y_max + 1e-9):
            continue
        if any(math.hypot(x - w[0], y - w[1]) < DEDUP_RADIUS for w in found):
            continue
        found.append((x, y))
    found.sort()
    return [classify_equilibrium(system, z) for z in found]


def _may_vanish(patches):
    """DROP when the Bernstein range of some patch excludes 0, else SPLIT."""
    # numerators over a positive denominator, so they carry the signs
    vanish = all(min(map(min, p.numerators)) <= 0 <= max(map(max, p.numerators))
                 for p in patches)
    return SPLIT if vanish else DROP


def _newton(system, x, y):
    """(max(|P|, |Q|), x, y) once X passes ``is_zero``, or None, also once
    a step lands more than 1e8 from the start in x or y (or at a nan)."""
    x0, y0 = x, y
    for _ in range(NEWTON_MAX_ITER):
        fx, fy = system((x, y))
        if is_zero((fx, fy)):
            return (max(abs(fx), abs(fy)), x, y)
        j11, j12, j21, j22 = system.float_jacobian((x, y))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            return None
        x -= (j22 * fx - j12 * fy) / det
        y -= (-j21 * fx + j11 * fy) / det
        if not (abs(x - x0) <= 1e8 and abs(y - y0) <= 1e8):  # nan fails
            return None
    return None


# --- integration ---------------------------------------------------------------


# Accepted RK steps one ``_steps`` call may take.  The largest call in an
# ``analyze`` of every systems/*.vf on [-4,4]^2 takes 8,327.
MAX_STEPS = 100_000


class _StepFailure(Exception):
    """The RK integrator failed to take a step (e.g. on blow-up), ran out of
    its step budget, or started where the right-hand side is not finite."""


def _div(a: float, b: float) -> float:
    """a / b with IEEE semantics: a zero divisor gives +-inf or nan."""
    try:
        return a / b
    except ZeroDivisionError:
        if math.isnan(a) or a == 0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _rms(v) -> float:
    """Root mean square, summed left to right as on every Python version."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total) / len(v) ** 0.5


@functools.cache
def _attempt_kernel(n: int, a, b, e):
    """Generate, on the first call for each state length ``n`` and tableau,
    ``attempt(fun, h, y, k1, tol)``: one trial step of size h from y, where
    k1 = fun(y), returning ``(y_new, (k1, ..., k7), error_norm)``.

    Stage j calls ``fun([y_i + (sum of a[j-1][m] * k_m,i) * h])``,
    ``y_new`` is ``y_i + h * (sum of b[m] * k_m,i)``, k7 is
    ``fun(y_new)``, and the error norm is the RMS of ``(sum of e[m] *
    k_m,i) * h / (tol + max(|y_i|, |y_new_i|) * tol)``.  Every sum runs
    left to right and leaves out zero weights, and the RMS adds the squares
    to ``0.0`` one by one: ``sum()`` compensates its float sums from Python
    3.12 on, which would change the bits.  So the values are those of the
    same arithmetic written over lists, on every Python version.  The
    source holds only float reprs and names.
    """
    comps = range(n)

    def names(prefix):
        return ", ".join(f"{prefix}_{i}" for i in comps)

    def combo(weights, i):
        return " + ".join(f"{w!r} * k{m}_{i}"
                          for m, w in enumerate(weights, 1) if w)

    lines = ["def attempt(fun, h, y, k1, tol):",
             f"    {names('y')}, = y",
             f"    {names('k1')}, = k1"]
    for j in range(2, len(a) + 1):
        state = ", ".join(f"y_{i} + ({combo(a[j - 1], i)}) * h" for i in comps)
        lines.append(f"    k{j} = fun([{state}])")
        lines.append(f"    {names(f'k{j}')}, = k{j}")
    last = len(b) + 1
    lines += [f"    n_{i} = y_{i} + h * ({combo(b, i)})" for i in comps]
    lines.append(f"    y_new = [{names('n')}]")
    lines.append(f"    k{last} = fun(y_new)")
    lines.append(f"    {names(f'k{last}')}, = k{last}")
    for i in comps:
        lines.append(f"    u_{i}, v_{i} = abs(y_{i}), abs(n_{i})")
        # max(u, v) is u unless v > u, also where one is nan
        lines.append(f"    r_{i} = ({combo(e, i)}) * h / "
                     f"(tol + (v_{i} if v_{i} > u_{i} else u_{i}) * tol)")
    squares = " + ".join(f"r_{i} * r_{i}" for i in comps)
    stages = ", ".join(f"k{j}" for j in range(1, last + 1))
    lines.append(f"    return y_new, ({stages}), "
                 f"sqrt(0.0 + {squares}) / {n ** 0.5!r}")
    return generate(lines, "attempt", "<RK45 attempt>",
                    abs=abs, sqrt=math.sqrt)


class RK45:
    """Dormand-Prince 5(4) with FSAL on a state of Python floats.

    The tableau, the step-size controller (initial step after Hairer,
    Norsett & Wanner, Solving ODEs I, II.4; safety 0.9, factors in
    [0.2, 10], exponent -1/5, a minimum step of 10 spacings of t) and the
    quartic dense output are those of ``scipy.integrate.RK45``, so the steps
    taken match scipy's up to rounding.  It runs from t = 0 to ``t_bound =
    t_span`` with ``tol`` as both tolerances; ``_steps`` checks the inputs.
    The state may have any length.  ``fun(y)`` maps the state, a list of
    floats, to its derivative, with no time argument; exceptions it raises
    propagate.  ``step()`` sets ``finished`` on reaching ``t_bound``, and
    raises _StepFailure only when the step size falls below the minimum
    step: a zero divisor goes through ``_div``, and a stage that overflows
    gives an inf or nan error norm, which rejects and shrinks the step.  A
    trial step (stages k2 to k7, ``y_new`` and the error norm) is one call
    of ``_attempt_kernel``'s code for the state's length and this class's
    ``A``, ``B`` and ``E``, generated when the first solver of that length
    is built.  It calls ``fun`` once per stage, leaves out zero tableau
    entries and sums left to right, not with ``sum()``, which compensates
    from Python 3.12 on, so its floats are those of the stages written over
    lists.
    """

    A = ((),
         (1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
    B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
    E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
         -22 / 525, 1 / 40)
    P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
          -12715105075 / 11282082432),
         (0.0, 0.0, 0.0, 0.0),
         (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
          87487479700 / 32700410799),
         (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
          -10690763975 / 1880347072),
         (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
          701980252875 / 199316789632),
         (0.0, -282668133 / 205662961, 2019193451 / 616988883,
          -1453857185 / 822651844),
         (0.0, 40617522 / 29380423, -110615467 / 29380423,
          69997945 / 29380423))
    SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1 / 5

    def __init__(self, fun, y0, t_span, tol):
        self.fun, self.y, self.tol = fun, list(y0), tol
        self.t, self.t_bound = 0.0, float(t_span)
        self.direction = 1.0 if t_span > 0 else -1.0
        self.finished = False
        self.f = fun(self.y)
        self.h_abs = self._initial_step()
        self._attempt = _attempt_kernel(len(self.y), self.A, self.B, self.E)

    def _initial_step(self) -> float:
        y0, f0, tol = self.y, self.f, self.tol
        direction, interval = self.direction, abs(self.t_bound)
        scale = [tol + abs(v) * tol for v in y0]
        d0 = _rms([v / s for v, s in zip(y0, scale)])
        d1 = _rms([v / s for v, s in zip(f0, scale)])
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun([v + h0 * direction * f for v, f in zip(y0, f0)])
        d2 = _div(_rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]), h0)
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = _div(0.01, max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval)

    def step(self) -> None:
        t, y, k1, t_bound = self.t, self.y, self.f, self.t_bound
        fun, direction, tol = self.fun, self.direction, self.tol
        attempt = self._attempt
        safety, exponent = self.SAFETY, self.ERROR_EXPONENT

        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        # not max(): a nan step size must stay nan
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                raise _StepFailure(
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            # scale >= tol > 0, and a nan norm rejects the step
            y_new, K, error_norm = attempt(fun, h, y, k1, tol)
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(self.MAX_FACTOR, safety * error_norm ** exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(self.MIN_FACTOR, safety * error_norm ** exponent)
            rejected = True

        self.t_old, self.y_old, self.K = t, y, K
        self.t, self.y, self.f, self.h_abs = t_new, y_new, K[-1], h_abs
        self.finished = direction * (t_new - t_bound) >= 0

    def dense_output(self):
        """The quartic interpolant over the last step, as a function of t."""
        t_old, y_old, h = self.t_old, self.y_old, self.t - self.t_old
        q = []  # q[i][c]: the sum over stages of K[j][i] * P[j][c]
        for i in range(len(y_old)):
            row = [0.0, 0.0, 0.0, 0.0]
            for k, p in zip(self.K, self.P):
                for c in range(4):
                    row[c] += k[i] * p[c]
            q.append(row)

        def dense(t: float):
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            return [v + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                    for v, (q1, q2, q3, q4) in zip(y_old, q)]

        return dense


def _steps(fun, y0, t_span: float, tol: float):
    """Yield the RK 5(4) solver after each accepted step over [0, t_span].

    ``fun(y)`` is the right-hand side and ``y0`` a state of any length.
    This is the one place a run's inputs are checked.  Raises ValueError
    unless tol lies in [1e-13, 1e-3], t_span is finite and nonzero and y0
    is finite, and _StepFailure if the right-hand side is not finite at y0,
    a step fails (its size fell below the spacing of floats at t, as on
    blow-up) or MAX_STEPS accepted steps do not reach t_span.  ``RK45`` is
    read from the module at call time, so it can be wrapped from outside.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-13, 1e-3]")
    if not (math.isfinite(t_span) and t_span):
        raise ValueError(f"time span must be finite and nonzero, got {t_span}")
    y0 = [float(v) for v in y0]
    if not all(map(math.isfinite, y0)):
        raise ValueError("all components of the initial state must be finite")
    solver = RK45(fun, y0, t_span, tol)
    # a non-finite derivative gives a nan step size, which neither passes
    # the error test nor falls below the minimum step, so step() would loop
    if not all(math.isfinite(v) for v in solver.f):
        raise _StepFailure("the right-hand side is not finite at the start")
    steps = 0
    while not solver.finished:
        if steps == MAX_STEPS:
            raise _StepFailure(
                f"{MAX_STEPS} steps reached only t = {solver.t:.6g}")
        solver.step()
        steps += 1
        yield solver


def _locate(g, solver):
    """Bisect the last step's dense output for a zero of ``g``.

    ``g`` maps a state to a float whose sign differs at the two ends of the
    step.  Returns (t, Point), as Python floats, at the first midpoint with
    |g| <= 1e-10, or at the bracket end nearer ``solver.t`` after 200
    halvings.
    """
    dense = solver.dense_output()
    lo, hi = solver.t_old, solver.t
    g_lo = g(dense(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = dense(mid)
        g_mid = g(z)
        if abs(g_mid) <= 1e-10:
            return mid, Point(z[0], z[1])
        if (g_mid > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    z = dense(hi)
    return hi, Point(z[0], z[1])


def integrate(system: VectorField, z0, t_span: float,
              tol: float = INTEGRATE_TOL,
              domain: Optional[Box2] = None) -> Trajectory:
    """Adaptive RK 5(4) integration from z0 over [0, t_span].

    Stops at t_span (COMPLETED), at the first exit from ``domain``
    (LEFT_DOMAIN, ending within 1e-10 of the boundary crossing located on
    the dense output), or on integrator failure or an exhausted step budget
    (STEP_FAILURE).  Negative t_span integrates backward.  Raises
    ValueError when z0 lies outside ``domain``; its boundary is allowed.
    """
    if domain is not None:
        x_min, x_max, y_min, y_max = domain.as_floats()

        def margin(z) -> float:
            return min(z[0] - x_min, x_max - z[0], z[1] - y_min, y_max - z[1])

        if margin(z0) < 0:
            raise ValueError("z0 must lie in the domain")

    times = [0.0]
    states = [Point(float(z0[0]), float(z0[1]))]
    status = TrajectoryStatus.COMPLETED
    try:
        for solver in _steps(compile_field(system), z0, t_span, tol):
            z = Point(solver.y[0], solver.y[1])
            if domain is not None and margin(z) < 0:
                t, z = _locate(margin, solver)
                times.append(t)
                states.append(z)
                status = TrajectoryStatus.LEFT_DOMAIN
                break
            times.append(solver.t)
            states.append(z)
    except _StepFailure:
        status = TrajectoryStatus.STEP_FAILURE
    return Trajectory(times=tuple(times), states=tuple(states), status=status)


# --- Poincare sections ----------------------------------------------------------


def poincare_return(system: VectorField, section: Section, z0):
    """First return of the trajectory from z0 to the section.

    z0 must lie on the section (within 1e-9).  The orbit is stepped at
    tolerance ``CYCLE_TOL``.  Once it is more than 1e-6 off the section, a
    return is the first step whose signed distance goes from negative to
    zero or positive; it is located by bisection on the step's dense output
    until the signed distance is below 1e-10.  Raises NoReturnError if no
    return occurs within t = ``CYCLE_MAX_TIME``, or if the integrator fails
    or runs out of its step budget first.
    """
    return _first_return(system, section, z0, CYCLE_MAX_TIME)


def _first_return(system, section, z0, t_max: float, loop=None):
    """``poincare_return`` within the signed time ``t_max``: run backward
    (``t_max`` < 0), a return crosses the section against its normal.
    Given a list ``loop``, it also appends (t, Point) at ``LOOP_SUBSAMPLES``
    points of each step's dense output, the last step's ending at the
    located return."""
    s_old = section.signed_distance(z0)
    if abs(s_old) > 1e-9:
        raise ValueError("z0 must lie on the section (within 1e-9)")
    sign = 1.0 if t_max > 0 else -1.0
    armed, crossing = False, None
    try:
        for solver in _steps(compile_field(system), z0, t_max, CYCLE_TOL):
            s_new = section.signed_distance(solver.y)
            if not armed:
                armed = abs(s_new) > 1e-6
            elif sign * s_old < 0 <= sign * s_new:
                crossing = _locate(section.signed_distance, solver)
            if loop is not None:
                t_old, dense = solver.t_old, solver.dense_output()
                t_end = solver.t if crossing is None else crossing[0]
                for k in range(1, LOOP_SUBSAMPLES + 1):
                    t = t_old + (t_end - t_old) * k / LOOP_SUBSAMPLES
                    loop.append((t, Point(*dense(t))))
            if crossing is not None:
                if loop is not None:
                    loop[-1] = crossing  # ends on the located return
                return crossing[1], crossing[0]
            s_old = s_new
    except _StepFailure as exc:
        raise NoReturnError("integration failed before a return") from exc
    raise NoReturnError(f"no section return within t = {t_max}")


# --- limit cycles ----------------------------------------------------------------


def detect_limit_cycle(system: VectorField, seed) -> LimitCycleReport:
    """Fixed-point iteration of the return map with secant acceleration.

    The return map (``poincare_return``) acts on the section through the
    seed, normal to the field X there and crossed in the direction of X.
    Convergence is successive section crossings within 1e-9, reached within
    ``CYCLE_MAX_ITERS`` + 1 returns; the return-map slope comes
    from a divided difference of two nearby returns.  A slope within 1e-3
    of 1 is reported MARGINAL (a non-isolated periodic family, e.g. a linear
    center, converges immediately with slope 1).  One return from the fixed
    point then gives the period and the loop, sampled on its own steps:
    forward, but an UNSTABLE cycle's backward, where it attracts.  The loop
    ascends in time from 0 to the period, so a backward one ends at the
    fixed point.  Raises ValueError for a seed that passes the zero test
    (``is_zero``) and a field that is not finite at the seed, both before
    any return; and CycleNotFoundError when a return fails or the
    iteration does not converge.
    """
    vx, vy = system(seed)
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError(f"the field is not finite at the seed ({seed[0]:.6g}, "
                         f"{seed[1]:.6g}): X = ({vx:g}, {vy:g})")
    if is_zero((vx, vy)):
        raise ValueError(f"seed ({seed[0]:.6g}, {seed[1]:.6g}) is a zero of "
                         f"the field: max(|P|, |Q|) <= {ZERO_TOL:g}")
    section = Section.through(seed, (vx, vy))

    def return_map(u: float) -> float:
        try:
            z_next, _ = poincare_return(system, section, section.point_at(u))
        except NoReturnError as exc:
            raise CycleNotFoundError(f"return map undefined: {exc}") from exc
        return section.along(z_next)

    # the first return and CYCLE_MAX_ITERS more; with no previous residual
    # yet, or a flat secant, the step is plain iteration u -> u_next
    u, u_prev, f_prev = 0.0, None, None  # the seed is the section's anchor
    for _ in range(CYCLE_MAX_ITERS + 1):
        u_next = return_map(u)
        f = u_next - u
        if abs(f) <= 1e-9:
            u_star = u_next
            break
        u_step = u_next
        if f_prev is not None and abs(f - f_prev) > 1e-14:
            u_step = u - f * (u - u_prev) / (f - f_prev)
        u_prev, f_prev, u = u, f, u_step
    else:
        raise CycleNotFoundError("return map did not converge within "
                                 f"{CYCLE_MAX_ITERS} iterations")

    # probe step large enough that crossing-location error (~1e-10) stays
    # well below the divided difference
    h = 1e-4 * max(1.0, abs(u_star))
    slope = (return_map(u_star + h) - u_star) / h
    if abs(slope) < 1.0 - 1e-3:
        stability = Stability.STABLE
    elif abs(slope) > 1.0 + 1e-3:
        stability = Stability.UNSTABLE
    else:
        stability = Stability.MARGINAL
    z_star = section.point_at(u_star)
    loop = [(0.0, z_star)]
    backward = stability is Stability.UNSTABLE
    t_max = -CYCLE_MAX_TIME if backward else CYCLE_MAX_TIME
    try:
        _, t_cross = _first_return(system, section, z_star, t_max, loop)
    except NoReturnError as exc:
        raise CycleNotFoundError(f"no period return: {exc}") from exc
    if backward:  # ascending time from 0, ending at the fixed point
        loop = [(t - t_cross, z) for t, z in reversed(loop)]
    times, points = zip(*loop)
    return LimitCycleReport(period=abs(t_cross), points=points,
                            amplitude_x=max(abs(p.x) for p in points),
                            return_map_slope=slope, stability=stability,
                            times=times)
