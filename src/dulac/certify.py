"""Rigorous positivity certificates on rectangles via Bernstein coefficients.

A polynomial with all-positive Bernstein coefficients on a box is positive
there; a nonpositive coefficient triggers quaternary midpoint subdivision.
A patch holds integer numerators over one positive integer denominator,
so a numerator has its coefficient's sign, and is a dyadic cell of its
root box.  Conversion clears every denominator once and stays in integers;
halving is de Casteljau with integer adds and shifts.  ``walk`` is the one
subdivision walk (here and in ``flow.find_equilibria``).  No rounding
happens anywhere, so a Positive certificate is a machine-checked proof and
a Violation carries an exact witness vertex.  Wrapped around a multiplier's
sign carrier this decides the no-periodic-orbit criterion on the open box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import add, lshift

from .jsonform import from_json, to_json
from .multiplier import BENDIXSON, Multiplier
from .poly import Poly, VectorField, short_numeral

DEFAULT_MAX_DEPTH = 12

OPEN_BOX_NOTE = (
    "a Positive certificate excludes periodic orbits fully contained in the "
    "open box; an orbit meeting the boundary is not excluded"
)


@dataclass(frozen=True)
class Box2:
    """Axis-aligned rectangle with exact rational corners."""

    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("box must satisfy x_min < x_max and y_min < y_max")

    @classmethod
    def centered(cls, cx: Fraction, cy: Fraction, half_width: Fraction) -> "Box2":
        cx, cy, w = Fraction(cx), Fraction(cy), Fraction(half_width)
        return cls(cx - w, cx + w, cy - w, cy + w)

    @property
    def x_mid(self) -> Fraction:
        return (self.x_min + self.x_max) / 2

    @property
    def y_mid(self) -> Fraction:
        return (self.y_min + self.y_max) / 2

    @property
    def width(self) -> Fraction:
        return self.x_max - self.x_min

    @property
    def height(self) -> Fraction:
        return self.y_max - self.y_min

    def corners(self):
        return (
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_min, self.y_max),
            (self.x_max, self.y_max),
        )

    def contains_point(self, z, strict: bool = False) -> bool:
        x, y = float(z[0]), float(z[1])
        if strict:
            return (self.x_min < x < self.x_max) and (self.y_min < y < self.y_max)
        return (self.x_min <= x <= self.x_max) and (self.y_min <= y <= self.y_max)

    def contains_box(self, other: "Box2") -> bool:
        return (self.x_min <= other.x_min and other.x_max <= self.x_max
                and self.y_min <= other.y_min and other.y_max <= self.y_max)

    def intersects(self, other: "Box2") -> bool:
        return not (other.x_max <= self.x_min or self.x_max <= other.x_min
                    or other.y_max <= self.y_min or self.y_max <= other.y_min)

    def as_floats(self):
        """The corners as floats; ValueError names one beyond float range."""
        floats = []
        for name in ("x_min", "x_max", "y_min", "y_max"):
            value = getattr(self, name)
            try:
                floats.append(float(value))
            except OverflowError:
                raise ValueError(f"box {name} = {short_numeral(value)} is "
                                 f"beyond float range") from None
        return tuple(floats)

    def __str__(self) -> str:
        return f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"


@dataclass(frozen=True)
class BernsteinPatch:
    """Bernstein coefficients of a polynomial on a dyadic cell of a root box,
    as integer numerators over one positive integer denominator.

    The cell (level, i, j) is column i, row j of the root's 2^level x 2^level
    grid; ``box`` builds it on demand and is the root itself at level 0.
    ``numerators[i][j] / denominator`` is the exact coefficient of
    B_{i,m}(u) B_{j,n}(v) on the cell mapped onto the unit square, so a
    numerator has its coefficient's sign.  The Fraction accessors give
    exact values: corner coefficients are the values at the cell corners,
    and min/max coefficients enclose the range on the cell.
    """

    root: Box2
    cell: tuple[int, int, int]  # (level, i, j)
    degrees: tuple[int, int]
    numerators: tuple[tuple[int, ...], ...]  # (m+1) x (n+1)
    denominator: int

    @property
    def box(self) -> Box2:
        (level, i, j), r = self.cell, self.root
        if not level:
            return r
        dx, dy = r.width / (1 << level), r.height / (1 << level)
        return Box2(r.x_min + i * dx, r.x_min + (i + 1) * dx,
                    r.y_min + j * dy, r.y_min + (j + 1) * dy)

    @property
    def coefficients(self) -> tuple:
        d = self.denominator
        return tuple(tuple(Fraction(c, d) for c in row)
                     for row in self.numerators)

    @property
    def min_coefficient(self) -> Fraction:
        return Fraction(min(map(min, self.numerators)), self.denominator)

    @property
    def max_coefficient(self) -> Fraction:
        return Fraction(max(map(max, self.numerators)), self.denominator)

    def corner_numerators(self):
        """Numerators at (SW, SE, NW, NE), aligned with box.corners()."""
        c = self.numerators
        return (c[0][0], c[-1][0], c[0][-1], c[-1][-1])

    def corner_coefficients(self):
        """Values at (SW, SE, NW, NE) corners, aligned with box.corners()."""
        d = self.denominator
        return tuple(Fraction(c, d) for c in self.corner_numerators())

    def subdivide(self):
        """The four child cells (SW, SE, NW, NE); denominators gain 2^(m+n)."""
        m, n = self.degrees
        left, right = _halve(self.numerators, m)
        sw_c, nw_c = _halve_cols(left, n)
        se_c, ne_c = _halve_cols(right, n)
        level, i, j = self.cell
        level, i, j = level + 1, 2 * i, 2 * j
        root, deg = self.root, self.degrees
        den = self.denominator << (m + n)
        return (
            BernsteinPatch(root, (level, i, j), deg, sw_c, den),
            BernsteinPatch(root, (level, i + 1, j), deg, se_c, den),
            BernsteinPatch(root, (level, i, j + 1), deg, nw_c, den),
            BernsteinPatch(root, (level, i + 1, j + 1), deg, ne_c, den),
        )


def _halve(rows, m):
    """De Casteljau halving along the row (x) index, in integers.

    Row r of the triangle holds 2^r times the exact midpoint values, so
    shifting it left by m - r puts both halves over 2^m.
    """
    left = [None] * (m + 1)
    right = [None] * (m + 1)
    left[0] = tuple(map(lshift, rows[0], repeat(m)))
    right[m] = tuple(map(lshift, rows[m], repeat(m)))
    tri = rows
    for r in range(1, m + 1):
        tri = [tuple(map(add, a, b)) for a, b in zip(tri, tri[1:])]
        s = m - r
        left[r] = tuple(map(lshift, tri[0], repeat(s)))
        right[s] = tuple(map(lshift, tri[-1], repeat(s)))
    return tuple(left), tuple(right)


def _halve_cols(rows, n):
    bottom, top = _halve(tuple(zip(*rows)), n)
    return tuple(zip(*bottom)), tuple(zip(*top))


def _to_bernstein(c, shift, weights):
    """m! times the Bernstein coefficients on [0, 1] of sum c[i] (shift + w*u)^i.

    ``weights[k]`` is w^k k! (m-k)!, so that m! C(k,i) / C(m,i) becomes the
    integer weight C(k,i) i! (m-i)!.  All arithmetic is on ints; the list c
    is overwritten.
    """
    m = len(c) - 1
    if shift:  # Taylor shift: coefficients of sum c[i] (shift + t)^i
        for i in range(m):
            for k in range(m - 1, i - 1, -1):
                c[k] += shift * c[k + 1]
    c = [ck * wk for ck, wk in zip(c, weights)]
    for r in range(1, m + 1):  # binomial transform: sum_i C(k,i) c[i]
        for k in range(m, r - 1, -1):
            c[k] += c[k - 1]
    return c


def _axis_weights(width, m):
    f = math.factorial
    return [width ** k * f(k) * f(m - k) for k in range(m + 1)]


def bernstein_coefficients(p: Poly, box: Box2) -> BernsteinPatch:
    """Exact Bernstein form of a real polynomial on a box.

    Degrees are (deg_x p, deg_y p); raises ValueError on complex coefficients.
    The coefficient denominators are cleared by their lcm L_c and the box
    corners by theirs, L_b, so the patch denominator is
    L_c * L_b^(m+n) * m! * n!.
    """
    if not p.is_real:
        raise ValueError("Bernstein certification requires real coefficients")
    m = max(p.deg_x, 0)
    n = max(p.deg_y, 0)
    coeffs = [(e, c.re) for e, c in p.terms.items()]
    lc = math.lcm(*(c.denominator for _, c in coeffs))
    corners = (box.x_min, box.x_max, box.y_min, box.y_max)
    lb = math.lcm(*(c.denominator for c in corners))
    x0, x1, y0, y1 = (c.numerator * (lb // c.denominator) for c in corners)

    # power coefficients of L_c L_b^(m+n) p(X/L_b, Y/L_b) in X, Y
    lb_pow = [lb ** k for k in range(m + n + 1)]
    a = [[0] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in coeffs:
        a[i][j] = c.numerator * (lc // c.denominator) * lb_pow[m + n - i - j]

    # X = x0 + (x1 - x0) u and Y = y0 + (y1 - y0) v, one axis at a time
    wx = _axis_weights(x1 - x0, m)
    wy = _axis_weights(y1 - y0, n)
    cols = [_to_bernstein([row[j] for row in a], x0, wx) for j in range(n + 1)]
    b = tuple(tuple(_to_bernstein([col[k] for col in cols], y0, wy))
              for k in range(m + 1))
    den = lc * lb_pow[m + n] * math.factorial(m) * math.factorial(n)
    return BernsteinPatch(root=box, cell=(0, 0, 0), degrees=(m, n),
                          numerators=b, denominator=den)


# --- the subdivision walk ---------------------------------------------------

SPLIT, DROP = "split", "drop"  # what decide returns when it has no verdict


def walk(roots, decide, max_depth: int):
    """Yield (verdict, patches, depth) for each tuple of patches on one cell
    where ``decide(patches)`` gives neither SPLIT nor DROP, or SPLIT at
    ``max_depth`` (undecided).  Depth-first, children SW, SE, NW, NE; the
    one caller of ``BernsteinPatch.subdivide``."""
    stack = [(tuple(roots), 0)]
    while stack:
        patches, depth = stack.pop()
        verdict = decide(patches)
        if verdict is SPLIT and depth < max_depth:
            children = zip(*[p.subdivide() for p in patches])
            stack += reversed([(c, depth + 1) for c in children])
        elif verdict is not DROP:
            yield verdict, patches, depth


# --- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class Positive:
    max_depth_used: int
    box_count: int


@dataclass(frozen=True)
class Violation:
    witness: tuple[Fraction, Fraction]  # a subdivision vertex
    value: Fraction
    depth: int


@dataclass(frozen=True)
class Inconclusive:
    depth_limit: int
    undecided_boxes: int


Outcome = Positive | Violation | Inconclusive


@dataclass(frozen=True)
class Certificate:
    outcome: Outcome
    carrier: Poly
    box: Box2

    @property
    def is_positive(self) -> bool:
        return isinstance(self.outcome, Positive)

    @property
    def depth(self) -> int:
        o = self.outcome
        if isinstance(o, Positive):
            return o.max_depth_used
        if isinstance(o, Violation):
            return o.depth
        return o.depth_limit

    def to_json(self) -> dict:
        """The flat form documented in the README; ``from_json`` inverts it.

        Its first four keys are the report envelope's ``certificate``."""
        o = self.outcome
        if isinstance(o, Positive):
            outcome, witness = "positive", None
            extra = {"box_count": o.box_count}
        elif isinstance(o, Violation):
            outcome, witness = "violation", to_json(o.witness)
            extra = {"value": str(o.value)}
        else:
            outcome, witness = "inconclusive", None
            extra = {"undecided_boxes": o.undecided_boxes}
        return {"outcome": outcome, "carrier": str(self.carrier),
                "witness": witness, "depth": self.depth,
                "box": to_json(self.box), **extra}

    @classmethod
    def from_json(cls, d: dict) -> "Certificate":
        kind = d["outcome"]
        if kind == "positive":
            outcome = Positive(max_depth_used=d["depth"],
                               box_count=d["box_count"])
        elif kind == "violation":
            outcome = Violation(witness=tuple(map(Fraction, d["witness"])),
                                value=Fraction(d["value"]), depth=d["depth"])
        else:
            outcome = Inconclusive(depth_limit=d["depth"],
                                   undecided_boxes=d["undecided_boxes"])
        return cls(outcome=outcome, carrier=from_json(Poly, d["carrier"]),
                   box=from_json(Box2, d["box"]))


def certify_positive(p: Poly, box: Box2,
                     max_depth: int = DEFAULT_MAX_DEPTH) -> Certificate:
    """Decide p > 0 on the box by Bernstein subdivision.

    Positive is sound: every leaf patch has all-positive coefficients.
    Violation carries an exact subdivision vertex with p(vertex) <= 0.
    Inconclusive means max_depth was reached with undecided patches.
    The search order is a fixed depth-first traversal, so results are
    deterministic.  Raises ValueError for a negative max_depth.
    """
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, got {max_depth}")
    leaf_count = max_used = undecided = 0
    for verdict, _, depth in walk((bernstein_coefficients(p, box),),
                                  _positive_on, max_depth):
        if verdict == "leaf":
            leaf_count += 1
            max_used = max(max_used, depth)
        elif verdict is SPLIT:
            undecided += 1
        else:
            outcome = Violation(*verdict, depth=depth)  # witness, value
            break
    else:
        outcome = (Inconclusive(depth_limit=max_depth, undecided_boxes=undecided)
                   if undecided else
                   Positive(max_depth_used=max_used, box_count=leaf_count))
    return Certificate(outcome, carrier=p, box=box)


def _positive_on(patches):
    """(corner, exact value) at the first corner where the value is <= 0
    (a corner coefficient is the value there), else "leaf" when every
    coefficient is positive, else SPLIT."""
    patch, = patches
    for k, num in enumerate(patch.corner_numerators()):
        if num <= 0:
            return patch.box.corners()[k], Fraction(num, patch.denominator)
    return "leaf" if patch.min_coefficient > 0 else SPLIT


# --- Dulac / Bendixson wrappers ---------------------------------------------


class Conclusion(Enum):
    NO_PERIODIC_ORBIT_FULLY_CONTAINED = "no_periodic_orbit_fully_contained"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class DulacCertificate:
    certificate: Certificate
    multiplier: Multiplier
    system: VectorField
    conclusion: Conclusion

    def to_json(self) -> dict:
        """The ``result`` of the ``certify`` and ``bendixson`` reports."""
        return {
            "conclusion": self.conclusion.value,
            "multiplier": str(self.multiplier),
            "box": to_json(self.certificate.box),
            "certificate_full": to_json(self.certificate),
        }


def certify_dulac(system: VectorField, b: Multiplier, box: Box2,
                  max_depth: int = DEFAULT_MAX_DEPTH) -> DulacCertificate:
    """Certify Div(B*X) > 0 on the box and conclude on periodic orbits.

    The conclusion covers only orbits fully contained in the open box: a
    periodic solution running along the boundary is not ruled out.
    """
    carrier = b.sign_carrier(system)
    cert = certify_positive(carrier, box, max_depth)
    conclusion = (Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
                  if cert.is_positive else Conclusion.NOT_CERTIFIED)
    return DulacCertificate(certificate=cert, multiplier=b, system=system,
                            conclusion=conclusion)


def bendixson(system: VectorField, box: Box2,
              max_depth: int = DEFAULT_MAX_DEPTH) -> DulacCertificate:
    """Dulac certificate with the constant multiplier B = 1."""
    return certify_dulac(system, BENDIXSON, box, max_depth)
