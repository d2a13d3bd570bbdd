"""Exact bivariate polynomial arithmetic over the Gaussian rationals.

Polynomials in x, y with complex-rational coefficients are the carrier for
every symbolic identity in this package (multipliers, divergences, cofactors,
first integrals).  All arithmetic here is exact, including the one linear
solver (``kernel_basis``); floats appear only in point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Union

Rat = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "CRat":
        z = object.__new__(cls)
        z.re = re
        z.im = im
        return z

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "CRat":
        return CRat._raw(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self) -> "CRat":
        return CRat._raw(-self.re, -self.im)

    def __add__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        return CRat._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        return CRat._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return CRat._raw(self.re * other.re, _F0)
        return CRat._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero coefficient")
        if not other.im:
            return CRat._raw(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return CRat._raw(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "CRat":
        other = _crat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"


CRAT_ZERO = CRat._raw(_F0, _F0)
CRAT_ONE = CRat._raw(_F1, _F0)
CRAT_I = CRat._raw(_F0, _F1)

Scalar = Union[int, Fraction, CRat]


def _crat(v):
    if isinstance(v, CRat):
        return v
    if isinstance(v, (int, Fraction)):
        return CRat._raw(Fraction(v), _F0)
    return NotImplemented


def _grlex(exp):
    """Sort key for graded lexicographic order with x > y (larger = later)."""
    return (exp[0] + exp[1], exp[0])


class Point(NamedTuple):
    x: float
    y: float


class Poly:
    """Bivariate polynomial stored as a sparse map (i, j) -> CRat coefficient.

    Instances are immutable values: every operation returns a new Poly, zero
    coefficients are never stored, and equality is equality of term maps.
    The degree of the zero polynomial is -1 by convention.
    """

    __slots__ = ("terms", "_float_terms")

    def __init__(self, terms: Mapping[tuple, Scalar] = ()):
        clean = {}
        for exp, c in dict(terms).items():
            c = _crat(c)
            if c:
                clean[(int(exp[0]), int(exp[1]))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        c = _crat(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def x(cls) -> "Poly":
        return cls._raw({(1, 0): CRAT_ONE})

    @classmethod
    def y(cls) -> "Poly":
        return cls._raw({(0, 1): CRAT_ONE})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.terms.values())

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    @property
    def deg_x(self) -> int:
        if not self.terms:
            return -1
        return max(i for i, _ in self.terms)

    @property
    def deg_y(self) -> int:
        if not self.terms:
            return -1
        return max(j for _, j in self.terms)

    @property
    def constant_term(self) -> CRat:
        return self.terms.get((0, 0), CRAT_ZERO)

    def conjugate(self) -> "Poly":
        return Poly._raw({e: c.conjugate() for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, CRat)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[tuple]:
        """Iterate (exponent, coefficient) in descending graded-lex order."""
        for exp in sorted(self.terms, key=_grlex, reverse=True):
            yield exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Poly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, CRat)):
            c = _crat(other)
            if not c:
                return Poly._raw({})
            return Poly._raw({e: v * c for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                exp = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(exp)
                s = p if s is None else s + p
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return Poly._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, CRat)):
            c = _crat(other)
            if not c:
                raise ZeroDivisionError("division by zero constant")
            return Poly._raw({e: v / c for e, v in self.terms.items()})
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def derive(self, axis: str) -> "Poly":
        """Exact partial derivative along ``"x"`` or ``"y"``."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        out = {}
        for (i, j), c in self.terms.items():
            if axis == "x":
                if i > 0:
                    out[(i - 1, j)] = c * i
            else:
                if j > 0:
                    out[(i, j - 1)] = c * j
        return Poly._raw(out)

    def evaluate(self, z) -> complex:
        """Float sum of ``c * x**i * y**j`` in term order; exactly real for
        real coefficients.  The float coefficients are converted on the first
        call and cached, which is sound because a Poly never changes.  Raises
        ValueError, naming the polynomial and z, when a coefficient or a power
        of x or y is beyond float range.
        """
        x, y = float(z[0]), float(z[1])
        try:
            try:
                table = self._float_terms
            except AttributeError:
                table = self._float_terms = tuple(
                    (i, j, float(c.re), float(c.im))
                    for (i, j), c in self.terms.items())
            re = im = 0.0
            for i, j, c_re, c_im in table:
                re += c_re * x ** i * y ** j
                if c_im:
                    im += c_im * x ** i * y ** j
        except OverflowError:
            text = format_poly(self, short_numeral)
            if len(text) > 60:
                text = text[:57] + "..."
            raise ValueError(f"{text} at ({x:.6g}, {y:.6g}) is beyond float "
                             f"range") from None
        return complex(re, im)

    def evaluate_exact(self, x: Fraction, y: Fraction) -> CRat:
        """Evaluate with exact rational arithmetic at a rational point."""
        x = Fraction(x)
        y = Fraction(y)
        xp = _frac_powers(x, self.deg_x)
        yp = _frac_powers(y, self.deg_y)
        total = CRAT_ZERO
        for (i, j), c in self.terms.items():
            total = total + c * (xp[i] * yp[j])
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction, CRat)):
        return Poly.const(v)
    return NotImplemented


def _frac_powers(v: Fraction, n: int):
    powers = [_F1]
    for _ in range(max(n, 0)):
        powers.append(powers[-1] * v)
    return powers


# -- canonical printing ------------------------------------------------------


def _monomial_str(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append(f"y^{j}")
    return "*".join(parts)


def short_numeral(q: Fraction) -> str:
    """Text of q with each integer over 6 digits cut to its leading 6 digits
    and digit count, e.g. ``100000...(401 digits)``.  Counts digits without
    ``str``, which refuses integers of over 4300 digits."""

    def short(n: int) -> str:
        digits = int(n.bit_length() * math.log10(2)) + 1  # exact or one over
        if digits > 1 and n < 10 ** (digits - 1):
            digits -= 1
        if digits <= 6:
            return str(n)
        return f"{n // 10 ** (digits - 6)}...({digits} digits)"

    sign = "-" if q < 0 else ""
    num = short(abs(q.numerator))
    return sign + (num if q.denominator == 1
                   else f"{num}/{short(q.denominator)}")


def _imag_str(mag: Fraction, numeral) -> str:
    return "i" if mag == 1 else f"{numeral(mag)}*i"


def _term_str(c: CRat, mono: str, numeral):
    """Return (sign, body) with sign in ``'+'``/``'-'``."""
    if c.is_real:
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        if not mono:
            return sign, numeral(mag)
        if mag == 1:
            return sign, mono
        return sign, f"{numeral(mag)}*{mono}"
    if not c.re:
        sign = "-" if c.im < 0 else "+"
        body = _imag_str(abs(c.im), numeral)
        return sign, body if not mono else f"{body}*{mono}"
    # mixed complex coefficient: keep all signs inside parentheses
    im_sign = "-" if c.im < 0 else "+"
    inner = f"{numeral(c.re)} {im_sign} {_imag_str(abs(c.im), numeral)}"
    body = f"({inner})"
    return "+", body if not mono else f"{body}*{mono}"


def format_poly(p: Poly, numeral=str) -> str:
    """Canonical text form: graded-lex descending terms, explicit * and ^.

    ``numeral`` writes each rational coefficient (``short_numeral`` cuts
    long integers)."""
    if p.is_zero:
        return "0"
    pieces = []
    for k, (exp, c) in enumerate(p):
        sign, body = _term_str(c, _monomial_str(*exp), numeral)
        if k == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# -- vector fields -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VectorField:
    """Planar polynomial vector field (P, Q) with exact real coefficients."""

    p: Poly
    q: Poly
    params: Mapping[str, Fraction] = field(default_factory=dict)
    source_text: str = ""

    def __post_init__(self):
        if not (self.p.is_real and self.q.is_real):
            raise ValueError("vector field components must have real coefficients")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    @property
    def degree(self) -> int:
        return max(self.p.degree, self.q.degree)

    def jacobian(self):
        """Symbolic Jacobian entries (Px, Py, Qx, Qy)."""
        return (
            self.p.derive("x"),
            self.p.derive("y"),
            self.q.derive("x"),
            self.q.derive("y"),
        )

    def __call__(self, z) -> tuple:
        return (self.p.evaluate(z).real, self.q.evaluate(z).real)

    def __str__(self) -> str:
        return f"P = {self.p}\nQ = {self.q}"


# -- core operations ---------------------------------------------------------


def derive(p: Poly, axis: str) -> Poly:
    """Exact partial derivative of ``p`` along ``axis`` ('x' or 'y')."""
    return p.derive(axis)


def divergence(system: VectorField) -> Poly:
    """Trace of the Jacobian: dP/dx + dQ/dy, exactly."""
    return system.p.derive("x") + system.q.derive("y")


def lie_derivative(f: Poly, system: VectorField) -> Poly:
    """Directional derivative of f along the field: P*f_x + Q*f_y."""
    return system.p * f.derive("x") + system.q * f.derive("y")


def div_product(b: Poly, system: VectorField) -> Poly:
    """Divergence of the rescaled field B*X via the Leibniz identity.

    Returns B*Div(X) + <grad B, X> as an exact polynomial.
    """
    return b * divergence(system) + lie_derivative(b, system)


def evaluate(p: Poly, z) -> complex:
    """Float evaluation of ``p`` at a point (x, y)."""
    return p.evaluate(z)


def poly_divide(n: Poly, d: Poly):
    """Divide ``n`` by ``d`` under graded-lex order with x > y.

    Returns (quotient, remainder) with n == quotient*d + remainder exactly;
    the remainder is zero iff d divides n.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    d_exp = max(d.terms, key=_grlex)
    d_coeff = d.terms[d_exp]
    work = dict(n.terms)
    quotient: dict = {}
    remainder: dict = {}
    while work:
        exp = max(work, key=_grlex)
        c = work[exp]
        if exp[0] >= d_exp[0] and exp[1] >= d_exp[1]:
            q_exp = (exp[0] - d_exp[0], exp[1] - d_exp[1])
            q_c = c / d_coeff
            quotient[q_exp] = quotient.get(q_exp, CRAT_ZERO) + q_c
            for (di, dj), dc in d.terms.items():
                t = (q_exp[0] + di, q_exp[1] + dj)
                v = work.get(t, CRAT_ZERO) - q_c * dc
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
        else:
            remainder[exp] = c
            del work[exp]
    return Poly(quotient), Poly(remainder)


def kernel_basis(rows, n_cols):
    """Exact kernel basis of a rational matrix (RREF back-solve).

    One vector per free column, with a 1 in that column.  Rows of only
    Fraction or int entries give Fraction vectors; rows with a CRat entry,
    or no rows at all, give CRat vectors.
    """
    real = bool(rows) and all(type(v) is not CRat for r in rows for v in r)
    zero, one = (_F0, _F1) if real else (CRAT_ZERO, CRAT_ONE)
    work = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = one / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(work):
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [zero] * n_cols
        v[fc] = one
        for pr, pc in enumerate(pivot_cols):
            v[pc] = -work[pr][fc]
        basis.append(v)
    return basis
