"""Exact bivariate polynomial arithmetic over the Gaussian rationals.

Polynomials in x, y with complex-rational coefficients are the carrier for
every symbolic identity in this package (multipliers, divergences, cofactors,
first integrals).  A ``Poly`` is integer numerators over one positive
denominator in lowest terms, Knuth's content and primitive part (TAOCP 2,
4.6.1): an int numerator per real coefficient, a Gaussian integer per nonreal
one, so real arithmetic builds no ``Fraction``.  All arithmetic here is exact
and runs on those integers, including the one linear solver
(``kernel_basis``); an operator's int or Fraction operand is first a
constant Poly (``_as_poly``), and ``Poly.i()`` is the imaginary unit.  A
power or product whose degree in x or y would pass ``MAX_DEGREE``, the
budget that certify's Bernstein patches share, is a ValueError before any
product (``check_degrees``): ``product``, which ``*`` and the parser's
terms use, checks a product of powers before it forms any power.  Exact
values (``evaluate_exact``, ``constant_term``: Fractions of a real Poly) and
printing read the numerators.  A ``CRat`` is a read-only complex rational
with no arithmetic, the record of ``terms`` (the coefficient map, built on
each read, which no module here reads) and of a Darboux exponent.  Floats
appear only in point evaluation, through the straight-line functions that
``float_sums`` generates from ``(poly, part)`` pairs, one function for the
float sums that one use needs: a field's values and its Jacobian's
(``VectorField.float_function`` and ``float_jacobian``), and a polynomial's
complex value (``Poly.evaluate``, for Darboux's curves).  They raise the
one "beyond float range" ValueError (``float_range_error``) themselves, so
no caller catches an OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property, reduce
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, NamedTuple, Union

_F0 = Fraction(0)
# the largest degree in x or in y that a power may reach or a Bernstein patch
# have: certify's generated kernels hold about 1.5 m^2 lines for axis degree
# m, kept for the process
MAX_DEGREE = 256
_Y = itemgetter(1)  # an exponent's degree in y


def check_degrees(deg_x: int, deg_y: int) -> None:
    """ValueError naming the first of the degrees in x and in y that is
    above ``MAX_DEGREE``."""
    for axis, degree in (("x", deg_x), ("y", deg_y)):
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} in {axis} is above the "
                             f"degree budget {MAX_DEGREE}")


class CRat:
    """Complex number with exact rational real and imaginary parts: a value
    to read (parts, equality and hash between CRats, and ``complex``) with
    no arithmetic; exact arithmetic runs on a Poly's integer numerators."""

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

    def __eq__(self, other) -> bool:
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"CRat({exact_numeral(self.re)})"
        return f"CRat({exact_numeral(self.re)}, {exact_numeral(self.im)})"


Scalar = Union[int, Fraction]


class _Gaussian(NamedTuple):
    """real + imag*i, imag nonzero, with an int's ``real``, ``imag`` and
    ``conjugate``: a nonreal coefficient's numerator.  Its arithmetic gives
    an int where the imaginary part cancels, so real numerators are ints."""

    real: int
    imag: int

    def __add__(self, other):
        return _gaussian(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return _Gaussian(-self.real, -self.imag)

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __floordiv__(self, k: int):  # an exact division by a common factor
        return _Gaussian(self.real // k, self.imag // k)

    def conjugate(self):
        return _Gaussian(self.real, -self.imag)


def _gaussian(re: int, im: int):
    return _Gaussian(re, im) if im else re


def _scalar(c) -> tuple:
    """(numerator, positive denominator) of an int, Fraction or numerator."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    if type(c) is _Gaussian:
        return c, 1
    raise TypeError("a polynomial coefficient must be an int or Fraction, "
                    f"not {type(c).__name__}")


def _coefficient(n, den: int) -> CRat:
    """The CRat of the numerator n over den."""
    return CRat._raw(Fraction(n.real, den),
                     Fraction(n.imag, den) if n.imag else _F0)


def _grlex(exp):
    """Sort key for graded lexicographic order with x > y (larger = later)."""
    return (exp[0] + exp[1], exp[0])


class Point(NamedTuple):
    x: float
    y: float


class Poly:
    """Bivariate polynomial: a sparse map (i, j) -> numerator, an int or a
    Gaussian integer, over one positive ``denominator``, in lowest terms;
    ``terms`` is the same map, in the same order, of CRat coefficients.

    Instances are immutable values: every operation returns a new Poly, zero
    coefficients are never stored, and equal polynomials have equal
    numerators and denominators.  The degree of the zero polynomial is -1.
    """

    __slots__ = ("numerators", "denominator", "is_real", "_float_sums")

    def __init__(self, terms: Mapping[tuple, Scalar] = ()):
        scalars = [(e, _scalar(c)) for e, c in dict(terms).items()]
        if not all(isinstance(e, tuple) and len(e) == 2 and all(
                isinstance(k, int) and k >= 0 for k in e) for e, _ in scalars):
            raise ValueError("a polynomial exponent must be a pair of "
                             "nonnegative integers")
        den = math.lcm(*(d for _, (_, d) in scalars))
        self._reduce({(int(e[0]), int(e[1])): n * (den // d)
                      for e, (n, d) in scalars if n}, den)

    def _reduce(self, num: dict, den: int) -> "Poly":
        """Set num / den, both divided by gcd(den, *num.values())."""
        try:
            g = math.gcd(den, *num.values())
            self.is_real = True
        except TypeError:  # a Gaussian numerator: the gcd of its parts
            g = math.gcd(den, *(math.gcd(n.real, n.imag)
                                for n in num.values()))
            self.is_real = False
        if g != 1:
            num = {e: n // g for e, n in num.items()}
        self.numerators, self.denominator = num, den // g
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, num: dict, den: int) -> "Poly":
        return object.__new__(cls)._reduce(num, den)

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({}, 1)

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        n, d = _scalar(c)
        return cls._make({(0, 0): n} if n else {}, d)

    @classmethod
    def x(cls) -> "Poly":
        return cls._make({(1, 0): 1}, 1)

    @classmethod
    def y(cls) -> "Poly":
        return cls._make({(0, 1): 1}, 1)

    @classmethod
    def i(cls) -> "Poly":
        return cls._make({(0, 0): _Gaussian(0, 1)}, 1)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """``{exponent: CRat}`` in term order, built on each read."""
        return {e: _coefficient(n, self.denominator)
                for e, n in self.numerators.items()}

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.numerators)

    @property
    def degree(self) -> int:
        return max((i + j for i, j in self.numerators), default=-1)

    @property
    def deg_x(self) -> int:
        return max(self.numerators, default=(-1, -1))[0]

    @property
    def deg_y(self) -> int:
        return max(map(_Y, self.numerators), default=-1)

    @property
    def constant_term(self) -> Fraction:
        """A real polynomial's constant coefficient, its value at 0."""
        return self.evaluate_exact(0, 0)

    def conjugate(self) -> "Poly":
        return Poly._make({e: n.conjugate() for e, n in self.numerators.items()},
                          self.denominator)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        if self.is_constant and self.is_real:  # as the Fraction it equals
            return hash(self.constant_term)
        return hash((self.denominator, frozenset(self.numerators.items())))

    def __reduce__(self):
        # the integers alone: the cached float function is generated code,
        # which cannot be pickled, and is rebuilt on demand
        return Poly._make, (self.numerators, self.denominator)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.denominator, other.denominator)
        return Poly._make(
            _accumulate(_scaled(self.numerators, den // self.denominator),
                        _scaled(other.numerators, den // other.denominator)),
            den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(_scaled(self.numerators, -1), self.denominator)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        """The product; a degree above ``MAX_DEGREE`` in x or in y is a
        ValueError before it is expanded."""
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return product([(self, 1), (other, 1)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented or not other.is_constant:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero constant")
        return Poly._make(*_quotient(self.numerators, self.denominator, other))

    def __pow__(self, n: int) -> "Poly":
        """A nonnegative integer power; a degree above ``MAX_DEGREE`` in x or
        in y is a ValueError before any product."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        check_degrees(self.deg_x * n, self.deg_y * n)
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
        return Poly._make(_derivative(self.numerators, axis), self.denominator)

    def evaluate(self, z) -> complex:
        """Float value at a point: the real and imaginary ``float_sums``,
        generated on the first call and cached (a Poly never changes).
        Exactly real for real coefficients.  Raises ValueError, naming the
        polynomial and z, when a coefficient or a power is beyond float range.
        """
        try:
            sums = self._float_sums
        except AttributeError:
            sums = self._float_sums = float_sums([(self, "re"), (self, "im")])
        re, im = sums((float(z[0]), float(z[1])))
        return complex(re, im)

    def evaluate_exact(self, x: Fraction, y: Fraction) -> Fraction:
        """Exact value of a real polynomial at a rational point: one integer
        sum over the denominator times those of x^deg_x, y^deg_y.  Raises
        ValueError on a nonreal polynomial."""
        if not self.is_real:
            raise ValueError("a rational value needs real coefficients")
        x, y = Fraction(x), Fraction(y)
        m, n = max(self.deg_x, 0), max(self.deg_y, 0)
        xs = [x.numerator ** k * x.denominator ** (m - k) for k in range(m + 1)]
        ys = [y.numerator ** k * y.denominator ** (n - k) for k in range(n + 1)]
        total = sum(c * xs[i] * ys[j] for (i, j), c in self.numerators.items())
        return Fraction(total, self.denominator * x.denominator ** m
                        * y.denominator ** n)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def _as_poly(v):
    """``v`` as a Poly: the operators' one conversion of an int or Fraction
    operand, which then runs through the Poly kernels."""
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return NotImplemented


# -- numerator kernels -------------------------------------------------------
# Each kernel inserts terms in loop order and drops a sum that cancels to zero
# at once.  ``float_sums`` adds in term order, so this order fixes the float
# values bit for bit; the tests replay it on one complex rational per term.


def _accumulate(out: dict, other: dict) -> dict:
    """out + other, in place: the numerators over one denominator."""
    for exp, c in other.items():
        s = out.get(exp)
        s = c if s is None else s + c
        if s:
            out[exp] = s
        else:
            del out[exp]
    return out


def _product(first: dict, second: dict) -> dict:
    """first * second: the numerators over the product of denominators."""
    out: dict = {}
    pairs = second.items()
    for (i1, j1), c1 in first.items():
        for (i2, j2), c2 in pairs:
            exp = (i1 + i2, j1 + j2)
            p = c1 * c2
            s = out.get(exp)
            s = p if s is None else s + p
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def _scaled(num: dict, k: int) -> dict:
    return {e: n * k for e, n in num.items()}


def signed_sum(terms) -> Poly:
    """The sum of ``(p, sign)`` pairs, sign 1 or -1, over one lcm denominator in
    ``_accumulate``'s order, reduced once: the pairwise sum, term order too."""
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    den = math.lcm(*(p.denominator for p, _ in terms))
    return Poly._make(reduce(_accumulate, (
        _scaled(p.numerators, sign * (den // p.denominator))
        for p, sign in terms), {}), den)


def product(factors) -> Poly:
    """The product of ``(p, k)`` pairs, each ``p ** k`` (after the first, ``k``
    may be -1 for a nonzero constant ``p``, which divides), formed from the
    left over one denominator and reduced once: the value and term order of
    the pairwise products and quotients.  A factor 0 makes it 0 at once;
    otherwise a degree in x or y above ``MAX_DEGREE`` is a ValueError before
    any power or product is formed."""
    if len(factors) == 1:
        p, k = factors[0]
        return p if k == 1 else p ** k
    dx = dy = 0
    for p, k in factors:
        if k > 0:
            num = p.numerators
            if not num:
                return Poly.zero()
            dx += max(num)[0] * k  # the largest exponent has the largest i
            dy += max(map(_Y, num)) * k
    if dx > MAX_DEGREE or dy > MAX_DEGREE:
        check_degrees(dx, dy)
    num = None
    for p, k in factors:
        if k < 0:
            num, den = _quotient(num, den, p)
            continue
        if k != 1:
            p = p ** k
        if num is None:
            num, den = p.numerators, p.denominator
        else:
            num, den = _product(num, p.numerators), den * p.denominator
    return Poly._make(num, den)


def _quotient(num: dict, den: int, divisor: "Poly") -> tuple:
    """num / den divided by a nonzero constant c / e: num * e * conj(c) over
    den * |c|^2."""
    c = divisor.numerators[(0, 0)]
    return (_scaled(num, c.conjugate() * divisor.denominator),
            den * (c.real ** 2 + c.imag ** 2))


def _derivative(num: dict, axis: str) -> dict:
    if axis == "x":
        return {(i - 1, j): n * i for (i, j), n in num.items() if i}
    return {(i, j - 1): n * j for (i, j), n in num.items() if j}


# -- float evaluation --------------------------------------------------------


# Terms per statement of a generated float function: one expression of a few
# thousand terms exceeds the compiler's recursion limit.
_TERMS_PER_LINE = 100


def _float_term(i: int, j: int, c: float) -> str:
    factors = [repr(c)]
    for var, k in (("x", i), ("y", j)):
        if k == 1:
            factors.append(var)
        elif k:
            factors.append(f"{var}**{k}")
    return " * ".join(factors)


def generate(lines, name: str, filename: str, **names):
    """The function ``name`` that the source ``lines`` define, compiled as
    ``filename`` in a namespace of the globals ``names`` and empty
    ``__builtins__``: the one ``exec`` of the package's generated code."""
    namespace = {"__builtins__": {}, **names}
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace[name]


def float_sums(sums):
    """Generate ``f(z)``, the list of the float values at ``z = (x, y)`` of
    each ``(poly, part)`` of ``sums``, in order: the part, ``"re"`` or
    ``"im"``, of the polynomial ``poly``.

    Each value is the float sum, from ``0.0`` and left to right in term
    order, of ``c * x**i * y**j`` with ``c`` the float of the coefficient's
    part: its numerator's ``real`` or ``imag`` over the denominator, an int
    division that rounds as ``float`` of the coefficient's Fraction part
    does.  An ``"im"`` sum keeps only the terms whose float part is nonzero.
    Only exact rewrites are made (``x**0`` dropped, ``x**1`` written ``x``),
    so the values are bit for bit those of the term-by-term sum.  A sum
    raises ``float_range_error`` for its own polynomial where a power
    overflows, and on every call when a coefficient's part is beyond float
    range; no caller catches an OverflowError.  The source holds only float
    reprs, x, y and integer exponents.
    """
    names = {"OverflowError": OverflowError,
             "float_range_error": float_range_error}
    lines = ["def f(z):", "    x, y = z"]
    for k, (poly, part) in enumerate(sums):
        names[f"t{k}"] = poly
        raise_line = f"raise float_range_error(t{k}, x, y)"
        attr, den = ("real" if part == "re" else "imag"), poly.denominator
        try:
            table = [(i, j, getattr(n, attr) / den)
                     for (i, j), n in poly.numerators.items()]
        except OverflowError:
            lines.append(f"    {raise_line}")
            continue
        if part == "im":
            table = [t for t in table if t[2]]
        terms_text = [_float_term(*t) for t in table] or ["0.0"]
        chunks = [" + ".join(terms_text[n:n + _TERMS_PER_LINE])
                  for n in range(0, len(terms_text), _TERMS_PER_LINE)]
        lines.append("    try:")
        lines.append(f"        s{k} = 0.0 + {chunks[0]}")
        lines += [f"        s{k} = s{k} + {chunk}" for chunk in chunks[1:]]
        lines.append("    except OverflowError:")
        lines.append(f"        {raise_line} from None")
    lines.append(f"    return [{', '.join(f's{k}' for k in range(len(sums)))}]")
    return generate(lines, "f", "<poly.float_sums>", **names)


def float_range_error(poly: Poly, x: float, y: float) -> ValueError:
    """The one "beyond float range" error: it names ``poly`` and the point
    (x, y), where its value is beyond float range."""
    text = format_poly(poly, short_numeral)
    if len(text) > 60:
        text = text[:57] + "..."
    return ValueError(f"{text} at ({x:.6g}, {y:.6g}) is beyond float range")


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


def exact_numeral(q: Fraction) -> str:
    """``str(q)`` at any length: ``str`` refuses an int of over 4,300
    digits, and the exact ``Decimal`` of one has no such limit."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


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


def _term_str(n, den: int, mono: str, numeral):
    """Return (sign, body) of the term with coefficient n / den, its parts
    n's ``real`` and ``imag`` over den, with sign in ``'+'``/``'-'``."""
    re, im = n.real, n.imag
    if not im:
        sign = "-" if re < 0 else "+"
        if mono and abs(re) == den:
            return sign, mono
        text = numeral(Fraction(abs(re), den))
        return sign, f"{text}*{mono}" if mono else text
    if not re:
        sign = "-" if im < 0 else "+"
        body = _imag_str(Fraction(abs(im), den), numeral)
        return sign, body if not mono else f"{body}*{mono}"
    # mixed complex coefficient: keep all signs inside parentheses
    im_sign = "-" if im < 0 else "+"
    inner = (f"{numeral(Fraction(re, den))} {im_sign} "
             f"{_imag_str(Fraction(abs(im), den), numeral)}")
    body = f"({inner})"
    return "+", body if not mono else f"{body}*{mono}"


def format_poly(p: Poly, numeral=exact_numeral) -> str:
    """Canonical text form: graded-lex descending terms, explicit * and ^.

    ``numeral`` writes each rational coefficient, by default exactly at any
    length (``short_numeral`` cuts long integers)."""
    if p.is_zero:
        return "0"
    pieces = []
    for k, exp in enumerate(sorted(p.numerators, key=_grlex, reverse=True)):
        sign, body = _term_str(p.numerators[exp], p.denominator,
                               _monomial_str(*exp), numeral)
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

    def __reduce__(self):
        # the fields alone: the cached functions are rebuilt on demand
        return VectorField, (self.p, self.q, self.params, self.source_text)

    @cached_property
    def jacobian(self) -> tuple:
        """Symbolic Jacobian entries (Px, Py, Qx, Qy), derived once."""
        return tuple(f.derive(v) for f in (self.p, self.q) for v in "xy")

    @cached_property
    def float_function(self):
        """``f(z) -> [P, Q]``, the ``float_sums`` of P's and Q's real parts."""
        return float_sums([(self.p, "re"), (self.q, "re")])

    @cached_property
    def float_jacobian(self):
        """``f(z) -> [Px, Py, Qx, Qy]``, the real parts of ``jacobian``."""
        return float_sums([(f, "re") for f in self.jacobian])

    def __call__(self, z) -> tuple:
        """(P, Q) at z as floats: ``float_function`` at z converted to
        floats as ``Poly.evaluate`` converts it (P's error first)."""
        return tuple(self.float_function((float(z[0]), float(z[1]))))

    def __str__(self) -> str:
        return f"P = {self.p}\nQ = {self.q}"


# -- core operations ---------------------------------------------------------


def divergence(system: VectorField) -> Poly:
    """Trace of the Jacobian: dP/dx + dQ/dy, exactly."""
    return system.p.derive("x") + system.q.derive("y")


def lie_derivative(f: Poly, system: VectorField) -> Poly:
    """Directional derivative of f along the field: P*f_x + Q*f_y."""
    return system.p * f.derive("x") + system.q * f.derive("y")


def div_product(b: Poly, system: VectorField) -> Poly:
    """Divergence of the rescaled field B*X via the Leibniz identity.

    Returns B*Div(X) + <grad B, X> as an exact polynomial: the terms of
    ``b * divergence(system) + lie_derivative(b, system)``, in its order,
    summed on numerators over one denominator and reduced once.
    """
    p, q, bn = system.p.numerators, system.q.numerators, b.numerators
    pd, qd = system.p.denominator, system.q.denominator
    div = _accumulate(_scaled(_derivative(p, "x"), qd),
                      _scaled(_derivative(q, "y"), pd))
    lie = _accumulate(_product(_scaled(p, qd), _derivative(bn, "x")),
                      _product(_scaled(q, pd), _derivative(bn, "y")))
    return Poly._make(_accumulate(_product(bn, div), lie),
                      b.denominator * pd * qd)


def poly_divide(n: Poly, d: Poly):
    """Divide ``n`` by ``d`` under graded-lex order with x > y.

    Returns (quotient, remainder) with n == quotient*d + remainder exactly;
    the remainder is zero iff d divides n.  The work, quotient and
    remainder are integer numerators over one growing ``scale``.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    d_exp = max(d.numerators, key=_grlex)
    lead = d.numerators[d_exp]
    # c / lead = c * inv / norm, with norm a positive integer
    inv, norm = lead.conjugate(), lead.real ** 2 + lead.imag ** 2
    minus_d = {e: -v for e, v in d.numerators.items()}
    work = dict(n.numerators)
    quotient: dict = {}
    remainder: dict = {}
    scale = n.denominator
    while work:
        exp = max(work, key=_grlex)
        c = work[exp]
        if exp[0] >= d_exp[0] and exp[1] >= d_exp[1]:
            q_exp = (exp[0] - d_exp[0], exp[1] - d_exp[1])
            t = c * inv
            g = math.gcd(norm, t.real, t.imag)
            # the quotient term is b * d.denominator / (scale * a)
            a, b = norm // g, t // g
            if a != 1:
                work, quotient, remainder = (
                    _scaled(m, a) for m in (work, quotient, remainder))
                scale *= a
            quotient[q_exp] = b * d.denominator
            for (di, dj), dc in minus_d.items():
                t = (q_exp[0] + di, q_exp[1] + dj)
                v = work.get(t, 0) + b * dc
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
        else:
            remainder[exp] = c
            del work[exp]
    return Poly._make(quotient, scale), Poly._make(remainder, scale)


def kernel_basis(rows, n_cols):
    """Exact kernel basis ``(vectors, d)``: one vector per free column of
    the reduced row echelon form (RREF), ``v[i] / d`` the RREF's, with d in
    that column.  Rows are cleared to integers (Gaussian for nonreal rows)
    and eliminated fraction-free, Gauss-Jordan with Bareiss's exact division
    by the previous pivot (Math. Comp. 22, 1968): each pivot ends as the
    last, D, and d > 0 is |D|^2 (1 with no pivot).  Entries are ints,
    Fractions or Poly numerators; the vectors' are (Gaussian) ints."""
    work = []
    for row in rows:
        scalars = [_scalar(v) for v in row]
        den = math.lcm(*(d for _, d in scalars))
        work.append([n * (den // d) for n, d in scalars])
    pivot_cols = []
    r = 0
    conj, norm = 1, 1  # x / pivot == x * conj // norm, for the last pivot
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p, pivot_row = work[r][c], work[r]
        for i, row in enumerate(work):
            if i != r:
                f = -row[c]
                work[i] = [(p * v + f * w) * conj // norm
                           for v, w in zip(row, pivot_row)]
        conj, norm = p.conjugate(), p.real ** 2 + p.imag ** 2
        pivot_cols.append(c)
        r += 1
        if r == len(work):
            break
    basis = []
    for fc in [c for c in range(n_cols) if c not in pivot_cols]:
        v = [0] * n_cols
        v[fc] = norm
        for pr, pc in enumerate(pivot_cols):
            v[pc] = -work[pr][fc] * conj
        basis.append(v)
    return basis, norm
