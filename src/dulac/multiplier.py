"""Structured multiplier candidates whose rescaled divergence has a polynomial sign.

A multiplier is either a polynomial p or an exponential form exp(g)*p.  In
both cases Div(B*X) factors as a strictly positive function times a
polynomial, the *sign carrier*, which is the object that gets certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import Poly, VectorField, div_product, lie_derivative


@dataclass(frozen=True)
class PolyMultiplier:
    """Plain polynomial multiplier B = p."""

    kind = "poly"
    p: Poly

    def sign_carrier(self, system: VectorField) -> Poly:
        return div_product(self.p, system)

    def evaluate(self, z) -> float:
        return self.p.evaluate(z).real

    def __str__(self) -> str:
        return str(self.p)


@dataclass(frozen=True)
class ExpPolyMultiplier:
    """Exponential multiplier B = exp(g) * p.

    Div(B*X) = exp(g) * (Div(p*X) + p*<grad g, X>), so the sign of the
    divergence is carried by the polynomial factor.
    """

    kind = "exp_poly"
    g: Poly
    p: Poly

    def sign_carrier(self, system: VectorField) -> Poly:
        return div_product(self.p, system) + self.p * lie_derivative(self.g, system)

    def evaluate(self, z) -> float:
        return math.exp(self.g.evaluate(z).real) * self.p.evaluate(z).real

    def __str__(self) -> str:
        return f"exp({self.g})*{self.p}"


Multiplier = PolyMultiplier | ExpPolyMultiplier

BENDIXSON = PolyMultiplier(Poly.const(1))
