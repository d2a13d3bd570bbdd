"""The Dulac multiplier: B = p, or B = exp(g)*p.

In both forms Div(B*X) factors as a strictly positive function times a
polynomial, the *sign carrier*, which is the object that gets certified.
``Multiplier`` brings its own JSON form, ``{"type": "poly", "p"}`` or
``{"type": "exp_poly", "g", "p"}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly, VectorField, div_product, lie_derivative


@dataclass(frozen=True)
class Multiplier:
    """Dulac multiplier B = p, or B = exp(g) * p when g is given.

    Div(B*X) = exp(g) * (Div(p*X) + p*<grad g, X>), so the sign of the
    divergence is carried by the polynomial factor.  A given g of zero
    still makes the exponential form: it prints as ``exp(0)*p``.
    """

    p: Poly
    g: Poly | None = None

    def sign_carrier(self, system: VectorField) -> Poly:
        carrier = div_product(self.p, system)
        if self.g is None:
            return carrier
        return carrier + self.p * lie_derivative(self.g, system)

    def __str__(self) -> str:
        return str(self.p) if self.g is None else f"exp({self.g})*{self.p}"

    def to_json(self) -> dict:
        if self.g is None:
            return {"type": "poly", "p": str(self.p)}
        return {"type": "exp_poly", "g": str(self.g), "p": str(self.p)}

    @classmethod
    def from_json(cls, d: dict) -> Multiplier:
        from .parse import parse_poly  # parse imports this module

        g = None if d["type"] == "poly" else parse_poly(d["g"])
        return cls(parse_poly(d["p"]), g)


BENDIXSON = Multiplier(Poly.const(1))
