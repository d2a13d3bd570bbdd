#!/usr/bin/env python3
"""Exact flow-box Dulac certificate from a time function.

Near a regular point a Dulac function exists.  A polynomial g with
grad g . X > 0 (a time function) gives one: B = exp(lambda*g) has the sign
carrier Div X + lambda * grad g . X.  For the rotation x' = -y, y' = x,
g = y gives the carrier x, certified positive on a box that holds the
annular sector of radii 1-2 and angles 0-1.5.  On [-2,2]^2, where every
orbit is periodic, the same multiplier meets an exact violation witness.
"""

import math
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dulac import Box2, certify_dulac, parse_multiplier, parse_system


def report(system, text: str, box: Box2) -> None:
    result = certify_dulac(system, parse_multiplier(text), box)
    cert = result.certificate
    print(f"\nB = {text} on {box}:")
    print(f"  carrier  = {cert.carrier}")
    print(f"  outcome  = {result.conclusion.value} (depth {cert.depth})")
    if not cert.is_positive:
        witness = cert.outcome.witness
        print(f"  witness  = ({witness[0]}, {witness[1]}) with value "
              f"{cert.outcome.value}")


def main() -> int:
    system = parse_system("P = -y\nQ = x")
    print("system:")
    print(f"  P = {system.p}")
    print(f"  Q = {system.q}")

    sector = Box2(Fraction(1, 16), Fraction(2), Fraction(0), Fraction(2))
    # the sector's smallest x is cos(1.5) at radius 1, its largest y
    # 2*sin(1.5) at radius 2
    print(f"\nsector: radii 1-2, angles 0-1.5, x >= {math.cos(1.5):.4f}, "
          f"y <= {2 * math.sin(1.5):.4f}: inside {sector}")
    for text in ("exp(y)", "exp(4*y)"):
        report(system, text, sector)

    report(system, "exp(y)", Box2(Fraction(-2), Fraction(2),
                                  Fraction(-2), Fraction(2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
