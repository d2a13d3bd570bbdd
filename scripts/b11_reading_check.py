#!/usr/bin/env python3
"""Agreement sweep deciding the ambiguous b11 term of the closed-form display.

The displayed b11 numerator contains the unreadable factor "b(c^-3d^2)".
Both candidate readings are evaluated against the coefficient-matching
solver on random valid matrices; the reading that agrees everywhere is the
one recorded in the package (see dulac.synthesis.RECORDED_READING).
"""

import argparse
import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dulac.errors import DulacError
from dulac.synthesis import (
    Matrix2,
    Reading,
    RECORDED_READING,
    printed_coefficients,
    quadratic_dulac_linear,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    tallies = {Reading.C_MINUS_3D2: 0, Reading.C2_MINUS_3D2: 0}
    checked = 0
    while checked < args.n:
        m = Matrix2(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(4)))
        try:
            solved = quadratic_dulac_linear(m)
        except DulacError:  # zero trace or a singular ansatz
            continue
        for reading in tallies:
            _, _, b11 = printed_coefficients(m, reading)
            if b11 == solved.b11:
                tallies[reading] += 1
        checked += 1

    print(f"samples: {checked}")
    for reading, hits in tallies.items():
        print(f"  reading b*({reading.value}): {hits}/{checked} agree")
    winners = [r for r, hits in tallies.items() if hits == checked]
    if len(winners) == 1:
        print(f"uniform reading: b*({winners[0].value})")
        print(f"recorded in the package: b*({RECORDED_READING.value})")
        return 0 if winners[0] is RECORDED_READING else 1
    print("no unique uniform reading on this sample")
    return 1


if __name__ == "__main__":
    sys.exit(main())
