#!/usr/bin/env python3
"""End-to-end van der Pol walkthrough.

Certifies the cycle-free strip, exhibits the violation on a box that does
contain the limit cycle, synthesizes the local multiplier at the origin,
detects the cycle numerically, and runs the full analyze pipeline.  Writes
the cycle CSV and the analysis report JSON next to this script (out/).
"""

import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dulac import (
    Box2,
    Point,
    bendixson,
    detect_limit_cycle,
    local_dulac_hyperbolic,
    parse_system,
    run_analyze,
)
from dulac.analyze import exit_code
from dulac.jsonform import to_json

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    system = parse_system((HERE.parent / "systems" / "vanderpol.vf").read_text())
    print("system:")
    print(f"  P = {system.p}")
    print(f"  Q = {system.q}")

    strip = Box2(Fraction(-19, 20), Fraction(19, 20), Fraction(-4), Fraction(4))
    cert = bendixson(system, strip)
    print(f"\nBendixson on {strip}:")
    print(f"  carrier  = {cert.certificate.carrier}")
    print(f"  outcome  = {cert.conclusion.value}")

    big = Box2(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3))
    cert_big = bendixson(system, big)
    witness = cert_big.certificate.outcome.witness
    print(f"\nBendixson on {big}:")
    print(f"  outcome  = {cert_big.conclusion.value}")
    print(f"  witness  = ({witness[0]}, {witness[1]}) with value "
          f"{cert_big.certificate.outcome.value}")

    mult, box, local_cert = local_dulac_hyperbolic(system, Point(0.0, 0.0))
    print(f"\nlocal multiplier at the origin: B = {mult}")
    print(f"  certified punctured box {box} "
          f"({local_cert.outcome.box_count} Bernstein leaves)")

    cycle = detect_limit_cycle(system, (2.0, 0.0), tol=1e-10)
    print(f"\nlimit cycle: period {cycle.period:.9f}, "
          f"amplitude_x {cycle.amplitude_x:.9f}, "
          f"slope {cycle.return_map_slope:.3e} ({cycle.stability.value})")
    with open(OUT / "vanderpol_cycle.csv", "w", encoding="utf-8") as fh:
        cycle.write_csv(fh)
    print(f"  loop written to {OUT / 'vanderpol_cycle.csv'}")

    region = Box2(Fraction(-4), Fraction(4), Fraction(-4), Fraction(4))
    report = run_analyze(system, region)
    with open(OUT / "vanderpol_report.json", "w", encoding="utf-8") as fh:
        json.dump(to_json(report), fh, indent=2)
    print(f"\nanalyze on {region}:")
    print(f"  certified boxes: {len(report.global_boxes_certified)}, "
          f"uncovered tiles: {len(report.uncovered_regions)}, "
          f"cycles: {len(report.limit_cycles)}")
    print(f"  analyze exit code would be {exit_code(report)} "
          f"(1 = cycle detected)")
    print(f"  report written to {OUT / 'vanderpol_report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
