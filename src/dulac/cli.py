"""Command-line interface.

Each subcommand handler takes the parsed arguments and the loaded system
and returns a ``Record``: its result, text lines and, where it has them, a
certificate, notes, CSV text and exit code.  ``main`` loads the system once,
and ``_emit`` alone wraps the record in the report with the stable keys
{"system", "command", "result", "certificate", "notes"}, where ``command``
is the subcommand's name, and writes it as text, JSON or CSV; only the
parsers of ``simulate`` and ``limit-cycle``, whose records carry CSV text,
offer ``--format csv``.  Records
become JSON through ``jsonform.to_json`` alone; the envelope's
``certificate`` is the outcome, exact carrier polynomial, witness (a
rational pair, for violations) and depth of the record's certificate, so
it can be re-checked independently.  The
``analyze`` exit code is 0 when the region is fully certified, 1 when a
cycle was detected, 2 when inconclusive coverage remains, and 3 on input
errors (3 is shared by all subcommands for bad input, usage errors
included).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from dataclasses import dataclass, field, replace

from .analyze import exit_code, local_certificates, run_analyze
from .certify import (
    Box2,
    Certificate,
    DEFAULT_MAX_DEPTH,
    OPEN_BOX_NOTE,
    Violation,
    certify_dulac,
)
from .darboux import (
    check_integrating_factor,
    check_inverse_integrating_factor,
    cofactor_of,
    darboux_first_integral,
    exponential_factor_cofactor,
    verify_first_integral,
)
from .errors import (
    DegenerateCurveWarning,
    DulacError,
    NoNontrivialRelationError,
    NotInvariantError,
    ParseError,
)
from .flow import (
    INTEGRATE_TOL,
    detect_limit_cycle,
    find_equilibria,
    integrate,
)
from .jsonform import to_json
from .parse import parse_list, parse_multiplier, parse_poly, parse_system
from .poly import VectorField
from .synthesis import (
    Matrix2,
    local_dulac_hyperbolic,
    printed_coefficients,
    quadratic_dulac_linear,
    RECORDED_READING,
)


def _load_system(args) -> VectorField:
    with open(args.system, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def parse_region(text: str) -> Box2:
    """Parse "xmin:xmax,ymin:ymax" with rational or decimal endpoints."""
    shape = 'region must look like "x0:x1,y0:y1"'
    (x0, x1), (y0, y1) = parse_list(text, [(",", 2, shape), (":", 2, shape)])
    try:
        return Box2(x0, x1, y0, y1)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_point(text: str):
    x, y = parse_list(text, [(",", 2, 'point must look like "x,y"')])
    try:
        return float(x), float(y)
    except OverflowError:
        raise ValueError(f"point {text!r} is beyond float range") from None


def _curves(args) -> list:
    return parse_list(args.curves, [(";", None, None)], variables=True)


# the keys of a certificate's flat form that the envelope's "certificate" keeps
_CERTIFICATE_SUMMARY = ("outcome", "carrier", "witness", "depth")


@dataclass
class Record:
    """What a subcommand reports; ``_emit`` wraps it in the envelope."""

    result: dict
    lines: list
    certificate: Certificate | None = None
    notes: list = field(default_factory=list)
    csv: str | None = None
    code: int = 0
    system: str | None = None


def _emit(args, system: VectorField | None, record: Record) -> None:
    if args.format == "json":
        summary = None
        if record.certificate is not None:
            full = to_json(record.certificate)
            summary = {key: full[key] for key in _CERTIFICATE_SUMMARY}
        report = {
            "system": record.system if system is None else system.source_text,
            "command": args.command,
            "result": record.result,
            "certificate": summary,
            "notes": record.notes,
        }
        payload = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        payload = record.csv
    else:
        payload = "\n".join(record.lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# --- subcommand handlers -----------------------------------------------------


def _cmd_parse(args, system) -> Record:
    result = {
        "P": str(system.p),
        "Q": str(system.q),
        "degree": system.degree,
        "params": {k: str(v) for k, v in system.params.items()},
    }
    return Record(result, [f"P = {system.p}", f"Q = {system.q}",
                           f"degree = {system.degree}"])


def _cmd_equilibria(args, system) -> Record:
    region = parse_region(args.region)
    reports = find_equilibria(system, region)
    lines = [f"{len(reports)} equilibria in {region}"]
    for e in reports:
        lines.append(
            f"  ({e.location.x:.9g}, {e.location.y:.9g})  "
            f"{e.classification.value}  hyperbolic={e.hyperbolic}  "
            f"eigenvalues={e.eigenvalues[0]:.6g}, {e.eigenvalues[1]:.6g}")
    return Record({"equilibria": to_json(reports)}, lines)


def _cmd_dulac_linear(args, system) -> Record:
    m = Matrix2.parse(args.matrix)
    quad = quadratic_dulac_linear(m)
    p20, p02, p11 = printed_coefficients(m)
    x_field = m.field()
    carrier = x_field.p * x_field.p + x_field.q * x_field.q
    result = {
        "matrix": str(m),
        "b20": str(quad.b20),
        "b11": str(quad.b11),
        "b02": str(quad.b02),
        "multiplier": str(quad.to_poly()),
        "carrier": str(carrier),
        "closed_form": {"b20": str(p20), "b02": str(p02), "b11": str(p11),
                        "reading": RECORDED_READING.value},
    }
    lines = [
        f"B = {quad.to_poly()}",
        f"Div(B*X) = |X|^2 = {carrier}",
        f"closed-form cross-check: b20={p20} b02={p02} "
        f"b11={p11} (reading: {RECORDED_READING.value})",
    ]
    return Record(result, lines, system=str(m))


def _cmd_certify(args, system) -> Record:
    """``certify``, and ``bendixson`` with its fixed multiplier "1"."""
    region = parse_region(args.region)
    multiplier = parse_multiplier(args.multiplier)
    outcome = certify_dulac(system, multiplier, region, args.depth)
    cert, result = outcome.certificate, to_json(outcome)
    lines = [f"{args.command}: {outcome.conclusion.value}",
             f"  carrier = {cert.carrier}",
             f"  outcome = {result['certificate_full']['outcome']} "
             f"(depth {cert.depth})"]
    if isinstance(cert.outcome, Violation):  # the witness may exceed floats
        lines.append(f"  witness = ({cert.outcome.witness[0]}, "
                     f"{cert.outcome.witness[1]}) with value "
                     f"{cert.outcome.value} <= 0")
    return Record(result, lines, certificate=cert, notes=[OPEN_BOX_NOTE])


def _cmd_local_dulac(args, system) -> Record:
    if args.point is not None:
        pt = _parse_point(args.point)
        try:
            multiplier, _, cert = local_dulac_hyperbolic(system, pt)
        except DulacError as exc:
            return Record({"local_certificates": []},
                          [f"({pt[0]:.6g}, {pt[1]:.6g}): failed: {exc}"],
                          notes=[f"({pt[0]:.6g}, {pt[1]:.6g}): {exc}"])
        found, notes = [(pt, multiplier, cert)], []
    else:
        region = parse_region(args.region)
        _, certs, notes = local_certificates(system, region)
        found = [(c.equilibrium.location, c.multiplier, c.certificate)
                 for c in certs]
    entries = [{"point": [pt[0], pt[1]], "multiplier": str(multiplier),
                "box": to_json(cert.box), "certificate_full": to_json(cert)}
               for pt, multiplier, cert in found]
    lines = [f"({pt[0]:.6g}, {pt[1]:.6g}): certified punctured box "
             f"{cert.box} with B = {multiplier}"
             for pt, multiplier, cert in found]
    lines += [f"note: {note}" for note in notes]
    return Record({"local_certificates": entries},
                  lines or ["no hyperbolic equilibria found"],
                  certificate=found[0][2] if found else None,
                  notes=notes)


def _cmd_cofactor(args, system) -> Record:
    curves = _curves(args)
    if not curves:
        raise ValueError("at least one invariant curve needed")
    entries = []
    lines = []
    for f in curves:
        try:
            curve = cofactor_of(f, system)
            entries.append({"f": str(f), "k": str(curve.k)})
            lines.append(f"f = {f}: cofactor k = {curve.k}")
        except NotInvariantError as exc:
            entries.append({"f": str(f), "error": "not_invariant",
                            "remainder": str(exc.remainder)})
            lines.append(f"f = {f}: not invariant (remainder {exc.remainder})")
    return Record({"curves": entries}, lines)


def _cmd_expfactor(args, system) -> Record:
    ef = exponential_factor_cofactor(parse_poly(args.g), parse_poly(args.h),
                                     system)
    return Record(to_json(ef), [f"{ef}: cofactor k = {ef.k}"])


def _cmd_intfactor(args, system) -> Record:
    mu = parse_multiplier(args.multiplier)
    report = check_integrating_factor(mu, system)
    verdict = "integrating factor" if report.is_exact else "not an integrating factor"
    return Record(
        {"multiplier": str(mu), **to_json(report), "verdict": verdict},
        [f"mu = {mu}: {verdict} (residual {report.symbolic_residual})"])


def _cmd_inv_intfactor(args, system) -> Record:
    mu = parse_multiplier(args.multiplier)
    if mu.g is not None:
        raise ParseError("inverse integrating factors must be polynomials")
    report = check_inverse_integrating_factor(mu.p, system)
    verdict = ("inverse integrating factor" if report.is_exact
               else "not an inverse integrating factor")
    return Record(
        {"V": str(mu.p), **to_json(report), "verdict": verdict},
        [f"V = {mu.p}: {verdict} (residual {report.symbolic_residual})"])


def _build_darboux(args, system: VectorField):
    curves = [cofactor_of(f, system) for f in _curves(args)]
    pairs = parse_list(args.expfactors or "", [
        (";", None, None),
        (":", 2, '--expfactors must look like "g1:h1;g2:h2"')], variables=True)
    return curves, [exponential_factor_cofactor(g, h, system) for g, h in pairs]


def _cmd_darboux(args, system) -> Record:
    curves, expf = _build_darboux(args, system)
    try:
        expr = darboux_first_integral(curves, expf)
    except NoNontrivialRelationError as exc:
        result = {"first_integral": None, "reason": str(exc),
                  "cofactors": to_json(curves + expf)}
        return Record(result, [f"no Darboux first integral: {exc}"],
                      notes=[str(exc)])
    return Record({"first_integral": to_json(expr)},
                  [f"H = {expr}", "total cofactor = 0"])


def _cmd_verify_integral(args, system) -> Record:
    curves, expf = _build_darboux(args, system)
    expr = darboux_first_integral(curves, expf)
    report = verify_first_integral(expr, system)
    return Record(
        {"first_integral": to_json(expr), **to_json(report)},
        [f"H = {expr}",
         f"symbolic residual = {report.symbolic_residual}",
         f"max drift = {report.numeric_max_drift:.3e} over "
         f"{report.trajectories_checked} trajectories"])


def _csv(report) -> str:
    buf = io.StringIO()
    report.write_csv(buf)
    return buf.getvalue()


def _cmd_simulate(args, system) -> Record:
    z0 = _parse_point(args.z0)
    domain = None if args.region is None else parse_region(args.region)
    traj = integrate(system, z0, args.t_span, INTEGRATE_TOL, domain)
    result = {
        "z0": list(z0),
        "t_span": args.t_span,
        "status": traj.status.value,
        "steps": len(traj.times) - 1,
        "endpoint": [traj.endpoint.x, traj.endpoint.y],
        "times": list(traj.times),
        "states": [[p.x, p.y] for p in traj.states],
    }
    lines = [f"integrated to t = {traj.times[-1]:.9g} "
             f"({traj.status.value}, {len(traj.times) - 1} steps)",
             f"endpoint = ({traj.endpoint.x:.12g}, {traj.endpoint.y:.12g})"]
    return Record(result, lines, csv=_csv(traj))


def _cmd_limit_cycle(args, system) -> Record:
    seed = _parse_point(args.seed)
    report = detect_limit_cycle(system, seed)
    lines = [f"limit cycle: period = {report.period:.9g}, "
             f"amplitude_x = {report.amplitude_x:.9g}, "
             f"slope = {report.return_map_slope:.3e}, "
             f"stability = {report.stability.value}"]
    return Record({"limit_cycle": to_json(report)}, lines, csv=_csv(report))


def _cmd_analyze(args, system) -> Record:
    report = run_analyze(system, parse_region(args.region))
    lines = [
        f"equilibria: {len(report.equilibria)}",
        f"local certificates: {len(report.local_certificates)}",
        f"certified boxes: {len(report.global_boxes_certified)}",
        f"uncovered tiles: {len(report.uncovered_regions)}",
        f"limit cycles: {len(report.limit_cycles)}",
    ]
    for cyc in report.limit_cycles:
        lines.append(f"  cycle: period {cyc.period:.6g}, amplitude_x "
                     f"{cyc.amplitude_x:.6g}, {cyc.stability.value}")
    for note in report.notes:
        lines.append(f"note: {note}")
    code = exit_code(report)
    lines.append(f"exit code: {code}")
    return Record(to_json(report), lines, notes=list(report.notes), code=code)


# --- parser ----------------------------------------------------------------


REGION_HELP = 'rectangle "x0:x1,y0:y1"'


def _add_common(sub, system=True, region=False, csv=False):
    sub.add_argument("--out", help="write the report to this path")
    formats = ("text", "json", "csv") if csv else ("text", "json")
    sub.add_argument("--format", choices=formats, default="text")
    if system:
        sub.add_argument("--system", required=True,
                         help="path to a .vf system file")
    if region:
        sub.add_argument("--region", required=True, help=REGION_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dulac",
        description="Dulac/Bendixson certificates, Darboux integrability and "
                    "limit-cycle numerics for planar polynomial fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse a .vf file and echo canonical form")
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    p = subs.add_parser("equilibria", help="find and classify zeros of the field")
    _add_common(p, region=True)
    p.set_defaults(handler=_cmd_equilibria)

    p = subs.add_parser("dulac-linear",
                        help="quadratic multiplier for a linear field")
    _add_common(p, system=False)
    p.add_argument("--matrix", required=True,
                   help='matrix "a,b;c,d" with rational entries')
    p.set_defaults(handler=_cmd_dulac_linear)

    p = subs.add_parser("certify",
                        help="certify Div(B*X) > 0 on a rectangle")
    _add_common(p, region=True)
    p.add_argument("--multiplier", default="1",
                   help='multiplier: polynomial or "exp(<poly>)*<poly>"')
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.set_defaults(handler=_cmd_certify)

    p = subs.add_parser("bendixson", help="certify with B = 1")
    _add_common(p, region=True)
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.set_defaults(handler=_cmd_certify, multiplier="1")

    p = subs.add_parser("local-dulac",
                        help="certified local multiplier at hyperbolic equilibria")
    _add_common(p)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--point", help='equilibrium "x,y"')
    where.add_argument("--region", help=REGION_HELP)
    p.set_defaults(handler=_cmd_local_dulac)

    p = subs.add_parser("cofactor", help="cofactors of invariant curves")
    _add_common(p)
    p.add_argument("--curves", required=True, help='curves "f1;f2;..."')
    p.set_defaults(handler=_cmd_cofactor)

    p = subs.add_parser("expfactor", help="cofactor of exp(g/h)")
    _add_common(p)
    p.add_argument("--g", required=True, help="numerator polynomial")
    p.add_argument("--h", default="1", help="denominator polynomial")
    p.set_defaults(handler=_cmd_expfactor)

    p = subs.add_parser("intfactor", help="check an integrating factor")
    _add_common(p)
    p.add_argument("--multiplier", required=True)
    p.set_defaults(handler=_cmd_intfactor)

    p = subs.add_parser("inv-intfactor",
                        help="check an inverse integrating factor")
    _add_common(p)
    p.add_argument("--multiplier", required=True,
                   help="candidate V (polynomial)")
    p.set_defaults(handler=_cmd_inv_intfactor)

    p = subs.add_parser("darboux", help="Darboux first integral from curves")
    _add_common(p)
    p.add_argument("--curves", required=True, help='curves "f1;f2;..."')
    p.add_argument("--expfactors", help='exponential factors "g1:h1;g2:h2"')
    p.set_defaults(handler=_cmd_darboux)

    p = subs.add_parser("verify-integral",
                        help="build a Darboux integral and check drift")
    _add_common(p)
    p.add_argument("--curves", required=True, help='curves "f1;f2;..."')
    p.add_argument("--expfactors", help='exponential factors "g1:h1;g2:h2"')
    p.set_defaults(handler=_cmd_verify_integral)

    p = subs.add_parser("simulate", help="integrate a trajectory (CSV export)")
    _add_common(p, csv=True)
    p.add_argument("--region", help=REGION_HELP + ", the domain to stay in")
    p.add_argument("--z0", required=True, help='initial point "x,y"')
    p.add_argument("--t-span", dest="t_span", type=float, required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = subs.add_parser("limit-cycle", help="detect a limit cycle from a seed")
    _add_common(p, csv=True)
    p.add_argument("--seed", required=True, help='seed point "x,y"')
    p.set_defaults(handler=_cmd_limit_cycle)

    p = subs.add_parser("analyze", help="full best-effort pipeline on a region")
    _add_common(p, region=True)
    p.set_defaults(handler=_cmd_analyze)

    return parser


def _run_handler(args, system) -> Record:
    """The handler's record, each distinct DegenerateCurveWarning a note.

    The notes keep the order in which the warnings were first seen.  A
    curve listed twice is probed twice, and its warnings give one note each.
    """
    caught, show = [], warnings.showwarning

    def note(message, category, *rest):
        if not issubclass(category, DegenerateCurveWarning):
            show(message, category, *rest)
        elif str(message) not in caught:
            caught.append(str(message))

    with warnings.catch_warnings():
        warnings.simplefilter("always", DegenerateCurveWarning)
        warnings.showwarning = note
        record = args.handler(args, system)
    return replace(record, notes=record.notes + caught,
                   lines=record.lines + [f"note: {n}" for n in caught])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 after printing a usage error
        return 3 if exc.code == 2 else exc.code
    try:
        system = _load_system(args) if "system" in args else None
        record = _run_handler(args, system)
        _emit(args, system, record)
        return record.code
    except (DulacError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
