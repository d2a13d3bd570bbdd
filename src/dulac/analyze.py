"""Best-effort region analysis: equilibria, local certificates, coverage, cycles.

The pipeline locates zeros of the field (Newton in the cells that
Bernstein exclusion leaves; ``flow.ZERO_TOL`` decides what a zero is),
synthesizes a local Dulac multiplier at each hyperbolic one and certifies
it on the widest punctured box of half-width 2^k (k <= 6, negative on a
small region) that fits the region (``synthesis.certify_punctured_box``),
attacks the remaining tiles with the constant multiplier, and finally
scans leftover tiles for limit cycles from their centers with
``flow.detect_limit_cycle`` at its own budgets (``flow.CYCLE_*``) and on
its own section, as ``limit-cycle`` does.  The scan also passes the stop
inputs, the region and the cycles found so far: a seed ends once its orbit
leaves the region with its half-widths doubled (``flow.ESCAPE_SCALE``) or
falls onto a stable cycle already found, whose re-detection the scan would
drop as the same cycle.
``local_certificates`` is the one loop over a region's equilibria; the
CLI's ``local-dulac --region`` reports exactly what it returns.  The
report is explicitly best-effort: an uncovered tile means "unresolved",
never "no orbit".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import Box2, Certificate, bendixson
from .errors import CertificationFailedError, CycleNotFoundError, DulacError
from .flow import (
    EquilibriumReport,
    LimitCycleReport,
    Stability,
    detect_limit_cycle,
    find_equilibria,
)
from .multiplier import Multiplier
from .poly import VectorField
from .synthesis import (
    LOCAL_MIN_RADIUS,
    certify_punctured_box,
    local_quadratic_multiplier,
)

BEST_EFFORT_NOTE = (
    "best-effort analysis: uncovered regions are unresolved, and the absence "
    "of a detected cycle is not a proof of nonexistence"
)
P_CONNECTED_NOTE = (
    "the certified union need not be simply connected; on a p-connected "
    "region the criterion still allows up to p-1 closed orbits threading "
    "the holes"
)
MARGINAL_FAMILY_NOTE = (
    "marginal return-map slope: the detected orbit belongs to a non-isolated "
    "periodic family"
)


# the region is cut into TILE_N x TILE_N tiles, each certified with B = 1 to
# depth TILE_DEPTH, and at most MAX_CYCLE_SEEDS uncovered tiles seed the scan
TILE_N = 10
TILE_DEPTH = 6
MAX_CYCLE_SEEDS = 12


@dataclass(frozen=True)
class LocalCertificate:
    equilibrium: EquilibriumReport
    multiplier: Multiplier
    box: Box2
    certificate: Certificate


@dataclass(frozen=True)
class AnalysisReport:
    system: str
    equilibria: tuple[EquilibriumReport, ...]
    local_certificates: tuple[LocalCertificate, ...]
    global_boxes_certified: tuple[Box2, ...]
    uncovered_regions: tuple[Box2, ...]
    limit_cycles: tuple[LimitCycleReport, ...]
    notes: tuple[str, ...]


def local_certificates(system: VectorField, region: Box2):
    """(equilibria, certificates, notes): the zeros in ``region``, local
    certificates at the hyperbolic ones (``certify_punctured_box`` within
    ``region``, rings down to ``LOCAL_MIN_RADIUS``) and a note for each zero
    without one."""
    equilibria = find_equilibria(system, region)
    certs, notes = [], []
    for eq in equilibria:
        at = f"({eq.location.x:.6g}, {eq.location.y:.6g})"
        if not eq.hyperbolic:
            notes.append(f"equilibrium {at} is {eq.classification.value}; "
                         f"no local multiplier attempted")
            continue
        try:
            multiplier, carrier, (ex, ey) = local_quadratic_multiplier(
                system, eq.location)
        except DulacError as exc:
            notes.append(f"local synthesis failed at {at}: {exc}")
            continue
        try:
            cert = certify_punctured_box(carrier, ex, ey, region,
                                         LOCAL_MIN_RADIUS)
        except CertificationFailedError as exc:
            notes.append(f"local certification failed at {at}: {exc}")
            continue
        certs.append(LocalCertificate(
            equilibrium=eq, multiplier=multiplier, box=cert.box,
            certificate=cert))
    return equilibria, certs, notes


def run_analyze(system: VectorField, region: Box2) -> AnalysisReport:
    # Steps 1 and 2: zeros of the field, local multipliers at hyperbolic ones
    equilibria, local_certs, notes = local_certificates(system, region)
    min_r = Fraction(LOCAL_MIN_RADIUS)
    cores = [(c.box, Box2.centered(c.box.x_mid, c.box.y_mid, min_r))
             for c in local_certs]

    # Step 3: tile the region and attack remaining tiles with B = 1
    certified_tiles: list = []
    uncovered: list = []
    for tile in _tiles(region, TILE_N):
        covered = any(
            box.contains_box(tile) and not tile.intersects(core)
            for box, core in cores)
        if covered:
            continue
        result = bendixson(system, tile, TILE_DEPTH)
        if result.certificate.is_positive:
            certified_tiles.append(tile)
        else:
            uncovered.append(tile)

    # Step 4: scan uncovered tiles for limit cycles from their centers
    cycles: list = []
    for tile in _subsample(uncovered, MAX_CYCLE_SEEDS):
        center = (float(tile.x_mid), float(tile.y_mid))
        try:
            report = detect_limit_cycle(system, center, region=region,
                                        known=cycles)
        except (CycleNotFoundError, ValueError):  # e.g. a zero of X, or overflow
            continue
        if any(_same_cycle(report, c) for c in cycles):
            continue
        cycles.append(report)

    if any(c.stability is Stability.MARGINAL for c in cycles):
        notes.append(MARGINAL_FAMILY_NOTE)
    if (local_certs or certified_tiles) and uncovered:
        notes.append(P_CONNECTED_NOTE)
    notes.append(BEST_EFFORT_NOTE)

    boxes = [c.box for c in local_certs] + certified_tiles
    return AnalysisReport(
        system=system.source_text or str(system),
        equilibria=tuple(equilibria),
        local_certificates=tuple(local_certs),
        global_boxes_certified=tuple(boxes),
        uncovered_regions=tuple(uncovered),
        limit_cycles=tuple(cycles),
        notes=tuple(notes),
    )


def exit_code(report: AnalysisReport) -> int:
    """0 fully certified, 1 cycle detected, 2 inconclusive coverage."""
    if report.limit_cycles:
        return 1
    if report.uncovered_regions:
        return 2
    return 0


def _same_cycle(a: LimitCycleReport, b: LimitCycleReport) -> bool:
    """Whether two detections are one cycle.

    Their periods must agree within 1e-3 relative (absolute below 1), and
    so must their x-amplitudes unless one is marginal: a marginal detection
    is one member of a periodic family, which the period alone names.
    """
    def close(u: float, v: float) -> bool:
        return abs(u - v) < 1e-3 * max(1.0, abs(v))

    if not close(a.period, b.period):
        return False
    return (Stability.MARGINAL in (a.stability, b.stability)
            or close(a.amplitude_x, b.amplitude_x))


def _tiles(region: Box2, n: int):
    xs = [region.x_min + region.width * i / n for i in range(n + 1)]
    ys = [region.y_min + region.height * j / n for j in range(n + 1)]
    for j in range(n):
        for i in range(n):
            yield Box2(xs[i], xs[i + 1], ys[j], ys[j + 1])


def _subsample(items, limit: int):
    if len(items) <= limit:
        return list(items)
    step = (len(items) - 1) / (limit - 1)
    indices = sorted({round(i * step) for i in range(limit)})
    return [items[i] for i in indices]
