"""Flow numerics: equilibria, integration accuracy, sections, limit cycles."""

import io
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dulac import flow
from dulac.analyze import AnalyzeConfig, run_analyze
from dulac.certify import Box2, Conclusion, bendixson
from dulac.errors import CycleNotFoundError, NoReturnError, NotAnEquilibriumError
from dulac.flow import (
    Classification,
    Section,
    Stability,
    TrajectoryStatus,
    classify_equilibrium,
    detect_limit_cycle,
    find_equilibria,
    integrate,
    poincare_return,
)
from dulac.parse import parse_system
from dulac.poly import Point, Poly, VectorField
from dulac.synthesis import local_quadratic_multiplier

from conftest import perturbed_linear_field

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
VDP = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")
BOX3 = Box2(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3))


def linear_field(a, b, c, d) -> VectorField:
    x, y = Poly.x(), Poly.y()
    return VectorField(p=x * Fraction(a) + y * Fraction(b),
                       q=x * Fraction(c) + y * Fraction(d))


class TestFindEquilibria:
    def test_van_der_pol_origin_only(self):
        reports = find_equilibria(VDP, BOX3)
        assert len(reports) == 1
        eq = reports[0]
        assert math.hypot(eq.location.x, eq.location.y) < 1e-9
        assert eq.classification is Classification.FOCUS

    def test_two_saddle_nodes(self):
        system = parse_system("P = x^2 - 1\nQ = y")
        box = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
        reports = find_equilibria(system, box)
        locations = sorted((round(e.location.x, 6), round(e.location.y, 6))
                           for e in reports)
        assert locations == [(-1.0, 0.0), (1.0, 0.0)]

    def test_no_zeros(self):
        system = parse_system("P = 1\nQ = 1")
        box = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
        assert find_equilibria(system, box) == []

    @pytest.mark.parametrize("path", sorted(SYSTEMS.glob("*.vf")),
                             ids=lambda path: path.stem)
    def test_newton_starts_only_where_x_may_vanish(self, monkeypatch, path):
        # a 32x32 grid made 1,024 starts on every system
        starts = []
        newton = flow._newton

        def counted(*args, **kwargs):
            starts.append(args[2:4])
            return newton(*args, **kwargs)

        monkeypatch.setattr(flow, "_newton", counted)
        find_equilibria(parse_system(path.read_text()), Box2(-4, 4, -4, 4))
        assert len(starts) <= 16

    def test_singular_zero_gives_no_cloud(self):
        # the grid's Newton runs stopped all around the singular zero at the
        # origin: 479 "hyperbolic" equilibria and 481 analyze notes
        system = parse_system("P = 3/4*x^3 - 3/4*y^2\nQ = 3/7*x^3")
        region = Box2(-4, 4, -4, 4)
        reports = find_equilibria(system, region)
        assert 1 <= len(reports) <= 4
        assert all(math.hypot(*e.location) < 1e-3 for e in reports)
        report = run_analyze(system, region, AnalyzeConfig(max_cycle_seeds=0))
        assert len(report.notes) <= 6

    def test_criterion_9_fields(self):
        rng = random.Random(2)
        region = Box2(-4, 4, -4, 4)
        total = 0
        for _ in range(300):
            reports = find_equilibria(perturbed_linear_field(rng), region)
            assert min(math.hypot(*e.location) for e in reports) < 1e-9
            total += len(reports)
        assert total == 326

    @pytest.mark.parametrize("zx,zy", [
        (Fraction(1, 3), Fraction(-2, 7)),
        (Fraction(-5, 2), Fraction(7, 4)),  # on the edges of four cells
        (Fraction(4), Fraction(-4)),  # a corner of the box
    ])
    def test_simple_rational_zero_is_found(self, zx, zy):
        x, y = Poly.x() - Poly.const(zx), Poly.y() - Poly.const(zy)
        system = VectorField(p=x + x * y + y * y * Fraction(1, 2),
                             q=y - x * x + x * y * Fraction(1, 3))
        reports = find_equilibria(system, Box2(-4, 4, -4, 4))
        assert any(math.hypot(e.location.x - zx, e.location.y - zy) < 1e-6
                   for e in reports)


class TestZeroTest:
    """Newton, classification and local synthesis share ``flow.ZERO_TOL``."""

    @pytest.mark.parametrize("x,accepted", [(5e-10, True), (2e-9, False)])
    def test_both_sides_use_zero_tol(self, x, accepted):
        assert flow.ZERO_TOL == 1e-9
        radial = parse_system("P = x\nQ = y")
        for check in (classify_equilibrium, local_quadratic_multiplier):
            if accepted:
                check(radial, Point(x, 0.0))
            else:
                with pytest.raises(NotAnEquilibriumError):
                    check(radial, Point(x, 0.0))

    def test_reported_equilibria_pass_local_synthesis(self):
        # Newton stopped at 1e-9 while local synthesis demanded 1e-10, so
        # 9 of these fields had an equilibrium analyze could not certify
        rng = random.Random(2)
        region = Box2(-4, 4, -4, 4)
        checked = 0
        for _ in range(50):
            system = perturbed_linear_field(rng)
            for eq in find_equilibria(system, region):
                if eq.hyperbolic:
                    classify_equilibrium(system, eq.location)
                    local_quadratic_multiplier(system, eq.location)
                    checked += 1
        assert checked == 55


class TestClassify:
    def test_van_der_pol_focus(self):
        report = classify_equilibrium(VDP, (0.0, 0.0))
        assert report.classification is Classification.FOCUS
        assert report.hyperbolic
        eig = sorted(report.eigenvalues, key=lambda e: e.imag)
        assert abs(eig[1] - complex(0.5, math.sqrt(3) / 2)) < 1e-12

    def test_saddle_and_center(self):
        saddle = parse_system("P = x\nQ = -y")
        assert classify_equilibrium(saddle, (0, 0)).classification \
            is Classification.SADDLE
        rot = parse_system("P = -y\nQ = x")
        report = classify_equilibrium(rot, (0, 0))
        assert report.classification is Classification.CENTER_CANDIDATE
        assert not report.hyperbolic

    def test_node_and_degenerate(self):
        assert classify_equilibrium(linear_field(-1, 0, 0, -2),
                                    (0, 0)).classification \
            is Classification.NODE
        assert classify_equilibrium(linear_field(1, 0, 0, 0),
                                    (0, 0)).classification \
            is Classification.DEGENERATE

    def test_not_an_equilibrium(self):
        with pytest.raises(NotAnEquilibriumError):
            classify_equilibrium(VDP, (1.0, 1.0))

    def test_rescaling_invariance(self):
        rng = random.Random(31)
        for _ in range(40):
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            field = linear_field(a, b, c, d)
            doubled = linear_field(2 * a, 2 * b, 2 * c, 2 * d)
            k1 = classify_equilibrium(field, (0, 0)).classification
            k2 = classify_equilibrium(doubled, (0, 0)).classification
            if k1 in (Classification.SADDLE, Classification.NODE,
                      Classification.FOCUS):
                assert k1 is k2


class TestIntegrate:
    def test_exponential_decay(self):
        field = parse_system("P = -x\nQ = -y")
        traj = integrate(field, (1.0, 0.0), 1.0, tol=1e-10)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert abs(traj.endpoint.x - math.exp(-1)) < 1e-8
        assert traj.endpoint.y == 0.0

    def test_rotation_period(self):
        rot = parse_system("P = -y\nQ = x")
        traj = integrate(rot, (1.0, 0.0), 2 * math.pi, tol=1e-9)
        assert abs(traj.endpoint.x - 1.0) < 1e-6
        assert abs(traj.endpoint.y) < 1e-6

    def test_matrix_exponential_oracle(self):
        rng = random.Random(37)
        checked = 0
        while checked < 20:
            a, b, c, d = (Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                          for _ in range(4))
            m = np.array([[float(a), float(b)], [float(c), float(d)]])
            eigs = np.linalg.eigvals(m)
            if max(e.real for e in eigs) > -0.05:
                continue
            if abs(eigs[0] - eigs[1]) < 1e-6:
                continue
            field = linear_field(a, b, c, d)
            z0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            t_final = 5.0
            traj = integrate(field, z0, t_final, tol=1e-10)
            expected = expm(m * t_final) @ np.array(z0)
            assert abs(traj.endpoint.x - expected[0]) < 1e-8
            assert abs(traj.endpoint.y - expected[1]) < 1e-8
            checked += 1

    def test_time_reversal(self):
        tol = 1e-9
        forward = integrate(VDP, (2.0, 0.0), 3.0, tol)
        backward = integrate(VDP, forward.endpoint, -3.0, tol)
        assert abs(backward.endpoint.x - 2.0) < 100 * tol
        assert abs(backward.endpoint.y) < 100 * tol

    def test_domain_exit(self):
        radial = parse_system("P = x\nQ = y")
        domain = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
        traj = integrate(radial, (1.0, 0.0), 5.0, 1e-9, domain)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        assert abs(traj.endpoint.x - 2.0) < 1e-6
        assert traj.times[-1] < 5.0

    @staticmethod
    def _margin(domain: Box2, z) -> float:
        x_min, x_max, y_min, y_max = domain.as_floats()
        return min(z[0] - x_min, x_max - z[0], z[1] - y_min, y_max - z[1])

    def test_domain_exit_through_top_face(self):
        rot = parse_system("P = -y\nQ = x")
        domain = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(1, 2))
        traj = integrate(rot, (1.0, 0.0), 5.0, 1e-10, domain)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        assert abs(self._margin(domain, traj.endpoint)) <= 1e-10
        assert abs(traj.times[-1] - math.pi / 6) < 1e-8
        assert abs(traj.endpoint.x - math.sqrt(3) / 2) < 1e-8

    def test_domain_exit_backward(self):
        sink = parse_system("P = -x\nQ = -y")
        domain = Box2(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
        traj = integrate(sink, (-0.5, 0.25), -5.0, 1e-10, domain)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        assert abs(self._margin(domain, traj.endpoint)) <= 1e-10
        assert abs(traj.times[-1] + math.log(2)) < 1e-8
        assert abs(traj.endpoint.y - 0.5) < 1e-8

    def test_blowup_is_step_failure(self):
        system = parse_system("P = x^2\nQ = 0")
        traj = integrate(system, (1.0, 0.0), 2.0, 1e-9)
        assert traj.status is TrajectoryStatus.STEP_FAILURE
        assert traj.times[-1] < 2.0

    def test_step_budget_is_step_failure(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 40)
        rot = parse_system("P = -y\nQ = x")
        traj = integrate(rot, (1.0, 0.0), 100.0, 1e-9)
        assert traj.status is TrajectoryStatus.STEP_FAILURE
        assert len(traj.times) == 41
        # a run that needs fewer steps than the budget completes
        assert integrate(rot, (1.0, 0.0), 1.0, 1e-9).status is \
            TrajectoryStatus.COMPLETED

    def test_nan_start_is_step_failure(self, monkeypatch):
        # P = inf - inf at the start: RK45 chose a nan first step and step()
        # never returned, so MAX_STEPS could not end the run
        class NoStep(flow.RK45):
            def step(self):
                raise AssertionError("a step was attempted")

        monkeypatch.setattr(flow, "RK45", NoStep)
        nan_field = parse_system("P = x^2*y - x*y^2\nQ = 1")
        start = (1e150, 1e100)
        assert math.isnan(nan_field(start)[0])
        with pytest.raises(flow._StepFailure, match="not finite at the start"):
            next(flow._steps(flow.compile_field(nan_field), start, 1.0, 1e-9))
        traj = integrate(nan_field, start, 1.0, 1e-9)
        assert traj.status is TrajectoryStatus.STEP_FAILURE
        assert traj.times == (0.0,)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            integrate(VDP, (1.0, 0.0), 1.0, tol=1e-2)
        with pytest.raises(ValueError):
            integrate(VDP, (1.0, 0.0), 1.0, tol=1e-14)

    def test_csv_export(self):
        traj = integrate(VDP, (2.0, 0.0), 0.5, 1e-9)
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert lines[1].startswith("0,2,")
        assert len(lines) == len(traj.times) + 1


class TestPoincare:
    def test_rotation_full_turn(self):
        rot = parse_system("P = -y\nQ = x")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        z, t = poincare_return(rot, section, (1.0, 0.0), max_time=10.0)
        assert abs(t - 2 * math.pi) < 1e-6
        assert abs(z.x - 1.0) < 1e-6
        assert abs(section.signed_distance(z)) <= 1e-10

    def test_saddle_never_returns(self):
        saddle = parse_system("P = x\nQ = -y")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        with pytest.raises(NoReturnError):
            poincare_return(saddle, section, (1.0, 0.0), max_time=20.0)

    def test_van_der_pol_return_against_bisection_oracle(self):
        # the orbit leaves (2, 0) downward, so the near-side return crossing
        # has decreasing signed distance
        section = Section(anchor=Point(2.0, 0.0), normal=(0.0, -1.0))
        z, t = poincare_return(VDP, section, (2.0, 0.0), max_time=20.0)
        assert abs(z.x - 2.009) < 5e-3  # returns near (2.009, 0)
        # independent oracle: bisection on fresh fixed-horizon integrations
        lo, hi = t - 0.25, t + 0.25
        y_lo = integrate(VDP, (2.0, 0.0), lo, 1e-11).endpoint.y
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            y_mid = integrate(VDP, (2.0, 0.0), mid, 1e-11).endpoint.y
            if (y_mid > 0) == (y_lo > 0):
                lo, y_lo = mid, y_mid
            else:
                hi = mid
        t_oracle = 0.5 * (lo + hi)
        z_oracle = integrate(VDP, (2.0, 0.0), t_oracle, 1e-11).endpoint
        assert abs(t - t_oracle) < 1e-6
        assert abs(z.x - z_oracle.x) < 1e-6

    def test_step_budget_is_no_return(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 5)
        rot = parse_system("P = -y\nQ = x")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        with pytest.raises(NoReturnError, match="integration failed"):
            poincare_return(rot, section, (1.0, 0.0), max_time=10.0)

    def test_requires_point_on_section(self):
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        with pytest.raises(ValueError):
            poincare_return(VDP, section, (1.0, 0.5))

    def test_section_validation(self):
        with pytest.raises(ValueError):
            Section(anchor=Point(0.0, 0.0), normal=(1.0, 1.0))
        section = Section.through((0.0, 0.0), (3.0, 4.0))
        assert abs(math.hypot(*section.normal) - 1.0) < 1e-12

    @pytest.mark.parametrize("normal", [
        (math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0)])
    def test_non_finite_normal_rejected(self, normal):
        # abs(nan - 1) > 1e-12 is False, so a nan normal was accepted
        with pytest.raises(ValueError, match="finite unit vector"):
            Section(anchor=Point(0.0, 0.0), normal=normal)

    @pytest.mark.parametrize("vector", [
        (0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)])
    def test_through_rejects_zero_or_non_finite_vector(self, vector):
        # (nan, 1) gave a nan section, and scipy failed later on its y0
        with pytest.raises(ValueError, match="finite and nonzero"):
            Section.through((0.0, 0.0), vector)

    def test_crossing_is_along_the_normal(self):
        # the rotation crosses y = 0 upward at (1, 0) and downward at
        # (-1, 0): a flipped normal picks the other crossing
        rot = parse_system("P = -y\nQ = x")
        up = Section(anchor=Point(0.0, 0.0), normal=(0.0, 1.0))
        down = Section(anchor=Point(0.0, 0.0), normal=(0.0, -1.0))
        z, t = poincare_return(rot, up, (0.5, 0.0), max_time=10.0)
        assert abs(t - 2 * math.pi) < 1e-6 and abs(z.x - 0.5) < 1e-6
        z, t = poincare_return(rot, down, (0.5, 0.0), max_time=10.0)
        assert abs(t - math.pi) < 1e-6 and abs(z.x + 0.5) < 1e-6


class TestDetectLimitCycle:
    def test_van_der_pol(self):
        report = detect_limit_cycle(VDP, (2.0, 0.0), max_iters=25, tol=1e-10)
        assert 1.95 <= report.amplitude_x <= 2.07
        assert 6.6 <= report.period <= 6.73
        assert report.stability is Stability.STABLE
        first, last = report.points[0], report.points[-1]
        assert math.hypot(first.x - last.x, first.y - last.y) <= 10 * 1e-10

    def test_rotation_marginal_family(self):
        rot = parse_system("P = -y\nQ = x")
        report = detect_limit_cycle(rot, (1.0, 0.0), max_iters=10, tol=1e-10)
        assert report.stability is Stability.MARGINAL
        assert abs(report.return_map_slope - 1.0) <= 1e-3
        assert abs(report.period - 2 * math.pi) < 1e-6

    def test_radial_not_found(self):
        radial = parse_system("P = x\nQ = y")
        with pytest.raises(CycleNotFoundError):
            detect_limit_cycle(radial, (1.0, 0.0), max_iters=10,
                               tol=1e-9, max_time=20.0)

    @pytest.mark.parametrize("seed", [(0.0, 0.0), (1e-10, 0.0)])
    def test_seed_at_zero_raises_before_any_return(self, monkeypatch, seed):
        # the one zero test, flow.ZERO_TOL: at (1e-10, 0) max(|P|, |Q|) is
        # 1e-10 <= 1e-9
        def no_return(*args):
            raise AssertionError("return map computed")

        monkeypatch.setattr(flow, "poincare_return", no_return)
        with pytest.raises(ValueError, match="is a zero of the field"):
            detect_limit_cycle(VDP, seed)

    def test_section_through_seed_along_field(self, monkeypatch):
        sections = []

        def spy(system, section, z0, max_time, tol):
            sections.append(section)
            return poincare_return(system, section, z0, max_time, tol)

        monkeypatch.setattr(flow, "poincare_return", spy)
        report = detect_limit_cycle(VDP, (2.0, 0.0), tol=1e-9)
        assert 6.6 <= report.period <= 6.73
        # X(2, 0) = (0, -2): the section is y = 0, crossed downward
        assert {(s.anchor, s.normal) for s in sections} == {
            (Point(2.0, 0.0), (0.0, -1.0))}

    def test_step_budget_is_cycle_not_found(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 5)
        with pytest.raises(CycleNotFoundError, match="return map undefined"):
            detect_limit_cycle(VDP, (2.0, 0.0), tol=1e-9)

    def test_negative_max_iters_raises_before_any_return(self, monkeypatch):
        def no_return(*args):
            raise AssertionError("return map computed")

        monkeypatch.setattr(flow, "poincare_return", no_return)
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            detect_limit_cycle(VDP, (2.0, 0.0), max_iters=-1)

    @pytest.mark.parametrize("max_time", [-100.0, 0.0, math.nan, math.inf])
    def test_bad_max_time_raises_before_any_return(self, monkeypatch,
                                                   max_time):
        # -100 ran the map in reverse time: period -2*pi and "stable" for
        # the unstable annulus cycle r = 1
        def no_return(*args):
            raise AssertionError("return map computed")

        monkeypatch.setattr(flow, "poincare_return", no_return)
        with pytest.raises(ValueError, match="max_time must be finite"):
            detect_limit_cycle(VDP, (2.0, 0.0), max_time=max_time)

    def test_unstable_annulus_cycle_in_forward_time(self):
        annulus = parse_system("P = -x - y + x*(x^2+y^2)\n"
                               "Q = x - y + y*(x^2+y^2)")
        report = detect_limit_cycle(annulus, (1.0, 0.0))
        assert report.stability is Stability.UNSTABLE
        assert abs(report.period - 2 * math.pi) < 1e-6

    def test_report_values_are_python_floats(self):
        # the period and a located exit time were numpy.float64
        report = detect_limit_cycle(VDP, (2.0, 0.0), tol=1e-9)
        assert type(report.period) is float
        assert {type(t) for t in report.times} == {float}
        rot = parse_system("P = -y\nQ = x")
        domain = Box2(Fraction(-1), Fraction(1), Fraction(0), Fraction(1))
        traj = integrate(rot, (1.0, 0.5), 10.0, 1e-9, domain)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        assert {type(t) for t in traj.times} == {float}

    def test_loop_sampling_failure_raises(self, monkeypatch):
        # the return maps integrate up to max_time = 100 and succeed; only
        # the loop sampling, bounded by the period, fails
        class FailsWithinPeriod(flow.RK45):
            def step(self):
                message = super().step()
                if abs(self.t_bound) < 50.0:
                    self.status = "failed"
                return message

        monkeypatch.setattr(flow, "RK45", FailsWithinPeriod)
        rot = parse_system("P = -y\nQ = x")
        with pytest.raises(CycleNotFoundError):
            detect_limit_cycle(rot, (1.0, 0.0), max_iters=10, tol=1e-10)

    def test_cycle_csv(self):
        report = detect_limit_cycle(VDP, (2.0, 0.0), tol=1e-9)
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == len(report.points) + 1


class TestCertificateConsistency:
    def test_no_cycle_inside_van_der_pol_strip(self):
        strip = Box2(Fraction(-19, 20), Fraction(19, 20),
                     Fraction(-4), Fraction(4))
        assert bendixson(VDP, strip).conclusion \
            is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        report = detect_limit_cycle(VDP, (2.0, 0.0), tol=1e-9)
        assert not all(strip.contains_point(p, strict=True)
                       for p in report.points)

    def test_random_certified_linear_systems(self):
        rng = random.Random(41)
        checked = 0
        while checked < 20:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a + d <= 0:  # want positive divergence: certifies everywhere
                continue
            field = linear_field(a, b, c, d)
            box = Box2(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
            if bendixson(field, box).conclusion is not \
                    Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED:
                continue
            checked += 1
            seed = (1.0, 0.5)
            vx, vy = field(seed)
            if math.hypot(vx, vy) < 1e-9:
                continue
            try:
                report = detect_limit_cycle(field, seed, max_iters=8,
                                            tol=1e-9, max_time=30.0)
            except CycleNotFoundError:
                continue  # no cycle at all: vacuously consistent
            assert not all(box.contains_point(p, strict=True)
                           for p in report.points)


def test_integrate_start_outside_domain():
    # bisecting a margin that is negative at both ends of the first step
    # "located" an exit far outside the box
    rot = parse_system("P = -y\nQ = x")
    domain = Box2(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
    with pytest.raises(ValueError, match="z0 must lie in the domain"):
        integrate(rot, (5.0, 0.0), 1.0, 1e-9, domain)
    # a start on the boundary is inside
    traj = integrate(rot, (1.0, 0.0), 1.0, 1e-9, domain)
    assert traj.status is TrajectoryStatus.COMPLETED
