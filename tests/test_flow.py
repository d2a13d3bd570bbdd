"""Flow numerics: equilibria, integration accuracy, sections, limit cycles."""

import io
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dulac import analyze, flow, poly
from dulac.analyze import run_analyze
from dulac.certify import Box2, Conclusion, bendixson, bernstein_coefficients
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
from dulac.poly import Point, Poly, VectorField, float_sums
from dulac.synthesis import local_quadratic_multiplier

from conftest import (perturbed_linear_field, rand_field, rand_fraction,
                      same_float)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
SRC = SYSTEMS.parent / "src"
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
            starts.append(args[1:3])
            return newton(*args, **kwargs)

        monkeypatch.setattr(flow, "_newton", counted)
        find_equilibria(parse_system(path.read_text()), Box2(-4, 4, -4, 4))
        assert len(starts) <= 16

    def test_singular_zero_gives_no_cloud(self, monkeypatch):
        # the grid's Newton runs stopped all around the singular zero at the
        # origin: 479 "hyperbolic" equilibria and 481 analyze notes
        system = parse_system("P = 3/4*x^3 - 3/4*y^2\nQ = 3/7*x^3")
        region = Box2(-4, 4, -4, 4)
        reports = find_equilibria(system, region)
        assert 1 <= len(reports) <= 4
        assert all(math.hypot(*e.location) < 1e-3 for e in reports)
        monkeypatch.setattr(analyze, "MAX_CYCLE_SEEDS", 0)
        report = run_analyze(system, region)
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

    def test_zero_far_from_the_origin(self):
        # Newton gave up once |x| or |y| passed 1e8, wherever it started
        system = parse_system("P = x - 1000000000\nQ = y")
        box = Box2(999_999_999, 1_000_000_001, -1, 1)
        (report,) = find_equilibria(system, box)
        assert report.location == (1e9, 0.0)
        assert report.classification is Classification.NODE

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


def _level_starts(system, box):
    """Newton starts of the level-by-level search that ``certify.walk``
    replaced: every kept (P, Q) cell pair is halved at once,
    ``EQUILIBRIUM_SPLITS`` times, with its box split at Fraction midpoints."""
    def may_vanish(*patches):
        return all(min(map(min, t.numerators)) <= 0 <= max(map(max, t.numerators))
                   for t in patches)

    def split(b):
        mx, my = b.x_mid, b.y_mid
        return (Box2(b.x_min, mx, b.y_min, my), Box2(mx, b.x_max, b.y_min, my),
                Box2(b.x_min, mx, my, b.y_max), Box2(mx, b.x_max, my, b.y_max))

    cells = [(box, bernstein_coefficients(system.p, box),
              bernstein_coefficients(system.q, box))]
    for _ in range(flow.EQUILIBRIUM_SPLITS):
        cells = [child for b, p, q in cells if may_vanish(p, q)
                 for child in zip(split(b), p.subdivide(), q.subdivide())]
    return [(float(b.x_mid), float(b.y_mid))
            for b, p, q in cells if may_vanish(p, q)]


class TestWalkCells:
    """``find_equilibria`` on ``certify.walk`` starts Newton from the cells
    the level-by-level search kept, on the analyze workload's regions."""

    FIELDS = {path.stem: path.read_text()
              for path in sorted(SYSTEMS.glob("*.vf"))}
    FIELDS["degenerate"] = "P = 3/4*x^3 - 3/4*y^2\nQ = 3/7*x^3"

    @pytest.mark.parametrize("name", FIELDS)
    def test_same_newton_starts(self, monkeypatch, name):
        system = parse_system(self.FIELDS[name])
        starts = []
        monkeypatch.setattr(flow, "_newton",
                            lambda _s, x, y: starts.append((x, y)))
        rng = random.Random(7)
        for _ in range(20):  # corners moved by k/256, as analyze moves them
            k = [rng.randint(-4, 4) for _ in range(4)]
            region = Box2(Fraction(-1024 + k[0], 256), Fraction(1024 + k[1], 256),
                          Fraction(-1024 + k[2], 256), Fraction(1024 + k[3], 256))
            starts.clear()
            find_equilibria(system, region)
            assert Counter(starts) == Counter(_level_starts(system, region))


class TestZeroTest:
    """Newton, classification and local synthesis share ``flow.ZERO_TOL``."""

    @pytest.mark.parametrize("values,zero", [
        ((5e-10, 0.0), True), ((2e-9, 0.0), False), ((math.nan, 1.0), False),
        ((1.0, math.nan), False), ((0.0, math.nan), False),
    ])
    def test_is_zero(self, values, zero):
        # max(0.0, nan) is 0.0, so a max() of the parts would pass (0, nan)
        assert flow.is_zero(values) is zero

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

    @pytest.mark.parametrize("text", [
        "P = x^2*y - x*y^2\nQ = 1",  # X = (nan, 1): max is nan
        "P = 1\nQ = x^2*y - x*y^2",  # X = (1, nan): max is 1
        "P = 0\nQ = x^2*y - x*y^2",  # X = (0, nan): max is 0
    ], ids=["nan-one", "one-nan", "zero-nan"])
    def test_nan_component_is_not_a_zero(self, text):
        system = parse_system(text)
        z = (1e150, 1e100)
        assert any(map(math.isnan, system(z)))
        with pytest.raises(NotAnEquilibriumError):
            classify_equilibrium(system, z)

    def test_jacobian_functions_generated_once(self, monkeypatch):
        # each call derived the Jacobian again and generated its four
        # entries' functions anew; then each entry had its own function
        generated = []

        def counted(sums):
            generated.append(sums)
            return float_sums(sums)

        monkeypatch.setattr(poly, "float_sums", counted)
        system = parse_system("P = y - x^2\nQ = x - y")
        reports = [classify_equilibrium(system, z)
                   for z in [(0, 0), (1, 1), (0.0, 0.0), (1, 1)]]
        assert [r.classification for r in reports] == [
            Classification.SADDLE, Classification.NODE] * 2
        assert reports[1].jacobian == ((-2.0, 1.0), (1.0, -1.0))
        entries = [(f, "re") for f in system.jacobian]
        assert generated[1:] == [entries]  # after the field's own function

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

    def test_infinite_start_rejected(self):
        rot = parse_system("P = -y\nQ = x")
        with pytest.raises(ValueError, match="all components of the initial "
                                             "state must be finite"):
            integrate(rot, (math.inf, 0.0), 1.0)

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


class TestCompileField:
    """A field's values come from one generated float function:
    ``VectorField.__call__`` and the RK right-hand side share it.  It, and
    the field's ``float_jacobian``, must agree with the real parts of
    ``Poly.evaluate`` bit for bit."""

    @staticmethod
    def _evaluations(system):
        # the RK right-hand side sees floats only; the others convert z
        fun = flow.compile_field(system)
        return (lambda z: fun([float(z[0]), float(z[1])]), system,
                lambda z: (system.p.evaluate(z).real,
                           system.q.evaluate(z).real))

    @staticmethod
    def _outcome(evaluate, z):
        """The values at z, or the message of the ValueError raised."""
        try:
            return list(evaluate(z))
        except ValueError as error:
            return str(error)

    def test_values_are_evaluate_values(self):
        # float_jacobian too: Newton and classification read it where they
        # read the real parts of four Poly.evaluate calls
        rng = random.Random(8)
        systems = [parse_system(path.read_text())
                   for path in sorted(SYSTEMS.glob("*.vf"))]
        systems += [rand_field(rng) for _ in range(40)]
        special = (0.0, -0.0, 1.5, math.inf, -math.inf, math.nan, 1e200)
        points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(20)]
        points += [(x, y) for x in special for y in special]
        points += [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(5)]
        points += [(rand_fraction(rng), rand_fraction(rng)) for _ in range(5)]
        for system in systems:
            fun, call, reference = self._evaluations(system)
            pairs = [(fun, reference), (call, reference),
                     (lambda z: system.float_jacobian((float(z[0]),
                                                       float(z[1]))),
                      lambda z: [f.evaluate(z).real for f in system.jacobian])]
            for z in points:
                for evaluate, evaluate_reference in pairs:
                    want = self._outcome(evaluate_reference, z)
                    got = self._outcome(evaluate, z)
                    if isinstance(want, str):  # beyond float range
                        assert got == want, (system, z)
                    else:
                        assert [type(v) for v in got] == [float] * len(want)
                        assert all(map(same_float, got, want)), (system, z)

    @pytest.mark.parametrize("text,z,message", [
        ("P = x\nQ = x^3", (1e200, 0.0), "x^3 at (1e+200, 0)"),
        ("P = x^2\nQ = x^3", (1e200, 0.0), "x^2 at (1e+200, 0)"),
        ("P = 10^400*y\nQ = x^3", (1e200, 0.0),
         "100000...(401 digits)*y at (1e+200, 0)"),
        ("P = y\nQ = x - 10^400", (0.5, 0.25),
         "x - 100000...(401 digits) at (0.5, 0.25)"),
        ("P = x^3\nQ = y", (1e200, 0.0), "x^3 at (1e+200, 0)"),
        ("P = 10^400*y\nQ = 10^400", (0.5, 0.25),
         "100000...(401 digits)*y at (0.5, 0.25)"),
    ])
    def test_names_the_component_beyond_float_range(self, text, z, message):
        # only Q, both (P is named), P's coefficient, Q's coefficient, only
        # P, both coefficients: the same message from each evaluation
        for evaluate in self._evaluations(parse_system(text)):
            for _ in range(2):  # a failed coefficient raises on every call
                with pytest.raises(ValueError) as info:
                    evaluate(z)
                assert str(info.value) == message + " is beyond float range"

    @pytest.mark.parametrize("text,z,message", [
        ("P = x\nQ = x + y^3", (0.0, 1e200), "3*y^2 at (0, 1e+200)"),
        ("P = x^3\nQ = y^3", (1e200, 1e200), "3*x^2 at (1e+200, 1e+200)"),
        ("P = x + y^3\nQ = y", (0.0, 1e200), "3*y^2 at (0, 1e+200)"),
        ("P = y\nQ = x^3", (1e200, 0.0), "3*x^2 at (1e+200, 0)"),
        ("P = 10^400*x*y\nQ = y", (0.5, 0.25),
         "100000...(401 digits)*y at (0.5, 0.25)"),
    ])
    def test_jacobian_names_the_entry_beyond_float_range(self, text, z,
                                                          message):
        # only Qy, Px and Qy (Px is named), only Py, only Qx, the
        # coefficients of Px and Py (Px is named): Poly.evaluate's message
        # for the first entry beyond float range in Px, Py, Qx, Qy
        system = parse_system(text)
        for evaluate in (system.float_jacobian, lambda z: [
                f.evaluate(z).real for f in system.jacobian]):
            for _ in range(2):  # a failed coefficient raises on every call
                with pytest.raises(ValueError) as info:
                    evaluate(z)
                assert str(info.value) == message + " is beyond float range"

    def test_one_function_per_field(self, monkeypatch):
        # system(z) joined P's and Q's functions, and every integrate,
        # poincare_return and loop sampling generated one more
        generated = []

        def counted(sums):
            generated.append(sums)
            return float_sums(sums)

        monkeypatch.setattr(poly, "float_sums", counted)
        system = parse_system("P = y\nQ = -x + (1 - x^2)*y")
        assert system((2.0, 0.0)) == (0.0, -2.0)
        integrate(system, (2.0, 0.0), 1.0)
        section = Section(anchor=Point(2.0, 0.0), normal=(0.0, -1.0))
        for _ in range(2):
            poincare_return(system, section, (2.0, 0.0))
        detect_limit_cycle(system, (2.0, 0.0))
        assert flow.compile_field(system) is system.float_function
        assert generated == [[(system.p, "re"), (system.q, "re")]]


def _van_der_pol(z):
    return [z[1], (1 - z[0] * z[0]) * z[1] - z[0]]


def _rotation(z):
    return [-z[1], z[0]]


def _van_der_pol_with_multiplier(z):
    # a state of length 3: Van der Pol and B, with dB/dt = 1 - B*Div X
    x, y, b = z[0], z[1], z[2]
    return [y, (1 - x * x) * y - x, 1 - b * (1 - x * x)]


class TestRK45AgainstScipy:
    """``flow.RK45`` takes scipy's steps; scipy is imported here only.

    Error norms near round-off move intermediate step times by about 1e-7
    relative, so whole runs are compared by their counts and endpoints.
    """

    CASES = {
        "van_der_pol": (_van_der_pol, (2.0, 0.0), 20.0, 1e-10),
        "rotation_backward": (_rotation, (1.0, 0.0), -6.28, 1e-9),
        "three_states": (_van_der_pol_with_multiplier, (0.5, 0.5, 1.0),
                         3.0, 1e-10),
    }

    @staticmethod
    def _run(scipy, fun, y0, t_span, tol, max_steps=None):
        """Step scipy's RK45 (scipy's form, from t0 = 0 with rtol = atol =
        tol and max_step = |t_span|, on ``fun`` with the time ignored) or
        ours to its end or max_steps."""
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return fun(y)

        if scipy:
            solver = pytest.importorskip("scipy.integrate").RK45(
                lambda t, y: counted(y), 0.0, list(y0), t_bound=t_span,
                rtol=tol, atol=tol, max_step=abs(t_span))
        else:
            solver = flow.RK45(counted, list(y0), t_span, tol)
        steps = 0
        while (solver.status == "running" if scipy else not solver.finished) \
                and steps != max_steps:
            assert solver.step() is None
            steps += 1
        return solver, steps, calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_counts_and_endpoint(self, case):
        fun, y0, t_span, tol = self.CASES[case]
        ref, ref_steps, ref_calls = self._run(True, fun, y0, t_span, tol)
        own, steps, calls = self._run(False, fun, y0, t_span, tol)
        assert own.finished and ref.status == "finished"
        assert (steps, calls) == (ref_steps, ref_calls)
        assert own.t == ref.t == t_span
        assert max(abs(a - b) for a, b in zip(own.y, ref.y)) <= 1e-9

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_step_and_dense_output(self, case):
        # one step from the same state is the same step, up to rounding
        fun, y0, t_span, tol = self.CASES[case]
        ref, _, _ = self._run(True, fun, y0, t_span, tol, max_steps=1)
        own, _, _ = self._run(False, fun, y0, t_span, tol, max_steps=1)
        assert own.t == pytest.approx(ref.t, rel=1e-12)
        ref_dense, dense = ref.dense_output(), own.dense_output()
        for frac in (0.0, 0.3, 0.5, 1.0):
            t = own.t * frac
            assert max(abs(a - b) for a, b in zip(dense(t), ref_dense(t))) \
                <= 1e-12
        assert dense(own.t) == pytest.approx(own.y, abs=1e-12)

    def test_step_budget_ends_a_huge_span(self):
        rot = parse_system("P = -y\nQ = x")
        traj = integrate(rot, (1.0, 0.0), 1e300, 1e-9)
        assert traj.status is TrajectoryStatus.STEP_FAILURE
        assert len(traj.times) == flow.MAX_STEPS + 1

    def test_huge_field_is_a_failed_step(self):
        # the initial step underflows to 0, so its curvature estimate is
        # 0/0; the stages then overflow and every step is rejected
        huge = parse_system("P = x^2*y - x*y^2\nQ = 10^200")
        solver = flow.RK45(flow.compile_field(huge), (1e103, 1e102), 1e-97,
                           1e-9)
        assert solver.h_abs == 0.0
        with pytest.raises(flow._StepFailure) as info:
            solver.step()
        assert str(info.value) == ("Required step size is less than spacing "
                                   "between numbers.")

    def test_field_errors_propagate(self):
        # an exception raised by the right-hand side is not a failed step
        far = parse_system("P = x^3\nQ = 1")
        with pytest.raises(ValueError, match="beyond float range"):
            flow.RK45(flow.compile_field(far), (1e200, 0.0), 1.0, 1e-9)

        def fails(y):
            raise ZeroDivisionError("raised by the field")

        # the start is evaluated with _rotation, every stage with ``fails``
        solver = flow.RK45(_rotation, (1.0, 0.0), 1.0, 1e-9)
        solver.fun = fails
        with pytest.raises(ZeroDivisionError, match="raised by the field"):
            solver.step()

    def test_van_der_pol_cycle_unchanged(self):
        # period and amplitude as computed with scipy's RK45
        system = parse_system((SYSTEMS / "vanderpol.vf").read_text())
        report = detect_limit_cycle(system, (2.0, 0.0))
        assert abs(report.period - 6.663286859205998) <= 1e-9
        assert abs(report.amplitude_x - 2.0086198608192407) <= 1e-9


def _list_attempt(fun, h, y, k1, tol):
    """One trial step of RK45 with its stages written over lists: the
    reference that the generated kernel must match bit for bit.  Returns
    (y_new, (k1, ..., k7), error_norm)."""
    rk = flow.RK45
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = rk.A[1:]
    b1, _, b3, b4, b5, b6 = rk.B
    e1, _, e3, e4, e5, e6, e7 = rk.E
    k2 = fun([v + a21 * p * h for v, p in zip(y, k1)])
    k3 = fun([v + (a31 * p + a32 * q) * h for v, p, q in zip(y, k1, k2)])
    k4 = fun([v + (a41 * p + a42 * q + a43 * r) * h
              for v, p, q, r in zip(y, k1, k2, k3)])
    k5 = fun([v + (a51 * p + a52 * q + a53 * r + a54 * s) * h
              for v, p, q, r, s in zip(y, k1, k2, k3, k4)])
    k6 = fun([v + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
              for v, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
             for v, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
    k7 = fun(y_new)
    error_norm = flow._rms([
        (e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
        / (tol + max(abs(v), abs(vn)) * tol)
        for v, vn, p, r, s, u, w, z
        in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error_norm


class _ListRK45(flow.RK45):
    """RK45 stepping with the list form of the stages."""

    def __init__(self, *args):
        super().__init__(*args)
        self._attempt = _list_attempt


def _same_floats(a, b) -> bool:
    return len(a) == len(b) and all(map(same_float, a, b))


def _same_attempt(got, ref) -> bool:
    (y_new, stages, norm), (ref_y, ref_stages, ref_norm) = got, ref
    return (_same_floats(y_new, ref_y) and same_float(norm, ref_norm)
            and len(stages) == len(ref_stages) == 7
            and all(map(_same_floats, stages, ref_stages)))


class TestAttemptKernel:
    """The generated straight-line stages against their list form."""

    CASES = {
        **TestRK45AgainstScipy.CASES,
        # Van der Pol with mu = 10: the controller rejects steps by itself
        "stiff_rejections": (
            lambda z: [z[1], 10.0 * (1 - z[0] * z[0]) * z[1] - z[0]],
            (2.0, 0.0), 3.0, 1e-6),
    }

    @staticmethod
    def _run(cls, fun, y0, t_span, tol):
        """Every accepted (t, y, h_abs, K) and the number of right-hand
        sides of a whole run whose first step is tried over the whole span."""
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return fun(y)

        solver = cls(counted, list(y0), t_span, tol)
        solver.h_abs = abs(t_span)
        states = []
        while not solver.finished:
            solver.step()
            states.append((solver.t, solver.y, solver.h_abs, solver.K))
        return states, calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_whole_run_bit_for_bit(self, case):
        fun, y0, t_span, tol = self.CASES[case]
        states, calls = self._run(flow.RK45, fun, y0, t_span, tol)
        ref_states, ref_calls = self._run(_ListRK45, fun, y0, t_span, tol)
        assert calls == ref_calls
        # 2 right-hand sides at the start, 6 per attempt: some were rejected
        assert calls - 2 > 6 * len(states)
        assert len(states) == len(ref_states)
        for (t, y, h_abs, K), (rt, ry, rh, rK) in zip(states, ref_states):
            assert same_float(t, rt) and same_float(h_abs, rh)
            assert _same_floats(y, ry)
            assert all(map(_same_floats, K, rK))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_accepted_and_rejected_attempts(self, case):
        # from each state of a run, the step the controller takes and one
        # 16 times as long, which is rejected
        fun, y0, t_span, tol = self.CASES[case]
        solver = flow.RK45(fun, list(y0), t_span, tol)
        rejected = 0
        while not solver.finished:
            y, k1 = solver.y, solver.f
            h = solver.h_abs * solver.direction
            for trial in (h, 16 * h):
                got = solver._attempt(fun, trial, y, k1, tol)
                assert _same_attempt(got, _list_attempt(fun, trial, y, k1, tol))
                rejected += not got[2] < 1
            solver.step()
        assert rejected > 0

    def test_overflowing_stages(self):
        # the field of test_huge_field_is_a_failed_step: its stages overflow
        # to inf and nan, and every attempt is rejected
        huge = parse_system("P = x^2*y - x*y^2\nQ = 10^200")
        fun = flow.compile_field(huge)
        solver = flow.RK45(fun, (1e103, 1e102), 1e-97, 1e-9)
        norms = []
        for h in (5e-323, 1e-300, 1e-250, -1e-250):
            got = solver._attempt(fun, h, solver.y, solver.f, 1e-9)
            ref = _list_attempt(fun, h, solver.y, solver.f, 1e-9)
            assert _same_attempt(got, ref)
            norms.append(got[2])
        assert any(math.isnan(v) for v in norms)
        assert not any(v < 1 for v in norms)

    def test_generated_lazily_once_per_length(self):
        # importing the package generates no kernel; solvers of one state
        # length share one
        script = (
            "import dulac, dulac.flow as f\n"
            "info = f._attempt_kernel.cache_info\n"
            "assert info().currsize == 0, info()\n"
            "rot = lambda y: [-y[1], y[0]]\n"
            "a = f.RK45(rot, [1.0, 0.0], 1.0, 1e-9)\n"
            "b = f.RK45(rot, [0.0, 2.0], -3.0, 1e-6)\n"
            "c = f.RK45(lambda y: [1.0, 0.0, y[0]], [0.0] * 3, 1.0, 1e-9)\n"
            "assert a._attempt is b._attempt is not c._attempt\n"
            "assert info().misses == 2, info()\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


class TestRightHandSideContract:
    """A right-hand side is ``fun(y)``: it is called with one positional
    argument, the state as a list of floats, and never with the time."""

    @staticmethod
    def _checked(fun, lengths):
        def checked(*args, **kwargs):
            assert not kwargs and len(args) == 1, (args, kwargs)
            (y,) = args
            assert type(y) is list and all(type(v) is float for v in y), y
            lengths.append(len(y))
            return fun(y)

        return checked

    def test_rk45_and_steps(self):
        def rotation(y):
            return [-y[1], y[0]]

        lengths = []
        solver = flow.RK45(self._checked(rotation, lengths), [1.0, 0.0], 1.0,
                           1e-9)
        while not solver.finished:
            solver.step()
        assert abs(solver.y[0] - math.cos(1.0)) <= 1e-7
        for solver in flow._steps(self._checked(rotation, lengths), (1, 0),
                                  -1.0, 1e-9):
            pass
        assert abs(solver.y[1] + math.sin(1.0)) <= 1e-7
        assert len(lengths) > 20 and set(lengths) == {2}

    def test_compile_field(self, monkeypatch):
        compile_field = flow.compile_field
        assert compile_field(VDP)([2.0, 0.0]) == [0.0, -2.0]
        lengths = []
        monkeypatch.setattr(flow, "compile_field", lambda system:
                            self._checked(compile_field(system), lengths))
        traj = integrate(VDP, (2.0, 0.0), 1.0)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert len(lengths) > 20 and set(lengths) == {2}


class TestPoincare:
    def test_rotation_full_turn(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 10.0)
        rot = parse_system("P = -y\nQ = x")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        z, t = poincare_return(rot, section, (1.0, 0.0))
        assert abs(t - 2 * math.pi) < 1e-6
        assert abs(z.x - 1.0) < 1e-6
        assert abs(section.signed_distance(z)) <= 1e-10

    def test_saddle_never_returns(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 20.0)
        saddle = parse_system("P = x\nQ = -y")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        with pytest.raises(NoReturnError):
            poincare_return(saddle, section, (1.0, 0.0))

    def test_van_der_pol_return_against_bisection_oracle(self, monkeypatch):
        # the orbit leaves (2, 0) downward, so the near-side return crossing
        # has decreasing signed distance
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 20.0)
        section = Section(anchor=Point(2.0, 0.0), normal=(0.0, -1.0))
        z, t = poincare_return(VDP, section, (2.0, 0.0))
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
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 10.0)
        rot = parse_system("P = -y\nQ = x")
        section = Section(anchor=Point(1.0, 0.0), normal=(0.0, 1.0))
        with pytest.raises(NoReturnError, match="integration failed"):
            poincare_return(rot, section, (1.0, 0.0))

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

    def test_crossing_is_along_the_normal(self, monkeypatch):
        # the rotation crosses y = 0 upward at (1, 0) and downward at
        # (-1, 0): a flipped normal picks the other crossing
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 10.0)
        rot = parse_system("P = -y\nQ = x")
        up = Section(anchor=Point(0.0, 0.0), normal=(0.0, 1.0))
        down = Section(anchor=Point(0.0, 0.0), normal=(0.0, -1.0))
        z, t = poincare_return(rot, up, (0.5, 0.0))
        assert abs(t - 2 * math.pi) < 1e-6 and abs(z.x - 0.5) < 1e-6
        z, t = poincare_return(rot, down, (0.5, 0.0))
        assert abs(t - math.pi) < 1e-6 and abs(z.x + 0.5) < 1e-6


class TestDetectLimitCycle:
    def test_van_der_pol(self):
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        assert 1.95 <= report.amplitude_x <= 2.07
        assert 6.6 <= report.period <= 6.73
        assert report.stability is Stability.STABLE
        first, last = report.points[0], report.points[-1]
        assert math.hypot(first.x - last.x, first.y - last.y) <= 10 * 1e-10

    def test_stable_loop_is_the_period_return(self):
        # the loop is sampled on the return that measures the period: it
        # starts at the fixed point and ends where that return meets the
        # section through the seed
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        section = Section.through((2.0, 0.0), VDP((2.0, 0.0)))
        start, end = report.points[0], report.points[-1]
        assert section.signed_distance(start) == 0.0
        z, t = poincare_return(VDP, section, start)
        assert abs(section.along(z) - section.along(start)) <= 1e-9
        assert (end, report.period) == (z, t)
        assert abs(section.signed_distance(end)) <= 1e-10
        times = report.times
        assert times[0] == 0.0 and times[-1] == report.period
        assert all(s < t for s, t in zip(times, times[1:]))

    def test_rotation_marginal_family(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_ITERS", 10)
        rot = parse_system("P = -y\nQ = x")
        report = detect_limit_cycle(rot, (1.0, 0.0))
        assert report.stability is Stability.MARGINAL
        assert abs(report.return_map_slope - 1.0) <= 1e-3
        assert abs(report.period - 2 * math.pi) < 1e-6

    def test_radial_not_found(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_ITERS", 10)
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 20.0)
        radial = parse_system("P = x\nQ = y")
        with pytest.raises(CycleNotFoundError):
            detect_limit_cycle(radial, (1.0, 0.0))

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

        def spy(system, section, z0):
            sections.append(section)
            return poincare_return(system, section, z0)

        monkeypatch.setattr(flow, "poincare_return", spy)
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        assert 6.6 <= report.period <= 6.73
        # X(2, 0) = (0, -2): the section is y = 0, crossed downward
        assert {(s.anchor, s.normal) for s in sections} == {
            (Point(2.0, 0.0), (0.0, -1.0))}

    def test_step_budget_is_cycle_not_found(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 5)
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        with pytest.raises(CycleNotFoundError, match="return map undefined"):
            detect_limit_cycle(VDP, (2.0, 0.0))

    def test_unstable_annulus_cycle_in_forward_time(self):
        annulus = parse_system("P = -x - y + x*(x^2+y^2)\n"
                               "Q = x - y + y*(x^2+y^2)")
        report = detect_limit_cycle(annulus, (1.0, 0.0))
        assert report.stability is Stability.UNSTABLE
        # the period is measured backward, where the cycle attracts
        assert abs(report.period - 2 * math.pi) < 1e-8

    def test_unstable_loop_stays_on_the_cycle(self):
        # sampled forward from the fixed point, the loop drifted off r = 1
        # by the return-map slope (8.7e3): 8.7e-6 at its end.  Backward it
        # stays on the cycle, and ascending time ends at the fixed point on
        # the section y = 0 through the seed
        annulus = parse_system("P = -x - y + x*(x^2+y^2)\n"
                               "Q = x - y + y*(x^2+y^2)")
        report = detect_limit_cycle(annulus, (1.0, 0.0))
        assert report.stability is Stability.UNSTABLE
        assert max(abs(math.hypot(*z) - 1) for z in report.points) <= 1e-8
        assert report.times[0] == 0.0 and report.times[-1] == report.period
        assert all(s < t for s, t in zip(report.times, report.times[1:]))
        end = report.points[-1]
        assert end.y == 0.0 and abs(end.x - 1) <= 1e-8

    def test_report_values_are_python_floats(self, monkeypatch):
        # the period and a located exit time were numpy.float64
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        assert type(report.period) is float
        assert {type(t) for t in report.times} == {float}
        rot = parse_system("P = -y\nQ = x")
        domain = Box2(Fraction(-1), Fraction(1), Fraction(0), Fraction(1))
        traj = integrate(rot, (1.0, 0.5), 10.0, 1e-9, domain)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        assert {type(t) for t in traj.times} == {float}

    def test_loop_sampling_failure_raises(self, monkeypatch):
        # the first return (which converges) and the slope probe succeed;
        # only the third run, from the fixed point, which samples the loop
        # and measures the period, fails
        runs = []

        class FailsOnThirdRun(flow.RK45):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

            def step(self):
                super().step()
                if len(runs) == 3:
                    raise flow._StepFailure("failed from the fixed point")

        monkeypatch.setattr(flow, "RK45", FailsOnThirdRun)
        monkeypatch.setattr(flow, "CYCLE_MAX_ITERS", 10)
        rot = parse_system("P = -y\nQ = x")
        with pytest.raises(CycleNotFoundError, match="no period return"):
            detect_limit_cycle(rot, (1.0, 0.0))
        assert len(runs) == 3

    @pytest.fixture
    def returns(self, monkeypatch):
        """(section, start, time budget, u of the return) of each return,
        through ``poincare_return`` or not."""
        calls = []
        first_return = flow._first_return

        def counting(system, section, z0, t_max, loop=None):
            z_next, t_next = first_return(system, section, z0, t_max, loop)
            calls.append((section, z0, t_max, section.along(z_next)))
            return z_next, t_next

        monkeypatch.setattr(flow, "_first_return", counting)
        return calls

    def test_first_return_converges(self, returns):
        # one return to converge, then one for the slope and one for the
        # period and loop, both at the fixed point, forward for a marginal
        # family
        rot = parse_system((SYSTEMS / "rotation.vf").read_text())
        report = detect_limit_cycle(rot, (1.0, 0.0))
        assert report.stability is Stability.MARGINAL
        (s, z0, t0, r0), (_, z_slope, t_slope, _), \
            (_, z_period, t_period, r_period) = returns
        assert z0 == s.point_at(0.0) and abs(r0) <= 1e-9
        assert z_slope == s.point_at(r0 + 1e-4)
        assert z_period == s.point_at(r0)
        assert t0 == t_slope == t_period == flow.CYCLE_MAX_TIME
        assert report.points[0] == z_period
        assert s.along(report.points[-1]) == r_period

    def test_secant_run(self, returns):
        # plain iteration from the first return (there is no previous
        # residual yet), then one secant step, which converges
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        assert report.stability is Stability.STABLE
        assert len(returns) == 5
        (s, z0, _, r0), (_, z1, _, r1), (_, z2, _, r2) = returns[:3]
        u0, u1 = 0.0, r0
        f0, f1 = r0 - u0, r1 - u1
        u2 = u1 - f1 * (u1 - u0) / (f1 - f0)
        assert [z0, z1, z2] == [s.point_at(u0), s.point_at(u1),
                                s.point_at(u2)]
        assert abs(r2 - u2) <= 1e-9
        assert [z for _, z, _, _ in returns[3:]] == [s.point_at(r2 + 1e-4),
                                                     s.point_at(r2)]
        assert {t for _, _, t, _ in returns} == {flow.CYCLE_MAX_TIME}

    def test_unstable_cycle_period_runs_backward(self, returns):
        # the slope probe is forward like every return-map call; the one
        # run from the fixed point is backward, and it is the loop's end
        annulus = parse_system("P = -x - y + x*(x^2+y^2)\n"
                               "Q = x - y + y*(x^2+y^2)")
        report = detect_limit_cycle(annulus, (1.0, 0.0))
        assert report.stability is Stability.UNSTABLE
        *search, (s, z_period, t_period, r_period) = returns
        assert {t for _, _, t, _ in search} == {flow.CYCLE_MAX_TIME}
        assert t_period == -flow.CYCLE_MAX_TIME
        assert report.points[-1] == z_period
        assert s.along(report.points[0]) == r_period

    def test_no_iterations_is_one_return(self, returns, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_ITERS", 0)
        with pytest.raises(CycleNotFoundError, match="within 0 iterations"):
            detect_limit_cycle(VDP, (2.0, 0.0))
        assert len(returns) == 1

    def test_cycle_csv(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == len(report.points) + 1


class TestCertificateConsistency:
    def test_no_cycle_inside_van_der_pol_strip(self, monkeypatch):
        strip = Box2(Fraction(-19, 20), Fraction(19, 20),
                     Fraction(-4), Fraction(4))
        assert bendixson(VDP, strip).conclusion \
            is Conclusion.NO_PERIODIC_ORBIT_FULLY_CONTAINED
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        report = detect_limit_cycle(VDP, (2.0, 0.0))
        assert not all(strip.contains_point(p, strict=True)
                       for p in report.points)

    def test_random_certified_linear_systems(self, monkeypatch):
        monkeypatch.setattr(flow, "CYCLE_MAX_ITERS", 8)
        monkeypatch.setattr(flow, "CYCLE_TOL", 1e-9)
        monkeypatch.setattr(flow, "CYCLE_MAX_TIME", 30.0)
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
                report = detect_limit_cycle(field, seed)
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
