"""Spans and counters recorded around the package's entry points.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces
module attributes at their call sites (``dulac.analyze.bendixson``,
``dulac.synthesis.certify_positive``, ...) and a few class attributes with
wrappers, and ``uninstall`` puts the originals back.  A span wrapper records
calls, busy time (outermost spans of a name only), self time (the span minus
the child spans it covers) and raised exceptions; a counter wrapper only
counts.  Only these totals are kept.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

# Per-layer metrics, in the order they are reported: (name, unit).
LAYER_METRICS = [
    ("certify.convert.calls", "count"), ("certify.convert.s", "s"),
    ("certify.split.calls", "count"), ("certify.split.s", "s"),
    ("certify.leaf_boxes", "count"), ("certify.leaf_ratio", "ratio"),
    ("certify.certify_positive.calls", "count"),
    ("certify.certify_positive.s", "s"),
    ("certify.outcome.positive", "count"),
    ("certify.outcome.violation", "count"),
    ("certify.outcome.inconclusive", "count"),
    ("synthesis.punctured_box.calls", "count"),
    ("synthesis.punctured_box.s", "s"),
    ("synthesis.punctured_box.accepted", "count"),
    ("synthesis.punctured_box.accept_ratio", "ratio"),
    ("synthesis.local_dulac_hyperbolic.calls", "count"),
    ("synthesis.local_dulac_hyperbolic.s", "s"),
    ("synthesis.local_quadratic_multiplier.s", "s"),
    ("flow.rk_steps", "count"), ("flow.rhs_evals", "count"),
    ("flow.poincare_return.calls", "count"), ("flow.poincare_return.s", "s"),
    ("flow.poincare_return.failed", "count"),
    ("flow.detect_limit_cycle.calls", "count"),
    ("flow.detect_limit_cycle.s", "s"),
    ("flow.detect_limit_cycle.failed", "count"),
    ("flow.cycle_seed_yield", "ratio"),
    ("flow.find_equilibria.calls", "count"), ("flow.find_equilibria.s", "s"),
    ("poly.evaluate.calls", "count"),
    ("analyze.run_analyze.s", "s"), ("analyze.self_s", "s"),
    ("analyze.stage.equilibria.s", "s"), ("analyze.stage.local.s", "s"),
    ("analyze.stage.tiles.s", "s"), ("analyze.stage.cycles.s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.poly_divide.calls", "count"), ("poly.poly_divide.s", "s"),
    ("poly.div_product.calls", "count"), ("poly.div_product.s", "s"),
    ("darboux.cofactor_of.calls", "count"), ("darboux.cofactor_of.s", "s"),
    ("darboux.darboux_first_integral.calls", "count"),
    ("darboux.darboux_first_integral.s", "s"),
    ("parse.calls", "count"), ("parse.s", "s"),
    ("cli.main.s", "s"), ("cli.self_s", "s"),
    ("trace.items", "count"), ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"), ("trace.overhead_s", "s"),
]


class Tracer:
    """Span and counter totals; ``clock`` reads the time spans take."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = Counter()
        self.failed = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []  # [name, start, covered-by-children]
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        stack, calls, clock = self._stack, self.calls, self.clock

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _close(self, frame, end):
        name, start, covered = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_time[name] += duration - covered
        if all(f[0] != name for f in self._stack):
            self.busy[name] += duration

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` in every dulac module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dulac" and not mod_name.startswith("dulac."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, dulac):
        certify, synthesis, flow = dulac.certify, dulac.synthesis, dulac.flow
        poly, darboux, parse = dulac.poly, dulac.darboux, dulac.parse
        count = self.calls

        def outcome(cert):
            count["certify.outcome." + type(cert.outcome).__name__.lower()] += 1

        def accepted(cert):
            count["synthesis.punctured_box.accepted"] += cert is not None

        def cycles(report):
            count["flow.cycles_found"] += len(report.limit_cycles)

        def counted_field(system):
            return self.counter("flow.rhs_evals", original_compile(system))

        original_compile = flow.compile_field
        spans = [
            (certify.bernstein_coefficients, "certify.convert", None),
            (certify.certify_positive, "certify.certify_positive", outcome),
            (synthesis.certify_punctured_box, "synthesis.punctured_box", accepted),
            (synthesis.local_dulac_hyperbolic,
             "synthesis.local_dulac_hyperbolic", None),
            (synthesis.local_quadratic_multiplier,
             "synthesis.local_quadratic_multiplier", None),
            (flow.poincare_return, "flow.poincare_return", None),
            (flow.detect_limit_cycle, "flow.detect_limit_cycle", None),
            (flow.find_equilibria, "flow.find_equilibria", None),
            (dulac.analyze.run_analyze, "analyze.run_analyze", cycles),
            (poly.poly_divide, "poly.poly_divide", None),
            (poly.div_product, "poly.div_product", None),
            (darboux.cofactor_of, "darboux.cofactor_of", None),
            (darboux.darboux_first_integral,
             "darboux.darboux_first_integral", None),
            (parse.parse_poly, "parse", None),
            (parse.parse_system, "parse", None),
            (parse.parse_multiplier, "parse", None),
            (parse.parse_constant, "parse", None),
            (dulac.cli.main, "cli.main", None),
        ]
        # stage spans wrap run_analyze's own call sites, over the layer spans
        stages = [
            ("find_equilibria", "analyze.stage.equilibria"),
            ("local_quadratic_multiplier", "analyze.stage.local"),
            ("certify_punctured_box", "analyze.stage.local"),
            ("bendixson", "analyze.stage.tiles"),
            ("detect_limit_cycle", "analyze.stage.cycles"),
        ]
        for fn, name, hook in spans:
            self._patch_everywhere(fn, self.span(name, fn, hook))
        self._patch_everywhere(original_compile, counted_field)
        for attr, name in stages:
            fn = getattr(dulac.analyze, attr)
            self._set(dulac.analyze, attr, self.span(name, fn))

        patch_cls = certify.BernsteinPatch
        self._set(patch_cls, "subdivide",
                  self.span("certify.split", patch_cls.subdivide))
        min_coeff = patch_cls.min_coefficient.fget

        def leaf_test(patch):
            value = min_coeff(patch)
            count["certify.leaf_boxes"] += value > 0
            return value

        self._set(patch_cls, "min_coefficient", property(leaf_test))
        mul = self.counter("poly.mul", poly.Poly.__mul__)
        self._set(poly.Poly, "__mul__", mul)
        self._set(poly.Poly, "__rmul__", mul)
        self._set(poly.Poly, "evaluate",
                  self.counter("poly.evaluate", poly.Poly.evaluate))

        class CountedRK45(flow.RK45):
            def step(inner):
                count["flow.rk_steps"] += 1
                return super().step()

        self._set(flow, "RK45", CountedRK45)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def metrics(self):
        """Every LAYER_METRICS value except the trace.* ones.

        ``<layer>.calls``, ``.s`` and ``.failed`` read the calls, busy time
        and failures of span or counter ``<layer>``; other names are counts
        kept under their own name, or one of the derived values below.
        """
        c = self.calls
        out = {
            "certify.leaf_ratio": _ratio(
                c["certify.leaf_boxes"],
                c["certify.convert"] + 4 * c["certify.split"]),
            "synthesis.punctured_box.accept_ratio": _ratio(
                c["synthesis.punctured_box.accepted"],
                c["synthesis.punctured_box"]),
            "flow.cycle_seed_yield": _ratio(c["flow.cycles_found"],
                                            c["flow.detect_limit_cycle"]),
            "analyze.self_s": self.self_time["analyze.run_analyze"],
            "cli.self_s": self.self_time["cli.main"],
        }
        for name, _ in LAYER_METRICS:
            stem, _, suffix = name.rpartition(".")
            if name in out or name.startswith("trace."):
                continue
            if suffix == "calls":
                out[name] = c[stem]
            elif suffix == "failed":
                out[name] = self.failed[stem]
            elif suffix == "s":
                out[name] = self.busy[stem]
            else:
                out[name] = c[name]
        return out


def _ratio(num, den):
    return num / den if den else 0.0
