"""The four benchmark workloads: seeded generators, items, oracles, digests.

Each workload turns ``--seed`` into an endless stream of raw inputs.
Generators use only ``random`` and ``fractions``; the package receives the
inputs as text (`.vf` systems, polynomial expressions, region strings) and
parses them itself.  ``run`` is the timed call into the package.  ``check``
runs afterwards, outside the timed span, and returns the oracle verdict, a
canonical record for the output digest and exact work counts.  The oracles
use the generator's own polynomials and ``oracle.py``, never the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

TWO_PI = 2 * math.pi
# limit-cycle period expected on each systems/*.vf; None: no cycle may be found
EXPECTED_PERIOD = {
    "cubic_circle": TWO_PI,
    "radial": None,
    "rotation": TWO_PI,
    "saddle": None,
    "shear": None,
    "vanderpol": 6.6632868593,
}
PERIOD_TOL = 1e-6
MIN_RADIUS = 1e-3
# local-dulac: largest condition number of the carrier's leading form
# |Az|^2 (that is cond(A)^2) that the generator lets through
MAX_FORM_CONDITION = 10_000
# certify-queries: an inconclusive answer needs a carrier whose minimum on a
# grid of the box is at most this share of its largest magnitude there
INCONCLUSIVE_MARGIN = 1e-3


def _frac(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _text(terms):
    """Expression text of {(i, j): Fraction}; '0' for the zero polynomial."""
    parts = [f"({c})*x^{i}*y^{j}" for (i, j), c in sorted(terms.items())]
    return " + ".join(parts) if parts else "0"


def _rand_terms(rng, max_degree, max_terms=6):
    """Random real polynomial, the law of the test suite's rand_poly."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms[(i, j)] = _frac(rng, 9, 9)
    return {e: c for e, c in terms.items() if c}


def _box(d):
    return tuple(Fraction(d[k]) for k in ("x_min", "x_max", "y_min", "y_max"))


class Workload:
    """A seeded item stream; the first ``prefix`` items are digested and
    traced, and the tail latency is taken per block of ``tail_block`` items
    (``prefix`` unless a workload sets it)."""

    name = ""
    prefix = 1
    min_items = 1  # a timed run measures at least this many items
    pass_size = 1  # and stops only after a multiple of this
    default_seed = 1

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir

    @property
    def tail_block(self):
        return self.prefix

    def generate(self, seed):
        """Endless stream of raw inputs, a function of the seed only."""
        raise NotImplementedError

    def parse(self, dulac, n, raw):
        """Item n, its inputs parsed by the package from text."""
        raise NotImplementedError

    def run(self, dulac, item):
        """The timed call into the package."""
        raise NotImplementedError

    def check(self, item, out):
        """(ok, record, counts) for one item, computed outside the timing."""
        raise NotImplementedError

    def inputs(self, seed):
        return list(itertools.islice(self.generate(seed), self.prefix))

    def setup(self, dulac, raws):
        return [self.parse(dulac, n, raw) for n, raw in enumerate(raws)]

    def stream(self, dulac, seed, start):
        """Items from number ``start`` on, parsed lazily."""
        raws = itertools.islice(self.generate(seed), start, None)
        for n, raw in enumerate(raws, start):
            yield self.parse(dulac, n, raw)


class Analyze(Workload):
    """The CLI's `analyze` on each systems/*.vf over a jittered [-4,4]^2."""

    name = "analyze"
    default_seed = 7

    def __init__(self, root, out_dir):
        super().__init__(root, out_dir)
        self.paths = sorted((root / "systems").glob("*.vf"))
        self.prefix = self.min_items = self.pass_size = len(self.paths)
        # P and Q from the oracle's own parser, for the B = 1 carriers
        self.fields = {p.stem: oracle.parse_vf(p.read_text())
                       for p in self.paths}

    def generate(self, seed):
        # Corners move by k/256, |k| <= 4.  Moves of k/16 changed a system's
        # cost by up to 30% (cubic_circle 4.7-8.0 s), which a run of one
        # pass cannot average out.
        rng = random.Random(seed)
        while True:
            for path in self.paths:
                k = [rng.randint(-4, 4) for _ in range(4)]
                x0, x1 = Fraction(-1024 + k[0], 256), Fraction(1024 + k[1], 256)
                y0, y1 = Fraction(-1024 + k[2], 256), Fraction(1024 + k[3], 256)
                yield path, f"{x0}:{x1},{y0}:{y1}"

    def parse(self, dulac, n, raw):
        # the CLI reads and parses the file again inside every item
        path, region = raw
        dulac.parse.parse_system(path.read_text())
        return {"n": n, "path": path, "region": region,
                "out": self.out_dir / "analyze.json"}

    def run(self, dulac, item):
        return dulac.cli.main([
            "analyze", "--system", str(item["path"]),
            f"--region={item['region']}", "--format", "json",
            "--out", str(item["out"])])

    def check(self, item, rc):
        stem = item["path"].stem
        with open(item["out"], encoding="utf-8") as fh:
            res = json.load(fh)["result"]
        periods = [c["period"] for c in res["limit_cycles"]]
        expected = EXPECTED_PERIOD[stem]
        if expected is None:
            ok = not periods and rc in (0, 2)
        else:
            ok = bool(periods) and rc == 1 and all(
                oracle.close(p, expected, PERIOD_TOL) for p in periods)
        p, q = self.fields[stem]
        div_x = oracle.div_bx(oracle.pconst(1), p, q)
        local_boxes = set()
        for lc in res["local_certificates"]:
            box = _box(lc["box"])
            local_boxes.add(box)
            carrier = oracle.parse(lc["certificate"]["carrier"])
            center = (float(box[0] + box[1]) / 2, float(box[2] + box[3]) / 2)
            ok &= lc["certificate"]["outcome"] == "positive"
            ok &= lc["multiplier"]["type"] == "poly" and carrier == (
                oracle.div_bx(oracle.parse(lc["multiplier"]["p"]), p, q))
            ok &= oracle.positive_on_samples(
                carrier, box, (item["n"], len(local_boxes)),
                core=(*center, MIN_RADIUS))
        for k, b in enumerate(res["global_boxes_certified"]):
            box = _box(b)
            if box not in local_boxes:
                ok &= oracle.positive_on_samples(div_x, box, (item["n"], k),
                                                 n=500)
        record = {
            "system": stem, "region": item["region"], "rc": rc,
            "equilibria": [e["classification"] for e in res["equilibria"]],
            "local": [[lc["box"], lc["certificate"]["depth"],
                       lc["certificate"]["box_count"]]
                      for lc in res["local_certificates"]],
            "certified": len(res["global_boxes_certified"]),
            "uncovered": len(res["uncovered_regions"]),
            "cycles": [[f"{c['period']:.8f}", c["stability"]]
                       for c in res["limit_cycles"]],
        }
        counts = {
            "equilibria": len(res["equilibria"]),
            "local_certificates": len(res["local_certificates"]),
            "local_leaf_boxes": sum(lc["certificate"]["box_count"]
                                    for lc in res["local_certificates"]),
            "certified_boxes": record["certified"],
            "uncovered_tiles": record["uncovered"],
            "limit_cycles": len(periods),
        }
        return ok, record, counts


def _eigen_real_parts(a, b, c, d):
    """Real parts of the eigenvalues of [[a, b], [c, d]] (closed form)."""
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        return (tr + root) / 2.0, (tr - root) / 2.0
    return tr / 2.0, tr / 2.0


def _form_well_conditioned(a, b, c, d):
    """cond(A^T A) <= MAX_FORM_CONDITION for A = [[a, b], [c, d]], exactly.

    For a positive definite 2x2 form with eigenvalue ratio r >= 1,
    tr^2/det = r + 2 + 1/r grows with r, so the test needs no square root.
    """
    s11, s12, s22 = a * a + c * c, a * b + c * d, b * b + d * d
    tr, det = s11 + s22, s11 * s22 - s12 * s12
    k = MAX_FORM_CONDITION
    return det > 0 and k * tr * tr <= (k + 1) ** 2 * det


class LocalDulac(Workload):
    """local_dulac_hyperbolic at the origin of perturbed linear fields.

    The generator is acceptance criterion 9's, with one more rejection:
    linear parts whose carrier form |Az|^2 has a condition number above
    MAX_FORM_CONDITION.  Seed 909 still gives criterion 9's 50 systems as
    the first 50 items.
    """

    name = "local-dulac"
    prefix = 50
    min_items = 250
    default_seed = 909

    def generate(self, seed):
        rng = random.Random(seed)
        while True:
            a, b, c, d = (_frac(rng, 8, 4) for _ in range(4))
            re1, re2 = _eigen_real_parts(float(a), float(b), float(c), float(d))
            if min(abs(re1), abs(re2)) < 0.1:
                continue
            if (a + d) == 0 or (3 * a ** 2 + 10 * a * d
                                - 4 * b * c + 3 * d ** 2) == 0:
                continue
            # The carrier vanishes at the origin with leading form |Az|^2.
            # Above this condition number the ring search's depth budget
            # (8) can run out before the 1e-3 core: without this test the
            # 15 failures in 34,200 draws all had 2.0e4 or more.
            if not _form_well_conditioned(a, b, c, d):
                continue
            p_terms = {(1, 0): a, (0, 1): b}
            q_terms = {(1, 0): c, (0, 1): d}
            for terms in (p_terms, q_terms):
                for _ in range(rng.randint(1, 3)):
                    i = rng.randint(0, 3)
                    j = rng.randint(0, 3 - i)
                    if i + j < 2:
                        j = 2 - i
                    coeff = Fraction(rng.randint(-1, 1), rng.randint(10, 40))
                    if coeff:
                        terms[(i, j)] = coeff
            yield ({e: v for e, v in p_terms.items() if v},
                   {e: v for e, v in q_terms.items() if v})

    def parse(self, dulac, n, raw):
        text = f"P = {_text(raw[0])}\nQ = {_text(raw[1])}\n"
        return {"n": n, "pq": raw, "system": dulac.parse.parse_system(text)}

    def run(self, dulac, item):
        # any DulacError, CertificationFailedError included, fails the item
        return dulac.synthesis.local_dulac_hyperbolic(
            item["system"], dulac.poly.Point(0.0, 0.0), min_radius=MIN_RADIUS)

    def check(self, item, out):
        mult, box, cert = out
        carrier = oracle.from_terms(cert.carrier.terms)
        b = oracle.from_terms(mult.p.terms)
        bounds = (box.x_min, box.x_max, box.y_min, box.y_max)
        ok = (carrier == oracle.div_bx(b, *item["pq"])
              and box.x_max - box.x_min >= Fraction(2 * MIN_RADIUS)
              and oracle.positive_on_samples(carrier, bounds, item["n"],
                                             n=4000,
                                             core=(0.0, 0.0, MIN_RADIUS)))
        o = cert.outcome
        record = {"b": str(mult), "box": str(box), "depth": o.max_depth_used,
                  "leaves": o.box_count}
        counts = {"certified": 1, "leaf_boxes": o.box_count,
                  "depth_sum": o.max_depth_used}
        return ok, record, counts


class CertifyQueries(Workload):
    """Independent certify_dulac queries: random cubic X, B, box; depth 6."""

    name = "certify-queries"
    prefix = min_items = 1000
    # p95 per 200 queries: the p99 per 1000 is set by the VM's hiccups
    # (IQR/median 16-21% over ten runs, against 2-5% at p95)
    tail_block = 200
    default_seed = 2024

    def generate(self, seed):
        rng = random.Random(seed)
        while True:
            p, q = _rand_terms(rng, 3), _rand_terms(rng, 3)
            b = None if rng.random() < 0.5 else _rand_terms(rng, 2)
            x0, y0 = _frac(rng, 4, 3), _frac(rng, 4, 3)
            box = (x0, x0 + Fraction(rng.randint(1, 4), 2),
                   y0, y0 + Fraction(rng.randint(1, 4), 2))
            yield p, q, b, box

    def parse(self, dulac, n, raw):
        p, q, b, box = raw
        parse = dulac.parse
        return {"n": n, "raw": raw,
                "system": dulac.poly.VectorField(parse.parse_poly(_text(p)),
                                                 parse.parse_poly(_text(q))),
                "b": parse.parse_multiplier("1" if b is None else _text(b)),
                "box": dulac.certify.Box2(*box)}

    def run(self, dulac, item):
        return dulac.certify.certify_dulac(item["system"], item["b"],
                                           item["box"], max_depth=6)

    def check(self, item, out):
        p, q, b, box = item["raw"]
        cert = out.certificate
        carrier = oracle.from_terms(cert.carrier.terms)
        ok = carrier == oracle.div_bx(oracle.pconst(1) if b is None else b,
                                      p, q)
        o = cert.outcome
        kind = type(o).__name__.lower()
        record = {"outcome": kind, "depth": cert.depth}
        if kind == "violation":
            wx, wy = o.witness
            ok &= (box[0] <= wx <= box[1] and box[2] <= wy <= box[3]
                   and oracle.eval_exact(carrier, wx, wy) == o.value <= 0)
            record["witness"] = [str(wx), str(wy), str(o.value)]
        elif kind == "positive":
            ok &= oracle.positive_on_samples(carrier, box, item["n"], n=500)
            record["leaves"] = o.box_count
        else:
            # Undecided at depth 6 is sound only for a carrier with almost
            # no margin on the box; with a clear margin it must certify.
            ok &= oracle.margin_on_grid(carrier, box) <= INCONCLUSIVE_MARGIN
            record["undecided"] = o.undecided_boxes
        counts = {kind: 1, "depth_sum": cert.depth,
                  "leaf_boxes": record.get("leaves", 0)}
        return ok, record, counts


class Algebra(Workload):
    """Cofactors, Darboux relations, Leibniz and printing on X = f*g*(a1, a2)."""

    name = "algebra"
    prefix = min_items = 300
    default_seed = 606

    def generate(self, seed):
        rng = random.Random(seed)
        while True:
            f, g = _rand_terms(rng, 2), _rand_terms(rng, 2)
            if not any(i + j for i, j in f) or not any(i + j for i, j in g):
                continue
            a1, a2 = _rand_terms(rng, 1), _rand_terms(rng, 1)
            yield f, g, a1, a2, _rand_terms(rng, 3)

    def parse(self, dulac, n, raw):
        return {"n": n, "raw": raw,
                "polys": [dulac.parse.parse_poly(_text(t)) for t in raw]}

    def run(self, dulac, item):
        darboux, poly = dulac.darboux, dulac.poly
        f, g, a1, a2, b = item["polys"]
        fg = f * g
        field = poly.VectorField(fg * a1, fg * a2)
        curves = [darboux.cofactor_of(h, field, check_degeneracy=False)
                  for h in (f, g, fg)]
        try:
            integral = darboux.darboux_first_integral(curves[:2])
        except dulac.errors.NoNontrivialRelationError:
            integral = None
        lhs = poly.div_product(b, field)
        round_trip = dulac.parse.parse_poly(poly.format_poly(field.p))
        return field, curves, integral, lhs, round_trip

    def check(self, item, out):
        field, curves, integral, lhs, round_trip = out
        f, g, a1, a2, b = item["raw"]
        fg = oracle.pmul(f, g)
        p, q = oracle.pmul(fg, a1), oracle.pmul(fg, a2)
        ks = [oracle.from_terms(c.k.terms) for c in curves]
        if (None in ks or oracle.from_terms(field.p.terms) != p
                or oracle.from_terms(field.q.terms) != q):
            return False, {"field_or_cofactor": "wrong"}, {}
        ok = all(oracle.pmul(h, k) == oracle.lie(h, p, q)
                 for h, k in zip((f, g, fg), ks))
        ok &= ks[2] == oracle.padd(ks[0], ks[1])
        if integral is None:
            ok &= not oracle.proportional(ks[0], ks[1])
            exponents = None
        else:
            lams = [lam for _, lam in integral.curve_factors]
            ok &= not any(lam.im for lam in lams)
            lams = [Fraction(lam.re) for lam in lams]
            total = oracle.padd(oracle.pscale(ks[0], lams[0]),
                                oracle.pscale(ks[1], lams[1]))
            ok &= not total and any(lams)
            exponents = [str(lam) for lam in lams]
        ok &= oracle.from_terms(lhs.terms) == oracle.div_bx(b, p, q)
        ok &= oracle.from_terms(round_trip.terms) == p
        record = {"k": [sorted((e, str(c)) for e, c in k.items()) for k in ks],
                  "exponents": exponents, "div_terms": len(lhs.terms)}
        counts = {"relations": integral is not None,
                  "no_relation": integral is None,
                  "cofactor_terms": sum(len(k) for k in ks)}
        return ok, record, counts


WORKLOADS = {w.name: w for w in (Analyze, LocalDulac, CertifyQueries, Algebra)}
