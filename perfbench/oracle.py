"""Correctness oracles that share no code with the package under test.

Polynomials here are plain dicts {(i, j): Fraction}, taken from the
generators, from the package's data (``Poly.terms``) or from text parsed
with Python's ``ast`` module.  Nothing in this file calls into ``dulac``:
a defect in the package's algebra, parser or printer cannot hide behind
the same defect in its checker.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction


def _clean(d):
    return {e: c for e, c in d.items() if c}


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def pscale(a, c):
    return _clean({e: v * c for e, v in a.items()})


def pmul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def pderive(a, axis):
    if axis == "x":
        return {(i - 1, j): c * i for (i, j), c in a.items() if i}
    return {(i, j - 1): c * j for (i, j), c in a.items() if j}


def pconst(c):
    return _clean({(0, 0): Fraction(c)})


def lie(f, p, q):
    """<grad f, (p, q)> computed from scratch."""
    return padd(pmul(p, pderive(f, "x")), pmul(q, pderive(f, "y")))


def div_bx(b, p, q):
    """Div(b*X) for X = (p, q), expanded directly as d(bp)/dx + d(bq)/dy."""
    return padd(pderive(pmul(b, p), "x"), pderive(pmul(b, q), "y"))


def from_terms(terms):
    """Dict form of a package ``Poly.terms`` mapping (data access only).

    Every polynomial in these workloads is real: an imaginary part is an
    error, reported as None so that comparisons with it fail.
    """
    if any(c.im for c in terms.values()):
        return None
    return _clean({e: Fraction(c.re) for e, c in terms.items()})


def eval_exact(a, x, y):
    """Exact rational value at a rational point."""
    return sum((c * Fraction(x) ** i * Fraction(y) ** j
                for (i, j), c in a.items()), Fraction(0))


def eval_float(a, xs, ys):
    """Vectorised float value on sample arrays."""
    total = xs * 0.0
    for (i, j), c in a.items():
        total = total + float(c) * xs ** i * ys ** j
    return total


def proportional(a, b):
    """True when a and b are linearly dependent over the rationals."""
    if not a or not b:
        return True
    if a.keys() != b.keys():
        return False
    e0 = next(iter(a))
    return all(a[e] * b[e0] == b[e] * a[e0] for e in a)


# --- text to polynomial via Python's own parser --------------------------------


def parse(text, params=None):
    """Parse the package's expression syntax (explicit *, ^) into dict form."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    env = {"x": {(1, 0): Fraction(1)}, "y": {(0, 1): Fraction(1)}}
    for name, value in (params or {}).items():
        env[name] = pconst(value)
    return _walk(tree.body, env)


def _walk(node, env):
    if isinstance(node, ast.Constant):
        return pconst(Fraction(str(node.value)))
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        v = _walk(node.operand, env)
        return pscale(v, -1) if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        left = _walk(node.left, env)
        if isinstance(node.op, ast.Pow):
            n = node.right.value
            out = pconst(1)
            for _ in range(n):
                out = pmul(out, left)
            return out
        right = _walk(node.right, env)
        if isinstance(node.op, ast.Add):
            return padd(left, right)
        if isinstance(node.op, ast.Sub):
            return padd(left, pscale(right, -1))
        if isinstance(node.op, ast.Mult):
            return pmul(left, right)
        if isinstance(node.op, ast.Div):
            (c,) = right.values()
            return pscale(left, 1 / c)
    raise ValueError(f"unsupported syntax: {ast.dump(node)}")


def parse_vf(text):
    """(P, Q) of a `.vf` file, with parameters substituted."""
    params, comps = {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if lhs.startswith("param "):
            params[lhs.split()[1]] = Fraction(rhs)
        else:
            comps[lhs] = rhs
    return parse(comps["P"], params), parse(comps["Q"], params)


# --- sampling checks -----------------------------------------------------------


def positive_on_samples(carrier, box, seed, n=2000, core=None):
    """Carrier > 0 at n uniform samples of box = (x0, x1, y0, y1).

    ``core`` = (cx, cy, r) excludes the square of half-width r about (cx, cy),
    the part a punctured local certificate leaves uncovered.
    """
    # numpy is imported here, not at module load, so that set-up timing
    # includes the package's own import of it
    import numpy as np

    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = (float(v) for v in box)
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    keep = np.ones(n, dtype=bool)
    if core is not None:
        cx, cy, r = core
        keep = (np.abs(xs - cx) > r) | (np.abs(ys - cy) > r)
    values = eval_float(carrier, xs[keep], ys[keep])
    return bool((values > 0).all())


def margin_on_grid(carrier, box, n=101):
    """Minimum of the carrier over an n x n grid of box = (x0, x1, y0, y1),
    as a share of its largest magnitude there (1 for a positive constant,
    <= 0 when some grid point is not positive)."""
    import numpy as np

    x0, x1, y0, y1 = (float(v) for v in box)
    xs, ys = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n))
    values = eval_float(carrier, xs.ravel(), ys.ravel())
    scale = np.abs(values).max()
    return float(values.min() / scale) if scale else 0.0


def close(a, b, tol):
    return math.isfinite(a) and abs(a - b) <= tol
