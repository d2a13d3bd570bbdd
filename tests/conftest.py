"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from dulac.flow import eigenvalues_2x2
from dulac.poly import CRat, Poly, VectorField

# --- seeded random generators (for bulk loops with frozen seeds) ---


def rand_fraction(rng: random.Random, num_bound: int = 9,
                  den_bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound),
                    rng.randint(1, den_bound))


def rand_poly(rng: random.Random, max_degree: int = 5, max_terms: int = 6,
              allow_complex: bool = False) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        re = rand_fraction(rng)
        im = rand_fraction(rng) if allow_complex and rng.random() < 0.5 else 0
        terms[(i, j)] = CRat(re, im)
    return Poly(terms)


def rand_field(rng: random.Random, max_degree: int = 5) -> VectorField:
    p = rand_poly(rng, max_degree)
    q = rand_poly(rng, max_degree)
    return VectorField(p=p, q=q)


def perturbed_linear_field(rng: random.Random) -> VectorField:
    """Acceptance criterion 9's law: a hyperbolic linear field whose
    quadratic Dulac multiplier exists, plus one to three random terms of
    degree 2 or 3 in each component."""
    while True:
        a, b, c, d = (Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                      for _ in range(4))
        e1, e2 = eigenvalues_2x2(float(a), float(b), float(c), float(d))
        if min(abs(e1.real), abs(e2.real)) < 0.1:
            continue
        if (a + d) == 0 or (3 * a ** 2 + 10 * a * d
                            - 4 * b * c + 3 * d ** 2) == 0:
            continue
        p_terms = {(1, 0): CRat(a), (0, 1): CRat(b)}
        q_terms = {(1, 0): CRat(c), (0, 1): CRat(d)}
        for terms in (p_terms, q_terms):
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, 3)
                j = rng.randint(0, 3 - i)
                if i + j < 2:
                    j = 2 - i
                coeff = Fraction(rng.randint(-1, 1), rng.randint(10, 40))
                if coeff:
                    terms[(i, j)] = CRat(coeff)
        return VectorField(Poly(p_terms), Poly(q_terms))


# --- hypothesis strategies ---

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def polys(draw, max_degree: int = 5, max_terms: int = 6,
          allow_complex: bool = False):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        i = draw(st.integers(0, max_degree))
        j = draw(st.integers(0, max_degree - i))
        re = draw(fractions_st)
        im = draw(fractions_st) if allow_complex else Fraction(0)
        terms[(i, j)] = CRat(re, im)
    return Poly(terms)


@st.composite
def vector_fields(draw, max_degree: int = 5):
    return VectorField(p=draw(polys(max_degree)), q=draw(polys(max_degree)))


# --- numeric helpers ---


def batch_eval(p: Poly, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized real evaluation for sampling checks."""
    total = np.zeros_like(xs, dtype=float)
    for (i, j), c in p.terms.items():
        total = total + float(c.re) * xs ** i * ys ** j
    return total


def sample_box(box, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x_min, x_max, y_min, y_max = box.as_floats()
    xs = rng.uniform(x_min, x_max, n)
    ys = rng.uniform(y_min, y_max, n)
    return xs, ys


@pytest.fixture
def rng():
    return random.Random(20240817)
