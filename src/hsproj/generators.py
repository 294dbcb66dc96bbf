"""Reproducible random simplices and points.

The populations of the property and acceptance tests, ``check --random``
and the benchmark set-ups are drawn here; the oracle only searches.  All
randomness uses numpy's Generator with the PCG64 bit generator,
explicitly seeded, so runs reproduce exactly.  The spherical
``random_simplex`` draws and screens its candidate vertex sets in blocks
with stacked numpy calls; it returns the same simplex per seed as the
one-draw-per-try loop that defines it (``tests/test_oracle.py`` keeps
that loop as the reference).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from .errors import DegenerateSimplex, DimensionMismatch, GenerationExhausted
from .forms import DEFAULT_TOLS, Model, Tolerances
from .simplex import Simplex, build_simplex

__all__ = ["random_simplex", "random_point"]

# random_simplex builds with degenerate >= 1 / this, so it rejects draws with
# a worse-conditioned M: barely-nondegenerate simplices (cond ~ 1e8) void the
# 1e-8 identity bound (crosscheck.IDENTITY_TOL) the test populations are
# measured against; 1e5 keeps residuals ~1e-10 and costs < ~6% retries.
GENERATOR_CONDITION_LIMIT = 1e5
GENERATOR_MAX_TRIES = 1000
# spherical candidate vertex sets drawn and screened per numpy call; at
# n = 8 a simplex takes ~60 draws, at n = 2 a handful
_SCREEN_BATCH = 32


def random_point(model: Model, rng) -> np.ndarray:
    """Random on-manifold point; rng is a numpy Generator or a seed."""
    rng = np.random.default_rng(rng)
    n = model.n
    if model.curvature == -1:
        r = rng.uniform(0.2, 1.5)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        return np.concatenate([[math.cosh(r)], math.sinh(r) * u])
    x = rng.normal(size=n + 1)
    return x / np.linalg.norm(x)


def _spherical_draws(rng: np.random.Generator, m: int) -> Iterator[np.ndarray]:
    """The spherical draws whose pairwise distances all lie in [0.2, 2.0], in draw order.

    GENERATOR_MAX_TRIES draws of m unit vertices in all, screened
    _SCREEN_BATCH at a time (the last block cut to the tries left).  A
    Generator's normal stream over (k, m, m) is k successive (m, m) draws,
    and the stacked norm, matmul and arccos give each draw's figures bit
    for bit, so the draws that pass are those of one draw per try.
    """
    rows, cols = np.triu_indices(m, 1)
    for start in range(0, GENERATOR_MAX_TRIES, _SCREEN_BATCH):
        block = rng.normal(size=(min(_SCREEN_BATCH, GENERATOR_MAX_TRIES - start), m, m))
        block /= np.linalg.norm(block, axis=2, keepdims=True)
        gram = np.clip(block @ block.transpose(0, 2, 1), -1.0, 1.0)
        pair = np.arccos(gram[:, rows, cols])
        yield from block[~((pair.min(axis=1) < 0.2) | (pair.max(axis=1) > 2.0))]


def random_simplex(
    model: Model,
    n: int,
    seed: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> Simplex:
    """Random valid n-simplex, deterministic per seed (PCG64).

    Hyperbolic vertices are exponential-map style points (cosh r, sinh r u)
    with radius uniform in [0.2, 1.5]; spherical vertices are uniform on
    the sphere, resampled until all pairwise distances lie in [0.2, 2.0]
    (which also rules out near-antipodal pairs).  Draws are retried until
    build_simplex accepts them at degenerate >= 1 / GENERATOR_CONDITION_LIMIT
    (cond M within that limit), up to GENERATOR_MAX_TRIES draws.

    Spherical draws are made and screened against the distance window in
    blocks (``_spherical_draws``), which yields the same simplex per seed
    as drawing and screening one vertex set per try.
    """
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {n}")
    if model.ambient_dim != n + 1:
        raise DimensionMismatch(
            f"model ambient_dim {model.ambient_dim} does not match n+1 = {n + 1}"
        )
    rng = np.random.default_rng(seed)
    m = n + 1
    if model.curvature == -1:
        draws = (
            np.array([random_point(model, rng) for _ in range(m)])
            for _ in range(GENERATOR_MAX_TRIES)
        )
    else:
        draws = _spherical_draws(rng, m)
    screen = replace(tols, degenerate=max(tols.degenerate, 1 / GENERATOR_CONDITION_LIMIT))
    for vertices in draws:
        try:
            # only degeneracy (ill conditioning included) is retried; else a bug
            return build_simplex(model, vertices, screen)
        except DegenerateSimplex:
            continue
    raise GenerationExhausted(f"no valid {model.name} {n}-simplex in {GENERATOR_MAX_TRIES} tries")
