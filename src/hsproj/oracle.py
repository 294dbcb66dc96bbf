"""Brute-force ground truth: geodesic-distance minimization over a k-plane.

Candidates are parametrized projectively: a direction mu on the unit
sphere of face-coefficient space names the manifold point
v = normalize(sum mu_i * face_i), so the search domain is compact and
sheet/scale bookkeeping is delegated to the normalization.  The search
scores a batch of seeded random probe directions (just +-1 for a
one-vertex face) and refines the best one with derivative-free
Nelder-Mead restarts in its tangent space.  Derivative-free on purpose:
the score is +inf wherever a candidate is not normalizable.  The
Nelder-Mead is this module's own ``_nelder_mead``, a bit-identical port
of the branch of scipy's that the refinement uses, so the package needs
numpy alone (and ``import hsproj`` loads no scipy).

The score of a candidate is its squared chord <p - v, p - v>, computed
from ambient coordinates: 4 sinh^2(d/2) in H^n and 4 sin^2(d/2) in S^n,
so it rises with the distance d and keeps its digits as d -> 0, where
cosh d and cos d lose them.  No dense grid is needed because it has no
spurious local minima on the plane: in H^n the distance to a point is
convex along geodesics (CAT(-1); Bridson & Haefliger II.2), so it has a
single minimum on a totally geodesic k-plane; in S^n the chord
2 - 2 <p, v> on a great k-sphere has just two critical points, the foot
and its antipode.  The reported distance is ``forms.distance`` from p to
the foot found.

This module is the independent check of the closed-form projection: its
search never touches Gram matrices, minors or the normal frame.  It is
allowed to be orders of magnitude slower.

Also hosts the reproducible random generators used by the property and
acceptance tests.  All randomness uses numpy's Generator with the PCG64
bit generator, explicitly seeded, so runs reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, DimensionMismatch, GenerationExhausted, OracleFailure
from .forms import DEFAULT_TOLS, Model, Tolerances, _require_on_manifold, distance, normalize_to_manifold
from .projection import ProjectionResult, _lambdas
from .simplex import Simplex, build_simplex, face_complement

__all__ = ["OracleOptions", "oracle_project", "random_simplex", "random_point"]

PROBE_DIRECTIONS = 1024
# initial Nelder-Mead step of the first refinement restart (radians)
FIRST_REFINE_STEP = math.pi / 25
# iteration cap of each Nelder-Mead restart and its convergence tolerance
# (xatol; fatol is 1e-5 of it)
REFINE_ITERATIONS = 200
CONVERGENCE_TOL = 1e-10
_LIGHT_TOL = 1e-12

# random_simplex also rejects draws whose edge matrix is conditioned worse
# than this: barely-nondegenerate simplices (cond ~ 1e8) pass the validity
# floor but void the 1e-8 identity tolerances the test populations are
# measured against; 1e5 keeps residuals ~1e-10 and costs < ~6% retries.
GENERATOR_CONDITION_LIMIT = 1e5
GENERATOR_MAX_TRIES = 1000


@dataclass(frozen=True)
class OracleOptions:
    seed: int = 0


def _score_block(mu: np.ndarray, F: np.ndarray, pv: np.ndarray, model: Model) -> np.ndarray:
    """Squared chord <p - v, p - v> of the candidate v = normalize(mu . F) of
    each direction row of mu; +inf where the candidate is not normalizable
    (space-like or near-null in the Lorentzian case)."""
    V = mu @ F
    q = model.curvature * np.einsum("ni,i,ni->n", V, model.signature, V)
    score = np.full(mu.shape[0], np.inf)
    ok = q > _LIGHT_TOL
    if np.any(ok):
        v = V[ok] / np.sqrt(q[ok])[:, None]
        if model.curvature == -1:
            v[v[:, 0] < 0.0] *= -1.0
        r = pv - v
        score[ok] = np.einsum("ni,i,ni->n", r, model.signature, r)
    return score


def _tangent_basis(mu: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to mu (Euclidean)."""
    d = mu.size
    q, _ = np.linalg.qr(np.column_stack([mu, np.eye(d)]), mode="reduced")
    return q[:, 1:d]


def _nelder_mead(fun, sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` by Nelder-Mead from the (N+1, N) initial simplex ``sim``.

    Returns the best vertex and its value.  Reflection 1, expansion 2,
    contraction 1/2, shrink 1/2; stops when every vertex lies within
    CONVERGENCE_TOL of the best one and every value within
    CONVERGENCE_TOL * 1e-5 of its value, or after REFINE_ITERATIONS - 1
    steps.  The arithmetic, its order and
    the argsort after every step are those of scipy's
    ``minimize(method="Nelder-Mead")`` with ``maxiter=REFINE_ITERATIONS``,
    ``xatol=CONVERGENCE_TOL`` and ``fatol=CONVERGENCE_TOL * 1e-5``, so the
    iterates are bit-identical to it (``tests/test_oracle.py`` checks).
    ``sim`` is not modified.
    """
    n = sim.shape[1]
    fsim = np.array([fun(x) for x in sim], dtype=float)

    def ordered(sim, fsim):
        order = np.argsort(fsim)
        return sim[order], fsim[order]

    # scipy sorts twice before its first step: the order of tied values
    # (e.g. several inf vertices) may depend on it
    sim, fsim = ordered(*ordered(sim, fsim))
    for _ in range(REFINE_ITERATIONS - 1):
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= CONVERGENCE_TOL
            and np.max(np.abs(fsim[0] - fsim[1:])) <= CONVERGENCE_TOL * 1e-5
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = fun(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fun(sim[j])
        sim, fsim = ordered(sim, fsim)
    return sim[0], float(np.min(fsim))


def oracle_project(
    simplex: Simplex,
    face,
    p,
    opts: OracleOptions = OracleOptions(),
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Foot and distance found by direct minimization over the face's plane.

    Deterministic for a fixed ``opts.seed`` (the seed drives the random
    probe directions).
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    face0, comp0 = face_complement(simplex, face)
    model = simplex.model
    hyper = model.curvature == -1
    face_pts = simplex.vertices[face0]
    d = face_pts.shape[0]

    # probe stage: the best of a batch of seeded directions
    if d == 1:
        probes = np.array([[1.0], [-1.0]])
    else:
        probes = np.random.default_rng(opts.seed).normal(size=(PROBE_DIRECTIONS, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    scores = _score_block(probes, face_pts, pv, model)
    i = int(np.argmin(scores))
    best, mu = float(scores[i]), probes[i] / np.linalg.norm(probes[i])
    if not np.isfinite(best):
        raise OracleFailure("no normalizable candidate direction among the probes")

    # refinement stage: Nelder-Mead in the tangent space of the best
    # direction, restarted with shrinking initial steps
    if d > 1:
        def objective_at(center, basis):
            def g(delta):
                v = center + basis @ delta
                nv = np.linalg.norm(v)
                if nv < 1e-12:
                    return np.inf
                return float(_score_block((v / nv)[None, :], face_pts, pv, model)[0])

            return g

        for h in (FIRST_REFINE_STEP, 1e-3, 1e-6):
            basis = _tangent_basis(mu)
            init = np.vstack([np.zeros(d - 1), np.eye(d - 1) * h])
            x, fx = _nelder_mead(objective_at(mu, basis), init)
            if math.isfinite(fx) and fx <= best:
                best = fx
                v = mu + basis @ x
                mu = v / np.linalg.norm(v)

    foot = normalize_to_manifold(model, mu @ face_pts, tols.norm)
    dist = distance(model, pv, foot, tols)
    scale = math.cosh(dist) if hyper else math.cos(dist)
    pre_foot = scale * foot

    # coefficients of pre_foot - p in the complement normal basis by the
    # projection's own formula (report decoration; the search above never
    # used the normal frame)
    return ProjectionResult(foot, dist, _lambdas(simplex, comp0, pre_foot - pv), pre_foot)


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
    build_simplex accepts and the edge matrix is well conditioned
    (GENERATOR_CONDITION_LIMIT), up to GENERATOR_MAX_TRIES times.
    """
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {n}")
    if model.ambient_dim != n + 1:
        raise DimensionMismatch(
            f"model ambient_dim {model.ambient_dim} does not match n+1 = {n + 1}"
        )
    rng = np.random.default_rng(seed)
    m = n + 1
    for _ in range(GENERATOR_MAX_TRIES):
        if model.curvature == -1:
            vertices = np.array([random_point(model, rng) for _ in range(m)])
        else:
            vertices = rng.normal(size=(m, m))
            vertices /= np.linalg.norm(vertices, axis=1, keepdims=True)
            gram = np.clip(vertices @ vertices.T, -1.0, 1.0)
            pair = np.arccos(gram[np.triu_indices(m, 1)])
            if pair.min() < 0.2 or pair.max() > 2.0:
                continue
        try:
            # only genuine degeneracy is retried; anything else is a bug
            simplex = build_simplex(model, vertices, tols)
        except DegenerateSimplex:
            continue
        if np.linalg.cond(simplex.edge_matrix) <= GENERATOR_CONDITION_LIMIT:
            return simplex
    raise GenerationExhausted(f"no valid {model.name} {n}-simplex in {GENERATOR_MAX_TRIES} tries")
