"""Brute-force ground truth: geodesic-distance minimization over a k-plane.

Candidates are parametrized projectively: a direction mu on the unit
sphere of face-coefficient space names the manifold point
v = normalize(sum mu_i * face_i), so the search domain is compact and
sheet/scale bookkeeping is delegated to the normalization.  The search
scores a batch of seeded random probe directions (just +-1 for a
one-vertex face) and refines the best one with derivative-free
Nelder-Mead restarts in its tangent space.  Both stages score ambient
pre-points by one chord rule, not normalized first: the probe stage
scores its batch of pre-points mu . F in one ``_score_block`` call, and
the refinement scores each step delta at the affine pre-point
(mu + basis . delta) . F by ``_score_row``, the same operations in the
same order on Python floats (the tests hold it to the batch bit for
bit).  Derivative-free on purpose: the score is +inf wherever a
candidate is not normalizable.  The Nelder-Mead is this module's own
``_nelder_mead``, a port on Python floats of the branch of scipy's that
the refinement uses; it hands the objective the same points in the same
order, bit for bit, but inserts the one vertex a step replaces where
scipy re-sorts all of them.  So the package needs numpy alone (and
``import hsproj`` loads no scipy).

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
search never touches Gram matrices, minors, the normal frame or a face
plan: it reads the face rows from the vertices by ``simplex.face_complement``
and returns only what it finds, an ``OracleResult`` of foot and distance.
It is allowed to be orders of magnitude slower.  The seeded random
simplices and points it is checked on come from ``generators``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import OracleFailure
from .forms import (
    DEFAULT_TOLS, Model, Tolerances, _is_integer, _require_on_manifold, distance, normalize_to_manifold,
)
from .simplex import Simplex, face_complement

__all__ = ["OracleOptions", "OracleResult", "oracle_project"]

PROBE_DIRECTIONS = 1024
# initial Nelder-Mead step of the first refinement restart (radians)
FIRST_REFINE_STEP = math.pi / 25
# convergence tolerance of each Nelder-Mead restart (xatol; fatol is 1e-5
# of it); its iteration cap is scipy's default, 200 per coordinate
CONVERGENCE_TOL = 1e-10
_LIGHT_TOL = 1e-12


@dataclass(frozen=True)
class OracleOptions:
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"oracle seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class OracleResult:
    """The foot the search found, and ``forms.distance`` from the point to it."""

    foot: np.ndarray
    distance: float


def _score_block(V: np.ndarray, pv: np.ndarray, model: Model) -> np.ndarray:
    """Squared chord <p - v, p - v> of the candidate v = normalize(V_i) of
    each ambient pre-point row V_i (any positive scale); +inf where it is
    not normalizable (space-like or near-null in the Lorentzian case).
    The probe stage scores its whole batch here; the refinement scores one
    pre-point at a time by ``_score_row``."""
    q = model.curvature * np.einsum("ni,i,ni->n", V, model.signature, V)
    ok = q > _LIGHT_TOL
    root = np.sqrt(np.where(ok, q, 1.0))
    if model.curvature == -1:
        # upper sheet: a time-like row has V_0 != 0
        root = np.copysign(root, V[:, 0])
    r = pv - V / root[:, None]
    return np.where(ok, np.einsum("ni,i,ni->n", r, model.signature, r), np.inf)


def _score_row(v: list, p: list, sig: list, curvature: int) -> float:
    """``_score_block`` of the one pre-point ``v`` on Python floats, operation
    for operation and in the same order (the tests hold the two to the same
    bits); ``p`` and ``sig`` are the point and the signature as lists."""
    q = 0.0
    for x, s in zip(v, sig):
        q += x * s * x
    q = curvature * q
    if not q > _LIGHT_TOL:
        return math.inf
    root = math.sqrt(q)
    if curvature == -1:
        root = math.copysign(root, v[0])
    score = 0.0
    for pi, x, s in zip(p, v, sig):
        r = pi - x / root
        score += r * s * r
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
    CONVERGENCE_TOL * 1e-5 of its value, or after 200 N - 1 steps.  The
    arithmetic, its order and the vertex order are those of scipy's
    ``minimize(method="Nelder-Mead")`` at its default ``maxiter`` (200 N),
    ``xatol=CONVERGENCE_TOL`` and ``fatol=CONVERGENCE_TOL * 1e-5``, so ``fun``
    sees the same points in the same order (``tests/test_oracle.py`` checks).

    The simplex is held as lists of Python floats, since numpy's per-call
    cost dwarfs the arithmetic on a few coordinates: the centroid is the
    sequential row sum over N, as ``np.add.reduce`` forms it, and ``fun``
    receives a list.  Where scipy argsorts after every step, a step that
    moves only the worst vertex inserts it by bisection: N + 1 distinct
    values without NaN have one sorting permutation, which any sort returns.
    Only ties (several inf vertices, 0.0 and -0.0) and NaN reach numpy's
    argsort, which may order them unlike a stable sort.  ``sim`` is not modified.
    """
    n = sim.shape[1]
    sim = sim.tolist()
    fsim = [fun(x) for x in sim]

    def ordered(sim, fsim):
        order = sorted(range(n + 1), key=fsim.__getitem__)
        strict = all(fsim[a] < fsim[b] for a, b in zip(order, order[1:]))
        if not strict:  # a tie or a NaN: numpy's order, as in scipy
            order = np.array(fsim).argsort().tolist()
        return [sim[k] for k in order], [fsim[k] for k in order], strict

    # scipy sorts twice before its first step: the order of tied values
    # (e.g. several inf vertices) may depend on it
    sim, fsim, strict = ordered(*ordered(sim, fsim)[:2])
    for _ in range(200 * n - 1):
        best, fbest = sim[0], fsim[0]
        # all(), not max(): a NaN difference fails the test, as under np.max
        if (
            all(abs(a - b) <= CONVERGENCE_TOL for x in sim[1:] for a, b in zip(x, best))
            and all(abs(fbest - f) <= CONVERGENCE_TOL * 1e-5 for f in fsim[1:])
        ):
            break
        xbar = sim[0]
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        fxr = fun(xr)
        if fxr < fbest:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = fun(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]  # outside contraction
                fxc = fun(xc)
                accept = fxc <= fxr
            else:
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]  # inside contraction
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
                strict = False  # N vertices moved: sort them all
        k = bisect_left(fsim, fsim[-1], 0, n)
        if strict and (k == n or fsim[-1] < fsim[k]):  # the new value ties none and is no NaN
            sim.insert(k, sim.pop())
            fsim.insert(k, fsim.pop())
        else:
            sim, fsim, strict = ordered(sim, fsim)
    return np.array(sim[0]), float(np.min(fsim))


def oracle_project(
    simplex: Simplex,
    face,
    p,
    opts: OracleOptions = OracleOptions(),
    tols: Tolerances = DEFAULT_TOLS,
) -> OracleResult:
    """Foot and distance found by direct minimization over the face's plane.

    Deterministic for a fixed ``opts.seed`` (the seed drives the random
    probe directions).
    """
    pv = _require_on_manifold(simplex.model, p, tols, "point")
    face_pts = simplex.vertices[face_complement(simplex, face)[0]]
    model = simplex.model
    d = face_pts.shape[0]

    # probe stage: the best of a batch of seeded directions
    if d == 1:
        probes = np.array([[1.0], [-1.0]])
    else:
        probes = np.random.default_rng(opts.seed).normal(size=(PROBE_DIRECTIONS, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    scores = _score_block(probes @ face_pts, pv, model)
    i = int(np.argmin(scores))
    best, mu = float(scores[i]), probes[i] / np.linalg.norm(probes[i])
    if not np.isfinite(best):
        raise OracleFailure("no normalizable candidate direction among the probes")

    # refinement stage: Nelder-Mead in the tangent space of the best
    # direction, restarted with shrinking initial steps; the offset delta
    # is scored at its pre-point (mu + basis . delta) . F, which stays a
    # numpy product (a Python sum rounds otherwise and would move the
    # iterates); only its score runs on floats
    if d > 1:
        point, sig, curvature, dot = pv.tolist(), model.signature.tolist(), model.curvature, np.dot

        def objective_at(origin, steps):
            return lambda delta: _score_row((origin + dot(delta, steps)).tolist(), point, sig, curvature)

        for h in (FIRST_REFINE_STEP, 1e-3, 1e-6):
            basis = _tangent_basis(mu)
            init = np.vstack([np.zeros(d - 1), np.eye(d - 1) * h])
            x, fx = _nelder_mead(objective_at(mu @ face_pts, basis.T @ face_pts), init)
            if math.isfinite(fx) and fx <= best:
                best = fx
                v = mu + basis @ x
                mu = v / np.linalg.norm(v)

    foot = normalize_to_manifold(model, mu @ face_pts)
    return OracleResult(foot, distance(model, pv, foot, tols))
