"""Closed-form orthogonal projection onto k-planes spanned by simplex faces.

A k-face of the simplex (any k+1 of its vertices, 0 <= k <= n-1) spans a
k-plane of the manifold.  Every foot and distance here, from a point or
from a vertex, is one solve of the face block of the edge matrix, the same
in both geometries:

1. solve  M[face,face] . mu = w  with  w_i = <p_i, p>,
2. form the pre-foot  p. = sum_i mu_i p_i  (the component of p in the span
   of the face vertices),
3. rescale the pre-foot onto the manifold.

The paper's route through the complement Gram block G22 gives the same
foot, by the block-inverse identity (M^11)^-1 = T S(G22) T.  Step 1 yields
two radicands without cancellation: s2 = <p - p., p - p.> (sinh^2 or sin^2
of the distance) and c2 = curvature * mu . w (cosh^2 or cos^2), and
``forms._angle`` reads the distance off them: asinh(sqrt s2) in H^n,
atan2(sqrt s2, sqrt c2) in S^n.  The normal coefficients need no minor:
<e_s, p_t> = -delta_st / T_s, so lambda_t = -T_t <p. - p, p_t> with
T = Simplex.scaling.  When c2 is not safely positive in the spherical case
the nearest point is not unique (p sits at distance pi/2 from the whole
plane): the foot constructors raise ProjectionUndefined while the plain
distance routines return pi/2.

The paper's bordered-minor formula for (G22)^-1 is kept as the
cross-check ``crosscheck.distance_to_face_by_minors``; this module imports
nothing from ``crosscheck``.

Any face is accepted, not only the leading vertex block in which the
closed forms are stated.  All indices are 1-based and pass the index rule
of ``simplex`` (face_complement for faces); an invalid face or vertex
raises BadFace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadFace, DomainError, ProjectionUndefined
from .forms import DEFAULT_TOLS, Model, Tolerances, _angle, _require_on_manifold, normalize_to_manifold
from .simplex import Simplex, _index_positions, face_complement

__all__ = [
    "ProjectionResult",
    "face_complement",
    "project_to_face",
    "distance_to_face",
    "project_to_hyperplane",
    "vertex_foot",
    "altitude",
]


@dataclass(frozen=True)
class ProjectionResult:
    """Foot of the perpendicular, its distance, and the normal coefficients.

    ``lambdas`` maps each complement vertex index (1-based) to the
    coefficient of its facet normal in pre_foot - p; ``pre_foot`` is the
    unnormalized projection (the point called p-dot in the derivation).
    """

    foot: np.ndarray
    distance: float
    lambdas: dict[int, float]
    pre_foot: np.ndarray


def _face_solve(simplex: Simplex, face0: np.ndarray, pv: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Steps 1-2: the pre-foot and its radicands s2 = <p - p., p - p.>, c2 = curvature * mu . w."""
    sig = simplex.model.signature
    face_pts = simplex.vertices[face0]
    w = (face_pts * sig) @ pv
    mu = np.linalg.solve(simplex.edge_matrix[face0][:, face0], w)
    pre_foot = mu @ face_pts
    r = pv - pre_foot
    return pre_foot, float((r * sig) @ r), simplex.model.curvature * float(mu @ w)


def _lambdas(simplex: Simplex, comp0: np.ndarray, displacement: np.ndarray) -> dict[int, float]:
    """Coefficients of ``displacement`` (p. - p) in the complement normals, keyed 1-based.

    lambda_t = <displacement, p_t> / <e_t, p_t> = -T_t <displacement, p_t>,
    since <e_s, p_t> = -delta_st / T_s.
    """
    comp_pts = simplex.vertices[comp0] * simplex.model.signature
    lam = (comp_pts @ displacement) * -simplex.scaling[comp0]
    return dict(zip((comp0 + 1).tolist(), lam.tolist()))


def _distance(model: Model, s2: float, c2: float, tols: Tolerances) -> float:
    """``forms._angle`` of the radicands, after their range checks.

    A c2 off its range by more than ``tols.domain`` raises DomainError.  A
    spherical c2 within ``tols.norm`` of 0 gives exactly pi/2: the distance
    is well-defined there even though the foot is not.
    """
    if model.curvature == -1:
        if c2 < 1.0 - tols.domain:
            raise DomainError(f"hyperbolic radicand {c2!r} fell below 1")
    elif c2 <= tols.norm:
        return math.pi / 2
    elif c2 > 1.0 + tols.domain:
        raise DomainError(f"spherical radicand {c2!r} exceeds 1")
    return _angle(model, s2, c2)


def _finish(
    simplex: Simplex,
    pre_foot: np.ndarray,
    s2: float,
    c2: float,
    lambdas: dict[int, float],
    tols: Tolerances,
    what: str,
) -> ProjectionResult:
    model = simplex.model
    if model.curvature == 1 and c2 <= tols.norm:
        raise ProjectionUndefined(
            f"{what}: point is at distance pi/2 from the plane; the foot is not unique"
        )
    foot = normalize_to_manifold(model, pre_foot, tols.norm)
    return ProjectionResult(foot, _distance(model, s2, c2, tols), lambdas, pre_foot)


def _project(
    simplex: Simplex, face0: np.ndarray, comp0: np.ndarray, pv: np.ndarray, tols: Tolerances, what: str
) -> ProjectionResult:
    pre_foot, s2, c2 = _face_solve(simplex, face0, pv)
    return _finish(simplex, pre_foot, s2, c2, _lambdas(simplex, comp0, pre_foot - pv), tols, what)


def project_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Orthogonal projection of p onto the k-plane of the selected face.

    One solve of the face block of the edge matrix (steps 1-3 above).  The
    foot is the unique geodesic-distance minimizer over the plane
    (spherical exception: ProjectionUndefined at distance pi/2).
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    face0, comp0 = face_complement(simplex, face)
    return _project(simplex, face0, comp0, pv, tols, f"face {tuple((face0 + 1).tolist())}")


def distance_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance to the face's k-plane: project_to_face's solve, stopped at its radicands.

    In the spherical case a c2 within tolerance of 0 returns exactly pi/2.
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    face0, _ = face_complement(simplex, face)
    _, s2, c2 = _face_solve(simplex, face0, pv)
    return _distance(simplex.model, s2, c2, tols)


def project_to_hyperplane(
    simplex: Simplex,
    j: int,
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Fast path for the facet hyperplane opposite vertex j.

    sigma(p) = (p - <p,e_j> e_j) / sqrt(1 + <p,e_j>^2) in H^n and the same
    with 1 - <p,e_j>^2 in S^n, so s2 = <p,e_j>^2; agrees with
    project_to_face on the face that omits j.
    """
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    e_j = simplex.normals[j0]
    a = float((pv * simplex.model.signature) @ e_j)
    pre_foot = pv - a * e_j
    c2 = 1.0 - simplex.model.curvature * a * a
    return _finish(simplex, pre_foot, a * a, c2, {j0 + 1: -a}, tols, f"hyperplane opposite {j0 + 1}")


def _opposite_vertex(simplex: Simplex, face: Sequence[int], j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Face and complement arrays and the 0-based position of vertex j, which must lie outside the face."""
    face0, comp0 = face_complement(simplex, face)
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    if j0 in face0:
        raise BadFace(f"vertex {j0 + 1} must lie outside the face {tuple((face0 + 1).tolist())}")
    return face0, comp0, j0


def vertex_foot(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Perpendicular foot from vertex p_j onto a face not containing it.

    project_to_face's solve run on p_j, bit for bit, without checking the
    vertex again; the coefficients are the paper's lambda_s = T_s m_j^s / m_face.
    """
    face0, comp0, j0 = _opposite_vertex(simplex, face, j)
    what = f"vertex {j0 + 1} onto face {tuple((face0 + 1).tolist())}"
    return _project(simplex, face0, comp0, simplex.vertices[j0], tols, what)


def altitude(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance from vertex p_j to the k-plane of an opposite face.

    distance_to_face run on p_j, bit for bit.  The paper's radicands
    1 - curvature * m_j^j / m_face and, for a facet, 1 - curvature * det M / M_jj
    give the same c2; the tests keep them as cross-checks.
    """
    face0, _, j0 = _opposite_vertex(simplex, face, j)
    _, s2, c2 = _face_solve(simplex, face0, simplex.vertices[j0])
    return _distance(simplex.model, s2, c2, tols)
