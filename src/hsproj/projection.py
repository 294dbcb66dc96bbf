"""Closed-form orthogonal projection onto k-planes spanned by simplex faces.

A k-face of the simplex (any k+1 of its vertices, 0 <= k <= n-1) spans a
k-plane of the manifold.  The complement normals {e_t : t not in face} are
a basis of the orthogonal complement of that span, so the projection of a
point p works in three short steps, identical in both geometries:

1. solve  G22 . lambda = -[<p, e_t>]  over the complement Gram block,
2. form the pre-foot  p. = p + sum_s lambda_s e_s  (the component of p in
   the span of the face vertices),
3. rescale the pre-foot onto the manifold.

The radicand c2 = curvature * <p., p.> equals cosh^2 of the hyperbolic
distance (always >= 1) or cos^2 of the spherical distance.  It falls out of
step 1 as c2 = 1 + curvature * <b, lambda>, so distance_to_face runs step 1
alone and builds neither the foot nor any minor.  When c2 is not safely
positive in the spherical case the nearest point is not unique (p sits at
distance pi/2 from the whole plane): the foot constructors raise
ProjectionUndefined while the plain distance routines return pi/2.

The paper's bordered-minor formula for (G22)^-1 is kept as the private
cross-check _distance_to_face_by_minors; no production path calls it.
vertex_foot and altitude read row j of the Schur complement S of the face
block of M (S[j,s] = m_j^s / m_face), solved once; they compute no minor.

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
from .forms import DEFAULT_TOLS, Model, Tolerances, _require_on_manifold, normalize_to_manifold
from .simplex import (
    Simplex,
    _index_positions,
    complement_gram_inverse,
    face_complement,
    schur_complement,
)

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


def _vertex_schur_row(
    simplex: Simplex, face: Sequence[int], j: int, tols: Tolerances
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, float]:
    """Row j of the Schur complement S of the face block of M, and c2 = 1 - curvature * S[j,j].

    Vertex j (1-based) must lie outside the face.  Returns the face and
    complement arrays, j's 0-based position, the row and c2.
    """
    face0, comp0 = face_complement(simplex, face)
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    if j0 in face0:
        raise BadFace(f"vertex {j0 + 1} must lie outside the face {tuple((face0 + 1).tolist())}")
    block = schur_complement(simplex.edge_matrix, comp0 + 1, tols.degenerate)
    pos = block.block_rows.index(j0 + 1)
    row = block.values[pos]
    return face0, comp0, j0, row, 1.0 - simplex.model.curvature * float(row[pos])


def _distance_from_radicand(model: Model, c2: float, tols: Tolerances) -> float:
    """Distance whose cosh^2 (hyperbolic) or cos^2 (spherical) equals c2.

    A spherical radicand within ``tols.norm`` of 0 gives exactly pi/2: the
    distance is well-defined there even though the foot is not.
    """
    if model.curvature == -1:
        if c2 < 1.0 - tols.domain:
            raise DomainError(f"hyperbolic radicand {c2!r} fell below 1")
        return math.acosh(math.sqrt(max(c2, 1.0)))
    if c2 <= tols.norm:
        return math.pi / 2
    if c2 > 1.0 + tols.domain:
        raise DomainError(f"spherical radicand {c2!r} exceeds 1")
    return math.acos(math.sqrt(min(max(c2, 0.0), 1.0)))


def _finish(
    simplex: Simplex,
    pre_foot: np.ndarray,
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
    return ProjectionResult(foot, _distance_from_radicand(model, c2, tols), lambdas, pre_foot)


def _solve_complement(
    simplex: Simplex, comp0: np.ndarray, pv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Step 1: the complement normals, lambda = -(G22)^-1 b and the radicand c2."""
    e_comp = simplex.normals[comp0]
    b = (e_comp * simplex.model.signature) @ pv
    g22 = simplex.gram_matrix[np.ix_(comp0, comp0)]
    lam = np.linalg.solve(g22, -b)
    return e_comp, lam, 1.0 + simplex.model.curvature * float(b @ lam)


def project_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Orthogonal projection of p onto the k-plane of the selected face.

    The foot is the unique geodesic-distance minimizer over the plane
    (spherical exception: ProjectionUndefined at distance pi/2).
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    face0, comp0 = face_complement(simplex, face)
    e_comp, lam, c2 = _solve_complement(simplex, comp0, pv)
    pre_foot = pv + lam @ e_comp
    lambdas = dict(zip((comp0 + 1).tolist(), lam.tolist()))
    return _finish(simplex, pre_foot, c2, lambdas, tols, f"face {tuple((face0 + 1).tolist())}")


def distance_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance to the face's k-plane from the radicand of step 1, no foot built.

    Runs the same G22 solve as project_to_face and stops at its radicand
    c2 = 1 + curvature * <b, lambda>; no minor is computed.  In the
    spherical case a radicand within tolerance of 0 returns exactly pi/2
    (the distance is still well-defined there even though the foot is not).
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    _, comp0 = face_complement(simplex, face)
    _, _, c2 = _solve_complement(simplex, comp0, pv)
    return _distance_from_radicand(simplex.model, c2, tols)


def _distance_to_face_by_minors(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Cross-check of distance_to_face through the paper's minors route.

    Evaluates the closed-form radical 1 - curvature * b' (G22)^-1 b with
    (G22)^-1 assembled from bordered edge-matrix minors
    (complement_gram_inverse), independently of the G22 solve.  No
    production path calls it; the CLI's ``distance_paths`` residual and
    the tests compare the two routes.
    """
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    face0, comp0 = face_complement(simplex, face)
    b = (simplex.normals[comp0] * simplex.model.signature) @ pv
    kinv = complement_gram_inverse(simplex, face0 + 1)
    c2 = 1.0 - simplex.model.curvature * float(b @ kinv @ b)
    return _distance_from_radicand(simplex.model, c2, tols)


def project_to_hyperplane(
    simplex: Simplex,
    j: int,
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Fast path for the facet hyperplane opposite vertex j.

    sigma(p) = (p - <p,e_j> e_j) / sqrt(1 + <p,e_j>^2) in H^n and the same
    with 1 - <p,e_j>^2 in S^n; agrees with project_to_face on the face that
    omits j.
    """
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    pv = _require_on_manifold(simplex.model, p, tols.manifold, "point")
    e_j = simplex.normals[j0]
    a = float((pv * simplex.model.signature) @ e_j)
    pre_foot = pv - a * e_j
    c2 = 1.0 - simplex.model.curvature * a * a
    return _finish(simplex, pre_foot, c2, {j0 + 1: -a}, tols, f"hyperplane opposite {j0 + 1}")


def vertex_foot(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Perpendicular foot from vertex p_j onto a face not containing it.

    Uses the vertex-specialized closed form: since <p_j, e_t> vanishes for
    every complement vertex t != j, only the s-sum survives and

        lambda_s = T_s * S[j,s],  T_s = sqrt|M_ss / det M|

    with S the Schur complement of the face block of the edge matrix
    (S[j,s] = m_j^s / m_face) and T the cached ``simplex.scaling``.  The
    pre-foot norm satisfies curvature * <p., p.> = 1 - curvature * S[j,j],
    the radicand ``altitude`` reads from the same row.
    """
    face0, comp0, j0, row, c2 = _vertex_schur_row(simplex, face, j, tols)
    lam = simplex.scaling[comp0] * row
    pre_foot = simplex.vertices[j0] + lam @ simplex.normals[comp0]
    lambdas = dict(zip((comp0 + 1).tolist(), lam.tolist()))
    what = f"vertex {j0 + 1} onto face {tuple((face0 + 1).tolist())}"
    return _finish(simplex, pre_foot, c2, lambdas, tols, what)


def altitude(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance from vertex p_j to the k-plane of an opposite face.

    Computed from the Schur complement of the face block of the edge
    matrix, the same row ``vertex_foot`` reads: the radicand is
    1 - curvature * S_jj (S_jj = a_jj hyperbolic, b_jj spherical).  The
    spherical undefined-foot limit returns pi/2.  For a facet the
    determinant ratio 1 - curvature * det M / M_jj gives the same
    radicand; the tests keep it as a cross-check.
    """
    *_, c2 = _vertex_schur_row(simplex, face, j, tols)
    return _distance_from_radicand(simplex.model, c2, tols)
