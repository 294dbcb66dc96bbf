"""Closed-form orthogonal projection onto k-planes spanned by simplex faces.

A k-face of the simplex (any k+1 of its vertices, 0 <= k <= n-1) spans a
k-plane of the manifold.  Every foot and distance here, from a point or
from a vertex, comes from the face block M_F = M[face,face] of the edge
matrix, the same in both geometries:

1. mu = M_F^-1 w  with  w_i = <p_i, p>,
2. form the pre-foot  p. = sum_i mu_i p_i  (the component of p in the span
   of the face vertices),
3. rescale the pre-foot onto the manifold.

Steps 1-2 and the normal coefficients read everything that does not depend
on p from the face's plan (``_face_plan``; no other module reads one): the
face vertices, the frame [F_sig; M_F^-1 F_sig] of the signed face rows,
the signed complement rows and -T over the complement for lambda, and the
face's label.  Step 1 is one product, (w, mu) = frame . p; the solve ran
once, on the face's first use.  The index rule runs on every call, and warm
and cold calls agree bit for bit.  The frame costs the distance no digits:
p. stays in the face's span whatever mu is, and s2 is stationary in mu.

The paper's route through the complement Gram block G22 gives the same
foot, by the block-inverse identity (M^11)^-1 = T S(G22) T.  Step 1 yields
two radicands without cancellation: s2 = <p - p., p - p.> (sinh^2 or sin^2
of the distance) and c2 = curvature * mu . w (cosh^2 or cos^2), and
``forms._angle`` reads the distance off them: asinh(sqrt s2) in H^n,
atan2(sqrt s2, sqrt c2) in S^n.  The normal coefficients need no minor:
<e_s, p_t> = -delta_st / T_s, so lambda_t = -T_t <p. - p, p_t> with
T = Simplex.scaling.  When a spherical c2 is within ``tols.manifold`` of 0
the nearest point is not unique (p sits at distance pi/2 from the whole
plane, up to the slack): the foot constructors raise ProjectionUndefined.
The plain distance routines need no such rule, since c2 keeps its relative
precision near 0 and atan2 reads pi/2 - eps to the last bit.

The paper's bordered-minor formula for (G22)^-1 is kept as the
cross-check ``crosscheck.distance_to_face_by_minors``; this module imports
nothing from ``crosscheck``.

Any face is accepted, not only the leading vertex block in which the
closed forms are stated.  All indices are 1-based and pass the index rule
of ``simplex`` (before the plan lookup for faces); an invalid face or
vertex raises BadFace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadFace, DegenerateSimplex, DomainError, ProjectionUndefined
from .forms import DEFAULT_TOLS, Model, Tolerances, _angle, _require_on_manifold, normalize_to_manifold
from .simplex import Simplex, _face_arrays, _frozen, _index_positions

__all__ = [
    "ProjectionResult",
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
    coefficient of its facet normal in p. - p, where p. = s(distance) foot,
    s = cosh in H^n and cos in S^n, is the unnormalized projection (p-dot).
    """

    foot: np.ndarray
    distance: float
    lambdas: dict[int, float]


@dataclass(frozen=True, eq=False)
class _FacePlan:
    """What every query on one face shares, independent of the point; arrays read-only."""

    face_pts: np.ndarray       # vertices[face0]
    frame: np.ndarray          # (2b, n+1): F_sig over M_F^-1 F_sig, F_sig = vertices[face0] * signature
    comp_pts_sig: np.ndarray   # vertices[comp0] * signature
    neg_scaling: np.ndarray    # -scaling[comp0]
    comp_keys: tuple[int, ...]  # complement, 1-based
    label: str                 # "face (1, 3, 4)", for messages


def _face_plan(simplex: Simplex, face: Sequence[int]) -> _FacePlan:
    """The simplex's plan for a face selector, built on first use.

    The index rule runs first on every call, so a face it refuses never
    reaches a plan, and the plan is looked up by the validated positions:
    ``(1, 3)`` and ``(np.int64(1), np.int64(3))`` share one.  At most one
    plan per distinct face, 2^(n+1) - 2 in all; the function stays pure,
    and a concurrent first use can at worst build the same plan twice.  A
    face block that passes a lowered ``degenerate`` floor but not the solve
    raises DegenerateSimplex and leaves no plan.
    """
    m = simplex.vertex_count
    key = tuple(_index_positions(face, m, BadFace, "face"))
    plan = simplex._face_plans.get(key)
    if plan is None:
        face0, comp0 = _face_arrays(m, key)
        label = f"face {tuple((face0 + 1).tolist())}"
        sig = simplex.model.signature
        face_pts = simplex.vertices[face0]
        face_sig = face_pts * sig
        try:
            solved = np.linalg.solve(simplex.edge_matrix[face0][:, face0], face_sig)
        except np.linalg.LinAlgError:
            raise DegenerateSimplex(f"edge-matrix block of the {label} is singular") from None
        plan = _FacePlan(
            _frozen(face_pts),
            _frozen(np.concatenate((face_sig, solved))),
            _frozen(simplex.vertices[comp0] * sig),
            _frozen(-simplex.scaling[comp0]),
            tuple((comp0 + 1).tolist()),
            label,
        )
        simplex._face_plans[key] = plan
    return plan


def _face_solve(model: Model, plan: _FacePlan, pv: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Steps 1-2: the pre-foot and its radicands s2 = <p - p., p - p.>, c2 = curvature * mu . w."""
    w, mu = (plan.frame @ pv).reshape(2, -1)
    pre_foot = mu @ plan.face_pts
    r = pv - pre_foot
    return pre_foot, float((r * model.signature) @ r), model.curvature * float(mu @ w)


def _lambdas(plan: _FacePlan, displacement: np.ndarray) -> dict[int, float]:
    """Coefficients of ``displacement`` (p. - p) in the complement normals, keyed 1-based.

    lambda_t = <displacement, p_t> / <e_t, p_t> = -T_t <displacement, p_t>,
    since <e_s, p_t> = -delta_st / T_s.
    """
    lam = (plan.comp_pts_sig @ displacement) * plan.neg_scaling
    return dict(zip(plan.comp_keys, lam.tolist()))


def _distance(model: Model, s2: float, c2: float, tols: Tolerances) -> float:
    """``forms._angle`` of the radicands, after one range check on c2.

    p = p. + r gives c2 + curvature * s2 = curvature * (<p,p> - <p., r>),
    where s2 >= 0 and <p., r> = 0 exactly: for a point that passes
    membership, c2 crosses 1 the wrong way (below in H^n, above in S^n) by
    at most its residual plus the orthogonality defect.  So
    curvature * c2 > curvature + ``tols.manifold`` raises DomainError.
    Near pi/2 no floor is needed: c2 = curvature * mu . w keeps its
    relative precision near 0, so the angle keeps its digits there too.
    """
    if model.curvature * c2 > model.curvature + tols.manifold:
        raise DomainError(f"{model.name} radicand {c2!r} is past 1 by more than {tols.manifold!r}")
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
    if model.curvature == 1 and c2 <= tols.manifold:
        raise ProjectionUndefined(
            f"{what}: point is at distance pi/2 from the plane; the foot is not unique"
        )
    return ProjectionResult(normalize_to_manifold(model, pre_foot), _distance(model, s2, c2, tols), lambdas)


def _project(simplex: Simplex, plan: _FacePlan, pv: np.ndarray, tols: Tolerances, what: str) -> ProjectionResult:
    pre_foot, s2, c2 = _face_solve(simplex.model, plan, pv)
    return _finish(simplex, pre_foot, s2, c2, _lambdas(plan, pre_foot - pv), tols, what)


def project_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Orthogonal projection of p onto the k-plane of the selected face.

    One product with the face's frame (steps 1-3 above).  The
    foot is the unique geodesic-distance minimizer over the plane
    (spherical exception: ProjectionUndefined at distance pi/2).
    """
    pv = _require_on_manifold(simplex.model, p, tols, "point")
    plan = _face_plan(simplex, face)
    return _project(simplex, plan, pv, tols, plan.label)


def distance_to_face(
    simplex: Simplex,
    face: Sequence[int],
    p,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance to the face's k-plane: project_to_face's steps, stopped at its radicands.

    Defined where the spherical foot is not: a point at pi/2 - eps from
    the plane gets pi/2 - eps, however small eps is.
    """
    pv = _require_on_manifold(simplex.model, p, tols, "point")
    _, s2, c2 = _face_solve(simplex.model, _face_plan(simplex, face), pv)
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
    project_to_face on the face that omits j.  The spherical c2 is
    <p., p.> of the pre-foot, not 1 - <p,e_j>^2, which cancels near pi/2.
    """
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    pv = _require_on_manifold(simplex.model, p, tols, "point")
    e_j = simplex.normals[j0]
    a = float((pv * simplex.model.signature) @ e_j)
    pre_foot = pv - a * e_j
    c2 = 1.0 + a * a if simplex.model.curvature == -1 else float(pre_foot @ pre_foot)
    return _finish(simplex, pre_foot, a * a, c2, {j0 + 1: -a}, tols, f"hyperplane opposite {j0 + 1}")


def _opposite_vertex(simplex: Simplex, face: Sequence[int], j: int) -> tuple[_FacePlan, int]:
    """The face's plan and the 0-based position of vertex j, which must lie outside the face."""
    plan = _face_plan(simplex, face)
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    if j0 + 1 not in plan.comp_keys:
        raise BadFace(f"vertex {j0 + 1} must lie outside the {plan.label}")
    return plan, j0


def vertex_foot(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProjectionResult:
    """Perpendicular foot from vertex p_j onto a face not containing it.

    project_to_face's steps run on p_j, bit for bit, without checking the
    vertex again; the coefficients are the paper's lambda_s = T_s m_j^s / m_face.
    """
    plan, j0 = _opposite_vertex(simplex, face, j)
    return _project(simplex, plan, simplex.vertices[j0], tols, f"vertex {j0 + 1} onto {plan.label}")


def altitude(
    simplex: Simplex,
    face: Sequence[int],
    j: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Distance from vertex p_j to the k-plane of an opposite face.

    distance_to_face run on p_j, bit for bit.  The paper's radicands
    1 - curvature * m_j^j / m_face and, for a facet, 1 - curvature * det M / M_jj
    give the same c2; they are kept as the cross-checks
    ``crosscheck.altitude_by_minors`` and
    ``crosscheck.facet_altitude_by_determinants``.
    """
    plan, j0 = _opposite_vertex(simplex, face, j)
    _, s2, c2 = _face_solve(simplex.model, plan, simplex.vertices[j0])
    return _distance(simplex.model, s2, c2, tols)
