import math
import re

import numpy as np
import pytest

from hsproj import GeometryError, Model, build_simplex, distance_to_face

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def model_named(name: str, ambient_dim: int) -> Model:
    return Model.hyperbolic(ambient_dim) if name == "hyperbolic" else Model.spherical(ambient_dim)


def far_field_triangle(r: float, d: float) -> list[tuple[float, float, float]]:
    """H^2 triangle with every vertex at radius r: p_1 on the x2 axis, p_2 and p_3 at +-d off the opposite ray.

    The altitude of p_1 onto the line of p_2 and p_3 is nearly 2r, so its
    normal squares to T_1^2 = 1/sinh^2 of it: 7.6e-10 at r = 6, d = 0.01.
    """
    c, s = math.cosh(r), math.sinh(r)
    return [(c, s, 0.0), (c, -s * math.cos(d), s * math.sin(d)), (c, -s * math.cos(d), -s * math.sin(d))]


def degenerate_outcome(model, vertices, face, tols):
    """(stage, error type, message) of building a triangle and reading ``face``, which must fail.

    The stage is "build" or "face".  The measured sigma_min / sigma_max of
    a singular-M message is masked: it is a property of each M, not of the
    decision.
    """
    try:
        s = build_simplex(model, vertices, tols)
    except GeometryError as exc:
        return "build", type(exc), re.sub(r"= \S+\)", "= #)", str(exc))
    (far,) = set(range(len(vertices))) - {i - 1 for i in face}
    with pytest.raises(GeometryError) as info:
        distance_to_face(s, face, vertices[far], tols)
    return "face", type(info.value), str(info.value)


# regular simplices (n, edge) that a det floor of 1e-10 * max|M|^(n+1) would
# refuse, though their edge matrices have cond 1.4e3 (n = 6) and ~450 (n = 8)
REGULAR_CASES = ((6, 0.1), (8, 0.2))


def regular_simplex(name: str, n: int, theta: float) -> np.ndarray:
    """Vertices of the regular n-simplex with edge length theta in H^n or S^n.

    S^n: the Cholesky rows of the matrix with 1 on the diagonal and cos theta
    off it.  H^n: (cosh r, sinh r u_i), with u_i the n+1 regular directions
    (pairwise cosine -1/n, summing to 0) and sinh^2 r = (cosh theta - 1) /
    (1 + 1/n), so that <p_i, p_j> = -cosh theta.
    """
    if name == "spherical":
        gram = np.full((n + 1, n + 1), math.cos(theta))
        np.fill_diagonal(gram, 1.0)
        return np.linalg.cholesky(gram)
    gram = np.full((n, n), -1.0 / n)
    np.fill_diagonal(gram, 1.0)
    u = np.linalg.cholesky(gram)
    u = np.vstack([u, -u.sum(axis=0)])
    r = math.asinh(math.sqrt((math.cosh(theta) - 1.0) / (1.0 + 1.0 / n)))
    return np.column_stack([np.full(n + 1, math.cosh(r)), math.sinh(r) * u])


@pytest.fixture
def octant():
    """Spherical octant simplex: vertices are the standard basis of R^3."""
    return build_simplex(Model.spherical(3), np.eye(3))


@pytest.fixture
def hyp_triangle():
    """Right-angled hyperbolic triangle with two unit legs meeting at (1,0,0)."""
    verts = [[1.0, 0.0, 0.0], [COSH1, SINH1, 0.0], [COSH1, 0.0, SINH1]]
    return build_simplex(Model.hyperbolic(3), verts)


@pytest.fixture
def hyp_segment():
    """1-simplex in H^1: endpoints at distance 1."""
    return build_simplex(Model.hyperbolic(2), [[1.0, 0.0], [COSH1, SINH1]])
