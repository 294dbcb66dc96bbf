import math

import numpy as np
import pytest

from hsproj import Model, build_simplex

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
