import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import (
    DimensionMismatch,
    Model,
    OffManifold,
    OracleOptions,
    distance,
    on_manifold,
    oracle_project,
    project_to_face,
)
from hsproj.forms import normalize_to_manifold
from hsproj.oracle import _score_block, random_point, random_simplex

from conftest import model_named

OCTANT_DIST = 0.6154797086703874


def test_oracle_point_validation(octant):
    with pytest.raises(OffManifold):
        oracle_project(octant, (1, 2), (math.nan, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        oracle_project(octant, (1, 2), (1.0, 0.0))


def test_oracle_octant(octant):
    r = oracle_project(octant, (1, 2), np.ones(3) / np.sqrt(3))
    assert abs(r.distance - OCTANT_DIST) <= 1e-6
    assert distance(octant.model, r.foot, np.array([1, 1, 0]) / np.sqrt(2)) <= 1e-5


def test_oracle_hyperbolic_example(hyp_triangle):
    r = oracle_project(hyp_triangle, (1, 2), hyp_triangle.vertices[2])
    assert abs(r.distance - 1.0) <= 1e-6
    assert distance(hyp_triangle.model, r.foot, np.array([1.0, 0, 0])) <= 1e-5


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_oracle_point_in_plane(model_name):
    model = model_named(model_name, 4)
    s = random_simplex(model, 3, seed=8)
    # a manifold point inside the span of face {1, 3}
    p = normalize_to_manifold(model, 0.7 * s.vertices[0] + 0.4 * s.vertices[2])
    r = oracle_project(s, (1, 3), p)
    assert r.distance <= 1e-8
    assert distance(model, r.foot, p) <= 1e-6


def test_oracle_is_deterministic(octant):
    p = np.ones(3) / np.sqrt(3)
    a = oracle_project(octant, (2, 3), p, OracleOptions(seed=123))
    b = oracle_project(octant, (2, 3), p, OracleOptions(seed=123))
    assert a.distance == b.distance
    assert np.array_equal(a.foot, b.foot)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_oracle_probe_seed_independence(model_name):
    # a different probe batch may not move the answer appreciably
    model = model_named(model_name, 4)
    s = random_simplex(model, 3, seed=21)
    rng = np.random.default_rng(22)
    p = random_point(model, rng)
    d0 = oracle_project(s, (1, 2), p, OracleOptions(seed=0)).distance
    d99 = oracle_project(s, (1, 2), p, OracleOptions(seed=99)).distance
    assert abs(d0 - d99) <= 1e-7


def test_score_block_invalid_directions_are_inf():
    # hyperbolic: a direction whose combination is space-like must score inf
    Q = np.array([[1.0]])  # <v,v> = mu^2 > 0, never time-like
    out = _score_block(np.array([[1.0], [-1.0]]), Q, np.array([1.0]), np.array([1.0]), True)
    assert np.all(np.isinf(out))


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_oracle_agrees_with_closed_form(model_name):
    for seed in range(6):
        n = 2 + seed % 4
        model = model_named(model_name, n + 1)
        s = random_simplex(model, n, seed=700 + seed)
        rng = np.random.default_rng(800 + seed)
        size = int(rng.integers(1, n + 1))
        face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
        p = random_point(model, rng)
        try:
            closed = project_to_face(s, face, p)
        except Exception:
            continue
        got = oracle_project(s, face, p)
        assert abs(got.distance - closed.distance) <= 1e-6
        assert distance(model, got.foot, closed.foot) <= 1e-5


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_oracle_spherical_near_half_pi(eps):
    # p = cos(eps) z + sin(eps) u sits at distance pi/2 - eps from the plane,
    # where the cost landscape is flattest
    for n in range(2, 6):
        model = Model.spherical(n + 1)
        s = random_simplex(model, n, seed=600 + n)
        rng = np.random.default_rng(650 + n)
        for size in range(1, n + 1):
            face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
            span = s.vertices[np.array(face) - 1]
            z = rng.normal(size=n + 1)
            z -= span.T @ np.linalg.lstsq(span.T, z, rcond=None)[0]
            z /= np.linalg.norm(z)
            u = normalize_to_manifold(model, rng.normal(size=size) @ span)
            p = math.cos(eps) * z + math.sin(eps) * u
            closed = project_to_face(s, face, p)
            got = oracle_project(s, face, p)
            assert abs(closed.distance - (math.pi / 2 - eps)) <= 1e-9
            assert abs(got.distance - closed.distance) <= 1e-6
            assert distance(model, got.foot, closed.foot) <= 1e-5


# ------------------------------------------------------------- generators

def test_random_simplex_deterministic():
    a = random_simplex(Model.hyperbolic(4), 3, seed=42)
    b = random_simplex(Model.hyperbolic(4), 3, seed=42)
    assert np.array_equal(a.vertices, b.vertices)
    c = random_simplex(Model.hyperbolic(4), 3, seed=43)
    assert not np.array_equal(a.vertices, c.vertices)


def test_random_simplex_validates_dimension():
    with pytest.raises(DimensionMismatch):
        random_simplex(Model.hyperbolic(4), 2, seed=0)
    with pytest.raises(ValueError):
        random_simplex(Model.hyperbolic(2), 0, seed=0)


def test_spherical_generator_respects_distance_window():
    s = random_simplex(Model.spherical(5), 4, seed=3)
    P = s.vertices
    g = np.clip(P @ P.T, -1, 1)
    d = np.arccos(g[np.triu_indices(5, 1)])
    assert d.min() >= 0.2 and d.max() <= 2.0


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_generator_soundness_sweep(model_name):
    # 500 seeds per model, n cycling 2..6: construction always succeeds
    for seed in range(500):
        n = 2 + seed % 5
        s = random_simplex(model_named(model_name, n + 1), n, seed=seed)
        assert s.vertex_count == n + 1


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_random_point_on_manifold(model_name):
    model = model_named(model_name, 5)
    rng = np.random.default_rng(9)
    for _ in range(200):
        assert on_manifold(model, random_point(model, rng), 1e-9)


def test_random_point_accepts_seed():
    a = random_point(Model.spherical(3), 5)
    b = random_point(Model.spherical(3), 5)
    assert_allclose(a, b, rtol=0, atol=0)
