import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import oracle
from hsproj import (
    DimensionMismatch,
    Model,
    OffManifold,
    OracleOptions,
    ProjectionUndefined,
    distance,
    on_manifold,
    oracle_project,
    project_to_face,
)
from hsproj.forms import normalize_to_manifold
from hsproj.oracle import (
    CONVERGENCE_TOL,
    FIRST_REFINE_STEP,
    REFINE_ITERATIONS,
    _nelder_mead,
    _score_block,
    random_point,
    random_simplex,
)

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


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_oracle_resolves_points_in_the_plane(model_name):
    # the chord score keeps its digits at distance 0, where cosh d and
    # cos d lose everything below ~1e-8
    model = model_named(model_name, 4)
    s = random_simplex(model, 3, seed=5)
    span = s.vertices[[0, 1]]
    for k in range(20):
        mu = np.abs(np.random.default_rng(k).normal(size=2))
        p = normalize_to_manifold(model, mu @ span)
        assert oracle_project(s, (1, 2), p).distance <= 1e-9


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
    F = np.array([[0.0, 1.0]])  # <v,v> = mu^2 > 0, never time-like
    p = np.array([1.0, 0.0])
    out = _score_block(np.array([[1.0], [-1.0]]), F, p, Model.hyperbolic(2))
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
        except ProjectionUndefined:
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


# ------------------------------------------------- Nelder-Mead refinement

def _scipy_nelder_mead(fun, sim):
    """The reference the port follows: scipy's Nelder-Mead, same stopping rule."""
    from scipy.optimize import minimize

    res = minimize(
        fun,
        sim[0],
        method="Nelder-Mead",
        options={
            "initial_simplex": sim,
            "maxiter": REFINE_ITERATIONS,
            "xatol": CONVERGENCE_TOL,
            "fatol": CONVERGENCE_TOL * 1e-5,
        },
    )
    return res.x, res.fun


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _oracle_restarts(monkeypatch):
    """(objective, initial simplex) of every refinement restart oracle_project
    runs over a seeded population: both models, n 2..6, face sizes 2..n."""
    restarts = []

    def spy(fun, sim):
        restarts.append((fun, sim.copy()))
        return _nelder_mead(fun, sim)

    monkeypatch.setattr(oracle, "_nelder_mead", spy)
    rng = np.random.default_rng(31)
    for model_name in ("hyperbolic", "spherical"):
        for n in range(2, 7):
            model = model_named(model_name, n + 1)
            s = random_simplex(model, n, seed=900 + n)
            for size in range(2, n + 1):
                face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
                oracle_project(s, face, random_point(model, rng))
    return restarts


def test_nelder_mead_is_bit_identical_to_scipy(monkeypatch):
    pytest.importorskip("scipy.optimize")
    restarts = _oracle_restarts(monkeypatch)
    assert {sim[1, 0] for _, sim in restarts} == {FIRST_REFINE_STEP, 1e-3, 1e-6}
    for fun, sim in restarts:
        x, f = _nelder_mead(fun, sim)
        ref_x, ref_f = _scipy_nelder_mead(fun, sim)
        assert _bits(x) == _bits(ref_x)
        assert _bits(f) == _bits(ref_f)


def test_nelder_mead_is_bit_identical_to_scipy_where_objective_is_inf(monkeypatch):
    # a hyperbolic objective from a 4-vertex face, started with tangent steps
    # so large that some candidates are space-like and score inf
    pytest.importorskip("scipy.optimize")
    fun, sim = next((f, s) for f, s in _oracle_restarts(monkeypatch) if s.shape[1] == 3)
    big = np.vstack([np.zeros(3), 3.0 * np.eye(3)])
    values = []

    def counted(x):
        values.append(fun(x))
        return values[-1]

    x, f = _nelder_mead(counted, big)
    assert np.isinf(values).any() and np.isfinite(f)
    ref_x, ref_f = _scipy_nelder_mead(fun, big)
    assert _bits(x) == _bits(ref_x)
    assert _bits(f) == _bits(ref_f)


def test_import_loads_no_scipy():
    # the closed forms and the oracle need numpy alone; scipy would cost
    # most of a cold `import hsproj` and of every CLI call
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, hsproj, hsproj.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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
