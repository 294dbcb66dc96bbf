import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import generators, oracle
from hsproj import (
    DegenerateSimplex,
    DimensionMismatch,
    GenerationExhausted,
    Model,
    OffManifold,
    OracleFailure,
    OracleOptions,
    ProjectionUndefined,
    distance,
    on_manifold,
    oracle_project,
    project_to_face,
)
from hsproj.cli import ORACLE_DISTANCE_TOL
from hsproj.forms import normalize_to_manifold
from hsproj.oracle import (
    CONVERGENCE_TOL,
    FIRST_REFINE_STEP,
    OracleResult,
    _nelder_mead,
    _score_block,
    _score_row,
)
from hsproj.generators import random_point, random_simplex
from hsproj.projection import _face_plan

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


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_a_poisoned_face_plan_cannot_fool_the_oracle(model_name):
    # the oracle reads its face from the vertices, not the fast path's plan:
    # with face (2, 3)'s plan in face (1, 2)'s slot the closed form is wrong,
    # and the oracle tells it apart
    model = model_named(model_name, 4)
    for seed in range(5):
        s = random_simplex(model, 3, seed=seed)
        p = random_point(model, np.random.default_rng([seed, 1]))
        honest = project_to_face(s, (1, 2), p).distance
        assert abs(honest - oracle_project(s, (1, 2), p).distance) <= ORACLE_DISTANCE_TOL
        s._face_plans[(0, 1)] = _face_plan(s, (2, 3))
        poisoned = project_to_face(s, (1, 2), p).distance
        assert abs(poisoned - oracle_project(s, (1, 2), p).distance) > ORACLE_DISTANCE_TOL


def test_oracle_returns_only_its_foot_and_distance(octant):
    r = oracle_project(octant, (1, 2), np.ones(3) / np.sqrt(3))
    assert isinstance(r, OracleResult)
    assert [f.name for f in dataclasses.fields(r)] == ["foot", "distance"]


def test_oracle_is_deterministic(octant):
    p = np.ones(3) / np.sqrt(3)
    a = oracle_project(octant, (2, 3), p, OracleOptions(seed=123))
    b = oracle_project(octant, (2, 3), p, OracleOptions(seed=np.int64(123)))
    assert a.distance == b.distance
    assert np.array_equal(a.foot, b.foot)


@pytest.mark.parametrize("seed", [-1, 1.5, 3.0, True, np.bool_(True), "3", None, np.int64(-2)])
def test_oracle_options_refuse_a_seed_that_is_not_a_natural_number(seed):
    with pytest.raises(ValueError, match="oracle seed"):
        OracleOptions(seed=seed)


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
    out = _score_block(np.array([[1.0], [-1.0]]) @ F, p, Model.hyperbolic(2))
    assert np.all(np.isinf(out))


def test_oracle_fails_when_every_probe_scores_inf(monkeypatch):
    # one probe, of mixed signs, whose combination of the three H^3 vertices
    # is space-like: no probe gives a foot to start from
    monkeypatch.setattr(oracle, "PROBE_DIRECTIONS", 1)
    model = Model.hyperbolic(4)
    s, p = random_simplex(model, 3, 0), random_point(model, 0)
    with pytest.raises(OracleFailure, match="^no normalizable candidate direction among the probes$"):
        oracle_project(s, (1, 2, 3), p, OracleOptions(seed=3))


def _pre_point_blocks(model_name):
    """(model, 1024 ambient pre-points P @ F, point) for every face size of
    seeded simplices, n 2..6: the rows the probe stage scores."""
    rng = np.random.default_rng(47)
    for n in range(2, 7):
        model = model_named(model_name, n + 1)
        s = random_simplex(model, n, seed=1300 + n)
        for size in range(1, n + 1):
            face = rng.choice(n + 1, size=size, replace=False)
            V = rng.normal(size=(1024, size)) @ s.vertices[face]
            yield model, V, random_point(model, rng)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_score_block_one_row_is_its_row_of_the_batch(model_name):
    # the refinement scores one pre-point per call on floats, by _score_row;
    # it must get exactly the score the probe stage's _score_block gives that
    # row, inf rows included: space-like, near-null (1e-6 V straddles
    # _LIGHT_TOL) and NaN pre-points
    inf_rows = 0
    for model, V, p in _pre_point_blocks(model_name):
        pl, sig = p.tolist(), model.signature.tolist()
        for W in (V, -V, 1e3 * V, 1e-6 * V, np.full((1, V.shape[1]), np.nan)):
            batch = _score_block(W, p, model)
            inf_rows += int(np.isinf(batch).sum())
            rows = [_score_row(w, pl, sig, model.curvature) for w in W.tolist()]
            assert _bits(rows) == _bits(batch)
    assert inf_rows > 1000


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_oracle_scores_its_probes_in_one_batch(monkeypatch, model_name, size):
    # the probe stage is the one _score_block call; every refinement
    # evaluation goes through _score_row
    calls = []

    def spy(V, pv, model):
        calls.append(V.shape)
        return _score_block(V, pv, model)

    monkeypatch.setattr(oracle, "_score_block", spy)
    model = model_named(model_name, 7)
    s = random_simplex(model, 6, seed=40 + size)
    rng = np.random.default_rng(size)
    for _ in range(3):
        face = tuple(sorted(int(x) + 1 for x in rng.choice(7, size=size, replace=False)))
        calls.clear()
        oracle_project(s, face, random_point(model, rng))
        assert calls == [(oracle.PROBE_DIRECTIONS, 7)]


def test_score_block_ignores_the_sign_of_a_hyperbolic_pre_point():
    # -V names the same upper-sheet candidate as V
    for model, V, p in _pre_point_blocks("hyperbolic"):
        assert _bits(_score_block(-V, p, model)) == _bits(_score_block(V, p, model))


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
@pytest.mark.parametrize("factor", [2.5, 1e3])
def test_score_block_ignores_positive_scale(model_name, factor):
    # the refinement scores unnormalized pre-points, so a positive scale may
    # move a score by rounding only and never flip it to or from inf
    for model, V, p in _pre_point_blocks(model_name):
        ref = _score_block(V, p, model)
        got = _score_block(factor * V, p, model)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 2e-11 * (1.0 + ref[finite]))


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
            "maxiter": 200 * sim.shape[1],
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


def _evaluations(nelder_mead, fun, sim):
    """The bytes of every point ``nelder_mead`` hands ``fun``, in call order."""
    log = []

    def logged(x):
        log.append(_bits(x))
        return fun(x)

    nelder_mead(logged, sim)
    return log


def _plateau(x):
    # integer levels: most values tie
    return float(math.floor(4 * sum(abs(a) for a in x)))


def _walled_bowl(x):
    # a quadratic with an inf half-space, x_0 >= 0.5
    return math.inf if x[0] >= 0.5 else sum((a - 0.3) ** 2 for a in x)


def _bowl(x):
    # strictly convex, minimum 0 at an irrational point
    return sum((k + 1) * (a - math.sqrt(k + 2)) ** 2 for k, a in enumerate(x))


def _toy_simplices(x0):
    """Initial simplices x0 + h e_i for N 1, 2, 3, 5 and three steps h."""
    for n in (1, 2, 3, 5):
        for h in (0.5, 0.1, -0.2):
            yield np.vstack([np.zeros(n), h * np.eye(n)]) + x0(n)


def _cases(name, monkeypatch):
    if name == "restarts":
        return _oracle_restarts(monkeypatch)
    if name == "plateau":
        return [(_plateau, sim) for sim in _toy_simplices(lambda n: np.linspace(0.3, 0.9, n))]
    # every simplex starts on the wall, and some with several inf vertices
    cases = [(_walled_bowl, sim) for sim in _toy_simplices(lambda n: np.full(n, 0.6))]
    walled = [sum(map(math.isinf, map(_walled_bowl, sim))) for _, sim in cases]
    assert min(walled) >= 1 and max(walled) > 1
    return cases


@pytest.mark.parametrize("name", ["restarts", "plateau", "inf_region"])
def test_nelder_mead_evaluations_are_bit_identical_to_scipy(monkeypatch, name):
    # call for call: the same points, bit for bit, in the same order
    pytest.importorskip("scipy.optimize")
    for fun, sim in _cases(name, monkeypatch):
        log = _evaluations(_nelder_mead, fun, sim)
        with np.errstate(invalid="ignore"):  # scipy's inf - inf where every vertex is on the wall
            assert log == _evaluations(_scipy_nelder_mead, fun, sim)
        assert len(log) > 2 * len(sim)


def test_nelder_mead_leaves_only_ties_to_numpy_argsort(monkeypatch):
    # an argsort counted wherever _nelder_mead asks numpy for one: distinct
    # values are ordered by insertion and Python's sort, ties by numpy
    calls = []

    class Counted(np.ndarray):
        def argsort(self, *args, **kwargs):
            calls.append(self.size)
            return np.asarray(self).argsort(*args, **kwargs)

    class NumpySpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            return np.array(*args, **kwargs).view(Counted)

    monkeypatch.setattr(oracle, "np", NumpySpy())
    for sim in _toy_simplices(lambda n: np.zeros(n)):
        _nelder_mead(_bowl, sim)
    assert calls == []
    for sim in _toy_simplices(lambda n: np.linspace(0.3, 0.9, n)):
        _nelder_mead(_plateau, sim)
    assert len(calls) > 100


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
# hsproj.generators: the populations every test and benchmark draws from

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


@pytest.mark.parametrize("n, seed, message", [
    (2.0, 1, "simplex dimension must be an integer >= 1"),
    (True, 1, "simplex dimension must be an integer >= 1"),
    (2, True, "seed must be an integer >= 0"),
    (2, 1.5, "seed must be an integer >= 0"),
    (2, -1, "seed must be an integer >= 0"),
    (2, None, "seed must be an integer >= 0"),
    (2, np.random.default_rng(1), "seed must be an integer >= 0"),
], ids=["n_float", "n_bool", "seed_bool", "seed_float", "seed_negative", "seed_none", "seed_generator"])
def test_random_simplex_refuses_a_dimension_or_seed_that_is_not_a_natural_number(n, seed, message):
    with pytest.raises(ValueError, match=message):
        random_simplex(Model.spherical(3), n, seed)


@pytest.mark.parametrize("rng", [True, 1.5, -1, None, "3", [1, 2], np.random.PCG64(1)],
                         ids=["bool", "float", "negative", "none", "str", "list", "bit_generator"])
def test_random_point_refuses_an_rng_that_is_neither_a_generator_nor_a_seed(rng):
    with pytest.raises(ValueError, match="rng must be a numpy Generator or an integer seed >= 0"):
        random_point(Model.spherical(3), rng)


def test_generators_take_numpy_integer_seeds_and_generators():
    model = Model.hyperbolic(3)
    a, b = random_simplex(model, np.int64(2), np.int64(7)), random_simplex(model, 2, 7)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(random_point(model, np.int64(7)), random_point(model, np.random.default_rng(7)))


def _random_simplex_one_draw_per_try(model, n, seed):
    """random_simplex drawn and screened one vertex set per try: the
    definition its batched spherical screening reproduces bit for bit."""
    rng = np.random.default_rng(seed)
    m = n + 1
    for _ in range(generators.GENERATOR_MAX_TRIES):
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
            simplex = generators.build_simplex(model, vertices)
        except DegenerateSimplex:
            continue
        if np.linalg.cond(simplex.edge_matrix) <= generators.GENERATOR_CONDITION_LIMIT:
            return simplex
    raise GenerationExhausted(f"no valid {model.name} {n}-simplex")


GENERATOR_SEEDS = list(range(10)) + [97 * k + 13 for k in range(15)]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_random_simplex_matches_one_draw_per_try(model_name, n):
    model = model_named(model_name, n + 1)
    for seed in GENERATOR_SEEDS:
        got = random_simplex(model, n, seed)
        want = _random_simplex_one_draw_per_try(model, n, seed)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.normals, want.normals)
        assert got.edge_det == want.edge_det


def test_spherical_generator_respects_distance_window():
    for n in range(2, 9):
        for seed in GENERATOR_SEEDS:
            P = random_simplex(Model.spherical(n + 1), n, seed).vertices
            g = np.clip(P @ P.T, -1, 1)
            d = np.arccos(g[np.triu_indices(n + 1, 1)])
            assert d.min() >= 0.2 and d.max() <= 2.0, (n, seed)


@pytest.mark.parametrize(("n", "seed"), [(2, 1), (5, 17)])
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_generator_exhausts_after_max_tries(monkeypatch, model_name, n, seed):
    # 37 tries is not a multiple of the screening batch, and a condition
    # limit of 1 rejects every simplex built (sigma_min > sigma_max never
    # holds, and no drawn edge matrix has cond 1), so every try is spent; at
    # these seeds the 37th spherical draw passes the distance window, so a
    # generator that stopped one draw early would build one simplex fewer
    monkeypatch.setattr(generators, "GENERATOR_MAX_TRIES", 37)
    monkeypatch.setattr(generators, "GENERATOR_CONDITION_LIMIT", 1.0)
    build, calls = generators.build_simplex, []

    def spy(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(generators, "build_simplex", spy)
    model = model_named(model_name, n + 1)
    with pytest.raises(GenerationExhausted):
        random_simplex(model, n, seed)
    built, calls[:] = list(calls), []
    with pytest.raises(GenerationExhausted):
        _random_simplex_one_draw_per_try(model, n, seed)
    assert len(built) == len(calls) > 0
    assert all(np.array_equal(a, b) for a, b in zip(built, calls))


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
        assert on_manifold(model, random_point(model, rng))


def test_random_point_accepts_seed():
    a = random_point(Model.spherical(3), 5)
    b = random_point(Model.spherical(3), 5)
    assert_allclose(a, b, rtol=0, atol=0)
