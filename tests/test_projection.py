import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import (
    BadFace,
    DimensionMismatch,
    Model,
    NotNormalizable,
    OffManifold,
    ProjectionUndefined,
    WrongSheet,
    altitude,
    bordered_minor,
    deleted_minor,
    distance,
    distance_to_face,
    inner,
    on_manifold,
    project_to_face,
    project_to_hyperplane,
    vertex_foot,
)
from hsproj import crosscheck, projection
from hsproj.forms import normalize_to_manifold
from hsproj.oracle import random_point, random_simplex
from hsproj.crosscheck import distance_to_face_by_minors

from conftest import COSH1, SINH1, model_named

OCTANT_DIAG = np.ones(3) / np.sqrt(3.0)
# frozen from the independent great-circle minimization oracle: the foot of
# (1,1,1)/sqrt(3) on the z=0 circle is (1,1,0)/sqrt(2) at arccos(sqrt(2/3))
OCTANT_DIST = 0.6154797086703874
INV_SQRT2 = 0.7071067811865476


def _cases(seed0, count, dims=(2, 3, 4, 5, 6)):
    """Deterministic (model, simplex, face, point) sweep for property tests."""
    out = []
    for i in range(count):
        n = dims[i % len(dims)]
        for name in ("hyperbolic", "spherical"):
            model = model_named(name, n + 1)
            s = random_simplex(model, n, seed=seed0 + i)
            rng = np.random.default_rng(seed0 + 10_000 + i)
            size = int(rng.integers(1, n + 1))
            face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
            p = random_point(model, rng)
            out.append((model, s, face, p))
    return out


# ----------------------------------------------------------- project_to_face

def test_project_vertex_of_face_is_fixed(octant):
    r = project_to_face(octant, (1, 2), (1.0, 0.0, 0.0))
    assert_allclose(r.foot, [1, 0, 0], atol=1e-12)
    assert r.distance == pytest.approx(0.0, abs=1e-12)
    assert all(abs(v) < 1e-12 for v in r.lambdas.values())


def test_project_octant_diagonal(octant):
    r = project_to_face(octant, (1, 2), OCTANT_DIAG)
    assert_allclose(r.foot, [INV_SQRT2, INV_SQRT2, 0.0], rtol=0, atol=1e-12)
    assert_allclose(r.distance, OCTANT_DIST, rtol=0, atol=1e-12)
    assert set(r.lambdas) == {3}
    assert r.lambdas[3] == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_project_hyperbolic_example(hyp_triangle):
    r = project_to_face(hyp_triangle, (1, 2), hyp_triangle.vertices[2])
    assert_allclose(r.foot, [1.0, 0.0, 0.0], rtol=0, atol=1e-12)
    assert_allclose(r.pre_foot, [COSH1, 0.0, 0.0], rtol=0, atol=1e-12)
    assert_allclose(r.distance, 1.0, rtol=0, atol=1e-12)


def test_project_face_validation(octant, hyp_triangle):
    with pytest.raises(BadFace):
        project_to_face(octant, (1, 4), (1, 0, 0))
    with pytest.raises(BadFace):
        project_to_face(octant, (2, 1), (1, 0, 0))
    with pytest.raises(BadFace):
        project_to_face(octant, (1, 2, 3), (1, 0, 0))  # whole simplex
    with pytest.raises(BadFace):
        project_to_face(octant, (), (1, 0, 0))
    with pytest.raises(OffManifold):
        project_to_face(octant, (1, 2), (1.0, 1.0, 0.0))
    for route in (project_to_face, distance_to_face):
        for bad in ((math.nan, 0.0, 0.0), (1.0, math.inf, 0.0)):
            with pytest.raises(OffManifold):
                route(octant, (1, 2), bad)
        with pytest.raises(DimensionMismatch):
            route(octant, (1, 2), (1.0, 0.0))
        with pytest.raises(WrongSheet):
            route(hyp_triangle, (1, 2), (-1.0, 0.0, 0.0))


def test_project_undefined_at_pole(octant):
    with pytest.raises(ProjectionUndefined):
        project_to_face(octant, (1, 2), (0.0, 0.0, 1.0))
    assert distance_to_face(octant, (1, 2), (0.0, 0.0, 1.0)) == math.pi / 2


@pytest.mark.parametrize("case", _cases(1000, 12), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_projection_invariants(case):
    model, s, face, p = case
    try:
        r = project_to_face(s, face, p)
    except ProjectionUndefined:
        return
    # foot on manifold and inside the span of the face vertices
    assert on_manifold(model, r.foot, 1e-9)
    span = s.vertices[[i - 1 for i in face]].T
    _, res, _, _ = np.linalg.lstsq(span, r.foot, rcond=None)
    if res.size:
        assert math.sqrt(res[0]) <= 1e-8
    # the displacement p - pre_foot lies in the orthogonal complement
    disp = p - r.pre_foot
    for i in face:
        assert abs(inner(model, disp, s.vertices[i - 1])) <= 1e-8
    # distance is consistent with the pairing of p and the foot
    pairing = inner(model, p, r.foot)
    if model.curvature == -1:
        assert abs(math.cosh(r.distance) + pairing) <= 1e-9
        assert -pairing >= 1.0 - 1e-12
    else:
        assert abs(math.cos(r.distance) - pairing) <= 1e-9
        assert 0.0 < pairing <= 1.0 + 1e-12
    # lambda keys are exactly the complement indices
    assert set(r.lambdas) == set(range(1, s.vertex_count + 1)) - set(face)


@pytest.mark.parametrize("case", _cases(2000, 10), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_distance_to_face_matches_projection(case):
    # the bordered-minor cross-check against the face-block solve of the projection
    model, s, face, p = case
    try:
        r = project_to_face(s, face, p)
    except ProjectionUndefined:
        assert distance_to_face_by_minors(s, face, p) == math.pi / 2
        return
    assert abs(distance_to_face_by_minors(s, face, p) - r.distance) <= 1e-9


def test_distance_to_face_computes_no_minor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("distance_to_face computed a minor")

    assert not hasattr(projection, "complement_gram_inverse")
    # projection imports no minor function: forbid them in crosscheck, where they live
    for name in ("bordered_minor", "deleted_minor"):
        monkeypatch.setattr(crosscheck, name, forbidden)
    for _, s, face, p in _cases(2000, 10):
        try:
            expected = project_to_face(s, face, p).distance
        except ProjectionUndefined:
            expected = math.pi / 2
        assert distance_to_face(s, face, p) == expected


def test_distance_in_plane_is_zero(octant):
    assert distance_to_face(octant, (1, 2), (INV_SQRT2, INV_SQRT2, 0.0)) == pytest.approx(0.0, abs=1e-9)


def test_distance_hyperbolic_example(hyp_triangle):
    assert distance_to_face(hyp_triangle, (1, 2), hyp_triangle.vertices[2]) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------ project_to_hyperplane

def test_hyperplane_fixed_point(octant):
    r = project_to_hyperplane(octant, 3, (INV_SQRT2, INV_SQRT2, 0.0))
    assert_allclose(r.foot, [INV_SQRT2, INV_SQRT2, 0.0], atol=1e-12)
    assert r.distance == pytest.approx(0.0, abs=1e-12)


def test_hyperplane_octant_matches_face_path(octant):
    a = project_to_hyperplane(octant, 3, OCTANT_DIAG)
    b = project_to_face(octant, (1, 2), OCTANT_DIAG)
    assert_allclose(a.foot, b.foot, atol=1e-12)
    assert a.distance == pytest.approx(b.distance, abs=1e-12)
    assert a.distance == pytest.approx(OCTANT_DIST, abs=1e-12)


def test_hyperplane_hyperbolic_example(hyp_triangle):
    r = project_to_hyperplane(hyp_triangle, 3, hyp_triangle.vertices[2])
    assert_allclose(r.foot, [1.0, 0.0, 0.0], atol=1e-12)
    assert math.cosh(r.distance) == pytest.approx(math.sqrt(1 + SINH1**2), abs=1e-12)


def test_hyperplane_index_validation(octant):
    with pytest.raises(BadFace):
        project_to_hyperplane(octant, 0, (1, 0, 0))
    with pytest.raises(BadFace):
        project_to_hyperplane(octant, 4, (1, 0, 0))
    with pytest.raises(OffManifold):
        project_to_hyperplane(octant, 3, (math.nan, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        project_to_hyperplane(octant, 3, (1.0, 0.0))


@pytest.mark.parametrize("case", _cases(3000, 8), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_hyperplane_equals_general_path(case):
    model, s, _, p = case
    for j in range(1, s.vertex_count + 1):
        face = tuple(i for i in range(1, s.vertex_count + 1) if i != j)
        try:
            a = project_to_hyperplane(s, j, p)
        except ProjectionUndefined:
            with pytest.raises(ProjectionUndefined):
                project_to_face(s, face, p)
            continue
        b = project_to_face(s, face, p)
        assert np.abs(a.foot - b.foot).max() <= 1e-9
        assert abs(a.distance - b.distance) <= 1e-9


# ----------------------------------------------------------------- vertex_foot

def test_vertex_foot_undefined_on_octant(octant):
    # the pole is equidistant from the whole equator
    with pytest.raises(ProjectionUndefined):
        vertex_foot(octant, (1, 2), 3)


def test_vertex_foot_hyperbolic_example(hyp_triangle):
    r = vertex_foot(hyp_triangle, (1, 2), 3)
    assert_allclose(r.foot, [1.0, 0.0, 0.0], atol=1e-12)
    assert r.distance == pytest.approx(1.0, abs=1e-12)
    assert_allclose(r.pre_foot, [COSH1, 0.0, 0.0], atol=1e-12)


def test_vertex_foot_validation(octant):
    with pytest.raises(BadFace):
        vertex_foot(octant, (1, 2), 2)  # j inside face


@pytest.mark.parametrize("case", _cases(4000, 10), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_vertex_foot_matches_general_path(case):
    model, s, face, _ = case
    comp = [j for j in range(1, s.vertex_count + 1) if j not in face]
    for j in comp:
        try:
            a = vertex_foot(s, face, j)
        except ProjectionUndefined:
            with pytest.raises(ProjectionUndefined):
                project_to_face(s, face, s.vertices[j - 1])
            continue
        b = project_to_face(s, face, s.vertices[j - 1])
        assert np.abs(a.foot - b.foot).max() <= 1e-9
        assert abs(a.distance - b.distance) <= 1e-9
        # pre-foot norm identity: <p.,p.> = -1 - m_j^j/m_face (hyperbolic)
        # and 1 - m_j^j/m_face (spherical)
        M = s.edge_matrix
        face0 = [i - 1 for i in face]
        m_face = np.linalg.det(M[np.ix_(face0, face0)])
        ratio = bordered_minor(M, face, j, j) / m_face
        expected = -1.0 - ratio if model.curvature == -1 else 1.0 - ratio
        assert inner(model, a.pre_foot, a.pre_foot) == pytest.approx(expected, abs=1e-9)
        # the paper's vertex-specialized coefficients lambda_s = T_s m_j^s / m_face,
        # with the minors T = sqrt|M_ss / det M|, independent of the production T
        for t, lam in a.lambdas.items():
            t_minors = math.sqrt(abs(deleted_minor(M, t, t) / s.edge_det))
            paper = t_minors * bordered_minor(M, face, j, t) / m_face
            assert lam == pytest.approx(paper, abs=1e-9)


def test_vertex_routes_compute_no_minor(monkeypatch):
    cases = _cases(4000, 10)

    def forbidden(*args, **kwargs):
        raise AssertionError("a vertex route computed a minor or a Schur block")

    for name in ("bordered_minor", "deleted_minor", "schur_complement"):
        monkeypatch.setattr(crosscheck, name, forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    solve = np.linalg.solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for _, s, face, _ in cases:
        for j in sorted(set(range(1, s.vertex_count + 1)) - set(face)):
            p_j = s.vertices[j - 1]
            calls.clear()
            alt = altitude(s, face, j)
            assert len(calls) == 1  # one face-block solve per call
            assert alt == distance_to_face(s, face, p_j)
            calls.clear()
            try:
                foot = vertex_foot(s, face, j)
            except ProjectionUndefined:
                assert len(calls) == 1
                with pytest.raises(ProjectionUndefined):
                    project_to_face(s, face, p_j)
                continue
            assert len(calls) == 1
            general = project_to_face(s, face, p_j)
            assert foot.distance == general.distance == alt
            assert np.array_equal(foot.foot, general.foot)
            assert np.array_equal(foot.pre_foot, general.pre_foot)
            assert foot.lambdas == general.lambdas


# -------------------------------------------------------------------- altitude

def test_altitude_octant(octant):
    assert altitude(octant, (1, 2), 3) == math.pi / 2


def test_altitude_hyperbolic_example(hyp_triangle):
    assert altitude(hyp_triangle, (1, 2), 3) == pytest.approx(1.0, abs=1e-12)


def test_altitude_validation(octant):
    with pytest.raises(BadFace):
        altitude(octant, (1, 2), 1)


def _facet_cases():
    """One facet per model, where the determinant ratio gives a further path."""
    out = []
    for name in ("hyperbolic", "spherical"):
        model = model_named(name, 5)
        s = random_simplex(model, 4, seed=5100)
        out.append(pytest.param((model, s, (1, 2, 3, 5), None), id=f"{name}-n4-facet"))
    return out


@pytest.mark.parametrize(
    "case", _cases(5000, 10) + _facet_cases(), ids=lambda c: f"{c[0].name}-n{c[0].n}"
)
def test_altitude_three_paths_agree(case):
    model, s, face, _ = case
    comp = [j for j in range(1, s.vertex_count + 1) if j not in face]
    for j in comp:
        alt = altitude(s, face, j)
        assert abs(alt - distance_to_face(s, face, s.vertices[j - 1])) <= 1e-9
        if len(face) == s.n:
            # facet: the determinant-ratio closed form 1 - curvature * det M / M_jj
            c2 = 1.0 - model.curvature * s.edge_det / deleted_minor(s.edge_matrix, j, j)
            if model.curvature == -1:
                direct = math.acosh(math.sqrt(max(c2, 1.0)))
            else:
                direct = math.pi / 2 if c2 <= 1e-9 else math.acos(math.sqrt(min(c2, 1.0)))
            assert abs(alt - direct) <= 1e-9
        try:
            foot = vertex_foot(s, face, j)
        except ProjectionUndefined:
            assert alt == pytest.approx(math.pi / 2, abs=1e-9)
            continue
        assert abs(alt - foot.distance) <= 1e-9


# -------------------------------------------------------------- boundary cases

@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_zero_face_projection(model_name):
    # k = 0: the 0-plane through a single vertex
    model = model_named(model_name, 4)
    s = random_simplex(model, 3, seed=60)
    rng = np.random.default_rng(61)
    for _ in range(20):
        p = random_point(model, rng)
        r = project_to_face(s, (2,), p)
        d = distance(model, p, s.vertices[1])
        if model.curvature == -1 or d <= math.pi / 2:
            assert_allclose(r.foot, s.vertices[1], atol=1e-9)
            assert r.distance == pytest.approx(d, abs=1e-9)
        else:
            # spherical far side: the plane {±p_2} is nearest at the antipode
            assert_allclose(r.foot, -s.vertices[1], atol=1e-9)
            assert r.distance == pytest.approx(math.pi - d, abs=1e-9)


@pytest.mark.parametrize("case", _cases(6000, 6), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_foot_is_local_minimizer(case):
    model, s, face, p = case
    try:
        r = project_to_face(s, face, p)
    except ProjectionUndefined:
        return
    rng = np.random.default_rng(99)
    pts = s.vertices[[i - 1 for i in face]]
    hits = 0
    while hits < 50:
        mu = rng.normal(size=len(face))
        try:
            x = normalize_to_manifold(model, mu @ pts)
        except NotNormalizable:
            continue
        hits += 1
        assert r.distance <= distance(model, p, x) + 1e-9
