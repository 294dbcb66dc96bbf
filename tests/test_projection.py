import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import (
    DEFAULT_TOLS,
    BadFace,
    DegenerateSimplex,
    DimensionMismatch,
    DomainError,
    Model,
    NotNormalizable,
    OffManifold,
    ProjectionUndefined,
    Tolerances,
    WrongSheet,
    altitude,
    build_simplex,
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
from hsproj.projection import _face_plan
from hsproj.simplex import face_complement
from hsproj.generators import random_point, random_simplex
from hsproj.crosscheck import (
    altitude_by_minors,
    distance_to_face_by_minors,
    facet_altitude_by_determinants,
    vertex_lambdas_by_minors,
)

from conftest import COSH1, SINH1, far_field_triangle, model_named

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


def _pre_foot(model, r):
    """p. = s(d) foot, s = cosh in H^n and cos in S^n: the unnormalized projection."""
    return (math.cosh(r.distance) if model.curvature == -1 else math.cos(r.distance)) * r.foot


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
    assert_allclose(_pre_foot(hyp_triangle.model, r), [COSH1, 0.0, 0.0], rtol=0, atol=1e-12)
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
    assert on_manifold(model, r.foot)
    span = s.vertices[[i - 1 for i in face]].T
    _, res, _, _ = np.linalg.lstsq(span, r.foot, rcond=None)
    if res.size:
        assert math.sqrt(res[0]) <= 1e-8
    # the displacement p - s(d) foot lies in the orthogonal complement
    disp = p - _pre_foot(model, r)
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
    # the bordered-minor cross-check against the face frame of the projection
    model, s, face, p = case
    try:
        r = project_to_face(s, face, p)
    except ProjectionUndefined:
        # the foot rule puts d within asin(sqrt manifold) of pi/2; the minors
        # route's c2 = 1 - s2 cancels there, to about 1e-7
        gap = math.pi / 2 - distance_to_face_by_minors(s, face, p)
        assert 0.0 <= gap <= math.asin(math.sqrt(DEFAULT_TOLS.manifold)) + 1e-7
        return
    assert abs(distance_to_face_by_minors(s, face, p) - r.distance) <= 1e-9


def test_distance_to_face_computes_no_minor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("distance_to_face computed a minor")

    assert not hasattr(projection, "complement_gram_inverse")
    # projection imports no minor function: forbid them in crosscheck, where they live
    for name in ("_minors", "bordered_minor", "deleted_minor"):
        monkeypatch.setattr(crosscheck, name, forbidden)
    for _, s, face, p in _cases(2000, 10):
        try:
            expected = project_to_face(s, face, p).distance
        except ProjectionUndefined:
            # the foot rule puts d within asin(sqrt manifold) of pi/2
            gap = math.pi / 2 - distance_to_face(s, face, p)
            assert 0.0 <= gap <= math.asin(math.sqrt(DEFAULT_TOLS.manifold))
            continue
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


@pytest.mark.parametrize("r, d", [(6.0, 0.01), (7.0, 0.03)])
def test_hyperplane_equals_general_path_in_the_far_field(r, d):
    # altitudes near 11.2 and cond(M) up to 1.4e4; feet have coordinates up to ~1e3
    model = Model.hyperbolic(3)
    s = build_simplex(model, far_field_triangle(r, d))
    rng = np.random.default_rng(17)
    points = list(s.vertices) + [random_point(model, rng) for _ in range(5)]
    for j in range(1, 4):
        face = tuple(i for i in range(1, 4) if i != j)
        for p in points:
            a, b = project_to_hyperplane(s, j, p), project_to_face(s, face, p)
            assert np.abs(a.foot - b.foot).max() <= 1e-9 * np.abs(b.foot).max()
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
    assert_allclose(_pre_foot(hyp_triangle.model, r), [COSH1, 0.0, 0.0], atol=1e-12)


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
        # pre-foot norm identity: <p.,p.> = curvature * c2, with c2 = cosh^2/cos^2
        # of the paper's altitude from the radicand 1 - curvature * m_j^j / m_face
        alt = altitude_by_minors(s, face, j)
        c = math.cosh(alt) if model.curvature == -1 else math.cos(alt)
        pre_foot = _pre_foot(model, a)
        assert inner(model, pre_foot, pre_foot) == pytest.approx(model.curvature * c * c, abs=1e-9)
        # the paper's vertex-specialized coefficients lambda_s = T_s m_j^s / m_face,
        # with the minors T = sqrt|M_ss / det M|, independent of the production T
        paper = vertex_lambdas_by_minors(s, face, j)
        assert paper.keys() == a.lambdas.keys()
        for t, lam in a.lambdas.items():
            assert lam == pytest.approx(paper[t], abs=1e-9)


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
        _face_plan(s, face)
        for j in sorted(set(range(1, s.vertex_count + 1)) - set(face)):
            p_j = s.vertices[j - 1]
            calls.clear()
            alt = altitude(s, face, j)
            assert not calls  # the plan's frame serves the call: no solve
            assert alt == distance_to_face(s, face, p_j)
            try:
                foot = vertex_foot(s, face, j)
            except ProjectionUndefined:
                assert not calls
                with pytest.raises(ProjectionUndefined):
                    project_to_face(s, face, p_j)
                continue
            assert not calls
            general = project_to_face(s, face, p_j)
            assert foot.distance == general.distance == alt
            assert np.array_equal(foot.foot, general.foot)
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
        # the Schur altitude: radicand 1 - curvature * m_j^j / m_face
        assert abs(alt - altitude_by_minors(s, face, j)) <= 1e-9
        if len(face) == s.n:
            # facet: the determinant-ratio closed form 1 - curvature * det M / M_jj
            assert abs(alt - facet_altitude_by_determinants(s, j)) <= 1e-9
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


# --------------------------------------------------------------- DomainError

def _near_plane_triangle(model_name):
    """A triangle whose vertex 3 lies ~5e-5 from the line of face (1, 2), and a point on that line."""
    model = model_named(model_name, 3)
    p1 = np.array([1.0, 0.0, 0.0])
    p2 = np.array([COSH1, SINH1, 0.0]) if model.curvature == -1 else np.array([0.0, 1.0, 0.0])
    p3 = normalize_to_manifold(model, p1 + p2 + np.array([0.0, 0.0, 1e-4]))
    return build_simplex(model, [p1, p2, p3]), normalize_to_manifold(model, p1 + p2)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_domain_error_fires_on_a_wrong_solve(model_name, monkeypatch):
    # a face-block solve off by 1e-6 relative moves c2 ~ 1 by 1e-6 across 1:
    # below it in H^n, above it in S^n; the other direction is a valid c2
    # (the solve builds the face's frame, so each call gets a fresh copy of
    # the simplex and builds its plan under the patched solve)
    s, p = _near_plane_triangle(model_name)
    calls = [
        lambda t: distance_to_face(t, (1, 2), p),
        lambda t: project_to_face(t, (1, 2), p),
        lambda t: vertex_foot(t, (1, 2), 3),
        lambda t: altitude(t, (1, 2), 3),
    ]
    solve = np.linalg.solve
    wrong = 1.0 + s.model.curvature * 1e-6
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solve(*a) * (2.0 - wrong))
    for call in calls:
        call(replace(s))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solve(*a) * wrong)
    for call in calls:
        with pytest.raises(DomainError, match=f"{model_name} radicand"):
            call(replace(s))


@pytest.mark.parametrize("factor", [1.0, 10.0])
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_domain_error_rule_is_the_membership_slack(model_name, factor):
    model = model_named(model_name, 3)
    tols = DEFAULT_TOLS.scaled(factor)
    # c2 may fall to 1 - tols.manifold in H^n and rise to 1 + tols.manifold in S^n
    edge = 1.0 + model.curvature * tols.manifold
    projection._distance(model, 1e-3, edge, tols)
    with pytest.raises(DomainError):
        projection._distance(model, 1e-3, float(np.nextafter(edge, edge + model.curvature)), tols)


def test_manifold_slack_moves_only_the_spherical_foot_floor_near_0(octant):
    # near 0, Tolerances.manifold is the spherical-foot floor alone: at 1e-3
    # it refuses the foot, but not the distance, which has no floor, nor a
    # normalization or a normal, whose floors are the numbers' own
    tols = Tolerances(manifold=1e-3)
    p = (1e-2, 0.0, math.sqrt(1.0 - 1e-4))  # cos^2 d = 1e-4 to the plane of face (1, 2)
    assert distance_to_face(octant, (1, 2), p) < math.pi / 2
    project_to_face(octant, (1, 2), p)
    assert distance_to_face(octant, (1, 2), p, tols) == distance_to_face(octant, (1, 2), p)
    with pytest.raises(ProjectionUndefined):
        project_to_face(octant, (1, 2), p, tols)
    assert_allclose(normalize_to_manifold(octant.model, (1e-2, 0.0, 0.0)), [1.0, 0.0, 0.0], atol=1e-15)
    # the H^1 segment of length 5: its normals square to T^2 = 1 / sinh^2 5 ~ 1.8e-4
    segment = [[1.0, 0.0], [math.cosh(5.0), math.sinh(5.0)]]
    s = build_simplex(Model.hyperbolic(2), segment, tols)
    assert_allclose(s.scaling**2, 1.0 / math.sinh(5.0) ** 2, rtol=1e-10)


def test_finish_normalizes_before_the_domain_check(hyp_triangle):
    # a space-like pre-foot is not normalizable; that comes before the
    # DomainError its c2, far below 1, would also raise
    with pytest.raises(NotNormalizable):
        projection._finish(hyp_triangle, np.array([0.0, 1.0, 0.0]), 1.0, 0.0, {}, DEFAULT_TOLS, "face (1, 2)")


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_minors_route_raises_on_a_negative_radicand(model_name, monkeypatch):
    model = model_named(model_name, 4)
    s = random_simplex(model, 3, seed=11)
    p = random_point(model, np.random.default_rng(5))
    assert distance_to_face_by_minors(s, (1, 2), p) > 1e-3
    by_minors = crosscheck._gram_inverse_by_minors

    def flipped(*args):
        table, m_face, gram_inverse = by_minors(*args)
        return table, m_face, -gram_inverse

    monkeypatch.setattr(crosscheck, "_gram_inverse_by_minors", flipped)
    with pytest.raises(DomainError):
        distance_to_face_by_minors(s, (1, 2), p)


# ----------------------------------------------------------------- face plans

def _reference_frame(simplex, face0):
    """The face's frame, built inline: the signed face rows over M_F^-1 times them."""
    face_sig = simplex.vertices[face0] * simplex.model.signature
    return np.vstack((face_sig, np.linalg.solve(simplex.edge_matrix[face0][:, face0], face_sig)))


def _reference_face_solve(simplex, face0, pv):
    """``projection._face_solve`` with the frame and every gather made inline, on every call."""
    sig = simplex.model.signature
    face_pts = simplex.vertices[face0]
    w, mu = np.split(_reference_frame(simplex, face0) @ pv, 2)
    pre_foot = mu @ face_pts
    r = pv - pre_foot
    return pre_foot, float((r * sig) @ r), simplex.model.curvature * float(mu @ w)


def _reference_lambdas(simplex, comp0, displacement):
    """``projection._lambdas`` with every gather made inline, on every call."""
    comp_pts = simplex.vertices[comp0] * simplex.model.signature
    lam = (comp_pts @ displacement) * -simplex.scaling[comp0]
    return dict(zip((comp0 + 1).tolist(), lam.tolist()))


def _outcome(call):
    """The bytes of a route's result, or its error's type and message."""
    try:
        r = call()
    except (BadFace, DomainError, ProjectionUndefined) as exc:
        return type(exc), str(exc)
    if isinstance(r, float):
        return r.hex()
    lam = tuple((k, v.hex()) for k, v in r.lambdas.items())
    return r.foot.tobytes(), r.distance.hex(), lam


def _all_faces(m):
    return [f for k in range(1, m) for f in itertools.combinations(range(1, m + 1), k)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_warm_plan_equals_cold(model_name, n):
    # every route gives the same bytes on a fresh simplex as on one whose
    # plan for the face is already cached
    s = random_simplex(model_named(model_name, n + 1), n, seed=700 + n)
    rng = np.random.default_rng(800 + n)
    warm = replace(s)
    for face in _all_faces(n + 1):
        p = random_point(s.model, rng)
        plan = _face_plan(warm, face)
        routes = [lambda t: project_to_face(t, face, p), lambda t: distance_to_face(t, face, p)]
        for j in plan.comp_keys:
            routes += [lambda t, j=j: vertex_foot(t, face, j), lambda t, j=j: altitude(t, face, j)]
        for route in routes:
            cold = replace(s)
            assert _outcome(lambda: route(warm)) == _outcome(lambda: route(cold))
            assert _face_plan(warm, face) is plan
    assert len(warm._face_plans) == 2 ** (n + 1) - 2


@pytest.mark.parametrize("case", _cases(9000, 10), ids=lambda c: f"{c[0].name}-n{c[0].n}")
def test_face_solve_on_a_plan_matches_the_inline_gathers(case):
    model, s, face, p = case
    plan = _face_plan(s, face)
    pre_foot, s2, c2 = projection._face_solve(model, plan, p)
    face0, comp0 = face_complement(s, face)
    ref_foot, ref_s2, ref_c2 = _reference_face_solve(s, face0, p)
    assert pre_foot.tobytes() == ref_foot.tobytes()
    assert (s2.hex(), c2.hex()) == (ref_s2.hex(), ref_c2.hex())
    lam = projection._lambdas(plan, pre_foot - p)
    ref = _reference_lambdas(s, comp0, pre_foot - p)
    assert list(lam) == list(ref) and [v.hex() for v in lam.values()] == [v.hex() for v in ref.values()]


def test_one_solve_per_face_plan_and_none_per_warm_call(monkeypatch):
    # whichever route meets a face first solves M_F X = F_sig once, for the
    # plan's frame; every later call on the face, by any route, solves nothing
    cases = _cases(9100, 10)
    solve = np.linalg.solve
    solves = []

    def counted(a, b):
        solves.append((a, b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for _, s, face, p in cases:
        face0 = [i - 1 for i in face]
        j = min(set(range(1, s.vertex_count + 1)) - set(face))
        routes = (
            lambda t: project_to_face(t, face, p),
            lambda t: distance_to_face(t, face, p),
            lambda t: vertex_foot(t, face, j),
            lambda t: altitude(t, face, j),
        )
        for first in routes:
            cold = replace(s)
            solves.clear()
            _outcome(lambda: first(cold))
            ((block, rhs),) = solves
            assert np.array_equal(block, s.edge_matrix[face0][:, face0])
            assert np.array_equal(rhs, s.vertices[face0] * s.model.signature)
            solves.clear()
            for route in routes:
                _outcome(lambda: route(cold))
            assert not solves


def test_index_rule_runs_before_the_plan_lookup(octant):
    p = OCTANT_DIAG
    project_to_face(octant, (1, 3), p)
    plan = _face_plan(octant, (1, 3))
    for bad in ((1.0, 3.0), (True, 3), ("1", 3), (3, 1)):
        for call in (
            lambda: _face_plan(octant, bad),
            lambda: project_to_face(octant, bad, p),
            lambda: distance_to_face(octant, bad, p),
            lambda: vertex_foot(octant, bad, 2),
            lambda: altitude(octant, bad, 2),
        ):
            with pytest.raises(BadFace):
                call()
    assert _face_plan(octant, (np.int64(1), np.int64(3))) is plan
    assert _face_plan(octant, [1, 3]) is plan
    assert list(octant._face_plans) == [(0, 2)]


def test_plans_never_cross_simplices():
    model = model_named("hyperbolic", 4)
    a, b = (random_simplex(model, 3, seed=seed) for seed in (1, 2))
    p = random_point(model, np.random.default_rng(3))
    face = (1, 3)
    ra = _outcome(lambda: project_to_face(a, face, p))
    assert _outcome(lambda: project_to_face(b, face, p)) == _outcome(lambda: project_to_face(replace(b), face, p))
    assert _outcome(lambda: project_to_face(a, face, p)) == ra
    plan_a, plan_b = _face_plan(a, face), _face_plan(b, face)
    assert plan_a is not plan_b
    assert_allclose(plan_b.face_pts, b.vertices[[0, 2]], rtol=0, atol=0)
    assert_allclose(plan_b.frame, _reference_frame(b, [0, 2]), rtol=0, atol=0)
    assert not replace(a)._face_plans


def test_plan_arrays_are_read_only(hyp_triangle):
    plan = _face_plan(hyp_triangle, (1, 3))
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert plan.comp_keys == (2,) and plan.label == "face (1, 3)"


def test_a_raising_call_raises_the_same_when_repeated(octant):
    calls = [
        (BadFace, lambda: project_to_face(octant, (1, 2, 3), OCTANT_DIAG)),
        (BadFace, lambda: vertex_foot(octant, (1, 2), 2)),
        (BadFace, lambda: altitude(octant, (1, 2), 4)),
        (ProjectionUndefined, lambda: project_to_face(octant, (1, 2), (0.0, 0.0, 1.0))),
        (ProjectionUndefined, lambda: vertex_foot(octant, (1, 2), 3)),
    ]
    for error, call in calls:
        first = _outcome(call)
        assert first[0] is error
        assert _outcome(call) == first
    assert (0, 1, 2) not in octant._face_plans
    # the plan of a face whose foot was undefined serves a defined one
    assert _outcome(lambda: project_to_face(octant, (1, 2), OCTANT_DIAG)) == _outcome(
        lambda: project_to_face(replace(octant), (1, 2), OCTANT_DIAG)
    )


@pytest.mark.parametrize("floor", [0.0, 1e-300, 1e-17])
def test_a_face_block_the_solve_cannot_factor_is_degenerate_and_never_cached(floor):
    # vertex 2 at 1e-9 from vertex 1: the simplex passes a floor this low,
    # but M[(1, 2), (1, 2)] rounds to all ones, so the plan's solve fails
    tols = Tolerances(degenerate=floor)
    eps = 1e-9
    s = build_simplex(Model.spherical(3), [[1, 0, 0], [np.cos(eps), np.sin(eps), 0], [0, 0, 1]], tols)
    for call in (
        lambda: project_to_face(s, (1, 2), (0.0, 0.0, 1.0), tols),
        lambda: distance_to_face(s, (1, 2), (0.0, 0.0, 1.0), tols),
        lambda: vertex_foot(s, (1, 2), 3, tols),
        lambda: altitude(s, (1, 2), 3, tols),
    ):
        for _ in range(2):
            with pytest.raises(DegenerateSimplex, match=r"face \(1, 2\)"):
                call()
    assert not s._face_plans


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_a_domain_error_repeats_on_the_cached_plan(model_name, monkeypatch):
    s, p = _near_plane_triangle(model_name)
    solve = np.linalg.solve
    wrong = 1.0 + s.model.curvature * 1e-6
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solve(*a) * wrong)
    for call in (
        lambda: distance_to_face(s, (1, 2), p),
        lambda: project_to_face(s, (1, 2), p),
        lambda: vertex_foot(s, (1, 2), 3),
        lambda: altitude(s, (1, 2), 3),
    ):
        first = _outcome(call)
        assert first[0] is DomainError
        assert _outcome(call) == first


def test_concurrent_first_use_gives_the_cold_results():
    # threads racing to build the same plans may build one twice, and every
    # result still equals the cold one
    model = model_named("spherical", 5)
    s = random_simplex(model, 4, seed=11)
    p = random_point(model, np.random.default_rng(12))
    faces = _all_faces(5)
    expected = [_outcome(lambda f=f: project_to_face(replace(s), f, p)) for f in faces]
    shared = replace(s)
    results: dict[int, list] = {}

    def work(k):
        results[k] = [_outcome(lambda f=f: project_to_face(shared, f, p)) for f in faces]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[k] == expected for k in range(6))
    assert len(shared._face_plans) == len(faces)
