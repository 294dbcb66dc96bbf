"""Projections commute with the isometries that fix the simplex's shape.

Three transforms, both models, ``random_simplex`` at n 2, 4 and 6, 20
seeds each, onto faces (1), (1, 2) and (1..n) with one ``random_point``
per case:

* relabelling the vertices: face indices and lambda keys follow the
  permutation, the foot and the distance do not move;
* signed permutations of the spatial coordinates (x2.. in H^n, all of
  them in S^n): exact in float, so the foot moves by the same map;
* random spatial rotations, O(n) on x2.. in H^n and O(n+1) in S^n, with
  the rotated point renormalized onto the manifold.

Boosts, the Lorentz maps that mix x1 into the rest, have a test of
their own in H^n at the same n, seeds and faces: a random spatial
rotation, then a boost of rapidity rho in {1, 2, 3} along x2, which
takes the vertices out to radius 4.43 at rho = 3.  The foot moves by the
same map.  Larger rho belongs with the far-field cases.

Each bound is about 10 times the worst difference measured on these
cases, written beside it; the distance is compared relatively, the foot
absolutely, lambda relative to max(1, |lambda|).
"""

import numpy as np
import pytest

from hsproj import (
    DegenerateSimplex,
    Tolerances,
    build_simplex,
    distance_to_face,
    normalize_to_manifold,
    project_to_face,
    random_point,
    random_simplex,
)

from conftest import degenerate_outcome, model_named

MODELS = ("hyperbolic", "spherical")
DIMENSIONS = (2, 4, 6)
SEEDS = range(20)
TRANSFORMS = ("relabel", "signed_permutation", "rotation")

# (distance relative, foot absolute, lambda) bounds; the worst measured
# difference of each is in the comment beside it
BOUNDS = {
    "relabel": (2e-13, 1e-13, 3e-13),             # 1.9e-14, 1.2e-14, 2.7e-14
    "signed_permutation": (7e-14, 2e-13, 5e-13),  # 7.2e-15, 1.7e-14, 4.6e-14
    "rotation": (2e-13, 3e-13, 4e-13),            # 1.6e-14, 2.7e-14, 4.3e-14
}

# the same bounds per boost rapidity rho, on H^n only
BOOST_BOUNDS = {
    1: (1.5e-12, 6e-13, 7e-13),  # 1.4e-13, 6.1e-14, 6.9e-14
    2: (1e-11, 1e-11, 3e-12),    # 9.3e-13, 1.0e-12, 3.1e-13
    3: (6e-11, 1.3e-10, 3e-11),  # 6.0e-12, 1.3e-11, 2.6e-12
}


def _faces(n):
    return ((1,), (1, 2), tuple(range(1, n + 1)))


def _spatial_map(model, rng, kind):
    """An (m, m) isometry of the ambient form: a signed permutation or a rotation."""
    m = model.ambient_dim
    # H^n keeps x1, the time coordinate; S^n moves every coordinate
    start = 1 if model.curvature == -1 else 0
    k = m - start
    if kind == "signed_permutation":
        block = np.eye(k)[rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)
    else:
        q, r = np.linalg.qr(rng.normal(size=(k, k)))
        block = q * np.sign(np.diag(r))
    A = np.eye(m)
    A[start:, start:] = block
    return A


def _cases(name, n, seed):
    """The simplex, its point, and one moved copy per transform, keyed by name.

    A moved copy is (simplex, point, label, foot map): ``label`` takes an
    original vertex index to the moved simplex's, and the foot map an
    original foot to where the moved foot should be.
    """
    model = model_named(name, n + 1)
    s = random_simplex(model, n, seed)
    rng = np.random.default_rng([77, len(name), n, seed])
    p = random_point(model, rng)

    # new vertex i is old vertex perm[i], so old vertex t is new vertex rank[t]
    perm = rng.permutation(n + 1)
    rank = np.argsort(perm) + 1
    moved = {"relabel": (build_simplex(model, s.vertices[perm]), p, lambda t: int(rank[t - 1]), lambda foot: foot)}
    for kind in ("signed_permutation", "rotation"):
        A = _spatial_map(model, rng, kind)
        q = A @ p if kind == "signed_permutation" else normalize_to_manifold(model, A @ p)
        moved[kind] = (build_simplex(model, s.vertices @ A.T), q, lambda t: t, lambda foot, A=A: A @ foot)
    return s, p, moved


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("name", MODELS)
def test_projection_is_invariant(name, n, transform):
    dist_bound, foot_bound, lambda_bound = BOUNDS[transform]
    for seed in SEEDS:
        s, p, moved = _cases(name, n, seed)
        t, q, label, foot_map = moved[transform]
        for face in _faces(n):
            moved_face = tuple(sorted(label(i) for i in face))
            d = distance_to_face(s, face, p)
            assert abs(distance_to_face(t, moved_face, q) - d) <= dist_bound * d
            # no spherical case here lies near pi/2, so every foot is defined
            before = project_to_face(s, face, p)
            after = project_to_face(t, moved_face, q)
            assert abs(after.distance - before.distance) <= dist_bound * before.distance
            assert float(np.abs(after.foot - foot_map(before.foot)).max()) <= foot_bound
            assert sorted(after.lambdas) == sorted(label(k) for k in before.lambdas)
            for k, v in before.lambdas.items():
                assert abs(after.lambdas[label(k)] - v) <= lambda_bound * max(1.0, abs(v))


def _boost(ambient_dim, rho):
    """The Lorentz boost of rapidity ``rho`` in the (x1, x2) plane."""
    L = np.eye(ambient_dim)
    L[:2, :2] = [[np.cosh(rho), np.sinh(rho)], [np.sinh(rho), np.cosh(rho)]]
    return L


@pytest.mark.parametrize("rho", sorted(BOOST_BOUNDS))
@pytest.mark.parametrize("n", DIMENSIONS)
def test_projection_commutes_with_a_boost(n, rho):
    dist_bound, foot_bound, lambda_bound = BOOST_BOUNDS[rho]
    model = model_named("hyperbolic", n + 1)
    for seed in SEEDS:
        s = random_simplex(model, n, seed)
        rng = np.random.default_rng([78, n, seed])
        p = random_point(model, rng)
        L = _boost(n + 1, rho) @ _spatial_map(model, rng, "rotation")
        t, q = build_simplex(model, s.vertices @ L.T), normalize_to_manifold(model, L @ p)
        for face in _faces(n):
            d = distance_to_face(s, face, p)
            assert abs(distance_to_face(t, face, q) - d) <= dist_bound * d
            before = project_to_face(s, face, p)
            after = project_to_face(t, face, q)
            assert abs(after.distance - before.distance) <= dist_bound * before.distance
            assert float(np.abs(after.foot - L @ before.foot).max()) <= foot_bound
            assert sorted(after.lambdas) == sorted(before.lambdas)
            for k, v in before.lambdas.items():
                assert abs(after.lambdas[k] - v) <= lambda_bound * max(1.0, abs(v))


@pytest.mark.parametrize("floor", [1e-10, 0.0])
@pytest.mark.parametrize("name", MODELS)
def test_relabelled_degenerate_triangle_is_refused_alike(name, floor):
    # vertices 1 and 2 at 1e-9: refused at build by the default floor; past
    # a floor of 0 it builds, and the face of the close pair fails on first use
    eps = 1e-9
    if name == "hyperbolic":
        tri = [[1.0, 0.0, 0.0], [np.cosh(eps), np.sinh(eps), 0.0], [np.cosh(1.0), 0.0, np.sinh(1.0)]]
    else:
        tri = [[1.0, 0.0, 0.0], [np.cos(eps), np.sin(eps), 0.0], [0.0, 0.0, 1.0]]
    model, tols = model_named(name, 3), Tolerances(degenerate=floor)
    stage, error, message = degenerate_outcome(model, tri, (1, 2), tols)
    assert error is DegenerateSimplex and stage == ("build" if floor else "face")
    for perm in ([1, 0, 2], [2, 0, 1], [0, 2, 1], [1, 2, 0], [2, 1, 0]):
        # the close pair, old vertices 1 and 2, under their new labels
        close = tuple(sorted(perm.index(i) + 1 for i in (0, 1)))
        got = degenerate_outcome(model, [tri[i] for i in perm], close, tols)
        assert got == (stage, error, message.replace("(1, 2)", str(close)))
