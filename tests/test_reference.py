"""The closed forms against a 50-digit reference projection.

The reference projects onto the span of the face vertices in mpmath at 50
significant digits, taking the float vertices and point exactly as given:
it solves the face block Q mu = w (Q = M[face, face] factored once per
face; a vertex's w is a column of M), forms p. = sum mu_i p_i and reads the
distance from s2 = <p - p., p - p.> and c2 = curvature * <p., p.>.  The
foot is p. / sqrt(c2), and lambda_t = <p. - p, p_t> / <e_t, p_t> with the
exact normal of the float vertices, <e_t, p_t> = -1 / sqrt((M^-1)_tt).
So each error below is the float route's own.

Strata, both models: random points; every face and opposite vertex;
points at a small distance d from the plane (relative error); spherical
points at pi/2 - eps from it; the scaling T = sqrt|diag M^-1|; the
point-to-point ``distance`` from 1e-9 to 3, and in S^n to within 1e-7 of
pi (relative error, against arccosh/arccos of the renormalized inputs).
Each bound is 7 to 36 times the worst error measured on these cases; the
ratio of each is listed with the bounds below.
"""

import functools
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from hsproj import (  # noqa: E402
    DEFAULT_TOLS,
    Model,
    ProjectionUndefined,
    altitude,
    build_simplex,
    distance,
    distance_to_face,
    project_to_face,
    project_to_hyperplane,
    random_point,
    random_simplex,
    vertex_foot,
)

from conftest import REGULAR_CASES, far_field_triangle, model_named, regular_simplex  # noqa: E402

DIGITS = 50
MODELS = ("hyperbolic", "spherical")
NEAR_DISTANCES = (1e-12, 1e-9, 1e-7, 1e-5, 1e-3)
PI_HALF_GAPS = (1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
PAIR_DISTANCES = (1e-9, 1e-6, 1e-3, 1.0, 3.0)
ANTIPODE_GAPS = (1e-4, 1e-7)

# Bounds (absolute unless said otherwise), as multiples of the worst error
# measured on these cases: random distance 12x, foot 16x, lambda 11x;
# vertex distance 11x (H) and 9.0x (S), vertex foot 12x (H) and 16x (S);
# near-plane 36x; pi/2 distance 13x, pi/2 foot 7.1x; scaling 23x; point
# distance 11x (H) and 14x (S).
RANDOM_DISTANCE_BOUND = 2e-14
RANDOM_FOOT_BOUND = 1e-12
LAMBDA_BOUND = 3e-12
VERTEX_DISTANCE_BOUND = {"hyperbolic": 1e-14, "spherical": 3e-15}
VERTEX_FOOT_BOUND = {"hyperbolic": 3e-13, "spherical": 2e-14}
# a few ulps of the unit-scale coordinates: the relative error at distance
# d is bounded by NEAR_BOUND / d
NEAR_BOUND = 2e-15
PI_HALF_BOUND = 3e-15
# the foot p. / sqrt(c2) amplifies the error of p. by 1/sqrt(c2) = 1/sin(eps)
PI_HALF_FOOT_BOUND = 2e-15
# relative; the stored T (sqrt <u_t, u_t> of the normal solve) is off by up
# to 4.3e-15 here, T from the edge matrix's minors by up to 7.2e-13
SCALING_BOUND = 1e-13
# relative.  Hyperbolic pairs lose the most at d = 1e-9, where the float
# inputs' ~1e-16 distance from the hyperboloid moves d by ~3e-13, and at
# d = 3, where q lies at radius up to 5
PAIR_BOUND = {"hyperbolic": 3e-12, "spherical": 3e-14}


class _Exact:
    """A simplex's float vertices at DIGITS digits, taken exactly as given."""

    def __init__(self, simplex):
        self.curvature = simplex.model.curvature
        with mpmath.workdps(DIGITS):
            self.sig = [mpmath.mpf(float(x)) for x in simplex.model.signature]
            self.rows = [[mpmath.mpf(float(x)) for x in v] for v in simplex.vertices]
            self.edge = mpmath.matrix([[self.inner(a, b) for b in self.rows] for a in self.rows])
            minv = self.edge ** -1
            # T_t = sqrt|(M^-1)_tt|, and <e_t, p_t> = -1 / T_t for the exact normals of these vertices
            self.scaling = [mpmath.sqrt(abs(minv[t, t])) for t in range(len(self.rows))]
            self.normal_pairing = [-1 / t for t in self.scaling]
        self._face_lu = {}

    def inner(self, a, b):
        return mpmath.fsum(s * x * y for s, x, y in zip(self.sig, a, b))

    def project(self, face, p):
        """Distance, foot and lambdas (keyed 1-based) of the projection of p onto the face's span."""
        with mpmath.workdps(DIGITS):
            pt = [mpmath.mpf(float(x)) for x in p]
            return self._project(face, pt, [self.inner(self.rows[i - 1], pt) for i in face])

    def project_vertex(self, face, j):
        """``project`` of vertex j, with w = <p_i, p_j> read off column j of M."""
        with mpmath.workdps(DIGITS):
            return self._project(face, self.rows[j - 1], [self.edge[i - 1, j - 1] for i in face])

    def _lu(self, face):
        """The face block Q = M[face, face] in LU factors, at lu_solve's working precision.

        Factored once per face: lu_solve copies its matrix, so mpmath's own
        LU cache never hits.  Call at DIGITS digits.
        """
        if face not in self._face_lu:
            q = mpmath.matrix([[self.edge[a - 1, b - 1] for b in face] for a in face])
            with mpmath.workprec(mpmath.mp.prec + 10):
                self._face_lu[face] = mpmath.mp.LU_decomp(q)
        return self._face_lu[face]

    def _project(self, face, pt, w):
        """``project`` of pt, given w_i = <p_i, pt> over the face; at DIGITS digits."""
        pts = [self.rows[i - 1] for i in face]
        lu, perm = self._lu(face)
        # lu_solve's own steps on the stored factors: solve Q mu = w
        with mpmath.workprec(mpmath.mp.prec + 10):
            mu = mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, mpmath.matrix(w), perm))
        pre = [mpmath.fsum(mu[i] * v[c] for i, v in enumerate(pts)) for c in range(len(pt))]
        r = [x - y for x, y in zip(pt, pre)]
        s2, c2 = self.inner(r, r), self.curvature * self.inner(pre, pre)
        if self.curvature == -1:
            dist = mpmath.asinh(mpmath.sqrt(s2))
            scale = mpmath.sqrt(c2) * mpmath.sign(pre[0])
        else:
            dist = mpmath.atan2(mpmath.sqrt(s2), mpmath.sqrt(c2))
            scale = mpmath.sqrt(c2)
        lambdas = {
            t: float(-self.inner(r, self.rows[t - 1]) / self.normal_pairing[t - 1])
            for t in range(1, len(self.rows) + 1)
            if t not in face
        }
        return float(dist), np.array([float(x / scale) for x in pre]), lambdas


def _random_face(rng, m):
    size = int(rng.integers(1, m))
    return tuple(sorted(int(x) + 1 for x in rng.choice(m, size=size, replace=False)))


def _plane_point(simplex, face, rng):
    """A point of the face's plane and a unit tangent vector orthogonal to the plane there."""
    model = simplex.model
    face0 = [i - 1 for i in face]
    comp0 = [i for i in range(simplex.vertex_count) if i not in face0]
    v = rng.uniform(0.5, 1.5, size=len(face0)) @ simplex.vertices[face0]
    q = v / math.sqrt(model.curvature * float((v * model.signature) @ v))
    # the complement normals are orthogonal to every face vertex, hence to q
    u = rng.normal(size=len(comp0)) @ simplex.normals[comp0]
    return q, u / math.sqrt(float((u * model.signature) @ u))


def _regular_simplices(name):
    """The regular simplices of REGULAR_CASES: well conditioned, though a det floor would refuse them."""
    return [
        build_simplex(model_named(name, n + 1), regular_simplex(name, n, theta)) for n, theta in REGULAR_CASES
    ]


def random_point_cases(name):
    """[(simplex, [(face, p), ...])]: n 2..8, two simplices each, and the regular
    simplices; three points per simplex."""
    rng = np.random.default_rng([71, len(name)])
    simplices = [
        random_simplex(model_named(name, n + 1), n, seed=7100 + 10 * n + k) for n in range(2, 9) for k in range(2)
    ] + _regular_simplices(name)
    return [
        (s, [(_random_face(rng, s.vertex_count), random_point(s.model, rng)) for _ in range(3)])
        for s in simplices
    ]


def vertex_cases(name):
    """[(simplex, [(face, j), ...])]: every face and opposite vertex, n 2..6, and the regular simplices."""
    groups = []
    simplices = [random_simplex(model_named(name, n + 1), n, seed=7200 + n) for n in range(2, 7)]
    for s in simplices + _regular_simplices(name):
        m = s.vertex_count
        faces = [tuple(i + 1 for i in range(m) if bits >> i & 1) for bits in range(1, 2**m - 1)]
        groups.append((s, [(face, j) for face in faces for j in range(1, m + 1) if j not in face]))
    return groups


def _offset_cases(model, seed, rng, offset):
    """[(simplex, [(face, p), ...])]: n 2..6, one face of each size, p = offset(q, u)."""
    groups = []
    for n in range(2, 7):
        s = random_simplex(model(n + 1), n, seed=seed + n)
        items = []
        for size in range(1, n + 1):
            face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
            items.append((face, offset(*_plane_point(s, face, rng))))
        groups.append((s, items))
    return groups


def near_plane_cases(name, d):
    """Points at distance d from the plane."""
    rng = np.random.default_rng([73, len(name), int(-math.log10(d))])
    if name == "hyperbolic":
        return _offset_cases(Model.hyperbolic, 7300, rng, lambda q, u: math.cosh(d) * q + math.sinh(d) * u)
    return _offset_cases(Model.spherical, 7300, rng, lambda q, u: math.cos(d) * q + math.sin(d) * u)


def pi_half_cases(eps):
    """Spherical points at distance pi/2 - eps from the plane."""
    rng = np.random.default_rng([74, int(-math.log10(eps))])
    return _offset_cases(Model.spherical, 7400, rng, lambda q, u: math.sin(eps) * q + math.cos(eps) * u)


def distance_pairs(name, d, seed):
    """Twenty float pairs (model, p, q) at distance d, n 2..6; hyperbolic p at radius <= 2."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in range(2, 7):
        model = model_named(name, n + 1)
        sig = model.signature
        for _ in range(4):
            if model.curvature == -1:
                r, x = rng.uniform(0.0, 2.0), rng.normal(size=n)
                p = np.concatenate([[math.cosh(r)], math.sinh(r) * x / np.linalg.norm(x)])
            else:
                p = rng.normal(size=n + 1)
                p /= np.linalg.norm(p)
            u = rng.normal(size=n + 1)
            u -= model.curvature * float((u * sig) @ p) * p
            u /= math.sqrt(float((u * sig) @ u))
            if model.curvature == -1:
                q = math.cosh(d) * p + math.sinh(d) * u
            else:
                q = math.cos(d) * p + math.sin(d) * u
            pairs.append((model, p, q))
    return pairs


def _exact_distance(model, p, q):
    """arccosh(-<p,q>) or arccos(<p,q>) at DIGITS digits, of p and q renormalized onto the manifold."""
    with mpmath.workdps(DIGITS):
        sig = [mpmath.mpf(float(x)) for x in model.signature]

        def inner(a, b):
            return mpmath.fsum(s * x * y for s, x, y in zip(sig, a, b))

        def unit(x):
            x = [mpmath.mpf(float(c)) for c in x]
            scale = mpmath.sqrt(model.curvature * inner(x, x))
            return [c / scale for c in x]

        ip = inner(unit(p), unit(q))
        return mpmath.acosh(-ip) if model.curvature == -1 else mpmath.acos(ip)


def _foot_error(result, foot):
    return float(np.abs(result.foot - foot).max())


def _lambda_error(result, lambdas):
    return max(abs(result.lambdas[t] - v) for t, v in lambdas.items())


@pytest.mark.parametrize("name", MODELS)
def test_scaling(name):
    # 54 simplices per model, n 2..7: T from the normal solve
    for n in range(2, 8):
        for k in range(9):
            s = random_simplex(model_named(name, n + 1), n, seed=7500 + 10 * n + k)
            for got, exact in zip(s.scaling, _Exact(s).scaling):
                assert abs(float((got - exact) / exact)) <= SCALING_BOUND


@pytest.mark.parametrize("name", MODELS)
def test_random_points(name):
    for s, items in random_point_cases(name):
        exact = _Exact(s)
        for face, p in items:
            dist, foot, lambdas = exact.project(face, p)
            assert abs(distance_to_face(s, face, p) - dist) <= RANDOM_DISTANCE_BOUND
            r = project_to_face(s, face, p)
            assert abs(r.distance - dist) <= RANDOM_DISTANCE_BOUND
            assert _foot_error(r, foot) <= RANDOM_FOOT_BOUND
            assert _lambda_error(r, lambdas) <= LAMBDA_BOUND


@pytest.mark.parametrize("name", MODELS)
def test_every_face_and_vertex(name):
    for s, items in vertex_cases(name):
        exact = _Exact(s)
        for face, j in items:
            dist, foot, lambdas = exact.project_vertex(face, j)
            assert abs(altitude(s, face, j) - dist) <= VERTEX_DISTANCE_BOUND[name]
            try:
                r = vertex_foot(s, face, j)
            except ProjectionUndefined:
                assert dist == pytest.approx(math.pi / 2, abs=1e-9)
                continue
            assert abs(r.distance - dist) <= VERTEX_DISTANCE_BOUND[name]
            assert _foot_error(r, foot) <= VERTEX_FOOT_BOUND[name]
            assert _lambda_error(r, lambdas) <= LAMBDA_BOUND


@pytest.mark.parametrize("d", NEAR_DISTANCES)
@pytest.mark.parametrize("name", MODELS)
def test_points_near_the_plane(name, d):
    for s, items in near_plane_cases(name, d):
        exact = _Exact(s)
        for face, p in items:
            dist, _, _ = exact.project(face, p)
            assert dist == pytest.approx(d, rel=1e-3)
            for got in (distance_to_face(s, face, p), project_to_face(s, face, p).distance):
                assert abs(got - dist) / dist <= NEAR_BOUND / d


@pytest.mark.parametrize("eps", PI_HALF_GAPS)
def test_spherical_points_near_pi_half(eps):
    for s, items in pi_half_cases(eps):
        exact = _Exact(s)
        for face, p in items:
            dist, foot, lambdas = exact.project(face, p)
            assert dist == pytest.approx(math.pi / 2 - eps, abs=1e-3 * eps)
            assert abs(distance_to_face(s, face, p) - dist) <= PI_HALF_BOUND
            routes = [functools.partial(project_to_face, s, face, p)]
            if len(face) == s.n:
                (j,) = set(range(1, s.vertex_count + 1)) - set(face)
                routes.append(functools.partial(project_to_hyperplane, s, j, p))
            for route in routes:
                if math.sin(eps) ** 2 <= DEFAULT_TOLS.manifold:
                    # cos^2 d within the slack of 0: no unique foot, but a distance
                    with pytest.raises(ProjectionUndefined):
                        route()
                    continue
                r = route()
                assert abs(r.distance - dist) <= PI_HALF_BOUND
                assert _foot_error(r, foot) <= PI_HALF_FOOT_BOUND / eps
                assert _lambda_error(r, lambdas) <= LAMBDA_BOUND


def test_spherical_altitude_near_pi_half():
    # vertex 3 sits 1e-6 short of pi/2 from the great circle of face (1, 2):
    # its foot is undefined, its altitude is not
    tri = build_simplex(Model.spherical(3), [(1, 0, 0), (0, 1, 0), (1e-6, 0, 0.9999999999995)])
    assert abs(altitude(tri, (1, 2), 3) - (math.pi / 2 - 1e-6)) <= 1e-15
    with pytest.raises(ProjectionUndefined):
        vertex_foot(tri, (1, 2), 3)


def test_far_field_altitude():
    # r = 6, d = 0.01: the vertex-1 altitude of 11.19 measured 5.0e-14 off
    s = build_simplex(Model.hyperbolic(3), far_field_triangle(6.0, 0.01))
    dist, _, _ = _Exact(s).project_vertex((2, 3), 1)
    assert abs(altitude(s, (2, 3), 1) - dist) <= 1e-12 * dist


@pytest.mark.parametrize("d", PAIR_DISTANCES)
@pytest.mark.parametrize("name", MODELS)
def test_point_distance(name, d):
    for model, p, q in distance_pairs(name, d, [75, len(name), PAIR_DISTANCES.index(d)]):
        exact = _exact_distance(model, p, q)
        assert float(abs(distance(model, p, q) - exact) / exact) <= PAIR_BOUND[name]


@pytest.mark.parametrize("gap", ANTIPODE_GAPS)
def test_spherical_point_distance_near_antipode(gap):
    for model, p, q in distance_pairs("spherical", math.pi - gap, [76, ANTIPODE_GAPS.index(gap)]):
        exact = _exact_distance(model, p, q)
        assert float(abs(distance(model, p, q) - exact) / exact) <= PAIR_BOUND["spherical"]


def test_query_seed_21_vertex_near_pi_half():
    # the benchmark's query seed 21: a spherical altitude 1.13e-3 short of
    # pi/2 on a simplex with cond(M) 8.9e4
    s = random_simplex(Model.spherical(6), 5, seed=1583875550)
    face, j = (6,), 3
    p_j = s.vertices[j - 1]
    dist, foot, lambdas = _Exact(s).project_vertex(face, j)
    r = vertex_foot(s, face, j)
    for got in (altitude(s, face, j), r.distance, distance_to_face(s, face, p_j)):
        assert abs(got - dist) <= 1e-13
    assert _foot_error(r, foot) <= 1e-12
    assert _lambda_error(r, lambdas) <= 1e-11
