import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import (
    DEFAULT_TOLS,
    BadIndexSet,
    DegenerateSimplex,
    DimensionMismatch,
    Model,
    OffManifold,
    SingularBlock,
    Tolerances,
    WrongSheet,
    altitude,
    build_simplex,
    complement_gram_inverse,
    distance_to_face,
    inner,
    project_to_face,
    project_to_hyperplane,
    scaling_matrix,
    schur_complement,
    schur_complement_via_minors,
    verify_inverse_identity,
    verify_block_inverse_identities,
    vertex_foot,
)
from hsproj import crosscheck
from hsproj.crosscheck import bordered_minor, deleted_minor
from hsproj.generators import random_point, random_simplex

from conftest import (
    COSH1, REGULAR_CASES, SINH1, degenerate_outcome, far_field_triangle, model_named, regular_simplex,
)


# ---------------------------------------------------------------- build

def test_octant_build(octant):
    assert_allclose(octant.edge_matrix, np.eye(3), atol=1e-15)
    assert_allclose(octant.gram_matrix, np.eye(3), atol=1e-15)
    assert_allclose(octant.normals, -np.eye(3), atol=1e-15)
    assert octant.edge_det == pytest.approx(1.0)


def test_hyperbolic_edge_matrix(hyp_triangle):
    c = COSH1
    expected = np.array([[-1, -c, -c], [-c, -1, -c * c], [-c, -c * c, -1]])
    assert_allclose(hyp_triangle.edge_matrix, expected, rtol=0, atol=1e-14)
    assert abs(hyp_triangle.edge_det) > 1e-6


def test_build_rejects_repeated_vertex():
    with pytest.raises(DegenerateSimplex):
        build_simplex(Model.spherical(3), [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(DegenerateSimplex):
        build_simplex(Model.hyperbolic(3), [[1, 0, 0], [COSH1, SINH1, 0], [COSH1, SINH1, 0]])


@pytest.mark.parametrize("floor", [0.0, 1e-300, 1e-17])
def test_a_solve_that_fails_past_a_lowered_floor_raises_the_gates_error(floor):
    # exactly dependent rows can pass a floor this low; the solve after the
    # gate then fails, and it fails with the gate's typed error, not numpy's
    tols = Tolerances(degenerate=floor)
    with pytest.raises(DegenerateSimplex):
        build_simplex(Model.spherical(3), [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tols)
    with pytest.raises(DegenerateSimplex):
        build_simplex(Model.hyperbolic(3), [[1, 0, 0], [COSH1, SINH1, 0], [COSH1, SINH1, 0]], tols)
    with pytest.raises(SingularBlock, match=r"\(2, 3\)"):
        schur_complement([[2, 1, 1], [1, 1, 1], [1, 1, 1]], (1,), tols)
    # vertex 2 at 1e-9 from vertex 1 builds (cond 6e16), but its block
    # M[(1, 2), (1, 2)] rounds to all ones
    eps = 1e-9
    thin = build_simplex(Model.spherical(3), [[1, 0, 0], [np.cos(eps), np.sin(eps), 0], [0, 0, 1]], tols)
    with pytest.raises(SingularBlock, match=r"\(1, 2\)"):
        verify_block_inverse_identities(thin, 1, tols)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("floor", [1e-10, 1e-17, 1e-300, 0.0])
def test_a_degenerate_triangle_fails_alike_in_both_models(floor, eps):
    # _singular alone refuses a degenerate M, in H^n as in S^n: past a
    # lowered floor a repeated vertex fails the normal solve, and a
    # near-repeat builds and its face fails on first use
    tols = Tolerances(degenerate=floor)
    hyp = [[1, 0, 0], [np.cosh(eps), np.sinh(eps), 0], [COSH1, 0, SINH1]]
    sph = [[1, 0, 0], [np.cos(eps), np.sin(eps), 0], [0, 0, 1]]
    outcome = degenerate_outcome(Model.spherical(3), sph, (1, 2), tols)
    assert degenerate_outcome(Model.hyperbolic(3), hyp, (1, 2), tols) == outcome
    stage, error, message = outcome
    assert error is DegenerateSimplex
    assert stage == "build" or "face (1, 2)" in message


def test_build_rejects_a_vertex_just_off_the_great_circle():
    # 1e-6 off the great circle of the other two: sigma_min / sigma_max of
    # M is ~1e-12, below degenerate = 1e-10
    v = np.array([0.6, 0.8, 1e-6])
    with pytest.raises(DegenerateSimplex):
        build_simplex(Model.spherical(3), [[1, 0, 0], [0, 1, 0], v / np.linalg.norm(v)])


@pytest.mark.parametrize("n,theta", REGULAR_CASES)
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_build_accepts_well_conditioned_regular_simplices(model_name, n, theta):
    # cond(M) <= 1.4e3, yet |det M| / max|M|^(n+1) is ~1e-13: singularity is
    # read from the spectrum, so these build, and every identity holds
    s = build_simplex(model_named(model_name, n + 1), regular_simplex(model_name, n, theta))
    residuals = crosscheck.identity_residuals(s)
    assert all(r <= 1e-12 for r in residuals.values()), residuals


def test_singular_is_the_one_rule(monkeypatch):
    import hsproj.simplex as simplex

    tols = DEFAULT_TOLS
    # true unless sigma_min > degenerate * sigma_max: NaN and all-zero included
    for svals in ([1.0, 1e-10], [1.0, 0.0], [0.0, 0.0], [np.nan, np.nan], [1.0, np.nan]):
        assert simplex._singular(svals, tols), svals
    assert not simplex._singular([1.0, 1e-9], tols)
    assert not simplex._singular(np.array([2.0, 1.0]), tols)

    assert crosscheck._singular is simplex._singular
    real, callers = simplex._singular, []

    def spy(svals, tols):
        callers.append(len(svals))
        return real(svals, tols)

    for module in (simplex, crosscheck):
        monkeypatch.setattr(module, "_singular", spy)
    build_simplex(Model.spherical(3), np.eye(3))
    assert callers == [3]
    with pytest.raises(SingularBlock):
        schur_complement(np.diag([1.0, 0.0, 1.0]), (3,))
    assert callers == [3, 2]


def test_build_rejects_off_manifold_and_wrong_sheet():
    with pytest.raises(OffManifold):
        build_simplex(Model.spherical(3), [[1, 0, 0], [0, 1.001, 0], [0, 0, 1]])
    with pytest.raises(OffManifold):
        build_simplex(Model.spherical(3), [[1, 0, 0], [0, np.nan, 0], [0, 0, 1]])
    with pytest.raises(WrongSheet):
        build_simplex(
            Model.hyperbolic(3),
            [[1, 0, 0], [-COSH1, SINH1, 0], [COSH1, 0, SINH1]],
        )
    with pytest.raises(DimensionMismatch):
        build_simplex(Model.spherical(3), [[1, 0, 0], [0, 1, 0]])


def test_simplex_is_immutable(octant):
    with pytest.raises(ValueError):
        octant.vertices[0, 0] = 2.0
    with pytest.raises(ValueError):
        octant.edge_matrix[0, 1] = 5.0
    with pytest.raises(ValueError):
        octant.normals[0, 0] = 2.0
    with pytest.raises(ValueError):
        octant.scaling[0] = 2.0
    # built on first use, and frozen like the stored arrays
    with pytest.raises(ValueError):
        octant.gram_matrix[0, 1] = 5.0
    assert octant.gram_matrix is octant.gram_matrix


@pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
def test_build_takes_one_determinant_and_keeps_it(name, monkeypatch):
    model = model_named(name, 5)
    vertices = random_simplex(model, 4, seed=11).vertices
    dets = []
    real = np.linalg.det

    def spy(a):
        dets.append(real(a))
        return dets[-1]

    monkeypatch.setattr(np.linalg, "det", spy)
    s = build_simplex(model, vertices)
    assert dets == []
    # det M is built on its first read, and kept
    assert s.edge_det.hex() == float(real(s.edge_matrix)).hex()
    assert s.edge_det is s.edge_det
    assert len(dets) == 1


@pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
def test_production_leaves_the_gram_side_unbuilt(name):
    model = model_named(name, 5)
    s = build_simplex(model, random_simplex(model, 4, seed=11).vertices)
    p = random_point(model, 12)
    project_to_face(s, (1, 3), p)
    distance_to_face(s, (1, 3), p)
    project_to_hyperplane(s, 2, p)
    vertex_foot(s, (1, 3), 2)
    altitude(s, (1, 3), 2)
    assert "gram_matrix" not in vars(s) and "gram_det" not in vars(s)


# ---------------------------------------------------------------- minors

def test_deleted_and_bordered_minor():
    A = np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3)
    assert deleted_minor(A, 1, 1) == pytest.approx(A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
    assert bordered_minor(A, (1,), 2, 3) == pytest.approx(A[0, 0] * A[1, 2] - A[0, 2] * A[1, 0])
    with pytest.raises(BadIndexSet):
        bordered_minor(A, (1,), 1, 2)  # border index inside base


# ---------------------------------------------------------------- normals

def test_far_field_triangle_builds():
    # cond(M) 1.4e4 and a vertex-1 altitude of 11.19: T_1^2 = 1/sinh^2 11.19
    # ~ 7.6e-10 sits below the membership slack, yet the normal is space-like
    s = build_simplex(Model.hyperbolic(3), far_field_triangle(6.0, 0.01))
    h = altitude(s, (2, 3), 1)
    assert h == pytest.approx(11.19, abs=1e-2)
    assert s.scaling[0] ** 2 == pytest.approx(1.0 / np.sinh(h) ** 2, rel=1e-12)


def test_octant_normals(octant):
    assert_allclose(octant.normals, -np.eye(3), atol=1e-15)


def test_segment_normal_example(hyp_segment):
    # solving the 2x2 orthogonality system by hand gives e_2 = (0, -1)
    assert_allclose(hyp_segment.normals[1], [0.0, -1.0], atol=1e-15)
    assert_allclose(hyp_segment.normals[0], [SINH1, COSH1], rtol=1e-15)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_normal_postconditions(model_name):
    for seed in range(8):
        n = 2 + seed % 5
        model = model_named(model_name, n + 1)
        s = random_simplex(model, n, seed=100 + seed)
        E, P = s.normals, s.vertices
        det_m = s.edge_det
        for i in range(n + 1):
            assert inner(model, E[i], E[i]) == pytest.approx(1.0, abs=1e-10)
            expected = -np.sqrt(abs(det_m / deleted_minor(s.edge_matrix, i + 1, i + 1)))
            for j in range(n + 1):
                want = expected if i == j else 0.0
                assert inner(model, E[i], P[j]) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_normals_match_cofactor_formula(model_name):
    # the closed form e_i ~ -eps * sum_j (-1)^(i+j) M_ij p_j / sqrt|M_ii det M|,
    # with the cofactor sign made explicit and the overall sign pinned by
    # outwardness, reproduces the solver-based normals
    for seed in (3, 4):
        n = 3
        model = model_named(model_name, n + 1)
        s = random_simplex(model, n, seed=seed)
        M, P = s.edge_matrix, s.vertices
        det_m = s.edge_det
        for i in range(1, n + 2):
            combo = np.zeros(n + 1)
            for j in range(1, n + 2):
                cof = (-1) ** (i + j) * deleted_minor(M, i, j)
                combo += cof * P[j - 1]
            cand = -model.curvature * combo / np.sqrt(abs(deleted_minor(M, i, i) * det_m))
            if inner(model, cand, P[i - 1]) > 0:
                cand = -cand
            assert_allclose(cand, s.normals[i - 1], rtol=0, atol=1e-8)


# ------------------------------------------------------ scaling + inverse identity

def test_scaling_matrix_examples(octant, hyp_segment):
    assert_allclose(scaling_matrix(octant).diag, np.ones(3), atol=1e-15)
    assert_allclose(
        scaling_matrix(hyp_segment).diag,
        [0.8509181282393216, 0.8509181282393216],
        rtol=1e-14,
    )


def test_scaling_matrix_positive_on_random():
    s = random_simplex(Model.spherical(4), 3, seed=77)
    d = scaling_matrix(s).diag
    assert np.all(d > 0) and np.all(np.isfinite(d))


def test_scaling_matrix_rejects_a_stored_scaling_off_the_gram_side():
    s = random_simplex(Model.hyperbolic(4), 3, seed=2)
    assert scaling_matrix(s).diag is s.scaling
    off = dataclasses.replace(s, scaling=s.scaling * (1 + 1e-6))
    with pytest.raises(DegenerateSimplex, match="disagree"):
        scaling_matrix(off)


def test_scaling_minors_computed_once_per_simplex(monkeypatch):
    import hsproj.crosscheck as crosscheck

    s = random_simplex(Model.hyperbolic(5), 4, seed=5)
    t = s.scaling
    assert t is s.scaling and not t.flags.writeable
    edge_minors = []

    def counting(name):
        real = getattr(crosscheck, name)

        def counted(matrix, *args):
            if matrix is s.edge_matrix:
                edge_minors.append((name, args))
            return real(matrix, *args)

        return counted

    # the principal minors of M are T's route: one minor or a stack of all
    for name in ("deleted_minor", "_principal_deleted"):
        monkeypatch.setattr(crosscheck, name, counting(name))
    verify_inverse_identity(s)
    for k in range(4):
        verify_block_inverse_identities(s, k)
        complement_gram_inverse(s, tuple(range(1, k + 2)))
    assert scaling_matrix(s).diag is t
    assert edge_minors == []


def test_verify_honours_caller_tol_on_ill_conditioned_simplex():
    # M and G disagree on T by 2.3e-8 relative; the identities hold to 6e-8
    # (inverse) and 4.2e-8 (block), above the fixed 1e-8 pass bound, which no
    # caller record moves
    v = np.array([0.6, 0.8, 5e-5])
    s = build_simplex(Model.spherical(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], v / np.linalg.norm(v)])
    assert np.linalg.cond(s.edge_matrix) > 1e9
    reports = [verify_inverse_identity(s)] + [verify_block_inverse_identities(s, k) for k in (0, 1)]
    for rep in reports:
        assert rep.max_residual <= 1e-6 and not rep.passed
    # vertex 2 at 6e-6 from vertex 1: a simplex only below the default
    # degenerate floor, and eliminated block (1, 2) has singular values 2
    # and ~1.8e-11, so the Schur gates pass only at the caller's record
    eps = 6e-6
    tols = DEFAULT_TOLS.scaled(0.01)
    thin = [[1.0, 0.0, 0.0], [np.cos(eps), np.sin(eps), 0.0], [0.0, 0.0, 1.0]]
    s = build_simplex(Model.spherical(3), thin, tols)
    with pytest.raises(SingularBlock, match=r"\(1, 2\)"):
        verify_block_inverse_identities(s, 1)
    assert len(verify_block_inverse_identities(s, 1, tols).residuals) == 4
    with pytest.raises(SingularBlock, match=r"\(1, 2\)"):
        schur_complement(s.edge_matrix, (3,))
    assert schur_complement(s.edge_matrix, (3,), tols).values.shape == (1, 1)


def test_inverse_identity_octant(octant):
    rep = verify_inverse_identity(octant)
    assert rep.max_residual <= 1e-14
    assert rep.passed


@pytest.mark.parametrize("model_name,n", [("hyperbolic", 4), ("spherical", 5)])
def test_inverse_identity_random(model_name, n):
    for seed in range(10):
        s = random_simplex(model_named(model_name, n + 1), n, seed=seed)
        assert verify_inverse_identity(s).passed


# ------------------------------------------------------- schur + block inverses

def test_schur_examples():
    blk = schur_complement(np.eye(4), (2, 3))
    assert_allclose(blk.values, np.eye(2), atol=1e-15)
    assert blk.block_rows == (2, 3)
    blk = schur_complement([[2.0, 1.0], [1.0, 2.0]], (2,))
    assert blk.values[0, 0] == pytest.approx(1.5)
    # retaining everything leaves the matrix untouched, on both routes
    assert_allclose(schur_complement(np.eye(3), (1, 2, 3)).values, np.eye(3))
    A = np.arange(9.0).reshape(3, 3)
    blk = schur_complement_via_minors(A, (1, 2, 3))
    assert blk.block_rows == (1, 2, 3) and np.array_equal(blk.values, A)


def test_schur_argument_guards():
    for route in (schur_complement, schur_complement_via_minors):
        with pytest.raises(BadIndexSet, match="square"):
            route(np.ones((2, 3)), (1,))
        with pytest.raises(BadIndexSet, match="nonempty"):
            route(np.eye(3), ())
    with pytest.raises(BadIndexSet, match="square"):
        deleted_minor(np.ones((2, 3)), 1, 1)


def test_schur_singular_block():
    for route in (schur_complement, schur_complement_via_minors):
        with pytest.raises(SingularBlock, match=r"\(1,\)"):
            route([[0.0, 0.0], [0.0, 1.0]], (2,))
    # the gate is relative: smallest over largest singular value of the
    # eliminated block against the default degenerate = 1e-10
    for small in (1e-11, 1e-10):  # the bound itself is singular
        with pytest.raises(SingularBlock, match=r"\(1, 2\)"):
            schur_complement(np.diag([1.0, small, 1.0]), (3,))
    assert schur_complement(np.diag([1.0, 1e-9, 1.0]), (3,)).values[0, 0] == 1.0


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_schur_paths_agree(model_name):
    for seed in range(6):
        n = 2 + seed % 5
        s = random_simplex(model_named(model_name, n + 1), n, seed=200 + seed)
        M = s.edge_matrix
        for k in range(n):
            trail = tuple(range(k + 2, n + 2))
            a = schur_complement(M, trail).values
            b = schur_complement_via_minors(M, trail).values
            assert np.abs(a - b).max() <= 1e-8


def test_block_inverse_octant(octant):
    for k in (0, 1):
        assert verify_block_inverse_identities(octant, k).max_residual <= 1e-14


@pytest.mark.parametrize("model_name,n,split", [("hyperbolic", 4, 1), ("spherical", 5, 2)])
def test_block_inverse_random(model_name, n, split):
    for seed in range(10):
        s = random_simplex(model_named(model_name, n + 1), n, seed=seed)
        assert verify_block_inverse_identities(s, split).passed


def test_block_inverse_split_validation(octant):
    with pytest.raises(BadIndexSet):
        verify_block_inverse_identities(octant, -1)
    with pytest.raises(BadIndexSet):
        verify_block_inverse_identities(octant, 2)  # trailing block would be empty


# ---------------------------------------------------------------- identities

@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_complement_gram_inverse_matches_inversion(model_name):
    rng = np.random.default_rng(31)
    for seed in range(8):
        n = 2 + seed % 5
        s = random_simplex(model_named(model_name, n + 1), n, seed=300 + seed)
        k = int(rng.integers(0, n))
        face = tuple(sorted(int(i) + 1 for i in rng.choice(n + 1, size=k + 1, replace=False)))
        comp = [i for i in range(n + 1) if i + 1 not in face]
        g22 = s.gram_matrix[np.ix_(comp, comp)]
        assert_allclose(complement_gram_inverse(s, face), np.linalg.inv(g22),
                        rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_gram_minor_determinant_identity(model_name):
    # G_jj = curvature * det G * M_jj / det M; the spherical-side sign is
    # + (verified here), the hyperbolic-side sign is - as printed
    for seed in range(8):
        n = 2 + seed % 5
        model = model_named(model_name, n + 1)
        s = random_simplex(model, n, seed=400 + seed)
        for j in range(1, n + 2):
            g_jj = deleted_minor(s.gram_matrix, j, j)
            claim = model.curvature * s.gram_det * deleted_minor(s.edge_matrix, j, j) / s.edge_det
            assert abs(g_jj - claim) <= 1e-8 * max(1.0, abs(g_jj))
