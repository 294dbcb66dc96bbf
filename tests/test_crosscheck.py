"""The boundary between production and the cross-checks of ``hsproj.crosscheck``.

Production modules hold no cross-check and take no determinant after a
simplex is built; the ``check`` rows test the production T against T from
the minors, not against itself.  The minors are stacked determinants,
bit-identical to one det per entry, and the block-inverse suite stacks G
and M, bit-identical to one Schur call per block.
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest

import hsproj
from hsproj import DEFAULT_TOLS, Model, altitude, build_simplex, distance_to_face, project_to_face, vertex_foot
from hsproj import BadFace, complement_gram_inverse, oracle_project
from hsproj import crosscheck, schur_complement_via_minors
from hsproj import SingularBlock, schur_complement, verify_block_inverse_identities
from hsproj.crosscheck import (
    altitude_by_minors,
    bordered_minor,
    deleted_minor,
    distance_to_face_by_minors,
    identity_residuals,
    vertex_lambdas_by_minors,
)
from hsproj.generators import random_point, random_simplex

from conftest import model_named

# the cross-checks perfbench reads through the top level
BENCHMARK_CROSSCHECKS = {
    "scaling_matrix", "verify_inverse_identity", "verify_block_inverse_identities",
    "schur_complement", "schur_complement_via_minors", "complement_gram_inverse",
}


def test_top_level_exports_production_and_the_benchmark_crosschecks():
    production = {
        "__version__", "Model", "Tolerances", "DEFAULT_TOLS", "inner", "on_manifold", "distance",
        "normalize_to_manifold", "Simplex", "build_simplex", "ProjectionResult", "project_to_face",
        "distance_to_face", "project_to_hyperplane", "vertex_foot", "altitude", "OracleOptions",
        "oracle_project", "random_simplex", "random_point", "GeometryError", "DimensionMismatch",
        "OffManifold", "WrongSheet", "DomainError", "NotNormalizable", "DegenerateSimplex",
        "BadIndexSet", "SingularBlock", "BadFace", "ProjectionUndefined", "OracleFailure",
        "GenerationExhausted", "DocumentError",
    }
    assert len(hsproj.__all__) == len(set(hsproj.__all__)) == 40
    assert set(hsproj.__all__) == production | BENCHMARK_CROSSCHECKS
    # the other cross-checks resolve in the module that defines them, and only there
    homes = {"face_complement": "simplex"} | dict.fromkeys(
        ("deleted_minor", "bordered_minor", "IdentityReport", "ScalingMatrix", "SchurBlock"), "crosscheck"
    )
    for name, home in homes.items():
        module = importlib.import_module(f"hsproj.{home}")
        assert name in module.__all__ and getattr(module, name).__module__ == module.__name__
        assert not hasattr(hsproj, name)


@pytest.mark.parametrize("name", ["simplex", "projection", "oracle"])
def test_production_modules_hold_no_crosscheck(name):
    module = importlib.import_module(f"hsproj.{name}")
    held = [
        attr for attr, value in vars(module).items()
        if callable(value) and getattr(value, "__module__", None) == "hsproj.crosscheck"
    ]
    assert held == []


@pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
def test_production_takes_no_determinant(name, monkeypatch):
    model = model_named(name, 5)
    vertices = random_simplex(model, 4, seed=11).vertices
    p = random_point(model, 12)

    def forbidden(*args, **kwargs):
        raise AssertionError("a production route took a determinant")

    # neither the build nor any route after it takes one
    monkeypatch.setattr(np.linalg, "det", forbidden)
    s = build_simplex(model, vertices)
    assert np.all(s.scaling > 0)
    project_to_face(s, (1, 3), p)
    distance_to_face(s, (1, 3), p)
    vertex_foot(s, (1, 3), 2)
    altitude(s, (1, 3), 2)


def test_duality_row_catches_a_wrong_production_scaling():
    s = random_simplex(Model.spherical(4), 3, seed=13)
    before = identity_residuals(s)
    # the identity rows of ``check``, in its order
    assert list(before) == [
        "inverse_identity", "block_inverse", "schur_paths",
        "vertex_normal_duality", "gram_minor_identity", "scaling_agreement",
    ]
    assert max(before.values()) <= DEFAULT_TOLS.identity
    s.__dict__["scaling"] = s.scaling * (1 + 1e-6)
    after = identity_residuals(s)
    assert after["vertex_normal_duality"] > DEFAULT_TOLS.identity
    # the minors T, not the stored one, feeds the agreement with the Gram side
    assert after["scaling_agreement"] == before["scaling_agreement"]


def _det(A, rows, cols):
    return float(np.linalg.det(A[np.ix_(rows, cols)]))


def _seeded_simplices():
    return [
        pytest.param(random_simplex(model_named(name, n + 1), n, seed=300 + n), id=f"{name}-n{n}")
        for name in ("hyperbolic", "spherical")
        for n in range(2, 9)
    ]


@pytest.mark.parametrize("s", _seeded_simplices())
def test_stacked_minors_match_one_det_per_entry(s):
    m = s.vertex_count
    for A in (s.edge_matrix, s.gram_matrix):
        others = [[i for i in range(m) if i != j] for j in range(m)]
        assert np.array_equal(
            crosscheck._principal_deleted(A), [_det(A, others[i], others[i]) for i in range(m)]
        )
        assert [[deleted_minor(A, i + 1, j + 1) for j in range(m)] for i in range(m)] == [
            [_det(A, others[i], others[j]) for j in range(m)] for i in range(m)
        ]
        for k in range(m - 1):
            lead, trail = list(range(k + 1)), list(range(k + 1, m))
            for keep, base in ((trail, lead), (lead, trail)):
                bordered = [[_det(A, base + [a], base + [b]) for b in keep] for a in keep]
                one_based = [i + 1 for i in base]
                assert [
                    [bordered_minor(A, one_based, a + 1, b + 1) for b in keep] for a in keep
                ] == bordered
                got = schur_complement_via_minors(A, [i + 1 for i in keep]).values
                assert np.array_equal(got, np.array(bordered) / _det(A, base, base))


def test_minors_take_one_stacked_det(monkeypatch):
    simplices = [random_simplex(Model.hyperbolic(n + 1), n, seed=3) for n in (2, 5, 8)]
    det = np.linalg.det
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    for s in simplices:
        m = s.vertex_count
        for k in range(m - 1):
            calls.clear()
            schur_complement_via_minors(s.edge_matrix, tuple(range(k + 2, m + 1)))
            # det M(A,A), then every bordered minor of the block at once
            assert calls == [(k + 1, k + 1), (m - k - 1, m - k - 1, k + 2, k + 2)]
        calls.clear()
        crosscheck._principal_deleted(s.edge_matrix)
        assert calls == [(m, m - 1, m - 1)]


def test_vertex_minor_routes_take_one_row(monkeypatch):
    # vertex j's Schur row needs the k bordered minors of rows (face, j) and,
    # for lambda, the k principal minors of the complement: never the k x k
    # table or all m principal minors
    s = random_simplex(Model.hyperbolic(9), 8, seed=3)
    face, j, comp = (1, 2), 9, range(3, 10)
    M = s.edge_matrix
    m_face = float(np.linalg.det(M[:2, :2]))
    expected = {
        t: math.sqrt(abs(deleted_minor(M, t, t) / s.edge_det)) * (bordered_minor(M, face, j, t) / m_face)
        for t in comp
    }
    det = np.linalg.det
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    altitude_by_minors(s, face, j)
    assert calls == [(2, 2), (7, 3, 3)]
    calls.clear()
    lambdas = vertex_lambdas_by_minors(s, face, j)
    assert calls == [(2, 2), (7, 3, 3), (7, 8, 8)]
    # each stacked minor keeps the bits of its own det call
    assert list(lambdas) == list(comp)
    assert [v.hex() for v in lambdas.values()] == [v.hex() for v in expected.values()]


def test_checks_read_the_simplex_and_build_no_face_plan(monkeypatch):
    # every check reads its face by face_complement: on a fresh simplex none
    # builds a face plan of the fast path, so none solves for its frame
    s = random_simplex(Model.hyperbolic(9), 8, seed=3)
    p = random_point(s.model, 4)
    solve = np.linalg.solve
    solves = []

    def counted(*args):
        solves.append(np.shape(args[0]))
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    altitude_by_minors(s, (1, 2), 9)
    vertex_lambdas_by_minors(s, (1, 2), 9)
    distance_to_face_by_minors(s, (1, 2), p)
    complement_gram_inverse(s, (1, 2))
    oracle_project(s, (1, 2, 3), p)
    assert solves == [] and s._face_plans == {}


@pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
def test_gram_inverse_by_minors_reads_no_edge_det(name):
    # the block-inverse identity pins (G22)^-1 = T_c S T_c: no sign of det M
    s = random_simplex(model_named(name, 5), 4, seed=7)
    complement_gram_inverse(s, (1, 3))
    assert "edge_det" not in s.__dict__
    distance_to_face_by_minors(s, (1, 3), random_point(s.model, 8))
    assert "edge_det" not in s.__dict__


def _message(call):
    with pytest.raises(BadFace) as info:
        call()
    return str(info.value)


def test_vertex_routes_refuse_a_face_vertex_as_production_does():
    s = random_simplex(Model.spherical(5), 4, seed=5)
    for face, j in [((1, 2), 2), ((2, 4, 5), 4), ((1,), 1)]:
        expected = _message(lambda: vertex_foot(s, face, j))
        assert expected == f"vertex {j} must lie outside the face {face}"
        assert _message(lambda: altitude_by_minors(s, face, j)) == expected
        assert _message(lambda: vertex_lambdas_by_minors(s, face, j)) == expected


def _schur_complement_per_call(A, retained, tol_degenerate=DEFAULT_TOLS.degenerate):
    """schur_complement with its own gathers, SVD gate and solve: the
    per-block definition the stacked kernel reproduces bit for bit."""
    A = np.asarray(A, dtype=float)
    keep = np.array(retained) - 1
    elim = np.array([i for i in range(A.shape[0]) if i not in keep], dtype=np.intp)
    block_a = A[elim[:, None], elim]
    svals = np.linalg.svd(block_a, compute_uv=False)
    if svals[-1] <= tol_degenerate * svals[0] or svals[0] == 0.0:
        raise SingularBlock(f"eliminated block {tuple((elim + 1).tolist())} is singular")
    return A[keep[:, None], keep] - A[keep[:, None], elim] @ np.linalg.solve(
        block_a, A[elim[:, None], keep]
    )


def _block_inverse_residuals_four_calls(s, split, tols=DEFAULT_TOLS):
    """The four block-inverse residuals with one Schur call per block, gated at ``tols``."""
    m = s.vertex_count
    lead = tuple(range(1, split + 2))
    trail = tuple(range(split + 2, m + 1))
    t = s.scaling
    M, G = s.edge_matrix, s.gram_matrix

    def residual(block_of, idx, schur_of_other):
        i0 = np.array(idx) - 1
        blk = block_of[i0[:, None], i0]
        ts = t[i0]
        claimed_inv = ts[:, None] * schur_of_other * ts[None, :]
        return float(np.abs(blk @ claimed_inv - np.eye(len(idx))).max())

    def schur(A, kept):
        return _schur_complement_per_call(A, kept, tols.degenerate)

    return {
        "edge_lead": residual(M, lead, schur(G, lead)),
        "edge_trail": residual(M, trail, schur(G, trail)),
        "gram_lead": residual(G, lead, schur(M, lead)),
        "gram_trail": residual(G, trail, schur(M, trail)),
    }


def _block_rows_per_call(s, tols=DEFAULT_TOLS):
    """The block_inverse and schur_paths rows of ``identity_residuals`` with
    one Schur call per block and a fifth for schur_paths, all at ``tols``."""
    m = s.vertex_count
    block_inverse = schur_paths = 0.0
    for k in range(m - 1):
        block_inverse = max(block_inverse, *_block_inverse_residuals_four_calls(s, k, tols).values())
        trail = tuple(range(k + 2, m + 1))
        a = _schur_complement_per_call(s.edge_matrix, trail, tols.degenerate)
        b = schur_complement_via_minors(s.edge_matrix, trail).values
        schur_paths = max(schur_paths, float(np.abs(a - b).max()))
    return {"block_inverse": block_inverse, "schur_paths": schur_paths}


BLOCK_SEEDS = list(range(10)) + [89 * k + 7 for k in range(15)]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_stacked_schur_matches_one_call_per_block(model_name, n):
    model = model_named(model_name, n + 1)
    for seed in BLOCK_SEEDS:
        s = random_simplex(model, n, seed)
        m = s.vertex_count
        for k in range(m - 1):
            want = _block_inverse_residuals_four_calls(s, k)
            assert verify_block_inverse_identities(s, k).residuals == want
            lead, trail = tuple(range(1, k + 2)), tuple(range(k + 2, m + 1))
            for A in (s.edge_matrix, s.gram_matrix):
                for kept in (lead, trail):
                    assert np.array_equal(schur_complement(A, kept).values, _schur_complement_per_call(A, kept))
        rows = identity_residuals(s)
        assert {key: rows[key] for key in ("block_inverse", "schur_paths")} == _block_rows_per_call(s)


def _outcome(call):
    try:
        return call()
    except SingularBlock as exc:
        return str(exc)


def _zeroed(A, k, side):
    A = np.array(A)
    if side in ("lead", "both"):
        A[: k + 1, : k + 1] = 0.0
    if side in ("trail", "both"):
        A[k + 1 :, k + 1 :] = 0.0
    return A


@pytest.mark.parametrize(
    "g_side,m_side",
    [("lead", "trail"), ("trail", "lead"), ("both", None), (None, "both"), ("lead", None), (None, None)],
)
def test_singular_blocks_raise_as_one_call_per_block(g_side, m_side):
    # G's lead and M's trail block fail together when the simplex is degenerate
    # there, so only the order of the gates picks the message
    for k in range(3):
        s = random_simplex(Model.hyperbolic(5), 4, seed=21)
        s.__dict__["gram_matrix"] = _zeroed(s.gram_matrix, k, g_side)
        object.__setattr__(s, "edge_matrix", _zeroed(s.edge_matrix, k, m_side))
        want = _outcome(lambda: _block_inverse_residuals_four_calls(s, k))
        assert _outcome(lambda: verify_block_inverse_identities(s, k).residuals) == want
        for degenerate in (DEFAULT_TOLS.degenerate, 0.05, 0.3, 0.9):
            tols = dataclasses.replace(DEFAULT_TOLS, degenerate=degenerate)
            want = _outcome(lambda: _block_rows_per_call(s, tols))
            got = _outcome(lambda: identity_residuals(s, tols))
            if isinstance(want, str):
                assert got == want
            else:
                assert {key: got[key] for key in want} == want


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_block_inverse_suite_takes_two_gates_and_two_solves_per_split(n, monkeypatch):
    s = random_simplex(Model.spherical(n + 1), n, seed=5)
    s.gram_matrix  # built on first use, outside the count
    calls = _count_calls(monkeypatch, "svd", "solve")
    for k in range(n):
        calls.update(svd=0, solve=0)
        verify_block_inverse_identities(s, k)
        assert calls == {"svd": 2, "solve": 2}
    calls.update(svd=0, solve=0)
    identity_residuals(s)
    assert calls == {"svd": 2 * n, "solve": 2 * n}
