"""The boundary between production and the cross-checks of ``hsproj.crosscheck``.

Production modules hold no cross-check and take no determinant after a
simplex is built; the ``check`` rows test the production T against T from
the minors, not against itself.  The minors are stacked determinants,
bit-identical to one det per entry.
"""

import importlib

import numpy as np
import pytest

from hsproj import DEFAULT_TOLS, Model, altitude, build_simplex, distance_to_face, project_to_face, vertex_foot
from hsproj import bordered_minor, crosscheck, deleted_minor, schur_complement_via_minors
from hsproj.crosscheck import identity_residuals
from hsproj.oracle import random_point, random_simplex

from conftest import model_named


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
    s = build_simplex(model, random_simplex(model, 4, seed=11).vertices)
    p = random_point(model, 12)

    def forbidden(*args, **kwargs):
        raise AssertionError("a production route took a determinant")

    # building takes det M; nothing after it may
    monkeypatch.setattr(np.linalg, "det", forbidden)
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
