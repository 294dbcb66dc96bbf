"""The boundary between production and the cross-checks of ``hsproj.crosscheck``.

Production modules hold no cross-check and take no determinant after a
simplex is built; the ``check`` rows test the production T against T from
the minors, not against itself.
"""

import importlib

import numpy as np
import pytest

from hsproj import DEFAULT_TOLS, Model, altitude, build_simplex, distance_to_face, project_to_face, vertex_foot
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
