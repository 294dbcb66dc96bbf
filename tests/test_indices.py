"""The one index rule, seen from every public entry point that takes indices.

Faces and vertices must raise BadFace, matrix index sets BadIndexSet, on
the same bad input everywhere; numpy integers must give the same result,
bit for bit, as Python ints.
"""

import dataclasses

import numpy as np
import pytest

from hsproj import crosscheck, simplex
from hsproj import (
    BadFace,
    BadIndexSet,
    Model,
    altitude,
    complement_gram_inverse,
    distance_to_face,
    oracle_project,
    project_to_face,
    project_to_hyperplane,
    schur_complement,
    schur_complement_via_minors,
    verify_block_inverse_identities,
    vertex_foot,
)
from hsproj.generators import random_point, random_simplex
from hsproj.crosscheck import (
    altitude_by_minors,
    bordered_minor,
    deleted_minor,
    distance_to_face_by_minors,
    facet_altitude_by_determinants,
    vertex_lambdas_by_minors,
)
from hsproj.simplex import face_complement

S = random_simplex(Model.hyperbolic(4), 3, seed=7)  # m = 4 vertices
P = random_point(S.model, 8)
M = S.edge_matrix

# entry point -> (typed error, argument is a set, lowest and highest valid
# index, a valid argument, the call with that argument replaced)
ENTRIES = {
    "face_complement": (BadFace, True, 1, 4, (1, 3), lambda v: face_complement(S, v)),
    "project_to_face": (BadFace, True, 1, 4, (1, 3), lambda v: project_to_face(S, v, P)),
    "distance_to_face": (BadFace, True, 1, 4, (1, 3), lambda v: distance_to_face(S, v, P)),
    "distance_by_minors": (BadFace, True, 1, 4, (1, 3), lambda v: distance_to_face_by_minors(S, v, P)),
    "oracle_project": (BadFace, True, 1, 4, (1, 3), lambda v: oracle_project(S, v, P)),
    "complement_gram_inverse": (BadFace, True, 1, 4, (1, 3), lambda v: complement_gram_inverse(S, v)),
    "vertex_foot.face": (BadFace, True, 1, 4, (1, 3), lambda v: vertex_foot(S, v, 4)),
    "vertex_foot.j": (BadFace, False, 1, 4, 2, lambda v: vertex_foot(S, (1, 3), v)),
    "altitude.face": (BadFace, True, 1, 4, (1, 3), lambda v: altitude(S, v, 4)),
    "altitude.j": (BadFace, False, 1, 4, 2, lambda v: altitude(S, (1, 3), v)),
    "altitude_by_minors.face": (BadFace, True, 1, 4, (1, 3), lambda v: altitude_by_minors(S, v, 4)),
    "altitude_by_minors.j": (BadFace, False, 1, 4, 2, lambda v: altitude_by_minors(S, (1, 3), v)),
    "vertex_lambdas_by_minors.face": (
        BadFace, True, 1, 4, (1, 3), lambda v: vertex_lambdas_by_minors(S, v, 4)
    ),
    "vertex_lambdas_by_minors.j": (
        BadFace, False, 1, 4, 2, lambda v: vertex_lambdas_by_minors(S, (1, 3), v)
    ),
    "facet_altitude_by_determinants.j": (
        BadFace, False, 1, 4, 2, lambda v: facet_altitude_by_determinants(S, v)
    ),
    "project_to_hyperplane.j": (BadFace, False, 1, 4, 2, lambda v: project_to_hyperplane(S, v, P)),
    "deleted_minor.i": (BadIndexSet, False, 1, 4, 2, lambda v: deleted_minor(M, v, 3)),
    "deleted_minor.j": (BadIndexSet, False, 1, 4, 3, lambda v: deleted_minor(M, 2, v)),
    "bordered_minor.base": (BadIndexSet, True, 1, 4, (1, 3), lambda v: bordered_minor(M, v, 2, 4)),
    "bordered_minor.s": (BadIndexSet, False, 1, 4, 2, lambda v: bordered_minor(M, (1, 3), v, 4)),
    "bordered_minor.t": (BadIndexSet, False, 1, 4, 4, lambda v: bordered_minor(M, (1, 3), 2, v)),
    "schur_complement": (BadIndexSet, True, 1, 4, (2, 4), lambda v: schur_complement(M, v)),
    "schur_via_minors": (BadIndexSet, True, 1, 4, (2, 4), lambda v: schur_complement_via_minors(M, v)),
    "verify_block_inverse.split_k": (
        BadIndexSet, False, 0, 2, 1, lambda v: verify_block_inverse_identities(S, v)
    ),
}

BAD = ("1.5", "3.0", "True", "np.True_", "str", "below", "above", "duplicate", "decreasing", "non-sequence")
# a bare integer is a bad set, but what a scalar entry takes
REFUSALS = [(entry, label) for entry, spec in ENTRIES.items() for label in BAD if spec[1] or label != "non-sequence"]


def _bad_argument(label, is_set, lo, hi):
    if label == "non-sequence":
        return lo
    value = {
        "1.5": 1.5, "3.0": 3.0, "True": True, "np.True_": np.True_, "str": "1",
        "below": lo - 1, "above": hi + 1, "duplicate": (1, 1), "decreasing": (3, 1),
    }[label]
    if is_set and not isinstance(value, tuple):
        return (value,)
    return value


@pytest.mark.parametrize("entry, label", REFUSALS, ids=[f"{e}-{l}" for e, l in REFUSALS])
def test_index_rule_refuses_with_typed_error(entry, label):
    error, is_set, lo, hi, _, call = ENTRIES[entry]
    with pytest.raises(error):
        call(_bad_argument(label, is_set, lo, hi))


def test_minors_routes_run_the_index_rule_once(monkeypatch):
    rule = simplex._index_positions
    calls = []

    def spy(indices, m, error, what, *args):
        calls.append(what)
        return rule(indices, m, error, what, *args)

    # face_complement reads simplex's binding, the cross-checks their own
    monkeypatch.setattr(simplex, "_index_positions", spy)
    monkeypatch.setattr(crosscheck, "_index_positions", spy)
    for call, rules in [
        (lambda: distance_to_face_by_minors(S, (1, 3), P), ["face"]),
        (lambda: complement_gram_inverse(S, (1, 3)), ["face"]),
        (lambda: facet_altitude_by_determinants(S, 2), ["vertex"]),
        (lambda: altitude_by_minors(S, (1, 3), 2), ["face", "vertex"]),
        (lambda: vertex_lambdas_by_minors(S, (1, 3), 2), ["face", "vertex"]),
    ]:
        calls.clear()
        call()
        assert calls == rules


@pytest.mark.parametrize("face", [(), (1, 2, 3, 4)])
def test_complement_gram_inverse_needs_a_proper_face(face):
    # a face has 1..n vertices here as in every other face argument
    with pytest.raises(BadFace):
        complement_gram_inverse(S, face)


def _bits(x):
    """A comparable image of a result that differs whenever one bit does."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((type(k), k, _bits(v)) for k, v in x.items())
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return x.hex()
    return (type(x), x)


@pytest.mark.parametrize("entry", ENTRIES)
def test_index_rule_numpy_integers_are_bit_identical(entry):
    _, is_set, _, _, valid, call = ENTRIES[entry]
    as_numpy = tuple(np.int64(i) for i in valid) if is_set else np.int64(valid)
    assert _bits(call(as_numpy)) == _bits(call(valid))
