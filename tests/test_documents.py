import json
import math

import numpy as np
import pytest

from hsproj import DocumentError, Model
from hsproj.documents import digest, dumps, parse_simplex_document

OCTANT = '{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]]}'


def test_parse_octant():
    doc = parse_simplex_document(OCTANT)
    assert doc.model == "spherical"
    assert doc.to_model() == Model.spherical(3)
    assert doc.vertex_array().shape == (3, 3)
    assert doc.metadata == {}


def test_parse_metadata_kept():
    doc = parse_simplex_document(
        '{"model": "hyperbolic", "vertices": [[1,0],[1.5430806348152437,1.1752011936438014]],'
        ' "metadata": {"name": "segment"}}'
    )
    assert doc.metadata == {"name": "segment"}
    assert doc.as_dict()["metadata"] == {"name": "segment"}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("not json", "not valid JSON"),
        ("[1,2]", "JSON object"),
        ('{"model": "euclidean", "vertices": [[1,0],[0,1]]}', "model"),
        ('{"model": "spherical"}', "vertices"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1],[0,0,0]]}', "row 1"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0,0],[0,0,1]]}', "row 2"),
        ('{"model": "spherical", "vertices": [[1,0,0],{"x": 1},[0,0,1]]}', "row 2 is not a list"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,"x",0],[0,0,1]]}', "row 2"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,NaN,0],[0,0,1]]}', "row 2 has a non-finite"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1e999]]}', "row 3 has a non-finite"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1' + "0" * 400 + ',0],[0,0,1]]}', "row 2 has a non-finite"),
        ('{"model": "spherical", "vertices": [[1]]}', "at least 2"),
        ('{"model": "spherical", "vertices": [[true,0,0],[0,1,0],[0,0,1]]}', "row 1 has a non-numeric"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,false]]}', "row 3 has a non-numeric"),
        ('{"model": "spherical", "vertices": [["1",0,0],[0,1,0],[0,0,1]]}', "row 1 has a non-numeric"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]], "metadata": []}', "metadata"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]], "metadata": 0}', "metadata"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]], "metadata": ""}', "metadata"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]], "metadata": null}', "metadata"),
        ('{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]], "metadata": [1]}', "metadata"),
        (
            '{"model": "spherical", "vertices": [[1,0,0],[0,1,0],[0,0,1]],'
            ' "metadata": {"a": null, "b": {"c": [1, true]}}}',
            "metadata values must be strings",
        ),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(DocumentError, match=needle):
        parse_simplex_document(text)


def test_row_length_error_names_the_row():
    bad = '{"model": "spherical", "vertices": [[1,0,0,0],[0,1,0,0],[0,0,1,0]]}'
    with pytest.raises(DocumentError, match="row 1 has length 4"):
        parse_simplex_document(bad)


def test_dumps_roundtrips_floats_exactly():
    values = [0.1, 1 / 3, math.pi, 1e-17, 6.02e23, -2.5e-308, 1.0, 123456789.123456789]
    text = dumps({"v": values})
    back = json.loads(text)["v"]
    assert all(float(a) == b for a, b in zip(back, values))
    # integral floats stay floats: 1.0 is not written as 1
    assert all(type(a) is float for a in back)


def test_dumps_types():
    text = dumps({"b": True, "n": None, "i": 7, "s": "x\"y", "a": [1, [2.5]], "np": np.float64(0.5)})
    assert json.loads(text) == {"b": True, "n": None, "i": 7, "s": 'x"y', "a": [1, [2.5]], "np": 0.5}
    assert json.loads(dumps((1, 2))) == [1, 2]
    assert json.loads(dumps(np.arange(3))) == [0, 1, 2]
    assert json.loads(dumps({})) == {}
    assert json.loads(dumps([])) == []
    assert json.loads(dumps({"k": np.int64(3)})) == {"k": 3}
    assert json.loads(dumps(np.array([[1.0, 0.5], [0.0, -2.0]]))) == [[1.0, 0.5], [0.0, -2.0]]
    with pytest.raises(TypeError):
        dumps({"s": {1, 2}})


def test_dumps_indent_parses():
    obj = {"a": [1.5, {"b": [0.25, "t"]}]}
    assert json.loads(dumps(obj, indent=2)) == obj


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps([float("inf")])


def test_digest_is_stable():
    a = digest({"model": "spherical", "vertices": [[1.0, 0.0], [0.0, 1.0]]})
    b = digest({"model": "spherical", "vertices": [[1.0, 0.0], [0.0, 1.0]]})
    assert a == b and a.startswith("sha256:")
    assert digest({"model": "hyperbolic", "vertices": [[1.0, 0.0], [0.0, 1.0]]}) != a
