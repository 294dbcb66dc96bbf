"""Simplex input documents and machine-readable report serialization.

The input grammar is plain JSON (documented in the README):

    {
      "model": "hyperbolic" | "spherical",
      "vertices": [[x1, ..., x_{n+1}], ...],   # n+1 rows of length n+1
      "metadata": {"any": "strings"}           # optional, string values only
    }

:func:`parse_simplex_document` returns the dict that reports echo as
their ``inputs``: ``model``, then ``vertices`` as rows of Python floats,
then ``metadata`` only when it is not empty.  ``_model`` reads the model
name as a ``Model``; ``build_simplex`` takes the rows as they are.

Vertex rows are 1-based in all diagnostics, matching the rest of the
package.  Structural problems (bad JSON, wrong row lengths, unknown
model) raise DocumentError, which the CLI maps to exit code 2; geometric
problems surface later from build_simplex and map to exit code 1.

Reports are emitted through :func:`dumps`, the standard ``json`` writer:
each float is its shortest round-trip repr, so a parsed report holds the
exact doubles that produced it, integral ones as floats (``1.0``, not ``1``).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import DocumentError
from .forms import Model

__all__ = ["parse_simplex_document", "dumps", "digest"]

_MODEL_NAMES = ("hyperbolic", "spherical")


def _model(name: str, ambient_dim: int) -> Model:
    """The ``Model`` a document's model name stands for, in ``ambient_dim`` coordinates."""
    return Model(-1 if name == "hyperbolic" else +1, ambient_dim)


def parse_simplex_document(text: str) -> dict:
    """Parse and structurally validate a simplex document; DocumentError on any fault."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json's decoder recurses once per nesting level
        raise DocumentError("JSON nested too deep") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    model = raw.get("model")
    if model not in _MODEL_NAMES:
        raise DocumentError(f"model must be one of {_MODEL_NAMES}, got {model!r}")
    vertices = raw.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise DocumentError("vertices must be a nonempty list of coordinate rows")
    count = len(vertices)
    rows: list[list[float]] = []
    for i, row in enumerate(vertices, start=1):
        if not isinstance(row, list):
            raise DocumentError(f"vertex row {i} is not a list")
        if len(row) != count:
            raise DocumentError(
                f"vertex row {i} has length {len(row)}, expected {count} "
                "(vertex count must equal the coordinate length)"
            )
        # only JSON numbers: float() would also take true and "1"
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row):
            raise DocumentError(f"vertex row {i} has a non-numeric entry")
        try:
            values = [float(x) for x in row]
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise DocumentError(f"vertex row {i} has a non-finite entry")
        rows.append(values)
    if count < 2:
        raise DocumentError("a simplex needs at least 2 vertices")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    if not all(isinstance(v, str) for v in metadata.values()):
        raise DocumentError("metadata values must be strings")
    doc = {"model": model, "vertices": rows}
    if metadata:
        doc["metadata"] = metadata
    return doc


def _numpy(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, indent: int | None = None) -> str:
    """JSON text, floats as shortest round-trip reprs; numpy via tolist; ValueError on NaN/inf."""
    return json.dumps(obj, indent=indent, separators=(",", ": "), allow_nan=False, default=_numpy)


def digest(obj) -> str:
    """sha256 over the canonical (compact, full-precision) serialization."""
    return "sha256:" + hashlib.sha256(dumps(obj).encode()).hexdigest()
