"""Simplex construction, the edge and Gram matrices, and the index rule.

An n-simplex in H^n or S^n is given by n+1 manifold points whose ambient
coordinates are linearly independent.  Two symmetric matrices carry all of
its metric data:

* the edge matrix  M[i][j] = <p_i, p_j>  of pairwise vertex products, and
* the Gram matrix  G[i][j] = <e_i, e_j>  of the unit outer facet normals,

where e_i is the unit vector orthogonal to every vertex except p_i, signed
so that <e_i, p_i> < 0 (outward).  M and G are mutually inverse up to the
diagonal scaling T = diag(sqrt|M_ii / det M|).  Production reads M, the
normals and T, so a ``Simplex`` stores those, with T from the normal
solve; det M, G and det G, read only by the cross-checks and the CLI's
reports, are built on first use.  The paper's minors, Schur blocks and
inverse identities are the independent routes to the same numbers; they
live in ``crosscheck``, which nothing in the production path imports.

All user-facing indices (vertices, faces, minor row/column sets, block
splits) are 1-based, matching the mathematical notation; storage is
0-based.  This module owns the one index rule, ``_index_positions``: every
index argument of the package passes through it, so ``1.5``, ``3.0``,
``True``, ``"1"`` and a set are refused alike (never truncated) with the
typed error of the function that received them (``BadFace`` for faces
and vertices, ``BadIndexSet`` for matrix index sets).

``face_complement`` is the one face reader outside the fast path: the
cross-checks, the oracle and the CLI take their face positions from it and
read the stored arrays, never a cache.  The fast path keeps the face
plans that ``projection`` builds in ``Simplex._face_plans``, read-only, as
G is; nothing else reads them, so a wrong plan cannot fool a check.
"""

from __future__ import annotations

from collections.abc import Mapping, MappingView, Set
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BadFace, DegenerateSimplex, GeometryError
from .forms import DEFAULT_TOLS, Model, Tolerances, _as_array, _is_integer, _require_on_manifold

__all__ = ["Simplex", "build_simplex", "face_complement"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Simplex:
    """Validated n-simplex: stored vertices, M, normals and T; lazy det M, G, det G.

    Immutable (arrays are read-only); build via :func:`build_simplex`.
    """

    model: Model
    vertices: np.ndarray      # (n+1, n+1), rows are points
    edge_matrix: np.ndarray   # M, symmetric, diagonal = curvature
    normals: np.ndarray       # rows e_1 .. e_{n+1}
    scaling: np.ndarray       # diagonal of T; <e_i, p_i> = -1 / T_i

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def vertex_count(self) -> int:
        return self.model.ambient_dim

    @cached_property
    def edge_det(self) -> float:
        """det M."""
        return float(np.linalg.det(self.edge_matrix))

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """G, symmetric, unit diagonal."""
        G = (self.normals * self.model.signature) @ self.normals.T
        return _frozen((G + G.T) / 2.0)

    @cached_property
    def gram_det(self) -> float:
        return float(np.linalg.det(self.gram_matrix))

    @cached_property
    def _face_plans(self) -> dict:
        """``projection``'s face plans built so far, keyed by 0-based face positions."""
        return {}


def _singular(svals, tols: Tolerances) -> bool:
    """The one rule for "singular", on descending ``svals``: not sigma_min >
    tols.degenerate * sigma_max, so NaN and an all-zero matrix are singular.
    The spectrum, not det against entry-scale^m: that floor grows far faster
    than the determinants of honest matrices (M, or a Schur gate's block)."""
    return not svals[-1] > tols.degenerate * svals[0]


def build_simplex(
    model: Model,
    vertices: Sequence[Sequence[float]] | np.ndarray,
    tols: Tolerances = DEFAULT_TOLS,
) -> Simplex:
    """Validate vertices and assemble the stored edge/normal/scaling data.

    Raises OffManifold / WrongSheet for bad points, DimensionMismatch for a
    wrong vertex count or coordinate length or an entry that is not a real
    number (``forms._as_array``), and DegenerateSimplex when the
    edge matrix is singular by ``_singular`` (linearly dependent vertices),
    or, under a floor low enough to pass that, when the normal solve fails.
    """
    m = model.ambient_dim
    P = _as_array(vertices, (m, m), "vertices")
    for i, vertex in enumerate(P, start=1):
        _require_on_manifold(model, vertex, tols, f"vertex {i}")

    sig = model.signature
    M = (P * sig) @ P.T
    M = (M + M.T) / 2.0
    sv = np.linalg.svd(M, compute_uv=False)
    if _singular(sv, tols):
        raise DegenerateSimplex(f"edge matrix is singular (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})")

    # Normals from the orthogonality system: the columns u_i of (P*sig)^-1
    # satisfy <u_i, p_j> = delta_ij, so <u_i, u_i> = (M^-1)_ii = T_i^2 and
    # e_i = -u_i / T_i is unit, orthogonal to the other vertices and pairs
    # with p_i as -1 / T_i.  T_i^2 is 1/sinh^2 (H^n) or 1/sin^2 (S^n) of p_i's
    # facet altitude, never near 0, so no slack: only its sign (and NaN) fail.
    try:
        U = np.linalg.solve(P * sig, np.eye(m))
    except np.linalg.LinAlgError:
        raise DegenerateSimplex("vertex matrix is singular; the normal solve failed") from None
    sq = np.einsum("ji,j,ji->i", U, sig, U)
    if not np.all(sq > 0.0):
        raise DegenerateSimplex("facet normal is not space-like; simplex is degenerate")
    T = np.sqrt(sq)
    E = -(U / T).T

    return Simplex(model, _frozen(P.copy()), _frozen(M), _frozen(E), _frozen(T))


def _index_positions(
    indices, m: int, error: type[GeometryError], what: str, first: int = 1
) -> list[int]:
    """The package's one index rule: ``indices`` as 0-based positions.

    Valid indices are Python ``int``s or numpy integers, strictly increasing
    within first..m (1-based unless ``first`` says otherwise).  ``bool``,
    ``float`` (even ``3.0``) and ``str`` are refused, never truncated, and
    so is an unordered collection (a set, a mapping, a dict view);
    anything invalid raises ``error``.  Set relations (face size, a vertex
    outside a face, borders outside a base) stay with the callers.
    """
    try:
        # a set's iteration order is no order; the tuple test keeps the common case cheap
        if type(indices) is not tuple and isinstance(indices, (Set, Mapping, MappingView)):
            raise TypeError
        items = tuple(indices)
    except TypeError:
        raise error(f"{what} must be a sequence of integers, got {indices!r}") from None
    positions: list[int] = []
    last = first - 1
    for i in items:
        if not _is_integer(i) or not last < i <= m:
            raise error(
                f"{what} {items!r} invalid: expected integers in {first}..{m}, strictly increasing"
            )
        positions.append(int(i) - first)
        last = i
    return positions


def _complement(m: int, positions: Sequence[int]) -> list[int]:
    """The 0-based positions of 0..m-1 not in ``positions``, in order."""
    taken = set(positions)
    return [i for i in range(m) if i not in taken]


def _face_arrays(m: int, face0: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    if not 0 < len(face0) < m:
        raise BadFace(f"face must select between 1 and {m - 1} vertices, got {len(face0)}")
    return np.array(face0, dtype=int), np.array(_complement(m, face0), dtype=int)


def face_complement(simplex: Simplex, face: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Validate a face selector; return 0-based (face, complement) arrays, reading no face plan.

    A valid face is a strictly increasing tuple of 1-based vertex indices,
    at least one vertex and at most n (the complement must be nonempty).
    """
    m = simplex.vertex_count
    return _face_arrays(m, _index_positions(face, m, BadFace, "face"))
