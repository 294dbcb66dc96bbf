"""Simplex construction and the edge-matrix / Gram-matrix algebra.

An n-simplex in H^n or S^n is given by n+1 manifold points whose ambient
coordinates are linearly independent.  Two symmetric matrices carry all of
its metric data:

* the edge matrix  M[i][j] = <p_i, p_j>  of pairwise vertex products, and
* the Gram matrix  G[i][j] = <e_i, e_j>  of the unit outer facet normals,

where e_i is the unit vector orthogonal to every vertex except p_i, signed
so that <e_i, p_i> < 0 (outward).  M and G are mutually inverse up to the
diagonal scaling T = diag(sqrt|M_ii / det M|), derived once per simplex
and cached as Simplex.scaling, and Schur complements of their blocks give
the inverses of the complementary blocks.  Those
identities are exposed here as verification routines because every
projection formula downstream rides on them.

All user-facing indices (vertices, faces, minor row/column sets, block
splits) are 1-based, matching the mathematical notation; storage is
0-based.  This module owns the one index rule, ``_index_positions``: every
index argument of the package passes through it, so ``1.5``, ``3.0``,
``True`` and ``"1"`` are refused alike (never truncated) with the typed
error of the function that received them (``BadFace`` for faces and
vertices, ``BadIndexSet`` for matrix index sets).

Sign policy: in the Lorentzian signature det M, the minors M_ii and det G
are negative, so every radical of a ratio or product of them is taken of
the absolute value.  The residual signs are pinned by checkable facts
(unit normals, outwardness, the inverse identities themselves), not by
the radicand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadFace,
    BadIndexSet,
    DegenerateSimplex,
    DimensionMismatch,
    GeometryError,
    SingularBlock,
)
from .forms import DEFAULT_TOLS, Model, Tolerances, _require_on_manifold

__all__ = [
    "Simplex",
    "ScalingMatrix",
    "SchurBlock",
    "IdentityReport",
    "build_simplex",
    "face_complement",
    "deleted_minor",
    "bordered_minor",
    "scaling_matrix",
    "verify_inverse_identity",
    "schur_complement",
    "schur_complement_via_minors",
    "verify_block_inverse_identities",
    "complement_gram_inverse",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Simplex:
    """Validated n-simplex with eagerly cached metric data.

    Immutable after construction (arrays are read-only); build via
    :func:`build_simplex`.
    """

    model: Model
    vertices: np.ndarray      # (n+1, n+1), rows are points
    edge_matrix: np.ndarray   # M, symmetric, diagonal = curvature
    gram_matrix: np.ndarray   # G, symmetric, unit diagonal
    normals: np.ndarray       # rows e_1 .. e_{n+1}

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def vertex_count(self) -> int:
        return self.model.ambient_dim

    @cached_property
    def edge_det(self) -> float:
        return float(np.linalg.det(self.edge_matrix))

    @cached_property
    def gram_det(self) -> float:
        return float(np.linalg.det(self.gram_matrix))

    @cached_property
    def scaling(self) -> np.ndarray:
        """Diagonal of T = diag(sqrt|M_ii / det M|), from the edge matrix's principal minors."""
        m_ii = _principal_deleted(self.edge_matrix)
        return _frozen(np.sqrt(np.abs(m_ii / self.edge_det)))


def build_simplex(
    model: Model,
    vertices: Sequence[Sequence[float]] | np.ndarray,
    tols: Tolerances = DEFAULT_TOLS,
) -> Simplex:
    """Validate vertices and assemble the cached edge/Gram/normal data.

    Raises OffManifold / WrongSheet for bad points, DimensionMismatch for a
    wrong vertex count or coordinate length, and DegenerateSimplex when the
    edge-matrix determinant falls below ``tols.degenerate`` relative to the
    entry scale (linearly dependent vertices).
    """
    P = np.asarray(vertices, dtype=float)
    m = model.ambient_dim
    if P.shape != (m, m):
        raise DimensionMismatch(
            f"expected {m} vertices of length {m}, got array of shape {P.shape}"
        )
    for i, vertex in enumerate(P, start=1):
        _require_on_manifold(model, vertex, tols.manifold, f"vertex {i}")

    sig = model.signature
    M = (P * sig) @ P.T
    M = (M + M.T) / 2.0
    scale = float(np.abs(M).max())
    det_m = float(np.linalg.det(M))
    if abs(det_m) <= tols.degenerate * scale**m:
        raise DegenerateSimplex(
            f"|det M| = {abs(det_m)!r} below degeneracy floor; vertices are linearly dependent"
        )
    if model.curvature == -1:
        off = M[~np.eye(m, dtype=bool)]
        if off.max() >= -1.0:
            # distinct upper-sheet points always pair below -1 = -cosh(0)
            raise DegenerateSimplex(
                f"edge-matrix off-diagonal {off.max()!r} >= -1; coincident vertices"
            )

    # Normals from the orthogonality system: the columns u_i of (P*sig)^-1
    # satisfy <u_i, p_j> = delta_ij, so e_i = -u_i / sqrt(<u_i,u_i>) is unit,
    # orthogonal to the other vertices and pairs negatively with p_i.
    U = np.linalg.solve(P * sig, np.eye(m))
    sq = np.einsum("ji,j,ji->i", U, sig, U)
    if np.any(sq <= tols.norm):
        raise DegenerateSimplex("facet normal is not space-like; simplex is degenerate")
    E = -(U / np.sqrt(sq)).T
    G = (E * sig) @ E.T
    G = (G + G.T) / 2.0

    return Simplex(model, _frozen(P.copy()), _frozen(M), _frozen(G), _frozen(E))


def _index_positions(
    indices, m: int, error: type[GeometryError], what: str, first: int = 1
) -> list[int]:
    """The package's one index rule: ``indices`` as 0-based positions.

    Valid indices are Python ``int``s or numpy integers, strictly increasing
    within first..m (1-based unless ``first`` says otherwise).  ``bool``,
    ``float`` (even ``3.0``) and ``str`` are refused, never truncated;
    anything invalid raises ``error``.  Set relations (face size, a vertex
    outside a face, borders outside a base) stay with the callers.
    """
    try:
        items = tuple(indices)
    except TypeError:
        raise error(f"{what} must be a sequence of integers, got {indices!r}") from None
    positions: list[int] = []
    last = first - 1
    for i in items:
        # type(), not isinstance(): bool is an int subclass
        if not (type(i) is int or isinstance(i, np.integer)) or not last < i <= m:
            raise error(
                f"{what} {items!r} invalid: expected integers in {first}..{m}, strictly increasing"
            )
        positions.append(int(i) - first)
        last = i
    return positions


def _complement(m: int, positions: list[int]) -> list[int]:
    """The 0-based positions of 0..m-1 not in ``positions``, in order."""
    taken = set(positions)
    return [i for i in range(m) if i not in taken]


def face_complement(simplex: Simplex, face: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Validate a face selector; return 0-based (face, complement) arrays.

    A valid face is a strictly increasing tuple of 1-based vertex indices,
    at least one vertex and at most n (the complement must be nonempty).
    """
    m = simplex.vertex_count
    face0 = _index_positions(face, m, BadFace, "face")
    if not 0 < len(face0) < m:
        raise BadFace(f"face must select between 1 and {m - 1} vertices, got {len(face0)}")
    return np.array(face0, dtype=int), np.array(_complement(m, face0), dtype=int)


def _check_square(matrix) -> np.ndarray:
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise BadIndexSet(f"expected a square matrix, got shape {A.shape}")
    return A


def deleted_minor(matrix, i: int, j: int) -> float:
    """The ij-th minor: determinant after deleting row i and column j (1-based)."""
    A = _check_square(matrix)
    m = A.shape[0]
    (i0,) = _index_positions((i,), m, BadIndexSet, "minor row")
    (j0,) = _index_positions((j,), m, BadIndexSet, "minor column")
    if m == 1:
        return 1.0
    return float(np.linalg.det(A[np.ix_(_complement(m, [i0]), _complement(m, [j0]))]))


def bordered_minor(matrix, base: Sequence[int], s: int, t: int) -> float:
    """Determinant over rows (base, s) and columns (base, t), all 1-based.

    With base = the face index set these are the bordered minors whose
    ratios give Schur complement entries.
    """
    A = _check_square(matrix)
    m = A.shape[0]
    base0 = _index_positions(base, m, BadIndexSet, "bordered minor base")
    (s0,) = _index_positions((s,), m, BadIndexSet, "bordered minor row")
    (t0,) = _index_positions((t,), m, BadIndexSet, "bordered minor column")
    if s0 in base0 or t0 in base0:
        raise BadIndexSet("border indices must lie outside the base set")
    return float(np.linalg.det(A[np.ix_(base0 + [s0], base0 + [t0])]))


@dataclass(frozen=True)
class ScalingMatrix:
    """Diagonal of T = diag(sqrt|M_ii / det M|) = diag(sqrt|G_ii / det G|)."""

    diag: np.ndarray


def _principal_deleted(A: np.ndarray) -> np.ndarray:
    m = A.shape[0]
    return np.array([deleted_minor(A, i, i) for i in range(1, m + 1)])


def scaling_matrix(simplex: Simplex, tols: Tolerances = DEFAULT_TOLS) -> ScalingMatrix:
    """The cached T of ``simplex.scaling``, cross-checked against the Gram side.

    Raises DegenerateSimplex when sqrt|G_ii / det G| disagrees with it by
    more than ``tols.identity`` (relative).
    """
    from_m = simplex.scaling
    g_ii = _principal_deleted(simplex.gram_matrix)
    from_g = np.sqrt(np.abs(g_ii / simplex.gram_det))
    rel = np.abs(from_m - from_g) / np.maximum(np.abs(from_m), 1e-300)
    if rel.max() > tols.identity:
        raise DegenerateSimplex(
            f"scaling-matrix expressions disagree (rel {rel.max():.3e}); simplex too ill-conditioned"
        )
    return ScalingMatrix(from_m)


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of a family of matrix identities, with a pass bound."""

    residuals: dict[str, float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def verify_inverse_identity(simplex: Simplex, tol: float = DEFAULT_TOLS.identity) -> IdentityReport:
    """Residuals of M^-1 = T G T and G^-1 = T M T (as ||M (TGT) - I|| etc.)."""
    m = simplex.vertex_count
    t = simplex.scaling
    eye = np.eye(m)
    tgt = t[:, None] * simplex.gram_matrix * t[None, :]
    tmt = t[:, None] * simplex.edge_matrix * t[None, :]
    return IdentityReport(
        {
            "edge_inverse": float(np.abs(simplex.edge_matrix @ tgt - eye).max()),
            "gram_inverse": float(np.abs(simplex.gram_matrix @ tmt - eye).max()),
        },
        tol,
    )


@dataclass(frozen=True)
class SchurBlock:
    """Schur complement restricted to the retained (1-based) index set."""

    block_rows: tuple[int, ...]
    values: np.ndarray


def _split_indices(m: int, retained: Sequence[int]) -> tuple[list[int], list[int]]:
    keep0 = _index_positions(retained, m, BadIndexSet, "retained set")
    if not keep0:
        raise BadIndexSet("retained set must be nonempty")
    return keep0, _complement(m, keep0)


def schur_complement(
    matrix,
    retained: Sequence[int],
    tol_degenerate: float = DEFAULT_TOLS.degenerate,
) -> SchurBlock:
    """M[B,B] - M[B,A] (M[A,A])^-1 M[A,B] with B = retained, A = the rest.

    An empty complement is allowed (the block is the matrix itself).
    Raises SingularBlock when M[A,A] is not safely invertible.
    """
    A = _check_square(matrix)
    keep0, elim0 = _split_indices(A.shape[0], retained)
    rows = tuple(i + 1 for i in keep0)
    if not elim0:
        return SchurBlock(rows, _frozen(A[np.ix_(keep0, keep0)].copy()))
    block_a = A[np.ix_(elim0, elim0)]
    # gate on the spectrum, not on det vs entry-scale^k: that floor grows
    # far faster than determinants of honest blocks do
    svals = np.linalg.svd(block_a, compute_uv=False)
    if svals[-1] <= tol_degenerate * svals[0] or svals[0] == 0.0:
        raise SingularBlock(f"eliminated block {tuple(i + 1 for i in elim0)} is singular")
    s = A[np.ix_(keep0, keep0)] - A[np.ix_(keep0, elim0)] @ np.linalg.solve(
        block_a, A[np.ix_(elim0, keep0)]
    )
    return SchurBlock(rows, _frozen(s))


def schur_complement_via_minors(matrix, retained: Sequence[int]) -> SchurBlock:
    """Same block computed entrywise as bordered-minor ratios.

    S[s,t] = det M(A,s; A,t) / det M(A,A) by the Schur determinant identity;
    this is the independent route used to cross-check the block algebra.
    """
    A = _check_square(matrix)
    keep0, elim0 = _split_indices(A.shape[0], retained)
    rows = tuple(i + 1 for i in keep0)
    if not elim0:
        return SchurBlock(rows, _frozen(A[np.ix_(keep0, keep0)].copy()))
    base = [i + 1 for i in elim0]
    denom = float(np.linalg.det(A[np.ix_(elim0, elim0)]))
    if denom == 0.0:
        raise SingularBlock(f"eliminated block {tuple(base)} is singular")
    out = np.empty((len(rows), len(rows)))
    for a, s in enumerate(rows):
        for b, t in enumerate(rows):
            out[a, b] = bordered_minor(A, base, s, t) / denom
    return SchurBlock(rows, _frozen(out))


def verify_block_inverse_identities(
    simplex: Simplex, split_k: int, tol: float = DEFAULT_TOLS.identity
) -> IdentityReport:
    """Residuals of the four block-inverse identities at a given split.

    The matrices are split into the leading block {1..split_k+1} and the
    trailing block {split_k+2..n+1}; both must be nonempty.  The identities
    checked are (M^11)^-1 = T^11 S_{G^22} T^11 and the three companions,
    reported as products-with-inverse residuals.
    """
    m = simplex.vertex_count
    (split,) = _index_positions((split_k,), m - 2, BadIndexSet, "split_k", first=0)
    lead = tuple(range(1, split + 2))
    trail = tuple(range(split + 2, m + 1))
    t = simplex.scaling
    M, G = simplex.edge_matrix, simplex.gram_matrix

    def residual(block_of, idx, schur_of_other):
        i0 = np.array(idx) - 1
        blk = block_of[np.ix_(i0, i0)]
        s = schur_of_other.values
        ts = t[i0]
        claimed_inv = ts[:, None] * s * ts[None, :]
        return float(np.abs(blk @ claimed_inv - np.eye(len(idx))).max())

    return IdentityReport(
        {
            "edge_lead": residual(M, lead, schur_complement(G, lead)),
            "edge_trail": residual(M, trail, schur_complement(G, trail)),
            "gram_lead": residual(G, lead, schur_complement(M, lead)),
            "gram_trail": residual(G, trail, schur_complement(M, trail)),
        },
        tol,
    )


def complement_gram_inverse(simplex: Simplex, face: Sequence[int]) -> np.ndarray:
    """(G^22)^-1 over the complement normals, built from edge-matrix minors.

    Equals sign(det M) * curvature * T_c S T_c, with T_c = ``simplex.scaling``
    over the complement and S the face block's Schur complement as the
    bordered-minor ratios of ``schur_complement_via_minors``.  This is the
    paper's closed-form route and a cross-check only: no projection or
    distance calls it; ``projection._distance_to_face_by_minors`` (the CLI's
    ``distance_paths`` residual) and the tests compare it with the face-block
    solve of the projection.
    """
    _, comp0 = face_complement(simplex, face)
    s = schur_complement_via_minors(simplex.edge_matrix, comp0 + 1).values
    t_comp = simplex.scaling[comp0]
    sign = np.sign(simplex.edge_det) * simplex.model.curvature
    return sign * t_comp[:, None] * s * t_comp[None, :]
