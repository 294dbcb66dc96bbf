"""Cross-checks: the paper's independent routes, kept as verification only.

Production computes every foot and distance through each face's frame,
built from the face block of the edge matrix (``projection``), and T from
the normal solve (``Simplex.scaling``).  The paper's determinant routes to the same
numbers live here: deleted and bordered minors, T = diag(sqrt|M_ii/det M|)
= diag(sqrt|G_ii/det G|), the inverse and block-inverse identities, Schur
blocks as bordered-minor ratios, (G22)^-1 from them and the distance
through it, the vertex coefficients lambda_s = T_s m_j^s / m_face, the
Schur altitude and the facet determinant ratio.  Nothing in ``simplex``,
``projection`` or ``oracle`` imports this module; the CLI (its ``check``
rows and ``project`` minors), the tests and the benchmark compare routes.

Two checks judge a result rather than rebuild it, and this module is their
one home.  ``certify`` reads a projection's foot and distance and returns
the two facts the paper's perpendicular must satisfy: the foot lies on the
manifold (``foot_manifold``) and p - s(d) foot is orthogonal to every
vertex of the face (``orthogonality``, s = cosh in H^n, cos in S^n).
``oracle_deviation`` sets the closed form beside the brute-force oracle:
the distance gap and the geodesic distance between the two feet.  The
``project`` report, ``check`` and acceptance criteria 3 and 4 read them.

Minors are computed in stacked determinants (``_minors``): a Schur block
takes det M(A,A) and one det call over all its bordered minors, T all its
principal minors in one call.  numpy runs the same LU on each stacked
matrix as on that matrix alone, so each minor is bit-identical to its own
det call, and none of them reuses the face frame of production.
Each route reads its face once, by ``simplex.face_complement``, and passes
the positions on; none builds or reads a face plan, so none solves.

Schur blocks by elimination share one kernel over a stack of matrices
split into contiguous blocks: one stacked SVD gates every eliminated block
by ``simplex._singular`` (as ``build_simplex`` gates M), one stacked solve
eliminates them.  G and M share every index set, so the block-inverse
suite stacks them: a split takes two gates and two solves for its four
Schur blocks.  ``schur_complement`` is the kernel on a stack of one, its
eliminated set first.  Each matrix gets the bits of its own SVD and solve.

Sign policy: in the Lorentzian signature det M, the minors M_ii and det G
are negative, so every radical of a ratio or product of them is taken of
the absolute value.  The residual signs are pinned by checkable facts
(unit normals, outwardness, the inverse identities themselves), not by
the radicand.  The sign of (G^22)^-1 is pinned by the block-inverse
identity, (G^22)^-1 = T_c S T_c, not by det M, which it never reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadFace, BadIndexSet, DegenerateSimplex, SingularBlock
from .forms import DEFAULT_TOLS, Tolerances, _membership_residual, _require_on_manifold, distance
from .projection import _distance
from .simplex import Simplex, _complement, _frozen, _index_positions, _singular, face_complement

__all__ = [
    "ScalingMatrix", "SchurBlock", "IdentityReport", "deleted_minor", "bordered_minor",
    "scaling_matrix", "verify_inverse_identity", "schur_complement", "schur_complement_via_minors",
    "verify_block_inverse_identities", "complement_gram_inverse", "distance_to_face_by_minors",
    "vertex_lambdas_by_minors", "altitude_by_minors", "facet_altitude_by_determinants",
    "identity_residuals", "certify", "oracle_deviation",
]

# pass bound of every identity residual, the scaling agreement included
IDENTITY_TOL = 1e-8


def _check_square(matrix) -> np.ndarray:
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise BadIndexSet(f"expected a square matrix, got shape {A.shape}")
    return A


def _minors(A: np.ndarray, rows, cols) -> np.ndarray:
    """det A[rows[..., :], cols[..., :]] for every pair of index rows, in one det call.

    The last axis of ``rows`` and of ``cols`` lists one minor's 0-based rows
    and columns; the leading axes broadcast, so (k, 1, b) rows against
    (1, k, b) columns give a k x k table of minors, and two (m, b) arrays
    give m minors.  numpy's stacked det runs the same LU on each matrix as
    a det of that matrix alone, so every entry is bit-identical to it.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    return np.linalg.det(A[rows[..., :, None], cols[..., None, :]])


def deleted_minor(matrix, i: int, j: int) -> float:
    """The ij-th minor: determinant after deleting row i and column j (1-based)."""
    A = _check_square(matrix)
    m = A.shape[0]
    (i0,) = _index_positions((i,), m, BadIndexSet, "minor row")
    (j0,) = _index_positions((j,), m, BadIndexSet, "minor column")
    return float(_minors(A, [_complement(m, [i0])], [_complement(m, [j0])])[0])


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
    return float(_minors(A, [base0 + [s0]], [base0 + [t0]])[0])


def _principal_deleted(A: np.ndarray, positions=slice(None)) -> np.ndarray:
    """The principal minors M_ii, i at 0-based ``positions`` (default all), in one stacked det."""
    m = A.shape[0]
    rows = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)[positions]
    return _minors(A, rows, rows)


@dataclass(frozen=True)
class ScalingMatrix:
    """Diagonal of T = diag(sqrt|M_ii / det M|) = diag(sqrt|G_ii / det G|)."""

    diag: np.ndarray


def scaling_matrix(simplex: Simplex) -> ScalingMatrix:
    """The stored T of ``simplex.scaling``, cross-checked against the Gram side.

    Raises DegenerateSimplex when sqrt|G_ii / det G| disagrees with it by
    more than ``IDENTITY_TOL`` (relative).
    """
    from_m = simplex.scaling
    g_ii = _principal_deleted(simplex.gram_matrix)
    from_g = np.sqrt(np.abs(g_ii / simplex.gram_det))
    rel = np.abs(from_m - from_g) / np.maximum(np.abs(from_m), 1e-300)
    if rel.max() > IDENTITY_TOL:
        raise DegenerateSimplex(
            f"scaling-matrix expressions disagree (rel {rel.max():.3e}); simplex too ill-conditioned"
        )
    return ScalingMatrix(from_m)


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of a family of matrix identities; they pass at ``IDENTITY_TOL``."""

    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= IDENTITY_TOL


def verify_inverse_identity(simplex: Simplex) -> IdentityReport:
    """Residuals of M^-1 = T G T and G^-1 = T M T (as ||M (TGT) - I|| etc.)."""
    t = simplex.scaling
    eye = np.eye(simplex.vertex_count)
    tgt = t[:, None] * simplex.gram_matrix * t[None, :]
    tmt = t[:, None] * simplex.edge_matrix * t[None, :]
    return IdentityReport({
        "edge_inverse": float(np.abs(simplex.edge_matrix @ tgt - eye).max()),
        "gram_inverse": float(np.abs(simplex.gram_matrix @ tmt - eye).max()),
    })


@dataclass(frozen=True)
class SchurBlock:
    """Schur complement restricted to the retained (1-based) index set."""

    block_rows: tuple[int, ...]
    values: np.ndarray


def _schur_block(matrix, retained: Sequence[int], eliminate) -> SchurBlock:
    """The block B = retained, the rest A eliminated by ``eliminate(M, keep, elim)`` unless empty."""
    A = _check_square(matrix)
    m = A.shape[0]
    keep0 = _index_positions(retained, m, BadIndexSet, "retained set")
    if not keep0:
        raise BadIndexSet("retained set must be nonempty")
    keep, elim = np.array(keep0, dtype=np.intp), np.array(_complement(m, keep0), dtype=np.intp)
    block = eliminate(A, keep, elim) if elim.size else A[keep[:, None], keep]
    return SchurBlock(tuple((keep + 1).tolist()), _frozen(block))


def _singular_values(stack: np.ndarray, elim: slice) -> list[list[float]]:
    """Singular values of every matrix's eliminated block, one stacked SVD, as floats."""
    return np.linalg.svd(stack[:, elim, elim], compute_uv=False).tolist()


def _gate(svals: list[float], tols: Tolerances, elim_rows: tuple[int, ...]) -> None:
    if _singular(svals, tols):
        raise SingularBlock(f"eliminated block {elim_rows} is singular")


def _schur_stack(stack: np.ndarray, elim: slice, keep: slice, elim_rows: tuple[int, ...]) -> list[np.ndarray]:
    """D - C A^-1 B of every matrix in ``stack``, A its [elim, elim] block and D its [keep, keep].

    One stacked solve; the caller gates A first, and an A that passes a
    lowered gate but not the solve raises SingularBlock naming
    ``elim_rows``.  Stacked solve and SVD run one LAPACK call per matrix, so
    each matrix gets the bits of its own call.  C X is one 2-D matmul per
    matrix, the product a single Schur call forms; a stacked matmul gave the
    same bits on numpy 2.4, but nothing pins that on other builds.
    """
    try:
        x = np.linalg.solve(stack[:, elim, elim], stack[:, elim, keep])
    except np.linalg.LinAlgError:
        raise SingularBlock(f"eliminated block {elim_rows} is singular") from None
    return [d - c @ xi for d, c, xi in zip(stack[:, keep, keep], stack[:, keep, elim], x)]


def schur_complement(matrix, retained: Sequence[int], tols: Tolerances = DEFAULT_TOLS) -> SchurBlock:
    """M[B,B] - M[B,A] (M[A,A])^-1 M[A,B] with B = retained, A = the rest.

    An empty complement is allowed (the block is the matrix itself).
    Raises SingularBlock when M[A,A] fails the ``tols.degenerate`` gate.
    """

    def eliminate(A, keep, elim):
        # eliminated set first, so both blocks are slices of one stack
        order = np.concatenate((elim, keep))
        stack = A.take(order, axis=0).take(order, axis=1)[None]
        front, back = slice(0, elim.size), slice(elim.size, None)
        (svals,) = _singular_values(stack, front)
        elim_rows = tuple((elim + 1).tolist())
        _gate(svals, tols, elim_rows)
        return _schur_stack(stack, front, back, elim_rows)[0]

    return _schur_block(matrix, retained, eliminate)


def schur_complement_via_minors(matrix, retained: Sequence[int]) -> SchurBlock:
    """Same block computed entrywise as bordered-minor ratios.

    S[s,t] = det M(A,s; A,t) / det M(A,A) by the Schur determinant identity;
    this is the independent route used to cross-check the block algebra.
    """
    return _schur_block(matrix, retained, lambda A, keep, elim: np.divide(*_minor_table(A, keep, elim)))


def _minor_table(
    A: np.ndarray, keep: np.ndarray, elim: np.ndarray, rows=slice(None)
) -> tuple[np.ndarray, float]:
    """Unvalidated bordered minors det A(elim, s; elim, t), s in keep[rows], t in keep, and det A(elim, elim)."""
    denom = float(_minors(A, elim, elim))
    if denom == 0.0:
        raise SingularBlock(f"eliminated block {tuple((elim + 1).tolist())} is singular")
    border = np.empty((keep.size, elim.size + 1), dtype=np.intp)  # rows (elim, s), one per s
    border[:, :-1] = elim
    border[:, -1] = keep
    return _minors(A, border[rows, None], border), denom


def _split_residuals(simplex: Simplex, split: int, tols: Tolerances) -> tuple[dict[str, float], np.ndarray]:
    """Block-inverse residuals at a 0-based split, and M's trail Schur block.

    G and M share every index set, so they are one stack: each side of the
    split takes one SVD gate and one solve for both.  All four eliminated
    blocks are gated at ``tols.degenerate``, in the order G retaining the
    lead, G retaining the trail, then M alike.
    """
    m = simplex.vertex_count
    lead, trail = slice(0, split + 1), slice(split + 1, m)
    lead_rows, trail_rows = tuple(range(1, split + 2)), tuple(range(split + 2, m + 1))
    M, G = simplex.edge_matrix, simplex.gram_matrix
    stack = np.stack((G, M))
    svals_trail = _singular_values(stack, trail)
    svals_lead = _singular_values(stack, lead)
    for sv_trail, sv_lead in zip(svals_trail, svals_lead):
        _gate(sv_trail, tols, trail_rows)
        _gate(sv_lead, tols, lead_rows)
    g_lead, m_lead = _schur_stack(stack, trail, lead, trail_rows)
    g_trail, m_trail = _schur_stack(stack, lead, trail, lead_rows)
    t = simplex.scaling

    def residual(block_of, idx, s):
        ts = t[idx]
        claimed_inv = ts[:, None] * s * ts[None, :]
        return float(np.abs(block_of[idx, idx] @ claimed_inv - np.eye(len(s))).max())

    residuals = {
        "edge_lead": residual(M, lead, g_lead),
        "edge_trail": residual(M, trail, g_trail),
        "gram_lead": residual(G, lead, m_lead),
        "gram_trail": residual(G, trail, m_trail),
    }
    return residuals, m_trail


def verify_block_inverse_identities(
    simplex: Simplex, split_k: int, tols: Tolerances = DEFAULT_TOLS
) -> IdentityReport:
    """Residuals of the four block-inverse identities at a given split.

    The matrices are split into the leading block {1..split_k+1} and the
    trailing block {split_k+2..n+1}; both must be nonempty.  The identities
    checked are (M^11)^-1 = T^11 S_{G^22} T^11 and the three companions,
    reported as products-with-inverse residuals that pass at
    ``IDENTITY_TOL``; ``_split_residuals`` gates every eliminated block at
    ``tols.degenerate`` and solves them.
    """
    m = simplex.vertex_count
    (split,) = _index_positions((split_k,), m - 2, BadIndexSet, "split_k", first=0)
    residuals, _ = _split_residuals(simplex, split, tols)
    return IdentityReport(residuals)


def _gram_inverse_by_minors(
    simplex: Simplex, face0: np.ndarray, comp0: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """The face's bordered minors, m_face = det M[face,face] and (G^22)^-1; positions validated."""
    table, m_face = _minor_table(simplex.edge_matrix, comp0, face0)
    t_comp = simplex.scaling[comp0]
    return table, m_face, t_comp[:, None] * (table / m_face) * t_comp[None, :]


def complement_gram_inverse(simplex: Simplex, face: Sequence[int]) -> np.ndarray:
    """(G^22)^-1 over the complement normals, built from edge-matrix minors.

    T_c S T_c by the block-inverse identity, with T_c = ``simplex.scaling``
    over the complement and S the face block's Schur complement as the
    bordered-minor ratios of ``schur_complement_via_minors``: the paper's
    closed-form route, which ``distance_to_face_by_minors`` takes too.
    """
    return _gram_inverse_by_minors(simplex, *face_complement(simplex, face))[2]


def _projection_minors(
    simplex: Simplex, face0: np.ndarray, comp0: np.ndarray, p, tols: Tolerances
) -> tuple[float, np.ndarray, float]:
    """m_face, the bordered diagonal det M(face, t; face, t) and ``distance_to_face_by_minors``.

    Positions and point already validated; p may be the float sequence the
    point was read from.  The diagonal is read off the stacked table, so
    each entry has the bits of its own det call.
    """
    table, m_face, gram_inverse = _gram_inverse_by_minors(simplex, face0, comp0)
    b = (simplex.normals[comp0] * simplex.model.signature) @ p
    s2 = float(b @ gram_inverse @ b)
    return m_face, table.diagonal(), _distance(simplex.model, s2, 1.0 - simplex.model.curvature * s2, tols)


def distance_to_face_by_minors(
    simplex: Simplex, face: Sequence[int], p, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Cross-check of ``distance_to_face`` through the paper's minors route.

    Evaluates the closed-form radicand s2 = b' (G22)^-1 b, b_t = <p, e_t>,
    with (G22)^-1 from ``complement_gram_inverse``, independently of the
    face frame, and c2 = 1 - curvature * s2.  The CLI's
    ``distance_paths`` residual compares the two routes.
    """
    pv = _require_on_manifold(simplex.model, p, tols, "point")
    return _projection_minors(simplex, *face_complement(simplex, face), pv, tols)[2]


def _vertex_minor_row(simplex: Simplex, face: Sequence[int], j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The complement, row j of the face block's Schur complement by minors, and j's place in it.

    S[j,s] = m_j^s / m_face: the bordered minor over rows (face, j) and
    columns (face, s), over det M[face,face]; the row alone, one (k, b+1, b+1) det.
    """
    face0, comp0 = face_complement(simplex, face)
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    if j0 in face0:  # projection's rule and message for an opposite vertex
        raise BadFace(f"vertex {j0 + 1} must lie outside the face {tuple((face0 + 1).tolist())}")
    a = int(np.searchsorted(comp0, j0))
    row, m_face = _minor_table(simplex.edge_matrix, comp0, face0, a)
    return comp0, row / m_face, a


def vertex_lambdas_by_minors(simplex: Simplex, face: Sequence[int], j: int) -> dict[int, float]:
    """The paper's lambda_s = T_s m_j^s / m_face of ``vertex_foot``, keyed 1-based.

    T_s = sqrt|M_ss / det M| comes from the principal minors, not from
    ``simplex.scaling``: production lambda is -T_s <p. - p_j, p_s> with the
    stored T, so comparing with it would test T against itself.
    """
    comp0, row, _ = _vertex_minor_row(simplex, face, j)
    t = np.sqrt(np.abs(_principal_deleted(simplex.edge_matrix, comp0) / simplex.edge_det))
    return dict(zip((comp0 + 1).tolist(), (t * row).tolist()))


def altitude_by_minors(
    simplex: Simplex, face: Sequence[int], j: int, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """The Schur altitude: ``altitude`` from the radicand c2 = 1 - curvature * m_j^j / m_face.

    sinh^2/sin^2 of the altitude is s2 = m_j^j / m_face, the j-th diagonal
    entry of the face block's Schur complement as a bordered-minor ratio.
    """
    _, row, a = _vertex_minor_row(simplex, face, j)
    s2 = float(row[a])
    return _distance(simplex.model, s2, 1.0 - simplex.model.curvature * s2, tols)


def facet_altitude_by_determinants(
    simplex: Simplex, j: int, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Altitude from p_j to its opposite facet: c2 = 1 - curvature * det M / M_jj.

    For the facet, m_face = M_jj and m_j^j = det M, so this is the Schur
    altitude with the stored det M and one deleted minor.  j is a vertex:
    an invalid one raises BadFace.
    """
    (j0,) = _index_positions((j,), simplex.vertex_count, BadFace, "vertex")
    rest = [_complement(simplex.vertex_count, [j0])]
    s2 = simplex.edge_det / float(_minors(simplex.edge_matrix, rest, rest)[0])
    return _distance(simplex.model, s2, 1.0 - simplex.model.curvature * s2, tols)


def identity_residuals(simplex: Simplex, tols: Tolerances = DEFAULT_TOLS) -> dict[str, float]:
    """Max residual of each matrix identity on one simplex, keyed by ``check`` row.

    The rows are bare residuals, and every Schur block they read is
    gated at ``tols.degenerate``; ``check`` bounds each row by
    ``IDENTITY_TOL`` times its ``--tol`` factor.  T is rebuilt here from the
    edge matrix's principal minors, so that the duality and agreement rows
    test the production T (the norms of the normal solve's dual vectors)
    against an independent route instead of against itself.
    """
    m = simplex.vertex_count
    M, G = simplex.edge_matrix, simplex.gram_matrix
    res = {"inverse_identity": verify_inverse_identity(simplex).max_residual}
    block_inverse = schur_paths = 0.0
    for k in range(0, m - 1):
        residuals, a = _split_residuals(simplex, k, tols)
        block_inverse = max(block_inverse, max(residuals.values()))
        b = np.divide(*_minor_table(M, np.arange(k + 1, m), np.arange(k + 1)))
        schur_paths = max(schur_paths, float(np.abs(a - b).max()))
    res["block_inverse"] = block_inverse
    res["schur_paths"] = schur_paths

    # signed minors: the identity pins the sign of G_jj, which T^2 drops
    m_ii = _principal_deleted(M)
    g_ii = _principal_deleted(G)
    t = np.sqrt(np.abs(m_ii / simplex.edge_det))
    # <e_i, p_j> = -delta_ij / T_i, for the minors T and for the production T
    pairing = (simplex.vertices * simplex.model.signature) @ simplex.normals.T
    res["vertex_normal_duality"] = max(
        float(np.abs(pairing + np.diag(1.0 / tt)).max()) for tt in (t, simplex.scaling)
    )
    claim = simplex.model.curvature * simplex.gram_det * m_ii / simplex.edge_det
    res["gram_minor_identity"] = float(
        (np.abs(g_ii - claim) / np.maximum(np.abs(g_ii), 1e-300)).max()
    )
    # not scaling_matrix: it raises on disagreement, and this row must report it
    t_gram = np.sqrt(np.abs(g_ii / simplex.gram_det))
    res["scaling_agreement"] = float((np.abs(t - t_gram) / np.abs(t)).max())
    return res


def certify(simplex: Simplex, face: Sequence[int], p, result, tols: Tolerances = DEFAULT_TOLS) -> dict:
    """The ``project`` report's ``foot_manifold`` and ``orthogonality`` rows of a projection.

    Reads only ``result.foot`` and ``result.distance``: the foot's
    membership residual, and max_i |<p - s(d) foot, p_i>| over the face
    vertices, s = cosh in H^n and cos in S^n.  The face comes from
    ``face_complement`` and p is checked for membership, so a bad face or
    point raises what ``project_to_face`` raises.
    """
    model = simplex.model
    pv = _require_on_manifold(model, p, tols, "point")
    face0, _ = face_complement(simplex, face)
    s = math.cosh if model.curvature == -1 else math.cos  # the reported p. = s(d) foot
    r = (pv - s(result.distance) * result.foot) * model.signature
    return {
        "foot_manifold": _membership_residual(model, result.foot),
        "orthogonality": max(abs(float(r @ simplex.vertices[i])) for i in face0),
    }


def oracle_deviation(simplex: Simplex, closed, oracle, tols: Tolerances = DEFAULT_TOLS) -> tuple[float, float]:
    """The closed form's distance and foot against the oracle's: |difference| and geodesic gap."""
    return abs(closed.distance - oracle.distance), distance(simplex.model, closed.foot, oracle.foot, tols)
