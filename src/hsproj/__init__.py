"""Orthogonal projection onto k-planes of simplex faces in H^n and S^n.

Closed-form feet, distances and altitudes from the edge matrix and Gram
matrix of an n-simplex, verified against a brute-force geodesic-distance
minimization oracle.
"""

from .errors import (
    BadFace,
    BadIndexSet,
    DegenerateSimplex,
    DimensionMismatch,
    DocumentError,
    DomainError,
    GenerationExhausted,
    GeometryError,
    NotNormalizable,
    OffManifold,
    OracleFailure,
    ProjectionUndefined,
    SingularBlock,
    WrongSheet,
)
from .forms import (
    DEFAULT_TOLS,
    Model,
    Tolerances,
    distance,
    inner,
    normalize_to_manifold,
    on_manifold,
)
from .generators import random_point, random_simplex
from .oracle import OracleOptions, oracle_project
from .projection import (
    ProjectionResult,
    altitude,
    distance_to_face,
    project_to_face,
    project_to_hyperplane,
    vertex_foot,
)
from .simplex import Simplex, build_simplex
from .crosscheck import (
    complement_gram_inverse,
    scaling_matrix,
    schur_complement,
    schur_complement_via_minors,
    verify_inverse_identity,
    verify_block_inverse_identities,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # forms
    "Model", "Tolerances", "DEFAULT_TOLS",
    "inner", "on_manifold", "distance", "normalize_to_manifold",
    # simplex and the cross-checks the benchmark reads
    "Simplex", "build_simplex",
    "scaling_matrix", "verify_inverse_identity", "schur_complement",
    "schur_complement_via_minors", "verify_block_inverse_identities", "complement_gram_inverse",
    # projection
    "ProjectionResult", "project_to_face", "distance_to_face",
    "project_to_hyperplane", "vertex_foot", "altitude",
    # oracle
    "OracleOptions", "oracle_project",
    # generators
    "random_simplex", "random_point",
    # errors
    "GeometryError", "DimensionMismatch", "OffManifold", "WrongSheet",
    "DomainError", "NotNormalizable", "DegenerateSimplex", "BadIndexSet",
    "SingularBlock", "BadFace", "ProjectionUndefined", "OracleFailure",
    "GenerationExhausted", "DocumentError",
]
