"""Exception hierarchy shared by the whole package.

Every error that can reach a caller derives from GeometryError, so the CLI
can map any geometric failure to exit code 1 and report the class name as
the machine-readable status code.
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(GeometryError):
    """Vector or vertex-count length does not match the model's ambient dimension."""


class OffManifold(GeometryError):
    """A point fails the manifold membership test."""


class WrongSheet(OffManifold):
    """Hyperbolic point on the lower sheet (first coordinate not positive)."""


class DomainError(GeometryError):
    """A projection's cosh^2/cos^2 radicand is past 1 by more than the domain tolerance."""


class NotNormalizable(GeometryError):
    """Vector cannot be scaled onto the manifold (wrong causal type or near zero)."""


class DegenerateSimplex(GeometryError):
    """Vertices are linearly dependent, or the edge matrix fails validation."""


class BadIndexSet(GeometryError):
    """A matrix index argument (minor rows/columns, Schur retained set, block split) is invalid."""


class SingularBlock(GeometryError):
    """The eliminated block of a Schur complement is not invertible."""


class BadFace(GeometryError):
    """A face or vertex index argument is invalid for the simplex."""


class ProjectionUndefined(GeometryError):
    """Spherical foot is not unique (point at distance pi/2 from the plane)."""


class OracleFailure(GeometryError):
    """Brute-force minimization did not converge within its budget."""


class GenerationExhausted(GeometryError):
    """Random simplex generation hit the retry limit without a valid sample."""


class DocumentError(GeometryError):
    """Input document does not parse or violates its structural invariants.

    Mapped to exit code 2 (usage/parse) by the CLI, unlike the other
    GeometryError subclasses which are domain errors (exit code 1).
    """
