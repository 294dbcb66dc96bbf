"""Bilinear forms, manifold membership and geodesic distance.

Two homogeneous geometries are supported, selected by the curvature sign:

* curvature -1: hyperbolic n-space H^n, realized as the upper sheet of
  <x,x> = -1 in Minkowski space R^{n,1} with <x,y> = -x1*y1 + sum x_i*y_i,
* curvature +1: spherical n-space S^n, the unit sphere of the Euclidean
  dot product in R^{n+1}.

Points are plain float ndarrays of length ``ambient_dim``; the first
coordinate carries the Lorentzian sign in the hyperbolic case.  Coordinates
are spoken of 1-based in documentation and error messages (x1 is the
time-like one); array storage is 0-based as usual.

This module owns the membership rule every closed form assumes (right
length, |<x,x> - curvature| <= tol so that NaN and inf fail, upper sheet in
H^n): every entry point checks its points and vertices through
``_require_on_manifold``, and every reported residual is ``_membership_residual``.

It also owns the angle rule: every distance in the package is ``_angle``
of two radicands, sinh^2/sin^2 and cosh^2/cos^2 of the distance, read as
asinh in H^n and atan2 in S^n.  ``distance`` feeds it the half-chords
p -/+ q; the projection feeds it the radicands of its face-block solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotNormalizable, OffManifold, WrongSheet

__all__ = [
    "Model",
    "Tolerances",
    "DEFAULT_TOLS",
    "inner",
    "on_manifold",
    "distance",
    "normalize_to_manifold",
]


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances, overridable per call.

    manifold    membership test |<x,x> - curvature| (absolute)
    domain      slack on a projection's cosh^2/cos^2 radicand c2: how far it
                may fall below 1 (H^n) or rise above 1 (S^n) before DomainError
    degenerate  determinant floor relative to entry scale
    norm        radicand floor below which a normalization/foot is undefined
    identity    residual bound for the matrix identity checks
    """

    manifold: float = 1e-9
    domain: float = 1e-9
    degenerate: float = 1e-10
    norm: float = 1e-9
    identity: float = 1e-8

    def scaled(self, factor: float) -> "Tolerances":
        """Scale every tolerance uniformly (the CLI --tol knob)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"tolerance scale factor must be finite and positive, got {factor!r}")
        return replace(
            self,
            manifold=self.manifold * factor,
            domain=self.domain * factor,
            degenerate=self.degenerate * factor,
            norm=self.norm * factor,
            identity=self.identity * factor,
        )


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True)
class Model:
    """Geometry selector: curvature in {-1, +1} plus the ambient dimension n+1."""

    curvature: int
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.curvature not in (-1, 1):
            raise ValueError(f"curvature must be -1 or +1, got {self.curvature}")
        if self.ambient_dim < 2:
            raise ValueError(f"ambient_dim must be >= 2, got {self.ambient_dim}")

    @classmethod
    def hyperbolic(cls, ambient_dim: int) -> "Model":
        return cls(-1, ambient_dim)

    @classmethod
    def spherical(cls, ambient_dim: int) -> "Model":
        return cls(+1, ambient_dim)

    @property
    def n(self) -> int:
        """Intrinsic dimension of the space (and of a full simplex in it)."""
        return self.ambient_dim - 1

    @property
    def name(self) -> str:
        return "hyperbolic" if self.curvature == -1 else "spherical"

    @cached_property
    def signature(self) -> np.ndarray:
        """Diagonal of the bilinear form: (-1,1,...,1) or all ones."""
        s = np.ones(self.ambient_dim)
        if self.curvature == -1:
            s[0] = -1.0
        s.setflags(write=False)
        return s


def _as_vector(model: Model, x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (model.ambient_dim,):
        raise DimensionMismatch(
            f"{name} has shape {v.shape}, expected ({model.ambient_dim},)"
        )
    return v


def inner(model: Model, x, y) -> float:
    """Curvature-signed scalar product: Lorentzian for H^n, Euclidean for S^n."""
    xv = _as_vector(model, x, "x")
    yv = _as_vector(model, y, "y")
    return float((xv * model.signature) @ yv)


def _membership_residual(model: Model, x: np.ndarray) -> float:
    """|<x,x> - curvature| of a float vector of the right length."""
    return abs(float((x * model.signature) @ x) - model.curvature)


def _require_on_manifold(model: Model, x, tol: float, what: str) -> np.ndarray:
    """Return x as a float vector if it is a point of the manifold, else raise.

    DimensionMismatch for a wrong shape; OffManifold unless the membership
    residual is <= tol, which NaN and inf never are; WrongSheet for x1 <= 0
    in H^n.  ``what`` names x in the messages ("point", "p", "vertex 3").
    """
    xv = _as_vector(model, x, what)
    residual = _membership_residual(model, xv)
    if not residual <= tol:
        raise OffManifold(f"{what} is off the {model.name} manifold: residual {residual!r} > {tol!r}")
    if model.curvature == -1 and xv[0] <= 0.0:
        raise WrongSheet(f"{what} is on the lower sheet: first coordinate {float(xv[0])!r}")
    return xv


def on_manifold(model: Model, x, tol: float = DEFAULT_TOLS.manifold) -> bool:
    """True iff len(x) fits, |<x,x> - curvature| <= tol and x1 > 0 in H^n; NaN/inf never pass."""
    try:
        _require_on_manifold(model, x, tol, "x")
    except (DimensionMismatch, OffManifold):
        return False
    return True


def _angle(model: Model, s2: float, c2: float) -> float:
    """The angle whose sinh^2 (H^n) or sin^2 (S^n) is s2 and cosh^2/cos^2 is c2.

    asinh(sqrt s2) in H^n, atan2(sqrt s2, sqrt c2) in S^n: neither cancels
    at 0, and the spherical one does not cancel at pi/2 either.  Rounding
    below 0 in s2 or c2 reads as 0; range checks are the caller's.
    """
    sine = math.sqrt(max(s2, 0.0))
    if model.curvature == -1:
        return math.asinh(sine)
    return math.atan2(sine, math.sqrt(max(c2, 0.0)))


def distance(model: Model, p, q, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Geodesic distance: twice the half-angle of the chords p - q and p + q.

    <p-q, p-q> / 4 is sinh^2(d/2) or sin^2(d/2) and curvature * <p+q, p+q> / 4
    is cosh^2(d/2) or cos^2(d/2), so the distance keeps its digits at 0 and,
    in S^n, at pi, where arccosh(-<p,q>) and arccos(<p,q>) lose them.
    """
    pv = _require_on_manifold(model, p, tols.manifold, "p")
    qv = _require_on_manifold(model, q, tols.manifold, "q")
    sig = model.signature
    chord, cochord = pv - qv, pv + qv
    s2 = float((chord * sig) @ chord) / 4.0
    c2 = model.curvature * float((cochord * sig) @ cochord) / 4.0
    return 2.0 * _angle(model, s2, c2)


def normalize_to_manifold(model: Model, v, tol_norm: float = DEFAULT_TOLS.norm) -> np.ndarray:
    """Scale v onto the manifold: v / sqrt(curvature * <v,v>).

    The hyperbolic sign is chosen so the first coordinate is positive
    (upper sheet).  Raises NotNormalizable when curvature * <v,v| is not
    safely positive, which signals a degenerate/undefined projection
    upstream (space-like or near-light-like input in the Lorentzian case,
    near-zero input in the spherical case).
    """
    vv = _as_vector(model, v)
    q = model.curvature * float((vv * model.signature) @ vv)
    if not q > tol_norm:
        raise NotNormalizable(
            f"curvature*<v,v> = {q!r} is not positive; cannot normalize onto {model.name} manifold"
        )
    out = vv / math.sqrt(q)
    if model.curvature == -1 and out[0] < 0.0:
        out = -out
    return out
