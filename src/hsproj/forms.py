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

This module owns the one scalar product, ``_product``: every <x,y> it
takes is an in-order sum on Python floats, which overflows to inf and
carries NaN along without a warning, so no input needs screening first.
It owns the membership rule every closed form assumes (right length,
|<x,x> - curvature| <= tols.manifold, which NaN, inf and an overflowing
<x,x> fail, upper sheet in H^n): every entry point checks its points and
vertices through ``_require_on_manifold``, and every reported residual is
``_membership_residual``.

It also owns the angle rule: every distance in the package is ``_angle``
of two radicands, sinh^2/sin^2 and cosh^2/cos^2 of the distance, read as
asinh in H^n and atan2 in S^n, neither of which cancels near 0.  So
``tols.manifold``, the one slack on the radicands, decides only whether
something exists: near 1 a point or a projection's c2, near 0 a spherical
foot; it never sets a distance.
``distance`` feeds ``_angle`` the half-chords p -/+ q; the projection
feeds it the radicands of its face-block product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
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
    """Numerical tolerances; every public call that decides takes one as ``tols``.

    manifold    the absolute slack on a radicand: membership and c2 past 1
                (DomainError) near 1, the spherical-foot floor near 0
    degenerate  the floor on sigma_min / sigma_max of M (build_simplex)
                and of every eliminated Schur block (crosscheck's gates)

    The identity checks are verification, not decisions: they pass at
    ``crosscheck.IDENTITY_TOL``, which this record does not carry.
    """

    manifold: float = 1e-9
    degenerate: float = 1e-10

    def scaled(self, factor: float) -> "Tolerances":
        """Scale every tolerance uniformly (the CLI --tol knob).

        The rule is on the factor, finite and positive, not on the
        products: a factor small enough scales a tolerance to 0.0, which
        asks for exact arithmetic (``--tol 1e-320`` zeroes every one).
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"tolerance scale factor must be finite and positive, got {factor!r}")
        return replace(self, **{f.name: getattr(self, f.name) * factor for f in fields(self)})


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


# unit roundoff of float64
_UNIT_ROUNDOFF = 2.0**-53


def _product(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """<x,y> of float vectors of the right length; every product this module takes.

    An in-order sum of x_i s_i y_i on Python floats, s the signature, so it
    is within gamma_m sum |x_i y_i| of the exact value (m = ambient_dim,
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  Float
    arithmetic overflows to inf and carries NaN along without a warning.
    """
    total = 0.0
    for a, s, b in zip(x.tolist(), model.signature.tolist(), y.tolist()):
        total += a * s * b
    return total


def inner(model: Model, x, y) -> float:
    """Curvature-signed scalar product: Lorentzian for H^n, Euclidean for S^n.

    inf or NaN once it overflows, without a warning.
    """
    return _product(model, _as_vector(model, x, "x"), _as_vector(model, y, "y"))


def _membership_residual(model: Model, x: np.ndarray) -> float:
    """|<x,x> - curvature| of a float vector of the right length."""
    return abs(_product(model, x, x) - model.curvature)


def _require_on_manifold(model: Model, x, tols: Tolerances, what: str) -> np.ndarray:
    """Return x as a float vector if it is a point of the manifold, else raise.

    DimensionMismatch for a wrong shape; OffManifold unless the membership
    residual is <= tols.manifold, which NaN and inf never are; WrongSheet for
    x1 <= 0 in H^n.  ``what`` names x in the messages ("point", "vertex 3").
    """
    xv = _as_vector(model, x, what)
    residual = _membership_residual(model, xv)
    if not residual <= tols.manifold:
        raise OffManifold(f"{what} is off the {model.name} manifold: residual {residual!r} > {tols.manifold!r}")
    if model.curvature == -1 and xv[0] <= 0.0:
        raise WrongSheet(f"{what} is on the lower sheet: first coordinate {float(xv[0])!r}")
    return xv


def on_manifold(model: Model, x, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff len(x) fits, |<x,x> - curvature| <= tols.manifold and x1 > 0 in H^n; NaN/inf fail."""
    try:
        _require_on_manifold(model, x, tols, "x")
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
    pv = _require_on_manifold(model, p, tols, "p")
    qv = _require_on_manifold(model, q, tols, "q")
    chord, cochord = pv - qv, pv + qv
    s2 = _product(model, chord, chord) / 4.0
    c2 = model.curvature * _product(model, cochord, cochord) / 4.0
    return 2.0 * _angle(model, s2, c2)


def normalize_to_manifold(model: Model, v) -> np.ndarray:
    """Scale v onto the manifold: v / sqrt(curvature * <v,v>).

    The hyperbolic sign is chosen so the first coordinate is positive
    (upper sheet).  Raises NotNormalizable unless q = curvature * <v,v> is
    finite, normal (>= 2^-1022, so sqrt q keeps its relative precision)
    and, in H^n, above gamma_m * sum(v_i^2), gamma_m = m u / (1 - m u) for
    unit roundoff u and m = ambient_dim: the rounding bound of the in-order
    m-term sum by which ``_product`` computes <v,v> (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3).  A refusal signals a
    space-like, light-like or zero v upstream (a degenerate or undefined
    projection), or one too large or too small for float64.
    """
    vv = _as_vector(model, v)
    q = model.curvature * _product(model, vv, vv)
    if not 2.0**-1022 <= q < math.inf:
        raise NotNormalizable(
            f"curvature*<v,v> = {q!r} is not a finite positive normal float; "
            f"cannot normalize onto {model.name} manifold"
        )
    if model.curvature == -1:
        # _product sums <v,v> in index order, so q is within gamma_m <v,v>_E
        # of the exact value: a q inside that bound is residue of a
        # light-like v, not a length.  In H^n <v,v>_E = 2 v_1^2 - q, so
        # q <= gamma_m <v,v>_E reads as below, which stays finite wherever
        # q is; in S^n <v,v>_E is q itself and the bound never binds.
        m = model.ambient_dim
        gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
        x1 = float(vv[0])
        if q * (1.0 + gamma) <= 2.0 * gamma * x1 * x1:
            raise NotNormalizable(
                f"-<v,v> = {q!r} is within rounding of 0 (light-like); "
                f"cannot normalize onto {model.name} manifold"
            )
    out = vv / math.sqrt(q)
    if model.curvature == -1 and out[0] < 0.0:
        out = -out
    return out
