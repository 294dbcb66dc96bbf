import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hsproj
from hsproj import (
    DEFAULT_TOLS,
    DimensionMismatch,
    Model,
    NotNormalizable,
    OffManifold,
    Tolerances,
    WrongSheet,
    distance,
    inner,
    normalize_to_manifold,
    on_manifold,
)
from hsproj import crosscheck, forms
from hsproj.generators import random_point

from conftest import COSH1, SINH1, model_named

H3 = Model.hyperbolic(3)
S3 = Model.spherical(3)


def test_model_validation():
    assert H3.curvature == -1 and H3.name == "hyperbolic" and H3.n == 2
    assert S3.curvature == 1 and S3.name == "spherical"
    with pytest.raises(ValueError):
        Model(0, 3)
    with pytest.raises(ValueError):
        Model(1, 1)


def test_inner_basis_values():
    assert inner(H3, (1, 0, 0), (1, 0, 0)) == -1.0
    assert inner(S3, (1, 0, 0), (0, 1, 0)) == 0.0


def test_inner_derived_value():
    # independent oracle: term-by-term signed summation over coordinates
    x = (COSH1, SINH1, 0.0)
    y = (1.0, 0.0, 0.0)
    by_hand = -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
    assert by_hand == -COSH1
    assert_allclose(inner(H3, x, y), -1.5430806348152437, rtol=0, atol=1e-15)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(H3, (1, 0), (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        inner(S3, (1, 0, 0), (1, 0, 0, 0))


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_inner_symmetry_and_bilinearity(model_name):
    rng = np.random.default_rng(11)
    model = model_named(model_name, 5)
    for _ in range(50):
        x, y, z = rng.normal(size=(3, 5))
        a, b = rng.normal(size=2)
        assert inner(model, x, y) == inner(model, y, x)
        lhs = inner(model, a * x + b * y, z)
        rhs = a * inner(model, x, z) + b * inner(model, y, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_on_manifold_examples():
    assert on_manifold(H3, (1, 0, 0))
    assert not on_manifold(H3, (-1, 0, 0))  # lower sheet
    assert on_manifold(S3, (0.6, 0.8, 0.0))
    assert not on_manifold(S3, (0.6, 0.8, 0.1))
    assert not on_manifold(S3, (1.0, 0.0))  # wrong length is just "no"
    assert not on_manifold(S3, (math.nan, 0.0, 0.0))
    # off by 1e-8 in <x,x>: on the manifold once the record's membership field allows it
    assert not on_manifold(S3, (0.6, 0.8, 1e-4))
    assert on_manifold(S3, (0.6, 0.8, 1e-4), DEFAULT_TOLS.scaled(100.0))


def test_distance_examples():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([COSH1, SINH1, 0.0])
    assert distance(H3, p, p) == 0.0
    assert_allclose(distance(H3, p, q), 1.0, rtol=0, atol=1e-15)
    assert_allclose(distance(S3, (1, 0, 0), (0, 1, 0)), math.pi / 2, rtol=0, atol=1e-15)


def test_distance_requires_manifold_points():
    with pytest.raises(OffManifold):
        distance(H3, (2.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(OffManifold):
        distance(S3, (1, 0, 0), (0.5, 0.5, 0.0))
    with pytest.raises(OffManifold):
        distance(S3, (1, 0, 0), (math.nan, 0.0, 0.0))
    with pytest.raises(WrongSheet):
        distance(H3, (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_distance_triangle_inequality(model_name):
    model = model_named(model_name, 4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, q, r = (random_point(model, rng) for _ in range(3))
        assert distance(model, p, r) <= distance(model, p, q) + distance(model, q, r) + 1e-9


def test_normalize_examples():
    assert_allclose(normalize_to_manifold(S3, (3.0, 4.0, 0.0)), [0.6, 0.8, 0.0], atol=1e-15)
    assert_allclose(normalize_to_manifold(Model.hyperbolic(2), (-2.0, 0.0)), [1.0, 0.0], atol=1e-15)
    assert_allclose(normalize_to_manifold(Model.hyperbolic(2), (COSH1, 0.0)), [1.0, 0.0], atol=1e-15)
    # <v,v> = 2e302 is still finite, so it is a length like any other
    assert_allclose(normalize_to_manifold(S3, (1e151, 1e151, 0.0)), [2**-0.5, 2**-0.5, 0.0])


def test_normalize_rejects_bad_vectors():
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(H3, (0.0, 1.0, 0.0))  # space-like
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(S3, (0.0, 0.0, 0.0))
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(H3, (1.0, 1.0, 0.0))  # light-like
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(H3, (math.nan, 0.0, 0.0))
    # curvature*<v,v> = 1e-10 is a length like any other; 1e-310 is subnormal,
    # and its square root has lost its relative precision
    assert_allclose(normalize_to_manifold(S3, (1e-5, 0.0, 0.0)), [1.0, 0.0, 0.0], atol=1e-15)
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(S3, (1e-155, 0.0, 0.0))


@pytest.mark.parametrize("sheet", [1.0, -1.0])
def test_normalize_rejects_light_like_rounding_residue(sheet):
    a = 12345.678
    # two equal 1.5e8 squares cancel exactly: <v,v> = -0.0, below the
    # smallest normal float
    with pytest.raises(NotNormalizable, match="normal float"):
        normalize_to_manifold(H3, (sheet * a, sheet * a, 0.0))
    # one ulp apart they leave -<v,v> = 5.96e-8: a normal float, yet inside
    # the rounding bound 2 gamma_3 a^2 ~ 1.0e-7 of the sum, so light-like
    with pytest.raises(NotNormalizable, match="light-like"):
        normalize_to_manifold(H3, (sheet * a, sheet * math.nextafter(a, 0.0), 0.0))
    # a time-like vector of the same size range still normalizes, onto the
    # upper sheet; <v,v> = -9 carries a relative error up to gamma_3 cosh 16 ~ 1.5e-9
    x = normalize_to_manifold(H3, (sheet * 3 * math.cosh(8.0), sheet * 3 * math.sinh(8.0), 0.0))
    assert_allclose(x, [math.cosh(8.0), math.sinh(8.0), 0.0], rtol=1e-9)
    assert on_manifold(H3, x)


# coordinates whose <x,x> overflows: cosh 400 squares past the float range
OVERFLOWING = [
    (1e200, 1e200, 0.0),
    (1e155, 0.0, 0.0),
    (math.cosh(400.0), math.sinh(400.0), 0.0),
    (math.inf, math.inf, 0.0),
    (math.inf, 0.0, 0.0),
    (math.nan, 1e200, 0.0),
]


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
@pytest.mark.parametrize("x", OVERFLOWING)
def test_overflowing_vectors_fail_without_a_warning(model_name, x):
    # tier 1 turns a numpy RuntimeWarning into an error
    model = model_named(model_name, 3)
    assert not on_manifold(model, x)
    with pytest.raises(OffManifold):
        distance(model, x, (1.0, 0.0, 0.0))
    with pytest.raises(NotNormalizable):
        normalize_to_manifold(model, x)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
@pytest.mark.parametrize("big", [1e200, math.inf, math.nan])
def test_inner_overflows_without_a_warning(model_name, big):
    # tier 1 turns a numpy RuntimeWarning into an error
    model = model_named(model_name, 3)
    square = inner(model, (big, 0.0, 0.0), (big, 0.0, 0.0))
    crossed = inner(model, (big, 0.0, 0.0), (0.0, 1.0, 0.0))  # inf * 0 is NaN
    if math.isnan(big):
        assert math.isnan(square) and math.isnan(crossed)
    elif math.isinf(big):
        assert square == model.curvature * math.inf and math.isnan(crossed)
    else:
        assert square == model.curvature * math.inf and crossed == 0.0
    # coordinates whose squares stay finite give the plain product
    assert inner(model, (0.0, 1e150, 0.0), (0.0, 1e150, 0.0)) == 1e150 * 1e150


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_inner_and_self_product_agree_bit_for_bit(model_name):
    # inner and the membership rule's <x,x> read one product
    rng = np.random.default_rng(31)
    cases = [(model_named(model_name, 3), np.array(x, dtype=float)) for x in OVERFLOWING]
    for m in range(2, 12):
        model = model_named(model_name, m)
        cases += [(model, rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(40)]
    for model, x in cases:
        assert np.float64(inner(model, x, x)).tobytes() == np.float64(forms._product(model, x, x)).tobytes()


def _product_pairs(model_name, seed):
    """Random pairs for m = 2..11, each vector with its own scale, plus OVERFLOWING."""
    rng = np.random.default_rng(seed)
    pairs = []
    model = model_named(model_name, 3)
    for x in OVERFLOWING:
        x = np.array(x, dtype=float)
        pairs += [(model, x, x), (model, x, np.array([1.0, 2.0, 3.0]))]
    for m in range(2, 12):
        model = model_named(model_name, m)
        for _ in range(40):
            x, y = (rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
            pairs += [(model, x, y), (model, x, x)]
    return pairs


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_product_is_the_in_order_float_sum(model_name):
    # x_1 s_1 y_1 + x_2 s_2 y_2 + ..., left to right, one rounding per step
    for model, x, y in _product_pairs(model_name, 37):
        expected = 0.0
        for i in range(model.ambient_dim):
            expected = expected + float(x[i]) * float(model.signature[i]) * float(y[i])
        assert forms._product(model, x, y).hex() == expected.hex()


def _near_light_cone(m, rng):
    """A time-like vector of H^(m-1) whose <x,x> cancels to a relative 1e-12..1e-4 of x_1^2."""
    direction = rng.normal(size=m - 1)
    x = np.empty(m)
    x[1:] = direction / np.linalg.norm(direction)
    x[0] = 1.0 + 10.0 ** rng.uniform(-12.0, -4.0)
    return x * 10.0 ** rng.uniform(-3.0, 8.0)


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_product_error_is_within_gamma_m(model_name):
    # |<x,y> - exact| <= gamma_m sum |x_i y_i|, gamma_m = m u / (1 - m u): the
    # bound normalize_to_manifold's light-cone refusal reads
    rng = np.random.default_rng(41)
    u = Fraction(1, 2**53)
    pairs = [pair for pair in _product_pairs(model_name, 43) if math.isfinite(forms._product(*pair))]
    if model_name == "hyperbolic":
        for m in range(2, 12):
            for _ in range(40):
                x = _near_light_cone(m, rng)
                pairs += [(Model.hyperbolic(m), x, x), (Model.hyperbolic(m), x, _near_light_cone(m, rng))]
    erred = 0
    for model, x, y in pairs:
        m = model.ambient_dim
        sig = model.signature.tolist()
        terms = [Fraction(a) * int(s) * Fraction(b) for a, s, b in zip(x.tolist(), sig, y.tolist())]
        error = abs(Fraction(forms._product(model, x, y)) - sum(terms))
        assert error <= m * u / (1 - m * u) * sum(abs(t) for t in terms)
        erred += error > 0
    assert erred > len(pairs) // 4


@pytest.mark.parametrize("model_name", ["hyperbolic", "spherical"])
def test_normalize_lands_on_manifold(model_name):
    # no slack decides the floor: whatever normalizes, from 1e-153 to 1e150, is a point
    rng = np.random.default_rng(23)
    produced = 0
    for m in range(2, 10):
        model = model_named(model_name, m)
        for _ in range(250):
            v = rng.normal(size=m) * 10.0 ** rng.uniform(-153.0, 150.0)
            v[0] *= math.sqrt(m)  # about half time-like in H^n
            try:
                x = normalize_to_manifold(model, v)
            except NotNormalizable:
                continue
            produced += 1
            assert on_manifold(model, x), (m, v)
    assert produced >= 750


def test_tolerance_scaling():
    t = Tolerances().scaled(10.0)
    assert t.manifold == 1e-8
    names = {f.name for f in dataclasses.fields(Tolerances)}
    assert names == {"manifold", "degenerate"}
    # distinct values per field, so a field scaled into another one shows
    base = Tolerances(**{name: float(i + 1) for i, name in enumerate(sorted(names))})
    scaled = base.scaled(10.0)
    for name in names:
        assert getattr(scaled, name) == getattr(base, name) * 10.0
    with pytest.raises(ValueError):
        Tolerances().scaled(0.0)
    for factor in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Tolerances().scaled(factor)


def test_tolerances_enter_only_as_a_record():
    names = [(hsproj, name) for name in hsproj.__all__] + [(crosscheck, name) for name in crosscheck.__all__]
    with_tols = []
    for module, name in names:
        obj = getattr(module, name)
        if not callable(obj) or isinstance(obj, type):
            continue
        params = inspect.signature(obj).parameters
        assert not {"tol", "tol_norm", "tol_degenerate"} & set(params), name
        if "tols" in params:
            assert params["tols"].default is DEFAULT_TOLS, name
            with_tols.append(name)
    assert {"on_manifold", "schur_complement"} <= set(with_tols)
    # the normalization floor is the float range and the rounding bound, never a slack
    assert "tols" not in inspect.signature(normalize_to_manifold).parameters
