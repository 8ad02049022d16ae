import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelfand import (
    Weight,
    WeightParseError,
    explicit_uh,
    hardy_constant,
    make_ah,
    parse_weight,
    ratio_derivative_sign,
)
from gelfand.weights import weight_arrays, weight_fn

H = hardy_constant()


def eval_at(w, r):
    """(a(r), a'(r)) at one radius, from the array evaluator."""
    a, da = weight_arrays(w, np.array([r]))
    return float(a[0]), float(da[0])


# --------------------------------------------------------------- parsing

def test_parse_const():
    w = parse_weight("const")
    assert w.coeffs == () and w.tilt == 0.0
    assert eval_at(w, 0.3) == (1.0, 0.0)


def test_parse_ah_requires_dim():
    with pytest.raises(WeightParseError):
        parse_weight("ah:h=5")
    w = parse_weight("ah:h=5", dim=10)
    assert w.h == 5.0 and w.dim == 10


def test_parse_polyexp():
    w = parse_weight("polyexp:0.5,0.25;d=0.1")
    a, da = eval_at(w, 0.5)
    r = 0.5
    poly = 1.0 + 0.5 * r**2 + 0.25 * r**4
    dpoly = 0.5 * 2 * r + 0.25 * 4 * r**3
    exact = poly * math.exp(0.1 * r * r)
    assert a == pytest.approx(exact, rel=1e-15)
    assert da == pytest.approx((dpoly + poly * 0.2 * r) * math.exp(0.1 * r * r), rel=1e-14)


@pytest.mark.parametrize("bad", [
    "", "cnst", "ah:", "ah:h=", "ah:h=abc", "polyexp:1,2", "polyexp:;d=x",
    "polyexp:1;2;d=3", "gauss:1", "const extra",
    # non-finite reals (1e999 reads as inf) and weights not finite on [0, 1]
    "polyexp:1e999;d=0", "polyexp:;d=1e999", "ah:h=1e999",
    "polyexp:;d=800", "polyexp:1e308,1e308;d=0", "ah:h=1e300",
])
def test_parse_rejects_garbage(bad):
    with pytest.raises(WeightParseError):
        parse_weight(bad, dim=10)


def test_parse_rejects_nonpositive_polyexp():
    # 1 - 3 r^2 goes negative inside (0,1]
    with pytest.raises(WeightParseError, match="nonpositive at r="):
        parse_weight("polyexp:-3;d=0")


def test_make_ah_range_validation():
    with pytest.raises(ValueError):
        make_ah(-16.0, 10)  # h must exceed -2(N-2)
    with pytest.raises(ValueError):
        make_ah(0.0, 2)
    w = make_ah(-15.9, 10)
    assert eval_at(w, 1.0)[0] > 0.0
    for h in (math.inf, -math.inf, math.nan):
        with pytest.raises(WeightParseError, match="finite h"):
            make_ah(h, 5)
    with pytest.raises(WeightParseError, match="not finite at r=1.0"):
        make_ah(1e300, 5)  # exp(h r^2 / 2N) overflows
    assert math.isfinite(weight_fn(make_ah(700.0, 10))(1.0))
    # the explicit family takes its conditions on (dim, h) from make_ah
    for dim, h in ((3.5, 1.0), (10.0, 1.0), (10, math.nan), (10, -16.0), (13, 0.0)):
        with pytest.raises(ValueError):
            make_ah(h, dim)
        with pytest.raises(ValueError):
            explicit_uh(dim, h)
    with pytest.raises(ValueError, match="must be an integer"):
        make_ah(1.0, 3.5)


def test_normalization_at_origin():
    for spec in ("const", "ah:h=40", "polyexp:0.5;d=-0.3"):
        w = parse_weight(spec, dim=10)
        assert eval_at(w, 0.0) == (1.0, 0.0)


# --------------------------------------------------- evaluation semantics

def test_ah_closed_form():
    # a_h(r) = (1 + h r^2 / (2(N-2))) exp(h r^2 / (2N))
    h, N = 40.0, 10
    w = make_ah(h, N)
    for r in (0.0, 0.25, 0.5, 1.0):
        exact = (1.0 + h * r * r / (2 * (N - 2))) * math.exp(h * r * r / (2 * N))
        assert eval_at(w, r)[0] == pytest.approx(exact, rel=1e-15)


def test_ah_zero_bit_identical_to_const():
    w0 = make_ah(0.0, 10)
    wc = parse_weight("const")
    for r in np.linspace(0.0, 1.0, 257):
        assert eval_at(w0, float(r)) == eval_at(wc, float(r))


@st.composite
def weights(draw):
    kind = draw(st.sampled_from(["const", "ah", "polyexp"]))
    if kind == "const":
        return parse_weight("const")
    if kind == "ah":
        dim = draw(st.integers(3, 12))
        h = draw(st.floats(-2.0 * (dim - 2) + 0.5, 60.0))
        return make_ah(h, dim)
    coeffs = draw(st.lists(st.floats(0.0, 2.0), min_size=0, max_size=3))
    tilt = draw(st.floats(-1.0, 1.0))
    spec = "polyexp:" + ",".join(repr(c) for c in coeffs) + f";d={tilt!r}"
    return parse_weight(spec)


@given(weights(), st.floats(1e-3, 1.0 - 1e-5))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_central_difference(w, r):
    a, da = eval_at(w, r)
    assert weight_fn(w)(r) == pytest.approx(a, rel=1e-15)  # the scalar RHS evaluator agrees
    d = 1e-5
    fd = (eval_at(w, r + d)[0] - eval_at(w, r - d)[0]) / (2 * d)
    assert abs(da - fd) <= 1e-6 * max(1.0, abs(da))


@given(weights())
@settings(max_examples=30, deadline=None)
def test_spec_string_round_trips(w):
    again = parse_weight(w.spec, dim=w.dim)
    assert again.coeffs == w.coeffs and again.tilt == w.tilt


# ------------------------------------------------- weighted-ratio classes

def test_ratio_sign_reference_family():
    assert ratio_derivative_sign(make_ah(H, 10), 10) == "NonPositiveEverywhere"
    assert ratio_derivative_sign(make_ah(3.0, 10), 10) == "NonPositiveEverywhere"
    assert ratio_derivative_sign(make_ah(0.0, 10), 10) == "NonPositiveEverywhere"
    assert ratio_derivative_sign(make_ah(8.0, 10), 10) == "PositiveEverywhere"
    assert ratio_derivative_sign(make_ah(40.0, 10), 10) == "PositiveEverywhere"


def test_ratio_sign_requires_critical_dimension():
    with pytest.raises(ValueError):
        ratio_derivative_sign(make_ah(5.0, 9), 9)
    # a weight built without the parse-time check: 1 - 3 r^2 goes negative
    negative = Weight(spec="polyexp:-3;d=0", coeffs=(-3.0,), tilt=0.0)
    with pytest.raises(ValueError, match="nonpositive"):
        ratio_derivative_sign(negative, 10)
