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
    a, da, _, _ = weight_arrays(w, np.array([r]))
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


@pytest.mark.parametrize("spec, dim, c1, c2, d", [
    ("const", None, 0.0, 0.0, 0.0),
    ("ah:h=40", 10, 40.0 / 16.0, 0.0, 40.0 / 20.0),
    ("ah:h=-3", 5, -3.0 / 6.0, 0.0, -3.0 / 10.0),
    ("polyexp:0.5,0.25;d=0.1", None, 0.5, 0.25, 0.1),
    ("polyexp:0.7,-0.2;d=0.3", None, 0.7, -0.2, 0.3),
])
def test_weight_arrays_second_derivative(spec, dim, c1, c2, d):
    # a = (1 + c1 r^2 + c2 r^4) e^{d r^2} expands to
    # a'' = [2(c1 + d) + (12 c2 + 10 d c1 + 4 d^2) r^2
    #        + (18 d c2 + 4 d^2 c1) r^4 + 4 d^2 c2 r^6] e^{d r^2}
    w = parse_weight(spec, dim=dim)
    r = np.linspace(0.0, 1.0, 101)
    a, _, dda, _ = weight_arrays(w, r)
    r2 = r * r
    exact = (2.0 * (c1 + d) + (12.0 * c2 + 10.0 * d * c1 + 4.0 * d * d) * r2
             + (18.0 * d * c2 + 4.0 * d * d * c1) * r2 * r2
             + 4.0 * d * d * c2 * r2 ** 3) * np.exp(d * r2)
    assert np.allclose(dda, exact, rtol=1e-13, atol=1e-13)
    assert dda[0] == pytest.approx(w.a2pp, rel=1e-15, abs=1e-15)
    if spec == "const":
        assert not dda.any() and (a == 1.0).all()


@pytest.mark.parametrize("spec, dim", [
    ("const", None), ("ah:h=40", 10), ("ah:h=-1", 10), ("polyexp:0.7,-0.2;d=0.3", None),
])
def test_weight_arrays_third_derivative(spec, dim):
    # a''' against a central difference of a'', whose error is
    # (step^2 / 6) a^(5) plus rounding
    w = parse_weight(spec, dim=dim)
    r = np.linspace(0.0, 1.0, 101)
    step = 1e-5
    ddda = weight_arrays(w, r)[3]
    diff = (weight_arrays(w, r + step)[2] - weight_arrays(w, r - step)[2]) / (2.0 * step)
    assert np.allclose(ddda, diff, rtol=1e-8, atol=1e-8)
    assert ddda[0] == 0.0
    if spec == "const":
        assert not ddda.any()


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


def _scalar_screen(w, samples=4096):
    """The admissibility check one radius at a time with the scalar weight:
    the reference for the array screen."""
    a_of = weight_fn(w)
    for i in range(samples + 1):
        r = i / samples
        try:
            finite = math.isfinite(a_of(r))
        except OverflowError:
            finite = False
        except ValueError as exc:
            return str(exc)
        if not finite:
            return f"weight {w.spec!r} not finite at r={r}"
    return None


@pytest.mark.parametrize("spec, message", [
    ("polyexp:-2;d=0", "weight 'polyexp:-2;d=0' nonpositive at r=0.707275390625"),
    ("polyexp:;d=800", "weight 'polyexp:;d=800' not finite at r=0.942138671875"),
    ("polyexp:;d=-800", "weight 'polyexp:;d=-800' nonpositive at r=0.96533203125"),
    ("polyexp:-0.5,-0.6;d=1", "weight 'polyexp:-0.5,-0.6;d=1' nonpositive at r=0.9697265625"),
    ("polyexp:1e308,1e308;d=0", "weight 'polyexp:1e308,1e308;d=0' not finite at r=0.965087890625"),
    ("polyexp:-1.5,0.2,0.1;d=-0.3",
     "weight 'polyexp:-1.5,0.2,0.1;d=-0.3' nonpositive at r=0.8828125"),
    ("polyexp:0.3,0.2,-2.5;d=0",
     "weight 'polyexp:0.3,0.2,-2.5;d=0' nonpositive at r=0.906005859375"),
])
def test_admissibility_names_the_first_failing_radius(spec, message):
    with pytest.raises(WeightParseError) as exc:
        parse_weight(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("coeffs, tilt", [
    ((), -745.1), ((), -745.2), ((), 709.78), ((), 709.79), ((-1.0,), 0.0),
    ((-1.0000001,), 0.0), ((-1e308,), 700.0), ((0.7,), -0.2), ((1e300, -1e300), 0.0),
    ((1e300,), -745.13), ((1e300,), -745.2), ((1e-300,), 709.0),
])
def test_admissibility_screen_agrees_with_the_scalar_loop(coeffs, tilt):
    # edges of the float range, where numpy's and math's exp may round apart
    spec = f"polyexp:{','.join(map(repr, coeffs))};d={tilt!r}"
    expected = _scalar_screen(Weight(spec=spec, coeffs=coeffs, tilt=tilt))
    if expected is None:
        assert parse_weight(spec).spec == spec
    else:
        with pytest.raises(WeightParseError) as exc:
            parse_weight(spec)
        assert str(exc.value) == expected


def _loop_weight(w):
    """a(r) as a loop over the coefficients, with weight_fn's positivity
    check and wording: the reference for the compiled scalar weight."""
    def a_of(r):
        p = 1.0
        if w.coeffs:
            r2 = r * r
            q = r2
            for c in w.coeffs:
                p += c * q
                q *= r2
        if w.tilt != 0.0:
            p *= math.exp(w.tilt * r * r)
        if p <= 0.0:
            raise ValueError(f"weight {w.spec!r} nonpositive at r={r}")
        return p

    return a_of


def _outcome(a_of, r):
    try:
        return repr(a_of(r))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


@given(st.lists(st.floats(-3.0, 3.0), max_size=4), st.sampled_from([0.0, 0.3, -1.0, 750.0]),
       st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_weight_fn_is_bit_identical_to_the_loop(coeffs, tilt, radii):
    # the compiled weight_fn, one per shape, against the loop it replaces:
    # the same float, or the same error with the same words
    w = Weight(spec=f"polyexp:{','.join(map(repr, coeffs))};d={tilt!r}",
               coeffs=tuple(coeffs), tilt=tilt)
    a_of, ref = weight_fn(w), _loop_weight(w)
    for r in radii:
        assert _outcome(a_of, r) == _outcome(ref, r)


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


@pytest.mark.parametrize("h", [14100.0, 14200.0])
def test_make_ah_refuses_a_weight_that_overflows_at_one(h):
    # at N=10, a(1) = (1 + h/16) e^{h/20}: at h = 14 100 the product
    # overflows to inf, at 14 200 the exponential itself; 14 000 is finite
    with pytest.raises(WeightParseError) as got:
        make_ah(h, 10)
    assert str(got.value) == f"weight 'ah:h={h!r}' not finite at r=1.0"
    assert math.isfinite(weight_fn(make_ah(14000.0, 10))(1.0))


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


def test_ratio_sign_against_itself_reads_the_weight_once(monkeypatch):
    # a weight that is its own reference is evaluated once, its ratio is
    # constant, and a nonpositive one is still refused
    import gelfand.weights as weights

    w, reference = make_ah(H, 10), make_ah(H, 10)
    calls, real = [], weights.weight_arrays
    monkeypatch.setattr(weights, "weight_arrays", lambda w, r: (calls.append(w), real(w, r))[1])
    assert ratio_derivative_sign(w, 10, reference=reference) == "NonPositiveEverywhere"
    assert calls == [w]
    negative = Weight(spec="polyexp:-3;d=0", coeffs=(-3.0,), tilt=0.0)
    with pytest.raises(ValueError, match="'polyexp:-3;d=0' nonpositive"):
        ratio_derivative_sign(negative, 10, reference=negative)
