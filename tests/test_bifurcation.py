import math
from types import SimpleNamespace

import numpy as np
import pytest

import gelfand._stepper as _stepper
import gelfand.bifurcation as bif
from gelfand import (
    IntegrationError,
    ProblemConfig,
    check_lower_envelope,
    check_separation,
    classify,
    hardy_constant,
    integrate_ivp,
    integrate_singular,
    lambda_second_derivative,
    make_ah,
    parse_weight,
    trace_curve,
    zero_number,
)
from gelfand.bifurcation import TurningPoint
from gelfand.radial_ode import RadialProfile

H = hardy_constant()
CONST = parse_weight("const")


# --------------------------------------------------------- curve structure

def test_samples_ordered_and_spaced(curve3):
    betas = curve3.betas
    assert np.all(np.diff(betas) > 0)
    assert np.max(np.diff(betas)) <= 0.25 + 1e-12
    assert curve3.complete and curve3.diagnostic == ""


def test_alpha_identity_on_samples(curve3):
    for s in curve3.samples[:: max(1, len(curve3.samples) // 50)]:
        assert s.alpha == pytest.approx(s.beta - math.log(s.lam), abs=1e-12)


def test_lambda_bounded_by_extremal(curve3, cfg3):
    report = classify(cfg3, curve3, integrate_singular(cfg3)[0])
    assert report.lambda_extremal == max(s.lam for s in curve3.samples)
    assert all(s.lam <= report.lambda_extremal for s in curve3.samples)
    assert math.isfinite(report.lambda_extremal)


def test_turning_points_refined_flat(curve3, cfg3):
    assert len(curve3.turning_points) >= 3
    assert curve3.turning_points[0].kind == "Max"
    for tp in curve3.turning_points:
        sh = integrate_ivp(cfg3, tp.beta)
        assert abs(sh.dlambda_dbeta) <= 1e-8 * max(1.0, sh.lam)


def test_turning_point_kinds_alternate(curve3):
    kinds = [tp.kind for tp in curve3.turning_points]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_second_derivative_sign_matches_kind(curve3, cfg3):
    # Max folds are maxima of lambda(beta): lambda'' < 0 there
    for tp in curve3.turning_points[:4]:
        lpp = lambda_second_derivative(cfg3, tp.beta)
        assert (lpp < 0.0) == (tp.kind == "Max")


def test_no_turning_points_critical_dim(curve10_h0):
    assert curve10_h0.turning_points == ()
    lams = curve10_h0.lams
    assert lams[-1] > lams[0]


def test_turning_point_kind_validation():
    with pytest.raises(ValueError):
        TurningPoint(beta=1.0, lam=2.0, alpha=0.3, kind="Saddle")


def test_trace_rejects_bad_window(cfg3):
    with pytest.raises(ValueError):
        trace_curve(cfg3, 5.0, 5.0, 0.25)
    with pytest.raises(ValueError):
        trace_curve(cfg3, 0.0, 1.0, 0.0)


@pytest.fixture
def shoots(monkeypatch):
    """(cfg, beta, keyword arguments) of every shoot the bifurcation module makes."""
    calls = []
    real = bif.integrate_ivp

    def counting(cfg, beta, **kw):
        calls.append((cfg, beta, kw))
        return real(cfg, beta, **kw)

    monkeypatch.setattr(bif, "integrate_ivp", counting)
    return calls


@pytest.mark.parametrize("window", [(-51.0, 0.0), (55.0, 61.0)])
def test_trace_rejects_window_past_guards_before_shooting(cfg3, shoots, window):
    with pytest.raises(ValueError, match=rf"beta window \[{window[0]}, {window[1]}\]"):
        trace_curve(cfg3, *window, 0.25)
    assert shoots == []


def test_trace_truncates_on_integrator_failure(cfg3, monkeypatch):
    real = bif.integrate_ivp

    def failing(cfg, beta, **kw):
        if beta > 1.0:
            raise IntegrationError("stalled", reached=0.5)
        return real(cfg, beta, **kw)

    monkeypatch.setattr(bif, "integrate_ivp", failing)
    curve = trace_curve(cfg3, 0.0, 3.0, 0.25)
    assert not curve.complete
    assert "beta" in curve.diagnostic
    assert len(curve.samples) >= 1
    assert curve.betas[-1] <= 1.0


def test_consecutive_samples_meet_the_tangent_bound(curve3):
    # log lambda misses its tangent by at most 0.01 per accepted step,
    # unless the step is already at the floor and accepted as-is
    floor = 0.25 / 2.0 ** bif.STEP_HALVINGS
    for a, b in zip(curve3.samples, curve3.samples[1:]):
        gap = b.beta - a.beta
        assert gap <= 0.25
        miss = b.v1 - a.v1 - gap * a.dlambda_dbeta / a.lam
        assert abs(miss) <= 0.01 or gap == floor


@pytest.mark.parametrize("dim, weight", [(3, "const"), (10, "ah:h=40")])
def test_march_below_zero_takes_the_step_cap(shoots, dim, weight):
    # lambda ~ 2N e^beta there, so the tangent rule accepts every 0.25
    # step: 21 shoots, where a 1% rule on lambda itself needs 965
    cfg = ProblemConfig(dim=dim, weight=parse_weight(weight, dim))
    curve = trace_curve(cfg, -5.0, 0.0, 0.25)
    assert curve.complete
    assert len(shoots) <= 25


# fold betas of trace_curve(cfg, -5, 40, 0.25) under the 1%-in-lambda step
# rule that the tangent rule replaced; the folds must not move with the march
REFERENCE_FOLDS = {
    "curve3": [2.808021419, 7.250110619, 12.122506000, 16.837902822,
               21.598269038, 26.344666056, 31.095299803, 35.844639070],
    "curve10_h40": [3.419215657, 10.379403920],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_FOLDS))
def test_folds_do_not_move_with_the_step_rule(request, name):
    tps = request.getfixturevalue(name).turning_points
    expected = REFERENCE_FOLDS[name]
    assert [tp.kind for tp in tps] == ["Max", "Min"] * (len(expected) // 2)
    assert [tp.beta for tp in tps] == pytest.approx(expected, abs=1e-7)


# The constant-weight branch from one Emden-Fowler trajectory, an oracle
# that shares only the DP5 stepper and the root finder with the package.
# For a = 1, v(r; beta) = beta + w(e^{beta/2} r) with w the beta = 0
# solution on [0, inf). With s = log rho and z = w + 2s - log 2(N-2),
#     z'' + (N-2) z' + 2(N-2) expm1(z) = 0,  lambda(beta) = 2(N-2) e^{z(beta/2)},
# so the folds are the zeros of z', at beta = 2s.
def _emden_folds(dim):
    """[(beta, kind)] of every fold up to beta = 41: z' from s = -12 to
    20.5 at rtol 1e-12 (atol 1e-300, purely relative), each zero of z'
    placed by zeroin to 5e-10 in s, every evaluation a short re-shoot from
    the accepted step before the sign change."""
    n2, k = dim - 2.0, 2.0 * (dim - 2.0)

    def fun(s, y):
        return [y[1], -n2 * y[1] - k * math.expm1(y[0])]

    s0 = -12.0
    rho2 = math.exp(2.0 * s0)
    # w = -rho^2/(2N) + rho^4/(8N(N+2)) + ..., and z' = rho w_rho + 2
    w = -rho2 / (2 * dim) + rho2 * rho2 / (8 * dim * (dim + 2))
    dz = 2.0 - rho2 / dim + rho2 * rho2 / (2 * dim * (dim + 2))
    y0 = [w + 2.0 * s0 - math.log(k), dz]
    _, xs, ys = _stepper.solve(fun, s0, y0, [20.5], 1e-12, 1e-300, collect=True)
    folds = []
    for x0, y, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if y[1] * y1[1] < 0.0:
            def point(s, x0=x0, y=y):
                return s, _stepper.solve(fun, x0, y, [s], 1e-12, 1e-300)[0][1], None
            b, _ = _stepper.zeroin(point, (x0, y[1], None), (x1, y1[1], None),
                                   lambda s: 2.5e-10, lambda p: True, "no zero of z'")
            folds.append((2.0 * b[0], "Max" if y[1] > 0.0 else "Min"))
    return folds


def _in_window(folds):
    return [f for f in folds if -5.0 <= f[0] <= 40.0]


# the oracle's seven N=9 const folds in [-5, 40], from Max at 8.0008 on;
# trace_curve finds only the first two (test_classify_type_one_nine_dimensions)
EMDEN_FOLDS_N9 = [8.000789448, 12.750328988, 17.499970660, 22.249612307,
                  26.999253954, 31.748895601, 36.498537247]


def test_emden_oracle_matches_the_traced_folds_in_three_dimensions():
    folds = _in_window(_emden_folds(3))
    assert [kind for _, kind in folds] == ["Max", "Min"] * 4
    assert [beta for beta, _ in folds] == pytest.approx(REFERENCE_FOLDS["curve3"], abs=1e-7)


def test_emden_oracle_has_no_fold_in_ten_dimensions():
    # z' keeps its sign: at N = 10 the linearization has the double root -4
    assert _emden_folds(10) == []


def test_emden_oracle_has_seven_folds_in_nine_dimensions():
    folds = _in_window(_emden_folds(9))
    assert [kind for _, kind in folds] == ["Max", "Min", "Max", "Min", "Max", "Min", "Max"]
    assert [beta for beta, _ in folds] == pytest.approx(EMDEN_FOLDS_N9, abs=1e-8)


def test_refine_fold_shoots_only_inside_its_bracket(cfg3, shoots):
    # the march holds both ends of a bracket, so refinement never re-shoots them
    lo, hi = (integrate_ivp(cfg3, b, trace=True) for b in (2.75, 3.0))
    tp = bif.refine_fold(cfg3, lo, hi)
    assert tp.kind == "Max"
    assert tp.beta == pytest.approx(REFERENCE_FOLDS["curve3"][0], abs=1e-7)
    assert shoots and all(2.75 < b < 3.0 for _, b, _ in shoots)
    assert len(shoots) <= 8


def test_refine_fold_takes_few_shoots_on_the_march_brackets(curve3, cfg3, shoots):
    # Brent's method needs 3-6 shoots per fold of curve3, where bisecting
    # a bracket up to 0.25 wide down to BETA_TOL takes 25
    samples = curve3.samples
    for tp in curve3.turning_points:
        i = next(i for i, s in enumerate(samples) if s.beta > tp.beta)
        shoots.clear()
        assert bif.refine_fold(cfg3, samples[i - 1], samples[i]) == tp
        assert 0 < len(shoots) <= 8


def _fake_shoots(monkeypatch, dlambda):
    """Replace the module's shoots by beta -> dlambda(beta) at lambda = 1;
    returns the fake and the list of betas it is called at."""
    betas = []

    def fake(cfg, beta, **kw):
        betas.append(beta)
        return SimpleNamespace(beta=beta, lam=1.0, alpha=beta,
                               dlambda_dbeta=dlambda(beta))

    monkeypatch.setattr(bif, "integrate_ivp", fake)
    return fake, betas


def test_refine_fold_converges_on_a_smooth_sign_change(monkeypatch):
    fake, betas = _fake_shoots(monkeypatch, lambda b: (2.9 - b) * (1.0 + b * b))
    lo, hi = fake(None, 2.75), fake(None, 3.0)
    betas.clear()
    tp = bif.refine_fold(None, lo, hi)
    assert tp.kind == "Max"
    assert abs(tp.beta - 2.9) <= bif.BETA_TOL
    assert 0 < len(betas) <= 10 and all(2.75 < b < 3.0 for b in betas)


def test_refine_fold_raises_when_no_flat_point_exists(monkeypatch):
    # the derivative jumps sign without a zero: the bracket closes in on
    # the jump, but no point in it is flat
    fake, betas = _fake_shoots(monkeypatch, lambda b: 1.0 if b < 2.9 else -1.0)
    lo, hi = fake(None, 2.75), fake(None, 3.0)
    betas.clear()
    with pytest.raises(RuntimeError, match=r"fold refinement on \[2.75, 3.0\]"):
        bif.refine_fold(None, lo, hi)
    assert betas and all(2.75 < b < 3.0 for b in betas)


def test_fold_below_zero_under_the_largest_steps():
    cfg = ProblemConfig(dim=3, weight=make_ah(40.0, 3))
    tps = trace_curve(cfg, -5.0, 0.0, 0.25).turning_points
    assert [tp.kind for tp in tps] == ["Max"]
    assert tps[0].beta == pytest.approx(-3.42490115, abs=1e-7)


def test_emanation_sample():
    cfg = ProblemConfig(dim=3, weight=CONST)
    curve = trace_curve(cfg, -10.0, -9.5, 0.25)
    s = curve.samples[0]
    assert s.beta == -10.0
    assert abs(s.lam - math.exp(-10.0)) <= 1e-3 * math.exp(-10.0)
    assert abs(s.alpha - (-10.0 - math.log(s.lam))) <= 1e-3


# ----------------------------------------------------------- classification

def test_classify_type_one(curve3, cfg3):
    lam_star, _ = integrate_singular(cfg3)
    assert lam_star == pytest.approx(2.0, rel=1e-9)
    rep = classify(cfg3, curve3, lam_star)
    assert rep.diagram_type == "I"
    assert rep.oscillation_count >= 3
    assert rep.extremal_bounded
    assert len(rep.turning_points) >= 3


def test_classify_type_two(curve10_h0, cfg10_h0):
    lam_star, _ = integrate_singular(cfg10_h0)
    assert lam_star == pytest.approx(16.0, rel=1e-6)
    rep = classify(cfg10_h0, curve10_h0, lam_star)
    assert rep.diagram_type == "II"
    assert not rep.extremal_bounded
    assert rep.turning_points == ()


def test_classify_type_three(curve10_h40, cfg10_h40):
    lam_star, _ = integrate_singular(cfg10_h40)
    assert lam_star == pytest.approx(16.0 * math.exp(-2.0), rel=1e-6)
    rep = classify(cfg10_h40, curve10_h40, lam_star)
    assert rep.diagram_type == "III"
    assert rep.extremal_bounded
    assert len(rep.turning_points) >= 1
    # no fold in the final third of the window
    b0, b1 = curve10_h40.beta_range
    cutoff = b0 + (b1 - b0) * 2.0 / 3.0
    assert all(tp.beta < cutoff for tp in rep.turning_points)


def test_classify_requires_wide_window(cfg3):
    short = trace_curve(cfg3, -2.0, 8.0, 0.25)
    with pytest.raises(ValueError):
        classify(cfg3, short, 2.0)


def test_convergence_to_singular_level():
    # |lambda(beta) - lambda_*| shrinks as the window grows
    cfg = ProblemConfig(dim=3, weight=CONST)
    lam_star, _ = integrate_singular(cfg)
    d30 = abs(integrate_ivp(cfg, 30.0).lam - lam_star)
    d40 = abs(integrate_ivp(cfg, 40.0).lam - lam_star)
    assert d40 < d30


@pytest.mark.xfail(reason="oscillation amplitude at N=9 decays like "
                   "exp(-7 beta/4); sign changes past beta ~ 13 fall below "
                   "float64 resolution, so the late-window oscillation "
                   "evidence cannot be certified numerically", strict=True)
def test_classify_type_one_nine_dimensions():
    cfg = ProblemConfig(dim=9, weight=CONST)
    curve = trace_curve(cfg, -5.0, 40.0, 0.25)
    lam_star, _ = integrate_singular(cfg)
    rep = classify(cfg, curve, lam_star)
    assert rep.diagram_type == "I"


# ------------------------------------------------------------- zero number

def test_zero_number_low_beta_is_zero():
    cfg = ProblemConfig(dim=3, weight=CONST)
    _, sing = integrate_singular(cfg)
    assert zero_number(cfg, -5.0, sing) == 0


def test_zero_number_grows_along_type_one_curve():
    cfg = ProblemConfig(dim=3, weight=CONST)
    _, sing = integrate_singular(cfg)
    assert [zero_number(cfg, b, sing) for b in (10.0, 25.0, 40.0)] == [2, 4, 4]


def test_zero_number_borderline_family_separated():
    cfg = ProblemConfig(dim=10, weight=make_ah(H, 10))
    _, sing = integrate_singular(cfg)
    assert [zero_number(cfg, b, sing) for b in (5.0, 15.0, 25.0)] == [0, 0, 0]


def test_zero_number_nine_dimensions():
    cfg = ProblemConfig(dim=9, weight=CONST)
    _, sing = integrate_singular(cfg)
    assert [zero_number(cfg, b, sing) for b in (10.0, 25.0)] == [1, 1]


def _one_trace_shoot_each(shoots, expected):
    """Each (cfg, beta) shot once, on the accepted steps, without output radii."""
    assert [(cfg, beta) for cfg, beta, _ in shoots] == expected
    assert all(kw == {"trace": True} for _, _, kw in shoots)


def test_zero_number_shoots_once(shoots, monkeypatch):
    cfg = ProblemConfig(dim=3, weight=CONST)
    _, sing = integrate_singular(cfg)
    state_sizes = []
    real = _stepper.solve

    def counting(fun, r0, y0, *args, **kw):
        state_sizes.append(len(y0))
        return real(fun, r0, y0, *args, **kw)

    monkeypatch.setattr(_stepper, "solve", counting)
    assert zero_number(cfg, 10.0, sing) == 2
    _one_trace_shoot_each(shoots, [(cfg, 10.0)])
    assert state_sizes == [4]  # the (v, e) shoot; no singular (size 2) one


def test_zero_number_does_not_extrapolate_the_singular_profile():
    cfg = ProblemConfig(dim=3, weight=CONST)
    _, sing = integrate_singular(cfg)
    late = RadialProfile(sing.radii[5:], sing.values[5:], sing.derivs[5:])
    with pytest.raises(ValueError, match="outside"):
        zero_number(cfg, 10.0, late)


@pytest.mark.parametrize("dim, spec, betas, expected", [
    (4, "ah:h=40", (2.0, 5.0, 10.0, 20.0, 30.0, 40.0), [2, 2, 4, 6, 6, 2]),
    (5, "polyexp:0.7,-0.2;d=0.3", (5.0, 10.0, 20.0, 30.0), [1, 3, 6, 3]),
    (7, "const", (5.0, 10.0, 20.0), [1, 2, 3]),
    (10, "ah:h=40", (5.0, 10.0), [1, 1]),
])
def test_zero_number_pinned(dim, spec, betas, expected):
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    _, sing = integrate_singular(cfg)
    assert [zero_number(cfg, b, sing) for b in betas] == expected


def _resolved_sign_changes_loop(d, floor):
    """Reference: walk the nonzero entries, closing a block at each sign change."""
    blocks = []  # [sign, amplitude]
    for x in d:
        if x == 0.0:
            continue
        if blocks and np.sign(x) == blocks[-1][0]:
            blocks[-1][1] = max(blocks[-1][1], abs(x))
        else:
            blocks.append([np.sign(x), abs(x)])
    resolved = [sg for sg, amp in blocks if amp >= floor]
    return sum(1 for a, b in zip(resolved, resolved[1:]) if a != b)


def test_resolved_sign_changes_equal_the_loop():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        d = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0, size=n)
        d[rng.random(n) < 0.2] = 0.0
        floor = 10.0 ** rng.uniform(-3.0, 0.5)
        assert bif._resolved_sign_changes(d, floor) == _resolved_sign_changes_loop(d, floor)


# -------------------------------------------------------------- separation

def test_separation_identical_profiles():
    cfg = ProblemConfig(dim=10, weight=make_ah(H, 10))
    gap_v, _, r_h = check_separation(cfg, H, 3.0, 3.0)
    assert gap_v == 0.0
    assert r_h == pytest.approx(1.0)


def test_separation_ordered_profiles_borderline():
    cfg = ProblemConfig(dim=10, weight=make_ah(H, 10))
    gap_v, gap_w, r_h = check_separation(cfg, H, 2.0, 5.0)
    assert gap_v > 0.0
    assert gap_w > 0.0
    assert r_h == pytest.approx(1.0)


def test_separation_window_shrinks_for_strong_weight():
    cfg = ProblemConfig(dim=10, weight=make_ah(3.0, 10))
    _, _, r_h = check_separation(cfg, 3.0, 1.0, 2.0)
    assert r_h == pytest.approx(1.0)  # h < H keeps the full window
    cfg_b = ProblemConfig(dim=10, weight=make_ah(H, 10))
    _, _, r_h2 = check_separation(cfg_b, 4.0 * H, 1.0, 2.0)
    assert r_h2 == pytest.approx(0.5)  # sqrt(H / 4H)


def test_separation_type_one_profiles_intersect():
    cfg = ProblemConfig(dim=3, weight=CONST)
    gap_v, _, _ = check_separation(cfg, 0.0, 5.0, 10.0)
    assert gap_v < 0.0


def test_separation_shoots_each_profile_once(shoots):
    cfg = ProblemConfig(dim=10, weight=make_ah(3.0, 10))
    check_separation(cfg, 3.0, 2.0, 5.0)
    cfg_ref = ProblemConfig(dim=10, weight=make_ah(H, 10))
    _one_trace_shoot_each(shoots, [(cfg, 2.0), (cfg, 5.0), (cfg_ref, 5.0)])


def test_separation_rejects_wrong_class():
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    with pytest.raises(ValueError):
        check_separation(cfg, H, 1.0, 2.0)
    cfg_ok = ProblemConfig(dim=10, weight=make_ah(H, 10))
    with pytest.raises(ValueError):
        check_separation(cfg_ok, H, 2.0, 1.0)  # gamma < beta


# ------------------------------------------------------------ lower envelope

def test_envelope_positive_gap():
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    assert check_lower_envelope(cfg, 1.0, 2.0, 0.0) > 0.0
    assert check_lower_envelope(cfg, 1.0, 3.0, 0.25) > 0.0


def test_envelope_continuous_in_gamma():
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    g1 = check_lower_envelope(cfg, 1.0, 2.0, 0.0)
    g2 = check_lower_envelope(cfg, 1.0, 2.0 + 1e-4, 0.0)
    assert abs(g2 - g1) < 1e-2


def test_envelope_shoots_each_profile_once(shoots):
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    check_lower_envelope(cfg, 1.0, 2.0, 0.0)
    cfg0 = ProblemConfig(dim=10, weight=CONST)
    _one_trace_shoot_each(shoots, [(cfg, 2.0), (cfg0, 1.0)])


def test_envelope_rejects_bad_inputs():
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    with pytest.raises(ValueError):
        check_lower_envelope(cfg, -1.0, 2.0, 0.0)   # beta <= 0
    with pytest.raises(ValueError):
        check_lower_envelope(cfg, 2.0, 1.0, 0.0)    # gamma <= beta
    with pytest.raises(ValueError):
        check_lower_envelope(cfg, 1.0, 2.0, 1.5)    # eps0 outside [0, 1]
    wrong = ProblemConfig(dim=10, weight=make_ah(0.0, 10))
    with pytest.raises(ValueError):
        check_lower_envelope(wrong, 1.0, 2.0, 0.0)  # decreasing-ratio class
    low = ProblemConfig(dim=9, weight=make_ah(40.0, 9))
    with pytest.raises(ValueError):
        check_lower_envelope(low, 1.0, 2.0, 0.0)    # not the critical dim
