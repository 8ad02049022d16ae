import builtins
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelfand import (
    IntegrationError,
    ProblemConfig,
    Weight,
    asymptotic_diagnostics,
    default_grid,
    explicit_lambda_h,
    flux_residual,
    integrate_ivp,
    integrate_singular,
    make_ah,
    parse_weight,
    pohozaev_residual,
    potential_from_shoot,
    potential_from_singular,
    rescaled_profile,
    residual_Uh,
    trace_curve,
)
from gelfand import _stepper, radial_ode, weights
from gelfand.radial_ode import (
    _HERMITE_RIGHT,
    _run,
    hermite_values,
    series_start,
    singular_series_coefficient,
)

CONST = parse_weight("const")


# ------------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(dim=2, weight=CONST)
    with pytest.raises(ValueError):
        ProblemConfig(dim=13, weight=CONST)
    with pytest.raises(ValueError):
        ProblemConfig(dim=5, weight=CONST, rel_tol=1e-14)
    with pytest.raises(ValueError):
        ProblemConfig(dim=5, weight=CONST, abs_tol=1e-5)
    with pytest.raises(ValueError):
        ProblemConfig(dim=5, weight=CONST, r_start=2e-3)
    with pytest.raises(ValueError):
        ProblemConfig(dim=5, weight=make_ah(5.0, 10))  # dim mismatch
    for dim in (3.5, 10.0):
        with pytest.raises(ValueError, match="integer"):
            ProblemConfig(dim=dim, weight=CONST)


# ------------------------------------------------------------ series start

def test_series_coefficients_against_fixed_step_rk4():
    # independent oracle: classic RK4 from r = 1e-8 with the L'Hopital
    # start v''(0) = -e^beta / N, on v'' + (N-1)/r v' = -e^v (a = 1)
    N, beta = 10, 0.0
    cfg = ProblemConfig(dim=N, weight=CONST)
    v0, dv0, e0, de0 = series_start(cfg, beta, cfg.r_start)

    r0, r1 = 1e-8, cfg.r_start
    c2 = -math.exp(beta) / (2 * N)
    y = np.array([beta + c2 * r0 * r0, 2 * c2 * r0])

    def f(r, y):
        return np.array([y[1], -math.exp(y[0]) - (N - 1) / r * y[1]])

    steps = 4000
    h = (r1 - r0) / steps
    r = r0
    for _ in range(steps):
        k1 = f(r, y)
        k2 = f(r + h / 2, y + h / 2 * k1)
        k3 = f(r + h / 2, y + h / 2 * k2)
        k4 = f(r + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += h
    assert v0 == pytest.approx(y[0], abs=1e-14)
    assert dv0 == pytest.approx(y[1], rel=1e-8)
    # c2 = -e^beta/(2N) = -1/20 here, read off the quadratic term
    assert (v0 - beta) / cfg.r_start**2 == pytest.approx(-1.0 / 20.0, abs=1e-7)
    assert (e0 - 1.0) / cfg.r_start**2 == pytest.approx(-1.0 / 20.0, abs=1e-7)
    assert de0 == pytest.approx(2 * (-1.0 / 20.0) * cfg.r_start, rel=1e-7)


def test_series_start_tends_to_beta():
    cfg = ProblemConfig(dim=5, weight=CONST, r_start=1e-5)
    for beta in (-3.0, 0.0, 7.0):
        v0, _, _, _ = series_start(cfg, beta, cfg.r_start)
        # leading correction is c2 r^2 = -e^beta r^2 / (2N)
        assert abs(v0 - beta) < 2.0 * math.exp(beta) * 1e-10 / (2 * 5) + 1e-12


# -------------------------------------------------------- shoot identities

@given(
    st.integers(3, 12),
    st.floats(-10.0, 25.0),
    st.sampled_from(["const", "ah"]),
)
@settings(max_examples=25, deadline=None)
def test_shoot_identities(dim, beta, kind):
    w = make_ah(7.5, dim) if kind == "ah" else CONST
    cfg = ProblemConfig(dim=dim, weight=w)
    sh = integrate_ivp(cfg, beta)
    assert sh.lam == pytest.approx(math.exp(sh.v1), rel=1e-15)
    assert sh.alpha == pytest.approx(beta - math.log(sh.lam), abs=1e-12)
    # superharmonic monotonicity and the maximum at the origin
    assert np.all(sh.profile.derivs <= 0.0)
    assert np.all(sh.profile.values <= beta + 1e-12)
    # profile bookkeeping
    assert np.all(np.diff(sh.profile.radii) > 0)
    assert sh.profile.radii[-1] == 1.0
    # first variation extrapolates to 1 at the origin: e = 1 + c2 r^2 + ...
    # (the r^4 term scales like e^{2 beta}, so check where it is negligible)
    if beta <= 10.0:
        r0 = float(sh.variation_profile.radii[0])
        c2 = -math.exp(beta) / (2.0 * dim)
        assert sh.variation_profile.values[0] == pytest.approx(
            1.0 + c2 * r0 * r0, abs=1e-8)


def test_emanation_from_zero():
    cfg = ProblemConfig(dim=3, weight=CONST)
    sh = integrate_ivp(cfg, -10.0)
    assert abs(sh.lam / math.exp(-10.0) - 1.0) < 1e-3


def test_no_turning_points_at_critical_dimension():
    cfg = ProblemConfig(dim=10, weight=CONST)
    lams = [integrate_ivp(cfg, b).lam for b in (0.0, 5.0, 10.0, 20.0, 30.0)]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    # strict bound lambda < 16 holds up to integrator round-off (few ulps)
    assert all(l < 16.0 * (1.0 + 1e-14) for l in lams)


def test_beta_guardrail():
    cfg = ProblemConfig(dim=5, weight=CONST)
    with pytest.raises(ValueError):
        integrate_ivp(cfg, 61.0)
    with pytest.raises(ValueError):
        integrate_ivp(cfg, -51.0)


def test_variational_consistency():
    cfg = ProblemConfig(dim=6, weight=make_ah(3.0, 6))
    beta, d = 4.0, 1e-4
    sh = integrate_ivp(cfg, beta)
    fd = (integrate_ivp(cfg, beta + d).lam - integrate_ivp(cfg, beta - d).lam) / (2 * d)
    assert sh.dlambda_dbeta == pytest.approx(fd, rel=1e-4)


def test_tolerance_convergence():
    w = make_ah(5.0, 7)
    lam1 = integrate_ivp(ProblemConfig(dim=7, weight=w, rel_tol=1e-10), 6.0).lam
    lam2 = integrate_ivp(ProblemConfig(dim=7, weight=w, rel_tol=5e-11), 6.0).lam
    assert abs(lam1 - lam2) < 10.0 * 1e-10 * abs(lam1)


# ------------------------------------------------------------ output radii

def test_one_node_grid_returns_the_start_state():
    cfg = ProblemConfig(dim=5, weight=CONST)
    v0, dv0, e0, de0 = series_start(cfg, 0.0, cfg.r_start)
    sh = integrate_ivp(cfg, 0.0, radii=[cfg.r_start])
    assert list(sh.profile.radii) == [cfg.r_start]
    assert (sh.profile.values[0], sh.profile.derivs[0]) == (v0, dv0)
    assert (sh.variation_profile.values[0], sh.variation_profile.derivs[0]) == (e0, de0)
    # lambda is read at r = 1, not at the one radius (see the test below)
    assert sh.lam == pytest.approx(integrate_ivp(cfg, 0.0).lam, rel=1e-10)
    lam_star, prof = integrate_singular(cfg, radii=[cfg.r_start])
    assert len(prof) == 1
    assert lam_star == pytest.approx(integrate_singular(cfg)[0], rel=1e-10)
    assert prof.values[0] == pytest.approx(-2.0 * math.log(cfg.r_start) + math.log(6.0),
                                           rel=1e-12)
    # at large beta the series starts below r_start: the one node is reached
    # exactly as the first node of the full grid is
    one = integrate_ivp(cfg, 20.0, radii=[cfg.r_start])
    full = integrate_ivp(cfg, 20.0)
    assert one.profile.values[0] == full.profile.values[0]
    assert one.variation_profile.values[0] == full.variation_profile.values[0]


def test_lambda_is_read_at_r_one_whatever_the_radii():
    # radii that end below r = 1, or pass it without holding 1.0: the shoot
    # lands on r = 1 too, and the profile keeps its radii
    cfg = ProblemConfig(dim=3, weight=CONST)
    sh = integrate_ivp(cfg, 1.0, radii=[0.1, 0.5])
    assert list(sh.profile.radii) == [0.1, 0.5]
    trace = integrate_ivp(cfg, 1.0, trace=True)
    assert trace.lam == pytest.approx(1.8214, abs=5e-5)
    assert sh.lam == pytest.approx(trace.lam, rel=1e-10)
    assert sh.alpha == pytest.approx(trace.alpha, rel=1e-10)
    assert sh.dlambda_dbeta == pytest.approx(trace.dlambda_dbeta, rel=1e-10)
    # a weight whose series stops below r = 1, so that a shoot reaches it
    cfg = ProblemConfig(dim=10, weight=parse_weight("polyexp:1.5;d=0.5", 10))
    full = integrate_ivp(cfg, 2.0)
    lam_star = integrate_singular(cfg)[0]
    assert radial_ode._singular_series(cfg).r0 < 0.8
    for radii in ([1e-4, 0.3, 0.8], [1e-4], [1e-4, 0.5, 1.2]):
        assert integrate_ivp(cfg, 2.0, radii=radii).lam == pytest.approx(full.lam, rel=1e-10)
        got, prof = integrate_singular(cfg, radii=radii)
        assert list(prof.radii) == radii
        assert got == pytest.approx(lam_star, rel=1e-10)
    # the const singular series reaches r = 1: lambda* = 2(N-2) from it
    assert integrate_singular(ProblemConfig(dim=3, weight=CONST), radii=[1e-4, 0.5])[0] == 2.0


def test_decreasing_or_misplaced_radii_rejected():
    cfg = ProblemConfig(dim=3, weight=CONST)
    for radii, msg in (([1e-4, 0.6, 0.5], "decrease"), ([5e-5, 1.0], "below r_start"),
                       ([], "non-empty"), ([1e-4, math.nan, 1.0], "finite"),
                       ([1e-4, 0.5, math.inf], "finite")):
        with pytest.raises(ValueError, match=msg):
            integrate_ivp(cfg, 0.0, radii=radii)
        with pytest.raises(ValueError, match=msg):
            integrate_singular(cfg, radii=radii)
    # trace=True samples at the accepted steps, so it takes no output radii
    with pytest.raises(ValueError, match="trace=True"):
        integrate_ivp(cfg, 0.0, radii=[1e-4, 1.0], trace=True)


@pytest.mark.parametrize("beta", [20.0, 40.0])
def test_trace_profile_interpolates_at_r_start(beta):
    # the series starts below r_start there; the profile keeps the last
    # accepted step below it, so r_start is interpolated, not extrapolated
    cfg = ProblemConfig(dim=3, weight=CONST)
    sh = integrate_ivp(cfg, beta, trace=True)
    assert sh.profile.radii[0] < cfg.r_start < sh.profile.radii[1]
    ref = _run(cfg, beta, [cfg.r_start, 1.0])[0][0][0]  # v of the first node state
    v = hermite_values(cfg, sh.profile, [cfg.r_start])[0]
    assert abs(v - ref) <= 1e-10 * max(1.0, abs(ref))


SWITCH_CASES = [(dim, spec) for dim in (3, 6, 9, 10, 12)
                for spec in ("const", "ah:h=40", "polyexp:0.7,-0.2;d=0.3")]


@pytest.mark.parametrize("dim, spec", SWITCH_CASES)
def test_switched_trace_shoot_matches_a_tight_shoot_in_r(dim, spec):
    # from its series' radius r0 on a trace shoot steps in log r, and with
    # const at beta > 0 it reads the Emden trajectory; its v(1) and e(1)
    # against a shoot in r alone at rtol 1e-13 from the same series start.
    # At -2, 0.25 and 1 a weighted shoot's rho0 = e^{beta/2} r0 can lie
    # below 1, within the layer.
    # At N=3, beta = 0.7 puts r = 1 just past rho0 = 1.34, and 60, the
    # guard's end, is the trajectory's last step. A weighted shoot at 60
    # holds v, near 60 past the layer, only to 60 rtol: at N=3 its v(1) is
    # 1.6e-11 off with polyexp, past this bound, and 9.7e-12 with a_40
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    tight = replace(cfg, rel_tol=1e-13, abs_tol=1e-13)
    betas = ((-5.0, -2.0, 0.25, 0.5, 0.7, 1.0, 2.0, 10.0, 25.0, 40.0)
             + ((60.0,) if spec == "const" else ()))
    for beta in betas:
        ref = _run(tight, beta, [1.0])[0][0]
        sh = integrate_ivp(cfg, beta, trace=True)
        assert sh.profile.radii[-1] == 1.0
        assert abs(sh.v1 - ref[0]) <= 1e-11, beta
        assert abs(sh.variation_profile.values[-1] - ref[2]) <= 1e-11, beta


def _two_term_start(cfg, beta, r):
    """[v, v', e, e'] at r from the first two terms of the series at r = 0,
    exact up to terms of about (e^beta r^2 / 2N)^3."""
    N = cfg.dim
    a2 = 0.5 * cfg.weight.a2pp  # a(r) = 1 + a2 r^2 + ...
    eb = math.exp(beta)
    c2 = -eb / (2.0 * N)
    c4 = -eb * (c2 + a2) / (4.0 * (N + 2.0))
    e4 = -eb * (a2 + 2.0 * c2) / (4.0 * (N + 2.0))
    r2 = r * r
    return [beta + c2 * r2 + c4 * r2 * r2, 2.0 * c2 * r + 4.0 * c4 * r2 * r,
            1.0 + c2 * r2 + e4 * r2 * r2, 2.0 * c2 * r + 4.0 * e4 * r2 * r]


def _deep_shoot(cfg, beta, r_end):
    """(v, v', e, e') at r_end from the two-term series at rho = e^{beta+/2} r
    = 1e-3, beta+ = max(beta, 0), where its dropped terms are about 1e-18,
    shot at rtol 1e-13 and abs_tol 1e-14 in r up to rho = 1 and from there
    in log r: the reference for the start rule."""
    r_layer = math.exp(-0.5 * max(beta, 0.0))
    r0 = 1e-3 * r_layer
    y = _two_term_start(cfg, beta, r0)
    r_sw = min(r_end, r_layer)
    y = _stepper.solve(radial_ode._rhs_ve(cfg), r0, y, [r_sw], 1e-13, 1e-14,
                       first_step=0.2 * r0)[0]
    if r_sw < r_end:
        v, dv, e, de = y
        v, dv, e, de = _stepper.solve(radial_ode._rhs_ve_log(cfg), math.log(r_sw),
                                      [v, r_sw * dv, e, r_sw * de], [math.log(r_end)],
                                      1e-13, 1e-14)[0]
        y = [v, dv / r_end, e, de / r_end]
    return y


@pytest.mark.parametrize("beta", [14.0, 20.0, 30.0])
def test_trace_shoot_matches_a_deep_start(beta):
    # a start from the two-term series at rho = 0.05 sqrt(2N) drops a term
    # of about (rho^2 / 2N)^3, which puts e(1) 1.9e-8 to 3.3e-8 relative off
    # this reference for beta in [14, 40] at N=3, and v(1) 1.5e-10 at beta =
    # 14; the shoot from the series is within 5.2e-11 and 2.1e-13
    cfg = ProblemConfig(dim=3, weight=CONST)
    ref = _deep_shoot(cfg, beta, 1.0)
    sh = integrate_ivp(cfg, beta, trace=True)
    assert abs(sh.variation_profile.values[-1] - ref[2]) <= 1e-10 * abs(ref[2])
    assert abs(sh.v1 - ref[0]) <= 1e-12


def test_slope_at_very_negative_beta_is_the_weights_integral():
    # at beta = -40 |v'| ~ e^beta lies far below abs_tol, so no error test
    # sees it: integrated from r_start, a trace shoot's v'(1) is 5.4 % off.
    # The series reaches r = 0.99 and gives it. -r^{N-1} v'(1) = e^beta
    # int_0^1 s^{N-1} a e^{v - beta} ds, and e^{v - beta} = 1 + O(e^beta)
    import mpmath

    N, h, beta = 12, 40.0, -40.0
    cfg = ProblemConfig(dim=N, weight=make_ah(h, N))
    c1, d = h / (2.0 * (N - 2)), h / (2.0 * N)
    with mpmath.workdps(30):
        ref = -mpmath.exp(beta) * mpmath.quad(
            lambda s: s ** (N - 1) * (1 + c1 * s * s) * mpmath.exp(d * s * s), [0, 1])
    for sh in (integrate_ivp(cfg, beta, trace=True), integrate_ivp(cfg, beta)):
        assert abs(sh.profile.derivs[-1] / float(ref) - 1.0) <= 1e-12
    for b in (-40.0, -20.0):
        assert flux_residual(cfg, integrate_ivp(cfg, b)) <= 1e-12, b


@given(st.integers(3, 12), st.sampled_from(["const", "ah", "polyexp"]),
       st.floats(-1.0, 40.0), st.floats(0.0, 1.5), st.floats(-0.5, 0.5),
       st.floats(radial_ode.BETA_MIN_GUARD, radial_ode.BETA_MAX_GUARD))
@settings(max_examples=25, deadline=None)
def test_series_start_rule(dim, kind, h, c1, d, beta):
    # every term finite (in r alone the factor e^{k beta} of tau^k overflows
    # from beta ~ 30 on, and in e^beta r^2 alone the weight's alpha_j
    # e^{-j beta} from beta ~ -31 down); the radius within [0, 1], which the
    # weight's parse-time positivity screen covers; and the start state that
    # of the deep start
    cfg = ProblemConfig(dim=dim, weight=_weight_draw(dim, kind, h, c1, d))
    series = radial_ode._series(cfg, beta)
    assert np.all(np.isfinite(series.terms))
    assert 0.0 < series.r0 <= 1.0
    ref = _deep_shoot(cfg, beta, series.r0)
    for i in (0, 2):  # v and e
        assert abs(series.start[i] - ref[i]) <= 1e-13 * max(1.0, abs(ref[i])), i


@pytest.mark.parametrize("dim", [3, 10])
def test_flat_series_terms_are_built_once(dim):
    # const and a_0 at beta >= 0: alpha_j / sigma^j = 0 for j >= 1 and s = 1,
    # so the terms and tau0 built once per dimension are bit for bit those
    # the recurrence builds at each beta
    for w in (CONST, make_ah(0.0, dim)):
        cfg = ProblemConfig(dim=dim, weight=w)
        for beta in (0.0, 0.7, 12.0, 40.0, 60.0):
            series = radial_ode._Series(cfg, beta)
            assert series.terms is radial_ode._flat_terms(dim)[0]
            alpha, q = [], 1.0
            for a in radial_ode._weight_series(w):
                alpha.append(a * q)
                q /= series.sigma
            terms, tau0 = radial_ode._regular_terms(dim, alpha, 1.0)
            assert np.array_equal(series.terms, terms)
            assert series.r0 == min(1.0, math.sqrt(tau0 / series.sigma))


def _recurrence_series(cfg, beta):
    """The series of const (or a_0) at beta <= 0 as the recurrence builds
    it with sigma = 1 and s = e^beta."""
    terms, tau0 = radial_ode._regular_terms(
        cfg.dim, radial_ode._scaled_series(cfg.weight, 1.0), math.exp(beta))
    series = radial_ode._Series.__new__(radial_ode._Series)
    series._fill(beta, 1.0, False, terms, tau0)
    return series


def test_flat_series_at_negative_beta_are_the_recurrence(monkeypatch):
    # const and a_0 take the flat series, sigma = e^beta, at beta <= 0 too,
    # where the recurrence with sigma = 1 and s = e^beta gives the same
    # series in other roundings: trace and grid shoots keep v(1) and
    # dlambda/dbeta within 4.5e-16 relative (1 620 cases), and the grid
    # shoots' flux residuals stay within 3e-15
    def sample(shot):
        return np.array([shot.v1, shot.dlambda_dbeta])

    worst, flux = 0.0, 0.0
    for dim in range(3, 13):
        for w in (CONST, make_ah(0.0, dim)):
            cfg = ProblemConfig(dim=dim, weight=w)
            for beta in np.linspace(-40.0, 0.0, 81).tolist():
                assert radial_ode._Series(cfg, beta).r0 == 1.0
                new = [integrate_ivp(cfg, beta, trace=True), integrate_ivp(cfg, beta)]
                flux = max(flux, flux_residual(cfg, new[1]))
                with monkeypatch.context() as m:
                    m.setattr(radial_ode, "_series", _recurrence_series)
                    old = [integrate_ivp(cfg, beta, trace=True), integrate_ivp(cfg, beta)]
                for a, b in zip(new, old):
                    worst = max(worst, np.max(np.abs(sample(a) - sample(b)) / np.abs(sample(b))))
    assert worst <= 4.5e-16 and flux <= 3e-15, (worst, flux)


@pytest.mark.parametrize("dim", [3, 10])
@pytest.mark.parametrize("spec", ["const", "ah:h=0"])
def test_a_constant_march_runs_no_recurrence(monkeypatch, spec, dim):
    # every series of a const (or a_0) march is the flat one, built once
    # per dimension, whatever the sign of beta
    radial_ode._flat_terms(dim)
    calls, real = [], radial_ode._regular_terms
    monkeypatch.setattr(radial_ode, "_regular_terms",
                        lambda *args: (calls.append(args), real(*args))[1])
    curve = trace_curve(ProblemConfig(dim=dim, weight=parse_weight(spec, dim)), -5.0, 40.0, 0.25)
    assert curve.complete and calls == []


@pytest.mark.parametrize("dim", [3, 10])
def test_a_constant_march_builds_only_the_starts_it_reads(monkeypatch, dim):
    # a shoot whose series reaches r = 1 reads its start as its state
    # there and builds it once; an Emden shoot never reads it
    shot, built, emden = [], [], []
    shoots, states = radial_ode._trace_shoots, radial_ode._Series.states
    emden_shoot = radial_ode._emden_shoot

    def counted_states(series, r):
        built.append(series.beta)
        return states(series, r)

    monkeypatch.setattr(radial_ode._Series, "states", counted_states)
    monkeypatch.setattr(radial_ode, "_trace_shoots", lambda cfg, series, phases: (
        shot.extend((ser.beta, ser.r0) for ser in series), shoots(cfg, series, phases))[1])
    monkeypatch.setattr(radial_ode, "_emden_shoot", lambda cfg, series: (
        emden.append(series.beta), emden_shoot(cfg, series))[1])
    radial_ode._series.cache_clear()
    curve = trace_curve(ProblemConfig(dim=dim, weight=CONST), -5.0, 40.0, 0.25)
    assert curve.complete and len(shot) >= len(curve.betas)
    assert built == [beta for beta, r0 in shot if r0 == 1.0] and built
    assert emden == [beta for beta, r0 in shot if r0 < 1.0] and emden


def _compensated_sum(iterable, start=0):
    """sum() as Python 3.12 and later add floats: compensated (fsum)."""
    return math.fsum((start, *iterable))


@pytest.mark.parametrize("dim, spec", [(9, "polyexp:0.7,-0.2;d=0.3"),
                                       (7, "polyexp:0.5,0.25,-0.1;d=0")])
def test_series_keep_their_bits_under_a_compensated_sum(dim, spec, monkeypatch):
    # the weight series and the singular series add their products left to
    # right (`_dot`), not by sum(), which compensates float sums from
    # Python 3.12 on: with such a sum() both keep every bit (the caches
    # bypassed)
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))

    def bits():
        alpha = radial_ode._weight_series.__wrapped__(cfg.weight)
        return [a.hex() for a in alpha], radial_ode._SingularSeries(cfg).terms.tobytes()

    plain = bits()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert bits() == plain


@pytest.mark.parametrize("dim", [3, 10])
def test_emden_trajectory_is_built_once(dim):
    # const and a_0 trace shoots whose series stops short of r = 1 read one
    # trajectory per (dim, rel_tol, abs_tol), which starts from the flat
    # series' state at rho0 = sqrt(tau0) (r0 = rho0 e^{-beta/2}); each takes
    # the trajectory's accepted steps below t = beta/2 as they are, at r =
    # e^{t - beta/2}, and lands on r = 1
    radial_ode._emden_trajectory.cache_clear()
    for w in (CONST, make_ah(0.0, dim)):
        cfg = ProblemConfig(dim=dim, weight=w)
        for beta in (3.0, 12.0, 40.0, 60.0):
            series = radial_ode._series(cfg, beta)
            assert series.flat and series.r0 < 1.0
            sh = integrate_ivp(cfg, beta, trace=True)
            _, t, zs = radial_ode._emden_trajectory(dim, cfg.rel_tol, cfg.abs_tol)
            # its start is the series' state at r0, where e = z_t / 2
            assert t[0] == pytest.approx(math.log(series.r0) + 0.5 * beta, abs=1e-14)
            assert zs[0, 1] == pytest.approx(2.0 * series.start[2], abs=1e-14)
            # the steps below r_start are dropped but the last of them
            k = np.searchsorted(t, 0.5 * beta)
            steps = np.exp(t[1:k] - 0.5 * beta)
            n = min(k - 1, len(sh.profile.radii) - 1)
            assert sh.profile.radii[-1] == 1.0
            assert np.array_equal(sh.profile.radii[-n - 1:-1], steps[-n:])
            assert np.array_equal(sh.variation_profile.values[-n - 1:-1], 0.5 * zs[k - n:k, 1])
    info = radial_ode._emden_trajectory.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # other tolerances, another trajectory
    integrate_ivp(ProblemConfig(dim=dim, weight=CONST, rel_tol=1e-12), 5.0, trace=True)
    assert radial_ode._emden_trajectory.cache_info().currsize == 2


# (beta, state sizes of its solve calls) of a trace shoot: none where the
# series reaches r = 1; with a weight, one in log r from its radius r0 to
# r = 1, whether rho0 = e^{beta/2} r0 lies below 1 (beta = -1 and 0.5 at
# N=10, a_40) or beyond it (1.87 at beta = 3). With const (rho0 = 1.34 at
# N=3) it makes one solve of (z, z_t) off the Emden trajectory
LOG_SOLVES = {(3, "const"): [(-5.0, []), (1.0, [2])],
              (10, "ah:h=40"): [(-1.0, [4]), (0.5, [4]), (3.0, [4])]}


@pytest.mark.parametrize("dim, spec", sorted(LOG_SOLVES))
def test_trace_shoot_steps_in_log_r_from_its_series_radius(dim, spec, monkeypatch):
    # a trace shoot's profile holds the series' own states from r_start up
    # to its radius r0, at a ratio of at most 1.15, and with a weight the
    # accepted steps of one solve in log r from r0 to r = 1
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    radial_ode._emden_trajectory(dim, cfg.rel_tol, cfg.abs_tol)  # built once per dimension
    sizes, real = [], _stepper.solve

    def counting(fun, x0, y0, *args, **kw):
        sizes.append(len(y0))
        return real(fun, x0, y0, *args, **kw)

    monkeypatch.setattr(_stepper, "solve", counting)
    for beta, solves in LOG_SOLVES[dim, spec]:
        sizes.clear()
        sh = integrate_ivp(cfg, beta, trace=True)
        assert sizes == solves, beta
        series = radial_ode._series(cfg, beta)
        radii = sh.profile.radii
        states = np.column_stack([sh.profile.values, sh.profile.derivs,
                                  sh.variation_profile.values, sh.variation_profile.derivs])
        head = radii <= series.r0
        assert radii[0] == cfg.r_start and radii[head][-1] == series.r0
        assert np.all(radii[head][1:] <= 1.15 * (1.0 + 1e-12) * radii[head][:-1])
        assert np.array_equal(states[head], series.states(radii[head]))
        if spec != "const":
            # the steps of one solve in log r from the series' state at r0
            s0, y0 = radial_ode._log_start(series)
            assert s0 == math.log(series.r0)
            _, ss, ws = real(radial_ode._rhs_ve_log(cfg), s0, y0, [0.0], cfg.rel_tol,
                             cfg.abs_tol, collect=True)
            r, ws = np.array([math.exp(s) for s in ss[1:]]), np.array(ws[1:])
            assert np.array_equal(radii[~head], r) and radii[-1] == 1.0
            assert np.array_equal(states[~head], np.column_stack(
                (ws[:, 0], ws[:, 1] / r, ws[:, 2], ws[:, 3] / r)))


HERMITE_CASES = [(3, "const"), (3, "polyexp:0.7,-0.2;d=0.3"), (7, "polyexp:0.7,-0.2;d=0.3"),
                 (10, "ah:h=40"), (12, "ah:h=5.7832")]


@pytest.mark.parametrize("dim, spec", HERMITE_CASES)
def test_quintic_values_match_the_clamped_shoot(dim, spec):
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    grid = np.geomspace(cfg.r_start, 1.0, 4097)
    # N=3 polyexp at beta=37 takes log r steps of 0.27 near r = 0.9, where
    # a degree-7 Hermite in log r is off by 1.3e-10
    for beta in (-2.0, 10.0, 25.0, 37.0, 40.0):
        ref = np.asarray(_run(cfg, beta, grid.tolist())[0])[:, 0]
        v = hermite_values(cfg, integrate_ivp(cfg, beta, trace=True).profile, grid)
        assert np.max(np.abs(v - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10, beta


@pytest.mark.parametrize("dim, spec", HERMITE_CASES)
def test_quintic_values_match_the_clamped_singular_shoot(dim, spec):
    # V'' and V''' from the ODE are exact at the nodes of the singular profile too
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    grid = np.geomspace(cfg.r_start, 1.0, 8192)
    ref = _landed_singular(cfg, grid.tolist())[:, 0]
    v = hermite_values(cfg, integrate_singular(cfg)[1], grid)
    assert np.max(np.abs(v - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10


@pytest.mark.parametrize("radii", [[1e-4], [1e-4, 0.5, 1.0, 1.0]])
def test_quintic_values_reject_degenerate_profiles(radii):
    # one node, or a repeated last radius, leaves an interval of zero width
    cfg = ProblemConfig(dim=3, weight=CONST)
    prof = integrate_ivp(cfg, 1.0, radii=radii).profile
    with pytest.raises(ValueError, match="strictly increasing"):
        hermite_values(cfg, prof, [radii[-1]])


def test_quintic_values_do_not_extrapolate():
    cfg = ProblemConfig(dim=3, weight=CONST)
    prof = integrate_ivp(cfg, 0.0, trace=True).profile
    for r in (0.5 * prof.radii[0], 1.0 + 1e-9):
        with pytest.raises(ValueError, match="outside"):
            hermite_values(cfg, prof, [r])


@pytest.mark.parametrize("m", [4, 5])
def test_hermite_right_inverts_the_conditions_at_the_right_end(m):
    conditions = np.array([[math.comb(m + j, k) for j in range(m)] for k in range(m)])
    assert np.array_equal(_HERMITE_RIGHT[m] @ conditions, np.eye(m))


@pytest.mark.parametrize("m", [4, 5])
def test_hermite_coeffs_reproduce_polynomials_from_their_jets(m):
    # a polynomial of degree 2m - 1 is its own Hermite interpolant: the
    # builder returns its coefficients in t = (r - x0) / h, on 200 random
    # segments at once and, with 2-D jets, one function a column
    rng = np.random.default_rng(m)
    ref = rng.standard_normal((2 * m, 200))
    h = rng.uniform(0.01, 2.0, 200)
    polys = [np.polynomial.Polynomial(c) for c in ref.T]
    # the k-th r-derivative is the k-th t-derivative over h^k
    left, right = ([np.array([p.deriv(k)(t) for p in polys]) / h ** k for k in range(m)]
                   for t in (0.0, 1.0))
    cols = radial_ode._hermite_coeffs(h[:, None], [np.column_stack((f, 2.0 * f)) for f in left],
                                      [np.column_stack((f, 2.0 * f)) for f in right])
    # to rounding: eps times the condition number of the fit at x0 + h
    # (m = 4: 1.7e-13 of a 2.1e-12 bound, m = 5: 2.2e-12 of 4.0e-11)
    conditions = np.array([[math.comb(m + j, k) for j in range(m)] for k in range(m)])
    cond = np.linalg.norm(_HERMITE_RIGHT[m], np.inf) * np.linalg.norm(conditions, np.inf)
    scale = np.max(np.abs(ref), axis=0)
    for got in (np.array(radial_ode._hermite_coeffs(h, left, right)),
                np.array(cols)[:, :, 0], 0.5 * np.array(cols)[:, :, 1]):
        assert np.max(np.abs(got - ref) / scale) <= cond * np.finfo(float).eps


FILL_CASES = [(dim, spec) for dim in (3, 10, 12)
              for spec in ("const", "ah:h=40", "polyexp:0.7,-0.2;d=0.3")]


@pytest.mark.parametrize("dim, spec", FILL_CASES)
def test_grid_fill_matches_landing_on_every_radius(dim, spec):
    # a grid shoot bounds its steps, lands on r = 1 only and fills the other
    # radii by degree-7 Hermite; compare (v, v', e, e') with a shoot
    # landing on all
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    grid = default_grid(cfg)
    bounds = np.array([5e-12, 5e-11, 2e-11, 2e-10])
    for beta in (-2.0, 3.0, 40.0):
        ref = np.asarray(_run(cfg, beta, grid.tolist())[0])
        sh = integrate_ivp(cfg, beta)
        assert np.array_equal(sh.profile.radii, grid)
        got = np.column_stack([sh.profile.values, sh.profile.derivs,
                               sh.variation_profile.values, sh.variation_profile.derivs])
        err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)), axis=0)
        assert np.all(err <= bounds), (beta, err)


@pytest.mark.parametrize("dim, spec", FILL_CASES)
def test_grid_shoots_bound_their_steps_and_land_only_on_r_one(monkeypatch, dim, spec):
    # on default_grid a regular or singular grid shoot lands on r = 1 only,
    # and on r_start too where its series' radius r0 lies farther below it
    # than the step bound (beta = 40 here); no accepted step from r is
    # longer than min(0.02, 0.26 r)
    solves, solve = [], _stepper.solve

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        solves.append((args[3], out[1], kwargs["bound"]))
        return out

    monkeypatch.setattr(_stepper, "solve", recording)
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    for beta in (-2.0, 3.0, 40.0):
        integrate_ivp(cfg, beta)
    integrate_singular(cfg)
    assert len(solves) >= 2
    for nodes, xs, bound in solves:
        r0 = xs[0]
        far = cfg.r_start - r0 > 0.26 * r0
        assert nodes == ([cfg.r_start, 1.0] if far else [1.0]), (r0, nodes)
        assert xs[-1] == 1.0 and bound == (0.02, 0.26)
        xs = np.asarray(xs)
        assert np.all(np.diff(xs) <= np.minimum(0.02, 0.26 * xs[:-1]) * (1.0 + 1e-12))


def test_grid_shoot_rhs_calls_are_bounded(monkeypatch):
    # landing on every one of default_grid's 561 radii took 8 581 calls
    # here, and on 31 anchors no farther apart than min(0.02, 0.26 r) 853;
    # bounding the steps so and landing on r = 1 alone takes 397
    rhs_ve, calls = radial_ode._rhs_ve, []

    def counting(cfg):
        fun = rhs_ve(cfg)

        def counted(r, y):
            calls.append(r)
            return fun(r, y)

        return counted

    monkeypatch.setattr(radial_ode, "_rhs_ve", counting)
    integrate_ivp(ProblemConfig(dim=10, weight=make_ah(40.0, 10)), 3.0)
    assert 0 < len(calls) <= 440


def _landed(cfg, fun, y0, nodes):
    """States on every one of `nodes`, the first of them r_start, from one
    shoot that lands on each: the reference for the filled grids."""
    r0 = cfg.r_start
    assert nodes[0] == r0
    return np.asarray([y0] + _stepper.solve(fun, r0, y0, nodes[1:], cfg.rel_tol,
                                            cfg.abs_tol, first_step=0.2 * r0))


def _landed_singular(cfg, nodes):
    """The singular solution on every one of `nodes`, the first of them
    r_start, from the two-term matched start there, shot at rtol/atol 1e-13
    (at rtol 1e-10 its own V' is 7.9e-12 off at N=10, const)."""
    N, r0 = cfg.dim, cfg.r_start
    d2 = singular_series_coefficient(cfg)
    y0 = [-2.0 * math.log(r0) + math.log(2.0 * (N - 2.0)) + d2 * r0 * r0,
          -2.0 / r0 + 2.0 * d2 * r0]
    tight = replace(cfg, rel_tol=1e-13, abs_tol=1e-13)
    return _landed(tight, radial_ode._rhs_v(cfg), y0, nodes)


# the singular series of const and a_h reaches r = 1; the polyexp ones stop
# at r0 = 0.85 to 1 and 0.68 to 1
SINGULAR_SPECS = ("const", "ah:h=-1", "ah:h=5", "ah:h=40", "polyexp:0.7;d=-0.2",
                  "polyexp:1.5;d=0.5")


@pytest.mark.parametrize("dim", range(3, 13))
def test_singular_fill_matches_landing_on_every_radius(dim):
    # the singular solution takes the radii of default_grid up to its
    # series' radius r0 from the series, steps no farther than
    # min(0.02, 0.26 r) beyond, lands on r = 1 and fills the other radii
    for spec in SINGULAR_SPECS:
        for rtol in (1e-10, 1e-13):
            cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim), rel_tol=rtol)
            grid = default_grid(cfg)
            ref = _landed_singular(cfg, grid.tolist())
            lam_star, prof = integrate_singular(cfg)
            assert np.array_equal(prof.radii, grid)
            got = np.column_stack([prof.values, prof.derivs])
            err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)), axis=0)
            assert err[0] <= 1e-12 and err[1] <= 5e-12, (spec, rtol, err)
            # lambda* of a_h (a_0 = const in every dimension) in closed form
            h = 0.0 if spec == "const" else cfg.weight.h
            if h is not None and (h == 0.0 or dim <= 10):
                exact = explicit_lambda_h(dim, h)
                assert abs(lam_star - exact) <= 1.1e-14 * exact, (spec, rtol)


def test_singular_shoot_rhs_calls_are_bounded(monkeypatch):
    # the series stops at r0 = 0.70 here; landing on each of default_grid's
    # 150 radii beyond r0 takes 1 801 calls, on all 561 from r_start 9 013,
    # on 16 anchors 373, and bounded steps that land on r = 1 alone 193
    rhs_v, calls = radial_ode._rhs_v, []

    def counting(cfg):
        fun = rhs_v(cfg)

        def counted(r, y):
            calls.append(r)
            return fun(r, y)

        return counted

    monkeypatch.setattr(radial_ode, "_rhs_v", counting)
    integrate_singular(ProblemConfig(dim=10, weight=parse_weight("polyexp:1.5;d=0.5")))
    assert 0 < len(calls) <= 215


@pytest.mark.parametrize("dim", [3, 10, 12])
def test_rescaled_fill_matches_landing_on_every_radius(dim):
    for spec in ("const", "ah:h=40", "polyexp:1.5;d=-0.8"):
        cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
        for beta in (0.0, 5.0, 40.0):
            hat = rescaled_profile(cfg, beta)
            cfg_hat = radial_ode._rescaled_config(cfg, beta)
            assert np.array_equal(hat.radii, default_grid(cfg_hat, R=3.0))
            y0 = series_start(cfg_hat, 0.0, cfg_hat.r_start)
            ref = _landed(cfg_hat, radial_ode._rhs_ve(cfg_hat), y0, hat.radii.tolist())
            got = np.column_stack([hat.values, hat.derivs])
            err = np.max(np.abs(got - ref[:, :2]) / np.maximum(1.0, np.abs(ref[:, :2])), axis=0)
            assert err[0] <= 1e-12 and err[1] <= 1e-11, (spec, beta, err)


@pytest.mark.parametrize("radii", [[1e-4], [1e-4, 1.0], [1e-4, 0.5, 1.0, 1.0]])
@pytest.mark.parametrize("beta", [0.0, 20.0])
def test_degenerate_grids_are_landed(radii, beta):
    # every radius here lies farther than the step bound from the one before
    # it and is landed: the states are the integrator's own, and no
    # interval is interpolated
    cfg = ProblemConfig(dim=5, weight=CONST)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sh = integrate_ivp(cfg, beta, radii=radii)
    ref = np.asarray(_run(cfg, beta, radii)[0])
    assert sh.profile.values.tolist() == ref[:, 0].tolist()
    assert sh.profile.derivs.tolist() == ref[:, 1].tolist()
    assert sh.variation_profile.values.tolist() == ref[:, 2].tolist()
    assert sh.variation_profile.derivs.tolist() == ref[:, 3].tolist()


def test_repeated_radii_repeat_the_state():
    cfg = ProblemConfig(dim=3, weight=CONST)
    once, twice = [1e-4, 0.5, 1.0], [1e-4, 0.5, 0.5, 1.0]
    pick = (0, 1, 1, 2)
    a = integrate_ivp(cfg, 1.0, radii=once).profile.values
    b = integrate_ivp(cfg, 1.0, radii=twice).profile.values
    assert list(b) == [a[i] for i in pick]
    a = integrate_singular(cfg, radii=once)[1].values
    b = integrate_singular(cfg, radii=twice)[1].values
    assert list(b) == [a[i] for i in pick]


# --------------------------------------------------------- singular family

def test_singular_constant_weight_exact():
    for N in (3, 6, 10):
        cfg = ProblemConfig(dim=N, weight=CONST)
        lam_star, prof = integrate_singular(cfg)
        assert lam_star == pytest.approx(2.0 * (N - 2), rel=1e-14)
        exact = -2.0 * np.log(prof.radii) + math.log(2.0 * (N - 2))
        assert np.max(np.abs(prof.values - exact)) < 1e-14


def test_singular_explicit_family_closed_form():
    N, h = 10, 40.0
    cfg = ProblemConfig(dim=N, weight=make_ah(h, N))
    lam_star, prof = integrate_singular(cfg)
    assert lam_star == pytest.approx(explicit_lambda_h(N, h), rel=1e-13)
    exact = (-2.0 * np.log(prof.radii) + math.log(2.0 * (N - 2))
             - h * prof.radii**2 / (2 * N))
    assert np.max(np.abs(prof.values - exact)) < 1e-13


@pytest.mark.parametrize("dim", range(3, 13))
def test_singular_series_is_the_explicit_family(dim, monkeypatch):
    # a_h e^W = (1 + h tau / (2(N-2))) e^{W + h tau / (2N)}: the series puts
    # the tilt in the exponent, where it cancels W = -h tau / (2N) to 0, so
    # it is exact, reaches r = 1, and no solve call is made
    solves = []
    real = _stepper.solve
    monkeypatch.setattr(_stepper, "solve", lambda *a, **k: solves.append(a) or real(*a, **k))
    for h in (-1.0, 0.0, 5.7832, 40.0):
        cfg = ProblemConfig(dim=dim, weight=make_ah(h, dim))
        lam_star, prof = integrate_singular(cfg)
        r = prof.radii
        exact = math.log(2.0 * (dim - 2.0)) - 2.0 * np.log(r) - h * r * r / (2.0 * dim)
        assert np.max(np.abs(prof.values - exact)) <= 1e-14, h
        assert radial_ode._singular_series(cfg).r0 == 1.0
    assert not solves


@given(st.integers(3, 12), st.floats(0.0, 1.5), st.floats(-0.3, 0.3), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_singular_series_matches_a_shoot_from_r_start(dim, c1, c2, d):
    # the series' start state at r0 and the profile on default_grid against
    # a shoot from the two-term start at r_start at rtol/atol 1e-13 that
    # lands on every radius (150 draws: r0 in [0.59, 1], worst 3.5e-15 at
    # the start and 1.7e-14 on the profile, relative to max(1, |.|))
    cfg = ProblemConfig(dim=dim, weight=parse_weight(f"polyexp:{c1!r},{c2!r};d={d!r}"),
                        rel_tol=1e-13, abs_tol=1e-13)
    series = radial_ode._singular_series(cfg)
    grid = default_grid(cfg)
    nodes = sorted({*grid.tolist(), series.r0})
    ref = _landed_singular(cfg, nodes)
    start = ref[nodes.index(series.r0)]
    assert np.all(np.abs(np.array(series.start) - start) <= 1e-13 * np.maximum(1.0, np.abs(start)))
    ref = ref[np.searchsorted(nodes, grid)]
    prof = integrate_singular(cfg)[1]
    got = np.column_stack([prof.values, prof.derivs])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_singular_series_coefficient_matches_family():
    # d2 = -(N-2) a''(0) / (4(N-1)) collapses to -h/(2N) for a_h
    for N, h in ((10, 40.0), (5, 5.0), (3, -1.0)):
        cfg = ProblemConfig(dim=N, weight=make_ah(h, N))
        assert singular_series_coefficient(cfg) == pytest.approx(
            -h / (2.0 * N), rel=1e-12, abs=1e-15)


def test_explicit_lambda_h():
    assert explicit_lambda_h(10, 0.0) == pytest.approx(16.0, rel=1e-15)
    assert explicit_lambda_h(10, 40.0) == pytest.approx(16.0 * math.exp(-2.0), rel=1e-15)
    assert explicit_lambda_h(3, 0.0) == pytest.approx(2.0, rel=1e-15)


def test_residual_uh_examples():
    grid = np.linspace(1e-4, 1.0, 2048)
    assert residual_Uh(10, 0.0, grid) < 1e-14
    assert residual_Uh(10, 40.0, grid) <= 1e-12
    assert residual_Uh(3, -1.0, grid) <= 1e-12
    with pytest.raises(ValueError):
        residual_Uh(3, -2.0, grid)   # h must exceed -2(N-2)
    with pytest.raises(ValueError):
        residual_Uh(11, 0.0, grid)   # closed family certified for N <= 10
    with pytest.raises(ValueError, match="integer"):
        residual_Uh(3.5, 1.0, grid)
    with pytest.raises(ValueError, match="finite h"):
        residual_Uh(10, math.nan, grid)
    with pytest.raises(ValueError, match="grid must be finite"):
        residual_Uh(10, 0.0, [0.5, math.nan])


# ------------------------------------------------------- identity residuals

def test_flux_residual_examples():
    cfg = ProblemConfig(dim=5, weight=make_ah(5.0, 5))
    assert flux_residual(cfg, integrate_ivp(cfg, 3.0)) <= 1e-6
    # vanishing-nonlinearity limit
    cfg3 = ProblemConfig(dim=3, weight=CONST)
    assert flux_residual(cfg3, integrate_ivp(cfg3, -20.0)) <= 1e-6


def test_pohozaev_residual_examples():
    cfg = ProblemConfig(dim=5, weight=CONST)
    sh = integrate_ivp(cfg, 3.0)
    for mu in (0.0, 1.0, 2.0):
        assert pohozaev_residual(cfg, sh, mu) <= 1e-6


def _exact_singular_shoot(dim, h):
    # V = log 2(N-2) - 2 log r - h r^2/(2N) solves V'' + (N-1)/r V' = -a_h e^V
    cfg = ProblemConfig(dim=dim, weight=make_ah(h, dim))
    r = default_grid(cfg)
    V = math.log(2.0 * (dim - 2)) - 2.0 * np.log(r) - h * r * r / (2.0 * dim)
    dV = -2.0 / r - h * r / dim
    prof = radial_ode.RadialProfile(r, V, dV)
    lam = math.exp(float(V[-1]))
    return cfg, radial_ode.ShootResult(beta=math.inf, lam=lam, alpha=math.inf, v1=float(V[-1]),
                                       dlambda_dbeta=0.0, profile=prof, variation_profile=prof)


@pytest.mark.parametrize("dim", [3, 10, 12])
@pytest.mark.parametrize("h", [0.0, 40.0])
def test_pohozaev_residual_vanishes_on_the_exact_singular_solution(dim, h):
    # no integrator: the profile is exact, so only the Gauss cells and their
    # Hermite reads (from the ODE's jets) stand between the sides
    assert np.array_equal(radial_ode._GAUSS9, np.polynomial.legendre.leggauss(9))
    cfg, sh = _exact_singular_shoot(dim, h)
    for mu in (0.0, 1.0):
        assert pohozaev_residual(cfg, sh, mu) <= 1e-13, mu


def test_pohozaev_defect_affine_in_mu():
    # the signed defect D(mu) = boundary(mu) - integrals(mu) is affine in
    # mu by construction, so its second difference vanishes to round-off;
    # reconstructed here independently from the profile and its Gauss cells
    from gelfand.weights import weight_arrays

    cfg = ProblemConfig(dim=5, weight=CONST)
    sh = integrate_ivp(cfg, 3.0)
    N = cfg.dim
    r, v, dv = sh.profile.radii, sh.profile.values, sh.profile.derivs
    a = weight_arrays(cfg.weight, r)[0]
    ev = np.exp(v)
    s, vs, dvs, w = radial_ode._gauss_cells(cfg, r, np.column_stack((v, dv)))
    as_, das = weight_arrays(cfg.weight, s)[:2]
    evs = np.exp(vs)

    def defect(mu):
        T = r**N * (0.5 * dv * dv + a * (ev - 1.0)) + mu * r ** (N - 1) * v * dv
        IA = float(np.sum(w * s**N * das * (evs - 1.0)))
        IB = float(np.sum(w * s ** (N - 1) * (N * as_ * (evs - 1.0) - mu * as_ * vs * evs
                                               + (mu + 1.0 - 0.5 * N) * dvs * dvs)))
        return float(T[-1] - T[0]) - IA - IB, max(abs(float(T[-1] - T[0])), abs(IB))

    d0, s0 = defect(0.0)
    d1, s1 = defect(1.0)
    d2, s2 = defect(2.0)
    assert abs(d2 - 2.0 * d1 + d0) <= 1e-11 * max(s0, s1, s2)


@pytest.mark.parametrize("dim, spec", [(3, "ah:h=5"), (10, "ah:h=5"), (6, "const")])
@pytest.mark.parametrize("beta", [12.0, 16.0, 20.0, 30.0, 40.0])
def test_identity_residuals_hold_past_the_boundary_layer(dim, spec, beta):
    # the boundary layer near r = e^{-beta/2} nears r_start = 1e-4 and, from
    # beta ~ 18 on, lies below it; the series' radius r0 then does too (from
    # beta ~ 19 at N=3, const), and the flux check closes at r_start
    from gelfand.cli import IDENTITY_TOL

    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    sh = integrate_ivp(cfg, beta)
    assert flux_residual(cfg, sh) <= IDENTITY_TOL
    for mu in (0.0, 1.0):
        assert pohozaev_residual(cfg, sh, mu) <= IDENTITY_TOL


def test_identity_residuals_on_a_grid_with_a_repeated_radius():
    # output radii may repeat; the repeat is an empty cell, not a zero
    # division (RuntimeWarnings are errors in this suite)
    cfg = ProblemConfig(dim=3, weight=CONST)
    grid = default_grid(cfg)
    grid = np.insert(grid, 100, grid[100])
    sh = integrate_ivp(cfg, 3.0, radii=grid)
    assert flux_residual(cfg, sh) <= 1e-12
    for mu in (0.0, 1.0):
        assert pohozaev_residual(cfg, sh, mu) <= 1e-12


def _weight_draw(dim, kind, h, c1, d):
    if kind == "const":
        return CONST
    if kind == "ah":
        return make_ah(h, dim)
    return parse_weight(f"polyexp:{c1!r};d={d!r}")


@given(st.integers(3, 12), st.sampled_from(["const", "ah", "polyexp"]),
       st.floats(-1.0, 40.0), st.floats(0.0, 1.5), st.floats(-0.5, 0.5),
       st.floats(radial_ode.BETA_MIN_GUARD, radial_ode.BETA_MAX_GUARD))
@settings(max_examples=60, deadline=None)
def test_identity_residuals_random(dim, kind, h, c1, d, beta):
    # the whole guard range; the worst seen over 400 draws is 1.7e-12 (flux)
    # and 1.1e-13 (Pohozaev). At beta <~ -20 the series reaches r = 1 or
    # near it, so v' ~ e^beta, far below abs_tol, is the series' own
    from gelfand.cli import IDENTITY_TOL

    cfg = ProblemConfig(dim=dim, weight=_weight_draw(dim, kind, h, c1, d))
    sh = integrate_ivp(cfg, beta)
    assert flux_residual(cfg, sh) <= IDENTITY_TOL
    assert pohozaev_residual(cfg, sh, 0.0) <= IDENTITY_TOL
    assert pohozaev_residual(cfg, sh, 1.0) <= IDENTITY_TOL


# ------------------------------------------------------------- asymptotics

def test_emden_variable_exact_singular():
    # const's singular series is W = 0, and the Emden variable is read from
    # it, not rebuilt as V + 2 log r - log 2(N-2)
    cfg = ProblemConfig(dim=5, weight=CONST)
    _, prof = integrate_singular(cfg)
    diag = asymptotic_diagnostics(cfg, prof)
    assert np.all(diag.emden.values == 0.0) and np.all(diag.emden.derivs == 0.0)
    assert diag.rescaled is None


@pytest.mark.parametrize("dim, h", [(10, 5.7832), (10, 40.0), (3, 40.0)])
def test_emden_variable_of_the_explicit_family(dim, h):
    # W = -h r^2/(2N) and dw/dt = -r W' = h r^2/N, t = -log r: within
    # 1.8e-15 relative; rebuilt from V by subtraction they were up to 3.1e-7
    # and 2.4e-8 off
    cfg = ProblemConfig(dim=dim, weight=make_ah(h, dim))
    diag = asymptotic_diagnostics(cfg, integrate_singular(cfg)[1])
    r2 = np.exp(-2.0 * diag.emden.radii)
    for got, ref in ((diag.emden.values, -h * r2 / (2 * dim)), (diag.emden.derivs, h * r2 / dim)):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def test_emden_variable_decays_for_family():
    N, h = 5, 5.0
    cfg = ProblemConfig(dim=N, weight=make_ah(h, N))
    _, prof = integrate_singular(cfg)
    diag = asymptotic_diagnostics(cfg, prof)
    # w(t_max) is the deep-radius end
    assert abs(diag.emden.values[-1]) <= 0.01


def test_rescaled_profile_rejects_negative_beta():
    cfg = ProblemConfig(dim=5, weight=CONST)
    sh = integrate_ivp(cfg, -1.0)
    with pytest.raises(ValueError):
        asymptotic_diagnostics(cfg, sh.profile, beta=-1.0)
    with pytest.raises(ValueError):
        rescaled_profile(cfg, -1.0)


def test_rescaled_profile_reports_where_the_weight_turns_nonpositive():
    # the rescaled polyexp weight 1 - 0.9 r^2 vanishes at r = 1/sqrt(0.9);
    # the shoot stops at its last accepted step before that radius
    cfg = ProblemConfig(dim=3, weight=parse_weight("polyexp:-0.9;d=0"))
    with pytest.raises(IntegrationError, match="nonpositive at r=") as exc:
        rescaled_profile(cfg, 0.0, r_max=3.0)
    assert 1.0 < exc.value.reached < 1.0 / math.sqrt(0.9)


def _solve_results(monkeypatch, run, fused):
    """(what run() returns or raises, the result of every _stepper.solve
    call it makes). Each solve runs on its right-hand side's fused stage,
    or with fused=False on the generic stage, reached by handing solve a
    plain callable in place of the right-hand side."""
    real, results = _stepper.solve, []

    def recording(fun, *args, **kwargs):
        assert fun.stage is not None  # the package's shoots have fused stages
        results.append(real(fun if fused else lambda x, y: fun(x, y), *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(_stepper, "solve", recording)
    try:
        out = run()
    except IntegrationError as exc:
        out = (str(exc), exc.reached)
    finally:
        monkeypatch.setattr(_stepper, "solve", real)
    return out, results


def _arrays(*profiles):
    return [(p.radii.tolist(), p.values.tolist(), p.derivs.tolist()) for p in profiles]


def _regular(cfg, beta, **kwargs):
    sh = integrate_ivp(cfg, beta, **kwargs)
    return sh.v1, sh.dlambda_dbeta, _arrays(sh.profile, sh.variation_profile)


def _singular(cfg):
    # the singular series of const and a_h reaches r = 1, where no solve
    # call is made to compare: such a case shoots polyexp:1;d=-1 in its
    # dimension, whose series stops at r0 = 0.66 to 0.82
    if radial_ode._singular_series(cfg).r0 == 1.0:
        cfg = ProblemConfig(dim=cfg.dim, weight=parse_weight("polyexp:1;d=-1"))
    lam_star, profile = integrate_singular(cfg)
    return lam_star, _arrays(profile)


FUSED_SHOOTS = {
    "trace 1": lambda cfg: _regular(cfg, 1.0, trace=True),
    "trace 10": lambda cfg: _regular(cfg, 10.0, trace=True),
    "trace 40": lambda cfg: _regular(cfg, 40.0, trace=True),
    "default grid": lambda cfg: _regular(cfg, 3.0),
    "singular": _singular,
    "rescaled 20": lambda cfg: _arrays(rescaled_profile(cfg, 20.0)),
}


@pytest.mark.parametrize("dim, spec", [(3, "const"), (10, "ah:h=40"),
                                       (7, "polyexp:0.7,-0.2;d=0.3")])
@pytest.mark.parametrize("shoot", sorted(FUSED_SHOOTS))
def test_fused_shoots_are_bit_identical_to_generic_ones(monkeypatch, dim, spec, shoot):
    # the same node states, accepted steps and states at them, and results
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))

    def run():
        # a constant-weight trace shoot builds its Emden trajectory anew, on
        # the stage under test, before it reads it
        radial_ode._emden_trajectory.cache_clear()
        return FUSED_SHOOTS[shoot](cfg)

    fused, fused_solves = _solve_results(monkeypatch, run, True)
    generic, generic_solves = _solve_results(monkeypatch, run, False)
    assert fused_solves and fused_solves == generic_solves
    assert fused == generic


def test_fused_stage_raises_the_callables_error(monkeypatch):
    # the rescaled weight 1 - 0.9 r^2 turns nonpositive inside a fused
    # stage: the same IntegrationError, wording and reached point as on the
    # generic stage
    cfg = ProblemConfig(dim=3, weight=parse_weight("polyexp:-0.9;d=0"))
    run = lambda: rescaled_profile(cfg, 0.0, r_max=3.0)  # noqa: E731
    (fused, reached), _ = _solve_results(monkeypatch, run, True)
    assert (fused, reached) == _solve_results(monkeypatch, run, False)[0]
    assert fused.startswith("weight 'polyexp:-0.9;d=0@rescaled' nonpositive at r=")
    assert 1.0 < reached < 1.0 / math.sqrt(0.9) < float(fused.rpartition("=")[2])
    # one attempt alone: 1 - 3 r^2 is positive at r = 0.5 and not at 0.7
    weight = Weight(spec="polyexp:-3;d=0", coeffs=(-3.0,), tilt=0.0)
    for make, y0 in ((radial_ode._rhs_ve, [1.0, -0.5, 1.0, -0.5]),
                     (radial_ode._rhs_v, [1.0, -0.5])):
        fun = make(ProblemConfig(dim=5, weight=weight))
        args = (0.5, 0.2, 0.7, y0, fun(0.5, y0), 1e-10, 1e-12)
        with pytest.raises(ValueError) as generic:
            _stepper._generic_stage(len(y0))((fun,), *args)
        with pytest.raises(ValueError) as fused:
            fun.stage(fun.stage_args, *args)
        assert str(fused.value) == str(generic.value)
        assert str(fused.value).startswith("weight 'polyexp:-3;d=0' nonpositive at r=0.")


def test_right_hand_sides_compile_once_per_kind_and_weight_shape():
    # verify draws a new polyexp weight for each command: 20 of them, of
    # one shape (one coefficient, tilted), and a_h of the same shape compile
    # three right-hand sides (ve, ve_log, v) and one scalar weight (for the
    # parse-time check), no more. A trace shoot whose series reaches rho =
    # e^{beta/2} r = 1 steps in log r only, so a grid shoot, which steps in
    # r, is made too. const compiles ve, v and the Emden kind, which its
    # trace shoots read in place of ve_log, once for every dimension
    rng = random.Random(5)
    radial_ode._compiled_rhs.cache_clear()
    radial_ode._emden_trajectory.cache_clear()
    weights._weight_factory.cache_clear()
    sizes = []
    for _ in range(20):
        spec = f"polyexp:{rng.uniform(-0.5, 0.5)!r};d={rng.uniform(-0.5, 0.5)!r}"
        cfg = ProblemConfig(dim=rng.randint(3, 12), weight=parse_weight(spec))
        integrate_ivp(cfg, 5.0, trace=True)
        integrate_ivp(cfg, 5.0)
        integrate_singular(cfg)
        sizes.append(radial_ode._compiled_rhs.cache_info().currsize)
    assert sizes == [3] * 20
    assert weights._weight_factory.cache_info().currsize == 1
    for cfg, compiled in ((ProblemConfig(dim=10, weight=make_ah(40.0, 10)), 3),
                          (ProblemConfig(dim=3, weight=CONST), 6),
                          (ProblemConfig(dim=10, weight=CONST), 6)):
        integrate_ivp(cfg, 5.0, trace=True)
        integrate_ivp(cfg, 5.0)
        integrate_singular(cfg)
        assert radial_ode._compiled_rhs.cache_info().currsize == compiled
    assert radial_ode._emden_trajectory.cache_info().currsize == 2


def test_rescaled_profile_converges_to_limit():
    N = 5
    cfg = ProblemConfig(dim=N, weight=make_ah(5.0, N))
    limit = rescaled_profile(ProblemConfig(dim=N, weight=CONST), 0.0)
    sups = []
    for beta in (10.0, 20.0):
        hat = rescaled_profile(cfg, beta)
        assert np.array_equal(hat.radii, limit.radii)
        sups.append(float(np.max(np.abs(hat.values - limit.values))))
    assert sups[1] < sups[0]


# ------------------------------------------------------- potential reader

def test_evaluate_array_consistent_at_nodes():
    cfg = ProblemConfig(dim=6, weight=CONST)
    prof = potential_from_shoot(cfg, integrate_ivp(cfg, 2.0)).profile
    vals = prof.evaluate_array(prof.radii)
    assert np.array_equal(vals[:-1], prof.values[:-1])
    assert vals[-1] == pytest.approx(prof.values[-1], rel=1e-14)


def test_sample_profiles_refuse_the_potential_readers():
    # shoots, singular and rescaled profiles carry samples only; their
    # readers are hermite_values, and a potential is built by from_jets
    cfg = ProblemConfig(dim=3, weight=CONST)
    for prof in (integrate_ivp(cfg, 1.0).profile, integrate_ivp(cfg, 1.0, trace=True).profile,
                 integrate_singular(cfg)[1], rescaled_profile(cfg, 1.0)):
        with pytest.raises(ValueError, match="from_jets.*hermite_values"):
            prof.evaluate_array([0.5])
        with pytest.raises(ValueError, match="from_jets.*hermite_values"):
            prof.scalar_value()


def test_potential_drops_repeated_radii():
    # integrate_ivp allows repeated output radii; the potential built from
    # such a shoot reads exactly as the one without the repeats, and fewer
    # than two distinct radii leave nothing to interpolate
    cfg = ProblemConfig(dim=3, weight=CONST)
    once = potential_from_shoot(cfg, integrate_ivp(cfg, 0.0, radii=[1e-4, 0.5, 1.0])).profile
    pts = [5e-5, 1e-4, 0.25, 0.5, 0.75, 1.0]
    ref = once.evaluate_array(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radii in ([1e-4, 0.5, 0.5, 1.0], [1e-4, 1e-4, 0.5, 1.0], [1e-4, 0.5, 1.0, 1.0]):
            prof = potential_from_shoot(cfg, integrate_ivp(cfg, 0.0, radii=radii)).profile
            assert prof.radii.tolist() == [1e-4, 0.5, 1.0]
            assert np.array_equal(prof.coeffs, once.coeffs)
            assert list(prof.evaluate_array(pts)) == list(ref)
            value = prof.scalar_value()
            assert [value(r) for r in pts] == list(ref)
    for radii in ([cfg.r_start], [cfg.r_start, cfg.r_start]):
        with pytest.raises(ValueError, match="two or more distinct radii"):
            potential_from_shoot(cfg, integrate_ivp(cfg, 0.0, radii=radii))


def _scalar_probe_points(prof):
    x = prof.radii.tolist()
    mids = [0.5 * (a + b) for a, b in zip(x, x[1:])]
    below = [0.0, 1e-3 * x[0], 0.5 * x[0], x[0] * (1.0 - 1e-12)]
    return x + mids + below + [prof.R, prof.R * (1.0 + 1e-12)]


def test_scalar_value_equals_evaluate_array():
    cfg3 = ProblemConfig(dim=3, weight=CONST)
    cfg10 = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    shoot = integrate_ivp(cfg10, 4.6)
    profiles = [
        potential_from_shoot(cfg3, integrate_ivp(cfg3, 1.0)).profile,
        potential_from_shoot(cfg10, shoot).profile,
        potential_from_shoot(cfg10, integrate_ivp(cfg10, 4.6, trace=True)).profile,
        potential_from_singular(cfg10, integrate_singular(cfg10)[1]).profile,
        potential_from_singular(cfg3, integrate_singular(cfg3)[1]).profile,
    ]
    for prof in profiles:
        value = prof.scalar_value()
        pts = _scalar_probe_points(prof)
        arr = prof.evaluate_array(pts)
        got = [value(r) for r in pts]
        assert got == arr.tolist()
        assert got == [prof.evaluate_array([r])[0] for r in pts]
        assert all(type(v) is float for v in got)
        beyond = prof.R * (1.0 + 1e-11)
        with pytest.raises(ValueError, match="outer radius"):
            prof.evaluate_array([beyond])
        with pytest.raises(ValueError, match="outer radius"):
            value(beyond)
