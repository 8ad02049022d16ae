import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelfand import (
    IntegrationError,
    ProblemConfig,
    asymptotic_diagnostics,
    explicit_lambda_h,
    flux_residual,
    integrate_ivp,
    integrate_second_variation,
    integrate_singular,
    lambda_second_derivative,
    make_ah,
    parse_weight,
    pohozaev_residual,
    profile_from_csv,
    profile_to_csv,
    rescaled_profile,
    residual_Uh,
)
from gelfand.radial_ode import (
    RadialProfile,
    quintic_values,
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, der = sh.profile.evaluate_array([cfg.r_start])
    assert (val[0], der[0]) == (v0, dv0)
    assert (sh.variation_profile.values[0], sh.variation_profile.derivs[0]) == (e0, de0)
    assert sh.lam == math.exp(v0)
    w = integrate_second_variation(cfg, 0.0, radii=[cfg.r_start])
    assert len(w) == 1 and abs(w.values[0]) < 1e-8
    lam_star, prof = integrate_singular(cfg, radii=[cfg.r_start])
    assert len(prof) == 1
    assert lam_star == math.exp(prof.values[0])
    assert prof.values[0] == pytest.approx(-2.0 * math.log(cfg.r_start) + math.log(6.0),
                                           rel=1e-12)
    # at large beta the series starts below r_start: the one node is reached
    # exactly as the first node of the full grid is
    one = integrate_ivp(cfg, 20.0, radii=[cfg.r_start])
    full = integrate_ivp(cfg, 20.0)
    assert one.profile.values[0] == full.profile.values[0]
    assert one.variation_profile.values[0] == full.variation_profile.values[0]


def test_decreasing_or_misplaced_radii_rejected():
    cfg = ProblemConfig(dim=3, weight=CONST)
    for radii, msg in (([1e-4, 0.6, 0.5], "decrease"), ([5e-5, 1.0], "below r_start"),
                       ([], "non-empty"), ([1e-4, math.nan, 1.0], "finite"),
                       ([1e-4, 0.5, math.inf], "finite")):
        with pytest.raises(ValueError, match=msg):
            integrate_ivp(cfg, 0.0, radii=radii)
        with pytest.raises(ValueError, match=msg):
            integrate_second_variation(cfg, 0.0, radii=radii)
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
    ref = integrate_ivp(cfg, beta, radii=[cfg.r_start, 1.0]).profile.values[0]
    v = quintic_values(cfg, sh.profile, [cfg.r_start])[0]
    assert abs(v - ref) <= 1e-10 * max(1.0, abs(ref))


QUINTIC_CASES = [(3, "const"), (7, "polyexp:0.7,-0.2;d=0.3"), (10, "ah:h=40"),
                 (12, "ah:h=5.7832")]


@pytest.mark.parametrize("dim, spec", QUINTIC_CASES)
def test_quintic_values_match_the_clamped_shoot(dim, spec):
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    grid = np.geomspace(cfg.r_start, 1.0, 4097)
    for beta in (-2.0, 10.0, 25.0, 40.0):
        ref = integrate_ivp(cfg, beta, radii=grid).profile.values
        v = quintic_values(cfg, integrate_ivp(cfg, beta, trace=True).profile, grid)
        assert np.max(np.abs(v - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10, beta


@pytest.mark.parametrize("dim, spec", QUINTIC_CASES)
def test_quintic_values_match_the_clamped_singular_shoot(dim, spec):
    # V'' from the ODE is exact at the nodes of the singular profile too
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim))
    grid = np.geomspace(cfg.r_start, 1.0, 8192)
    ref = integrate_singular(cfg, radii=grid)[1].values
    v = quintic_values(cfg, integrate_singular(cfg)[1], grid)
    assert np.max(np.abs(v - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10


@pytest.mark.parametrize("radii", [[1e-4], [1e-4, 0.5, 1.0, 1.0]])
def test_quintic_values_reject_degenerate_profiles(radii):
    # one node, or a repeated last radius, leaves an interval of zero width
    cfg = ProblemConfig(dim=3, weight=CONST)
    prof = integrate_ivp(cfg, 1.0, radii=radii).profile
    with pytest.raises(ValueError, match="strictly increasing"):
        quintic_values(cfg, prof, [radii[-1]])


def test_quintic_values_do_not_extrapolate():
    cfg = ProblemConfig(dim=3, weight=CONST)
    prof = integrate_ivp(cfg, 0.0, trace=True).profile
    for r in (0.5 * prof.radii[0], 1.0 + 1e-9):
        with pytest.raises(ValueError, match="outside"):
            quintic_values(cfg, prof, [r])


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


# --------------------------------------------------------- second variation

def test_lambda_second_derivative_consistency():
    cfg = ProblemConfig(dim=4, weight=CONST)
    beta, d = 3.0, 1e-3
    lpp = lambda_second_derivative(cfg, beta)
    lam = lambda b: integrate_ivp(cfg, b).lam
    fd = (lam(beta + d) - 2 * lam(beta) + lam(beta - d)) / (d * d)
    assert lpp == pytest.approx(fd, rel=1e-3)


def test_second_derivative_negative_at_first_fold():
    # first fold of the three-dimensional constant-weight curve
    cfg = ProblemConfig(dim=3, weight=CONST)
    assert lambda_second_derivative(cfg, 2.808021) < 0.0


def test_second_variation_profile_start():
    cfg = ProblemConfig(dim=5, weight=CONST)
    prof = integrate_second_variation(cfg, 2.0)
    assert abs(prof.values[0]) < 1e-6   # w(0) = 0
    assert abs(prof.derivs[0]) < 1e-2   # dw/dr(0) = 0


# --------------------------------------------------------- singular family

def test_singular_constant_weight_exact():
    for N in (3, 6, 10):
        cfg = ProblemConfig(dim=N, weight=CONST)
        lam_star, prof = integrate_singular(cfg)
        assert lam_star == pytest.approx(2.0 * (N - 2), rel=1e-10)
        exact = -2.0 * np.log(prof.radii) + math.log(2.0 * (N - 2))
        assert np.max(np.abs(prof.values - exact)) < 1e-9


def test_singular_explicit_family_closed_form():
    N, h = 10, 40.0
    cfg = ProblemConfig(dim=N, weight=make_ah(h, N))
    lam_star, prof = integrate_singular(cfg)
    assert lam_star == pytest.approx(explicit_lambda_h(N, h), rel=1e-6)
    exact = (-2.0 * np.log(prof.radii) + math.log(2.0 * (N - 2))
             - h * prof.radii**2 / (2 * N))
    assert np.max(np.abs(prof.values - exact)) < 1e-6


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


def test_flux_closed_form_on_exact_singular_solution():
    # a = 1, V = -2 log r: both sides of the flux identity equal 2 r^{N-2}
    N = 7
    r = np.linspace(1e-4, 1.0, 4001)
    lhs = -(r ** (N - 1)) * (-2.0 / r)
    # integrand lambda_* a e^{V}/lambda_* = 2(N-2) r^{N-3}
    rhs = 2.0 * (N - 2) * r ** (N - 2) / (N - 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pohozaev_residual_examples():
    cfg = ProblemConfig(dim=5, weight=CONST)
    sh = integrate_ivp(cfg, 3.0)
    for mu in (0.0, 1.0, 2.0):
        assert pohozaev_residual(cfg, sh, mu) <= 1e-6


def test_pohozaev_defect_affine_in_mu():
    # the signed defect D(mu) = boundary(mu) - integrals(mu) is affine in
    # mu by construction, so its second difference vanishes to round-off;
    # reconstructed here independently from the profile arrays
    from gelfand.radial_ode import cumulative_power_integral
    from gelfand.weights import weight_arrays

    cfg = ProblemConfig(dim=5, weight=CONST)
    sh = integrate_ivp(cfg, 3.0)
    N = cfg.dim
    r, v, dv = sh.profile.radii, sh.profile.values, sh.profile.derivs
    a, da = weight_arrays(cfg.weight, r)
    ev = np.exp(v)

    def defect(mu):
        T = r**N * (0.5 * dv * dv + a * (ev - 1.0)) + mu * r ** (N - 1) * v * dv
        IA = float(cumulative_power_integral(r, da * (ev - 1.0), N)[-1])
        IB = float(cumulative_power_integral(
            r, N * a * (ev - 1.0) - mu * a * v * ev + (mu + 1.0 - 0.5 * N) * dv * dv,
            N - 1)[-1])
        return float(T[-1] - T[0]) - IA - IB, max(abs(float(T[-1] - T[0])), abs(IB))

    d0, s0 = defect(0.0)
    d1, s1 = defect(1.0)
    d2, s2 = defect(2.0)
    assert abs(d2 - 2.0 * d1 + d0) <= 1e-11 * max(s0, s1, s2)


@given(st.integers(3, 10), st.floats(-2.0, 6.0))
@settings(max_examples=10, deadline=None)
def test_identity_residuals_random(dim, beta):
    cfg = ProblemConfig(dim=dim, weight=make_ah(4.0, dim))
    sh = integrate_ivp(cfg, beta)
    assert flux_residual(cfg, sh) <= 1e-6
    assert pohozaev_residual(cfg, sh, 0.0) <= 1e-6
    assert pohozaev_residual(cfg, sh, 1.0) <= 1e-6


# ------------------------------------------------------------- asymptotics

def test_emden_variable_exact_singular():
    cfg = ProblemConfig(dim=5, weight=CONST)
    _, prof = integrate_singular(cfg)
    diag = asymptotic_diagnostics(cfg, prof)
    assert np.max(np.abs(diag.emden.values)) < 1e-9
    assert diag.rescaled is None


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


# ---------------------------------------------------------- serialization

def test_profile_csv_round_trip():
    cfg = ProblemConfig(dim=4, weight=CONST)
    prof = integrate_ivp(cfg, 1.0).profile
    text = profile_to_csv(prof)
    assert text.splitlines()[0] == "r,v,dv_dr"
    back = profile_from_csv(text)
    assert np.array_equal(back.radii, prof.radii)
    assert np.array_equal(back.values, prof.values)
    assert np.array_equal(back.derivs, prof.derivs)
    # a repeated radius is legal, as in integrate_ivp's output radii
    back = profile_from_csv(profile_to_csv(RadialProfile([0.1, 0.5, 0.5, 1.0],
                                                         [1, 2, 2, 3], [0, 1, 1, 1])))
    assert back.radii.tolist() == [0.1, 0.5, 0.5, 1.0]


@pytest.mark.parametrize("text,match", [
    ("", "header"),
    ("r,v,dv_dr\n", "no rows"),
    ("# comment only\n", "header"),
    ("r,v,dv_dr\n0.1,1,0\n0.2,1,0,7\n", "3 fields"),
    ("r,v,dv_dr\n0.1,1\n", "3 fields"),
    ("r,v,dv_dr\n0.2,1,0\n0.1,1,0\n", "must not decrease"),
    ("r,v,dv_dr\n0.1,x,0\n", "could not convert"),
    ("r,v,dv_dr\nnan,1,0\n0.5,1,0\n", "non-finite"),
    ("r,v,dv_dr\n0.5,1,0\n1,inf,0\n", "non-finite"),
    ("r,v,dv_dr\n0,1,0\n1,2,3\n", "radius <= 0: '0,1,0'"),
    ("r,v,dv_dr\n-1,1,0\n1,2,3\n", "radius <= 0: '-1,1,0'"),
])
def test_profile_from_csv_rejects_malformed_input(text, match):
    with pytest.raises(ValueError, match=match):
        profile_from_csv(text)


def test_evaluate_array_consistent_at_nodes():
    cfg = ProblemConfig(dim=6, weight=CONST)
    prof = integrate_ivp(cfg, 2.0).profile
    vals, ders = prof.evaluate_array(prof.radii)
    assert np.allclose(vals, prof.values, rtol=0, atol=1e-12)
    assert np.allclose(ders, prof.derivs, rtol=0, atol=1e-9)


def test_zero_width_interval_takes_the_node_state():
    # repeated radii give zero-width intervals: the repeated last radius is
    # reached through the clipped index, the first through the even
    # extension below it; an interior repeat is never an interval of its own
    cfg = ProblemConfig(dim=3, weight=CONST)
    once = integrate_ivp(cfg, 0.0, radii=[1e-4, 0.5, 1.0]).profile
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        last = integrate_ivp(cfg, 0.0, radii=[1e-4, 0.5, 1.0, 1.0]).profile
        val, der = last.evaluate_array([1.0])
        assert (val[0], der[0]) == (last.values[-1], last.derivs[-1])
        assert last.scalar_value()(1.0) == last.values[-1]
        for radii in ([1e-4, 0.5, 0.5, 1.0], [1e-4, 1e-4, 0.5, 1.0]):
            prof = integrate_ivp(cfg, 0.0, radii=radii).profile
            pts = [5e-5, 1e-4, 0.25, 0.5, 0.75, 1.0]
            val, der = prof.evaluate_array(pts)
            ref_val, ref_der = once.evaluate_array(pts)
            assert list(val) == list(ref_val) and list(der) == list(ref_der)
            value = prof.scalar_value()
            assert [value(r) for r in pts] == list(ref_val)


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
        integrate_ivp(cfg3, 1.0).profile,
        shoot.profile,
        shoot.variation_profile,
        integrate_singular(cfg10)[1],
        integrate_singular(cfg3)[1],
        integrate_ivp(cfg3, 0.0, radii=[cfg3.r_start]).profile,
        RadialProfile([0.5], [2.0], [-1.0], R=1.0),  # one node inside [0, R]
    ]
    for prof in profiles:
        value = prof.scalar_value()
        pts = _scalar_probe_points(prof)
        arr, _ = prof.evaluate_array(pts)
        got = [value(r) for r in pts]
        assert got == arr.tolist()
        assert got == [prof.evaluate_array([r])[0][0] for r in pts]
        assert all(type(v) is float for v in got)
        beyond = prof.R * (1.0 + 1e-11)
        with pytest.raises(ValueError, match="outer radius"):
            prof.evaluate_array([beyond])
        with pytest.raises(ValueError, match="outer radius"):
            value(beyond)
