import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import j1 as scipy_j1

from gelfand import (
    ProblemConfig,
    bessel_j0,
    explicit_uh,
    hardy_constant,
    instability_witness_leq9,
    integrate_ivp,
    integrate_singular,
    j0_zero,
    make_ah,
    morse_index,
    parse_weight,
    potential_from_singular,
    reduce_to_disk,
    singular_stability,
    solution_stability,
)
from gelfand import spectral
from gelfand.radial_ode import RadialProfile
from gelfand.spectral import DiskPotential, MethodDisagreement, _fd_matrix

H = hardy_constant()
CONST = parse_weight("const")


# ------------------------------------------------------------------ Bessel

def test_j0_at_zero_and_small():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(1e-8) == pytest.approx(1.0, abs=1e-15)


def test_j0_against_mpmath_all_regimes():
    mpmath.mp.dps = 30
    # points across [0, 120]; the clusters at x = 8 and x = 18 probe where a
    # piecewise evaluator may hand over from a small-x to a large-x form
    xs = np.concatenate([
        np.linspace(0.0, 7.9, 41),
        np.linspace(7.9, 8.1, 11),
        np.linspace(8.1, 17.9, 31),
        np.linspace(17.9, 18.1, 11),
        np.linspace(18.1, 120.0, 61),
    ])
    for x in xs:
        exact = float(mpmath.besselj(0, mpmath.mpf(float(x))))
        assert bessel_j0(float(x)) == pytest.approx(exact, abs=2e-14)


def test_j0_even():
    for x in (0.3, 5.0, 12.7, 40.0):
        assert bessel_j0(-x) == bessel_j0(x)


def test_j0_zeros_against_mpmath():
    mpmath.mp.dps = 30
    for k in range(1, 65):
        exact = float(mpmath.besseljzero(0, k))
        assert abs(j0_zero(k) - exact) <= 1e-12
    for bad in (0, 65, 1.0):
        with pytest.raises(ValueError):
            j0_zero(bad)


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize"])
def test_import_does_not_load_slow_scipy_submodules(module):
    # importing scipy.integrate costs about 0.3 s of start-up per process,
    # scipy.optimize about 0.16 s
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, gelfand; "
            f"print(sorted(m for m in sys.modules if m.startswith({module!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_hardy_constant_value():
    assert H == j0_zero(1) ** 2
    assert abs(H - 5.7832) <= 1e-3


def test_disk_eigenfunction_rayleigh_quotient():
    # phi = J0(j01 r) is the first Dirichlet eigenfunction of the disk:
    # int (phi')^2 r dr / int phi^2 r dr = j01^2 = H
    z = j0_zero(1)
    r = np.linspace(0.0, 1.0, 16385)
    phi = np.array([bessel_j0(z * x) for x in r])
    dphi = -z * scipy_j1(z * r)  # oracle derivative
    w = np.ones_like(r)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    hstep = r[1] - r[0]
    num = hstep / 3.0 * float(w @ (dphi * dphi * r))
    den = hstep / 3.0 * float(w @ (phi * phi * r))
    assert num / den == pytest.approx(H, abs=1e-8)


# ------------------------------------------------------------- Morse index

def explicit_count(h: float) -> int:
    k, n = 1, 0
    while j0_zero(k) ** 2 < h:
        n += 1
        k += 1
    return n


@pytest.mark.parametrize("h,expected", [
    (0.0, 0), (5.0, 0), (5.78, 0), (6.0, 1), (31.0, 2), (80.0, 3),
])
def test_morse_explicit_family(h, expected):
    rep = morse_index(reduce_to_disk(explicit_uh(10, h)))
    assert rep.morse_index == expected == explicit_count(h)
    assert rep.prufer_count == rep.fd_count == expected
    assert not rep.capped
    assert rep.stable == (expected == 0)
    # eigenvalues are exactly the shifted squared Bessel zeros
    for i, ev in enumerate(rep.eigenvalues_below_zero, start=1):
        assert ev == pytest.approx(j0_zero(i) ** 2 - h, abs=1e-6)
    assert len(rep.fd_eigenvalues) == expected
    assert rep.method_gap <= 1e-3


@pytest.mark.parametrize("h", [1.0, 6.0, 31.0, 80.0])
def test_morse_consistent_with_zero_oracle(h):
    rep = morse_index(reduce_to_disk(explicit_uh(10, h)))
    assert rep.morse_index == explicit_count(h)


@pytest.mark.parametrize("h,budget", [(40.0, 26), (80.0, 38), (150.0, 50)])
def test_morse_pruefer_solve_budget(monkeypatch, h, budget):
    # Brent's method on the phase, with theta_end(0) from the count as the
    # upper end of every bracket and one solve at the lower end: 19, 26 and
    # 36 solves where bisection took 73, 110 and 146
    solves = []
    theta_end = spectral._prufer_theta_end

    def counted(*args):
        solves.append(args[1])
        return theta_end(*args)

    monkeypatch.setattr(spectral, "_prufer_theta_end", counted)
    rep = morse_index(reduce_to_disk(explicit_uh(10, h)))
    assert len(solves) <= budget
    assert rep.morse_index == explicit_count(h)
    for i, ev in enumerate(rep.eigenvalues_below_zero, start=1):
        assert ev == pytest.approx(j0_zero(i) ** 2 - h, abs=1e-6)
    assert rep.method_gap <= 1e-3


def test_morse_eigenvalue_numbers_must_agree(monkeypatch):
    # equal counts but a finite-volume route that returns one eigenvalue
    # fewer: a gap over the shorter list would read as agreement
    eigvals = spectral.eigvalsh_tridiagonal
    monkeypatch.setattr(spectral, "eigvalsh_tridiagonal",
                        lambda *args, **kw: eigvals(*args, **kw)[:-1])
    with pytest.raises(MethodDisagreement, match="2 Pruefer eigenvalues != 1"):
        morse_index(reduce_to_disk(explicit_uh(10, 40.0)))


def test_morse_window_starts_at_the_doubled_lower_end(monkeypatch):
    # a phase that is still above pi at the first lower end mu = -41 makes
    # the bracket search double it twice, to -164; the finite-volume window
    # must start from there, not from -41
    windows = []
    eigvals = spectral.eigvalsh_tridiagonal

    def recorded(*args, **kw):
        windows.append(kw["select_range"])
        return eigvals(*args, **kw)

    monkeypatch.setattr(spectral, "_prufer_theta_end",
                        lambda k2, mu, r_in: math.pi * (2.5 + mu / 100.0))
    monkeypatch.setattr(spectral, "eigvalsh_tridiagonal", recorded)
    rep = morse_index(reduce_to_disk(explicit_uh(10, 40.0)))
    assert windows == [(-164.0 * 4.0 - 10.0, 0.0)]
    assert rep.eigenvalues_below_zero == pytest.approx((-150.0, -50.0), abs=1e-8)


def test_morse_cap_validation():
    k2 = reduce_to_disk(explicit_uh(10, 0.0))
    with pytest.raises(ValueError):
        morse_index(k2, cap=0)
    with pytest.raises(ValueError):
        morse_index(k2, cap=33)
    with pytest.raises(ValueError, match="integer"):
        morse_index(k2, cap=True)


def test_morse_low_dimension_caps():
    rep = morse_index(reduce_to_disk(explicit_uh(9, 0.0)), cap=8)
    assert rep.capped
    assert rep.morse_index == 8
    assert rep.prufer_count >= 8 and rep.fd_count >= 8
    assert not rep.stable


@pytest.mark.parametrize("h", [5.0, 31.0, 40.0])
def test_numeric_singular_reduction_matches_family(h):
    # the 16/r^2 cancellation amplifies V's integration error by 1/r^2,
    # so the reduction check wants a tight integrator tolerance
    N = 10
    cfg = ProblemConfig(dim=N, weight=make_ah(h, N), rel_tol=1e-12, abs_tol=1e-13)
    _, prof = integrate_singular(cfg)
    k2 = reduce_to_disk(potential_from_singular(cfg, prof))
    grid = np.geomspace(1e-3, 1.0, 2049)
    assert float(np.max(np.abs(k2.k2(grid) - h))) <= 1e-5
    # smooth0 = 2(N-2) z'(r0) / (2 r0) drops the r0^2 z4 term of the
    # log-weight (about 1e-6 at h = 40 with r0 = 1e-4)
    assert abs(k2.smooth0 - h) <= 2e-6


def test_singular_stability_matches_explicit():
    cfg = ProblemConfig(dim=10, weight=make_ah(31.0, 10))
    rep = singular_stability(cfg)
    assert rep.morse_index == 2
    cfg0 = ProblemConfig(dim=10, weight=make_ah(0.0, 10))
    assert singular_stability(cfg0).morse_index == 0


def test_solution_stability_examples():
    cfg3 = ProblemConfig(dim=3, weight=CONST)
    assert solution_stability(cfg3, integrate_ivp(cfg3, 0.0)).morse_index == 0
    # just past the first fold (beta_fold ~ 2.808) one eigenvalue crosses
    assert solution_stability(cfg3, integrate_ivp(cfg3, 3.5)).morse_index == 1
    cfg10 = ProblemConfig(dim=10, weight=CONST)
    rep = solution_stability(cfg10, integrate_ivp(cfg10, 20.0))
    assert rep.morse_index == 0 and rep.stable


def test_disk_potential_needs_const_or_smooth_at():
    with pytest.raises(ValueError, match="either const or smooth_at"):
        DiskPotential(dim=10, inv_sq=0.0, smooth0=0.0)


def test_pruefer_rhs_does_not_evaluate_profile_arrays(monkeypatch):
    # the Pruefer right-hand side runs hundreds of thousands of times per
    # pass: no Morse index calls the array interpolant, and the weight is
    # evaluated once per potential build, never per Pruefer stage
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    shoot = integrate_ivp(cfg, 4.6)
    calls, weight_calls = [], []
    evaluate_array = RadialProfile.evaluate_array
    weight_arrays = spectral.weight_arrays

    def counted(self, r):
        calls.append(len(np.atleast_1d(r)))
        return evaluate_array(self, r)

    def counted_weight(w, r):
        weight_calls.append(len(np.atleast_1d(r)))
        return weight_arrays(w, r)

    monkeypatch.setattr(RadialProfile, "evaluate_array", counted)
    monkeypatch.setattr(spectral, "weight_arrays", counted_weight)
    assert solution_stability(cfg, shoot).morse_index == 1
    assert calls == []
    assert weight_calls == [len(shoot.profile)]
    weight_calls.clear()
    _, prof = integrate_singular(cfg)
    assert singular_stability(cfg).morse_index == 2
    assert calls == []
    assert weight_calls == [len(prof)]


# ---------------------------------------------------------- Hardy floor etc

def test_borderline_potential_floor():
    # K2 = H is the borderline: the discretized form satisfies
    # Q(xi) + H |xi|^2 >= -1e-8 |xi|^2, i.e. min eigenvalue >= -1e-8
    k2 = DiskPotential(dim=10, inv_sq=0.0, smooth0=H, const=H, label="K2=H")
    diag, off, _, _ = _fd_matrix(k2, 16384, 1e-6)
    low = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    assert low >= -1e-8


def test_discretized_form_scales_quadratically():
    k2 = reduce_to_disk(explicit_uh(10, 31.0))
    diag, off, _, _ = _fd_matrix(k2, 512, 1e-6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(diag.size)

    def form(y):
        return float(diag @ (y * y) + 2.0 * (off @ (y[:-1] * y[1:])))

    assert form(2.0 * x) == pytest.approx(4.0 * form(x), rel=1e-12)


# ---------------------------------------------------------------- witnesses

def _witness_quadrature(dim, h, eps, j, panels=20000):
    # independent Simpson evaluation of
    #   Q = int (xi')^2 r^{N-1} - 2(N-2) int xi^2 r^{N-3} - h int xi^2 r^{N-1}
    # for xi = r^{(2-N)/2} sin((eps/2) log r) on the annulus. In t = log r
    # (dr = r dt) the r-powers of the first two terms cancel exactly, so the
    # integrand stays O(1) however deep the annulus sits:
    #   f(t) = (p sin + m cos)^2 - 2(N-2) sin^2 - h e^{2t} sin^2
    N = dim
    p, m = (2.0 - N) / 2.0, eps / 2.0
    t = np.linspace(-2.0 * math.pi * (j + 1) / eps, -2.0 * math.pi * j / eps,
                    2 * panels + 1)
    s, c = np.sin(m * t), np.cos(m * t)
    f = (p * s + m * c) ** 2 - 2.0 * (N - 2) * s * s - h * np.exp(2.0 * t) * s * s
    w = np.ones_like(t)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (t[1] - t[0]) / 3.0 * float(w @ f)


def test_witness_borderline_value():
    # N=9, h=0, eps=1: Q = -(delta) pi / eps with delta = 2*7 - (49+1)/4 = 1.5
    w = instability_witness_leq9(9, 0.0, 1.0, 1)
    assert w.q_value == pytest.approx(-1.5 * math.pi, rel=1e-12)
    assert w.delta == pytest.approx(1.5, rel=1e-12)


def test_witness_deep_annulus_negative():
    w = instability_witness_leq9(9, 0.0, 1.0, 12)
    assert w.q_value < 0.0


def test_witness_supports_disjoint_and_negative():
    sup_prev = None
    for j in range(1, 5):
        w = instability_witness_leq9(9, 0.0, 1.0, j)
        assert w.q_value < 0.0
        lo, hi = w.support
        assert 0.0 < lo < hi < 1.0
        if sup_prev is not None:
            assert hi <= sup_prev
        sup_prev = lo


@given(
    st.integers(3, 9),
    st.floats(-1.0, 80.0),
    st.floats(0.3, 2.4),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_witness_matches_independent_quadrature(dim, h, eps, j):
    delta = 2.0 * (dim - 2) - ((dim - 2.0) ** 2 + eps * eps) / 4.0
    if delta <= 0.0:
        with pytest.raises(ValueError):
            instability_witness_leq9(dim, h, eps, j)
        return
    w = instability_witness_leq9(dim, h, eps, j)
    q_num = _witness_quadrature(dim, h, eps, j)
    assert w.q_value == pytest.approx(q_num, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("dim, h, eps, j", [
    (3, -1.0, 0.5, 1), (5, 0.0, 1.0, 2), (7, 5.0, 2.0, 1), (9, 40.0, 1.0, 4), (9, 40.0, 2.0, 1),
])
def test_witness_closed_form_against_scipy_quad(dim, h, eps, j):
    t_lo, t_hi = -2.0 * math.pi * (j + 1) / eps, -2.0 * math.pi * j / eps
    p, m = 0.5 * (2.0 - dim), 0.5 * eps

    def integrand(t):
        s, c = math.sin(m * t), math.cos(m * t)
        return (p * s + m * c) ** 2 - 2.0 * (dim - 2) * s * s - h * math.exp(2.0 * t) * s * s

    q_quad, _ = quad(integrand, t_lo, t_hi, epsabs=0.0, epsrel=1e-13, limit=200)
    q = instability_witness_leq9(dim, h, eps, j).q_value
    assert abs(q - q_quad) <= 1e-12 * abs(q_quad)


def test_integer_arguments_accept_numpy_integers_and_reject_bool():
    assert j0_zero(np.int64(2)) == j0_zero(2)
    with pytest.raises(ValueError, match="integer"):
        j0_zero(True)
    w = instability_witness_leq9(np.int64(5), 0.0, 1.0, np.int64(2))
    assert w.q_value == instability_witness_leq9(5, 0.0, 1.0, 2).q_value
    for dim, j in ((True, 1), (9, True)):
        with pytest.raises(ValueError, match="integer"):
            instability_witness_leq9(dim, 0.0, 1.0, j)
    assert morse_index(reduce_to_disk(explicit_uh(10, 31.0)), cap=np.int64(4)).morse_index == 2


def test_witness_additivity_over_disjoint_annuli():
    # xi_j and xi_k have disjoint supports, so the quadratic form adds
    dim, h, eps = 9, 0.0, 1.0
    for j, k in ((1, 2), (1, 3), (2, 5)):
        qj = instability_witness_leq9(dim, h, eps, j).q_value
        qk = instability_witness_leq9(dim, h, eps, k).q_value
        q_sum = _witness_quadrature(dim, h, eps, j) + _witness_quadrature(dim, h, eps, k)
        assert abs((qj + qk) - q_sum) <= 1e-10 * max(1.0, abs(q_sum))


def test_witness_rejections():
    with pytest.raises(ValueError):
        instability_witness_leq9(10, 0.0, 1.0, 1)   # critical dim excluded
    with pytest.raises(ValueError, match="integer"):
        instability_witness_leq9(3.5, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        instability_witness_leq9(9, 0.0, 1.0, 0)    # j >= 1
    with pytest.raises(ValueError):
        instability_witness_leq9(9, 0.0, 3.0, 1)    # delta <= 0
    for h, eps in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            instability_witness_leq9(9, h, eps, 1)
