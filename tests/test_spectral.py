import json
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
from scipy.special import j1 as scipy_j1, jn_zeros

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
    potential_from_shoot,
    potential_from_singular,
    reduce_to_disk,
    singular_stability,
    solution_stability,
)
from gelfand import spectral
from gelfand.radial_ode import RadialProfile, _run
from gelfand.spectral import DiskPotential, MethodDisagreement, _fd_matrix
from gelfand.weights import weight_arrays

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


# A fresh process that imports the package and runs the Hardy constant and
# CLI verify commands, none of which needs a Bessel function or a
# finite-volume eigenvalue, then a Morse index above 0, which does.
_SCIPY_PROCESS = """
import contextlib, io, json, sys
import gelfand, gelfand.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

gelfand.hardy_constant()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gelfand.cli.main(argv) for argv in (
        ["verify", "flux", "--dim", "5", "--weight", "const", "--beta", "3"],
        ["verify", "singular", "--dim", "10", "--h", "40"],
        ["verify", "separation", "--dim", "10", "--weight", "ah:h=5.7831859629467084",
         "--beta", "2", "--gamma", "5"],
    )]
radial = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as morse:
    codes.append(gelfand.cli.main(["spectral", "morse", "--dim", "10", "--h", "40"]))
print(json.dumps({"codes": codes, "radial": radial, "spectral": scipy_modules(),
                  "morse_index": json.loads(morse.getvalue())["morse_index"]}))
"""


@pytest.fixture(scope="module")
def scipy_process():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROCESS], env=env, check=True,
                         capture_output=True, text=True).stdout
    report = json.loads(out)
    assert report["codes"] == [0, 0, 0, 0]
    return report


@pytest.mark.parametrize("module", ["scipy", "scipy.integrate", "scipy.optimize"])
def test_import_does_not_load_slow_scipy_submodules(module, scipy_process):
    # scipy loads only where a Bessel function or a finite-volume eigenvalue
    # is computed: importing it costs about 0.29 s of start-up per process,
    # scipy.integrate about 0.3 s more and scipy.optimize about 0.16 s
    loaded = [m for m in scipy_process["radial"] if m == module or m.startswith(module + ".")]
    assert loaded == []


def test_morse_index_above_zero_loads_scipy_linalg(scipy_process):
    assert scipy_process["morse_index"] == 2
    assert "scipy.linalg" in scipy_process["spectral"]


def test_hardy_constant_value():
    assert H == j0_zero(1) ** 2
    assert abs(H - 5.7832) <= 1e-3


def test_hardy_literal_is_scipys_zero():
    assert spectral._J01 == float(jn_zeros(0, 1)[0])
    mpmath.mp.dps = 30
    exact = mpmath.besseljzero(0, 1)
    assert abs(mpmath.mpf(spectral._J01) - exact) <= math.ulp(spectral._J01)
    assert hardy_constant() == 5.783185962946783


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


def _counted_solves(monkeypatch):
    """The mu of every Pruefer solve from here on."""
    solves = []
    theta_end = spectral._prufer_theta_end

    def counted(*args):
        solves.append(args[1])
        return theta_end(*args)

    monkeypatch.setattr(spectral, "_prufer_theta_end", counted)
    return solves


@pytest.mark.parametrize("h,budget", [(40.0, 13), (80.0, 17), (150.0, 23)])
def test_morse_pruefer_solve_budget(monkeypatch, h, budget):
    # Brent's method on the phase from a bracket verified around each
    # finite-volume eigenvalue, with one solve for the count and one at
    # the lower end: 11, 14 and 20 solves, where Brent on the whole window
    # [lo, 0] took 19, 26 and 35, and bisection 73, 110 and 146
    solves = _counted_solves(monkeypatch)
    rep = morse_index(reduce_to_disk(explicit_uh(10, h)))
    assert len(solves) <= budget
    assert rep.morse_index == explicit_count(h)
    for i, ev in enumerate(rep.eigenvalues_below_zero, start=1):
        assert ev == pytest.approx(j0_zero(i) ** 2 - h, abs=1e-6)
    assert rep.method_gap <= 1e-3


def _seed_cases():
    cfg40 = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    cfg3 = ProblemConfig(dim=3, weight=CONST)
    return {
        **{f"explicit h={h}": lambda h=h: reduce_to_disk(explicit_uh(10, h))
           for h in (6.0, 31.0, 80.0, 150.0)},
        "singular N=10 a_40": lambda: reduce_to_disk(
            potential_from_singular(cfg40, integrate_singular(cfg40)[1])),
        "regular N=10 a_40 beta=4.6": lambda: reduce_to_disk(
            potential_from_shoot(cfg40, integrate_ivp(cfg40, 4.6))),
        "regular N=3 const beta=3.5": lambda: reduce_to_disk(
            potential_from_shoot(cfg3, integrate_ivp(cfg3, 3.5))),
    }


@pytest.mark.parametrize("case", sorted(_seed_cases()))
def test_seeded_brackets_change_only_the_cost(monkeypatch, case):
    # a bracket the phase verifies around the finite-volume eigenvalue
    # holds the root of the whole window: the eigenvalues agree to Brent's
    # tolerance, the counts and the finite-volume eigenvalues exactly, in
    # fewer solves
    k2 = _seed_cases()[case]()
    solves = _counted_solves(monkeypatch)
    seeded = morse_index(k2)
    seeded_solves = len(solves)
    solves.clear()
    # unseeded: Brent on the whole window [lo, 0]
    monkeypatch.setattr(spectral, "_seeded_bracket", lambda evaluate, seed, lower, upper:
                        (lower, upper))
    wide = morse_index(k2)
    assert seeded.morse_index == wide.morse_index >= 1
    assert seeded.fd_eigenvalues == wide.fd_eigenvalues
    for mu, ref in zip(seeded.eigenvalues_below_zero, wide.eigenvalues_below_zero,
                       strict=True):
        assert abs(mu - ref) <= 0.5e-10 * max(1.0, abs(ref))
    assert seeded_solves < len(solves)


def test_seeded_bracket_grows_onto_the_root():
    # f(mu) = mu + 3 from a seed at 0: the lower trial at -d is still
    # above the root, and d grows until a trial lies below it, each trial
    # above the root narrowing the upper end; the given bracket clips the
    # growth
    trials = []

    def evaluate(mu):
        trials.append(mu)
        return mu, mu + 3.0, None

    lower, upper = spectral._seeded_bracket(evaluate, 0.0, (-100.0, -97.0, None),
                                            (0.0, 3.0, None))
    d, growth = spectral._SEED_WIDTH, spectral._SEED_GROWTH
    assert trials == [-d * growth ** i for i in range(len(trials))]
    assert lower[0] == trials[-1] <= -3.0 < upper[0] == trials[-2]
    trials.clear()
    lower, upper = spectral._seeded_bracket(evaluate, 0.0, (-5.0, -2.0, None),
                                            (0.0, 3.0, None))
    assert trials and min(trials) > -5.0
    assert (lower[0], upper[0]) == (-5.0, trials[-1])


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


def test_unresolved_finite_volume_eigenvalue_fails_before_any_brent_step(monkeypatch):
    # a standing defect, pinned: at N=9 const, beta = 25 the finite-volume
    # mesh does not resolve the boundary layer, and its lowest eigenvalue
    # falls below the window (4 lo - 10, 0), so the eigenvalue numbers
    # differ. The check runs before the eigenvalues are refined: the only
    # solves are the count at mu = 0 and the lower end lo
    cfg = ProblemConfig(dim=9, weight=CONST)
    shoot = integrate_ivp(cfg, 25.0)
    solves = _counted_solves(monkeypatch)
    with pytest.raises(MethodDisagreement,
                       match="4 Pruefer eigenvalues != 3 finite-volume eigenvalues"):
        solution_stability(cfg, shoot)
    assert len(solves) == 2 and solves[0] == 0.0 and solves[1] < 0.0


def test_pruefer_rhs_cannot_run_in_lanes():
    # both branches of `const if const is not None else smooth_at(r)` run
    # in lanes, and smooth_at, sin and cos take floats: lanes() refuses at
    # once, naming the right-hand side and the calls
    fun = spectral._prufer_rhs()(0.0, 0.0, 40.0, None)
    with pytest.raises(ValueError, match="Pruefer phase right-hand side cannot run in lanes") as err:
        fun.lanes()
    assert all(call in str(err.value) for call in ("smooth_at(r)", "sin(theta)", "cos(theta)"))


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


@pytest.mark.parametrize("dim", [3, 10])
@pytest.mark.parametrize("h", [5.7832, 8.0, 40.0])
def test_singular_potential_reads_z_from_the_series(dim, h):
    # z = W + log a is log1p(h r^2 / (2(N-2))) for a_h. Read from the
    # singular series it is within 4.5e-16 relative on default_grid; rebuilt
    # as V + log a + 2 log r - log 2(N-2), about 18 near r_start, it was up
    # to 3.1e-4 off
    cfg = ProblemConfig(dim=dim, weight=make_ah(h, dim))
    prof = potential_from_singular(cfg, integrate_singular(cfg)[1]).profile
    r = prof.radii
    exact = np.log1p(h * r * r / (2.0 * (dim - 2.0)))
    assert np.max(np.abs(prof.values - exact) / exact) <= 1e-14


@pytest.mark.parametrize("h", [5.0, 31.0, 40.0])
def test_numeric_singular_reduction_matches_family(h):
    # z from the singular series puts K2 within 2.5e-14 of h at any
    # tolerance; rebuilt from V, the 16/r^2 cancellation amplified V's
    # integration error by 1/r^2 (5.5e-8 at rtol 1e-12, 7.6e-7 at 1e-10)
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
    # pass: it never calls the array interpolant, which only the
    # finite-volume matrix (4096 centres) and the eigenvalue bracket (1025
    # radii) call, once each; the weight is evaluated once per potential
    # build, never per Pruefer stage
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
    assert calls == [4096, 1025]
    assert weight_calls == [len(shoot.profile)]
    weight_calls.clear()
    _, prof = integrate_singular(cfg)
    calls.clear()
    assert singular_stability(cfg).morse_index == 2
    assert calls == [4096, 1025]
    assert weight_calls == [len(prof)]


def test_fd_smooth_part_matches_the_scalar_reader():
    # the finite-volume matrix reads a numeric potential through its array
    # form: bit-identical to smooth_at for a regular potential, and within
    # a few ulps for a singular one, where numpy's expm1 may round
    # differently from math.expm1
    cfg = ProblemConfig(dim=10, weight=make_ah(40.0, 10))
    regular = reduce_to_disk(potential_from_shoot(cfg, integrate_ivp(cfg, 1.6)))
    diag, off, centers, _ = _fd_matrix(regular, 4096, 1e-6)
    scalar = DiskPotential(regular.dim, regular.inv_sq, regular.smooth0,
                           smooth_at=regular.smooth_at)
    ref_diag, ref_off, _, _ = _fd_matrix(scalar, 4096, 1e-6)
    assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off)
    singular = reduce_to_disk(potential_from_singular(cfg, integrate_singular(cfg)[1]))
    got = singular.smooth(centers)
    ref = np.array([singular.smooth_at(r) for r in centers.tolist()])
    assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))


@pytest.mark.parametrize("dim, spec, beta", [
    (10, "ah:h=40", 1.6),
    (10, "ah:h=40", 3.0),
    (3, "const", 5.0),
    (7, "polyexp:0.7,-0.2;d=0.3", 8.0),
])
def test_potential_reader_matches_a_landed_shoot(dim, spec, beta):
    # a e^v read from the default grid against a e^v of a shoot landed on
    # each of 20 001 geometric radii: the degree-7 reader stays within
    # 1.2e-13 relative; a cubic Hermite on the same nodes is 7.5e-12 to
    # 2.5e-8 off
    cfg = ProblemConfig(dim=dim, weight=parse_weight(spec, dim=dim))
    prof = potential_from_shoot(cfg, integrate_ivp(cfg, beta)).profile
    r = np.geomspace(cfg.r_start, 1.0, 20001)
    states, _, _ = _run(cfg, beta, r.tolist())
    ref = weight_arrays(cfg.weight, r)[0] * np.exp(np.asarray(states)[:, 0])
    assert np.max(np.abs(prof.evaluate_array(r) - ref) / ref) <= 1e-12


def test_numeric_singular_eigenvalues_match_bessel_zeros():
    # at N=10 the singular potential of a_h reduces to K2 = h exactly, so
    # mu_k = j0k^2 - h: mu_1 is 8.2e-12 off relative to j01^2 (3.2e-11 with
    # z rebuilt from V, and 2.3e-10 with a cubic Hermite reader of z)
    h = 40.0
    rep = singular_stability(ProblemConfig(dim=10, weight=make_ah(h, 10)))
    assert rep.morse_index == 2
    for k, mu in enumerate(rep.eigenvalues_below_zero, start=1):
        assert abs(mu + h - j0_zero(k) ** 2) <= 1e-10 * j0_zero(k) ** 2


@pytest.mark.parametrize("c", [2e4, 4e4, 8e4])
def test_pruefer_steps_over_a_narrow_feature(c):
    # a standing defect, pinned: the adaptive Pruefer solve steps over a
    # bump 5e-4 wide that the finite-volume matrix resolves, so the counts
    # differ and morse_index refuses to answer rather than report either
    k2 = DiskPotential(10, 0.0, 0.0, smooth_at=lambda r: c if 0.5007 < r < 0.5012 else 0.0)
    with pytest.raises(MethodDisagreement, match="Pruefer count 0 != finite-volume count 1"):
        morse_index(k2)


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


def _sturm_reference(diag, off):
    """The LDL^T pivot count on the arrays' numpy scalars."""
    count = 0
    d = diag[0]
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300
        d = diag[i] - off[i - 1] * off[i - 1] / d
        if d < 0.0:
            count += 1
    return count


def test_sturm_count_matches_the_numpy_scalar_loop_and_the_eigenvalues():
    rng = np.random.default_rng(3217)
    cases = [(rng.normal(size=n) * rng.uniform(0.1, 10.0), rng.normal(size=n - 1))
             for n in range(1, 65)]
    # the second pivot is 1 - 1 * 1 / 1 = 0 exactly
    cases.append((np.array([1.0, 1.0, -0.5, 2.0]), np.array([1.0, 0.5, 1.0])))
    checked = 0
    for diag, off in cases:
        got = spectral._sturm_negative_count(diag, off)
        assert type(got) is int
        assert got == _sturm_reference(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eig = np.linalg.eigvalsh(dense)
        if np.all(np.abs(eig) > 1e-8):
            assert got == np.count_nonzero(eig < 0.0)
            checked += 1
    assert checked >= 60
    # the zero pivot case: the count is taken from its eigenvalues too
    diag, off = cases[-1]
    assert spectral._sturm_negative_count(diag, off) == 1
    assert np.count_nonzero(np.linalg.eigvalsh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) < 0.0) == 1
