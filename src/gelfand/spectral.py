"""Spectral side: Hardy constant, Bessel machinery, Morse indices.

The 2-D reduction: for N = 10 the map u -> r^{(N-2)/2} u sends the
linearized operator -Delta - lambda a e^u on the N-ball to

    -(1/r)(r w')' - K2(r) w,   K2(r) = lambda a e^u - (N-2)^2/(4 r^2),

on the unit disk, because 2(N-2) = (N-2)^2/4 exactly at N = 10. Morse
indices of radial potentials are counted two independent ways (Pruefer
phase in log radius, finite-volume matrix inertia) and must agree exactly.
A numeric potential is read by one degree-7 Hermite interpolant whose
node derivatives come from the ODE and the weight (`RadialPotential`).

Bessel J0, J1 and the zeros of J0, the disk eigenvalues that calibrate
every count, come from scipy.special; mpmath is the test oracle for them.
scipy is imported inside the functions that call it: `bessel_j0`,
`j0_zero`, the Hardy quotients and, for Morse indices above 0,
`eigvalsh_tridiagonal`. The package, and every command that needs neither
a Bessel function nor a finite-volume eigenvalue, never loads it. The
Hardy constant is j01^2 from the literal `_J01`, the double that
scipy.special.jn_zeros returns for j01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _stepper
from .radial_ode import (ProblemConfig, RadialProfile, ShootResult, _jets, _singular_series,
                         integrate_singular)
from .weights import log_weight, make_ah, weight_arrays


def _is_int(k) -> bool:
    """Integer arguments: any numbers.Integral (numpy integers too) but bool."""
    return isinstance(k, Integral) and not isinstance(k, bool)


# ---------------------------------------------------------------------------
# Bessel J0 and its zeros, from scipy.special.

_J01 = 2.4048255576957724  # first positive zero of J0: float(jn_zeros(0, 1)[0])


def bessel_j0(x: float) -> float:
    """J0(x) as a Python float."""
    from scipy.special import j0

    return float(j0(x))


@lru_cache(maxsize=None)
def j0_zero(k: int) -> float:
    """k-th positive zero of J0, k <= 64."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"zero index must be a positive integer, got {k!r}")
    if k > 64:
        raise ValueError(f"zero index {k} exceeds the supported range (64)")
    from scipy.special import jn_zeros

    return float(jn_zeros(0, k)[k - 1])


def hardy_constant() -> float:
    """Optimal constant H in the dimension-10 improved Hardy inequality
    on the unit ball: H = j_{0,1}^2 = 5.783185962946783, from the literal
    `_J01` (equal to j0_zero(1)), so that it needs no scipy."""
    return _J01 * _J01


# ---------------------------------------------------------------------------
# Hardy quotients for the cutoff family xi_n = phi_n phi r^{(2-N)/2}.

_HARDY_FLAT_S = 24  # for s = 1 - log r >= 24, j01 r < 2.5e-10 and J0(j01 r) rounds to 1.0


@lru_cache(maxsize=1)
def _hardy_nodes():
    """Order-24 Gauss-Legendre nodes s and weights on the unit panels of
    [1, 24], with r = e^{1 - s}, phi = J0(z r) and phi'(r) r, z = j01."""
    from scipy.special import j0, j1

    x, w = leggauss(24)
    left = np.arange(1.0, _HARDY_FLAT_S)[:, None]
    s = (left + 0.5 * (x + 1.0)).ravel()
    r, z = np.exp(1.0 - s), _J01
    return s, np.tile(0.5 * w, len(left)), r, j0(z * r), -z * j1(z * r) * r


def hardy_quotient_xi_n(dim: int, n: int) -> float:
    """Rayleigh quotient R_n of the Hardy-remainder form at xi_n.

    xi_n = phi_n phi r^{(2-N)/2} with phi = J0(j01 r) and
    phi_n = min{n / (1 - log r), 1}. With g = phi_n phi, the quotient

        R_n = [ int |grad xi_n|^2 - ((N-2)^2/4) int xi_n^2 / r^2 ] / int xi_n^2

    reduces pointwise to int (g')^2 r dr / int g^2 r dr plus an exact total
    derivative that vanishes (g -> 0 at both ends). The reduced quotient no
    longer contains N, so R_n is the same number in every dimension N >= 3.
    In s = 1 - log r the integrals run over all of s in [1, inf), where
    phi_n = min{n/s, 1} and the integrands are entire on each side of the
    kink at s = n. Order-24 Gauss-Legendre on the unit panels of [1, 24]
    sums them; the integer n is a panel boundary. Beyond s = 24, J0(j01 r)
    is 1.0 in double precision: the rest of the numerator is exactly
    int_{max(n, 24)}^inf n^2/s^4 ds = n^2 / (3 max(n, 24)^3), and the rest of
    the denominator (below e^{-46}) is dropped. R_n agrees with mpmath.quad
    at 30 digits to 1.1e-15 relative for n = 1..64. n is capped at 2^53,
    the last integer a float holds exactly; R_n is H to rounding long
    before it (5.783185962946786 at 2^53, H = 5.783185962946783).
    """
    if not _is_int(dim) or dim < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {dim!r}")
    if not _is_int(n) or not 1 <= n <= 2 ** 53:
        raise ValueError(f"n must be an integer in [1, 2**53], got {n!r}")
    s, w, r, phi, dphi_r = _hardy_nodes()
    phi_n = np.minimum(n / s, 1.0)
    gp_r = phi_n * dphi_r + np.where(s > n, n / (s * s), 0.0) * phi  # g'(r) r
    g_r = phi_n * phi * r
    tail = n * n / (3.0 * max(n, _HARDY_FLAT_S) ** 3)
    return float((w @ (gp_r * gp_r) + tail) / (w @ (g_r * g_r)))


# ---------------------------------------------------------------------------
# Low-dimension instability witnesses (N <= 9).


@dataclass(frozen=True)
class WitnessReport:
    dim: int
    h: float
    eps: float
    j: int
    q_value: float
    delta: float
    support: tuple[float, float]  # (inner, outer) radii


def instability_witness_leq9(dim: int, h: float, eps: float, j: int) -> WitnessReport:
    """Quadratic form value at the log-oscillating witness supported on
    the annulus r in [e^{-2 pi (j+1)/eps}, e^{-2 pi j/eps}].

    xi = r^{(2-N)/2} sin((eps/2) log r) on the annulus, 0 outside; the form

        Q(xi) = int (xi')^2 r^{N-1} - 2(N-2) int xi^2 r^{N-3} - h int xi^2 r^{N-1}

    is, in t = log r over half a period of sin(eps t / 2), exactly

        Q = -delta pi / eps - h eps^2 (r_hi^2 - r_lo^2) / (4 (4 + eps^2)).

    It needs delta = 2(N-2) - ((N-2)^2 + eps^2)/4 > 0, which fails for N >= 10.
    """
    if not _is_int(dim) or not 3 <= dim <= 9:
        raise ValueError(f"witness construction needs an integer 3 <= N <= 9, got {dim!r}")
    if not _is_int(j) or j < 1:
        raise ValueError(f"annulus index must be a positive integer, got {j!r}")
    if not (math.isfinite(h) and math.isfinite(eps)):
        raise ValueError(f"h and eps must be finite, got h={h}, eps={eps}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    N = float(dim)
    delta = 2.0 * (N - 2.0) - ((N - 2.0) ** 2 + eps * eps) / 4.0
    if delta <= 0.0:
        raise ValueError(
            f"delta = {delta} <= 0: no oscillation margin at N={dim}, eps={eps}"
        )
    r_lo, r_hi = math.exp(-2.0 * math.pi * (j + 1) / eps), math.exp(-2.0 * math.pi * j / eps)
    # int sin^2 = int cos^2 = pi / eps and int sin cos = 0 over the annulus
    q = -delta * math.pi / eps - h * eps * eps * (r_hi ** 2 - r_lo ** 2) / (4.0 * (4.0 + eps * eps))
    return WitnessReport(dim=dim, h=h, eps=eps, j=j, q_value=q, delta=delta,
                         support=(r_lo, r_hi))


# ---------------------------------------------------------------------------
# Radial potentials and the disk reduction.


@dataclass(frozen=True)
class RadialPotential:
    """Potential lambda a e^u of a linearized radial operator.

    kind 'explicit_uh' evaluates 2(N-2)/r^2 + h exactly; kind 'numeric'
    reads a sampled profile by degree-7 Hermite (`RadialProfile.from_jets`)
    from its first three derivatives at the nodes, taken from the ODE
    (`radial_ode._jets`) and the weight (`weight_arrays`): a e^v itself for
    a regular solution, and z = log(r^2 a e^V / 2(N-2)) for a singular one,
    whose a e^V is 2(N-2) e^z / r^2. singular_coefficient is the
    coefficient of r^{-2} as r -> 0 (2(N-2) for singular solutions, 0 for
    regular ones).
    """

    kind: str
    dim: int
    h: float | None = None
    profile: RadialProfile | None = None
    singular_coefficient: float = 0.0


def explicit_uh(dim: int, h: float) -> RadialPotential:
    make_ah(h, dim)  # the same conditions on (dim, h) as the weight a_h
    return RadialPotential(kind="explicit_uh", dim=dim, h=h,
                           singular_coefficient=2.0 * (dim - 2.0))


def potential_from_shoot(cfg: ProblemConfig, shoot: ShootResult) -> RadialPotential:
    """lambda a e^u = a e^v along a regular shooting profile, with its first
    three derivatives by Leibniz's rule from those of a and of e^v."""
    r, v, dv = shoot.profile.radii, shoot.profile.values, shoot.profile.derivs
    weight = a, da, dda, ddda = weight_arrays(cfg.weight, r)
    (_, v2), (_, v3), _ = (jet.T for jet in _jets(cfg, r, np.column_stack((v, dv)), weight))
    ev = np.exp(v)
    w2 = v2 + dv * dv  # (e^v)'' / e^v
    w3 = v3 + dv * (3.0 * v2 + dv * dv)  # (e^v)''' / e^v
    jets = (a * ev, (da + a * dv) * ev, (dda + 2.0 * da * dv + a * w2) * ev,
            (ddda + 3.0 * (dda * dv + da * w2) + a * w3) * ev)
    return RadialPotential(
        kind="numeric", dim=cfg.dim,
        profile=RadialProfile.from_jets(r, jets),
        singular_coefficient=0.0,
    )


def potential_from_singular(cfg: ProblemConfig, profile: RadialProfile) -> RadialPotential:
    """a e^V for a singular profile, sampled as z = W + log a, with W = V +
    2 log r - log 2(N-2) the Emden variable, z' = W' + a'/a and the next two
    derivatives likewise: z is small where a e^V is large, so 2(N-2)
    expm1(z) / r^2 keeps the smooth part accurate at small r. Up to the
    radius r0 of the singular series (`radial_ode._SingularSeries`), W and
    its derivatives are the series' own, with no cancellation against the
    -2 log r of V; beyond r0 they come from V, V' and the ODE (`_jets`).
    log a is `log_weight`'s, accurate near r = 0 too."""
    N = cfg.dim
    r, V, dV = profile.radii, profile.values, profile.derivs
    weight = a, da, dda, ddda = weight_arrays(cfg.weight, r)
    (_, V2), (_, V3), _ = (jet.T for jet in _jets(cfg, r, np.column_stack((V, dV)), weight))
    W = np.array([V + 2.0 * np.log(r) - math.log(2.0 * (N - 2.0)), dV + 2.0 / r,
                  V2 - 2.0 / (r * r), V3 + 4.0 / (r * r * r)])
    series = _singular_series(cfg)
    k = np.searchsorted(r, series.r0, side="right")
    W[:, :k] = (series.emden(r[:k]) / r[:k, None] ** np.arange(4)).T
    la1, la2, la3 = da / a, dda / a, ddda / a
    jets = (W[0] + log_weight(cfg.weight, r), W[1] + la1, W[2] + la2 - la1 * la1,
            W[3] + la3 - la1 * (3.0 * la2 - 2.0 * la1 * la1))
    return RadialPotential(
        kind="numeric", dim=cfg.dim,
        profile=RadialProfile.from_jets(r, jets),
        singular_coefficient=2.0 * (N - 2.0),
    )


class DiskPotential:
    """K2(r) = inv_sq / r^2 + smooth(r) on (0, 1], smooth bounded at 0.

    The smooth part is `const` when it is exactly constant, and otherwise
    `smooth_at`, a callable on one float radius, which the Pruefer
    right-hand side evaluates. `smooth_array`, if given, is the same
    function on an array of radii, for the finite-volume matrix and the
    eigenvalue bracket of `morse_index`; without it they call `smooth_at`
    once per radius.
    """

    def __init__(self, dim, inv_sq, smooth0, const=None, label="", smooth_at=None,
                 smooth_array=None):
        if const is None and smooth_at is None:
            raise ValueError("a smooth part needs either const or smooth_at")
        self.dim = dim
        self.inv_sq = float(inv_sq)
        self.smooth0 = float(smooth0)
        self.const = const  # smooth part if it is exactly constant
        self.smooth_at = smooth_at
        self.smooth_array = smooth_array
        self.label = label

    def smooth(self, r):
        if np.isscalar(r):
            return self.const if self.const is not None else self.smooth_at(r)
        r = np.asarray(r, dtype=float)
        if self.const is not None:
            return np.full_like(r, self.const)
        if self.smooth_array is not None:
            return self.smooth_array(r)
        return np.array([self.smooth_at(x) for x in r.tolist()])

    def k2(self, r):
        r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
        return self.inv_sq / (r * r) + self.smooth(r)


def reduce_to_disk(pot: RadialPotential) -> DiskPotential:
    """K2(r) = pot(r) - (N-2)^2/(4 r^2) after the r^{(N-2)/2} substitution.

    At N = 10 with a singular potential the two inverse-square terms cancel
    exactly. A numeric potential's smooth part is the interpolated a e^v for
    a regular potential, and 2(N-2) expm1(z(r)) / r^2 for a singular one,
    which keeps the cancellation exact at small radii. Its one degree-7
    Hermite interpolant (`RadialProfile.from_jets`) is read by
    `RadialProfile.scalar_value` one radius at a time and by
    `RadialProfile.evaluate_array` on arrays: bit-identical for a regular
    potential, and within rounding of numpy's expm1 for a singular one.
    """
    N = float(pot.dim)
    hardy_coeff = (N - 2.0) ** 2 / 4.0
    inv_sq = pot.singular_coefficient - hardy_coeff

    if pot.kind == "explicit_uh":
        return DiskPotential(pot.dim, inv_sq, pot.h, const=pot.h,
                             label=f"explicit_uh(N={pot.dim}, h={pot.h})")

    prof = pot.profile
    if pot.singular_coefficient == 0.0:
        a_ev = prof.scalar_value()  # its even quadratic below r0 gives the limit at 0
        return DiskPotential(pot.dim, inv_sq, a_ev(0.0), smooth_at=a_ev,
                             smooth_array=prof.evaluate_array,
                             label="numeric regular")

    # numeric singular: smooth(r) = 2(N-2) (e^z - 1) / r^2
    two_nm2 = 2.0 * (N - 2.0)
    z_at = prof.scalar_value()

    def smooth_at(r):
        return two_nm2 * math.expm1(z_at(r)) / (r * r)

    def smooth_array(r):
        return two_nm2 * np.expm1(prof.evaluate_array(r)) / (r * r)

    # limit at 0: z ~ z2 r^2, so smooth0 = 2(N-2) z2 with z2 ~ z'(r0) / (2 r0)
    smooth0 = two_nm2 * (prof.derivs[0] / (2.0 * prof.radii[0]))
    return DiskPotential(pot.dim, inv_sq, smooth0, smooth_at=smooth_at,
                         smooth_array=smooth_array, label="numeric singular")


# ---------------------------------------------------------------------------
# Morse index of -(1/r)(r w')' - K2(r) w on the disk, w(1) = 0, regular at 0.


def eigvalsh_tridiagonal(d, e, **kw):
    """scipy.linalg.eigvalsh_tridiagonal, imported on first use."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(d, e, **kw)


class MethodDisagreement(RuntimeError):
    """Pruefer and finite-volume counts differ: hard error by design."""


@dataclass(frozen=True)
class SpectralReport:
    morse_index: int
    capped: bool
    cap: int
    prufer_count: int
    fd_count: int
    eigenvalues_below_zero: tuple[float, ...]  # Pruefer-refined
    fd_eigenvalues: tuple[float, ...]
    method_gap: float
    evidence: str

    @property
    def stable(self) -> bool:
        return self.morse_index == 0 and not self.capped


def _prufer_inner_radius(k2: DiskPotential, cap: int) -> float:
    if k2.inv_sq > 0.0:
        # oscillatory tail: place the cut deep enough that the phase wraps
        # the cap plus margin before reaching it
        return math.exp(-((cap + 3) * math.pi / math.sqrt(k2.inv_sq)) - 1.0)
    return 1e-6


# The Pruefer right-hand side in tau = log r, as lines for `compile_rhs`:
# theta' = cos^2 theta + [q + r^2 (s + mu)] sin^2 theta, s the smooth part
_PRUFER = _stepper.Rhs(
    "tau", ("theta",), ("q", "mu", "const", "smooth_at"),
    ("r = exp(tau)",
     "s = const if const is not None else smooth_at(r)",
     "sin_t = sin(theta)",
     "cos_t = cos(theta)"),
    ("cos_t * cos_t + (q + r * r * (s + mu)) * sin_t * sin_t",))


@lru_cache(maxsize=None)
def _prufer_rhs():
    """make(q, mu, const, smooth_at) -> the Pruefer right-hand side with its
    fused DOP853 stage, compiled on first use (`_stepper.compile_rhs`)."""
    return _stepper.compile_rhs(_PRUFER, {"exp": math.exp, "sin": math.sin, "cos": math.cos},
                                "Pruefer phase")


def _prufer_theta_end(k2: DiskPotential, mu: float, r_in: float) -> float:
    """Phase at r = 1 of the Pruefer angle in tau = log r.

    w = rho sin(theta), r w' = rho cos(theta);
    theta' = cos^2 theta + [inv_sq + r^2 (smooth + mu)] sin^2 theta.

    The right-hand side is `_PRUFER`, bound to k2 and mu, so `solve` runs
    it on its fused stage, which inlines the lines at each abscissa and
    calls only `smooth_at` of a numeric potential. A callable without
    that stage (a counting wrapper) runs on the generic stage of size 1,
    with the same theta bit for bit.
    """
    q = k2.inv_sq
    tau0 = math.log(r_in)
    r2_0 = r_in * r_in
    if q > 0.0:
        theta0 = 0.5 * math.pi
    elif q == 0.0:
        c2 = -(k2.smooth0 + mu) / 4.0
        theta0 = math.atan2(1.0 + c2 * r2_0, 2.0 * c2 * r2_0)
    else:
        m = math.sqrt(-q)
        c2 = -(k2.smooth0 + mu) / (4.0 * (m + 1.0))
        theta0 = math.atan2(1.0 + c2 * r2_0, m + (m + 2.0) * c2 * r2_0)

    rhs = _prufer_rhs()(q, mu, k2.const, k2.smooth_at)
    out = _stepper.solve(rhs, tau0, [theta0], [0.0], 1e-10, 1e-10,
                         first_step=1e-3 * abs(tau0))
    return out[0][0]


def _fd_matrix(k2: DiskPotential, n: int, r_in: float):
    """Symmetrized finite-volume tridiagonal for the disk operator.

    Cell-centered volumes with p(r) = sigma(r) = r; the inner face sits at
    r = 0 (regular problems; p(0) = 0 needs no boundary condition) or at
    r_in with a Dirichlet cut (oscillatory tails). Returns (diag, off,
    centers, masses).
    """
    if k2.inv_sq > 0.0:
        faces = np.exp(np.linspace(math.log(r_in), 0.0, n + 1))
    else:
        faces = np.linspace(0.0, 1.0, n + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    masses = 0.5 * (faces[1:] ** 2 - faces[:-1] ** 2)

    cpl = np.empty(n + 1)
    cpl[1:-1] = faces[1:-1] / (centers[1:] - centers[:-1])
    cpl[0] = faces[0] / (centers[0] - faces[0]) if faces[0] > 0.0 else 0.0
    cpl[-1] = faces[-1] / (faces[-1] - centers[-1])

    k2_c = k2.inv_sq / (centers * centers) + k2.smooth(centers)
    diag = (cpl[:-1] + cpl[1:]) / masses - k2_c
    off = -cpl[1:-1] / np.sqrt(masses[:-1] * masses[1:])
    return diag, off, centers, masses


def _sturm_negative_count(diag: np.ndarray, off: np.ndarray) -> int:
    """Negative inertia of a symmetric tridiagonal via LDL^T pivots, on
    Python floats: the same operations in the same order as on the arrays'
    numpy scalars, and the same count, at about a third of the time."""
    diag, off = diag.tolist(), off.tolist()
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


# A Pruefer eigenvalue's bracket starts _SEED_WIDTH max(1, |mu_fd|) either
# side of its finite-volume eigenvalue mu_fd, which lies 3e-9 to 3.3e-4
# relative off on the benchmark's potentials, and grows by _SEED_GROWTH
# until the phase changes sign across it. On the traced spectral benchmark
# (seed 13) widths 1e-4, 1e-5 and 1e-6 take 97, 92 and 89 Pruefer solves,
# growth 2 to 16 within one solve of each other; the wide window took 148.
_SEED_WIDTH = 1e-5
_SEED_GROWTH = 8.0


def _seeded_bracket(evaluate, seed, lower, upper):
    """A bracket (lower, upper) of points (mu, f, theta) around seed, with
    f(lower) <= 0 <= f(upper), inside the given bracket (lower, upper).

    Each side tries seed -/+ d, d = _SEED_WIDTH max(1, |seed|), and grows d
    by _SEED_GROWTH while f there has the other side's sign; such a point
    narrows the other end. A trial at or beyond an end keeps that end, so
    the bracket is never wider than the given one, and as f increases with
    mu it holds the given bracket's one root.
    """
    d0 = _SEED_WIDTH * max(1.0, abs(seed))
    for side in (-1.0, 1.0):
        d = d0
        while lower[0] < seed + side * d < upper[0]:
            p = evaluate(seed + side * d)
            below = p[1] <= 0.0
            lower, upper = (p, upper) if below else (lower, p)
            if below == (side < 0.0):
                break
            d *= _SEED_GROWTH
    return lower, upper


def morse_index(k2: DiskPotential, cap: int = 16, n_fd: int = 4096) -> SpectralReport:
    """Count negative eigenvalues two independent ways; refuse to disagree.

    Route 1: Pruefer phase integration in log radius (zeros of the mu = 0
    solution, eigenvalues by Brent's method on the phase), each solve on
    the fused DOP853 stage of the compiled Pruefer right-hand side
    (`_prufer_theta_end`). Route 2: inertia of the finite-volume matrix
    (Sylvester) from its LDL^T pivots on Python floats
    (`_sturm_negative_count`), eigenvalues from LAPACK. Counts,
    then numbers of eigenvalues, must match exactly or MethodDisagreement is
    raised, the latter before any Pruefer eigenvalue is refined;
    eigenvalues are reported with their cross-method gap. Counts
    reaching `cap` are capped (the N <= 9 tails have infinite index).

    Eigenvalue k is the root of theta_end(mu) = k pi in [mu_{k-1}'s lower
    end (or lo, where theta_end <= pi), 0]. Brent's method starts from a
    bracket that the phase verifies around the finite-volume eigenvalue k
    (`_seeded_bracket`): theta_end increases with mu, so it holds the
    same root, and the seed changes only the number of solves. The
    explicit family at h = 40, 80 and 150 takes 11, 14 and 20 solves
    (one for the count, one for lo), 19, 26 and 35 from the whole window.

    For potentials carried by interpolated numeric profiles the count is
    certified only up to the profile's own accuracy: treat it as a
    discretization-level answer, exact for closed-form K2. Its degree-7
    reader (`RadialPotential`) stays within 1.2e-13 relative of a shoot
    landed on every radius. The Pruefer route evaluates it through its
    scalar `smooth_at`, the finite-volume matrix and the eigenvalue bracket
    through `smooth_array`, both on the same coefficients.
    """
    if not _is_int(cap) or not 1 <= cap <= 32:
        raise ValueError(f"cap must be an integer in [1, 32], got {cap!r}")
    r_in = _prufer_inner_radius(k2, cap)
    theta0 = _prufer_theta_end(k2, 0.0, r_in)
    pc = int(math.floor(theta0 / math.pi))
    diag, off, _, _ = _fd_matrix(k2, n_fd, r_in)
    fc = _sturm_negative_count(diag, off)

    capped = pc >= cap and fc >= cap
    if not capped and pc != fc:
        raise MethodDisagreement(
            f"Pruefer count {pc} != finite-volume count {fc} "
            f"(cap {cap}, label {k2.label!r})"
        )

    eigen, fd_eigen, gap = [], (), 0.0
    if not capped and pc > 0:
        # bracket comfortably below the smallest eigenvalue: theta_end(lo) <= pi
        smax = float(np.max(k2.smooth(np.linspace(1e-3, 1.0, 1025))))
        lo = min(-1.0, -smax - 1.0)
        theta_lo = _prufer_theta_end(k2, lo, r_in)
        for _ in range(61):
            if theta_lo <= math.pi:
                break
            lo *= 2.0
            theta_lo = _prufer_theta_end(k2, lo, r_in)
        else:
            raise RuntimeError("failed to bracket Pruefer eigenvalue from below")
        vals = eigvalsh_tridiagonal(diag, off, select="v",
                                    select_range=(lo * 4.0 - 10.0, 0.0))
        fd_eigen = tuple(float(v) for v in vals if v < 0.0)
        if len(fd_eigen) != pc:
            raise MethodDisagreement(f"{pc} Pruefer eigenvalues != {len(fd_eigen)} "
                                     f"finite-volume eigenvalues (label {k2.label!r})")
        # eigenvalue k: theta_end(mu) = k pi on [end of bracket k - 1 where
        # theta_end <= (k - 1) pi, or lo; 0] (theta_end increases in mu),
        # narrowed around the finite-volume eigenvalue k first
        below = (lo, theta_lo)
        for k, seed in enumerate(fd_eigen, start=1):
            def point(mu, theta, target=k * math.pi):
                return mu, theta - target, theta

            def evaluate(mu):
                return point(mu, _prufer_theta_end(k2, mu, r_in))

            lower, upper = _seeded_bracket(evaluate, seed, point(*below), point(0.0, theta0))
            b, c = _stepper.zeroin(
                evaluate, lower, upper, lambda mu: 0.5e-10 * max(1.0, abs(mu)), lambda p: True,
                f"Pruefer eigenvalue {k} on [{{lo}}, {{hi}}] stopped at the bracket "
                f"[{{left}}, {{right}}] with |theta_end - {k} pi| = {{f:.3g}} at mu={{x}}")
            eigen.append(b[0])
            below = (b[0], b[2]) if b[1] <= 0.0 else (c[0], c[2])
        gap = max(abs(a - b) for a, b in zip(eigen, fd_eigen))
    evidence = (
        f"pruefer={pc}{'+' if capped else ''}, fd={fc}{'+' if capped else ''}, "
        f"r_in={r_in:.3e}, n_fd={n_fd}"
    )
    return SpectralReport(
        morse_index=cap if capped else pc,
        capped=capped,
        cap=cap,
        prufer_count=pc,
        fd_count=fc,
        eigenvalues_below_zero=tuple(eigen),
        fd_eigenvalues=fd_eigen,
        method_gap=gap,
        evidence=evidence,
    )


def solution_stability(cfg: ProblemConfig, shoot: ShootResult, cap: int = 16) -> SpectralReport:
    """Morse index of the linearization at a regular shooting solution,
    through the disk reduction (counts are for the radial class)."""
    pot = potential_from_shoot(cfg, shoot)
    return morse_index(reduce_to_disk(pot), cap=cap)


def singular_stability(cfg: ProblemConfig, cap: int = 16) -> SpectralReport:
    """Morse index of the linearization at the singular solution."""
    _, profile = integrate_singular(cfg)
    pot = potential_from_singular(cfg, profile)
    return morse_index(reduce_to_disk(pot), cap=cap)
