"""Spectral side: Hardy constant, Bessel machinery, Morse indices.

The 2-D reduction: for N = 10 the map u -> r^{(N-2)/2} u sends the
linearized operator -Delta - lambda a e^u on the N-ball to

    -(1/r)(r w')' - K2(r) w,   K2(r) = lambda a e^u - (N-2)^2/(4 r^2),

on the unit disk, because 2(N-2) = (N-2)^2/4 exactly at N = 10. Morse
indices of radial potentials are counted two independent ways (Pruefer
phase in log radius, finite-volume matrix inertia) and must agree exactly.

Bessel J0, J1 and the zeros of J0, the disk eigenvalues that calibrate
every count, come from scipy.special; mpmath is the test oracle for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import j0, j1, jn_zeros

from . import _stepper
from .radial_ode import ProblemConfig, RadialProfile, ShootResult, integrate_singular
from .weights import Weight, weight_arrays

# ---------------------------------------------------------------------------
# Bessel J0 and its zeros, from scipy.special.


def bessel_j0(x: float) -> float:
    """J0(x) as a Python float."""
    return float(j0(x))


@lru_cache(maxsize=None)
def j0_zero(k: int) -> float:
    """k-th positive zero of J0, k <= 64."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"zero index must be a positive integer, got {k!r}")
    if k > 64:
        raise ValueError(f"zero index {k} exceeds the supported range (64)")
    return float(jn_zeros(0, k)[k - 1])


@lru_cache(maxsize=1)
def hardy_constant() -> float:
    """Optimal constant H in the dimension-10 improved Hardy inequality
    on the unit ball: H = j_{0,1}^2."""
    z = j0_zero(1)
    return z * z


# ---------------------------------------------------------------------------
# Hardy quotients for the cutoff family xi_n = phi_n phi r^{(2-N)/2}.


def _simpson(values: np.ndarray, a: float, b: float) -> float:
    """Composite Simpson rule for samples on an odd-sized uniform grid of [a, b]."""
    wts = np.ones(len(values))
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    h = (b - a) / (len(values) - 1)
    return (h / 3.0) * float(wts @ values)


def hardy_quotient_xi_n(dim: int, n: int) -> float:
    """Rayleigh quotient R_n of the Hardy-remainder form at xi_n.

    xi_n = phi_n phi r^{(2-N)/2} with phi = J0(j01 r) and
    phi_n = min{n / (1 - log r), 1}. With g = phi_n phi, the quotient

        R_n = [ int |grad xi_n|^2 - ((N-2)^2/4) int xi_n^2 / r^2 ] / int xi_n^2

    reduces pointwise to int (g')^2 r dr / int g^2 r dr plus an exact total
    derivative that vanishes (g -> 0 at both ends). The reduced quotient no
    longer contains N, so R_n is the same number in every dimension N >= 3.
    Quadrature runs in s = 1 - log r (logarithmic in r, reaching far below
    r = 1e-12), where phi_n = min{n/s, 1} and the integrands are smooth
    except for the kink at s = n, which is a panel boundary.
    """
    if not isinstance(dim, int) or dim < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {dim!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    z = j0_zero(1)

    def panel(a: float, b: float, cut: bool):
        s = np.linspace(a, b, 65537)
        r = np.exp(1.0 - s)
        zr = z * r
        phi = j0(zr)
        dphi_r = -z * j1(zr) * r  # phi'(r) * r
        if cut:
            gp_r = (n / s) * dphi_r + n * phi / (s * s)  # g'(r) * r
            g = (n / s) * phi
        else:
            gp_r = dphi_r
            g = phi
        return _simpson(gp_r * gp_r, a, b), _simpson((g * r) ** 2, a, b)

    num = den = 0.0
    if n > 1:
        num, den = panel(1.0, float(n), False)
    a, b = panel(float(n), max(64.0, 60.0 * n), True)
    return (num + a) / (den + b)


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

    is evaluated by quadrature in t = log r. Requires
    delta = 2(N-2) - ((N-2)^2 + eps^2)/4 > 0, which fails for N >= 10.
    """
    if not 3 <= dim <= 9:
        raise ValueError(f"witness construction needs 3 <= N <= 9, got {dim}")
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"annulus index must be a positive integer, got {j!r}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    N = float(dim)
    delta = 2.0 * (N - 2.0) - ((N - 2.0) ** 2 + eps * eps) / 4.0
    if delta <= 0.0:
        raise ValueError(
            f"delta = {delta} <= 0: no oscillation margin at N={dim}, eps={eps}"
        )
    t_hi = -2.0 * math.pi * j / eps
    t_lo = -2.0 * math.pi * (j + 1) / eps
    t = np.linspace(t_lo, t_hi, 4097)
    s = np.sin(0.5 * eps * t)
    c = np.cos(0.5 * eps * t)
    dxi = (0.5 * (2.0 - N)) * s + (0.5 * eps) * c  # (xi)' r^{N/2} in t variables
    integrand = dxi * dxi - 2.0 * (N - 2.0) * s * s - h * np.exp(2.0 * t) * s * s
    q = _simpson(integrand, t_lo, t_hi)
    return WitnessReport(
        dim=dim, h=h, eps=eps, j=j, q_value=q, delta=delta,
        support=(math.exp(t_lo), math.exp(t_hi)),
    )


# ---------------------------------------------------------------------------
# Radial potentials and the disk reduction.


@dataclass(frozen=True)
class RadialPotential:
    """Potential lambda a e^u of a linearized radial operator.

    kind 'explicit_uh' evaluates 2(N-2)/r^2 + h exactly; kind 'numeric'
    interpolates a sampled profile. singular_coefficient is the
    coefficient of r^{-2} as r -> 0 (2(N-2) for singular solutions, 0 for
    regular ones).
    """

    kind: str
    dim: int
    h: float | None = None
    profile: RadialProfile | None = None
    singular_coefficient: float = 0.0
    weight: Weight | None = None
    emden: RadialProfile | None = None  # log-corrected form for singular potentials


def explicit_uh(dim: int, h: float) -> RadialPotential:
    if not 3 <= dim <= 12:
        raise ValueError(f"dimension {dim} outside [3, 12]")
    if h <= -2.0 * (dim - 2):
        raise ValueError(f"h={h} must exceed -2(N-2) = {-2.0 * (dim - 2)}")
    return RadialPotential(kind="explicit_uh", dim=dim, h=h,
                           singular_coefficient=2.0 * (dim - 2.0))


def potential_from_shoot(cfg: ProblemConfig, shoot: ShootResult) -> RadialPotential:
    """lambda a e^u = a e^v along a regular shooting profile."""
    r = shoot.profile.radii
    a, da = weight_arrays(cfg.weight, r)
    ev = np.exp(shoot.profile.values)
    p = a * ev
    dp = (da + a * shoot.profile.derivs) * ev
    return RadialPotential(
        kind="numeric", dim=cfg.dim,
        profile=RadialProfile(r, p, dp, R=shoot.profile.R),
        singular_coefficient=0.0, weight=cfg.weight,
    )


def potential_from_singular(cfg: ProblemConfig, profile: RadialProfile) -> RadialPotential:
    """a e^{V} for a singular profile, keeping the log-corrected form
    w = V + 2 log r - log 2(N-2) alongside for accurate small-r evaluation."""
    N = cfg.dim
    r = profile.radii
    a, da = weight_arrays(cfg.weight, r)
    eV = np.exp(profile.values)
    p = a * eV
    dp = (da + a * profile.derivs) * eV
    wvals = profile.values + 2.0 * np.log(r) - math.log(2.0 * (N - 2.0))
    wders = profile.derivs + 2.0 / r
    return RadialPotential(
        kind="numeric", dim=cfg.dim,
        profile=RadialProfile(r, p, dp, R=profile.R),
        singular_coefficient=2.0 * (N - 2.0), weight=cfg.weight,
        emden=RadialProfile(r, wvals, wders, R=profile.R),
    )


class DiskPotential:
    """K2(r) = inv_sq / r^2 + smooth(r) on (0, 1], smooth bounded at 0."""

    def __init__(self, dim, inv_sq, smooth0, const=None, fn=None, label=""):
        self.dim = dim
        self.inv_sq = float(inv_sq)
        self.smooth0 = float(smooth0)
        self.const = const  # smooth part if it is exactly constant
        self._fn = fn
        self.label = label

    def smooth(self, r):
        if self.const is not None:
            return self.const if np.isscalar(r) else np.full_like(np.asarray(r, float), self.const)
        return self._fn(r)

    def k2(self, r):
        r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
        return self.inv_sq / (r * r) + self.smooth(r)


def reduce_to_disk(pot: RadialPotential) -> DiskPotential:
    """K2(r) = pot(r) - (N-2)^2/(4 r^2) after the r^{(N-2)/2} substitution.

    At N = 10 with a singular potential the two inverse-square terms cancel
    exactly; for numeric singular potentials the smooth remainder is
    evaluated through the log-corrected profile to preserve that
    cancellation at small radii.
    """
    N = float(pot.dim)
    hardy_coeff = (N - 2.0) ** 2 / 4.0
    inv_sq = pot.singular_coefficient - hardy_coeff

    if pot.kind == "explicit_uh":
        return DiskPotential(pot.dim, inv_sq, pot.h, const=pot.h,
                             label=f"explicit_uh(N={pot.dim}, h={pot.h})")

    if pot.singular_coefficient == 0.0:
        prof = pot.profile

        def fn(r):
            val, _ = prof.evaluate_array(np.atleast_1d(np.asarray(r, float)))
            return val if not np.isscalar(r) else float(val[0])

        c = prof.derivs[0] / (2.0 * prof.radii[0])
        smooth0 = float(prof.values[0] - c * prof.radii[0] ** 2)
        return DiskPotential(pot.dim, inv_sq, smooth0, fn=fn, label="numeric regular")

    # numeric singular: smooth(r) = [2(N-2) a e^w - 2(N-2)] / r^2
    emden = pot.emden
    weight = pot.weight
    two_nm2 = 2.0 * (N - 2.0)

    def fn(r):
        scalar = np.isscalar(r)
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        w, _ = emden.evaluate_array(rr)
        a, _ = weight_arrays(weight, rr)
        out = two_nm2 * np.expm1(w + np.log(a)) / (rr * rr)
        return float(out[0]) if scalar else out

    # limit at 0: w ~ d2 r^2 and log a ~ a2 r^2 give smooth0 = 2(N-2)(d2 + a2)
    r0 = emden.radii[0]
    d2_est = emden.derivs[0] / (2.0 * r0)
    a2 = 0.5 * weight.a2pp if weight is not None else 0.0
    smooth0 = two_nm2 * (d2_est + a2)
    return DiskPotential(pot.dim, inv_sq, smooth0, fn=fn, label="numeric singular")


# ---------------------------------------------------------------------------
# Morse index of -(1/r)(r w')' - K2(r) w on the disk, w(1) = 0, regular at 0.


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


def _prufer_theta_end(k2: DiskPotential, mu: float, r_in: float,
                      rtol: float = 1e-10, atol: float = 1e-10) -> float:
    """Phase at r = 1 of the Pruefer angle in tau = log r.

    w = rho sin(theta), r w' = rho cos(theta);
    theta' = cos^2 theta + [inv_sq + r^2 (smooth + mu)] sin^2 theta.
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

    const = k2.const
    fn = k2.smooth

    def rhs(tau, y):
        r = math.exp(tau)
        s = const if const is not None else fn(r)
        sin_t = math.sin(y[0])
        cos_t = math.cos(y[0])
        return [cos_t * cos_t + (q + r * r * (s + mu)) * sin_t * sin_t]

    out = _stepper.solve(rhs, tau0, [theta0], [0.0], rtol, atol,
                         first_step=1e-3 * abs(tau0))
    return out[0][0]


def _prufer_count(k2: DiskPotential, r_in: float) -> int:
    theta = _prufer_theta_end(k2, 0.0, r_in)
    return int(math.floor(theta / math.pi))


def _prufer_eigenvalue(k2: DiskPotential, kth: int, r_in: float, lo: float) -> float:
    """mu with theta(1; mu) = kth * pi, bisected; theta_end increases in mu."""
    target = kth * math.pi
    hi = 0.0
    f_lo = _prufer_theta_end(k2, lo, r_in) - target
    tries = 0
    while f_lo > 0.0:
        lo *= 2.0
        f_lo = _prufer_theta_end(k2, lo, r_in) - target
        tries += 1
        if tries > 60:
            raise RuntimeError("failed to bracket Pruefer eigenvalue from below")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _prufer_theta_end(k2, mid, r_in) - target > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


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
    """Negative inertia of a symmetric tridiagonal via LDL^T pivots."""
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


def morse_index(k2: DiskPotential, cap: int = 16, n_fd: int = 4096) -> SpectralReport:
    """Count negative eigenvalues two independent ways; refuse to disagree.

    Route 1: Pruefer phase integration in log radius (zeros of the
    mu = 0 solution, eigenvalues by phase bisection). Route 2: inertia of
    the finite-volume matrix (Sylvester), eigenvalues from LAPACK. Counts
    must match exactly or MethodDisagreement is raised; eigenvalue values
    are reported with their cross-method gap. Counts reaching `cap` are
    reported as capped (the oscillatory N <= 9 tails have infinite index).

    For potentials carried by interpolated numeric profiles the count is
    certified only up to the profile's own accuracy: treat it as a
    discretization-level answer, exact for closed-form K2.
    """
    if not isinstance(cap, int) or not 1 <= cap <= 32:
        raise ValueError(f"cap must be an integer in [1, 32], got {cap!r}")
    r_in = _prufer_inner_radius(k2, cap)
    pc = _prufer_count(k2, r_in)
    diag, off, _, _ = _fd_matrix(k2, n_fd, r_in)
    fc = _sturm_negative_count(diag, off)

    capped = pc >= cap and fc >= cap
    if not capped and pc != fc:
        raise MethodDisagreement(
            f"Pruefer count {pc} != finite-volume count {fc} "
            f"(cap {cap}, label {k2.label!r})"
        )

    eigen: tuple[float, ...] = ()
    fd_eigen: tuple[float, ...] = ()
    gap = 0.0
    if not capped and pc > 0:
        # bracket comfortably below the smallest eigenvalue
        smax = float(np.max(k2.smooth(np.linspace(1e-3, 1.0, 1025))))
        lo = min(-1.0, -smax - 1.0)
        eigen = tuple(_prufer_eigenvalue(k2, k, r_in, lo) for k in range(1, pc + 1))
        vals = eigvalsh_tridiagonal(diag, off, select="v",
                                    select_range=(lo * 4.0 - 10.0, 0.0))
        fd_eigen = tuple(float(v) for v in vals if v < 0.0)
        if len(fd_eigen) == len(eigen) and eigen:
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
        eigenvalues_below_zero=eigen,
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
