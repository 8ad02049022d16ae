"""Radial ODE layer for -Delta u = lambda a(|x|) e^u on the unit ball.

Everything here works in the shooting normalization

    v'' + (N-1)/r v' = -a(r) e^v,   v(0) = beta, v'(0) = 0,

for which lambda(beta) = e^{v(1)} and u = v - log lambda solves the
boundary-value problem. The first beta-derivative of v is integrated
jointly with v. A regular shoot takes its states from its Taylor series
at r = 0 (`_Series`) as far as that series is exact to rounding, and
integrates from there; so does the singular solution, from its Taylor
series in the Emden variable W = V + 2 log r - log 2(N-2)
(`_SingularSeries`), which for const and every a_h reaches r = 1. A
trace shoot steps in s = log r beyond its series, or, with const, reads
its steps off one Emden-Fowler trajectory per dimension
(`_emden_trajectory`).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from numbers import Integral
from operator import add, mul

import numpy as np

from . import _stepper
from .weights import Weight, make_ah, weight_args, weight_arrays, weight_source

BETA_MIN_GUARD = -50.0
BETA_MAX_GUARD = 60.0

_EXP_CAP = 500.0  # caps e^v: guards trial stages of rejected steps, not real states

# default output grid: geometric from r_start with this ratio until the
# spacing reaches the uniform spacing, then uniform out to R
_GRID_RATIO = 1.08
_GRID_H_UNIFORM = 2e-3

# a grid shoot steps no farther than min(0.02, 0.26 r) from r and fills its
# radii from its accepted steps: (cap, rel), `_stepper.solve`'s bound
_GRID_STEP = (0.02, 0.26)

# a regular shoot starts from its Taylor series at r = 0 (`_Series`): of
# this order in e^beta r^2, out to where its last terms fall below this
# size; a trace shoot's profile holds series states from r_start up to the
# series' radius at this ratio, and a shoot in r from there takes a first
# step of this fraction of the radius
_SERIES_ORDER = 24
_SERIES_EPS = 2.0 ** -52
_SERIES_RATIO = 1.15
_SERIES_FIRST_STEP = 0.02

# 9-point Gauss-Legendre nodes and weights on [-1, 1], numpy's leggauss(9)
# as literals: leggauss would start numpy's LAPACK, 0.8 MiB, for 18 numbers
_GAUSS9 = (
    (-0.9681602395076261, -0.8360311073266358, -0.6133714327005904, -0.3242534234038089, 0.0,
     0.3242534234038089, 0.6133714327005904, 0.8360311073266358, 0.9681602395076261),
    (0.08127438836157416, 0.18064816069485737, 0.2606106964029356, 0.3123470770400029,
     0.33023935500125984, 0.3123470770400029, 0.2606106964029356, 0.18064816069485737,
     0.08127438836157416),
)

# t^m..t^{2m-1} coefficients of a degree-(2m-1) Hermite segment on t in
# [0, 1] from the defects of its value and first m-1 derivatives at t = 1,
# each k-th derivative divided by k!: the inverse of those conditions'
# matrix C(m + j, k), k, j = 0..m-1 (m = 4: [[1, 1, 1, 1], [4, 5, 6, 7],
# [6, 10, 15, 21], [4, 10, 20, 35]])
_HERMITE_RIGHT = {
    4: np.array([[35.0, -15.0, 5.0, -1.0], [-84.0, 39.0, -14.0, 3.0],
                 [70.0, -34.0, 13.0, -3.0], [-20.0, 10.0, -4.0, 1.0]]),
    5: np.array([[126.0, -56.0, 21.0, -6.0, 1.0], [-420.0, 196.0, -77.0, 23.0, -4.0],
                 [540.0, -260.0, 106.0, -33.0, 6.0], [-315.0, 155.0, -65.0, 21.0, -4.0],
                 [70.0, -35.0, 15.0, -5.0, 1.0]]),
}


def _hermite_coeffs(h, left, right):
    """The power-basis coefficients, in t = (r - x0) / h, of the
    degree-(2m-1) Hermite interpolant on [x0, x0 + h] of the m jets (f, f',
    f'', ...) `left` at x0 and `right` at x0 + h, m in {4, 5}: the Taylor
    ones at x0, then m that `_HERMITE_RIGHT[m]` fits to x0 + h. Arrays
    broadcast, so one call can serve several functions, one a column."""
    m = len(left)
    scale = [1.0]  # h^k / k!
    for k in range(1, m):
        scale.append(scale[-1] * h / k)
    low = [s * f for s, f in zip(scale, left)]
    # what the Taylor part misses at x0 + h, k-th derivatives times h^k / k!
    defect = np.array([s * f - sum((math.comb(n, k) * low[n] for n in range(k + 1, m)), low[k])
                       for k, (s, f) in enumerate(zip(scale, right))])
    high = _HERMITE_RIGHT[m] @ defect.reshape(m, -1)  # one product for every column
    return low + list(high.reshape(defect.shape))


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule."""
    val = coeffs[-1]
    for c in coeffs[-2::-1]:
        val = val * t + c
    return val


def _hermite_read(x, jets, r):
    """The Hermite interpolant at r of the jets (f, f', ...) at the
    increasing nodes x, each segment [x_i, x_{i+1}] its own, by
    `_hermite_coeffs`; the columns of 2-D jets broadcast."""
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
    h = np.diff(x)
    t = (r - x[i]) / h[i]
    if jets[0].ndim == 2:
        h, t = h[:, None], t[:, None]
    coeffs = _hermite_coeffs(h, [f[:-1] for f in jets], [f[1:] for f in jets])
    return _horner([c[i] for c in coeffs], t)


@dataclass(frozen=True)
class ProblemConfig:
    dim: int
    weight: Weight
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_start: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.dim, Integral):
            raise ValueError(f"dimension must be an integer, got {self.dim!r}")
        if not 3 <= self.dim <= 12:
            raise ValueError(f"dimension {self.dim} outside [3, 12]")
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 1e-13 <= tol <= 1e-6:
                raise ValueError(f"{name}={tol} outside [1e-13, 1e-6]")
        if not 0.0 < self.r_start <= 1e-3:
            raise ValueError(f"r_start={self.r_start} outside (0, 1e-3]")
        if self.weight.dim is not None and self.weight.dim != self.dim:
            raise ValueError(
                f"weight bound to dimension {self.weight.dim}, config says {self.dim}"
            )


def default_grid(cfg: ProblemConfig, R: float = 1.0) -> np.ndarray:
    """Geometric-then-uniform output radii on [r_start, R]: ratio 1.08 from
    r_start until the spacing reaches 2e-3, then uniform (561 radii from
    r_start = 1e-4 to 1).

    The spacing serves the flux and Pohozaev quadratures, which read the
    samples. No shoot lands on every radius: a regular shoot and the
    singular solution take the radii up to their series' radius r0 from
    the series (for the singular solution of const and a_h, all 561),
    step beyond r0 no farther than min(0.02, 0.26 r) from r, land on r = 1
    only (and on r_start where r0 lies farther below it than that bound),
    and fill the rest from their accepted steps (`_grid_states`). Grid
    shoots without radii read this grid from `_default_radii`, built once
    per r_start.
    """
    return _grid(cfg.r_start, R)


def _grid(r_start: float, R: float) -> np.ndarray:
    """`default_grid` from r_start to R."""
    pts = [r_start]
    r = r_start
    ratio, h_u = _GRID_RATIO, _GRID_H_UNIFORM
    while r * (ratio - 1.0) < h_u and r * ratio < R:
        r *= ratio
        pts.append(r)
    if pts[-1] < R:
        n = max(1, math.ceil((R - pts[-1]) / h_u))
        h = (R - pts[-1]) / n
        base = pts[-1]
        pts.extend(base + k * h for k in range(1, n + 1))
    pts[-1] = R
    return np.asarray(pts)


class RadialProfile:
    """Sampled radial function: radii, values, first derivatives, outer
    radius R. Shoots return plain containers, read by `hermite_values` and
    the flux and Pohozaev checks (`_gauss_cells`); a numeric potential
    (`spectral.RadialPotential`) is built by `from_jets`, whose degree-7
    Hermite coefficients `evaluate_array` and `scalar_value` read. Those
    coefficients, the grid fills, `hermite_values` and the identity checks
    all come from one builder, `_hermite_coeffs`."""

    __slots__ = ("radii", "values", "derivs", "R", "coeffs")

    def __init__(self, radii, values, derivs, R=None):
        self.radii = np.asarray(radii, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        self.R = float(R if R is not None else self.radii[-1])
        self.coeffs = None

    def __len__(self):
        return len(self.radii)

    @classmethod
    def from_jets(cls, radii, jets):
        """The profile of f from arrays: jets = (f, f', f'', f''') at the
        `radii`, which never decrease; a repeated radius is dropped, and
        fewer than two distinct radii raise ValueError. Each segment keeps
        the power-basis coefficients of the degree-7 Hermite interpolant of
        f, f', f'' and f''' at its ends (`_hermite_coeffs`), scaled from
        t = u / h to u = r - x_i.
        """
        keep = np.concatenate(([True], np.diff(radii) > 0.0))
        if np.count_nonzero(keep) < 2:
            raise ValueError("a potential needs two or more distinct radii")
        x, *jets = (arr[keep] for arr in (radii, *jets))
        h = np.diff(x)
        coeffs = _hermite_coeffs(h, [f[:-1] for f in jets], [f[1:] for f in jets])
        prof = cls(x, jets[0], jets[1])
        prof.coeffs = np.column_stack([c / h ** k for k, c in enumerate(coeffs)])
        return prof

    def _segments(self):
        if self.coeffs is None:
            raise ValueError("this profile holds samples only: build a reader with "
                             "RadialProfile.from_jets, or read a shoot with hermite_values")
        return self.coeffs

    def evaluate_array(self, r):
        """The interpolant of `from_jets` at the radii r, by Horner; the
        even quadratic through the first node's value and slope below it;
        ValueError beyond R (to 1e-12 relative), or on a profile that
        `from_jets` did not build. The finite-volume matrix and the
        eigenvalue bracket of `spectral.morse_index` call it."""
        coeffs = self._segments()
        r = np.asarray(r, dtype=float)
        if np.any(r > self.R * (1.0 + 1e-12)):
            raise ValueError("evaluation beyond the profile's outer radius")
        rr = np.minimum(r, self.R)
        x = self.radii
        i = np.clip(np.searchsorted(x, rr, side="right") - 1, 0, len(x) - 2)
        val = _horner(coeffs[i].T, rr - x[i])
        below = rr < x[0]
        if np.any(below):
            # even quadratic through (x0, f0) with slope d0 there
            q = self.derivs[0] / (2.0 * x[0])
            val = np.where(below, self.values[0] + q * (rr * rr - x[0] * x[0]), val)
        return val

    def scalar_value(self):
        """A closure r -> the value `evaluate_array` gives at the float r,
        for the Pruefer right-hand side, which asks for one radius at a
        time: the same operations on the same coefficients, so bit-identical
        to evaluate_array, and a Python float on every branch."""
        x, rows = self.radii.tolist(), self._segments().tolist()
        R = self.R
        r_max = R * (1.0 + 1e-12)
        x_first, f_first = x[0], float(self.values[0])
        q = float(self.derivs[0]) / (2.0 * x_first)
        x_first2 = x_first * x_first
        last = len(x) - 2

        def value(r):
            if r > r_max:
                raise ValueError("evaluation beyond the profile's outer radius")
            if r > R:
                r = R
            if r < x_first:
                return f_first + q * (r * r - x_first2)
            i = min(bisect_right(x, r) - 1, last)
            c0, c1, c2, c3, c4, c5, c6, c7 = rows[i]
            u = r - x[i]
            return ((((((c7 * u + c6) * u + c5) * u + c4) * u + c3) * u + c2) * u + c1) * u + c0

        return value


@dataclass(frozen=True)
class ShootResult:
    """A shoot at beta: lambda, alpha, v(1) and dlambda/dbeta, and the
    profiles of v and of its first variation e = dv/dbeta. A shoot of
    `integrate_ivp` or `trace_lanes` holds its state at r = 1 from the
    start and builds both profiles on the first read of either
    (`_shoot_result`): a march reads neither, only v(1) and dlambda/dbeta."""

    beta: float
    lam: float
    alpha: float
    v1: float
    dlambda_dbeta: float
    profile: RadialProfile
    variation_profile: RadialProfile

    def __getattr__(self, name):
        # reached for the profiles only while they are unbuilt
        if name not in ("profile", "variation_profile") or "_samples" not in vars(self):
            raise AttributeError(f"'ShootResult' object has no attribute {name!r}")
        radii, states = vars(self)["_samples"]()
        vars(self).update(profile=RadialProfile(radii, states[:, 0], states[:, 1]),
                          variation_profile=RadialProfile(radii, states[:, 2], states[:, 3]))
        del vars(self)["_samples"]
        return vars(self)[name]


@functools.lru_cache(maxsize=64)
def _weight_series(w: Weight) -> tuple[float, ...]:
    """alpha_0..alpha_{K-1} of a(r) = sum_j alpha_j r^{2j}, K =
    _SERIES_ORDER: the polynomial times the series of exp(d r^2)."""
    tilt = [1.0]
    for j in range(1, _SERIES_ORDER):
        tilt.append(tilt[-1] * w.tilt / j)
    poly = (1.0, *w.coeffs)
    return tuple(_dot(poly[:j + 1], tilt[j::-1]) for j in range(_SERIES_ORDER))


def _dot(a, b):
    """sum_k a_k b_k over the shorter of a and b, added left to right from
    0.0: the same bits on floats and, entry by entry, on arrays. sum() adds
    so only up to Python 3.11; from 3.12 on it compensates float sums."""
    return functools.reduce(add, map(mul, a, b), 0.0)


def _exp_step(kw, E) -> float:
    """The next term E_k, k = len(E), of the series E = e^w from E_0..E_{k-1}
    and kw = (1 w_1, 2 w_2, ...): (1/k) sum_j j w_j E_{k-j}, over the j that
    kw holds; with k - 1 of them, the part of E_k without w_k."""
    return _dot(kw, reversed(E)) / len(E)


def _series_radius(last, eps, shift) -> float:
    """The largest tau at which the `last` two rows of tau^k terms, k = K - 1
    and K = _SERIES_ORDER, are each at most eps[c] tau^shift[c] in every
    column c, or inf where all of them are 0."""
    return min(((e / abs(t)) ** (1.0 / (k - sh))
                for k, row in zip((_SERIES_ORDER - 1, _SERIES_ORDER), last)
                for e, sh, t in zip(eps, shift, row) if t),
               default=math.inf)


def _power_sums(tau, terms) -> np.ndarray:
    """sum_k terms[k - 1] tau^k for each tau: the powers by repeated
    products, summed with the terms row by row (einsum, not a BLAS
    product), so that a radius reads the same whichever radii come with
    it. terms shaped (K, c) serve every tau; shaped (n, K, c), one (K, c)
    block per tau, they give each tau the bits of its block alone."""
    powers = np.cumprod(np.repeat(tau[:, None], terms.shape[-2], axis=1), axis=1)
    return np.einsum("nk,kc->nc" if terms.ndim == 2 else "nk,nkc->nc", powers, terms)


def _scaled_series(w: Weight, sigma):
    """alpha_j / sigma^j of the weight series (`_weight_series`), underflowing
    to 0, for a float sigma or an array of them."""
    alpha, q = [], 1.0
    for a in _weight_series(w):
        alpha.append(a * q)
        q /= sigma
    return alpha


def _regular_terms(N: int, alpha, s):
    """The rows k = 1..K of `_Series`' tau^k terms of v, r v' / 2, e and
    r e' / 2, and its tau0, from the scaled weight series alpha and s.

    The lines run on floats, or on arrays of one entry per beta
    (`_Series.lanes`): then s is an array, the terms come shaped (K, 4,
    betas) and tau0 as a list. Entry by entry the arrays hold the floats'
    bits, since every operation is elementwise and correctly rounded and
    every sum adds left to right (`_dot`); tau0 is found on each beta's
    floats, where the power is Python's, which numpy's rounds apart from.
    """
    E, F, G, kb = [1.0], [], [1.0], []  # kb: k b_k
    for k in range(1, _SERIES_ORDER + 1):
        F.append(_dot(alpha, reversed(E)))
        c = -s / (2.0 * k * (2.0 * k + N - 2.0))
        kb.append(k * c * F[-1])
        G.append(c * _dot(F, reversed(G)))
        E.append(_exp_step(kb, E))
    terms = np.array([(kb_k / k, kb_k, g, k * g)
                      for k, kb_k, g in zip(range(1, _SERIES_ORDER + 1), kb, G[1:])])
    # v and e are near beta and 1, and r v' and r e' are held to their
    # first terms: the last two terms of each, at most _SERIES_EPS
    ends = terms[[0, -2, -1]].reshape(3, 4, -1).transpose(2, 0, 1).tolist()  # per beta
    tau0 = [_series_radius(last, (_SERIES_EPS, _SERIES_EPS * abs(b1), _SERIES_EPS,
                                  _SERIES_EPS * abs(g1)), (0, 1, 0, 1))
            for (_, b1, g1, _), *last in ends]
    return terms, tau0 if terms.ndim == 3 else tau0[0]


def _is_flat(w: Weight) -> bool:
    """Whether w has no coefficients and no tilt (const, a_0): then the
    series at every beta is `_flat_terms`'."""
    return not w.coeffs and not w.tilt


@functools.cache
def _flat_terms(N: int):
    """`_regular_terms` of the constant weight (and a_0) with sigma = e^beta,
    once per dimension: then alpha_j / sigma^j = 0 for j >= 1 and s = 1,
    so they are the same for every beta."""
    return _regular_terms(N, _weight_series(Weight(spec="const", coeffs=(), tilt=0.0)), 1.0)


@functools.lru_cache(maxsize=8)
def _emden_trajectory(N: int, rel_tol: float, abs_tol: float):
    """The constant weight's whole branch as one trajectory, once per
    dimension and tolerances: (fun, t, zs), fun its right-hand side, t the
    accepted steps in t = log rho from rho0 = sqrt(tau0), the flat series'
    radius (`_flat_terms`), to BETA_MAX_GUARD / 2, and zs the states there,
    rows (z, z_t).

    With a = 1 the equation is scale-invariant: v(r; beta) = beta + w(rho),
    rho = e^{beta/2} r, w the beta = 0 solution. In z = w + 2 log rho -
    log 2(N-2) it is autonomous (Joseph and Lundgren, ARMA 49, 1973),

        z_tt = -(N-2) z_t - 2(N-2) expm1(z),

    and it starts from the flat series' state at rho0. A shoot at beta
    reads it up to t = beta/2 (`_emden_shoot`). z tends to 0 where v runs
    up to beta, so the same tolerances hold it tighter than a shoot at beta.
    """
    terms, tau0 = _flat_terms(N)
    w, half_rw = _power_sums(np.array([tau0]), terms)[0, :2].tolist()
    t0 = 0.5 * math.log(tau0)
    fun = _compiled_rhs("emden", 0, False)(N - 2.0)
    y0 = [w + 2.0 * t0 - math.log(2.0 * (N - 2.0)), 2.0 + 2.0 * half_rw]
    _, t, zs = _stepper.solve(fun, t0, y0, [0.5 * BETA_MAX_GUARD], rel_tol, abs_tol,
                              first_step=_SERIES_FIRST_STEP, collect=True)
    t, zs = np.array(t), np.array(zs)
    t.flags.writeable = zs.flags.writeable = False  # every shoot reads these
    return fun, t, zs


def _emden_shoot(cfg: ProblemConfig, series) -> ShootResult:
    """The trace shoot of a flat series (`_Series`) whose radius r0 lies
    below 1: beyond r0 it reads `_emden_trajectory`'s accepted steps in
    (t0, beta/2), at r = e^{t - beta/2}, and lands on r = 1.0 by one
    clamped solve from the last of them, its first step the whole remaining
    span. That solve's end gives v(1) = z + log 2(N-2) and e(1) = z_t / 2
    at once, the steps' states (`_emden_steps`) the profile on first read."""
    N, beta = cfg.dim, series.beta
    fun, t, zs = _emden_trajectory(N, cfg.rel_tol, cfg.abs_tol)
    t1 = 0.5 * beta
    k = max(int(np.searchsorted(t, t1)), 1)  # t[:k] < t1
    t_last = float(t[k - 1])
    end = _stepper.solve(fun, t_last, zs[k - 1].tolist(), [t1], cfg.rel_tol, cfg.abs_tol,
                         first_step=t1 - t_last)[0]
    return _shoot_result(beta, end[0] + math.log(2.0 * (N - 2.0)), 0.5 * end[1],
                         lambda: _trace_profile(cfg, series,
                                                *_emden_steps(N, t[1:k] - t1, zs[1:k], end)))


def _emden_steps(N: int, s, zs, end):
    """The radii and rows (v, r v', e, r e') of `_emden_shoot`'s steps: the
    trajectory's states zs, rows (z, z_t), at s = log r, and then `end` at
    r = 1.0. With s = log r,

        v = z - 2 s + log 2(N-2),  r v' = z_t - 2,  e = z_t / 2,  r e' = z_tt / 2.
    """
    s = np.append(s, 0.0)
    z, dz = np.vstack((zs, end)).T
    ddz = -(N - 2.0) * (dz + 2.0 * np.expm1(z))
    return np.exp(s), np.column_stack((z - 2.0 * s + math.log(2.0 * (N - 2.0)), dz - 2.0,
                                       0.5 * dz, 0.5 * ddz))


class _Series:
    """The Taylor series at r = 0 of a regular shoot's v and e = dv/dbeta,
    to order K = _SERIES_ORDER in tau = sigma r^2, sigma = e^{max(beta, 0)}
    (e^beta for const and a_0, below),

        v = beta + sum_k b_k tau^k,   e = 1 + sum_k g_k tau^k,

    and its radius r0: the largest r <= 1 at which the last two terms of v
    and e are at most _SERIES_EPS = 2^-52, and those of r v' and r e' at
    most 2^-52 times their first terms. With const, r0 = min(1, rho0
    e^{-beta/2}), rho0 = 1.34 at N=3 and 2.13 at N=10, so r0 = 1 for beta
    <= 0; a steep weight lowers it (a_40: 0.31 at N=3, 0.58 at N=10, beta
    = 0).

    w = v - beta solves (r^{N-1} w')' = -r^{N-1} e^beta a e^w. With the
    weight's series a = sum_j alpha_j r^{2j}, read as alpha_j / sigma^j in
    tau, E = e^w and F = a E as series in tau:
    2k(2k+N-2) b_k = -s F_{k-1} with s = e^beta / sigma, E_k = (1/k)
    sum_j j b_j E_{k-j} (the exp series), and e solves the linearized
    equation: 2k(2k+N-2) g_k = -s (F G)_{k-1}, G = e. Splitting e^beta
    between sigma and s keeps the terms alpha_j / sigma^j, j >= 1, finite
    over the guard range: in r alone the factor e^{k beta} of tau^k
    overflows from beta ~ 30, and in e^beta r^2 alone alpha_j e^{-j beta}
    from beta ~ -31 down. A weight with no such terms (const, a_0) takes
    sigma = e^beta at every beta, so its terms and tau0 do not depend on
    beta (`_flat_terms`, built once per dimension), and a shoot's series
    costs no recurrence. `flat` marks those shoots; beyond r0 a trace shoot
    among them reads the Emden trajectory (`_emden_shoot`).

    The start state, the series' state at r0, is built on first read
    (`start`). `lanes` builds the series of many betas at once, as a
    march's lane batch needs them (`trace_lanes`): `_regular_terms` runs
    its lines once on arrays of an entry per beta, and one evaluation of
    the power sums gives every start; each beta's terms, tau0 and start
    are bit for bit those of one `_Series`.

    The order: at 16, a_40's series at N=12 gives r0 = 0.50 for beta <~ -20,
    and beyond it a shoot's v' (about e^beta, far below abs_tol) is 0.6 %
    off at r = 1; at 24, r0 = 0.99 and v'(1) is exact to rounding.
    """

    __slots__ = ("beta", "sigma", "flat", "terms", "r0", "_start")

    def __init__(self, cfg: ProblemConfig, beta: float):
        flat = _is_flat(cfg.weight)
        sigma = math.exp(beta if flat else max(beta, 0.0))
        self._fill(beta, sigma, flat, *(_flat_terms(cfg.dim) if flat else _regular_terms(
            cfg.dim, _scaled_series(cfg.weight, sigma), math.exp(min(beta, 0.0)))))

    @classmethod
    def lanes(cls, cfg: ProblemConfig, betas) -> list:
        """`_Series(cfg, beta)` at each of `betas`, starts included, bit for
        bit; sigma and s are each beta's floats, numpy's exp rounding apart
        from Python's."""
        flat = _is_flat(cfg.weight)
        sigma = np.array([math.exp(beta if flat else max(beta, 0.0)) for beta in betas])
        if flat:
            terms, tau0 = _flat_terms(cfg.dim)
            terms, tau0 = np.broadcast_to(terms, (len(betas), *terms.shape)), [tau0] * len(betas)
        else:
            s = np.array([math.exp(min(beta, 0.0)) for beta in betas])
            terms, tau0 = _regular_terms(cfg.dim, _scaled_series(cfg.weight, sigma), s)
            # each beta's terms contiguous, laid out as the floats' would be
            terms = np.ascontiguousarray(terms.transpose(2, 0, 1))
        out = [cls.__new__(cls) for _ in betas]
        for series, beta, sig, t, tau in zip(out, betas, sigma.tolist(), terms, tau0):
            series._fill(beta, sig, flat, t, tau)
        starts = _series_states(np.array(betas, dtype=float), sigma, terms,
                                np.array([series.r0 for series in out]))
        for series, start in zip(out, starts.tolist()):
            series._start = start
        return out

    def _fill(self, beta, sigma, flat, terms, tau0):
        self.beta, self.sigma, self.flat, self.terms = beta, sigma, flat, terms
        self.r0 = min(1.0, math.sqrt(tau0 / sigma))
        self._start = None

    @property
    def start(self) -> list:
        """[v, v', e, e'] at r0, built on first read."""
        if self._start is None:
            self._start = self.states([self.r0])[0].tolist()
        return self._start

    def states(self, r) -> np.ndarray:
        """Rows (v, v', e, e') at the radii r, at most r0."""
        return _series_states(self.beta, self.sigma, self.terms, np.asarray(r, dtype=float))


def _series_states(beta, sigma, terms, r) -> np.ndarray:
    """Rows (v, v', e, e') of the series at beta, sigma and terms (`_Series`)
    at the radii r (`_power_sums`); or, with an entry of beta, sigma and r
    and a block of terms per row, each row's at its own radius."""
    s = _power_sums(sigma * r * r, terms)
    s[:, 0] += beta
    s[:, 1] *= 2.0 / r
    s[:, 2] += 1.0
    s[:, 3] *= 2.0 / r
    return s


@functools.lru_cache(maxsize=8)
def _series(cfg: ProblemConfig, beta: float) -> _Series:
    """The series of the regular shoot at beta, kept for the flux check
    and the grid fills of the shoot just made."""
    return _Series(cfg, beta)


def series_start(cfg: ProblemConfig, beta: float, r: float):
    """[v, v', e, e'] at r from the Taylor series, exact to rounding for r
    up to its radius r0 (`_Series`)."""
    return _series(cfg, beta).states([r])[0].tolist()


class _SingularSeries:
    """The Taylor series at r = 0 of the singular solution in the Emden
    variable W = V + 2 log r - log 2(N-2), to order K = _SERIES_ORDER in
    tau = r^2: W = sum_k c_k tau^k, W(0) = 0.

    In s = log r, W_ss + (N-2) W_s + 2(N-2)(a e^W - 1) = 0. The weight
    a = p(tau) e^{d tau}, p its polynomial, gives a e^W = p E with E = e^y,
    y = W + d tau, by the exp series (`_exp_step`), and the tau^k terms

        [4k^2 + 2k(N-2) + 2(N-2)] c_k = -2(N-2) R_k,

    R_k the part of (p E)_k without c_k; c_1 = -(N-2) a''(0) / (4(N-1)) is
    `singular_series_coefficient`. The tilt goes into the exponent, where
    it cancels W exactly for a_h: y = 0, W = -h tau / (2N), every c_k from
    k = 2 on is 0 and r0 = 1. With a's own series (`_weight_series`) the
    products alpha_j E_{k-j} cancel only to rounding of their size, which
    left c_k up to 3e-13 for a_40 at N=3.

    Any other solution near the -2 log r branch leaves it like r^mu,
    mu^2 + (N-2) mu + 2(N-2) = 0, Re mu < 0, so its W is unbounded at r = 0:
    the bounded series is the singular solution. Its radius r0 is the
    largest r <= 1 at which the last two terms of W and of r W' are at most
    _SERIES_EPS = 2^-52 and 2^-51, next to the -2 log r + log 2(N-2) of V
    and the -2 of r V'. const and every a_h reach r0 = 1; polyexp weights
    stop earlier (polyexp:1.5;d=0.5: 1 at N=3, 0.70 at N=10).
    """

    __slots__ = ("terms", "log2nm2", "r0", "start")

    def __init__(self, cfg: ProblemConfig):
        N, w = cfg.dim, cfg.weight
        poly = (1.0, *w.coeffs)
        E, ky, cs = [1.0], [], []  # ky: k y_k
        for k in range(1, _SERIES_ORDER + 1):
            low = _exp_step(ky, E)  # E_k without y_k
            tilt = w.tilt if k == 1 else 0.0
            c = (-2.0 * (N - 2.0) * (_dot(poly[1:k + 1], reversed(E)) + low + tilt)
                 / (4.0 * k * k + 2.0 * (k + 1) * (N - 2.0)))
            cs.append(c)
            ky.append(k * (c + tilt))
            E.append(low + c + tilt)
        # rows k = 1..K: the tau^k terms of W, r W', r^2 W'' and r^3 W'''
        rows = [(c, 2 * k * c, 2 * k * (2 * k - 1) * c, 4 * k * (2 * k - 1) * (k - 1) * c)
                for k, c in enumerate(cs, start=1)]
        self.terms = np.array(rows)
        tau0 = _series_radius(rows[-2:], (_SERIES_EPS, 2.0 * _SERIES_EPS), (0, 0))
        self.log2nm2 = math.log(2.0 * (N - 2.0))
        self.r0 = min(1.0, math.sqrt(tau0))
        self.start = self.states([self.r0])[0].tolist()

    def emden(self, r) -> np.ndarray:
        """Rows (W, r W', r^2 W'', r^3 W''') at the radii r, at most r0."""
        r = np.asarray(r, dtype=float)
        return _power_sums(r * r, self.terms)

    def states(self, r) -> np.ndarray:
        """Rows (V, V') at the radii r, at most r0."""
        r = np.asarray(r, dtype=float)
        w = self.emden(r)
        return np.column_stack((w[:, 0] - 2.0 * np.log(r) + self.log2nm2, (w[:, 1] - 2.0) / r))


@functools.lru_cache(maxsize=8)
def _singular_series(cfg: ProblemConfig) -> _SingularSeries:
    """The singular series of cfg, kept for `integrate_singular` and the
    potential of the profile it gave."""
    return _SingularSeries(cfg)


def _check_beta(beta: float) -> None:
    if not BETA_MIN_GUARD <= beta <= BETA_MAX_GUARD:
        raise ValueError(f"beta={beta} outside guard range [{BETA_MIN_GUARD}, {BETA_MAX_GUARD}]")


# The radial right-hand sides as source lines: (independent variable,
# state, its parameter N - 1 or N - 2, lines before and after those of
# weights.weight_source, which set a = a(r), and the derivative).
# `_compiled_rhs` builds from them the callable and the DOP853 stage that
# inlines them. What reads the abscissa alone stands first, on lines of its
# own, which the lane stage evaluates once per attempt.
_RHS = {
    # y = (v, v', e, e')
    "ve": ("r", ("v", "dv", "e", "de"), "nm1", (),
           ("c = nm1 / r", "g = a * exp(v if v < cap else cap)"),
           ("dv", "-c * dv - g", "de", "-c * de - g * e")),
    # y = (v, r v', e, r e') as functions of s = log r:
    # v_ss = -(N-2) v_s - r^2 a e^v, and e likewise
    "ve_log": ("s", ("v", "dv", "e", "de"), "nm2", ("r = exp(s)",),
               ("ra = r * r * a", "g = ra * exp(v if v < cap else cap)"),
               ("dv", "-nm2 * dv - g", "de", "-nm2 * de - g * e")),
    # y = (v, v'): the singular solution carries no variation
    "v": ("r", ("v", "dv"), "nm1", (),
          ("g = a * exp(v if v < cap else cap)",),
          ("dv", "-nm1 / r * dv - g")),
    # y = (z, z_t) as functions of t = log rho, the constant weight's
    # Emden-Fowler form (`_emden_trajectory`); it reads no weight:
    # z_tt = -(N-2) z_t - 2(N-2) expm1(z)
    "emden": ("t", ("z", "dz"), "nm2", (), (),
              ("dz", "-nm2 * (dz + 2.0 * expm1(z if z < cap else cap))")),
}


@functools.cache
def _compiled_rhs(kind: str, k: int, tilted: bool):
    """make(N - 1 or N - 2, *weight_args(w)) -> fun for the right-hand
    side `kind` with a weight of k coefficients, tilted or not: compiled on
    first use, once per shape, so that no config and no shoot compiles.
    The "emden" kind reads no weight: make(N - 2), with k = 0 untilted."""
    x, state, nm, head, tail, out = _RHS[kind]
    if kind == "emden":
        params, weight, name = (), (), kind
    else:
        params, weight = weight_source(k, tilted)
        name = f"{kind}, {k} coefficients{', tilted' if tilted else ''}"
    rhs = _stepper.Rhs(x, state, (nm, *params), (*head, *weight, *tail), out)
    return _stepper.compile_rhs(rhs, {"exp": math.exp, "expm1": math.expm1, "cap": _EXP_CAP},
                                name)


def _rhs(kind: str, cfg: ProblemConfig, nm: float):
    w = cfg.weight
    return _compiled_rhs(kind, len(w.coeffs), w.tilt != 0.0)(nm, *weight_args(w))


def _rhs_ve(cfg: ProblemConfig):
    """y = (v, v', e, e')."""
    return _rhs("ve", cfg, float(cfg.dim - 1))


def _rhs_ve_log(cfg: ProblemConfig):
    """y = (v, r v', e, r e') as functions of s = log r."""
    return _rhs("ve_log", cfg, float(cfg.dim - 2))


def _rhs_v(cfg: ProblemConfig):
    """y = (v, v'): the singular solution."""
    return _rhs("v", cfg, float(cfg.dim - 1))


def _integrate(cfg: ProblemConfig, fun, r0: float, y0, nodes):
    """Integrate from the start state y0 at r0 through `nodes`, with a
    first step of _SERIES_FIRST_STEP r0.

    A first node at r0 (to 1e-12 relative) is the start state itself. A
    nonpositive weight, hit while extending beyond r = 1, ends in an
    IntegrationError. Returns (states at the nodes, xs, ys) with every
    accepted step.
    """
    head = []
    if nodes[0] <= r0 * (1.0 + 1e-12):
        head, nodes = [y0], nodes[1:]
        if not nodes:
            return head, [r0], head
    states, xs, ys = _stepper.solve(
        fun, r0, y0, nodes, cfg.rel_tol, cfg.abs_tol,
        first_step=_SERIES_FIRST_STEP * r0, collect=True, bound=_GRID_STEP,
    )
    return head + states, xs, ys


def _run(cfg: ProblemConfig, beta: float, nodes):
    """States at `nodes` (not decreasing): the series' (`_Series`) at the
    nodes up to its radius r0, and beyond r0 those of one shoot from the
    series' state there that lands on each node. Returns (states at the
    nodes, xs, ys) with that shoot's accepted steps from r0 on, which are
    empty where the series covers every node: then no `solve` call is made.
    """
    series = _series(cfg, beta)
    k = bisect_right(nodes, series.r0)
    head = series.states(nodes[:k]).tolist() if k else []
    if k == len(nodes):
        return head, [], []
    states, xs, ys = _integrate(cfg, _rhs_ve(cfg), series.r0, series.start, nodes[k:])
    return head + states, xs, ys


def _log_start(series):
    """The start (s0, [v, r v', e, r e']) at s0 = log r0 of a trace shoot's
    log-r phase from the radius r0 of its `series` (`_Series`), or None
    where r0 = 1."""
    r0 = series.r0
    if r0 == 1.0:
        return None
    v, dv, e, de = series.start
    return math.log(r0), [v, r0 * dv, e, r0 * de]


def _trace_profile(cfg: ProblemConfig, series, r=(), ws=()):
    """The radii and states, rows (v, v', e, e'), of a trace shoot of the
    `series` (`_Series`), ending at r = 1.0: the series' states from r_start
    up to its radius r0 at a ratio of at most _SERIES_RATIO, and those of
    its steps beyond r0 at the radii r, rows ws = (v, r v', e, r e') (its
    log-r phase, or `_emden_steps`); where r0 lies below r_start, from the
    last radius at or below r_start on."""
    r0 = series.r0
    n = math.ceil(math.log(r0 / cfg.r_start) / math.log(_SERIES_RATIO))
    radii = np.geomspace(cfg.r_start, r0, n + 1) if n > 0 else np.array([r0])
    states = series.states(radii)
    if len(r):
        ws = np.asarray(ws)
        radii = np.concatenate((radii, r))
        states = np.concatenate((states, np.column_stack(
            (ws[:, 0], ws[:, 1] / r, ws[:, 2], ws[:, 3] / r))))
    first = bisect_right(radii, cfg.r_start) - 1
    return radii[first:], states[first:]


def _trace_shoots(cfg: ProblemConfig, series, log_phases) -> list:
    """The trace shoots of the `series` (`_Series`), each a ShootResult or
    the IntegrationError that ended it, ending at r = 1.0 exactly. Where
    r0 = 1 a shoot makes no `solve` call. With const (and a_0) where r0 < 1
    it reads its steps beyond r0 off the one Emden-Fowler trajectory of the
    dimension, and its own `solve` call only lands on r = 1
    (`_emden_shoot`). Any other shoot steps in s = log r from s0 = log r0
    to 0 (`_log_start`): past the boundary layer v follows the nearly
    linear -2 log r + log 2(N-2), where steps in r would have to stay near
    0.04 r, and within the layer, from the series' radius on, steps in
    log r cost as much as steps in r. The log-r phases run as
    log_phases(starts), which gives per start (s0, y0) the radii and rows
    (v, r v', e, r e') of that phase's accepted steps beyond s0, or an
    IntegrationError: on `solve` for `integrate_ivp` (`_solve_phases`), in
    lanes for `trace_lanes` (`_lane_phases`).

    Each shoot takes lambda, alpha and dlambda/dbeta from its state at
    r = 1 at once, and keeps its series and steps for its profiles, which
    it builds on first read (`_trace_profile`)."""
    shots, logs = [], []
    for ser in series:
        if ser.flat and ser.r0 < 1.0:
            try:
                shots.append(_emden_shoot(cfg, ser))
            except _stepper.IntegrationError as exc:
                shots.append(exc)
            continue
        log = _log_start(ser)
        if log is None:
            shots.append(_shoot_result(ser.beta, ser.start[0], ser.start[2],
                                       functools.partial(_trace_profile, cfg, ser)))
        else:
            logs.append((len(shots), ser, log))
            shots.append(None)
    for (i, ser, _), end in zip(logs, log_phases([log for *_, log in logs])):
        shots[i] = end if isinstance(end, _stepper.IntegrationError) else _shoot_result(
            ser.beta, end[1][-1][0], end[1][-1][2],
            functools.partial(_trace_profile, cfg, ser, *end))
    return shots


def _solve_phases(cfg: ProblemConfig, starts) -> list:
    """The log-r phases from `starts`, one `_stepper.solve` each."""
    ends = []
    for s0, y0 in starts:
        _, ss, ws = _stepper.solve(_rhs_ve_log(cfg), s0, y0, [0.0], cfg.rel_tol, cfg.abs_tol,
                                   collect=True)
        ends.append((np.array([math.exp(s) for s in ss[1:]]), ws[1:]))
    return ends


# the most log-r phases `trace_lanes` shoots as one batch of lanes
_LANE_BATCH = 256


def _lane_phases(cfg: ProblemConfig, starts) -> list:
    """The log-r phases from `starts` as batches of at most _LANE_BATCH
    lanes of `_stepper.solve_lanes`."""
    ends = []
    for k in range(0, len(starts), _LANE_BATCH):
        s0, y0 = zip(*starts[k:k + _LANE_BATCH])
        ends += [lane if isinstance(lane, _stepper.IntegrationError) else
                 (np.exp(lane.xs[1:]), lane.ys[1:])
                 for lane in _stepper.solve_lanes(_rhs_ve_log(cfg), s0, np.transpose(y0),
                                                  np.zeros(len(s0)), cfg.rel_tol, cfg.abs_tol)]
    return ends


def trace_lanes(cfg: ProblemConfig, betas) -> list:
    """The trace shoots at `betas`, each a ShootResult or the
    IntegrationError that ended it: a march's shoots
    (`bifurcation.trace_curve`). With a weight of no coefficients and no
    tilt (const, a_0) each is `integrate_ivp(cfg, beta, trace=True)`,
    which reads the Emden trajectory beyond its series' radius. With any
    other weight, whatever the sign of beta, their series come from one
    recurrence on arrays and their start states from one evaluation
    (`_Series.lanes`), bit for bit those of the shoots one by one, and
    their log-r phases, from each series' radius
    r0 < 1 to r = 1, run as batches of at most _LANE_BATCH lanes of
    `_stepper.solve_lanes`: such a shoot makes no `solve` call. A lane's
    steps do not depend on its batch, but they are not bit-identical to
    `solve`'s (`integrate_ivp`)."""
    if _is_flat(cfg.weight):
        shots = []
        for beta in betas:
            try:
                shots.append(integrate_ivp(cfg, beta, trace=True))
            except _stepper.IntegrationError as exc:
                shots.append(exc)
        return shots
    for beta in betas:
        _check_beta(beta)
    return _trace_shoots(cfg, _Series.lanes(cfg, betas), functools.partial(_lane_phases, cfg))


@functools.lru_cache(maxsize=8)
def _default_radii(r_start: float):
    """`default_grid` from r_start to 1 as a read-only array and as a list
    of floats, built once per r_start: every grid shoot without radii
    reads it."""
    radii = _grid(r_start, 1.0)
    radii.flags.writeable = False
    return radii, radii.tolist()


def _output_radii(cfg: ProblemConfig, radii):
    """The output radii (default: `default_grid`, `_default_radii`) as an
    array and as a list of floats; they must be finite, start at r_start
    or beyond and never decrease."""
    if radii is None:
        return _default_radii(cfg.r_start)
    radii_arr = np.asarray(radii)
    if radii_arr.ndim != 1 or len(radii_arr) == 0:
        raise ValueError("output radii must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(radii_arr)):
        raise ValueError("output radii must be finite")
    if radii_arr[0] < cfg.r_start * (1.0 - 1e-12):
        raise ValueError("output radii start below r_start")
    if np.any(np.diff(radii_arr) < 0.0):
        raise ValueError("output radii must not decrease")
    return radii_arr, [float(x) for x in radii_arr]


def _jets(cfg: ProblemConfig, x: np.ndarray, y: np.ndarray, weight):
    """The first three r-derivatives of the states y at the radii x, rows of
    (v, v') or of (v, v', e, e'), from the ODE and its derivatives, given
    the weight's arrays at x (`weight_arrays`): three arrays shaped like y:
    each column's first, second and third derivative."""
    v, dv = y[:, 0], y[:, 1]
    a, da, dda, _ = weight
    c, g = (cfg.dim - 1.0) / x, np.exp(v)
    v2 = -c * dv - a * g
    v3 = c / x * dv - c * v2 - (da + a * dv) * g
    v4 = (c / x * (2.0 * v2 - 2.0 * dv / x) - c * v3
          - (dda + 2.0 * da * dv + a * (v2 + dv * dv)) * g)
    jets = [(dv, v2), (v2, v3), (v3, v4)]
    if y.shape[1] == 4:
        e, de = y[:, 2], y[:, 3]
        e2 = -c * de - a * g * e
        e3 = c / x * de - c * e2 - (da * e + a * (de + dv * e)) * g
        e4 = (c / x * (2.0 * e2 - 2.0 * de / x) - c * e3
              - (dda * e + 2.0 * da * (de + dv * e)
                 + a * (e2 + 2.0 * dv * de + (v2 + dv * dv) * e)) * g)
        jets = [(dv, v2, de, e2), (v2, v3, e2, e3), (v3, v4, e3, e4)]
    return tuple(np.column_stack(jet) for jet in jets)


def _grid_states(cfg: ProblemConfig, radii: np.ndarray, nodes, shoot,
                 series: _Series | _SingularSeries, one: bool = False):
    """States (v, v') or (v, v', e, e') at `radii` (as floats, `nodes`):
    those at radii up to the radius r0 of the solution's Taylor `series`
    from the series, and the others from one shoot whose steps are bounded
    (`_GRID_STEP`, `_integrate`) and that lands on these of them only: the
    last, and each that lies farther than the bound from the radius before
    it (r0 before the first radius), so that a sparse grid is landed on
    every radius. shoot(landings) returns (states at the landings, xs, ys)
    with the accepted steps. A radius that is a landing keeps the
    integrator's state; the rest are filled by the shared degree-7 Hermite
    reader (`_hermite_read`) on the accepted step around them, each value
    from its first three derivatives, each first derivative from the next
    three, all from the ODE (`_jets`); a radius on an accepted step reads
    that step's state exactly.

    With one=True it returns (states, state at r = 1): the series' state at
    r = 1 where r0 = 1, else the shoot's, which then lands on r = 1 too,
    whether or not the radii hold it.
    """
    below = bisect_right(nodes, series.r0)
    states = series.states(radii[:below])
    beyond = radii[below:]
    lands = set()
    if len(beyond):
        cap, rel = _GRID_STEP
        before = np.concatenate((radii[below - 1:below] if below else [series.r0], beyond[:-1]))
        lands.update(beyond[beyond - before > np.minimum(cap, rel * before)].tolist())
        lands.add(nodes[-1])
    if one and series.r0 < 1.0:
        lands.add(1.0)
    lands = sorted(lands)
    if lands:
        landed, xs, ys = shoot(lands)
        k = np.minimum(np.searchsorted(lands, beyond), len(lands) - 1)
        filled = np.asarray(landed)[k]
        rest = np.flatnonzero(np.asarray(lands)[k] != beyond)
        if rest.size:
            x, y = np.asarray(xs), np.asarray(ys)
            jets = (y, *_jets(cfg, x, y, weight_arrays(cfg.weight, x)))
            filled[rest] = _hermite_read(x, jets, beyond[rest])
        states = np.concatenate((states, filled)) if below else filled
    if not one:
        return states
    if series.r0 < 1.0:
        return states, np.asarray(landed[lands.index(1.0)])
    return states, states[nodes.index(1.0)] if 1.0 in nodes else series.states([1.0])[0]


def integrate_ivp(cfg: ProblemConfig, beta: float, radii=None, trace: bool = False) -> ShootResult:
    """Shoot v and its first variation jointly out to r = 1.

    With trace=True the profile is sampled at the integrator's accepted
    steps, and `radii` must be None: the cheap path, for curve tracing and
    for `hermite_values`. Up to the radius r0 of its Taylor series
    (`_Series`) the profile holds the series' states from r_start on, at a
    ratio of at most 1.15; beyond, it steps in s = log r from r0 to r = 1
    (`_trace_shoots`), whatever beta. With const (and a_0) at beta > 0 the
    steps beyond r0 are read off one Emden-Fowler trajectory per dimension
    and tolerances (`_emden_trajectory`, built once), and the shoot makes
    one short solve onto r = 1. Over N in {3, 6, 9, 10, 12}, const, a_h
    and polyexp weights and beta in {-5, -2, 0.25, 0.5, 0.7, 1, 2, 10, 25,
    40}, v(1) and e(1) stay within 8.0e-12 and 3.9e-12 of a shoot in r
    alone at rtol 1e-13; with const, over beta in [-1, 60] by 0.5 at the
    same N, within 3.8e-13 and 2.9e-13. A march shoots its betas through
    `trace_lanes`: with const (and a_0) each is this shoot, and with any
    other weight the log-r phases run as lanes of `_stepper.solve_lanes`,
    whose v(1) and e(1) are within 7.5e-15 of these relative to
    max(1, |.|) (N=10 and N=3 a_h at h=40, N=9 polyexp:0.7,-0.2;d=0.3,
    every sample of a march on [-5, 40] by 0.25), not equal to them.
    Every shoot here runs on `_stepper.solve`. A trace shoot computes its
    state at r = 1, and with it lambda, alpha and dlambda/dbeta, at once;
    its profile and variation profile, the series' states below r0 and
    those of the steps beyond, it builds on the first read of either
    (`ShootResult`).
    Otherwise it is sampled at `radii` (default: `default_grid`), and
    lambda, alpha and dlambda/dbeta are those at r = 1 whatever the radii:
    where 1.0 is not among them, the shoot lands on r = 1 too, which the
    profile does not hold. The radii up to r0 take the series' states;
    beyond r0 no step from r is longer than min(0.02, 0.26 r)
    (`_GRID_STEP`), the integrator lands only on the last radius, on r = 1
    and on each radius farther than that bound from the one before it, and
    the others are filled from its accepted steps by degree-7 Hermite
    (`_grid_states`, as for `integrate_singular` and `rescaled_profile`).
    On `default_grid` the states agree with a shoot at rtol/atol 1e-13 that
    lands on every radius to within 7.2e-13 (v), 7.5e-12 (v'), 6.1e-12 (e)
    and 8.8e-11 (e') relative to max(1, |.|), over N in {3, 5, 7, 9, 10,
    12}, const, a_5, a_40, polyexp:0.7,-0.2;d=0.3 and polyexp:1.5;d=-0.8
    and beta in {-2, 0.5, 3, 10, 25, 40}; landing on radii no farther apart
    than the bound took about twice the steps for 7.1e-14, 1.5e-12, 2.2e-13
    and 6.2e-11. The bound keeps them there: at N=3, a_h at h=40, beta=-2
    the steps grow to it, and with a cap of 0.04 v' is 7.6e-11 off.
    """
    _check_beta(beta)
    if trace and radii is not None:
        raise ValueError("output radii cannot be combined with trace=True")
    if trace:
        shot, = _trace_shoots(cfg, [_series(cfg, beta)], functools.partial(_solve_phases, cfg))
        if isinstance(shot, _stepper.IntegrationError):
            raise shot
        return shot
    radii_arr, nodes = _output_radii(cfg, radii)
    states, at_one = _grid_states(cfg, radii_arr, nodes, lambda lands: _run(cfg, beta, lands),
                                  _series(cfg, beta), one=True)
    return _shoot_result(beta, at_one[0], at_one[2], lambda: (radii_arr, states))


def _shoot_result(beta: float, v1: float, e1: float, samples) -> ShootResult:
    """The ShootResult at beta with v(1) = v1 and e(1) = e1, whose profile
    and variation profile are built on the first read of either from
    samples() -> (radii, the states there, rows (v, v', e, e'))."""
    v1, e1 = float(v1), float(e1)
    lam = math.exp(v1)
    shot = ShootResult.__new__(ShootResult)
    vars(shot).update(beta=beta, lam=lam, alpha=beta - v1, v1=v1, dlambda_dbeta=lam * e1,
                      _samples=samples)
    return shot


def hermite_values(cfg: ProblemConfig, profile: RadialProfile, r) -> np.ndarray:
    """v at the radii r, by degree-9 Hermite interpolation in s = log r of a
    profile that solves the ODE: a regular shoot or a singular solution,
    sampled on a node grid or on the integrator's accepted steps.

    The shared reader (`_hermite_read`, `_hermite_coeffs` with m = 5)
    takes on each interval v and its first four s-derivatives at both of
    its nodes, from v' and the ODE's v'', v''' and v'''' (`_jets`) by the chain
    rule: v_s = r v', v_ss = r v' + r^2 v'', v_sss = r v' + 3 r^2 v'' +
    r^3 v''' and v_ssss = r v' + 7 r^2 v'' + 6 r^3 v''' + r^4 v''''.
    Beyond its series' radius a trace shoot steps in log r
    (`_trace_shoots`), by up to 0.27 near r = 0.9 at N=3 with a polyexp
    weight, where degree-7 Hermite is off by up to 9.5e-9 in r and 1.3e-10
    in log r.
    On a trace=True shoot this agrees with a shoot that lands on r to
    within 1.81e-11 relative to max(1, |v|) (N in {3, 7, 10, 12}, const, a_h
    at h = 40 and 5.7832 and polyexp weights, 15 beta in [-2, 40], 300
    geometric radii each), which is the two shoots' own difference at the
    nodes (N=3, a_40, beta=40); on the const profiles read off the Emden
    trajectory to within 2.8e-13 (6.8e-11 at N=12, beta=31 when each beta
    was shot on its own); with the series between the nodes of its head
    to within 2.2e-13; and on
    `integrate_singular`'s default grid to within 4.1e-14 of a singular
    shoot at rtol/atol 1e-13 that lands on each of 8192 geometric radii (N
    in 3..12, six weights).
    The profile needs two or more strictly increasing radii, or ValueError;
    r must lie between its first node and R, since nothing is extrapolated.
    """
    r = np.asarray(r, dtype=float)
    x, f, d = profile.radii, profile.values, profile.derivs
    if len(x) < 2 or np.any(np.diff(x) <= 0.0):
        raise ValueError("Hermite interpolation needs two or more strictly increasing radii")
    if np.any(r < x[0]) or np.any(r > profile.R):
        raise ValueError("radii outside the profile's nodes")
    y = np.column_stack((f, d))
    _, (v2, _), (v3, v4) = (jet.T for jet in _jets(cfg, x, y, weight_arrays(cfg.weight, x)))
    # v and its first four s-derivatives, s = log r, by the chain rule
    x2 = x * x
    d1 = x * d
    jets = (f, d1, d1 + x2 * v2, d1 + x2 * (3.0 * v2 + x * v3),
            d1 + x2 * (7.0 * v2 + x * (6.0 * v3 + x * v4)))
    return _hermite_read(np.log(x), jets, np.log(r))


def singular_series_coefficient(cfg: ProblemConfig) -> float:
    """d2 in V = -2 log r + log 2(N-2) + d2 r^2 + ...: the singular series'
    c_1 = -(N-2) a''(0) / (4(N-1)) (`_SingularSeries`)."""
    return float(_singular_series(cfg).terms[0, 0])


def integrate_singular(cfg: ProblemConfig, radii=None):
    """The singular radial solution V at `radii` (default: `default_grid`).

    Returns (lambda_star, profile), lambda_star = e^{V(1)} read at r = 1
    whatever the radii, as `integrate_ivp` reads lambda. The radii up to
    the radius r0 of its Taylor series in the Emden variable
    (`_SingularSeries`) take the series' states; where r0 = 1 no `solve`
    call is made. Beyond r0 the
    integrator goes on from the series' state at r0, forward integration
    being stable: a perturbation of the -2 log r branch behaves like r^mu,
    mu^2 + (N-2) mu + 2(N-2) = 0, and Re mu < 0 for every N >= 3, so both
    linearized modes decay as r grows. Like a regular grid shoot
    (`integrate_ivp`), it bounds its steps by min(0.02, 0.26 r), lands on
    r = 1 and on the last radius (and on any radius farther than the bound
    from the one before it) and fills the others from its accepted steps
    by degree-7 Hermite (`_grid_states`).

    For const and every a_h the series reaches r = 1, so the profile is the
    series' own: at N=10, a_h at h=40 one call takes 0.3 ms (0.07 ms of
    them the recurrence, built once per config), where the start at r_start
    from a two-term expansion took 3.6 ms and 3 997 right-hand-side calls.
    There V is within 3.6e-15 of U_h and lambda* within 5e-16 of its closed
    form 2(N-2) e^{-h/(2N)} over N in 3..12 and h in {-1, 0, 5.7832, 40}.
    polyexp:1.5;d=0.5 at N=10 stops at r0 = 0.70 and takes 193 calls
    beyond. Over N in 3..12 and nine const, a_h and polyexp weights, at
    rtol 1e-10 and 1e-13, (V, V') agree with a shoot from r_start at
    rtol/atol 1e-13 that lands on every radius to within 5.2e-15 and
    2.5e-14 relative to max(1, |.|).
    """
    series = _singular_series(cfg)
    fun = _rhs_v(cfg)
    radii_arr, nodes = _output_radii(cfg, radii)
    states, at_one = _grid_states(cfg, radii_arr, nodes,
                                  lambda lands: _integrate(cfg, fun, series.r0, series.start,
                                                           lands), series, one=True)
    lam_star = math.exp(float(at_one[0]))
    return lam_star, RadialProfile(radii_arr, states[:, 0], states[:, 1])


def explicit_lambda_h(dim: int, h: float) -> float:
    return 2.0 * (dim - 2.0) * math.exp(-h / (2.0 * dim))


def residual_Uh(dim: int, h: float, radii) -> float:
    """Max relative residual of the explicit singular pair on a grid.

    U_h = h/(2N) - 2 log r - h r^2/(2N) with weight a_h and
    lambda_h = 2(N-2) e^{-h/(2N)}; checks -Delta U_h = lambda_h a_h e^{U_h}.
    """
    weight = make_ah(h, dim)
    if dim > 10:
        raise ValueError(f"dimension {dim} outside [3, 10]")
    r = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r < 1e-4) or np.any(r > 1.0):
        raise ValueError("grid must be finite and lie within [1e-4, 1]")
    N = float(dim)
    t = h / (2.0 * N)
    U = t - 2.0 * np.log(r) - t * r * r
    Up = -2.0 / r - 2.0 * t * r
    Upp = 2.0 / (r * r) - 2.0 * t
    lhs = -(Upp + (N - 1.0) / r * Up)
    a = weight_arrays(weight, r)[0]
    rhs = explicit_lambda_h(dim, h) * a * np.exp(U)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def _gauss_cells(cfg: ProblemConfig, x, y):
    """9-point Gauss-Legendre on each interval of the non-decreasing radii
    x at which a solution's states y, rows (v, v', ...), are sampled: the
    nodes r, v and v' there and the weights w, each shaped (9, intervals),
    so that sum(w f(r)) integrates f over each interval. v and v' are read
    by the degree-7 Hermite of the grid fills (`_hermite_coeffs`), each
    from its first three derivatives at the ends (`_jets`); a repeated
    radius is an interval of width 0, which weighs nothing."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)[:, :2]
    jets = [f.T for f in (y, *_jets(cfg, x, y, weight_arrays(cfg.weight, x)))]
    h = np.diff(x)
    # rows (v, v'), the interval axis innermost: Horner runs on contiguous rows
    c = np.array(_hermite_coeffs(h, [f[:, :-1] for f in jets], [f[:, 1:] for f in jets]))
    node, weight = (np.array(g)[:, None] for g in _GAUSS9)
    t = 0.5 * (node + 1.0)
    v, dv = _horner(c[:, :, None, :], t)
    return x[:-1] + h * t, v, dv, 0.5 * h * weight


def flux_residual(cfg: ProblemConfig, shoot: ShootResult) -> float:
    """Relative defect in -r^{N-1} v' = int_0^r s^{N-1} a e^v ds.

    The integral over [0, x0], x0 the profile's first radius, is closed by
    the identity itself: -x0^{N-1} v'(x0) with v' from the shoot's Taylor
    series (`_Series`), which is exact there when x0 lies within its radius
    r0, and else (beta >~ 19 at N=3 with r_start = 1e-4) with the profile's
    own v'(x0), so that the check then starts at x0. The integral goes on
    over the profile's intervals by `_gauss_cells`.

    Hypothesis: the identity holds for every regular solution (v'(0) = 0),
    since (r^{N-1} v')' = -r^{N-1} a e^v; the shoot is regular by
    construction.
    """
    N = cfg.dim
    prof = shoot.profile
    r = prof.radii
    series = _series(cfg, shoot.beta)
    dv0 = series.states(r[:1])[0, 1] if r[0] <= series.r0 else prof.derivs[0]
    closure = -r[0] ** (N - 1) * dv0
    s, v, _, w = _gauss_cells(cfg, r, np.column_stack((prof.values, prof.derivs)))
    inner = np.sum(w * s ** (N - 1) * weight_arrays(cfg.weight, s)[0] * np.exp(v), axis=0)
    F = np.cumsum(np.concatenate(([closure], inner)))
    L = -(r ** (N - 1)) * prof.derivs
    denom = np.maximum(np.abs(L), np.abs(F))
    return float(np.max(np.abs(L - F) / denom))


def pohozaev_residual(cfg: ProblemConfig, shoot: ShootResult, mu: float) -> float:
    """Relative defect in the one-parameter Pohozaev identity on [r_start, 1].

    d/dr { r^N (v'^2/2 + a(e^v - 1)) + mu r^{N-1} v v' }
      = a'(e^v - 1) r^N
        + r^{N-1} [ N a (e^v - 1) - mu a v e^v + (mu + 1 - N/2) v'^2 ]

    holds pointwise for solutions of the shooting ODE; both sides are
    integrated over the profile's support (`_gauss_cells`) and compared.

    Hypothesis: a solution of the ODE on [r_start, 1] with a in C^1 there,
    nothing at r = 0, since the boundary term is taken at r_start. Every
    admissible weight and every shoot satisfies it, so the residual measures
    only the integrator and the quadrature; nothing needs enforcing.
    """
    N = cfg.dim
    prof = shoot.profile
    r, v, dv = prof.radii[[0, -1]], prof.values[[0, -1]], prof.derivs[[0, -1]]
    a = weight_arrays(cfg.weight, r)[0]
    T = r ** N * (0.5 * dv * dv + a * (np.exp(v) - 1.0)) + mu * r ** (N - 1) * v * dv
    boundary = float(T[1] - T[0])
    r, v, dv, w = _gauss_cells(cfg, prof.radii, np.column_stack((prof.values, prof.derivs)))
    a, da, _, _ = weight_arrays(cfg.weight, r)
    ev = np.exp(v)
    IA = float(np.sum(w * r ** N * da * (ev - 1.0)))
    IB = float(np.sum(w * r ** (N - 1) * (N * a * (ev - 1.0) - mu * a * v * ev
                                          + (mu + 1.0 - 0.5 * N) * dv * dv)))
    scale = max(abs(boundary), abs(IA), abs(IB), 1e-300)
    return abs(boundary - IA - IB) / scale


@dataclass(frozen=True)
class AsymptoticDiagnostics:
    emden: RadialProfile            # w(t), t = -log r
    rescaled: RadialProfile | None  # v-hat on the window [0, 3], regular shoots only


def asymptotic_diagnostics(cfg: ProblemConfig, profile: RadialProfile,
                           beta=None) -> AsymptoticDiagnostics:
    """Emden variable of `profile` and, given its beta, the rescaled profile.

    w(t) = v + 2 log r - log 2(N-2) (independent of lambda in the shooting
    normalization, so lambda is not an input); singular solutions have
    w -> 0 as t -> infinity. For regular shoots with beta >= 0 the rescaled
    profile v-hat(rho) = v(rho e^{-beta/2}) - beta is sampled on rho in (0, 3],
    using the series start below r_start and the weight's natural formula
    beyond r = 1 if the window requires it. beta=None means a singular
    profile (no rescaling); beta < 0 is an error (empty window). There, up
    to the radius r0 of the singular series (`_SingularSeries`), w and
    dw/dt = -r W' are the series' own, since V + 2 log r would cancel two
    terms of about 18 at r_start; for a_h they are then within 1.8e-15
    relative of -h r^2/(2N) and h r^2/N, where the subtraction was 3.1e-7
    off. Beyond r0 they are formed from V and V'.
    """
    N = cfg.dim
    r = profile.radii
    t = -np.log(r)[::-1]
    w = profile.values + 2.0 * np.log(r) - math.log(2.0 * (N - 2.0))
    dwdt = -(r * profile.derivs + 2.0)
    if beta is None:
        series = _singular_series(cfg)
        k = bisect_right(r, series.r0)
        W = series.emden(r[:k])
        w[:k], dwdt[:k] = W[:, 0], -W[:, 1]
    emden = RadialProfile(t, w[::-1], dwdt[::-1], R=float(t[-1]))

    if beta is None:
        return AsymptoticDiagnostics(emden=emden, rescaled=None)
    if beta < 0.0:
        raise ValueError("rescaling window is empty for beta < 0")

    rescaled = rescaled_profile(cfg, beta, r_max=3.0)
    return AsymptoticDiagnostics(emden=emden, rescaled=rescaled)


def _rescaled_config(cfg: ProblemConfig, beta: float) -> ProblemConfig:
    """The rescaled problem of `rescaled_profile`: weight a(c r), c = e^{-beta/2}."""
    w = cfg.weight
    c2 = math.exp(-beta)  # (e^{-beta/2})^2; only even powers of c appear
    scaled = Weight(
        spec=f"{w.spec}@rescaled",
        coeffs=tuple(ci * c2 ** i for i, ci in enumerate(w.coeffs, start=1)),
        tilt=w.tilt * c2,
    )
    return replace(cfg, weight=scaled)


def rescaled_profile(cfg: ProblemConfig, beta: float, r_max: float = 3.0) -> RadialProfile:
    """v-hat(rho) = v(rho e^{-beta/2}) - beta on [r_start, r_max].

    The weight family is closed under the rescaling r -> c r, so v-hat is
    computed by shooting the rescaled equation (weight a(c rho), height 0)
    directly. That stays accurate uniformly in beta, including when the
    rescaling window maps below r_start or beyond r = 1 of the original
    problem; beyond r = 1 the weight's natural formula is used, guarded
    for positivity. It is sampled on `default_grid` out to r_max (1561
    radii for r_max = 3). It takes those up to its series' radius from the
    series, and beyond it bounds its steps, lands on r_max only and fills
    the others as `integrate_ivp` does, within 6.0e-13 (v-hat) and 2.6e-12
    (its derivative) of a shoot from r_start at rtol/atol 1e-13 that lands
    on every radius, relative to max(1, |.|), over N in {3, 5, 7, 9, 10,
    12}, const, a_5, a_40 and polyexp:1.5;d=-0.8 and beta in {0, 5, 10, 25,
    40}; the worst is N=3, a_40 at beta = 0, which takes 1 633
    right-hand-side calls. Landing on 177 of the radii, no farther apart
    than the bound, gave 1.6e-14 and 7.5e-14, for 3 253 calls there; where
    the bound binds on nearly every step (N=3 const and N=10 a_40 at beta =
    5, N=12 polyexp:1.5;d=-0.8 at beta = 10) it takes 1 201 calls against
    1 213.
    """
    if beta < 0.0:
        raise ValueError("rescaling window is empty for beta < 0")
    cfg_hat = _rescaled_config(cfg, beta)
    radii = default_grid(cfg_hat, R=r_max)
    states = _grid_states(cfg_hat, radii, radii.tolist(),
                          lambda lands: _run(cfg_hat, 0.0, lands), _series(cfg_hat, 0.0))
    return RadialProfile(radii, states[:, 0], states[:, 1], R=r_max)
