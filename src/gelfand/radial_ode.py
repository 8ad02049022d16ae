"""Radial ODE layer for -Delta u = lambda a(|x|) e^u on the unit ball.

Everything here works in the shooting normalization

    v'' + (N-1)/r v' = -a(r) e^v,   v(0) = beta, v'(0) = 0,

for which lambda(beta) = e^{v(1)} and u = v - log lambda solves the
boundary-value problem. First and second beta-derivatives of v are
integrated jointly with v. Integration starts at r_start from a matched
Taylor expansion; the singular solution starts from its own matched
expansion around the -2 log r profile.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from . import _stepper
from .weights import Weight, make_ah, weight_arrays, weight_fn

BETA_MIN_GUARD = -50.0
BETA_MAX_GUARD = 60.0

_EXP_CAP = 500.0  # caps e^v: guards trial stages of rejected steps, not real states

# default output grid: geometric from r_start with this ratio until the
# spacing reaches the uniform spacing, then uniform out to R
_GRID_RATIO = 1.04
_GRID_H_UNIFORM = 1e-3


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
    """Geometric-then-uniform output radii on [r_start, R].

    Shoots land on every radius, so the grid also caps the step size
    (0.04 r near r_start, 1e-3 further out). lambda* and the flux and
    Pohozaev residuals depend on that cap: see `_stepper`'s docstring.
    """
    pts = [cfg.r_start]
    r = cfg.r_start
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
    """Sampled radial function with derivatives; cubic Hermite between nodes."""

    __slots__ = ("radii", "values", "derivs", "R")

    def __init__(self, radii, values, derivs, R=None):
        self.radii = np.asarray(radii, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        self.R = float(R if R is not None else self.radii[-1])

    def __len__(self):
        return len(self.radii)

    def evaluate_array(self, r):
        """Hermite interpolation; quadratic even extension below the first node.

        One node, or a zero-width interval (a repeated radius), gives the
        node's own value and derivative. No module of the package calls it:
        value readers use `quintic_values` or `scalar_value`. It stays as the
        array reference `scalar_value` is tested against, and because
        `perfbench/tracing.py` patches it by name.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r > self.R * (1.0 + 1e-12)):
            raise ValueError("evaluation beyond the profile's outer radius")
        rr = np.minimum(r, self.R)
        x, f, d = self.radii, self.values, self.derivs
        if len(x) == 1:  # no interval to interpolate on: the node's own state
            val, der = np.full_like(rr, f[0]), np.full_like(rr, d[0])
        else:
            idx = np.clip(np.searchsorted(x, rr, side="right") - 1, 0, len(x) - 2)
            x0, x1 = x[idx], x[idx + 1]
            h = x1 - x0
            # a repeated radius makes a zero-width interval where the index
            # is clipped: divide by 1 there, then take the right node's state
            flat = h == 0.0
            if np.any(flat):
                h = np.where(flat, 1.0, h)
            t = (rr - x0) / h
            t2 = t * t
            t3 = t2 * t
            val = (
                (2.0 * t3 - 3.0 * t2 + 1.0) * f[idx]
                + (t3 - 2.0 * t2 + t) * h * d[idx]
                + (-2.0 * t3 + 3.0 * t2) * f[idx + 1]
                + (t3 - t2) * h * d[idx + 1]
            )
            der = (
                (6.0 * t2 - 6.0 * t) * f[idx] / h
                + (3.0 * t2 - 4.0 * t + 1.0) * d[idx]
                + (6.0 * t - 6.0 * t2) * f[idx + 1] / h
                + (3.0 * t2 - 2.0 * t) * d[idx + 1]
            )
            if np.any(flat):
                val = np.where(flat, f[idx + 1], val)
                der = np.where(flat, d[idx + 1], der)
        below = rr < x[0]
        if np.any(below):
            # even quadratic through (x0, f0) with slope d0 there
            c = d[0] / (2.0 * x[0])
            val = np.where(below, f[0] + c * (rr * rr - x[0] * x[0]), val)
            der = np.where(below, 2.0 * c * rr, der)
        return val, der

    def scalar_value(self):
        """A closure r -> the value `evaluate_array` gives at the float r.

        For the Pruefer right-hand side, which asks for one radius at a time:
        the same rules (ValueError beyond R, even quadratic below the first
        node, one-node and zero-width rules) and the value half of the
        Hermite arithmetic in the same order, so every result is bit-identical
        to evaluate_array's, on Python floats instead of one-element arrays.
        """
        x, f, d = self.radii.tolist(), self.values.tolist(), self.derivs.tolist()
        R = self.R
        r_max = R * (1.0 + 1e-12)
        x_first, f_first = x[0], f[0]
        c = d[0] / (2.0 * x_first)
        x_first2 = x_first * x_first
        last = len(x) - 2

        def value(r):
            if r > r_max:
                raise ValueError("evaluation beyond the profile's outer radius")
            if r > R:
                r = R
            if r < x_first:
                return f_first + c * (r * r - x_first2)
            if last < 0:
                return f_first
            i = min(bisect_right(x, r) - 1, last)
            x0 = x[i]
            h = x[i + 1] - x0
            if h == 0.0:
                return f[i + 1]
            t = (r - x0) / h
            t2 = t * t
            t3 = t2 * t
            return (
                (2.0 * t3 - 3.0 * t2 + 1.0) * f[i]
                + (t3 - 2.0 * t2 + t) * h * d[i]
                + (-2.0 * t3 + 3.0 * t2) * f[i + 1]
                + (t3 - t2) * h * d[i + 1]
            )

        return value


def profile_to_csv(profile: RadialProfile) -> str:
    lines = ["r,v,dv_dr"]
    for r, v, d in zip(profile.radii, profile.values, profile.derivs):
        lines.append(f"{r:.17G},{v:.17G},{d:.17G}")
    return "\n".join(lines) + "\n"


def profile_from_csv(text: str) -> RadialProfile:
    """Inverse of profile_to_csv: a header, then at least one row of three
    finite reals, with positive radii that never decrease."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0] != "r,v,dv_dr":
        raise ValueError("unexpected profile CSV header")
    if len(rows) == 1:
        raise ValueError("profile CSV has no rows")
    cols = []
    for ln in rows[1:]:
        row = tuple(float(tok) for tok in ln.split(","))
        if len(row) != 3:
            raise ValueError(f"profile CSV row needs 3 fields, got {len(row)}: {ln!r}")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"profile CSV row has a non-finite value: {ln!r}")
        if row[0] <= 0.0:
            raise ValueError(f"profile CSV row has a radius <= 0: {ln!r}")
        cols.append(row)
    r, v, d = zip(*cols)
    if any(b < a for a, b in zip(r, r[1:])):
        raise ValueError("profile CSV radii must not decrease")
    return RadialProfile(r, v, d)


@dataclass(frozen=True)
class ShootResult:
    beta: float
    lam: float
    alpha: float
    v1: float
    dlambda_dbeta: float
    profile: RadialProfile
    variation_profile: RadialProfile


def _series_coeffs(cfg: ProblemConfig, beta: float):
    """Taylor coefficients at r=0 for v, the first variation e, and the
    second variation w; all three share c2 = -e^beta/(2N)."""
    N = cfg.dim
    a2 = 0.5 * cfg.weight.a2pp  # a(r) = 1 + a2 r^2 + ...
    eb = math.exp(beta)
    c2 = -eb / (2.0 * N)
    den = 4.0 * (N + 2.0)
    c4 = -eb * (c2 + a2) / den
    e4 = -eb * (a2 + 2.0 * c2) / den
    w4 = -eb * (a2 + 4.0 * c2) / den
    return c2, c4, e4, w4


def series_start(cfg: ProblemConfig, beta: float, r: float, second: bool = False):
    """[v, v', e, e'] at r from the matched expansion, then [w, w'] if second."""
    c2, c4, e4, w4 = _series_coeffs(cfg, beta)
    r2 = r * r
    y0 = [
        beta + c2 * r2 + c4 * r2 * r2,
        2.0 * c2 * r + 4.0 * c4 * r2 * r,
        1.0 + c2 * r2 + e4 * r2 * r2,
        2.0 * c2 * r + 4.0 * e4 * r2 * r,
    ]
    if second:
        y0 += [c2 * r2 + w4 * r2 * r2, 2.0 * c2 * r + 4.0 * w4 * r2 * r]
    return y0


def _check_beta(beta: float) -> None:
    if not BETA_MIN_GUARD <= beta <= BETA_MAX_GUARD:
        raise ValueError(f"beta={beta} outside guard range [{BETA_MIN_GUARD}, {BETA_MAX_GUARD}]")


def _rhs_ve(cfg: ProblemConfig):
    """y = (v, v', e, e')."""
    a_of = weight_fn(cfg.weight)
    nm1 = float(cfg.dim - 1)
    exp, cap = math.exp, _EXP_CAP

    def fun(r, y):
        v, dv, e, de = y
        g = a_of(r) * exp(v if v < cap else cap)
        c = nm1 / r
        return [dv, -c * dv - g, de, -c * de - g * e]

    return fun


def _rhs_vew(cfg: ProblemConfig):
    """y = (v, v', e, e', w, w')."""
    a_of = weight_fn(cfg.weight)
    nm1 = float(cfg.dim - 1)
    exp, cap = math.exp, _EXP_CAP

    def fun(r, y):
        v, dv, e, de, w, dw = y
        g = a_of(r) * exp(v if v < cap else cap)
        c = nm1 / r
        return [dv, -c * dv - g, de, -c * de - g * e, dw, -c * dw - g * (e * e + w)]

    return fun


def _init_radius(cfg: ProblemConfig, beta: float) -> float:
    """Where the matched series is trustworthy: e^beta r^2/(2N) must be small.

    For large beta the boundary layer sits below r_start, so integration
    starts deeper; output radii are unaffected.
    """
    layer = 0.05 * math.sqrt(2.0 * cfg.dim) * math.exp(-0.5 * beta)
    return min(cfg.r_start, layer)


def _integrate(cfg: ProblemConfig, fun, r0: float, y0, nodes, collect: bool = False):
    """Integrate from the start state y0 at r0 through `nodes`.

    A first node at r0 (to 1e-12 relative) is the start state itself. A
    nonpositive weight, hit while extending beyond r = 1, ends in an
    IntegrationError. Returns the states at the nodes, or (states, xs, ys)
    with every accepted step when collecting.
    """
    head = []
    if nodes[0] <= r0 * (1.0 + 1e-12):
        head, nodes = [y0], nodes[1:]
        if not nodes:
            return (head, [r0], head) if collect else head
    result = _stepper.solve(
        fun, r0, y0, nodes, cfg.rel_tol, cfg.abs_tol,
        first_step=0.2 * r0, collect=collect,
    )
    if collect:
        states, xs, ys = result
        return head + states, xs, ys
    return head + result


def _run(cfg: ProblemConfig, beta: float, nodes, second: bool = False,
         collect: bool = False):
    """Integrate from the matched start through `nodes` (all >= r_start).

    Returns states aligned with nodes, or (states, xs, ys) when collecting
    accepted steps. Collected steps start at the last one at or below
    r_start, so every radius in [r_start, 1] lies between two of them.
    """
    r0 = _init_radius(cfg, beta)
    y0 = series_start(cfg, beta, r0, second)
    fun = _rhs_vew(cfg) if second else _rhs_ve(cfg)
    result = _integrate(cfg, fun, r0, y0, nodes, collect)
    if collect:
        states, xs, ys = result
        first = bisect_right(xs, cfg.r_start) - 1  # xs[0] = r0 <= r_start
        return states, xs[first:], ys[first:]
    return result


def _output_radii(cfg: ProblemConfig, radii):
    """The output radii (default: `default_grid`) as an array and as a
    list of floats; they must be finite, start at r_start or beyond and
    never decrease."""
    radii_arr = np.asarray(radii if radii is not None else default_grid(cfg))
    if radii_arr.ndim != 1 or len(radii_arr) == 0:
        raise ValueError("output radii must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(radii_arr)):
        raise ValueError("output radii must be finite")
    if radii_arr[0] < cfg.r_start * (1.0 - 1e-12):
        raise ValueError("output radii start below r_start")
    if np.any(np.diff(radii_arr) < 0.0):
        raise ValueError("output radii must not decrease")
    return radii_arr, [float(x) for x in radii_arr]


def integrate_ivp(cfg: ProblemConfig, beta: float, radii=None, trace: bool = False) -> ShootResult:
    """Shoot v and its first variation jointly out to r = 1.

    With trace=True the profile is sampled at the integrator's accepted
    steps, from the last one at or below r_start on, and `radii` must be
    None: the cheap path, for curve tracing and for `quintic_values`.
    Otherwise it is sampled at `radii` (default: `default_grid`), which the
    integrator lands on exactly.
    """
    _check_beta(beta)
    if trace and radii is not None:
        raise ValueError("output radii cannot be combined with trace=True")
    if trace:
        _, xs, ys = _run(cfg, beta, [1.0], collect=True)
        radii_arr = np.asarray(xs)
        states = np.asarray(ys)
    else:
        radii_arr, nodes = _output_radii(cfg, radii)
        states = np.asarray(_run(cfg, beta, nodes))
    v1 = float(states[-1, 0])
    e1 = float(states[-1, 2])
    lam = math.exp(v1)
    profile = RadialProfile(radii_arr, states[:, 0], states[:, 1])
    variation = RadialProfile(radii_arr, states[:, 2], states[:, 3])
    return ShootResult(
        beta=beta,
        lam=lam,
        alpha=beta - v1,
        v1=v1,
        dlambda_dbeta=lam * e1,
        profile=profile,
        variation_profile=variation,
    )


def quintic_values(cfg: ProblemConfig, profile: RadialProfile, r) -> np.ndarray:
    """v at the radii r, by quintic Hermite interpolation of a profile that
    solves the ODE: a regular shoot or a singular solution, sampled on a node
    grid or on the integrator's accepted steps.

    Each interval takes v, v' and v'' at both of its nodes, with v'' from
    the ODE, -(N-1)/r v' - a(r) e^v. On the accepted steps of a trace=True
    shoot this agrees with a shoot that lands on r to within 3e-11 relative
    to max(1, |v|) (N in {3, 7, 10, 12}, const, a_h and polyexp weights,
    beta in [-2, 40]), and on `integrate_singular`'s default grid to within
    3e-12; `RadialProfile.evaluate_array`'s cubic Hermite is off by up to
    1e-6 on the accepted steps and 1e-8 on the singular grid.
    The profile needs two or more strictly increasing radii, or ValueError;
    r must lie between its first node and R, since nothing is extrapolated.
    """
    r = np.asarray(r, dtype=float)
    x, f, d = profile.radii, profile.values, profile.derivs
    if len(x) < 2 or np.any(np.diff(x) <= 0.0):
        raise ValueError("quintic interpolation needs two or more strictly increasing radii")
    if np.any(r < x[0]) or np.any(r > profile.R):
        raise ValueError("radii outside the profile's nodes")
    a, _ = weight_arrays(cfg.weight, x)
    dd = -(cfg.dim - 1.0) / x * d - a * np.exp(f)
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
    j = i + 1
    h = x[j] - x[i]
    t = (r - x[i]) / h
    s = 1.0 - t
    h2 = 0.5 * h * h
    return (
        s ** 3 * ((1.0 + 3.0 * t + 6.0 * t * t) * f[i]
                  + t * (1.0 + 3.0 * t) * h * d[i] + t * t * h2 * dd[i])
        + t ** 3 * ((1.0 + 3.0 * s + 6.0 * s * s) * f[j]
                    - s * (1.0 + 3.0 * s) * h * d[j] + s * s * h2 * dd[j])
    )


def integrate_second_variation(cfg: ProblemConfig, beta: float, radii=None) -> RadialProfile:
    """Second beta-derivative of v, integrated jointly with v and e."""
    _check_beta(beta)
    radii_arr, nodes = _output_radii(cfg, radii)
    out = _run(cfg, beta, nodes, second=True)
    states = np.asarray(out)
    return RadialProfile(radii_arr, states[:, 4], states[:, 5])


def lambda_second_derivative(cfg: ProblemConfig, beta: float) -> float:
    """d^2 lambda / d beta^2 = lambda (w(1) + e(1)^2), w the second variation."""
    _check_beta(beta)
    v1, _, e1, _, w1, _ = _run(cfg, beta, [1.0], second=True)[0]
    return math.exp(v1) * (w1 + e1 * e1)


def singular_series_coefficient(cfg: ProblemConfig) -> float:
    """d2 in V = -2 log r + log 2(N-2) + d2 r^2 + ..."""
    N = cfg.dim
    return -(N - 2.0) * cfg.weight.a2pp / (4.0 * (N - 1.0))


def integrate_singular(cfg: ProblemConfig, radii=None):
    """Integrate the singular radial solution outward from its matched start.

    Returns (lambda_star, profile). Forward integration is stable here:
    perturbations of the -2 log r branch decay like r^{-s} with
    Re s > 0 reversed, i.e. both linearized modes decay as r grows.
    """
    N = cfg.dim
    r0 = cfg.r_start
    d2 = singular_series_coefficient(cfg)
    V0 = -2.0 * math.log(r0) + math.log(2.0 * (N - 2.0)) + d2 * r0 * r0
    dV0 = -2.0 / r0 + 2.0 * d2 * r0
    a_of = weight_fn(cfg.weight)
    nm1 = float(N - 1)
    exp, cap = math.exp, _EXP_CAP

    def fun(r, y):
        v, dv = y
        g = a_of(r) * exp(v if v < cap else cap)
        return [dv, -nm1 / r * dv - g]

    radii_arr, nodes = _output_radii(cfg, radii)
    states = np.asarray(_integrate(cfg, fun, r0, [V0, dV0], nodes))
    lam_star = math.exp(float(states[-1, 0]))
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
    a, _ = weight_arrays(weight, r)
    rhs = explicit_lambda_h(dim, h) * a * np.exp(U)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def _power_quad_segment(xa, ga, xb, gb, xc, gc, p, q, pw: int):
    """Integral over [p, q] of s^pw * (quadratic through the three g samples).

    Fitting only the smooth factor g and integrating the s^pw measure
    exactly keeps the scheme accurate on geometric grids near 0, where the
    full integrand varies like s^pw across a single cell.
    """
    f1 = (gb - ga) / (xb - xa)
    f2 = ((gc - gb) / (xc - xb) - f1) / (xc - xa)
    # monomial form A + B s + C s^2
    A = ga - f1 * xa + f2 * xa * xb
    B = f1 - f2 * (xa + xb)
    C = f2
    m0 = (q ** (pw + 1) - p ** (pw + 1)) / (pw + 1)
    m1 = (q ** (pw + 2) - p ** (pw + 2)) / (pw + 2)
    m2 = (q ** (pw + 3) - p ** (pw + 3)) / (pw + 3)
    return A * m0 + B * m1 + C * m2


def cumulative_power_integral(x, g, pw: int) -> np.ndarray:
    """Cumulative integral of s^pw g(s) from x[0], g sampled at x.

    Local quadratic fits of g, averaged left/right stencils in the
    interior; the power weight is integrated exactly."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples")
    dI = np.empty(n - 1)
    # stencil (i, i+1, i+2) integrated on [x_i, x_{i+1}]
    right = _power_quad_segment(x[:-2], g[:-2], x[1:-1], g[1:-1], x[2:], g[2:],
                                x[:-2], x[1:-1], pw)
    # stencil (i-1, i, i+1) integrated on [x_i, x_{i+1}]
    left = _power_quad_segment(x[:-2], g[:-2], x[1:-1], g[1:-1], x[2:], g[2:],
                               x[1:-1], x[2:], pw)
    dI[0] = right[0]
    dI[-1] = left[-1]
    dI[1:-1] = 0.5 * (left[:-1] + right[1:])
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(dI, out=out[1:])
    return out


def flux_residual(cfg: ProblemConfig, shoot: ShootResult) -> float:
    """Relative defect in -r^{N-1} v' = int_0^r s^{N-1} a e^v ds.

    The piece of the integral below r_start comes from the series start.
    """
    N = cfg.dim
    r = shoot.profile.radii
    v = shoot.profile.values
    dv = shoot.profile.derivs
    a, _ = weight_arrays(cfg.weight, r)
    c2, _, _, _ = _series_coeffs(cfg, shoot.beta)
    a2 = 0.5 * cfg.weight.a2pp
    r0 = cfg.r_start
    eb = math.exp(shoot.beta)
    closure = eb * (r0 ** N / N + (a2 + c2) * r0 ** (N + 2) / (N + 2))
    F = closure + cumulative_power_integral(r, a * np.exp(v), N - 1)
    L = -(r ** (N - 1)) * dv
    denom = np.maximum(np.abs(L), np.abs(F))
    return float(np.max(np.abs(L - F) / denom))


def pohozaev_residual(cfg: ProblemConfig, shoot: ShootResult, mu: float) -> float:
    """Relative defect in the one-parameter Pohozaev identity on [r_start, 1].

    d/dr { r^N (v'^2/2 + a(e^v - 1)) + mu r^{N-1} v v' }
      = a'(e^v - 1) r^N
        + r^{N-1} [ N a (e^v - 1) - mu a v e^v + (mu + 1 - N/2) v'^2 ]

    holds pointwise for solutions of the shooting ODE; both sides are
    integrated over the profile's support and compared.
    """
    N = cfg.dim
    r = shoot.profile.radii
    v = shoot.profile.values
    dv = shoot.profile.derivs
    a, da = weight_arrays(cfg.weight, r)
    ev = np.exp(v)
    T = r ** N * (0.5 * dv * dv + a * (ev - 1.0)) + mu * r ** (N - 1) * v * dv
    boundary = float(T[-1] - T[0])
    IA = float(cumulative_power_integral(r, da * (ev - 1.0), N)[-1])
    IB = float(
        cumulative_power_integral(
            r,
            N * a * (ev - 1.0) - mu * a * v * ev + (mu + 1.0 - 0.5 * N) * dv * dv,
            N - 1,
        )[-1]
    )
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
    profile (no rescaling); beta < 0 is an error (empty window).
    """
    N = cfg.dim
    r = profile.radii
    t = -np.log(r)[::-1]
    w = (profile.values + 2.0 * np.log(r) - math.log(2.0 * (N - 2.0)))[::-1]
    dwdt = -(r * profile.derivs + 2.0)[::-1]
    emden = RadialProfile(t, w, dwdt, R=float(t[-1]))

    if beta is None:
        return AsymptoticDiagnostics(emden=emden, rescaled=None)
    if beta < 0.0:
        raise ValueError("rescaling window is empty for beta < 0")

    rescaled = rescaled_profile(cfg, beta, r_max=3.0)
    return AsymptoticDiagnostics(emden=emden, rescaled=rescaled)


def rescaled_profile(cfg: ProblemConfig, beta: float, r_max: float = 3.0) -> RadialProfile:
    """v-hat(rho) = v(rho e^{-beta/2}) - beta on [r_start, r_max].

    The weight family is closed under the rescaling r -> c r, so v-hat is
    computed by shooting the rescaled equation (weight a(c rho), height 0)
    directly. That stays accurate uniformly in beta, including when the
    rescaling window maps below r_start or beyond r = 1 of the original
    problem; beyond r = 1 the weight's natural formula is used, guarded
    for positivity.
    """
    if beta < 0.0:
        raise ValueError("rescaling window is empty for beta < 0")
    w = cfg.weight
    c2 = math.exp(-beta)  # (e^{-beta/2})^2; only even powers of c appear
    scaled = Weight(
        spec=f"{w.spec}@rescaled",
        coeffs=tuple(ci * c2 ** i for i, ci in enumerate(w.coeffs, start=1)),
        tilt=w.tilt * c2,
    )
    cfg_hat = replace(cfg, weight=scaled)
    radii = default_grid(cfg_hat, R=r_max)
    states = np.asarray(_run(cfg_hat, 0.0, [float(x) for x in radii]))
    return RadialProfile(radii, states[:, 0], states[:, 1], R=r_max)
