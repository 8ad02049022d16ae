"""Bifurcation curve tracing, fold refinement, and diagram classification.

The radial solution branch is the analytic curve beta -> (lambda(beta),
alpha(beta)) with alpha = beta - log lambda. Tracing marches beta with an
adaptive step (capped by the caller), halving whenever log lambda leaves
its tangent prediction by more than 0.01; a sign flip of dlambda/dbeta
between samples is only bracketed, and the fold is refined afterwards by
Brent's method on the variational derivative. Classification into diagram
types is a windowed decision rule, not a theorem: a window can only ever
certify finitely many oscillations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._stepper import IntegrationError, zeroin
from .radial_ode import (
    BETA_MAX_GUARD,
    BETA_MIN_GUARD,
    ProblemConfig,
    RadialProfile,
    ShootResult,
    integrate_ivp,
    quintic_values,
)
from .weights import make_ah, parse_weight, ratio_derivative_sign, weight_arrays

BETA_TOL = 1e-8           # fold bracket width target
FOLD_FLATNESS = 1e-8      # |dlambda/dbeta| <= FOLD_FLATNESS * max(1, lambda)
CHATTER_REL = 1e-9        # |lambda - lambda_star| below this (relative) is noise
STEP_HALVINGS = 12        # step floor = max_step / 2**STEP_HALVINGS


@dataclass(frozen=True)
class TurningPoint:
    beta: float
    lam: float
    alpha: float
    kind: str  # "Max" or "Min"

    def __post_init__(self):
        if self.kind not in ("Max", "Min"):
            raise ValueError(f"turning point kind must be Max or Min, got {self.kind!r}")


@dataclass(frozen=True)
class BifurcationCurve:
    samples: tuple[ShootResult, ...]
    turning_points: tuple[TurningPoint, ...]
    beta_range: tuple[float, float]
    complete: bool = True
    diagnostic: str = ""

    @property
    def betas(self) -> np.ndarray:
        return np.array([s.beta for s in self.samples])

    @property
    def lams(self) -> np.ndarray:
        return np.array([s.lam for s in self.samples])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.samples])


@dataclass(frozen=True)
class ClassificationReport:
    diagram_type: str  # "I", "II", "III", "Undetermined"
    lambda_star: float
    lambda_extremal: float
    turning_points: tuple[TurningPoint, ...]
    oscillation_count: int
    extremal_bounded: bool
    evidence: str


def _deadband_sign(dlam: float, lam: float, rel_tol: float) -> int:
    """Sign of dlambda/dbeta, zero inside the solver-noise deadband.

    Oscillation amplitudes below the working tolerance cannot be resolved;
    folds whose derivative never leaves the band are dropped rather than
    placed at noise."""
    band = 50.0 * rel_tol * max(1.0, abs(lam))
    if abs(dlam) <= band:
        return 0
    return 1 if dlam > 0.0 else -1


def trace_curve(cfg: ProblemConfig, beta_min: float, beta_max: float,
                max_step: float = 0.25) -> BifurcationCurve:
    """March the solution curve over [beta_min, beta_max].

    Step control: halve while log lambda at the candidate misses the
    tangent prediction log lambda + delta beta * e(1) of the last sample by
    more than 0.01 (lambda by about 1%), down to a floor of max_step / 2^12
    (the floor step is accepted as-is); regrow by 2 after two clean
    accepts. Where lambda ~ 2N e^beta the tangent is almost exact and the
    march takes max_step. A sign flip of dlambda/dbeta does not shrink the
    step: it records a bracket, and refine_fold narrows it by Brent's
    method after the march.
    An integrator failure truncates the curve and records a diagnostic.
    """
    if not beta_min < beta_max:
        raise ValueError(f"need beta_min < beta_max, got [{beta_min}, {beta_max}]")
    if not (BETA_MIN_GUARD <= beta_min and beta_max <= BETA_MAX_GUARD):
        raise ValueError(
            f"beta window [{beta_min}, {beta_max}] outside guard range "
            f"[{BETA_MIN_GUARD}, {BETA_MAX_GUARD}]"
        )
    if not 0.0 < max_step <= 1.0:
        raise ValueError(f"max_step must lie in (0, 1], got {max_step}")

    first = integrate_ivp(cfg, beta_min, trace=True)
    samples = [first]
    brackets: list[tuple[ShootResult, ShootResult]] = []
    complete = True
    diagnostic = ""

    floor = max_step / 2.0 ** STEP_HALVINGS
    step = max_step
    clean = 0
    # last accepted sample whose derivative sign is outside the deadband;
    # comparing against it keeps folds visible when a sample lands inside
    # the band right at the fold
    anchor = first
    anchor_sign = _deadband_sign(first.dlambda_dbeta, first.lam, cfg.rel_tol)
    while samples[-1].beta < beta_max - 1e-12:
        prev = samples[-1]
        target = min(prev.beta + step, beta_max)
        try:
            cand = integrate_ivp(cfg, target, trace=True)
        except IntegrationError as exc:
            complete = False
            diagnostic = f"integration failed at beta={target:.6g}: {exc}"
            break
        # v1 = log lambda, and its slope in beta is e(1) = dlambda_dbeta / lam
        miss = cand.v1 - prev.v1 - (cand.beta - prev.beta) * prev.dlambda_dbeta / prev.lam
        if abs(miss) > 0.01 and step > floor:
            step = max(0.5 * step, floor)
            clean = 0
            continue
        samples.append(cand)
        s_cand = _deadband_sign(cand.dlambda_dbeta, cand.lam, cfg.rel_tol)
        if anchor_sign != 0 and s_cand != 0 and s_cand != anchor_sign:
            brackets.append((anchor, cand))
        if s_cand != 0:
            anchor = cand
            anchor_sign = s_cand
        clean += 1
        if clean >= 2:
            step = min(2.0 * step, max_step)

    tps = [refine_fold(cfg, lo, hi) for lo, hi in brackets]
    for a, b in zip(tps, tps[1:]):
        if a.kind == b.kind:
            raise RuntimeError(
                f"turning point kinds failed to alternate: {a} then {b}"
            )
    return BifurcationCurve(
        samples=tuple(samples),
        turning_points=tuple(tps),
        beta_range=(beta_min, beta_max),
        complete=complete,
        diagnostic=diagnostic,
    )


def refine_fold(cfg: ProblemConfig, lo: ShootResult, hi: ShootResult) -> TurningPoint:
    """Place the fold in a sign change of dlambda/dbeta by Brent's method.

    lo and hi are the march's shoots at the bracket's ends. `_stepper.zeroin`
    runs on (beta, dlambda/dbeta = lambda e(1), shoot) and shoots only
    strictly inside the bracket. The returned point is the better end of a
    bracket at most BETA_TOL wide, with |dlambda/dbeta| <= FOLD_FLATNESS *
    max(1, lambda); RuntimeError when the iterations, or the floats inside
    the bracket, run out first.
    """
    if not (lo.dlambda_dbeta != 0.0 and
            lo.dlambda_dbeta * hi.dlambda_dbeta < 0.0):
        raise ValueError(
            f"no derivative sign change on [{lo.beta}, {hi.beta}]: "
            f"{lo.dlambda_dbeta} vs {hi.dlambda_dbeta}"
        )
    kind = "Max" if lo.dlambda_dbeta > 0.0 else "Min"

    def point(shoot):
        return shoot.beta, shoot.dlambda_dbeta, shoot
    fold = zeroin(
        lambda beta: point(integrate_ivp(cfg, beta, trace=True)), point(lo), point(hi),
        lambda beta: 0.5 * BETA_TOL, lambda p: abs(p[1]) <= FOLD_FLATNESS * max(1.0, p[2].lam),
        "fold refinement on [{lo}, {hi}] stopped at the bracket [{left}, {right}] "
        "with |dlambda/dbeta| = {f:.3g} at beta={x}")[0][2]
    return TurningPoint(beta=fold.beta, lam=fold.lam, alpha=fold.alpha, kind=kind)


def classify(cfg: ProblemConfig, curve: BifurcationCurve,
             lambda_star: float) -> ClassificationReport:
    """Windowed diagram classification.

    Decision rule (in order): type II iff there are no turning points and
    lambda is strictly increasing across all samples; type I iff
    lambda - lambda_star changes sign at least 3 times (ignoring samples
    within 1e-9 * lambda_star of the center) and at least one change lies
    in the final third of the window; type III iff there is at least one
    turning point, none in the final third, no late sign change, and
    lambda is monotone on the final third; otherwise Undetermined.
    """
    if not curve.samples:
        raise ValueError("cannot classify an empty curve")
    betas = curve.betas
    lams = curve.lams
    b0, b1 = float(betas[0]), float(betas[-1])
    if b1 < 30.0:
        raise ValueError(f"classification window must reach beta >= 30, got {b1}")
    cutoff = b0 + (2.0 / 3.0) * (b1 - b0)
    chatter = CHATTER_REL * abs(lambda_star)

    keep = np.abs(lams - lambda_star) >= chatter
    kb = betas[keep]
    ks = np.sign(lams[keep] - lambda_star)
    flips = np.nonzero(ks[1:] * ks[:-1] < 0.0)[0]
    osc_count = int(len(flips))
    flip_betas = 0.5 * (kb[flips] + kb[flips + 1]) if osc_count else np.array([])
    late_flip = bool(np.any(flip_betas >= cutoff)) if osc_count else False

    # strict increase up to solver resolution: a decrease only counts when
    # it exceeds the chatter scale (converged tails are flat at noise level)
    strictly_increasing = bool(np.all(np.diff(lams) >= -chatter)
                               and lams[-1] > lams[0])
    tail = lams[betas >= cutoff]
    tol = chatter
    tail_mono = bool(len(tail) < 2
                     or np.all(np.diff(tail) >= -tol)
                     or np.all(np.diff(tail) <= tol))
    tp_late = any(tp.beta >= cutoff for tp in curve.turning_points)
    n_tp = len(curve.turning_points)

    if n_tp == 0 and strictly_increasing:
        dtype = "II"
    elif osc_count >= 3 and late_flip:
        dtype = "I"
    elif n_tp >= 1 and not late_flip and not tp_late and tail_mono:
        dtype = "III"
    else:
        dtype = "Undetermined"

    evidence = (
        f"window=[{b0:.6g},{b1:.6g}] cutoff={cutoff:.6g} "
        f"turning_points={n_tp} (late={tp_late}) "
        f"oscillations={osc_count} (late={late_flip}) "
        f"strictly_increasing={strictly_increasing} tail_monotone={tail_mono} "
        f"lambda_star={lambda_star:.12g}"
    )
    return ClassificationReport(
        diagram_type=dtype,
        lambda_star=lambda_star,
        lambda_extremal=float(np.max(lams)),
        turning_points=curve.turning_points,
        oscillation_count=osc_count,
        extremal_bounded=(dtype != "II"),
        evidence=evidence,
    )


def _values(cfg: ProblemConfig, beta: float):
    """r -> v(r, beta), read from one shoot on the integrator's accepted steps."""
    profile = integrate_ivp(cfg, beta, trace=True).profile
    return lambda r: quintic_values(cfg, profile, r)


def zero_number(cfg: ProblemConfig, beta: float,
                singular_profile: RadialProfile) -> int:
    """Resolved sign changes of v(., beta) - V_* on [r_start, 1], in one pass.

    singular_profile must be a singular solution of the same ODE, such as
    `integrate_singular(cfg)`'s, whose nodes cover [r_start, 1] (otherwise
    ValueError). v, from one shoot on the accepted steps, and V_* are both
    read by quintic Hermite (`quintic_values`) on an 8192-point geometric
    grid. Its error on V_* lies far below the resolution floor, where the
    cubic Hermite's could invent crossings.
    """
    base = np.geomspace(cfg.r_start, 1.0, 8192)
    v = _values(cfg, beta)(base)
    vs = quintic_values(cfg, singular_profile, base)
    # crossings count only when the difference is resolved: the excursion
    # on each side must clear the solver-noise floor (profiles that agree
    # to working precision have no certifiable crossing there)
    floor = 100.0 * cfg.rel_tol * max(
        1.0, float(np.max(np.abs(v))), float(np.max(np.abs(vs)))
    )
    return _resolved_sign_changes(v - vs, floor)


def _resolved_sign_changes(d: np.ndarray, floor: float) -> int:
    """Sign changes between maximal constant-sign blocks whose amplitude
    reaches `floor`; sub-floor blocks are noise and are dropped."""
    x = d[d != 0.0]
    signs = np.sign(x)
    starts = np.flatnonzero(np.diff(signs, prepend=np.nan) != 0.0)
    if len(starts) == 0:
        return 0
    amps = np.maximum.reduceat(np.abs(x), starts)
    resolved = signs[starts][amps >= floor]
    return int(np.count_nonzero(resolved[1:] != resolved[:-1]))


def check_separation(cfg: ProblemConfig, h: float, beta: float, gamma: float):
    """Ordering of shot profiles and the weighted comparison gap.

    Returns (min_gap_v, min_gap_weighted, r_h) where r_h = min(1, sqrt(H/h))
    bounds the comparison window, min_gap_v = min of v(., gamma) - v(., beta)
    on (r_start, r_h), and min_gap_weighted = min of
    [v_H(., gamma) + log a_H] - [v(., beta) + log a] there (a_H the
    borderline member of the explicit family). At dimension 10 the weight
    must be in the (a/a_h)' <= 0 class or the input is rejected; in other
    dimensions the gaps are reported without a hypothesis guarantee. Each
    of the three profiles comes from one shoot on the accepted steps, read
    on a 4097-point geometric grid by quintic Hermite (`quintic_values`).
    """
    if gamma < beta:
        raise ValueError(f"need gamma >= beta, got beta={beta}, gamma={gamma}")
    from .spectral import hardy_constant

    H = hardy_constant()
    if cfg.dim == 10:
        sign_class = ratio_derivative_sign(cfg.weight, 10, reference=make_ah(h, 10))
        if sign_class != "NonPositiveEverywhere":
            raise ValueError(
                f"weight is not in the (a/a_h)' <= 0 class (got {sign_class}); "
                "the separation hypothesis fails"
            )
    r_h = min(1.0, math.sqrt(H / h)) if h > 0.0 else 1.0
    grid = np.geomspace(cfg.r_start, r_h, 4097)

    v_beta = _values(cfg, beta)(grid)
    v_gamma = _values(cfg, gamma)(grid)
    min_gap_v = float(np.min(v_gamma - v_beta))

    ah_ref = make_ah(H, cfg.dim)
    cfg_ref = replace(cfg, weight=ah_ref)
    vh_gamma = _values(cfg_ref, gamma)(grid)
    log_a = np.log(weight_arrays(cfg.weight, grid)[0])
    log_ah = np.log(weight_arrays(ah_ref, grid)[0])
    min_gap_weighted = float(np.min((vh_gamma + log_ah) - (v_beta + log_a)))
    return min_gap_v, min_gap_weighted, r_h


def check_lower_envelope(cfg: ProblemConfig, beta: float, gamma: float,
                         eps0: float) -> float:
    """Minimum of [v(., gamma) + log a] - [v_0(., beta) + log(1 + q r^2)]
    over (r_start, 1), with q = (H + eps0) / (2(N-2)) and v_0 the unweighted
    shot profile. Positive when the increasing-ratio envelope bound holds.
    Both profiles come from one shoot each on the accepted steps, read on a
    4097-point geometric grid by quintic Hermite (`quintic_values`).
    """
    if cfg.dim != 10:
        raise ValueError("the lower envelope bound is specific to dimension 10")
    if not 0.0 < beta < gamma:
        raise ValueError(f"need 0 < beta < gamma, got beta={beta}, gamma={gamma}")
    if not 0.0 <= eps0 <= 1.0:
        raise ValueError(f"eps0 must lie in [0, 1], got {eps0}")
    sign_class = ratio_derivative_sign(cfg.weight, 10)
    if sign_class != "PositiveEverywhere":
        raise ValueError(
            f"weight is not in the (a/a_H)' > 0 class (got {sign_class}); "
            "the envelope hypothesis fails"
        )
    from .spectral import hardy_constant

    grid = np.geomspace(cfg.r_start, 1.0, 4097)
    v_gamma = _values(cfg, gamma)(grid)
    cfg0 = replace(cfg, weight=parse_weight("const"))
    v0_beta = _values(cfg0, beta)(grid)
    q = (hardy_constant() + eps0) / (2.0 * (cfg.dim - 2.0))
    log_a = np.log(weight_arrays(cfg.weight, grid)[0])
    gap = (v_gamma + log_a) - (v0_beta + np.log1p(q * grid * grid))
    return float(np.min(gap))
