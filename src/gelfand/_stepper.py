"""Adaptive Dormand-Prince 8(5,3) integrator (DOP853) with PI step control.

Shared by the radial shooting routines and the Pruefer phase integration
(``spectral._prufer_theta_end``).
Kept deliberately plain and deterministic: floats, no events, output
nodes are hit exactly by clamping the step. The method is Dormand and
Prince's DOP853 (E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
Differential Equations I, 2nd ed., section II.10) with the coefficients of
scipy's ``dop853_coefficients``: twelve new right-hand-side calls per step
attempt, the last of them, at the new point, serving as the next step's
first (FSAL). A step is accepted on Hairer's combined error estimate
h e5 / sqrt((e5 + 0.01 e3) n), with e5 and e3 the squared scaled norms of
the embedded 5th and 3rd order error vectors, as in scipy's DOP853. The
dense output's three extra stages are never computed: value readers
interpolate by Hermite with derivatives from the ODE, all from one
builder of two-point Hermite coefficients (``radial_ode._hermite_coeffs``).
Grid fills (``radial_ode._grid_states``) read accepted steps by degree 7,
``radial_ode.hermite_values`` reads profiles by degree 9 in log r, the
numeric potentials of ``spectral`` read their nodes by degree 7
(``radial_ode.RadialProfile.from_jets``), and so do the flux and Pohozaev
checks at their Gauss-Legendre nodes (``radial_ode._gauss_cells``).

Output nodes bound the step: a step that would pass a node is clamped to
end on it. A regular shoot starts where its Taylor series at r = 0 stops
being exact to rounding (``radial_ode._Series``) and takes its states below
that radius r0 from the series, and so does the singular solution, from
its series in the Emden variable (``radial_ode._SingularSeries``), so
``solve`` never crawls up from r_start. Grid shoots
(``radial_ode.integrate_ivp`` with radii, ``integrate_singular`` and
``rescaled_profile``, all through ``radial_ode._integrate``) pass
``bound``: no step from x is longer than min(0.02, 0.26 x). They land
only on their last radius, on r = 1 and on any radius farther than that
bound from the one before it, and fill the other radii from the accepted
steps by degree-7 Hermite (``radial_ode._grid_states``). On
``radial_ode.default_grid`` that is r = 1 alone: 397 right-hand-side
calls for N=10, a_h at h=40, beta=3 (33 accepted steps beyond r0 =
0.42), where landing on 31 of its radii beyond r0, no farther apart than
the bound, took 853 and landing on each of them 3 517. The singular
series of const and every a_h reaches r = 1, so their singular solution
makes no ``solve`` call at all (it took 3 997 calls from r_start for
N=10, a_h at h=40); polyexp:1.5;d=0.5 at N=10 stops at r0 = 0.70 and
takes 193 calls (373 on 16 landings).
Consumers that need only values (zero numbers, separation and envelope
gaps) shoot on accepted steps (``integrate_ivp`` with ``trace=True``, as
curve tracing does) and interpolate. With a weight, such a shoot makes
one ``solve`` call where r0 < 1, in s = log r from r0 to r = 1
(``radial_ode._trace_shoots``): past the boundary layer the steps in r
would have to stay near 0.04 r along the nearly linear -2 log r profile.
In a march (``bifurcation.trace_curve``) that phase runs in a lane of
``solve_lanes`` instead (below). With const (and a_0) a trace shoot, in
a march too, makes one call: its steps beyond r0 are those of one
Emden-Fowler trajectory per dimension and tolerances
(``radial_ode._emden_trajectory``, built once), and the call lands on
r = 1 from the last of them.

The work is split in two. A driver owns the step controller (the node
clamp, the step budget, the underflow check, accept/reject, the PI factor
and the collection of accepted steps), and a stage function computes a
single step attempt: the twelve new right-hand-side evaluations, the 8th
order solution and the error estimate. ``solve`` drives one problem on
floats. The package integrates states of three sizes only: 1 (the
Pruefer phase), 2 (the singular solution and the Emden trajectory) and 4
(v and its first variation e). Every right-hand side of the package is
written once, as source lines (`Rhs`): the radial ones of ``radial_ode``
and the Pruefer phase of ``spectral``. ``compile_rhs`` builds from those
lines both the plain callable and a fused stage: the stage loop unrolled
into local scalars with the lines inlined at each of its twelve
abscissae, so that an attempt calls no Python function, only builtins
(``math.exp``, ``math.sin`` and ``math.cos``, and the error estimate's
abs, max and sqrt) and, for the Pruefer phase of a numeric potential,
its scalar interpolant ``smooth_at``. ``solve`` runs a callable on its
own fused stage (``fun.stage``) when it has one. Any other callable (a
test's oracle, a counting wrapper such as a benchmark tracer's) runs on
the generic stage of its size (``_generic_stage``), compiled when a state
of that size first needs one: the fused stage of the `Rhs` whose one line
calls that callable, so twelve calls per attempt. Stages come from one
generator (``_stage_function``), and every name that they introduce ends
in an underscore and a digit, which no `Rhs` may use. The 93
Pruefer solves of one spectral benchmark pass (seed 3293) take 95 ms on
their fused stage against 120 ms on the generic one (medians of 21
alternating replays, 2-core Xeon); before ``spectral.morse_index`` seeded
its brackets from the finite-volume eigenvalues the pass made 142, which
took 148 ms on the same host. Every stage performs the loop's
floating-point operations expression for expression and in the same
order, and a fused stage those of the right-hand side too, so states,
accepted steps and right-hand-side values are bit-identical to the
loop's; ``tests/test_stepper.py`` keeps that loop as the reference and
checks every size and every fused stage, the Pruefer phase's included,
against it with ``==``.

``solve_lanes`` drives a batch of problems of one right-hand side, one
lane each, on numpy arrays: every lane keeps its own step size, PI
history and accept/reject decision under ``solve``'s controller and
constants, and one iteration makes one attempt in every running lane.
Its stage (``fun.lanes()``, ``_lane_functions``) is compiled, on first
use, from the same `Rhs` lines, rewritten for arrays, with numpy's ufuncs
in place of math's functions; ``fun.lanes()`` refuses, with a
ValueError, a right-hand side that calls anything else, such as the
Pruefer phase with its ``smooth_at``, ``sin`` and ``cos``. The leading
lines that depend on the abscissa alone (with a weight: r, a(r) and its
positivity check, and r^2 a, each on a line of its own in
``radial_ode``) the stage evaluates once per attempt, on the twelve
abscissae of its right-hand-side calls at once, and the other lines at
each call; its results, and the lanes and messages of a failure, are
bit-identical to those of evaluating every line at every call, which
``tests/test_lanes.py`` keeps as the reference.
Lanes serve one caller, ``radial_ode.trace_lanes``, the march's one
entry point and the one place that decides how a march shoot runs: with
a weight that has coefficients or a tilt, the log-r phases of all the
betas of a call, whatever their sign, run as batches of at most 256
lanes; the march makes one call for its grid and one for each round of
the midpoints it bisects. With const (and a_0) each beta is shot on
``integrate_ivp``, from the one series of its dimension in
rho = e^{beta/2} r (``radial_ode._flat_terms``), which needs no
recurrence. The Taylor series of a lane batch come from one recurrence
on numpy arrays, an entry per beta, and their start states from one
evaluation of the power sums (``radial_ode._Series.lanes``): the scalar
recurrence's own lines, and
bit-identical to it only while each of its sums adds left to right, as
``functools.reduce(operator.add, ...)`` does on floats and arrays alike
and ``sum()`` does on floats only up to Python 3.11 (from 3.12 on it
compensates float sums). The weight series and the singular series add
that way too (``radial_ode._dot``). Everything else stays on ``solve``:
the const (and a_0) march shoots with their Emden landings, fold
refinement, zero numbers and every other single shoot, grid shoots, the
singular solution and the Pruefer phase. Whether on ``solve`` or in
lanes, a trace shoot computes its state at r = 1 at once and builds its
profiles on first read only (``radial_ode.ShootResult``), which a march
never does; a scalar series builds its start state on first read, which
an Emden landing never does. The lanes' steps are not bit-identical to
``solve``'s, numpy's exp and power rounding apart from Python's: over the
march lanes of N=10 and N=3 a_h at h=40 and N=9 polyexp:0.7,-0.2;d=0.3
the end states agree within 3.2e-14 relative, and all but 2 of the 529
lanes take ``solve``'s numbers of accepted and rejected steps
(``tests/test_lanes.py``). A lane's steps do not depend on the batch it
runs in: every operation is element-wise, and an iteration
in which every running lane accepts its step takes the new states as
they are, where any other merges accepted and rejected lanes.

``zeroin`` is the one root finder (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4): inverse quadratic or secant steps where
they land well inside the bracket and shrink it fast, else bisection. It
places folds (``refine_fold``) and Pruefer eigenvalues (``morse_index``).
"""

from __future__ import annotations

import ast
import copy
import math
from functools import cache
from math import copysign, sqrt
from typing import NamedTuple

import numpy as np


class IntegrationError(RuntimeError):
    """Step size underflow, step budget exhausted, or a right-hand side
    that raised ValueError (e.g. a nonpositive weight).

    Carries the independent-variable value reached so callers can report
    how far the integration got before failing.
    """

    def __init__(self, message: str, reached: float):
        super().__init__(message)
        self.reached = reached


# DOP853 tableau, 1-based as in Hairer, Norsett & Wanner: stage s runs at
# x + _C[s] h on y + h sum_j _A[s][j] k_j (nonzero a_sj only), the step is
# y + h sum_j _B[j] k_j, and _E5, _E3 weigh the stages into the embedded
# 5th and 3rd order error estimates.
_C = {2: 0.05260015195876773, 3: 0.0789002279381516, 4: 0.1183503419072274,
      5: 0.2816496580927726, 6: 0.3333333333333333, 7: 0.25, 8: 0.3076923076923077,
      9: 0.6512820512820513, 10: 0.6, 11: 0.8571428571428571, 12: 1.0}
_A = {
    2: {1: 0.05260015195876773},
    3: {1: 0.0197250569845379, 2: 0.0591751709536137},
    4: {1: 0.02958758547680685, 3: 0.08876275643042054},
    5: {1: 0.2413651341592667, 3: -0.8845494793282861, 4: 0.924834003261792},
    6: {1: 0.037037037037037035, 4: 0.17082860872947386, 5: 0.12546768756682242},
    7: {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596, 6: -0.017578125},
    8: {1: 0.03709200011850479, 4: 0.17038392571223998, 5: 0.10726203044637328,
        6: -0.015319437748624402, 7: 0.008273789163814023},
    9: {1: 0.6241109587160757, 4: -3.3608926294469414, 5: -0.868219346841726,
        6: 27.59209969944671, 7: 20.154067550477894, 8: -43.48988418106996},
    10: {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
         6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
         9: -0.020331201708508627},
    11: {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
         6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
         9: 2.4936055526796523, 10: -3.0467644718982196},
    12: {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625,
         6: -17.9589318631188, 7: 27.94888452941996, 8: -2.8589982771350235,
         9: -8.87285693353063, 10: 12.360567175794303, 11: 0.6433927460157636},
}
_B = {1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003,
      8: -5.801203960010585, 9: 0.3111643669578199, 10: -0.1521609496625161,
      11: 0.20136540080403034, 12: 0.04471061572777259}
_E5 = {1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
       8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
       11: 0.08192320648511571, 12: -0.022355307863886294}
_E3 = {1: -0.18980075407240762, 6: 4.450312892752409, 7: 1.8915178993145003,
       8: -5.801203960010585, 9: -0.4226823213237919, 10: -0.1521609496625161,
       11: 0.20136540080403034, 12: 0.02265179219836082}

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0
_MAX_STEPS = 2_000_000


def solve(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False, bound=None):
    """Integrate y' = fun(x, y) from x0 through each node in `nodes`.

    y0 has 1, 2 or 4 components; fun(x, y) takes the state as a list
    and returns the derivative as a sequence of the same length. A callable
    made by `compile_rhs` (the radial and Pruefer right-hand sides) is
    called once, for the first step's k1, and every attempt runs on its
    fused stage; any other callable runs on the generic stage of its size,
    twelve calls per attempt, with bit-identical results. nodes must
    not decrease; a node at or below the point already reached (x0, or the
    node before it) repeats the current state. bound=(cap, rel) limits
    every step from x to min(cap, rel x) before the clamp onto a node.
    Returns the list of states at the nodes; with collect=True returns
    (node_states, xs, ys) where xs/ys are every accepted step point
    including x0 and all nodes. Raises IntegrationError on step size
    underflow, on an exhausted step budget and when fun raises ValueError,
    each with the last accepted point as `reached`.
    """
    stage = getattr(fun, "stage", None)
    if stage is not None:
        head = fun.stage_args
    else:
        stage, head = _generic_stage(len(y0)), (fun,)
    if bound is not None:
        cap, rel = bound
    x = x0
    y = list(y0)
    try:  # fun (here, and called or inlined in the stage) is the only source of ValueError
        k1 = fun(x0, y)
        span = nodes[-1] - x0
        h = min(1e-2 * span if first_step is None else first_step, span)
        out = []
        xs = [x0] if collect else None
        ys = [y] if collect else None
        err_prev = 1.0
        nsteps = 0
        for target in nodes:
            while x < target:
                if nsteps > _MAX_STEPS:
                    raise IntegrationError("step budget exhausted", x)
                if bound is not None:
                    h = min(h, cap, rel * x)
                clamped = h >= target - x
                h_try = target - x if clamped else h
                x_new = x + h_try
                if x_new == x:
                    raise IntegrationError("step size underflow", x)
                y_new, k13, err = stage(head, x, h_try, x_new, y, k1, rtol, atol)
                nsteps += 1
                if err <= 1.0:
                    x = x_new if not clamped else target
                    y, k1 = y_new, k13
                    if collect:
                        xs.append(x)
                        ys.append(y)
                    if err == 0.0:
                        fac = _MAX_FACTOR
                    else:
                        fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                        fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                    err_prev = max(err, 1e-10)
                    h = max(h, h_try * fac) if clamped else h_try * fac
                else:
                    h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            out.append(y)
    except ValueError as exc:
        raise IntegrationError(str(exc), x) from exc
    if collect:
        return out, xs, ys
    return out


class Lane(NamedTuple):
    """One lane of `solve_lanes`: its accepted step points xs, x0 first,
    the states there, one row each, and its number of step attempts."""

    xs: np.ndarray
    ys: np.ndarray
    attempts: int


class _LaneFailure(Exception):
    """A lane right-hand side raised for the lanes where `mask` holds;
    `errors` holds their exceptions, in lane order."""

    def __init__(self, mask, errors):
        super().__init__(errors)
        self.mask = mask
        self.errors = errors


def solve_lanes(fun, x0, y0, x1, rtol, atol):
    """Integrate y' = fun(x, y) in lanes, lane i from x0[i] to x1[i] > x0[i].

    fun is a callable made by `compile_rhs`; y0 holds the start states, one
    column per lane (shape (n, lanes)). Every lane runs `solve`'s controller
    on its own: its own step size, starting at 1e-2 of its span, its own PI
    history and accept/reject decision, the clamp onto x1[i], the step
    budget and the underflow check, with `solve`'s tableau and constants.
    One iteration makes one step attempt in every running lane, on numpy
    arrays, by the lane stage of fun (`_lane_functions`). Element-wise
    operations only, so a lane's steps do not depend on the other lanes in
    the batch. An iteration in which every running lane accepts takes the
    attempt's states, points and step sizes as they are; any other selects
    them lane by lane, which gives the same bits. They differ from
    `solve`'s in the last bits, numpy's exp and power rounding apart from
    Python's.

    Returns one entry per lane: its `Lane`, or the IntegrationError that
    ended it (step size underflow, step budget exhausted, or the ValueError
    of fun in that lane), with its last accepted point as `reached`. A
    failed lane ends alone; the others go on.
    """
    lane_rhs, stage = fun.lanes()
    args = fun.stage_args
    x0 = np.array(x0, dtype=float)
    x1 = np.array(x1, dtype=float)
    y0 = np.array(y0, dtype=float)
    if not np.all(x0 < x1):
        raise ValueError("every lane must end beyond its start")
    out: list = [None] * len(x0)
    ids = np.arange(len(x0))  # the lane of each running column
    x, target, y, k1 = x0, x1, y0, None
    span = x1 - x0
    h = np.minimum(1e-2 * span, span)
    err_prev = np.ones_like(x0)
    attempts = np.zeros(len(x0), dtype=int)
    taken = []  # per iteration: (lanes, points, states) of the accepted steps

    def drop(keep):  # go on with the running lanes where keep holds
        nonlocal ids, x, target, y, k1, h, err_prev
        ids, x, target, y, h, err_prev = (ids[keep], x[keep], target[keep], y[:, keep],
                                          h[keep], err_prev[keep])
        if k1 is not None:
            k1 = k1[:, keep]

    def fail(mask, errors):  # end the lanes where mask holds, one error each
        for lane, reached, error in zip(ids[mask], x[mask], errors):
            out[lane] = IntegrationError(str(error), float(reached))
            if isinstance(error, Exception):
                out[lane].__cause__ = error
        drop(~mask)

    with np.errstate(all="ignore"):  # overflow in a trial stage only rejects the step
        while k1 is None and len(ids):
            try:
                k1 = lane_rhs(args, x, y)
            except _LaneFailure as exc:
                fail(exc.mask, exc.errors)
        while len(ids):
            over = attempts[ids] > _MAX_STEPS
            gap = target - x
            clamped = h >= gap
            h_try = np.where(clamped, gap, h)
            x_new = x + h_try
            ended = over | (x_new == x)
            if ended.any():
                fail(ended, ["step budget exhausted" if o else "step size underflow"
                             for o in over[ended]])
                continue
            try:
                y_new, k13, err = stage(args, x, h_try, x_new, y, k1, rtol, atol)
            except _LaneFailure as exc:  # the other lanes retry the attempt
                fail(exc.mask, exc.errors)
                continue
            attempts[ids] += 1
            ok = err <= 1.0
            grow = err ** (-_PI_ALPHA)
            fac = np.minimum(_MAX_FACTOR,
                             np.maximum(_MIN_FACTOR, _SAFETY * grow * err_prev ** _PI_BETA))
            h_ok = np.where(clamped, np.maximum(h, h_try * fac), h_try * fac)
            x_ok = np.where(clamped, target, x_new)
            err_ok = np.maximum(err, 1e-10)
            if ok.all():  # nothing to merge: the accepted steps are the new state
                h, err_prev, x, y, k1 = h_ok, err_ok, x_ok, y_new, k13
                taken.append((ids, x, y))
            else:
                h = np.where(ok, h_ok, h_try * np.fmax(_MIN_FACTOR, _SAFETY * grow))
                err_prev = np.where(ok, err_ok, err_prev)
                x = np.where(ok, x_ok, x)
                y = np.where(ok, y_new, y)
                k1 = np.where(ok, k13, k1)
                taken.append((ids[ok], x[ok], y[:, ok]))
            done = x >= target
            if done.any():
                drop(~done)
    if taken:  # every lane that did not fail took an accepted step
        lanes, xs, ys = (np.concatenate(part, axis=-1) for part in zip(*taken))
        order = np.argsort(lanes, kind="stable")
        ends = np.cumsum(np.bincount(lanes, minlength=len(x0)))[:-1]
        xs, ys = np.split(xs[order], ends), np.split(ys[:, order].T, ends)
        for lane, entry in enumerate(out):
            if entry is None:
                out[lane] = Lane(np.concatenate(([x0[lane]], xs[lane])),
                                 np.vstack((y0[:, lane], ys[lane])), int(attempts[lane]))
    return out


def zeroin(evaluate, lo, hi, tol, done, failure):
    """Narrow the sign change of f between points (x, f(x), payload) lo and hi.

    evaluate(x) returns the point at x, strictly inside the bracket; tol(x)
    is the bracket half-width wanted around the best point x, and the
    shortest step. Returns (best point, other end) once f = 0 there or the
    bracket is within tol and done(best point). After 100 evaluations, or
    when the floats in the bracket run out, raises RuntimeError with
    failure.format(lo=, hi=, left=, right=, f=|f(best)|, x=best x)."""
    # b is the best point so far, c the end across the sign change from it,
    # a the previous b; d is the last step and e the one before it
    a, b, c = lo, hi, lo
    d = e = hi[0] - lo[0]
    for _ in range(100):
        if b[1] * c[1] > 0.0:
            c = a
            d = e = b[0] - a[0]
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        (xa, fa, _), (xb, fb, _), (xc, fc, _) = a, b, c
        tol_b = tol(xb)
        xm = 0.5 * (xc - xb)
        if fb == 0.0 or (abs(xm) <= tol_b and done(b)):
            return b, c
        interpolate = False
        if abs(xm) > tol_b and abs(e) >= tol_b and abs(fa) > abs(fb):
            s = fb / fa
            if a is c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (xb - xa) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), -q if p > 0.0 else q
            interpolate = 2.0 * p < min(3.0 * xm * q - abs(tol_b * q), abs(e * q))
        e, d = (d, p / q) if interpolate else (xm, xm)
        if abs(d) < min(tol_b, abs(xm)):
            d = copysign(tol_b, xm)
        if not min(xb, xc) < xb + d < max(xb, xc):
            break
        a, b = b, evaluate(xb + d)
    raise RuntimeError(failure.format(lo=lo[0], hi=hi[0], left=min(b[0], c[0]),
                                      right=max(b[0], c[0]), f=abs(b[1]), x=b[0]))


class Rhs(NamedTuple):
    """A right-hand side y' = f(x, y) as source lines, for `compile_rhs`.

    `x` names the independent variable and `state` the components of y.
    `body` holds statements over them and over the names in `params`, which
    are bound per problem; `out` holds the derivative's components as
    expressions over all of these. No name of it may end in an underscore
    and a digit: every name that the functions compiled from it introduce,
    locals and globals alike, ends so, and `compile_rhs` refuses the
    others. For lanes, an if statement may only guard a raise, and its test
    and every component of `out` must depend on the state or on x.
    """

    x: str
    state: tuple[str, ...]
    params: tuple[str, ...]
    body: tuple[str, ...]
    out: tuple[str, ...]


def compile_rhs(rhs: Rhs, namespace: dict, name: str):
    """A factory make(*args) for the right-hand side `rhs`, its `params`
    bound to args and its globals read from `namespace`.

    make returns the plain callable fun(x, y), which returns a list, with
    three attributes: fun.stage, the DOP853 stage function with `rhs.body`
    inlined at each of its twelve abscissae in place of the call to fun,
    fun.stage_args, the args it takes in place of fun, and fun.lanes(),
    which returns the lane right-hand side and stage of `solve_lanes`
    (`_lane_functions`). ``solve`` runs fun on fun.stage. The stage is
    compiled here, once for every `rhs`, and the lane functions on the
    first call of fun.lanes; make only binds the arguments.

    Raises ValueError, naming them, where names of `rhs` (its abscissa,
    state, params or any name that its lines read or assign) end in an
    underscore and a digit.
    """
    tree = ast.parse("\n".join((*rhs.body, *rhs.out)))  # out as expression statements
    names = {rhs.x, *rhs.state, *rhs.params}.union(*_names(tree))
    clash = sorted(n for n in names if n[-2:-1] == "_" and n[-1].isdigit())
    if clash:
        raise ValueError(f"the {name} right-hand side names {', '.join(clash)}: names that "
                         "end in an underscore and a digit are its stage functions' own")
    ns = dict(namespace)
    ns["stage_0"] = _stage_function(rhs, ns, name)
    ns["lanes_0"] = cache(lambda: _lane_functions(rhs, namespace, name))
    params = _unpack(rhs.params)
    lines = [f"def make_0({params}):",
             f"    def fun_0({rhs.x}, y_0):",
             f"        {_unpack(rhs.state)}= y_0",
             *(f"        {line}" for line in rhs.body),
             f"        return [{', '.join(rhs.out)}]",
             "    fun_0.stage = stage_0",
             f"    fun_0.stage_args = ({params})",
             "    fun_0.lanes = lanes_0",
             "    return fun_0"]
    exec(compile("\n".join(lines), f"<{name} right-hand side>", "exec"), ns)
    return ns["make_0"]


def _combo(coeffs, suffix):
    """The sum of the stages k1, k2, ... weighed by the tableau's nonzero
    `coeffs`, from left to right: "c1 * k1{suffix} + c3 * k3{suffix} + ..."."""
    return " + ".join(f"{c!r} * k{j}{suffix}" for j, c in coeffs.items())


def _unpack(names):
    """"a, b, ": unpacks a sequence of any size, 1 too."""
    return "".join(f"{name}, " for name in names)


def _unpack_args(rhs: Rhs):
    """The line that binds rhs.params to a stage's args, none without params."""
    return [f"    {_unpack(rhs.params)}= args_0"] if rhs.params else []


def _stage_function(rhs: Rhs, namespace: dict, name: str):
    """The stage function stage(args, x, h, x_new, y, k1, rtol, atol) of the
    right-hand side `rhs`, args the values of rhs.params: one step attempt
    of length h from (x, y) with k1 = fun(x, y), returning (y_new, k13, err)
    with k13 = fun(x_new, y_new), where fun is rhs's callable. It is the
    generic loop, for n = len(rhs.state),

        k_s = fun(x + C_s h, [y[i] + h (A_s1 k_1[i] + ... ) for i in range(n)])
        y_new[i] = y[i] + h (B_1 k_1[i] + ... ),  s_i = atol + rtol max(|y[i]|, |y_new[i]|)
        e5 = sum_i ((E5_1 k_1[i] + ... ) / s_i)^2, e3 likewise with E3
        err = h e5 / sqrt((e5 + 0.01 e3) n), or 0.0 where e5 = 0.0

    with the sums over the nonzero coefficients from left to right, written
    out over stages and components into local scalars with the tableau's
    numbers as literals and compiled. The error sums drop the loop's
    leading 0.0 +, which is exact because a square is never -0.0. Each call
    of fun is replaced by rhs's lines: the abscissa and the trial state are
    assigned to rhs.x and rhs.state, the body runs, and k_s takes rhs.out;
    its globals come from `namespace`. Each line is the callable's own, so
    every result is bit-identical. Every name that the stage introduces,
    its own globals sqrt_0, abs_0 and max_0 too, ends in an underscore and
    a digit, so that none is rhs's (`Rhs`).
    """
    n = len(rhs.state)

    def names(base):  # the components of base_0
        return [f"{base}_{i}" for i in range(1, n + 1)]

    def step(coeffs):
        return [f"y_{i} + h_0 * ({_combo(coeffs, f'_{i}')})" for i in range(1, n + 1)]

    def inlined(at, state):  # the body of rhs at the point (at, state)
        return [f"{rhs.x} = {at}", *(f"{v} = {e}" for v, e in zip(rhs.state, state)),
                *rhs.body]

    lines = ["def stage_0(args_0, x_0, h_0, x_1, y_0, k1_0, rtol_0, atol_0):",
             *_unpack_args(rhs), f"    {_unpack(names('y'))}= y_0",
             f"    {_unpack(names('k1'))}= k1_0"]
    for s, row in _A.items():
        lines += [f"    {line}" for line in inlined(f"x_0 + {_C[s]!r} * h_0", step(row))]
        lines += [f"    {k} = {e}" for k, e in zip(names(f"k{s}"), rhs.out)]
    lines += [f"    n_0 = [{', '.join(step(_B))}]", f"    {_unpack(names('n'))}= n_0",
              *(f"    {line}" for line in inlined("x_1", names("n"))),
              f"    k13_0 = [{', '.join(rhs.out)}]"]
    for i in range(1, n + 1):
        lines += [f"    s_{i} = atol_0 + rtol_0 * max_0(abs_0(y_{i}), abs_0(n_{i}))",
                  f"    e5_{i} = ({_combo(_E5, f'_{i}')}) / s_{i}",
                  f"    e3_{i} = ({_combo(_E3, f'_{i}')}) / s_{i}"]
    for e in ("e5", "e3"):
        lines.append(f"    {e}_0 = " + " + ".join(f"{e}_{i} * {e}_{i}" for i in range(1, n + 1)))
    lines.append(f"    return n_0, k13_0, h_0 * e5_0 / sqrt_0((e5_0 + 0.01 * e3_0) * {n})"
                 " if e5_0 else 0.0")
    namespace = {**namespace, "sqrt_0": sqrt, "abs_0": abs, "max_0": max}
    exec(compile("\n".join(lines), f"<DOP853 stage, {name}>", "exec"), namespace)
    return namespace["stage_0"]


@cache
def _generic_stage(n):
    """The generic stage function for states of size n, compiled on first
    use: the stage of the `Rhs` whose one line calls its param fun, so
    stage((fun,), x, h, x_new, y, k1, rtol, atol) calls fun twelve times.
    An untraced shoot, radial or Pruefer, runs on its fused stage and
    needs none; counting wrappers and tests do."""
    if n not in (1, 2, 4):
        raise ValueError(f"no DOP853 stage function for a state of size {n}; sizes are 1, 2, 4")
    state, k = (tuple(f"{v}{i}" for i in range(n)) for v in "qk")
    rhs = Rhs("at", state, ("fun",), (f"{_unpack(k)}= fun(at, [{', '.join(state)}])",), k)
    return _stage_function(rhs, {}, f"size {n}")


# numpy's ufuncs in place of the math functions that right-hand sides read
_UFUNCS = {math.exp: np.exp, math.expm1: np.expm1}


def _names(node):
    """(the names that the syntax tree `node` reads, those that it assigns)."""
    names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
    return ({n.id for n in names if isinstance(n.ctx, ast.Load)},
            {n.id for n in names if not isinstance(n.ctx, ast.Load)})


class _ForLanes(ast.NodeTransformer):
    """Statements for lanes, where the names in `lanes` hold arrays: `a if c
    else b` becomes numpy's where(c, a, b), and `if c: raise E(...)` raises
    _LaneFailure for the lanes where c holds, each with the E(...) of its
    own values. With rows=True the names hold a row per abscissa of the
    lane stage, and the raise only keeps, as row_0 and failure_0, the first
    row where c holds in a lane and the _LaneFailure of that row, unless a
    raise before it kept a row as early: the stage raises it there."""

    def __init__(self, lanes, rows=False):
        self.lanes, self.rows = lanes, rows

    def visit_IfExp(self, node):
        self.generic_visit(node)
        return ast.Call(ast.Name("where_0", ast.Load()), [node.test, node.body, node.orelse], [])

    def visit_If(self, node):
        if node.orelse or len(node.body) != 1 or not isinstance(node.body[0], ast.Raise):
            raise ValueError("in lanes, an if statement may only guard a raise")
        self.generic_visit(node)
        at = ast.parse("fail_1, i_0" if self.rows else "i_0", mode="eval").body
        lanes = self.lanes

        class OneLane(ast.NodeTransformer):
            def visit_Name(self, name):  # the lane i_0's value (in the row fail_1)
                return ast.Subscript(name, at, ast.Load()) if name.id in lanes else name

        failure = (f"LaneFailure_0(fail_0, [{ast.unparse(OneLane().visit(node.body[0].exc))}"
                   " for i_0 in flatnonzero_0(fail_0)])")
        lines = [f"fail_0 = {ast.unparse(node.test)}", "if fail_0.any():"]
        if self.rows:
            lines += ["    fail_1 = fail_0.any(1).argmax()", "    if fail_1 < row_0:",
                      "        fail_0 = fail_0[fail_1]",
                      f"        row_0, failure_0 = fail_1, {failure}"]
        else:
            lines.append(f"    raise {failure}")
        return ast.parse("\n".join(lines)).body


def _lane_lines(statements, lanes, rows=False):
    """The syntax trees `statements`, rewritten by `_ForLanes` on a copy, as lines."""
    tree = _ForLanes(lanes, rows).visit(ast.Module(copy.deepcopy(statements), []))
    return ast.unparse(ast.fix_missing_locations(tree)).splitlines()


def _outside_raise(tree):
    """The nodes of the syntax tree `tree` outside its raise statements."""
    for child in ast.iter_child_nodes(tree):
        if not isinstance(child, ast.Raise):
            yield child
            yield from _outside_raise(child)


def _lane_functions(rhs: Rhs, namespace: dict, name: str):
    """(rhs, stage) of the right-hand side `rhs` for `solve_lanes`.

    rhs(args, x, y) evaluates it in every lane, x an array and y one row
    per state component, and returns the rows of the derivative;
    stage(args, x, h, x_new, y, k1, rtol, atol) is one DOP853 step attempt
    in every lane, returning (y_new, k13, err) with err an array. Both run
    `rhs`'s own lines, rewritten for arrays by `_ForLanes`, with numpy's
    ufuncs in place of math's functions (`_UFUNCS`); the stage forms the
    sums and products of `_stage_function` in the same order, on all the
    components of a stage at once.

    The stage evaluates the head of rhs.body once per attempt (`head`), on
    twelve rows of abscissae: x + c_s h for s = 2, ..., 12, then x_new.
    The head is the longest prefix of statements that read only rhs.x,
    rhs.params, the names of `namespace` and what the head assigns before
    them and that assign no state or param. Each of the twelve
    right-hand-side calls (`tail`) reads its own row of what the head
    assigns and runs the other lines as rhs does. A raise of the head fires
    at the first stage where it holds in some lane, for the lanes where it
    holds there. Every element sees rhs's operations in rhs's order, so the
    stage's results, and the lanes and messages of a failure, are
    bit-identical to those of twelve calls of rhs. The names that the
    functions introduce end in an underscore and a digit, as in
    `_stage_function`.

    Raises ValueError, naming the right-hand side, where its lines call
    anything but a function of `namespace` with a ufunc in `_UFUNCS` (a
    param, such as a potential's smooth_at, or math.sin): both branches of
    a conditional run in lanes, and a scalar function cannot take an
    array. The exception built in a raise line is exempt.
    """
    def ufunc(func):
        return (isinstance(func, ast.Name) and func.id not in rhs.params
                and namespace.get(func.id) in _UFUNCS)

    body = ast.parse("\n".join(rhs.body)).body
    out = [ast.parse(e, mode="eval").body for e in rhs.out]
    calls = [ast.unparse(node) for tree in (*body, *out) for node in _outside_raise(tree)
             if isinstance(node, ast.Call) and not ufunc(node.func)]
    if calls:
        raise ValueError(f"the {name} right-hand side cannot run in lanes: it calls "
                         f"{', '.join(calls)}, which have no numpy ufunc")
    # the head, as lines on rows: the names that it binds, those of them
    # that hold a row per abscissa; any other name that a line reads and
    # no line assigns is a param or a global
    local = {*rhs.state, *_names(ast.Module(body, []))[1]}
    head, count, bound, varying = [], 0, {rhs.x}, {rhs.x}
    for statement in body:
        reads, writes = _names(statement)
        if reads & (local - bound) or writes & {*rhs.state, *rhs.params}:
            break
        head += _lane_lines([statement], varying, rows=True)
        count += 1
        bound |= writes
        varying = varying - writes | (writes if reads & varying else set())
    rest = body[count:]
    assigned = {*rhs.state, *_names(ast.Module(rest, []))[1]}
    # what the other lines read of the head, in{j}_0 on the stage's side
    inputs = sorted(set().union(*(_names(tree)[0] for tree in (*rest, *out))) & bound)
    ins = [f"in{j}_0" for j in range(len(inputs))]

    def call(k, row, state):  # the lines that set k to the right-hand side at a row
        values = [f"{i}[{row}]" if v in varying else i for i, v in zip(ins, inputs)]
        return [f"    if row_0 == {row}:", "        raise failure_0",
                f"    {k} = tail_0(args_0, {_unpack(values)}{state})"]

    n = len(rhs.state)
    lines = ["def rhs_0(args_0, x_0, y_0):",
             *_unpack_args(rhs),
             f"    {rhs.x} = x_0",
             f"    {_unpack(rhs.state)}= y_0",
             *(f"    {line}" for line in _lane_lines(body, {rhs.x, *local})),
             f"    return array_0([{', '.join(rhs.out)}])",
             "",
             "def head_0(args_0, x_0):",
             *_unpack_args(rhs),
             f"    {rhs.x} = x_0",
             f"    row_0, failure_0 = {len(_C) + 1}, None",
             *(f"    {line}" for line in head),
             f"    return row_0, failure_0, {_unpack(inputs)}",
             "",
             f"def tail_0(args_0, {_unpack(inputs)}y_0):",
             *_unpack_args(rhs),
             f"    {_unpack(rhs.state)}= y_0",
             *(f"    {line}" for line in _lane_lines(rest, assigned | varying & {*inputs})),
             f"    return array_0([{', '.join(rhs.out)}])",
             "",
             "def stage_0(args_0, x_0, h_0, x_1, y_0, k1_0, rtol_0, atol_0):",
             f"    row_0, failure_0, {_unpack(ins)}= head_0(args_0, concatenate_0((x_0 + C_0 * h_0,"
             " x_1[None])))"]
    for s, row in _A.items():
        lines += call(f"k{s}_0", s - 2, f"y_0 + h_0 * ({_combo(row, '_0')})")
    lines += [f"    n_0 = y_0 + h_0 * ({_combo(_B, '_0')})",
              *call("k13_0", len(_C), "n_0"),
              "    s_0 = atol_0 + rtol_0 * maximum_0(abs_0(y_0), abs_0(n_0))"]
    for e, coeffs in (("e5", _E5), ("e3", _E3)):
        lines += [f"    {e}_0 = ({_combo(coeffs, '_0')}) / s_0", f"    {e}_0 = {e}_0 * {e}_0",
                  f"    {e}_0 = " + " + ".join(f"{e}_0[{i}]" for i in range(n))]
    lines += [f"    err_0 = h_0 * e5_0 / sqrt_0((e5_0 + 0.01 * e3_0) * {n})",
              "    err_0[e5_0 == 0.0] = 0.0",
              "    return n_0, k13_0, err_0"]
    ns = {name_: _UFUNCS.get(value, value) if callable(value) else value
          for name_, value in namespace.items()}
    ns.update(where_0=np.where, array_0=np.array, maximum_0=np.maximum, sqrt_0=np.sqrt,
              abs_0=abs, concatenate_0=np.concatenate, flatnonzero_0=np.flatnonzero,
              LaneFailure_0=_LaneFailure, C_0=np.array([[c] for c in _C.values()]))
    exec(compile("\n".join(lines), f"<DOP853 lanes, {name}>", "exec"), ns)
    return ns["rhs_0"], ns["stage_0"]
