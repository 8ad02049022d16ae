"""Adaptive Dormand-Prince 5(4) integrator with PI step control.

Shared by the radial shooting routines and the Pruefer phase integration.
Kept deliberately plain and deterministic: floats, no events, output
nodes are hit exactly by clamping the step. The embedded 4th order solution
is used only for the error estimate (local extrapolation).

The clamp does more than place outputs: a dense node list also caps the
step size, and some results depend on that cap. The singular solution's
lambda* is off by 1.0e-13 (N=3, const) and 1.0e-15 (N=10, a_h at h=40) on
the default grid, but by 2.3e-12 and 1.9e-11 when shot straight to r = 1,
at rtol 1e-10. The flux residual, evaluated on accepted steps instead of
the default grid, rose from 4.2e-10 to as much as 1.7e-5 over the verify
commands of the benchmark, because v' ~ 1e-6 near r_start. Consumers that
need only values (zero numbers, separation and envelope gaps) shoot on
accepted steps and interpolate (`radial_ode.quintic_values`); a zero
number reads the singular profile it is given the same way and makes no
singular shoot of its own. The identities and lambda* keep their node grids.

The work is split in two. ``solve`` is the one driver: it owns the step
controller (the node clamp, the step budget, the underflow check,
accept/reject, the PI factor and the collection of accepted steps). A
stage function computes a single step attempt: the six new right-hand-side
calls, the 5th order solution and the scaled error norm. The package
integrates states of four sizes only: 1 (the Pruefer phase), 2 (the
singular solution), 4 (v and its first variation e) and 6 (v, e and the
second variation w). Every stage function performs the floating-point
operations of the generic list-based DP5 loop expression for expression
and in the same order, so states, accepted steps and right-hand-side calls
are bit-identical to it; ``tests/test_stepper.py`` keeps that generic loop
as the reference and checks every size against it with ``==``.

Sizes 1, 2 and 4 carry the spectral, verify and branch workloads, so
their stage functions are unrolled into local scalars: the list form takes
about twice as long on them. Size 6 only confirms a fold's kind from
lambda''(beta), which no workload, CLI command or script runs, so it takes
the list form, ``_stage_list``, instead of an unrolled copy.

``zeroin`` is the one root finder (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4): inverse quadratic or secant steps where
they land well inside the bracket and shrink it fast, else bisection. It
places folds (``refine_fold``) and Pruefer eigenvalues (``morse_index``).
"""

from __future__ import annotations

from math import copysign, sqrt


class IntegrationError(RuntimeError):
    """Step size underflow, step budget exhausted, or a right-hand side
    that raised ValueError (e.g. a nonpositive weight).

    Carries the independent-variable value reached so callers can report
    how far the integration got before failing.
    """

    def __init__(self, message: str, reached: float):
        super().__init__(message)
        self.reached = reached


# Butcher tableau, Dormand & Prince RK5(4)7M.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# y5 - y4 error weights (b - bhat)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 2_000_000


def solve(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False):
    """Integrate y' = fun(x, y) from x0 through each node in `nodes`.

    y0 has 1, 2, 4 or 6 components; fun(x, y) takes the state as a list
    and returns the derivative as a sequence of the same length. nodes must
    not decrease; a node at or below the point already reached (x0, or the
    node before it) repeats the current state.
    Returns the list of states at the nodes; with collect=True returns
    (node_states, xs, ys) where xs/ys are every accepted step point
    including x0 and all nodes. Raises IntegrationError on step size
    underflow, on an exhausted step budget and when fun raises ValueError,
    each with the last accepted point as `reached`.
    """
    stage = _STAGES.get(len(y0))
    if stage is None:
        raise ValueError(
            f"no DP5 stage function for a state of size {len(y0)}; sizes are 1, 2, 4, 6")
    x = x0
    y = list(y0)
    try:  # fun, called here and in the stage functions, is the only source of ValueError
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
                clamped = h >= target - x
                h_try = target - x if clamped else h
                x_new = x + h_try
                if x_new == x:
                    raise IntegrationError("step size underflow", x)
                y_new, k7, err = stage(fun, x, h_try, x_new, y, k1, rtol, atol)
                nsteps += 1
                if err <= 1.0:
                    x = x_new if not clamped else target
                    y, k1 = y_new, k7
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


# Stage functions: one step attempt of length h from (x, y) with
# k1 = fun(x, y), returning (y_new, k7, err) with k7 = fun(x_new, y_new).
# Each is the generic loop
#     k2 = fun(x + C2 h, [y[i] + h A21 k1[i] for i in range(n)]), ...
#     err = sqrt(sum(((h (E . k)[i]) / (atol + rtol max(|y[i]|, |ynew[i]|)))^2) / n)
# _stage_list runs it over zip of the state and the stages, with a .. g the
# i-th components of k1 .. k7. _stage1/2/4 unroll it over i, and their error
# sums drop the loop's leading 0.0 +, which is exact because a square is
# never -0.0.
def _stage1(fun, x, h, x_new, y, k1, rtol, atol):
    (y_0,) = y
    (k1_0,) = k1
    (k2_0,) = fun(x + _C2 * h, [y_0 + h * _A21 * k1_0])
    (k3_0,) = fun(x + _C3 * h, [y_0 + h * (_A31 * k1_0 + _A32 * k2_0)])
    (k4_0,) = fun(x + _C4 * h, [
        y_0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
    ])
    (k5_0,) = fun(x + _C5 * h, [
        y_0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
    ])
    (k6_0,) = fun(x_new, [
        y_0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
    ])
    n_0 = y_0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
    y_new = [n_0]
    k7 = fun(x_new, y_new)
    (k7_0,) = k7
    e_0 = h * (
        _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
    ) / (atol + rtol * max(abs(y_0), abs(n_0)))
    return y_new, k7, sqrt(e_0 * e_0)


def _stage2(fun, x, h, x_new, y, k1, rtol, atol):
    y_0, y_1 = y
    k1_0, k1_1 = k1
    k2_0, k2_1 = fun(x + _C2 * h, [
        y_0 + h * _A21 * k1_0,
        y_1 + h * _A21 * k1_1,
    ])
    k3_0, k3_1 = fun(x + _C3 * h, [
        y_0 + h * (_A31 * k1_0 + _A32 * k2_0),
        y_1 + h * (_A31 * k1_1 + _A32 * k2_1),
    ])
    k4_0, k4_1 = fun(x + _C4 * h, [
        y_0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
        y_1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
    ])
    k5_0, k5_1 = fun(x + _C5 * h, [
        y_0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
        y_1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
    ])
    k6_0, k6_1 = fun(x_new, [
        y_0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
        y_1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
    ])
    n_0 = y_0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
    n_1 = y_1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
    y_new = [n_0, n_1]
    k7 = fun(x_new, y_new)
    k7_0, k7_1 = k7
    e_0 = h * (
        _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
    ) / (atol + rtol * max(abs(y_0), abs(n_0)))
    e_1 = h * (
        _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
    ) / (atol + rtol * max(abs(y_1), abs(n_1)))
    return y_new, k7, sqrt((e_0 * e_0 + e_1 * e_1) / 2)


def _stage4(fun, x, h, x_new, y, k1, rtol, atol):
    y_0, y_1, y_2, y_3 = y
    k1_0, k1_1, k1_2, k1_3 = k1
    k2_0, k2_1, k2_2, k2_3 = fun(x + _C2 * h, [
        y_0 + h * _A21 * k1_0,
        y_1 + h * _A21 * k1_1,
        y_2 + h * _A21 * k1_2,
        y_3 + h * _A21 * k1_3,
    ])
    k3_0, k3_1, k3_2, k3_3 = fun(x + _C3 * h, [
        y_0 + h * (_A31 * k1_0 + _A32 * k2_0),
        y_1 + h * (_A31 * k1_1 + _A32 * k2_1),
        y_2 + h * (_A31 * k1_2 + _A32 * k2_2),
        y_3 + h * (_A31 * k1_3 + _A32 * k2_3),
    ])
    k4_0, k4_1, k4_2, k4_3 = fun(x + _C4 * h, [
        y_0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
        y_1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
        y_2 + h * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
        y_3 + h * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3),
    ])
    k5_0, k5_1, k5_2, k5_3 = fun(x + _C5 * h, [
        y_0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
        y_1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
        y_2 + h * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
        y_3 + h * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
    ])
    k6_0, k6_1, k6_2, k6_3 = fun(x_new, [
        y_0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
        y_1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
        y_2 + h * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2),
        y_3 + h * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3),
    ])
    n_0 = y_0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
    n_1 = y_1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
    n_2 = y_2 + h * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
    n_3 = y_3 + h * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
    y_new = [n_0, n_1, n_2, n_3]
    k7 = fun(x_new, y_new)
    k7_0, k7_1, k7_2, k7_3 = k7
    e_0 = h * (
        _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
    ) / (atol + rtol * max(abs(y_0), abs(n_0)))
    e_1 = h * (
        _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
    ) / (atol + rtol * max(abs(y_1), abs(n_1)))
    e_2 = h * (
        _E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2
    ) / (atol + rtol * max(abs(y_2), abs(n_2)))
    e_3 = h * (
        _E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3
    ) / (atol + rtol * max(abs(y_3), abs(n_3)))
    return y_new, k7, sqrt((e_0 * e_0 + e_1 * e_1 + e_2 * e_2 + e_3 * e_3) / 4)


def _stage_list(fun, x, h, x_new, y, k1, rtol, atol):
    k2 = fun(x + _C2 * h, [y_i + h * _A21 * a for y_i, a in zip(y, k1)])
    k3 = fun(x + _C3 * h, [y_i + h * (_A31 * a + _A32 * b) for y_i, a, b in zip(y, k1, k2)])
    k4 = fun(x + _C4 * h, [
        y_i + h * (_A41 * a + _A42 * b + _A43 * c) for y_i, a, b, c in zip(y, k1, k2, k3)
    ])
    k5 = fun(x + _C5 * h, [
        y_i + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
        for y_i, a, b, c, d in zip(y, k1, k2, k3, k4)
    ])
    k6 = fun(x_new, [
        y_i + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
        for y_i, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
    ])
    y_new = [
        y_i + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
        for y_i, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = fun(x_new, y_new)
    err = 0.0
    for y_i, n_i, a, c, d, e, f, g in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        e_i = h * (
            _E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g
        ) / (atol + rtol * max(abs(y_i), abs(n_i)))
        err += e_i * e_i
    return y_new, k7, sqrt(err / len(y))


_STAGES = {1: _stage1, 2: _stage2, 4: _stage4, 6: _stage_list}
