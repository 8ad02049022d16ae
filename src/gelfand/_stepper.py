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

The package integrates states of four sizes only: 1 (the Pruefer phase),
2 (the singular solution), 4 (v and its first variation e) and 6 (v, e and
the second variation w). ``solve`` dispatches on the size to one unrolled
kernel per size, which keeps the state and the stages in local scalars
instead of lists. Each kernel performs the floating-point operations of
the generic list-based DP5 loop expression for expression and in the same
order, so states, accepted steps and right-hand-side calls are
bit-identical to it; ``tests/test_stepper.py`` keeps that generic loop as
the reference and checks the kernels against it with ``==``.
"""

from __future__ import annotations

from math import sqrt


class IntegrationError(RuntimeError):
    """Step size underflow or step budget exhausted.

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
    be strictly increasing with nodes[0] > x0. Returns the list of states
    at the nodes; with collect=True returns (node_states, xs, ys) where
    xs/ys are every accepted step point including x0 and all nodes.
    """
    kernel = _KERNELS.get(len(y0))
    if kernel is None:
        raise ValueError(f"no DP5 kernel for a state of size {len(y0)}; sizes are 1, 2, 4, 6")
    return kernel(fun, x0, y0, nodes, rtol, atol, first_step, collect)


def _first_step(x0, nodes, first_step):
    span = nodes[-1] - x0
    h = 1e-2 * span if first_step is None else first_step
    return min(h, span)


# One kernel per state size. Each is the generic loop
#     k2 = fun(x + C2 h, [y[i] + h A21 k1[i] for i in range(n)]), ...
#     err = sqrt(sum(((h (E . k)[i]) / (atol + rtol max(|y[i]|, |ynew[i]|)))^2) / n)
# unrolled over i; the error sum drops the generic loop's leading 0.0 +,
# which is exact because a square is never -0.0.
def _solve1(fun, x0, y0, nodes, rtol, atol, first_step, collect):
    (y_0,) = y0
    (k1_0,) = fun(x0, [y_0])
    h = _first_step(x0, nodes, first_step)
    x = x0
    out = []
    xs = [x0] if collect else None
    ys = [[y_0]] if collect else None
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
            (k2_0,) = fun(x + _C2 * h_try, [y_0 + h_try * _A21 * k1_0])
            (k3_0,) = fun(x + _C3 * h_try, [y_0 + h_try * (_A31 * k1_0 + _A32 * k2_0)])
            (k4_0,) = fun(x + _C4 * h_try, [
                y_0 + h_try * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
            ])
            (k5_0,) = fun(x + _C5 * h_try, [
                y_0 + h_try * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
            ])
            (k6_0,) = fun(x_new, [
                y_0 + h_try * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
            ])
            n_0 = y_0 + h_try * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            (k7_0,) = fun(x_new, [n_0])
            e_0 = h_try * (
                _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
            ) / (atol + rtol * max(abs(y_0), abs(n_0)))
            err = sqrt(e_0 * e_0)
            nsteps += 1
            if err <= 1.0:
                x = x_new if not clamped else target
                y_0 = n_0
                k1_0 = k7_0
                if collect:
                    xs.append(x)
                    ys.append([y_0])
                if err == 0.0:
                    fac = _MAX_FACTOR
                else:
                    fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                    fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                err_prev = max(err, 1e-10)
                if clamped:
                    h = max(h, h_try * fac)
                else:
                    h = h_try * fac
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        out.append([y_0])
    if collect:
        return out, xs, ys
    return out


def _solve2(fun, x0, y0, nodes, rtol, atol, first_step, collect):
    y_0, y_1 = y0
    k1_0, k1_1 = fun(x0, [y_0, y_1])
    h = _first_step(x0, nodes, first_step)
    x = x0
    out = []
    xs = [x0] if collect else None
    ys = [[y_0, y_1]] if collect else None
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
            k2_0, k2_1 = fun(x + _C2 * h_try, [
                y_0 + h_try * _A21 * k1_0,
                y_1 + h_try * _A21 * k1_1,
            ])
            k3_0, k3_1 = fun(x + _C3 * h_try, [
                y_0 + h_try * (_A31 * k1_0 + _A32 * k2_0),
                y_1 + h_try * (_A31 * k1_1 + _A32 * k2_1),
            ])
            k4_0, k4_1 = fun(x + _C4 * h_try, [
                y_0 + h_try * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                y_1 + h_try * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
            ])
            k5_0, k5_1 = fun(x + _C5 * h_try, [
                y_0 + h_try * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
                y_1 + h_try * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
            ])
            k6_0, k6_1 = fun(x_new, [
                y_0 + h_try * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
                y_1 + h_try * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
            ])
            n_0 = y_0 + h_try * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            n_1 = y_1 + h_try * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
            k7_0, k7_1 = fun(x_new, [n_0, n_1])
            e_0 = h_try * (
                _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
            ) / (atol + rtol * max(abs(y_0), abs(n_0)))
            e_1 = h_try * (
                _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
            ) / (atol + rtol * max(abs(y_1), abs(n_1)))
            err = sqrt((e_0 * e_0 + e_1 * e_1) / 2)
            nsteps += 1
            if err <= 1.0:
                x = x_new if not clamped else target
                y_0, y_1 = n_0, n_1
                k1_0, k1_1 = k7_0, k7_1
                if collect:
                    xs.append(x)
                    ys.append([y_0, y_1])
                if err == 0.0:
                    fac = _MAX_FACTOR
                else:
                    fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                    fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                err_prev = max(err, 1e-10)
                if clamped:
                    h = max(h, h_try * fac)
                else:
                    h = h_try * fac
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        out.append([y_0, y_1])
    if collect:
        return out, xs, ys
    return out


def _solve4(fun, x0, y0, nodes, rtol, atol, first_step, collect):
    y_0, y_1, y_2, y_3 = y0
    k1_0, k1_1, k1_2, k1_3 = fun(x0, [y_0, y_1, y_2, y_3])
    h = _first_step(x0, nodes, first_step)
    x = x0
    out = []
    xs = [x0] if collect else None
    ys = [[y_0, y_1, y_2, y_3]] if collect else None
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
            k2_0, k2_1, k2_2, k2_3 = fun(x + _C2 * h_try, [
                y_0 + h_try * _A21 * k1_0,
                y_1 + h_try * _A21 * k1_1,
                y_2 + h_try * _A21 * k1_2,
                y_3 + h_try * _A21 * k1_3,
            ])
            k3_0, k3_1, k3_2, k3_3 = fun(x + _C3 * h_try, [
                y_0 + h_try * (_A31 * k1_0 + _A32 * k2_0),
                y_1 + h_try * (_A31 * k1_1 + _A32 * k2_1),
                y_2 + h_try * (_A31 * k1_2 + _A32 * k2_2),
                y_3 + h_try * (_A31 * k1_3 + _A32 * k2_3),
            ])
            k4_0, k4_1, k4_2, k4_3 = fun(x + _C4 * h_try, [
                y_0 + h_try * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                y_1 + h_try * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
                y_2 + h_try * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
                y_3 + h_try * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3),
            ])
            k5_0, k5_1, k5_2, k5_3 = fun(x + _C5 * h_try, [
                y_0 + h_try * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
                y_1 + h_try * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
                y_2 + h_try * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
                y_3 + h_try * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
            ])
            k6_0, k6_1, k6_2, k6_3 = fun(x_new, [
                y_0 + h_try * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
                y_1 + h_try * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
                y_2 + h_try * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2),
                y_3 + h_try * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3),
            ])
            n_0 = y_0 + h_try * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            n_1 = y_1 + h_try * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
            n_2 = y_2 + h_try * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
            n_3 = y_3 + h_try * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
            k7_0, k7_1, k7_2, k7_3 = fun(x_new, [n_0, n_1, n_2, n_3])
            e_0 = h_try * (
                _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
            ) / (atol + rtol * max(abs(y_0), abs(n_0)))
            e_1 = h_try * (
                _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
            ) / (atol + rtol * max(abs(y_1), abs(n_1)))
            e_2 = h_try * (
                _E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2
            ) / (atol + rtol * max(abs(y_2), abs(n_2)))
            e_3 = h_try * (
                _E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3
            ) / (atol + rtol * max(abs(y_3), abs(n_3)))
            err = sqrt((e_0 * e_0 + e_1 * e_1 + e_2 * e_2 + e_3 * e_3) / 4)
            nsteps += 1
            if err <= 1.0:
                x = x_new if not clamped else target
                y_0, y_1, y_2, y_3 = n_0, n_1, n_2, n_3
                k1_0, k1_1, k1_2, k1_3 = k7_0, k7_1, k7_2, k7_3
                if collect:
                    xs.append(x)
                    ys.append([y_0, y_1, y_2, y_3])
                if err == 0.0:
                    fac = _MAX_FACTOR
                else:
                    fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                    fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                err_prev = max(err, 1e-10)
                if clamped:
                    h = max(h, h_try * fac)
                else:
                    h = h_try * fac
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        out.append([y_0, y_1, y_2, y_3])
    if collect:
        return out, xs, ys
    return out


def _solve6(fun, x0, y0, nodes, rtol, atol, first_step, collect):
    y_0, y_1, y_2, y_3, y_4, y_5 = y0
    k1_0, k1_1, k1_2, k1_3, k1_4, k1_5 = fun(x0, [y_0, y_1, y_2, y_3, y_4, y_5])
    h = _first_step(x0, nodes, first_step)
    x = x0
    out = []
    xs = [x0] if collect else None
    ys = [[y_0, y_1, y_2, y_3, y_4, y_5]] if collect else None
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
            k2_0, k2_1, k2_2, k2_3, k2_4, k2_5 = fun(x + _C2 * h_try, [
                y_0 + h_try * _A21 * k1_0,
                y_1 + h_try * _A21 * k1_1,
                y_2 + h_try * _A21 * k1_2,
                y_3 + h_try * _A21 * k1_3,
                y_4 + h_try * _A21 * k1_4,
                y_5 + h_try * _A21 * k1_5,
            ])
            k3_0, k3_1, k3_2, k3_3, k3_4, k3_5 = fun(x + _C3 * h_try, [
                y_0 + h_try * (_A31 * k1_0 + _A32 * k2_0),
                y_1 + h_try * (_A31 * k1_1 + _A32 * k2_1),
                y_2 + h_try * (_A31 * k1_2 + _A32 * k2_2),
                y_3 + h_try * (_A31 * k1_3 + _A32 * k2_3),
                y_4 + h_try * (_A31 * k1_4 + _A32 * k2_4),
                y_5 + h_try * (_A31 * k1_5 + _A32 * k2_5),
            ])
            k4_0, k4_1, k4_2, k4_3, k4_4, k4_5 = fun(x + _C4 * h_try, [
                y_0 + h_try * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                y_1 + h_try * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
                y_2 + h_try * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
                y_3 + h_try * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3),
                y_4 + h_try * (_A41 * k1_4 + _A42 * k2_4 + _A43 * k3_4),
                y_5 + h_try * (_A41 * k1_5 + _A42 * k2_5 + _A43 * k3_5),
            ])
            k5_0, k5_1, k5_2, k5_3, k5_4, k5_5 = fun(x + _C5 * h_try, [
                y_0 + h_try * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
                y_1 + h_try * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
                y_2 + h_try * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
                y_3 + h_try * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
                y_4 + h_try * (_A51 * k1_4 + _A52 * k2_4 + _A53 * k3_4 + _A54 * k4_4),
                y_5 + h_try * (_A51 * k1_5 + _A52 * k2_5 + _A53 * k3_5 + _A54 * k4_5),
            ])
            k6_0, k6_1, k6_2, k6_3, k6_4, k6_5 = fun(x_new, [
                y_0 + h_try * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
                y_1 + h_try * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
                y_2 + h_try * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2),
                y_3 + h_try * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3),
                y_4 + h_try * (_A61 * k1_4 + _A62 * k2_4 + _A63 * k3_4 + _A64 * k4_4 + _A65 * k5_4),
                y_5 + h_try * (_A61 * k1_5 + _A62 * k2_5 + _A63 * k3_5 + _A64 * k4_5 + _A65 * k5_5),
            ])
            n_0 = y_0 + h_try * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            n_1 = y_1 + h_try * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
            n_2 = y_2 + h_try * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
            n_3 = y_3 + h_try * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
            n_4 = y_4 + h_try * (_B1 * k1_4 + _B3 * k3_4 + _B4 * k4_4 + _B5 * k5_4 + _B6 * k6_4)
            n_5 = y_5 + h_try * (_B1 * k1_5 + _B3 * k3_5 + _B4 * k4_5 + _B5 * k5_5 + _B6 * k6_5)
            k7_0, k7_1, k7_2, k7_3, k7_4, k7_5 = fun(x_new, [n_0, n_1, n_2, n_3, n_4, n_5])
            e_0 = h_try * (
                _E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0
            ) / (atol + rtol * max(abs(y_0), abs(n_0)))
            e_1 = h_try * (
                _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
            ) / (atol + rtol * max(abs(y_1), abs(n_1)))
            e_2 = h_try * (
                _E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2
            ) / (atol + rtol * max(abs(y_2), abs(n_2)))
            e_3 = h_try * (
                _E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3
            ) / (atol + rtol * max(abs(y_3), abs(n_3)))
            e_4 = h_try * (
                _E1 * k1_4 + _E3 * k3_4 + _E4 * k4_4 + _E5 * k5_4 + _E6 * k6_4 + _E7 * k7_4
            ) / (atol + rtol * max(abs(y_4), abs(n_4)))
            e_5 = h_try * (
                _E1 * k1_5 + _E3 * k3_5 + _E4 * k4_5 + _E5 * k5_5 + _E6 * k6_5 + _E7 * k7_5
            ) / (atol + rtol * max(abs(y_5), abs(n_5)))
            err = sqrt((e_0 * e_0 + e_1 * e_1 + e_2 * e_2 + e_3 * e_3 + e_4 * e_4 + e_5 * e_5) / 6)
            nsteps += 1
            if err <= 1.0:
                x = x_new if not clamped else target
                y_0, y_1, y_2, y_3, y_4, y_5 = n_0, n_1, n_2, n_3, n_4, n_5
                k1_0, k1_1, k1_2, k1_3, k1_4, k1_5 = k7_0, k7_1, k7_2, k7_3, k7_4, k7_5
                if collect:
                    xs.append(x)
                    ys.append([y_0, y_1, y_2, y_3, y_4, y_5])
                if err == 0.0:
                    fac = _MAX_FACTOR
                else:
                    fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                    fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                err_prev = max(err, 1e-10)
                if clamped:
                    h = max(h, h_try * fac)
                else:
                    h = h_try * fac
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        out.append([y_0, y_1, y_2, y_3, y_4, y_5])
    if collect:
        return out, xs, ys
    return out


_KERNELS = {1: _solve1, 2: _solve2, 4: _solve4, 6: _solve6}
