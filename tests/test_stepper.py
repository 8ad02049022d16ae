"""The DP5 driver and its stage functions against the generic list-based
loop.

``_reference_solve`` below is the generic Dormand-Prince 5(4) loop that
the stage functions in ``gelfand._stepper`` perform expression for
expression (unrolled for sizes 1, 2 and 4, in list form for size 6), kept
verbatim with its tableau and controller constants. Every state size must
reproduce it bit for bit: the same node states, the same accepted steps
and the same sequence of right-hand-side calls, compared with ``==``. The
right-hand sides are the package's own closures, captured from real calls
through ``_stepper.solve``. The package's one root finder, ``zeroin``, is
tested at the end on plain floats.
"""

from __future__ import annotations

import math
from math import sqrt

import pytest

from gelfand import (
    IntegrationError,
    ProblemConfig,
    explicit_uh,
    integrate_ivp,
    integrate_second_variation,
    integrate_singular,
    make_ah,
    parse_weight,
    reduce_to_disk,
)
from gelfand import _stepper
from gelfand.spectral import _prufer_inner_radius, _prufer_theta_end


# ---------------------------------------------------------------- reference

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


def _reference_solve(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False):
    """Integrate y' = fun(x, y) from x0 through each node in `nodes`.

    nodes must be strictly increasing with nodes[0] > x0. Returns the list
    of states at the nodes; with collect=True returns (node_states, xs, ys)
    where xs/ys are every accepted step point including x0 and all nodes.
    """
    n = len(y0)
    x = x0
    y = list(y0)
    k1 = fun(x, y)
    span = nodes[-1] - x0
    if first_step is None:
        h = 1e-2 * span
    else:
        h = first_step
    h = min(h, span)

    out = []
    xs = [x0] if collect else None
    ys = [list(y0)] if collect else None
    err_prev = 1.0
    nsteps = 0

    for target in nodes:
        while x < target:
            if nsteps > _MAX_STEPS:
                raise IntegrationError("step budget exhausted", x)
            clamped = h >= target - x
            if clamped:
                h_try = target - x
            else:
                h_try = h
            if x + h_try == x:
                raise IntegrationError("step size underflow", x)

            k2 = fun(x + _C2 * h_try, [y[i] + h_try * _A21 * k1[i] for i in range(n)])
            k3 = fun(
                x + _C3 * h_try,
                [y[i] + h_try * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n)],
            )
            k4 = fun(
                x + _C4 * h_try,
                [y[i] + h_try * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n)],
            )
            k5 = fun(
                x + _C5 * h_try,
                [
                    y[i] + h_try * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                    for i in range(n)
                ],
            )
            k6 = fun(
                x + h_try,
                [
                    y[i]
                    + h_try
                    * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                    for i in range(n)
                ],
            )
            ynew = [
                y[i]
                + h_try * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
                for i in range(n)
            ]
            k7 = fun(x + h_try, ynew)

            err = 0.0
            for i in range(n):
                sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
                e = h_try * (
                    _E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i]
                )
                e /= sc
                err += e * e
            err = sqrt(err / n)
            nsteps += 1

            if err <= 1.0:
                x = x + h_try if not clamped else target
                y = ynew
                k1 = k7
                if collect:
                    xs.append(x)
                    ys.append(list(y))
                if err == 0.0:
                    fac = _MAX_FACTOR
                else:
                    fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
                    fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                err_prev = max(err, 1e-10)
                if clamped:
                    # node-hitting step: don't let the short segment drag
                    # the controller's preferred step down
                    h = max(h, h_try * fac)
                else:
                    h = h_try * fac
            else:
                fac = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
                h = h_try * fac
        out.append(list(y))
    if collect:
        return out, xs, ys
    return out


# ------------------------------------------------------------------ helpers

CONST = parse_weight("const")
AH40 = make_ah(40.0, 10)


def _capture(monkeypatch, run):
    """The argument tuples of every ``_stepper.solve`` call `run` makes."""
    calls = []
    solve = _stepper.solve

    def recording(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False):
        calls.append((fun, x0, list(y0), list(nodes), rtol, atol, first_step, collect))
        return solve(fun, x0, y0, nodes, rtol, atol, first_step, collect)

    monkeypatch.setattr(_stepper, "solve", recording)
    run()
    monkeypatch.setattr(_stepper, "solve", solve)
    assert calls
    return calls


def _logged(fun):
    """fun, plus the list of (x, y) arguments of every call made to it."""
    log = []

    def wrapped(x, y):
        log.append((x, list(y)))
        return fun(x, y)

    return wrapped, log


def _compare(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False):
    """Run the kernel and the reference on one problem and assert that
    results and RHS calls are identical; returns (calls, attempts, result)."""
    ref_fun, ref_log = _logged(fun)
    new_fun, new_log = _logged(fun)
    expected = _reference_solve(ref_fun, x0, y0, nodes, rtol, atol, first_step, collect)
    got = _stepper.solve(new_fun, x0, y0, nodes, rtol, atol, first_step, collect)
    assert got == expected
    assert new_log == ref_log
    calls = len(new_log)
    assert (calls - 1) % 6 == 0
    return calls, (calls - 1) // 6, got


def _prufer_phase():
    k2 = reduce_to_disk(explicit_uh(10, 40.0))
    _prufer_theta_end(k2, 0.0, _prufer_inner_radius(k2, 16))


# (state size, what to run) for the package's real right-hand sides
CASES = {
    1: _prufer_phase,
    2: lambda: integrate_singular(ProblemConfig(dim=10, weight=AH40)),
    4: lambda: integrate_ivp(ProblemConfig(dim=3, weight=CONST), 12.0),
    6: lambda: integrate_second_variation(ProblemConfig(dim=10, weight=AH40), 4.0),
}


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_on_package_rhs(monkeypatch, n):
    for args in _capture(monkeypatch, CASES[n]):
        assert len(args[2]) == n
        calls, attempts, _ = _compare(*args)
        assert attempts > 0


@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_dense_and_single_node(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, first_step, _ = _capture(monkeypatch, CASES[n])[0]
    end = nodes[-1]
    span = end - x0
    # dense: many more nodes than steps, so nearly every step is clamped
    dense = [x0 + span * k / 4000.0 for k in range(1, 4001)]
    dense[-1] = end
    _, _, states = _compare(fun, x0, y0, dense, rtol, atol, first_step)
    assert len(states) == len(dense)
    # single node, with and without the caller's first step
    _compare(fun, x0, y0, [end], rtol, atol, first_step)
    _compare(fun, x0, y0, [end], rtol, atol, None)


@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_collect_and_default_first_step(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, _, _ = _capture(monkeypatch, CASES[n])[0]
    calls, attempts, (states, xs, ys) = _compare(fun, x0, y0, nodes, rtol, atol, None, True)
    assert xs[0] == x0 and ys[0] == list(y0)
    assert xs[-1] == nodes[-1] and ys[-1] == states[-1]
    assert calls == 1 + 6 * attempts
    assert attempts >= len(xs) - 1


@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_with_rejected_steps(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, _, _ = _capture(monkeypatch, CASES[n])[0]
    # a first step of the whole span is far too long: the controller must
    # reject and shrink before the first accepted step
    span = nodes[-1] - x0
    calls, attempts, (_, xs, _) = _compare(fun, x0, y0, nodes, rtol, atol, span, True)
    accepted = len(xs) - 1
    assert attempts > accepted
    assert calls == 1 + 6 * attempts


@pytest.mark.parametrize("n", [1, 2, 4])
def test_list_stage_matches_unrolled_stage(monkeypatch, n):
    # the list form runs size 6 only; any size a new caller registers to it
    # must get what an unrolled stage would give, rejected attempts included
    fun, x0, y0, nodes, rtol, atol, _, _ = _capture(monkeypatch, CASES[n])[0]
    k1 = fun(x0, list(y0))
    h = nodes[-1] - x0  # the whole span: far too long
    accepted = []
    while not accepted or not accepted[-1]:
        got = []
        for stage in (_stepper._stage_list, _stepper._STAGES[n]):
            logged, log = _logged(fun)
            got.append((stage(logged, x0, h, x0 + h, list(y0), k1, rtol, atol), log))
        assert got[0] == got[1]
        assert len(got[0][1]) == 6
        accepted.append(got[0][0][2] <= 1.0)
        h /= 4.0
    assert not accepted[0]


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_step_size_underflow(n):
    # a right-hand side that is never finite rejects every step until
    # x + h == x
    def fun(x, y):
        return [math.nan] * n

    with pytest.raises(IntegrationError, match="step size underflow") as got:
        _stepper.solve(fun, 0.0, [1.0] * n, [1.0], 1e-10, 1e-12)
    with pytest.raises(IntegrationError, match="step size underflow") as expected:
        _reference_solve(fun, 0.0, [1.0] * n, [1.0], 1e-10, 1e-12)
    assert got.value.reached == expected.value.reached == 0.0


@pytest.mark.parametrize("n", sorted(CASES))
def test_step_budget_exhausted(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, first_step, _ = _capture(monkeypatch, CASES[n])[0]
    monkeypatch.setattr(_stepper, "_MAX_STEPS", 10)
    monkeypatch.setitem(globals(), "_MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="step budget exhausted") as got:
        _stepper.solve(fun, x0, y0, nodes, rtol, atol, first_step)
    with pytest.raises(IntegrationError, match="step budget exhausted") as expected:
        _reference_solve(fun, x0, y0, nodes, rtol, atol, first_step)
    assert got.value.reached == expected.value.reached
    assert x0 < got.value.reached < nodes[-1]


@pytest.mark.parametrize("n", [0, 3, 5])
def test_unsupported_state_size(n):
    with pytest.raises(ValueError, match="size"):
        _stepper.solve(lambda x, y: list(y), 0.0, [1.0] * n, [1.0], 1e-10, 1e-12)


# ------------------------------------------------------------------ zeroin

def _cubic_points(f, xs):
    """evaluate(x) for zeroin over f, recording every x it is called at."""
    def evaluate(x):
        xs.append(x)
        return x, f(x), None
    return evaluate


def _wallis(x):
    """Wallis's cubic x^3 - 2x - 5, whose one real root is 2.0945514815423265..."""
    return x * x * x - 2.0 * x - 5.0


WALLIS_ROOT = 2.0945514815423265


def _strictly_inside_each_bracket(f, lo, hi, xs):
    """True when every evaluation lies strictly inside the bracket that the
    earlier ones (and lo < hi, with f(lo) < 0 < f(hi)) left."""
    for x in xs:
        if not lo < x < hi:
            return False
        lo, hi = (x, hi) if f(x) < 0.0 else (lo, x)
    return True


def test_zeroin_converges_on_a_cubic_inside_its_bracket():
    xs, tol = [], 1e-12
    b, c = _stepper.zeroin(_cubic_points(_wallis, xs), (2.0, _wallis(2.0), None),
                           (3.0, _wallis(3.0), None), lambda x: tol, lambda p: True, "unused")
    assert abs(b[0] - c[0]) <= 2.0 * tol
    assert min(b[0], c[0]) <= WALLIS_ROOT <= max(b[0], c[0])
    assert b[1] == _wallis(b[0]) and abs(b[1]) <= abs(c[1])
    assert 0 < len(xs) <= 10
    assert _strictly_inside_each_bracket(_wallis, 2.0, 3.0, xs)


def test_zeroin_raises_when_its_stopping_test_cannot_be_met():
    xs, tol = [], 1e-12
    with pytest.raises(RuntimeError, match=r"zeroin on \[2.0, 3.0\] stopped at \[2\.0945") as got:
        _stepper.zeroin(_cubic_points(_wallis, xs), (2.0, _wallis(2.0), None),
                        (3.0, _wallis(3.0), None), lambda x: tol, lambda p: False,
                        "zeroin on [{lo}, {hi}] stopped at [{left}, {right}], "
                        "|f| = {f:.3g} at x={x}")
    left, right = (float(v) for v in str(got.value).split("[")[2].split("]")[0].split(", "))
    assert 0.0 < right - left <= 2.0 * tol
    assert 0 < len(xs) < 100
    assert _strictly_inside_each_bracket(_wallis, 2.0, 3.0, xs)
