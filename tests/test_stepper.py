"""The DOP853 driver and its stage functions against the generic list-based
loop.

``_reference_solve`` below is the generic Dormand-Prince 8(5,3) step
loop, over lists and over the nonzero coefficients of the tableau, that
the stage functions in ``gelfand._stepper`` perform expression for
expression, unrolled for sizes 1, 2 and 4; like ``solve`` it takes the
grid shoots' step bound min(cap, rel x). It reads its coefficients from
scipy's ``dop853_coefficients`` and keeps its own copy of the controller
constants, so it shares no number with the package; a separate test checks
that the package's tableau is scipy's. Every state size must reproduce the
loop bit for bit: the same node states, the same accepted steps and the
same sequence of right-hand-side calls, compared with ``==``. The
right-hand sides are the package's own, captured from real calls through
``_stepper.solve`` and wrapped so that they run on the generic stage. The
fused stages, which inline a radial or the Pruefer right-hand side's
lines in place of the calls, must give the list-form attempt's results
too, and a whole Pruefer solve on its fused stage the phase of the same
solve on the generic stage. The package's
one root finder, ``zeroin``, is tested at the end on plain floats.
"""

from __future__ import annotations

import math
from math import sqrt

import pytest
from scipy.integrate._ivp import dop853_coefficients as dop

from gelfand import (
    IntegrationError,
    ProblemConfig,
    explicit_uh,
    integrate_ivp,
    integrate_singular,
    make_ah,
    parse_weight,
    potential_from_shoot,
    potential_from_singular,
    reduce_to_disk,
)
from gelfand import _stepper, radial_ode, spectral
from gelfand.spectral import _prufer_inner_radius, _prufer_theta_end


# ---------------------------------------------------------------- reference

# 0-based as in scipy: stage s (k_s = ks[s]) runs at x + C[s] h on the
# nonzero A[s, j]; the FSAL stage ks[12] enters neither error estimate
_ROWS = [(float(dop.C[s]), [(j, float(dop.A[s, j])) for j in range(s) if dop.A[s, j]])
         for s in range(1, dop.N_STAGES)]
_B, _E5, _E3 = ([(j, float(c)) for j, c in enumerate(coeffs[:dop.N_STAGES]) if c]
                for coeffs in (dop.B, dop.E5, dop.E3))
STAGES_PER_ATTEMPT = dop.N_STAGES  # FSAL: one call to start, then 12 per attempt

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0
_MAX_STEPS = 2_000_000


def _combo(coeffs, ks, i):
    """sum of c ks[j][i] over the (j, c) of coeffs, from left to right."""
    (j, c), *rest = coeffs
    total = c * ks[j][i]
    for j, c in rest:
        total += c * ks[j][i]
    return total


def _reference_stage(fun, x, h, x_new, y, k1, rtol, atol):
    """One step attempt of length h from (x, y) with k1 = fun(x, y), in list
    form: (y_new, fun(x_new, y_new), err), as the unrolled stages return."""
    n = len(y)
    ks = [k1]
    for c, row in _ROWS:
        ks.append(fun(x + c * h, [y[i] + h * _combo(row, ks, i) for i in range(n)]))
    ynew = [y[i] + h * _combo(_B, ks, i) for i in range(n)]
    knew = fun(x_new, ynew)

    e5 = e3 = 0.0
    for i in range(n):
        sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
        d5 = _combo(_E5, ks, i) / sc
        d3 = _combo(_E3, ks, i) / sc
        e5 += d5 * d5
        e3 += d3 * d3
    # Hairer's estimate; |h| = h, which is positive here
    err = h * e5 / sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
    return ynew, knew, err


def _reference_solve(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False,
                     bound=None):
    """Integrate y' = fun(x, y) from x0 through each node in `nodes`.

    nodes must be strictly increasing with nodes[0] > x0. Returns the list
    of states at the nodes; with collect=True returns (node_states, xs, ys)
    where xs/ys are every accepted step point including x0 and all nodes.
    With bound=(cap, rel) no step from x is longer than min(cap, rel x).
    """
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
            if bound is not None:
                h = min(h, bound[0], bound[1] * x)
            clamped = h >= target - x
            if clamped:
                h_try = target - x
            else:
                h_try = h
            if x + h_try == x:
                raise IntegrationError("step size underflow", x)

            ynew, knew, err = _reference_stage(fun, x, h_try, x + h_try, y, k1, rtol, atol)
            nsteps += 1

            if err <= 1.0:
                x = x + h_try if not clamped else target
                y = ynew
                k1 = knew
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
SHORT_SINGULAR = parse_weight("polyexp:1.5;d=0.5")


def _capture(monkeypatch, run):
    """The argument tuples of every ``_stepper.solve`` call `run` makes."""
    calls = []
    solve = _stepper.solve

    def recording(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False, bound=None):
        calls.append((fun, x0, list(y0), list(nodes), rtol, atol, first_step, collect, bound))
        return solve(fun, x0, y0, nodes, rtol, atol, first_step, collect, bound)

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


def _compare(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False, bound=None):
    """Run the kernel and the reference on one problem and assert that
    results and RHS calls are identical; returns (calls, attempts, result)."""
    ref_fun, ref_log = _logged(fun)
    new_fun, new_log = _logged(fun)
    expected = _reference_solve(ref_fun, x0, y0, nodes, rtol, atol, first_step, collect, bound)
    got = _stepper.solve(new_fun, x0, y0, nodes, rtol, atol, first_step, collect, bound)
    assert got == expected
    # by repr: trial stages of a rejected step may hold nan, and nan != nan
    assert repr(new_log) == repr(ref_log)
    calls = len(new_log)
    assert (calls - 1) % STAGES_PER_ATTEMPT == 0
    return calls, (calls - 1) // STAGES_PER_ATTEMPT, got


def _prufer_phase():
    k2 = reduce_to_disk(explicit_uh(10, 40.0))
    _prufer_theta_end(k2, 0.0, _prufer_inner_radius(k2, 16))


# (state size, what to run) for the package's real right-hand sides
CASES = {
    1: _prufer_phase,
    # the singular series of a_h and const reaches r = 1, where no solve
    # call is made; this one stops at r0 = 0.70
    2: lambda: integrate_singular(ProblemConfig(dim=10, weight=SHORT_SINGULAR)),
    4: lambda: integrate_ivp(ProblemConfig(dim=3, weight=CONST), 12.0),
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
    fun, x0, y0, nodes, rtol, atol, first_step, _, bound = _capture(monkeypatch, CASES[n])[0]
    end = nodes[-1]
    span = end - x0
    # dense: many more nodes than steps, so nearly every step is clamped
    dense = [x0 + span * k / 4000.0 for k in range(1, 4001)]
    dense[-1] = end
    _, _, states = _compare(fun, x0, y0, dense, rtol, atol, first_step, bound=bound)
    assert len(states) == len(dense)
    # single node, with and without the caller's first step
    _compare(fun, x0, y0, [end], rtol, atol, first_step, bound=bound)
    _compare(fun, x0, y0, [end], rtol, atol, None)


@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_collect_and_default_first_step(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, *_ = _capture(monkeypatch, CASES[n])[0]
    calls, attempts, (states, xs, ys) = _compare(fun, x0, y0, nodes, rtol, atol, None, True)
    assert xs[0] == x0 and ys[0] == list(y0)
    assert xs[-1] == nodes[-1] and ys[-1] == states[-1]
    assert calls == 1 + STAGES_PER_ATTEMPT * attempts
    assert attempts >= len(xs) - 1


@pytest.mark.parametrize("n", sorted(CASES))
def test_kernel_matches_reference_with_rejected_steps(monkeypatch, n):
    fun, x0, y0, nodes, rtol, atol, *_ = _capture(monkeypatch, CASES[n])[0]
    # a first step of the whole span is far too long: the controller must
    # reject and shrink before the first accepted step; one node, so that
    # no clamp to a nearer node shortens that step
    span = nodes[-1] - x0
    calls, attempts, (_, xs, _) = _compare(fun, x0, y0, nodes[-1:], rtol, atol, span, True)
    accepted = len(xs) - 1
    assert attempts > accepted
    assert calls == 1 + STAGES_PER_ATTEMPT * attempts


@pytest.mark.parametrize("n", [2, 4])
def test_kernel_matches_reference_with_a_step_bound(monkeypatch, n):
    # grid shoots bound their steps by min(0.02, 0.26 x); here that bound,
    # and one ten times tighter, which binds on more steps
    fun, x0, y0, nodes, rtol, atol, first_step, _, bound = _capture(monkeypatch, CASES[n])[0]
    assert bound == radial_ode._GRID_STEP
    steps = []
    for cap, rel in (bound, (0.1 * bound[0], 0.1 * bound[1])):
        _, _, (_, xs, _) = _compare(fun, x0, y0, nodes, rtol, atol, first_step, True, (cap, rel))
        assert all(b - a <= min(cap, rel * a) * (1.0 + 1e-12) for a, b in zip(xs, xs[1:]))
        steps.append(len(xs) - 1)
    assert steps[0] < steps[1]


@pytest.mark.parametrize("n", sorted(CASES))
def test_list_stage_matches_unrolled_stage(monkeypatch, n):
    # one step attempt alone: the compiled stage of size n must give what the
    # list-form attempt gives, rejected attempts included
    fun, x0, y0, nodes, rtol, atol, *_ = _capture(monkeypatch, CASES[n])[0]
    k1 = fun(x0, list(y0))
    h = nodes[-1] - x0  # the whole span: far too long
    accepted = []
    while not accepted or not accepted[-1]:
        got = []
        generic = _stepper._generic_stage(n)
        for stage in (_reference_stage, lambda fun, *attempt: generic((fun,), *attempt)):
            logged, log = _logged(fun)
            got.append((stage(logged, x0, h, x0 + h, list(y0), k1, rtol, atol), log))
        assert repr(got[0]) == repr(got[1])
        assert len(got[0][1]) == STAGES_PER_ATTEMPT
        accepted.append(got[0][0][2] <= 1.0)
        h /= 4.0
    assert not accepted[0]


# every shape of weight the compiled right-hand sides distinguish: no
# coefficient untilted and tilted, one, two and three coefficients
FUSED_WEIGHTS = ("const", "ah:h=40", "polyexp:0.7,-0.2;d=0.3", "polyexp:;d=-0.4",
                 "polyexp:0.5,0.25,-0.1;d=0")
# (right-hand side factory, dimension, abscissa of the attempt): ve_log
# runs in s = log r
FUSED_KINDS = {"ve": (radial_ode._rhs_ve, 10, 0.3), "ve_log": (radial_ode._rhs_ve_log, 7, -1.5),
               "v": (radial_ode._rhs_v, 10, 0.3)}
# trial states: a real one, v above the cap on e^v, and one holding nan
FUSED_STATES = ([2.5, -1.5, 1.0, -0.4], [radial_ode._EXP_CAP + 30.0, -1.5, 1.0, -0.4],
                [math.nan, -1.5, 1.0, -0.4])


@pytest.mark.parametrize("spec", FUSED_WEIGHTS)
@pytest.mark.parametrize("kind", sorted(FUSED_KINDS))
def test_fused_stage_matches_list_stage(kind, spec):
    # one step attempt of a compiled right-hand side's own stage, with its
    # lines inlined, against the list-form attempt and the size's unrolled
    # stage, both calling the plain callable: the same (y_new, k13, err)
    make, dim, x0 = FUSED_KINDS[kind]
    fun = make(ProblemConfig(dim=dim, weight=parse_weight(spec, dim)))
    for state in FUSED_STATES:
        y0 = state[:2] if kind == "v" else state
        k1 = fun(x0, y0)
        for h in (0.5, 1e-2, 1e-4):
            args = (x0, h, x0 + h, list(y0), k1, 1e-10, 1e-12)
            expected = repr(_reference_stage(fun, *args))
            assert repr(_stepper._generic_stage(len(y0))((fun,), *args)) == expected
            assert repr(fun.stage(fun.stage_args, *args)) == expected, (state, h)


def _prufer_potentials():
    """{name: disk potential} of an explicit potential, a numeric regular one
    and a numeric singular one whose series stops below r = 1."""
    cfg = ProblemConfig(dim=10, weight=AH40)
    singular = ProblemConfig(dim=10, weight=SHORT_SINGULAR)
    return {"explicit": reduce_to_disk(explicit_uh(10, 40.0)),
            "regular": reduce_to_disk(potential_from_shoot(cfg, integrate_ivp(cfg, 2.0))),
            "singular": reduce_to_disk(potential_from_singular(
                singular, integrate_singular(singular)[1]))}


PRUFER_POTENTIALS = _prufer_potentials()


def _prufer_closure(q, mu, const, smooth_at):
    """The Pruefer right-hand side written out as a plain function."""
    def rhs(tau, y):
        r = math.exp(tau)
        s = const if const is not None else smooth_at(r)
        sin_t = math.sin(y[0])
        cos_t = math.cos(y[0])
        return [cos_t * cos_t + (q + r * r * (s + mu)) * sin_t * sin_t]

    return rhs


@pytest.mark.parametrize("mu", [0.0, -20.0])
@pytest.mark.parametrize("potential", sorted(PRUFER_POTENTIALS))
def test_prufer_fused_stage_matches_list_stage(potential, mu):
    # the Pruefer phase's own stage against the list-form attempt and the
    # size-1 unrolled stage, both calling the plain callable, with the
    # smooth part a constant and a numeric smooth_at
    k2 = PRUFER_POTENTIALS[potential]
    assert (k2.const is None) == (potential != "explicit")
    args = (k2.inv_sq, mu, k2.const, k2.smooth_at)
    fun = spectral._prufer_rhs()(*args)
    assert fun.stage_args == args
    x0 = -1.5
    for state in FUSED_STATES:
        y0 = state[:1]
        k1 = fun(x0, y0)
        assert repr(k1) == repr(_prufer_closure(*args)(x0, y0))
        for h in (0.5, 1e-2, 1e-4):
            attempt = (x0, h, x0 + h, list(y0), k1, 1e-10, 1e-10)
            expected = repr(_reference_stage(fun, *attempt))
            assert repr(_stepper._generic_stage(1)((fun,), *attempt)) == expected
            assert repr(fun.stage(fun.stage_args, *attempt)) == expected, (state, h)


@pytest.mark.parametrize("potential", sorted(PRUFER_POTENTIALS))
def test_prufer_phase_on_its_fused_stage_matches_the_generic_stage(monkeypatch, potential):
    # the whole solve: theta_end on the fused stage equals, bit for bit,
    # theta_end on the generic stage, from the compiled callable without its
    # stage and from the right-hand side written out as a plain function
    k2 = PRUFER_POTENTIALS[potential]
    r_in = _prufer_inner_radius(k2, 16)
    mus = (0.0, -20.0)
    fused = [_prufer_theta_end(k2, mu, r_in) for mu in mus]
    solve, generic = _stepper.solve, []

    def on_generic(fun, *args, **kwargs):
        out = solve(lambda x, y: fun(x, y), *args, **kwargs)
        assert solve(_prufer_closure(*fun.stage_args), *args, **kwargs) == out
        generic.append(out)
        return out

    monkeypatch.setattr(_stepper, "solve", on_generic)
    assert [_prufer_theta_end(k2, mu, r_in) for mu in mus] == fused
    assert len(generic) == len(mus)


def test_solve_runs_a_callable_with_a_fused_stage_on_it():
    # fun itself is called once, for the first k1; every attempt runs on
    # fun.stage. A callable without one runs on the generic stage: twelve
    # calls per attempt, with the same result
    cfg = ProblemConfig(dim=10, weight=AH40)
    fun = radial_ode._rhs_ve(cfg)
    y0 = radial_ode.series_start(cfg, 5.0, 1e-4)
    fused, fused_log = _logged(fun)
    fused.stage, fused.stage_args = fun.stage, fun.stage_args
    generic, generic_log = _logged(fun)
    got = [_stepper.solve(f, 1e-4, y0, [0.5, 1.0], 1e-10, 1e-12, collect=True)
           for f in (fused, generic)]
    assert got[0] == got[1]
    assert len(fused_log) == 1
    attempts, rest = divmod(len(generic_log) - 1, STAGES_PER_ATTEMPT)
    assert rest == 0 and attempts >= len(got[1][1]) - 1 > 0


# (right-hand side, the name of it that the stage functions could mistake
# for one of their own): its abscissa, a state component, a param and a
# name that its lines assign
CLASHES = {"abscissa": (_stepper.Rhs("x_0", ("y",), (), (), ("-y",)), "x_0"),
           "state": (_stepper.Rhs("x", ("y_1",), (), (), ("-y_1",)), "y_1"),
           "param": (_stepper.Rhs("x", ("y",), ("h_0",), (), ("h_0 * y",)), "h_0"),
           "assigned": (_stepper.Rhs("x", ("y",), (), ("k2_1 = -y",), ("k2_1",)), "k2_1")}


@pytest.mark.parametrize("clash", sorted(CLASHES))
def test_names_that_end_in_an_underscore_and_a_digit_are_refused(clash):
    rhs, name = CLASHES[clash]
    with pytest.raises(ValueError, match=f"the clash right-hand side names {name}: "):
        _stepper.compile_rhs(rhs, {}, "clash")


def test_a_right_hand_side_may_use_the_names_of_the_stage_arguments():
    # x, y, h and args name the abscissa, the state and two params here,
    # and the stage takes values of the same meaning: the param h must not
    # stand for the step, nor x for the abscissa of another stage
    rhs = _stepper.Rhs("x", ("y",), ("h", "args"), ("k13 = h * y + x * args",), ("k13",))
    fun = _stepper.compile_rhs(rhs, {}, "stage names")(-0.75, 0.5)
    y0 = [1.25]
    attempt = (0.3, 0.2, 0.5, y0, fun(0.3, y0), 1e-10, 1e-12)
    assert fun.stage(fun.stage_args, *attempt) == _reference_stage(fun, *attempt)


@pytest.mark.parametrize("n", sorted(CASES))
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
    fun, x0, y0, nodes, rtol, atol, first_step, _, bound = _capture(monkeypatch, CASES[n])[0]
    monkeypatch.setattr(_stepper, "_MAX_STEPS", 10)
    monkeypatch.setitem(globals(), "_MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="step budget exhausted") as got:
        _stepper.solve(fun, x0, y0, nodes, rtol, atol, first_step, bound=bound)
    with pytest.raises(IntegrationError, match="step budget exhausted") as expected:
        _reference_solve(fun, x0, y0, nodes, rtol, atol, first_step, bound=bound)
    assert got.value.reached == expected.value.reached
    assert x0 < got.value.reached < nodes[-1]


@pytest.mark.parametrize("n", [0, 3, 5, 6])
def test_unsupported_state_size(n):
    with pytest.raises(ValueError, match="size"):
        _stepper.solve(lambda x, y: list(y), 0.0, [1.0] * n, [1.0], 1e-10, 1e-12)


def test_tableau_is_scipys_dop853():
    # 1-based as in Hairer, Norsett & Wanner; scipy's arrays are 0-based
    def nonzero(coeffs):
        return {j + 1: float(c) for j, c in enumerate(coeffs) if c}

    assert _stepper._C == {s + 1: float(dop.C[s]) for s in range(1, dop.N_STAGES)}
    assert _stepper._A == {s + 1: nonzero(dop.A[s, :s]) for s in range(1, dop.N_STAGES)}
    assert _stepper._B == nonzero(dop.B)
    assert _stepper._E5 == nonzero(dop.E5) and _stepper._E3 == nonzero(dop.E3)
    # the stage functions sum each row from left to right, as the reference does
    for coeffs in (*_stepper._A.values(), _stepper._B, _stepper._E5, _stepper._E3):
        assert list(coeffs) == sorted(coeffs)


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
