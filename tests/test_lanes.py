"""The lane driver ``_stepper.solve_lanes`` and the march that uses it.

A march (``trace_curve``) shoots through ``radial_ode.trace_lanes``: first
its grid, then each round of the midpoints it bisects. Over a weighted
curve every beta runs its log-r phase as a lane; the constant weight (and
a_0) shoots each beta on ``integrate_ivp``. Lanes are not bit-identical
to ``solve`` (numpy's exp rounds apart from math.exp), so they are held to
``solve``'s step counts and to 1e-13 in the end states, and a lane must not
depend on the batch it runs in. A trace shoot outside the lanes
(``integrate_ivp``) runs the scalar path unchanged, bit for bit.

``_reference_lane_stage`` below is the lane stage as a loop that calls the
lane right-hand side once per stage at x + c h, over the nonzero
coefficients of scipy's ``dop853_coefficients``. The compiled lane stage,
which evaluates the abscissa's part of the right-hand side once per
attempt, must give its results, NaNs and failures included, with ``==``;
both run in one process, so this holds on any numpy build.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import operator
import sys

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop

import gelfand.bifurcation as bif
import gelfand.cli as cli
from gelfand import IntegrationError, ProblemConfig, integrate_ivp, parse_weight, trace_curve
from gelfand import _stepper, radial_ode
from gelfand.weights import Weight

# (dimension, weight) of the marches whose log-r phases run in lanes, and
# how many of their lanes may take other step counts than `solve`: where a
# step's error estimate is rounding noise (err ~ 1e-12, on the first steps
# of a short span or in the flat tail at large beta), the PI factor reads
# that noise, so exp's last bit can move the next step. Over the march's
# 159 lanes at N=9 two do, by one accepted step and one or two attempts.
LANE_CASES = {(10, "ah:h=40"): 0, (3, "ah:h=40"): 0, (9, "polyexp:0.7,-0.2;d=0.3"): 2}


def _cfg(dim, spec):
    return ProblemConfig(dim=dim, weight=parse_weight(spec, dim))


def _counted(fun):
    """fun on its own fused stage, with a count of the step attempts."""
    attempts = []

    def counted(x, y):
        return fun(x, y)

    def stage(*args):
        attempts.append(None)
        return fun.stage(*args)

    counted.stage, counted.stage_args = stage, fun.stage_args
    return counted, attempts


def _scalar_lanes(cfg, betas):
    """`trace_lanes` with every shoot on `solve`: integrate_ivp's shoots."""
    shots = []
    for beta in betas:
        try:
            shots.append(integrate_ivp(cfg, beta, trace=True))
        except IntegrationError as exc:
            shots.append(exc)
    return shots


def _batch_sizes(monkeypatch):
    """The number of lanes of every `solve_lanes` call from here on."""
    sizes, lanes = [], _stepper.solve_lanes
    monkeypatch.setattr(_stepper, "solve_lanes", lambda fun, x0, *args: (sizes.append(len(x0)),
                                                                         lanes(fun, x0, *args))[1])
    return sizes


@pytest.fixture(scope="module")
def marches():
    """trace_curve(cfg, -5, 40, 0.25), per case."""
    return {case: trace_curve(_cfg(*case), -5.0, 40.0, 0.25) for case in LANE_CASES}


@pytest.fixture(scope="module")
def march_betas(marches):
    """The sample betas of the marches, per case."""
    return {case: curve.betas.tolist() for case, curve in marches.items()}


@pytest.mark.parametrize("case", LANE_CASES)
def test_lanes_take_the_steps_of_scalar_solves(march_betas, case):
    # every log-r phase of the march, shot in one batch, against `solve`
    # from the same start: the same accepted and rejected steps but in at
    # most LANE_CASES[case] lanes, the end states within 1e-13 relative to
    # max(1, |.|)
    cfg = _cfg(*case)
    fun = radial_ode._rhs_ve_log(cfg)
    starts = [log for b in march_betas[case]
              if (log := radial_ode._log_start(radial_ode._series(cfg, b)))]
    s0 = [s for s, _ in starts]
    lanes = _stepper.solve_lanes(fun, s0, np.transpose([y for _, y in starts]), np.zeros(len(s0)),
                                 cfg.rel_tol, cfg.abs_tol)
    assert len(lanes) == len(starts) > 100
    moved = []
    for (s, y0), lane in zip(starts, lanes):
        counted, attempts = _counted(fun)
        _, xs, ys = _stepper.solve(counted, s, y0, [0.0], cfg.rel_tol, cfg.abs_tol, collect=True)
        accepted, rejected = len(lane.xs) - 1, lane.attempts - len(lane.xs) + 1
        if (accepted, rejected) != (len(xs) - 1, len(attempts) - len(xs) + 1):
            moved.append((accepted - len(xs) + 1, lane.attempts - len(attempts)))
        assert lane.xs[0] == s and lane.xs[-1] == 0.0
        assert np.array_equal(lane.ys[0], y0)
        end = np.array(ys[-1])
        assert np.all(np.abs(lane.ys[-1] - end) <= 1e-13 * np.maximum(1.0, np.abs(end))), s
    assert len(moved) <= LANE_CASES[case]
    assert all(abs(a) <= 1 and abs(b) <= 2 for a, b in moved), moved


@pytest.mark.parametrize("case", LANE_CASES)
def test_a_lane_does_not_depend_on_its_batch(march_betas, case):
    # a beta shot as a one-lane batch gives, with ==, what it gives inside
    # the march's whole batch: every sixteenth beta and the last one
    cfg = _cfg(*case)
    fun = radial_ode._rhs_ve_log(cfg)
    starts = [log for b in march_betas[case]
              if (log := radial_ode._log_start(radial_ode._series(cfg, b)))]
    s0, y0 = np.array([s for s, _ in starts]), np.transpose([y for _, y in starts])
    batch = _stepper.solve_lanes(fun, s0, y0, np.zeros(len(s0)), cfg.rel_tol, cfg.abs_tol)
    for i in [*range(0, len(s0), 16), len(s0) - 1]:
        alone, = _stepper.solve_lanes(fun, s0[i:i + 1], y0[:, i:i + 1], [0.0],
                                      cfg.rel_tol, cfg.abs_tol)
        assert np.array_equal(alone.xs, batch[i].xs) and np.array_equal(alone.ys, batch[i].ys)
        assert alone.attempts == batch[i].attempts


def _merge_branches(run):
    """run() and the lines of `solve_lanes` that record an iteration's
    accepted steps which it ran: the all-accept one and the merging one."""
    lines, first = inspect.getsourcelines(_stepper.solve_lanes)
    branches = {n: text.strip() for n, text in enumerate(lines, first) if "taken.append(" in text}
    code, ran = _stepper.solve_lanes.__code__, set()

    def lines_of(frame, event, arg):
        if event == "line" and frame.f_lineno in branches:
            ran.add(branches[frame.f_lineno])
        return lines_of

    def calls(frame, event, arg):
        return lines_of if frame.f_code is code else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        out = run()
    finally:
        sys.settrace(before)
    return out, ran, set(branches.values())


def test_a_mixed_batch_takes_each_lanes_own_steps(march_betas):
    # in the N=3, a_40 march's batch some iterations accept in every lane,
    # which skips the merges, and others reject in some: either way each
    # lane takes, with ==, the steps it takes alone
    cfg = _cfg(3, "ah:h=40")
    fun = radial_ode._rhs_ve_log(cfg)
    starts = [log for b in march_betas[3, "ah:h=40"]
              if (log := radial_ode._log_start(radial_ode._series(cfg, b)))]
    s0, y0 = np.array([s for s, _ in starts]), np.transpose([y for _, y in starts])
    batch, ran, branches = _merge_branches(lambda: _stepper.solve_lanes(
        fun, s0, y0, np.zeros(len(s0)), cfg.rel_tol, cfg.abs_tol))
    assert len(branches) == 2 and ran == branches
    for i, lane in enumerate(batch):
        alone, = _stepper.solve_lanes(fun, s0[i:i + 1], y0[:, i:i + 1], [0.0],
                                      cfg.rel_tol, cfg.abs_tol)
        assert np.array_equal(alone.xs, lane.xs) and np.array_equal(alone.ys, lane.ys), i
        assert alone.attempts == lane.attempts, i


@pytest.mark.parametrize("case", [(10, "ah:h=40"), (3, "ah:h=40")])
def test_a_weighted_shoot_at_positive_beta_runs_wholly_in_its_lane(monkeypatch, case):
    # after its series, a weighted trace shoot at beta > 0 makes no `solve`
    # call: over the grid betas > 0 of a march on [-5, 40] by 0.25 every
    # one steps in log r from its series' radius in a lane
    cfg = _cfg(*case)
    betas = [0.25 * k for k in range(1, 161)]
    calls, real = [], _stepper.solve

    def counting(fun, x0, *args, **kw):
        calls.append(x0)
        return real(fun, x0, *args, **kw)

    monkeypatch.setattr(_stepper, "solve", counting)
    sizes = _batch_sizes(monkeypatch)
    shots = radial_ode.trace_lanes(cfg, betas)
    assert calls == [] and sizes == [160]
    assert all(shot.profile.radii[-1] == 1.0 for shot in shots)


def _growth():
    """y' = c y^2 as a compiled right-hand side, raising ValueError where
    y exceeds its cap: make(c, cap)."""
    rhs = _stepper.Rhs("x", ("y",), ("c", "cap"),
                       ("if y > cap:", "    raise ValueError(f'y={y} beyond the cap at x={x}')"),
                       ("c * y * y",))
    return _stepper.compile_rhs(rhs, {}, "growth")


def _alone(fun, x0, y0, x1):
    return _stepper.solve_lanes(fun, [x0], [[y0]], [x1], 1e-10, 1e-12)[0]


def test_a_lane_that_raises_fails_alone():
    # y = y0 / (1 - c y0 x): the lane from y0 = 0.75 passes the cap 1.5 at
    # x = 2/3 and fails there with fun's own message; the lanes beside it
    # go on and give what they give alone
    fun = _growth()(1.0, 1.5)
    x0, y0, x1 = [0.0, 0.0, 0.0], [0.1, 0.75, 0.2], [1.0, 1.0, 2.0]
    lanes = _stepper.solve_lanes(fun, x0, [y0], x1, 1e-10, 1e-12)
    failed = lanes[1]
    assert isinstance(failed, IntegrationError)
    assert str(failed).startswith("y=1.5") and "beyond the cap at x=0.66" in str(failed)
    assert isinstance(failed.__cause__, ValueError)
    with pytest.raises(IntegrationError, match="beyond the cap") as scalar:
        _stepper.solve(fun, 0.0, [0.75], [1.0], 1e-10, 1e-12)
    assert failed.reached == pytest.approx(scalar.value.reached, rel=1e-6)
    assert failed.reached < 2.0 / 3.0
    for i in (0, 2):
        alone = _alone(fun, x0[i], y0[i], x1[i])
        assert np.array_equal(lanes[i].xs, alone.xs) and np.array_equal(lanes[i].ys, alone.ys)
        assert lanes[i].xs[-1] == x1[i]
        assert lanes[i].ys[-1, 0] == pytest.approx(y0[i] / (1.0 - y0[i] * x1[i]), rel=1e-8)


def test_a_lane_that_underflows_fails_alone():
    # without a cap the lane from y0 = 1 blows up at x = 1: its steps
    # shrink until x + h == x, as solve's do, at the same place to 1e-9
    # (numpy's power rounds apart from Python's in the step controller)
    fun = _growth()(1.0, np.inf)
    lanes = _stepper.solve_lanes(fun, [0.0, 0.0], [[0.1, 1.0]], [2.0, 2.0], 1e-10, 1e-12)
    with pytest.raises(IntegrationError, match="step size underflow") as scalar:
        _stepper.solve(fun, 0.0, [1.0], [2.0], 1e-10, 1e-12)
    assert isinstance(lanes[1], IntegrationError) and str(lanes[1]) == "step size underflow"
    assert lanes[1].reached == pytest.approx(scalar.value.reached, rel=1e-9)
    alone = _alone(fun, 0.0, 0.1, 2.0)
    assert np.array_equal(lanes[0].ys, alone.ys) and lanes[0].xs[-1] == 2.0


def test_a_lane_that_exhausts_its_budget_fails_alone(monkeypatch):
    # the step budget counts each lane's own attempts: the short lane ends
    # within it, the long one fails where solve fails, to 1e-6
    fun = _growth()(1.0, np.inf)
    short = _alone(fun, 0.0, 0.1, 0.01)
    monkeypatch.setattr(_stepper, "_MAX_STEPS", short.attempts + 2)
    lanes = _stepper.solve_lanes(fun, [0.0, 0.0], [[0.1, 0.9]], [0.01, 1.1], 1e-10, 1e-12)
    with pytest.raises(IntegrationError, match="step budget exhausted") as scalar:
        _stepper.solve(fun, 0.0, [0.9], [1.1], 1e-10, 1e-12)
    assert isinstance(lanes[1], IntegrationError) and str(lanes[1]) == "step budget exhausted"
    assert lanes[1].reached == pytest.approx(scalar.value.reached, rel=1e-6)
    assert np.array_equal(lanes[0].ys, short.ys) and lanes[0].attempts == short.attempts


def test_a_weight_that_turns_nonpositive_fails_only_the_lanes_that_reach_it():
    # a = 1 - 1.2 r^2 is nonpositive from r = 0.913 on: the log-r lane that
    # ends at r = 1 fails with the weight's message, the ones that end
    # before go on. The last step it accepted ends within 1e-4 of solve's
    cfg = ProblemConfig(dim=5, weight=Weight(spec="polyexp:-1.2;d=0", coeffs=(-1.2,), tilt=0.0))
    fun = radial_ode._rhs_ve_log(cfg)
    s0, y0 = radial_ode._log_start(radial_ode._series(cfg, 6.0))
    ends = np.log([0.8, 1.0, 0.9])
    lanes = _stepper.solve_lanes(fun, [s0] * 3, np.transpose([y0] * 3), ends,
                                 cfg.rel_tol, cfg.abs_tol)
    assert [isinstance(lane, IntegrationError) for lane in lanes] == [False, True, False]
    assert str(lanes[1]).startswith("weight 'polyexp:-1.2;d=0' nonpositive at r=0.91")
    with pytest.raises(IntegrationError, match="nonpositive") as scalar:
        _stepper.solve(fun, s0, y0, [0.0], cfg.rel_tol, cfg.abs_tol)
    assert lanes[1].reached == pytest.approx(scalar.value.reached, abs=1e-4)
    assert lanes[1].reached < np.log(np.sqrt(1.0 / 1.2))
    assert lanes[0].xs[-1] == ends[0] and lanes[2].xs[-1] == ends[2]


def test_a_right_hand_side_without_params_compiles():
    # y' = -y binds no parameter: solve (on its fused stage) and
    # solve_lanes both give e^{-x}
    fun = _decay()()
    assert fun.stage_args == ()
    ends = [0.5, 1.0, 3.0]
    states = _stepper.solve(fun, 0.0, [1.0], ends, 1e-10, 1e-12)
    lanes = _stepper.solve_lanes(fun, [0.0] * 3, [[1.0] * 3], ends, 1e-10, 1e-12)
    for x, state, lane in zip(ends, states, lanes):
        assert state[0] == pytest.approx(np.exp(-x), rel=1e-9)
        assert lane.xs[-1] == x and lane.ys[-1, 0] == pytest.approx(np.exp(-x), rel=1e-9)


def test_lanes_need_an_if_only_around_a_raise():
    rhs = _stepper.Rhs("x", ("y",), ("c",), ("if y > c:", "    y = c"), ("y",))
    fun = _stepper.compile_rhs(rhs, {}, "guarded")(0.0)
    with pytest.raises(ValueError, match="only guard a raise"):
        fun.lanes()


def test_every_stage_raises_at_the_abscissa_of_its_failing_call():
    # growth names its abscissa x, which must not stand for the abscissa of
    # another stage. One attempt from x = 0.6 with h = 0.1 passes the cap
    # 1.5 at stage 11 (c = 6/7): the fused, generic and lane stages all
    # raise there, with its x
    fun = _growth()(1.0, 1.5)
    attempt = (0.6, 0.1, 0.7, [1.35], fun(0.6, [1.35]), 1e-10, 1e-12)
    message = "y=1.5266557948224697 beyond the cap at x=0.6857142857142857"
    for stage, args in ((fun.stage, fun.stage_args), (_stepper._generic_stage(1), (fun,))):
        with pytest.raises(ValueError) as got:
            stage(args, *attempt)
        assert str(got.value) == message
    lane_rhs, stage = fun.lanes()
    x, h, y = np.array([0.6]), np.array([0.1]), np.array([[1.35]])
    lanes = (fun.stage_args, x, h, x + h, y, lane_rhs(fun.stage_args, x, y), 1e-10, 1e-12)
    assert _same(_attempt(stage, *lanes), ([True], [f"ValueError: {message}"]))


# ------------------------------------------------------ the reference stage

# 0-based as in scipy: stage s (k_s = ks[s]) runs at x + C[s] h on the
# nonzero A[s, j]
_ROWS = [(float(dop.C[s]), [(j, float(dop.A[s, j])) for j in range(s) if dop.A[s, j]])
         for s in range(1, dop.N_STAGES)]
_B, _E5, _E3 = ([(j, float(c)) for j, c in enumerate(coeffs[:dop.N_STAGES]) if c]
                for coeffs in (dop.B, dop.E5, dop.E3))


def _combo(coeffs, ks):
    """sum of c ks[j] over the (j, c) of coeffs, from left to right."""
    (j, c), *rest = coeffs
    total = c * ks[j]
    for j, c in rest:
        total = total + c * ks[j]
    return total


def _reference_lane_stage(rhs, args, x, h, x_new, y, k1, rtol, atol):
    """One step attempt in every lane, the lane right-hand side rhs called
    at each stage's abscissa: (y_new, k13, err) as the lane stage returns."""
    ks = [k1]
    for c, row in _ROWS:
        ks.append(rhs(args, x + c * h, y + h * _combo(row, ks)))
    y_new = y + h * _combo(_B, ks)
    k13 = rhs(args, x_new, y_new)
    scale = atol + rtol * np.maximum(abs(y), abs(y_new))
    e5, e3 = (_combo(coeffs, ks) / scale for coeffs in (_E5, _E3))
    e5, e3 = e5 * e5, e3 * e3
    e5, e3 = (functools.reduce(operator.add, e) for e in (e5, e3))
    err = h * e5 / np.sqrt((e5 + 0.01 * e3) * len(y))
    err[e5 == 0.0] = 0.0
    return y_new, k13, err


def _attempt(stage, *args):
    """What a stage gives for one attempt: its results, or the lanes and
    messages of the failure that it raises."""
    with np.errstate(all="ignore"):
        try:
            return stage(*args)
        except _stepper._LaneFailure as exc:
            return exc.mask, [f"{type(e).__name__}: {e}" for e in exc.errors]


def _same(a, b):
    """== on the results of `_attempt`, NaN equal to NaN."""
    return len(a) == len(b) and all(
        x == y if isinstance(x, list) else np.array_equal(x, y, equal_nan=True)
        for x, y in zip(a, b))


def _decay():
    """y' = -y as a compiled right-hand side of no params: make()."""
    return _stepper.compile_rhs(_stepper.Rhs("x", ("y",), (), (), ("-y",)), {}, "decay")


def _capped():
    """y' = c y^2 raising ValueError where x exceeds its cap, a raise that
    reads the abscissa alone, and then where y exceeds its own, one that
    reads the state: make(c, xcap, ycap)."""
    rhs = _stepper.Rhs("x", ("y",), ("c", "xcap", "ycap"),
                       ("if x > xcap:", "    raise ValueError(f'x={x} beyond {xcap}')",
                        "if y > ycap:", "    raise ValueError(f'y={y} beyond {ycap} at x={x}')"),
                       ("c * y * y",))
    return _stepper.compile_rhs(rhs, {}, "capped")


# (right-hand side, number of weight coefficients, tilted) of the reference
# checks; growth, capped and decay read no weight
STAGE_CASES = [(kind, k, tilted) for kind in ("ve", "ve_log") for k in (0, 1, 2)
               for tilted in (False, True)] + [(kind, 0, False)
                                               for kind in ("growth", "capped", "decay")]


def _random_rhs(kind, k, tilted, rng):
    """(fun, the range of its abscissae) for a case of STAGE_CASES, its
    params drawn from rng: weights that may turn nonpositive, caps that
    may be infinite."""
    if kind in ("ve", "ve_log"):
        coeffs, tilt = rng.uniform(-1.0, 2.0, k), rng.uniform(-1.0, 2.0) if tilted else 0.0
        fun = radial_ode._compiled_rhs(kind, k, tilted)(float(rng.integers(1, 11)), *coeffs,
                                                        tilt, "random")
        return fun, (1e-3, 1.5) if kind == "ve" else (-8.0, 1.0)
    c, cap = rng.uniform(0.5, 2.0), rng.choice([rng.uniform(1.0, 50.0), np.inf])
    if kind == "growth":
        return _growth()(c, cap), (-1.0, 1.0)
    if kind == "capped":
        return _capped()(c, rng.uniform(1.0, 20.0), cap), (-1.0, 1.0)
    return _decay()(), (-1.0, 1.0)


@pytest.mark.parametrize("case", STAGE_CASES)
def test_the_lane_stage_is_the_per_stage_reference(case):
    # random lanes, a quarter of them with steps long enough to overflow
    # their trial stages: the lane stage gives what calling the lane
    # right-hand side at every stage gives, bit for bit, NaNs included.
    # Where lanes fail (a weight turned nonpositive, y or x beyond its
    # cap), both fail at the same stage with the same lanes and messages,
    # and the other lanes retry the attempt, as in solve_lanes. capped's
    # cap on y may fail a lane at a stage before its cap on x, which the
    # lane stage checks once per attempt, fails another lane
    kind, k, tilted = case
    rng = np.random.default_rng(STAGE_CASES.index(case))
    failures = overflows = 0
    for _ in range(8):
        fun, span = _random_rhs(kind, k, tilted, rng)
        lane_rhs, stage = fun.lanes()
        lanes, n = 64, 4 if kind in ("ve", "ve_log") else 1
        x = rng.uniform(*span, lanes)
        h = np.where(rng.random(lanes) < 0.25, rng.uniform(1.0, 60.0, lanes),
                     rng.uniform(1e-4, 0.3, lanes))
        y = rng.normal(0.0, 3.0, (n, lanes))
        while True:
            k1 = _attempt(lane_rhs, fun.stage_args, x, y)
            if len(k1) == 2:  # the right-hand side fails at x itself
                mask = k1[0]
            else:
                args = (fun.stage_args, x, h, x + h, y, k1, 1e-10, 1e-12)
                got = _attempt(stage, *args)
                assert _same(got, _attempt(_reference_lane_stage, lane_rhs, *args))
                if len(got) == 3:
                    break
                mask, failures = got[0], failures + 1
            x, h, y = x[~mask], h[~mask], y[:, ~mask]
        assert len(x)
        overflows += not all(np.isfinite(result).all() for result in got)
    # every case overflows but decay (linear), every weight that can fails
    assert (overflows > 0) == (kind != "decay")
    assert (failures > 0) == (kind in ("growth", "capped") or k > 0 or tilted)


def test_weights_that_turn_nonpositive_at_two_stages_fail_their_lanes_alone(monkeypatch):
    # a = 1 - 1.2 r^2 turns nonpositive at s* = log sqrt(1/1.2). In one
    # attempt of h = 0.1 the lane from s* - 0.02 passes s* at stage 5 (c =
    # 0.28), the lane from s* - 0.05 at stage 9 (c = 0.65): the stage
    # raises for the first lane alone, the retry for the second, each
    # message with the r of its own stage, and the lanes that stay below
    # s* go on. All of it as on the per-stage reference
    cfg = ProblemConfig(dim=5, weight=Weight(spec="polyexp:-1.2;d=0", coeffs=(-1.2,), tilt=0.0))
    fun = radial_ode._rhs_ve_log(cfg)
    _, y0 = radial_ode._log_start(radial_ode._series(cfg, 6.0))
    edge = np.log(np.sqrt(1.0 / 1.2))
    x0 = np.array([edge - 0.02, edge - 0.05, -3.0, -2.0])
    x1 = x0 + np.array([10.0, 10.0, 1.0, 1.0])
    h = 1e-2 * (x1 - x0)
    y = np.transpose([y0] * 4)
    lane_rhs, stage = fun.lanes()
    args = (fun.stage_args, x0, h, x0 + h, y, lane_rhs(fun.stage_args, x0, y),
            cfg.rel_tol, cfg.abs_tol)
    mask, messages = _attempt(stage, *args)
    assert mask.tolist() == [True, False, False, False]
    r = np.exp(x0[0] + _stepper._C[5] * h[0])
    assert messages == [f"ValueError: weight 'polyexp:-1.2;d=0' nonpositive at r={r}"]
    assert _same((mask, messages), _attempt(_reference_lane_stage, lane_rhs, *args))

    lanes = _stepper.solve_lanes(fun, x0, y, x1, cfg.rel_tol, cfg.abs_tol)
    monkeypatch.setattr(fun, "lanes", lambda: (lane_rhs, functools.partial(
        _reference_lane_stage, lane_rhs)))
    reference = _stepper.solve_lanes(fun, x0, y, x1, cfg.rel_tol, cfg.abs_tol)
    for i, stage_c in ((0, _stepper._C[5]), (1, _stepper._C[9])):
        assert isinstance(lanes[i], IntegrationError) and lanes[i].reached == x0[i]
        r = np.exp(x0[i] + stage_c * h[i])
        assert str(lanes[i]) == f"weight 'polyexp:-1.2;d=0' nonpositive at r={r}"
        assert str(lanes[i]) == str(reference[i]) and lanes[i].reached == reference[i].reached
    for i in (2, 3):
        assert lanes[i].xs[-1] == x1[i] and lanes[i].attempts == reference[i].attempts
        assert np.array_equal(lanes[i].xs, reference[i].xs)
        assert np.array_equal(lanes[i].ys, reference[i].ys)


# -------------------------------------------------------------- the march

# The march over N=3, a_h at h=40, [-5, 40] by at most 0.25, recorded
# before lanes: it halves to 0.125 from beta = -4.75 to -2.75 and its
# folds are these
FOLDS_N3_H40 = [(-3.424901156044752, "Max"), (1.8506733692003423, "Min"),
                (6.637747369461793, "Max"), (11.320917729059293, "Min"),
                (16.09156799003401, "Max"), (20.83484879497042, "Min"),
                (25.586436400443258, "Max"), (30.335485024405653, "Min"),
                (35.08530759798302, "Max")]


def test_the_march_samples_the_recorded_betas(marches):
    curve = marches[3, "ah:h=40"]
    recorded = ([-5.0, -4.75] + [-4.75 + 0.125 * k for k in range(1, 17)]
                + [-2.75 + 0.25 * k for k in range(1, 172)])
    assert curve.betas.tolist() == recorded
    assert [tp.kind for tp in curve.turning_points] == [kind for _, kind in FOLDS_N3_H40]
    assert [tp.beta for tp in curve.turning_points] == pytest.approx(
        [beta for beta, _ in FOLDS_N3_H40], abs=1e-9)


# (sha256 of the sample betas, folds) of the other two marches over
# [-5, 40] by at most 0.25, recorded with the depth-first march that
# halved its step at a rejected candidate: both keep the grid
RECORDED_MARCHES = {
    (10, "ah:h=40"): ("7a567a87e9f8194a3a34b040385b8852ea47776af143955860c863cb451426f6",
                      [(3.4192156518161774, "Max"), (10.37940393613213, "Min")]),
    (9, "polyexp:0.7,-0.2;d=0.3"): (
        "7a567a87e9f8194a3a34b040385b8852ea47776af143955860c863cb451426f6",
        [(6.5854997733892535, "Max"), (11.386765354824597, "Min")]),
}


@pytest.mark.parametrize("case", sorted(RECORDED_MARCHES))
def test_the_march_samples_the_recorded_betas_of_each_case(marches, case):
    digest, folds = RECORDED_MARCHES[case]
    curve = marches[case]
    assert hashlib.sha256(curve.betas.tobytes()).hexdigest() == digest
    assert [tp.kind for tp in curve.turning_points] == [kind for _, kind in folds]
    assert [tp.beta for tp in curve.turning_points] == pytest.approx(
        [beta for beta, _ in folds], abs=1e-9)


@pytest.mark.parametrize("dim", [3, 6])
def test_a_coarse_march_samples_every_beta_it_shoots(monkeypatch, marches, dim):
    # at max_step 1 intervals at beta > 0 miss the tangent and are
    # bisected: every beta the march shoots is a sample, the grid and each
    # round of midpoints run as one trace_lanes call of lane batches, and
    # the folds are those of the march by 0.25 to BETA_TOL
    cfg = _cfg(dim, "ah:h=40")
    fine = marches[3, "ah:h=40"] if dim == 3 else trace_curve(cfg, -5.0, 40.0, 0.25)
    rounds, batches = [], _batch_sizes(monkeypatch)
    lanes = radial_ode.trace_lanes
    monkeypatch.setattr(bif, "trace_lanes", lambda cfg, betas: (rounds.append(betas),
                                                                lanes(cfg, betas))[1])
    curve = trace_curve(cfg, -5.0, 40.0, 1.0)
    shot = [beta for betas in rounds for beta in betas]
    assert rounds[0][0] == -5.0 and sorted(shot) == curve.betas.tolist()
    assert len(rounds) >= 3 and any(beta > 0.0 for betas in rounds[1:] for beta in betas)
    assert 2 <= len(batches) <= len(rounds)
    assert [tp.kind for tp in curve.turning_points] == [tp.kind for tp in fine.turning_points]
    assert [tp.beta for tp in curve.turning_points] == pytest.approx(
        [tp.beta for tp in fine.turning_points], abs=bif.BETA_TOL)


def test_a_long_window_runs_lane_batches_of_at_most_256(monkeypatch):
    # 321 grid betas, and --max-step is user input: trace_lanes splits the
    # march's grid into batches of at most _LANE_BATCH lanes, and a shoot
    # does not depend on its batch (here the grid without beta_min)
    batches = _batch_sizes(monkeypatch)
    cfg = _cfg(10, "ah:h=40")
    curve = trace_curve(cfg, 20.0, 40.0, 0.0625)
    assert curve.complete and len(curve.samples) == 321
    assert radial_ode._LANE_BATCH == 256
    assert batches == [256, 65]
    batches.clear()
    shots = radial_ode.trace_lanes(cfg, curve.betas[1:].tolist())
    assert batches == [256, 64]
    assert [shot.v1 for shot in shots] == [sample.v1 for sample in curve.samples[1:]]


def _failed_marches(monkeypatch, case, budget):
    """The march of `case` on [-5, 40] by 0.25 under a step budget, in
    lanes and with every shoot on `solve`."""
    monkeypatch.setattr(_stepper, "_MAX_STEPS", budget)
    cfg = _cfg(*case)
    curve = trace_curve(cfg, -5.0, 40.0, 0.25)
    monkeypatch.setattr(bif, "trace_lanes", _scalar_lanes)
    return curve, trace_curve(cfg, -5.0, 40.0, 0.25)


def test_a_failed_lane_ends_the_march_at_its_beta(monkeypatch):
    # with a step budget that the log-r phases beyond some beta exceed, the
    # march ends below the lowest such beta, keeps the samples before it
    # and reports what a march with every shoot on `solve` reports
    curve, scalar = _failed_marches(monkeypatch, (10, "ah:h=40"), 80)
    assert not curve.complete and curve.diagnostic == scalar.diagnostic
    assert curve.diagnostic.startswith("integration failed at beta=")
    assert curve.diagnostic.endswith("step budget exhausted")
    assert curve.betas.tolist() == scalar.betas.tolist()
    assert 0.0 < curve.betas[-1] < 40.0


def test_a_failed_lane_at_negative_beta_ends_the_march_there(monkeypatch):
    # at N=3, a_40 the log-r phases take 29 attempts at beta = -5 and 33
    # at beta = -1: a budget of 31 fails the lanes of 33, and the march
    # ends below the lowest of them as one on `solve` does
    curve, scalar = _failed_marches(monkeypatch, (3, "ah:h=40"), 31)
    assert not curve.complete and curve.diagnostic == scalar.diagnostic
    assert curve.diagnostic == "integration failed at beta=-1: step budget exhausted"
    assert curve.betas.tolist() == scalar.betas.tolist() and curve.betas[-1] == -1.25


def test_a_failed_lane_at_beta_min_raises_it(monkeypatch):
    # a weighted march with no sample to keep raises the lane's own error
    monkeypatch.setattr(_stepper, "_MAX_STEPS", 31)
    cfg = _cfg(3, "ah:h=40")
    alone, = radial_ode.trace_lanes(cfg, [-1.0])
    assert isinstance(alone, IntegrationError)
    with pytest.raises(IntegrationError, match="step budget exhausted") as got:
        trace_curve(cfg, -1.0, 1.0, 0.25)
    assert got.value.reached == alone.reached


def _sample(shot):
    return shot.beta, shot.lam, shot.alpha, shot.v1, shot.dlambda_dbeta


@pytest.mark.parametrize("case", [*LANE_CASES, (3, "const"), (10, "ah:h=0")])
def test_every_march_sample_is_the_shoot_of_its_beta(marches, case):
    # in one process, so on any numpy build: a weighted march's samples
    # are, bit for bit, trace_lanes' shoots of their betas in one batch,
    # and a constant (or a_0) march's those of integrate_ivp one by one
    cfg = _cfg(*case)
    curve = marches[case] if case in marches else trace_curve(cfg, -5.0, 40.0, 0.25)
    betas = curve.betas.tolist()
    if case in LANE_CASES:
        shots = radial_ode.trace_lanes(cfg, betas)
    else:
        shots = [integrate_ivp(cfg, beta, trace=True) for beta in betas]
    assert [_sample(shot) for shot in shots] == [_sample(sample) for sample in curve.samples]


@pytest.mark.parametrize("case", [(3, "const"), (10, "ah:h=0")])
def test_a_constant_march_builds_no_lanes(monkeypatch, case):
    # its shoots run on integrate_ivp: no batched series and no lane batch,
    # not even an empty one
    calls = []
    monkeypatch.setattr(radial_ode._Series, "lanes", lambda *args: calls.append("series"))
    monkeypatch.setattr(_stepper, "solve_lanes", lambda *args: calls.append("lanes"))
    curve = trace_curve(_cfg(*case), -5.0, 40.0, 0.25)
    assert curve.complete and calls == []


# (v(1), dlambda/dbeta, sha256 of the rows (r, v, v', e, e'), rows) of
# trace shoots recorded before the lane batch existed, with glibc's libm
# on x86-64 (another libm may round exp apart): integrate_ivp's scalar
# path must not move by a bit
SCALAR_SHOOTS = {
    (10, "ah:h=40", 3.0): ("0x1.93e3c8ef9e4fap-1", "0x1.f18f09fed1759p-5",
                           "65a116dbece073a273dcbabd4b74ef820f18a80c2bd8217814154ecc5b794ae9", 85),
    (10, "ah:h=40", 40.0): ("0x1.8b90bfbe8e32cp-1", "0x1.933bea742579bp-102",
                            "121456058db4e1c25e64cce07159f9b23203c6fd081a9e696a5c955515c49f48", 78),
    # recorded once the shoot stepped in log r from its series' radius
    (3, "ah:h=40", -2.0): ("-0x1.4ff712198881bp+2", "-0x1.13912992537acp-9",
                           "3fa2824f5200f16856d0177f757326c4f27afab2219d9fb5e72a957e1cdc891f", 92),
    (3, "ah:h=40", 17.3): ("-0x1.7de66ea016aaap+2", "-0x1.332b7beaaba35p-17",
                           "7220ab839ba737524e65703ce557167f63a6b95ddc860b9236836ebb535715aa", 73),
    (9, "polyexp:0.7,-0.2;d=0.3", 0.5): (
        "0x1.8189c15728ff4p-2", "0x1.49311d5b885a0p+0",
        "46846770d421eb8db71ea1467f89b7617527dd18c4a0057baad7209270eca6a3", 72),
    (9, "polyexp:0.7,-0.2;d=0.3", 40.0): (
        "0x1.2187fa6225a17p+1", "0x1.3eae1af5647c7p-94",
        "3558fac40f234dee4018164e9f2825100f705ef9418723bc0899a28925c0a71f", 51),
    # recorded while every trace shoot built its profiles at once
    (3, "const", 7.5): ("0x1.060e5f9155232p-1", "0x1.0c640180d6bd4p-5",
                        "d0c853a96b71d3927095dad28cdeca879101e30b5be3e4f2c8d5741ef056b247", 73),
    # the rows re-recorded once const took the flat series (sigma = e^beta)
    # at beta <= 0 too: v(1), dlambda/dbeta and the 67 radii kept their
    # bits, and 46 of the 335 cells moved, in v' and e' only, by at most
    # 3.7e-16 relative (`test_flat_series_at_negative_beta_are_the_recurrence`)
    (10, "const", -3.0): ("-0x1.80517c941af15p+1", "0x1.95d4fdfde2d7dp-5",
                          "acf7ce34797512846b9182b5bd7de73f44bb118f45da23cdb127c69d8b8e14c6", 67),
}


# the pins whose bits depend on numpy's SIMD kernels: they read np.exp,
# np.expm1, np.log or np.power (np.geomspace among them), whose AVX-512 and
# AVX2 kernels round apart, so CI's run with AVX-512 off deselects them by
# this marker; every other pin runs there too
simd_pinned = pytest.mark.simd_pinned


def _pins(keys, portable=()):
    """The pinned `keys` as parameters, all but the `portable` ones marked
    simd_pinned."""
    return [key if key in portable else pytest.param(key, marks=simd_pinned) for key in keys]


def _recorded(shot):
    rows = np.column_stack((shot.profile.radii, shot.profile.values, shot.profile.derivs,
                            shot.variation_profile.values, shot.variation_profile.derivs))
    return (shot.v1.hex(), shot.dlambda_dbeta.hex(), hashlib.sha256(rows.tobytes()).hexdigest(),
            len(rows))


@pytest.mark.parametrize("key", _pins(sorted(SCALAR_SHOOTS),
                                      portable={(9, "polyexp:0.7,-0.2;d=0.3", 40.0),
                                                (10, "ah:h=40", 40.0)}))
def test_a_trace_shoot_outside_a_march_is_the_recorded_one(key):
    dim, spec, beta = key
    assert _recorded(integrate_ivp(_cfg(dim, spec), beta, trace=True)) == SCALAR_SHOOTS[key]


@pytest.mark.parametrize("key", _pins([key for key in sorted(SCALAR_SHOOTS) if key[1] == "const"]))
def test_a_march_sample_builds_the_recorded_profiles_when_read(key):
    # a march builds no profile of its samples; one read after the march
    # is the profile that a shoot which built it at once recorded
    dim, spec, beta = key
    curve = trace_curve(_cfg(dim, spec), -5.0, 40.0, 0.25)
    shot, = (sample for sample in curve.samples if sample.beta == beta)
    assert "profile" not in vars(shot)
    assert _recorded(shot) == SCALAR_SHOOTS[key]


# sha256 of every sample's (beta, lambda, alpha, v(1), dlambda/dbeta) and
# of every fold's (beta, lambda, alpha, kind), as float.hex(), one line
# each, of three marches over [-5, 40] by at most 0.25, recorded while
# every trace shoot built its series one beta at a time and its profiles
# at once (glibc's libm on x86-64)
PINNED_MARCHES = {
    (3, "const"): ("33b76ea3bc05ebcc0c6b0b25661ee95a2a1434cd0cd8225de73c257520887817",
                   "f280cbbb152cd18a60e00b81ee85d0eb90094407d4c9394e65573085f07becf5", 188, 8),
    (10, "ah:h=0"): ("e0fb5b100687272fff5f3c32076ba27b2d802c5d5d6d5e8c63445f2cca9d313f",
                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 181, 0),
    # samples recorded once the march shot every weighted beta in lanes,
    # beta <= 0 too: of the 21 samples at beta <= 0, which were shot on
    # `solve`, 16 moved in v(1), by at most 8.8e-16 relative, and 18 in
    # dlambda/dbeta, by at most 2.1e-15; the folds are those recorded before
    (10, "ah:h=40"): ("1aeb8426868faac0ace6ca2540ec926e0fb79278f50c5b87b10d0fb908813a09",
                      "a76eb18745077d1d442b1135ea549fde3f706202ab4a0d017e701e64eebaf118", 181, 2),
}

# sha256 of `gelfand trace --dim 10 --weight ah:h=40 --beta-min -5
# --beta-max 40 --out curve.csv --svg curve.svg`'s two files, recorded so
# (the CSV once the march shot every weighted beta in lanes, which moved
# the rows at beta <= 0 in their last digits)
PINNED_TRACE_FILES = {
    "curve.csv": "24227e74124d588cd8cb9e21c6425519294c25e59cf7621e7f7d4fdf326bf192",
    "curve.svg": "76992d3c9d6d86d906fcc17850cdf18bed333b77682f1f34aaabe1d525c3a4b0",
}


def _march_digests(curve):
    samples, folds = hashlib.sha256(), hashlib.sha256()
    for s in curve.samples:
        samples.update(" ".join(x.hex() for x in (s.beta, s.lam, s.alpha, s.v1, s.dlambda_dbeta))
                       .encode() + b"\n")
    for tp in curve.turning_points:
        folds.update(" ".join((tp.beta.hex(), tp.lam.hex(), tp.alpha.hex(), tp.kind)).encode()
                     + b"\n")
    return samples.hexdigest(), folds.hexdigest(), len(curve.samples), len(curve.turning_points)


@pytest.mark.parametrize("case", _pins(sorted(PINNED_MARCHES),
                                       portable={(3, "const"), (10, "ah:h=0")}))
def test_the_march_is_the_pinned_one(case):
    curve = trace_curve(_cfg(*case), -5.0, 40.0, 0.25)
    assert _march_digests(curve) == PINNED_MARCHES[case]


@simd_pinned
def test_the_trace_files_are_the_pinned_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["trace", "--dim", "10", "--weight", "ah:h=40", "--beta-min", "-5",
                     "--beta-max", "40", "--out", "curve.csv", "--svg", "curve.svg"]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_TRACE_FILES} == PINNED_TRACE_FILES


@pytest.mark.parametrize("dim, spec", [(3, "ah:h=40"), (10, "ah:h=40"), (12, "ah:h=40"),
                                       (6, "polyexp:0.7,-0.2;d=0.3"),
                                       (9, "polyexp:0.7,-0.2;d=0.3")])
def test_a_lane_batch_builds_its_starts_in_one_evaluation(monkeypatch, dim, spec):
    # one power sum over every lane gives each start state bit for bit as
    # the series of its beta alone builds it on first read
    cfg = _cfg(dim, spec)
    betas = np.linspace(-40.0, 60.0, 401).tolist()
    calls, sums = [], radial_ode._power_sums
    monkeypatch.setattr(radial_ode, "_power_sums",
                        lambda tau, terms: (calls.append(len(tau)), sums(tau, terms))[1])
    lanes = radial_ode._Series.lanes(cfg, betas)
    starts = [lane.start for lane in lanes]
    assert calls == [len(betas)]
    assert starts == [radial_ode._Series(cfg, beta).start for beta in betas]
    assert calls == [len(betas)] + [1] * len(betas)


@pytest.mark.parametrize("dim, spec", [(3, "const"), (3, "ah:h=40"), (10, "const"),
                                       (10, "ah:h=40"), (9, "polyexp:0.7,-0.2;d=0.3")])
def test_batched_series_are_the_scalar_ones(dim, spec):
    # one recurrence on arrays, an entry per beta, gives each beta's terms,
    # radius and start state bit for bit, the signs of zeros included
    cfg = _cfg(dim, spec)
    betas = [-40.0, -5.0, -0.25, 0.0, 0.25, 5.0, 20.0, 40.0]
    for beta, lane in zip(betas, radial_ode._Series.lanes(cfg, betas)):
        alone = radial_ode._Series(cfg, beta)
        assert lane.terms.tobytes() == alone.terms.tobytes(), beta
        assert (lane.r0, lane.start, lane.flat) == (alone.r0, alone.start, alone.flat), beta
