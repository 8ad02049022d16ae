"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests"""

import json
import os
import sys

import numpy as np
import pytest

import clock
import gelfand
import gelfand.cli  # noqa: F401
import predict
import run
import tracing
import workloads
from workloads import CheckFailed, Task

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_covered_child_intervals():
    # 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping, union
    # [1, 6]) and 3: [8, 9]; 4: [2, 3] is a grandchild under 1.
    parent = np.array([-1, 0, 0, 0, 1])
    start = np.array([0.0, 1.0, 3.0, 8.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 9.0, 3.0])
    got = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(got, [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 1.0])


def test_layer_seconds_count_callees_once_per_layer():
    # radial_ode [0, 10] > stepper.solve [1, 9] > radial_ode [2, 3] > stepper [2.5, 2.7];
    # cli [20, 21] lies in a second window
    tr = tracing.Tracer(gelfand)
    for name, parent, lo, hi in (("radial_ode.integrate_ivp", -1, 0.0, 10.0),
                                 ("stepper.solve", 0, 1.0, 9.0),
                                 ("radial_ode.evaluate_array", 1, 2.0, 3.0),
                                 ("stepper.solve", 2, 2.5, 2.7),
                                 ("cli.main", -1, 20.0, 21.0)):
        tr.nid.append(tr._id(name))
        tr.parent.append(parent)
        tr.start.append(lo)
        tr.end.append(hi)
    got = tracing.layer_seconds(tr, [(0.0, 10.0)])
    assert got == dict.fromkeys(tracing.LAYERS, 0.0) | {"stepper": 8.0, "radial_ode": 10.0}
    assert tracing.layer_seconds(tr, [(0.0, 10.0), (20.0, 21.0)])["cli"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = workloads.inputs_bytes(workloads.make_inputs(workload, 7))
    b = workloads.inputs_bytes(workloads.make_inputs(workload, 7))
    c = workloads.inputs_bytes(workloads.make_inputs(workload, 8))
    assert a == b
    assert a != c


def test_failed_tasks_are_counted_and_the_pass_goes_on():
    def boom():
        raise ValueError("injected")

    def reject(_):
        raise CheckFailed("injected")

    tasks = [Task("ok", lambda: 1, lambda r: {"q": 1e-9}),
             Task("raises", boom, lambda r: {}),
             Task("wrong", lambda: 2, reject),
             Task("exits", lambda: sys.exit(2), lambda r: {}),
             Task("ok2", lambda: 3, lambda r: {})]
    res = run.run_pass(tasks)
    assert len(res.spans) == 5
    assert [name for name, _ in res.failures] == ["raises", "wrong", "exits"]
    assert res.errors == {"ok:q": 1e-9}


def test_a_cli_usage_error_is_a_failed_verify_task(tmp_path, capsys):
    inputs = {"commands": [["verify", "flux", "--dim", "3", "--weight", "nonsense",
                            "--beta", "1.0"]], "rerun": []}
    res = run.run_pass(workloads._verify_tasks(inputs, gelfand, str(tmp_path)))
    assert res.failures == [("cmd000_verify_flux",
                             "verify flux --dim 3 --weight nonsense --beta 1.0: exit code 2")]


def test_input_literals_are_the_reference_bessel_zeros():
    from scipy.special import jn_zeros

    assert workloads.J0_FIRST == tuple(jn_zeros(0, 3))


def test_reference_seconds_follow_the_sampled_speed():
    # kernels every 0.1 s: twice the reference duration before t = 5, equal after
    # and one preempted sample at t = 5.5 that the outlier guard replaces
    ck = clock.SpeedClock()
    ck.samples = [(0.1 * i, 0.1 * i + (2.0 if i < 50 else 1.0) * clock.REF_KERNEL_S, 1e-4)
                  for i in range(100)]
    raw, ref = ck.convert(4.0, 6.0)
    assert ck.kernel_cpu(4.0, 6.0) == pytest.approx(20 * 1e-4)
    ck.samples[55] = (5.5, 5.5 + 10.0 * clock.REF_KERNEL_S, 1e-4)
    assert ck.convert(4.0, 6.0)[1] == pytest.approx(ref - 9.0 * clock.REF_KERNEL_S)
    kernels = 10 * 2.0 * clock.REF_KERNEL_S + 10 * clock.REF_KERNEL_S
    assert raw == pytest.approx(2.0 - kernels)
    # each moment takes the speed of the nearest sample: the switch sits
    # halfway between the midpoints of the last slow and first fast kernel
    switch = 0.5 * ((4.9 + clock.REF_KERNEL_S) + (5.0 + 0.5 * clock.REF_KERNEL_S))
    expected = 0.5 * (switch - 4.0) + 1.0 * (6.0 - switch) - 20 * clock.REF_KERNEL_S
    assert ref == pytest.approx(expected)


def test_tail_has_ten_values_beyond_it():
    assert run.tail(list(range(5))) == (4, 100.0)
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def _holders():
    return [(gelfand, "integrate_ivp"), (gelfand.radial_ode, "integrate_ivp"),
            (gelfand.bifurcation, "integrate_ivp"), (gelfand.cli, "integrate_ivp"),
            (gelfand._stepper, "solve"), (gelfand.spectral, "hardy_constant"),
            (gelfand.radial_ode.RadialProfile, "evaluate_array"), (gelfand.cli, "main")]


def test_tracer_patches_every_holder_and_restores_the_originals():
    originals = [getattr(obj, attr) for obj, attr in _holders()]
    tr = tracing.Tracer(gelfand)
    with tr:
        for (obj, attr), orig in zip(_holders(), originals):
            assert getattr(obj, attr) is not orig, attr
        cfg = gelfand.ProblemConfig(dim=3, weight=gelfand.parse_weight("const"))
        gelfand.bifurcation.trace_curve(cfg, -1.0, -0.5, 0.25)
    for (obj, attr), orig in zip(_holders(), originals):
        assert getattr(obj, attr) is orig, attr
    m = tracing.layer_metrics(tr)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["bifurcation.traces"] == 1
    assert m["radial_ode.shoots"] == m["bifurcation.march_shoots"] >= m["bifurcation.samples"] > 0
    assert m["stepper.rhs_evals"] == m["stepper.calls"] + 6 * m["stepper.attempts"]


def test_changed_tableau_fails_loudly():
    def fake_solve(fun, x0, y0, nodes, rtol, atol, first_step=None, collect=False):
        for _ in range(3):
            fun(x0, y0)
        return [y0]

    wrapped = tracing.Tracer(gelfand)._wrap_solve(fake_solve)
    with pytest.raises(tracing.TraceInvariantError):
        wrapped(lambda x, y: y, 0.0, [1.0], [1.0], 1e-8, 1e-8)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layer = dict(tracing.LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer
    with open(os.path.join(ROOT, "perfbench", "predictions.json"), encoding="utf-8") as fh:
        table = json.load(fh)["layers"]
    assert list(table) == list(tracing.LAYERS)
    assert sorted(m for row in table.values() for m in row["metrics"]) == sorted(
        tracing.LAYER_METRICS)
    for layer, row in table.items():
        assert predict.rule(row["share"]) == (row["moves"], row["unchanged_on"]), layer
