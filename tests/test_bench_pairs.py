"""scripts/bench_pairs.py on synthetic benchmark result files."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "err_digits", "unit": "digits", "better": "higher", "bound": 0.2},
], "per_layer": [
    {"name": "stepper.rhs_evals", "unit": "count", "better": "lower"},
    {"name": "bifurcation.accept_ratio", "unit": "ratio", "better": "higher"},
]}


def _result(path, seed, wall, digits, failures=()):
    path.write_text(json.dumps({
        "workload": "branch", "trace": 0, "environment": {"seed": seed, "nproc": 2},
        "failures": list(failures), "metrics": {"wall_s": wall, "err_digits": digits},
    }))
    return str(path)


def test_pairs_by_seed_and_summarises(tmp_path, bench_pairs, capsys):
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    parent = [_result(tmp_path / "p" / f"{s}.json", s, w, 13.0)
              for s, w in ((1, 28.0), (2, 30.0), (3, 27.0), (4, 29.0))]
    # the change's files come in another order; seed 4 is a loss
    change = [_result(tmp_path / "c" / f"{s}.json", s, w, d, f)
              for s, w, d, f in ((3, 20.0, 13.0, ()), (1, 19.0, 13.0, ()),
                                 (4, 31.0, 12.5, ("x",)), (2, 21.0, 13.0, ()))]
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--out", str(out), "--benchmark", str(bench)]) == 0
    written = json.loads(out.read_text())
    assert written["environment"] == {"nproc": 2}
    entry = written["workloads"]["branch"]
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["failed"] == {"parent": 0, "change": 1}
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [28.0, 30.0, 27.0, 29.0]
    assert wall["change"]["values"] == [19.0, 21.0, 20.0, 31.0]
    assert (wall["won"], wall["lost"], wall["tied"]) == (3, 1, 0)
    assert wall["parent"]["median"] == 28.5
    assert wall["parent"]["q1"] == 27.75 and wall["parent"]["q3"] == 29.25
    assert wall["parent"]["iqr"] == 1.5
    digits = entry["metrics"]["err_digits"]
    assert digits["better"] == "higher"
    assert (digits["won"], digits["lost"], digits["tied"]) == (0, 1, 3)
    # the medians, 28.5 -> 20.5 and 13 -> 13, signed so that better is positive
    assert wall["gain"] == pytest.approx(8.0 / 28.5)
    assert digits["gain"] == 0.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("gain +28.1% (bound 20%)")
    assert lines[1].endswith("gain +0.0% (bound 20%)")
    assert lines[2] == "branch    failed tasks 0 -> 1  MORE FAILURES"


def _traced(path, seed, rhs_evals, ratio):
    path.write_text(json.dumps({
        "workload": "branch", "trace": 1, "environment": {"seed": seed, "nproc": 2},
        "failures": [], "metrics": {"stepper.rhs_evals": rhs_evals, "trace.overhead_ratio": 3.0,
                                    "bifurcation.accept_ratio": ratio},
    }))
    return str(path)


def test_traced_runs_pair_under_layers(tmp_path, bench_pairs, capsys):
    # a traced and an untraced run of one seed are two pairs; the traced
    # one gives each per-layer metric of the benchmark, side by side
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
    parent = [_result(tmp_path / "p" / "13.json", 13, 1.4, 14.7),
              _traced(tmp_path / "p" / "13t.json", 13, 965538, 0.9),
              _traced(tmp_path / "p" / "14t.json", 14, 965000, 0.8)]
    change = [_traced(tmp_path / "c" / "14t.json", 14, 600000, 0.8),
              _result(tmp_path / "c" / "13.json", 13, 1.0, 14.7),
              _traced(tmp_path / "c" / "13t.json", 13, 610000, 0.9)]
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--out", str(out), "--benchmark", str(bench)]) == 0
    written = json.loads(out.read_text())
    assert written["workloads"]["branch"]["seeds"] == [13]
    layers = written["layers"]["branch"]
    assert layers["seeds"] == [13, 14]
    assert set(layers["metrics"]) == {"stepper.rhs_evals", "bifurcation.accept_ratio"}
    assert layers["metrics"]["stepper.rhs_evals"] == {
        "unit": "count", "better": "lower", "parent": [965538, 965000], "change": [610000, 600000]}
    assert layers["metrics"]["bifurcation.accept_ratio"]["better"] == "higher"
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("branch    stepper.rhs_evals")
    assert lines[-2].endswith("965269 ->       605000  (-37.3%)")
    assert lines[-1].endswith("(+0.0%)")
    # untraced runs alone give no layers; a traced run needs a traced partner
    only = bench_pairs.compare(parent[:1], change[1:2], BENCHMARK)
    assert "layers" not in only
    with pytest.raises(ValueError, match="partner"):
        bench_pairs.compare(parent[:2], change[1:2], BENCHMARK)
    with pytest.raises(ValueError, match="second traced run"):
        bench_pairs.compare(parent[1:2] * 2, change[2:], BENCHMARK)


def test_gain_is_signed_by_the_better_direction(bench_pairs):
    assert bench_pairs._gain(10.0, 13.0, lower=True) == pytest.approx(-0.3)
    assert bench_pairs._gain(10.0, 13.0, lower=False) == pytest.approx(0.3)
    assert bench_pairs._gain(0.0, 1.0, lower=True) is None


def test_a_loss_beyond_the_bound_is_flagged(tmp_path, bench_pairs, capsys):
    parent = [_result(tmp_path / "p.json", 1, 10.0, 13.0)]
    change = [_result(tmp_path / "c.json", 1, 12.5, 12.0)]
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    bench_pairs.main(["--parent", *parent, "--change", *change,
                      "--out", str(tmp_path / "BENCH.json"), "--benchmark", str(bench)])
    wall, digits, failed = capsys.readouterr().out.splitlines()
    assert wall.endswith("gain -25.0% (bound 20%)  REGRESSION")
    assert digits.endswith("gain -7.7% (bound 20%)")
    assert failed == "branch    failed tasks 0 -> 0"


def test_fewer_failures_are_not_flagged(tmp_path, bench_pairs, capsys):
    parent = [_result(tmp_path / "p.json", 1, 10.0, 13.0, ("x", "y"))]
    change = [_result(tmp_path / "c.json", 1, 10.0, 13.0, ("x",))]
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    bench_pairs.main(["--parent", *parent, "--change", *change,
                      "--out", str(tmp_path / "BENCH.json"), "--benchmark", str(bench)])
    assert capsys.readouterr().out.splitlines()[-1] == "branch    failed tasks 2 -> 1"


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path, bench_pairs, capsys):
    # parent wall_s 10..40: IQR 15 > 0.2 * median 25; err_digits has no spread
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    walls = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
    (tmp_path / "p").mkdir()
    parent = [_result(tmp_path / "p" / f"{s}.json", s, w, 13.0) for s, w in walls.items()]
    for side, change_walls, resolved in (("overlap", (11.0, 19.0, 21.0, 29.0), False),
                                         ("beats", (5.0, 6.0, 7.0, 9.0), True)):
        (tmp_path / side).mkdir()
        change = [_result(tmp_path / side / f"{s}.json", s, w, 13.0)
                  for s, w in zip(walls, change_walls)]
        out = tmp_path / f"{side}.json"
        bench_pairs.main(["--parent", *parent, "--change", *change,
                          "--out", str(out), "--benchmark", str(bench)])
        metrics = json.loads(out.read_text())["workloads"]["branch"]["metrics"]
        assert metrics["wall_s"]["resolved"] is resolved
        assert metrics["err_digits"]["resolved"] is True
        wall, digits, _ = capsys.readouterr().out.splitlines()
        assert wall.endswith("UNRESOLVED") is not resolved
        assert not digits.endswith("UNRESOLVED")


def test_resolved_reads_the_better_direction(bench_pairs):
    wide = bench_pairs._summary([10.0, 20.0, 30.0, 40.0])
    above = bench_pairs._summary([41.0, 50.0, 60.0, 70.0])
    assert bench_pairs._resolved(wide, above, 0.2, lower=False)
    assert not bench_pairs._resolved(wide, above, 0.2, lower=True)
    assert bench_pairs._resolved(wide, above, 0.6, lower=True)


def test_unpaired_or_duplicate_runs_rejected(tmp_path, bench_pairs):
    a = _result(tmp_path / "a.json", 1, 28.0, 13.0)
    b = _result(tmp_path / "b.json", 2, 20.0, 13.0)
    with pytest.raises(ValueError, match="partner"):
        bench_pairs.compare([a], [b], BENCHMARK)
    with pytest.raises(ValueError, match="second run"):
        bench_pairs.compare([a, a], [a], BENCHMARK)
