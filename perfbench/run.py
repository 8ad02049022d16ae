"""Benchmark for the gelfand package: one workload, one process, one thread.

    python3 perfbench/run.py --workload {branch,spectral,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else. The seed decides every input
(``workloads.make_inputs``); the package receives only those inputs.

``--trace 0`` sets up the workload several times in fresh processes
(``setup_s``, the median), then runs passes over the task list while the
next pass is predicted to end within ``--seconds`` (always at least one),
and reports the end-to-end metrics. Their times are reference seconds
(``clock.SpeedClock``): measured seconds scaled by the speed of a fixed
calibration kernel sampled through the run, so that a shared host's drifting
speed does not swing them; the raw seconds are printed and stored beside
them. ``--trace 1`` runs one untraced pass and one traced pass
(``tracing.Tracer``) and reports the per-layer metrics, times in raw
seconds, with ``trace.overhead_ratio`` the traced pass over the untraced one
in reference seconds; the share of each layer in the traced time is stored
with the result (``predict.py`` turns those shares into predictions.json).
Every task is checked against its reference; a task that fails its check or
raises counts as failed and is not retried.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the inputs, the environment and every task latency, is written to
``perfbench/out/``, and the spans of a traced pass beside it.

The tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

# One thread: pin the BLAS/OpenMP pools before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GELFAND_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import workloads  # noqa: E402
from clock import REF_KERNEL_S, SpeedClock, kernel_seconds  # noqa: E402
from tracing import (LAYER_METRICS, LAYERS, TraceInvariantError, Tracer,  # noqa: E402
                     layer_metrics, layer_seconds)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9  # fresh processes timed per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile has at least this many tasks beyond it
ERR_FLOOR = 1e-17  # an exact match counts as 17 digits

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "err_digits": "digits",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import gelfand from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "gelfand", "__init__.py")):
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import gelfand
    import gelfand.cli  # noqa: F401  (the verify workload calls gelfand.cli.main)

    if not os.path.abspath(gelfand.__file__).startswith(SRC + os.sep):
        raise BenchError(f"gelfand imported from {gelfand.__file__}, not {SRC}")
    return gelfand


def setup(workload: str, seed: int):
    """Everything before the first task: import, inputs, lazy caches."""
    G = import_package()  # first, so a checkout without the package fails fast
    inputs = workloads.make_inputs(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    tasks = workloads.build_tasks(inputs, G, workdir)
    G.hardy_constant()  # fills the j0_zero / hardy_constant caches
    return G, inputs, tasks, workdir


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, reference) seconds from spawning a fresh process to its first
    task being ready. The probe reports when it is ready (perf_counter is
    system-wide) and how long the speed kernel then takes in it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        ready, kernel_s = map(float, probe.stdout.split())
        out.append((ready - t0, (ready - t0) * REF_KERNEL_S / kernel_s))
    return out


@dataclass
class PassResult:
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    spans: list = field(default_factory=list)  # (start, end) of each task
    failures: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_pass(tasks) -> PassResult:
    """Run every task once; a failure is recorded and the pass goes on."""
    res = PassResult()
    c0 = process_time()
    res.start = perf_counter()
    for task in tasks:
        t0 = perf_counter()
        try:
            out = task.run()
        except TraceInvariantError:
            raise
        except (Exception, SystemExit) as exc:  # a task that raises is a failed task
            res.spans.append((t0, perf_counter()))
            res.failures.append((task.name, f"raised {exc!r}"))
            continue
        res.spans.append((t0, perf_counter()))
        try:
            errs = task.check(out)
        except workloads.CheckFailed as exc:
            res.failures.append((task.name, str(exc)))
            errs = {}
        out = None  # free the result before the next task, so peak RSS is per task
        for quantity, err in errs.items():
            res.errors[f"{task.name}:{quantity}"] = float(err)
    res.end, res.cpu = perf_counter(), process_time() - c0
    return res


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    values beyond it, or the maximum when there are too few values."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def task_groups(latencies: list[float]) -> dict[str, list[int]]:
    """Indices of all tasks, of the middle fifth by latency (at least one),
    whose layers set task_p50_s, and of the tasks at or above the tail
    percentile, whose layers set task_tail_s."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n, k = len(order), max(1, len(order) // 5)
    return {"pass": order, "p50": order[(n - k) // 2:(n - k) // 2 + k],
            "tail": order[-(TAIL_BEYOND + 1):] if n > TAIL_BEYOND else order[-1:]}


def layer_shares(tracer: Tracer, untraced: PassResult, traced: PassResult) -> dict:
    """Share of each task group's traced time spent inside each layer's
    calls; the groups are ranked by the untraced pass's latencies."""
    shares = {}
    for group, idx in task_groups([b - a for a, b in untraced.spans]).items():
        windows = sorted(traced.spans[i] for i in idx)
        seconds = layer_seconds(tracer, windows)
        total = sum(b - a for a, b in windows)
        shares[group] = {name: seconds[name] / total for name in LAYERS}
    return shares


def worst_errors(passes: list[PassResult]) -> dict:
    """Largest relative error of each checked quantity over the passes."""
    worst = {}
    for p in passes:
        for q, e in p.errors.items():
            worst[q] = max(worst.get(q, 0.0), e)
    return worst


def end_to_end(passes: list[PassResult], setup: list[tuple[float, float]], clock):
    """(metrics, raw): times in reference seconds, and the same times raw."""
    walls = [clock.convert(p.start, p.end) for p in passes]  # (raw, reference)
    # the speed kernels' CPU time is taken out as their wall time is out of walls
    cpu_raw = [p.cpu - clock.kernel_cpu(p.start, p.end) for p in passes]
    cpus = [(c, c * ref / raw) for c, (raw, ref) in zip(cpu_raw, walls)]
    runs = [[clock.convert(a, b) for a, b in p.spans] for p in passes]
    per_task = [(statistics.median(r for r, _ in t), statistics.median(f for _, f in t))
                for t in zip(*runs)]
    median = statistics.median
    metrics, raw = {}, {}
    for name, pairs, stat in (("setup_s", setup, median), ("wall_s", walls, median),
                              ("cpu_s", cpus, median), ("task_p50_s", per_task, median),
                              ("task_tail_s", per_task, lambda v: tail(v)[0])):
        metrics[name] = stat([f for _, f in pairs])
        raw[name] = stat([r for r, _ in pairs])
    worst = worst_errors(passes)
    metrics["err_digits"] = min(-math.log10(max(e, ERR_FLOOR)) for e in worst.values())
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, raw


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload and exit (timed by the parent run)")
    args = ap.parse_args(argv)

    G, inputs, tasks, workdir = setup(args.workload, args.seed)
    if args.setup_probe:
        ready = perf_counter()
        shutil.rmtree(workdir)
        print(ready, kernel_seconds())
        return 0
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    clock = SpeedClock()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw, shares = {}, {}
    try:
        if args.trace:
            tracer = Tracer(G)
            # the speed samples (about 1% of the time) fall inside the spans
            with clock:
                passes = [run_pass(tasks)]
                with tracer:
                    passes.append(run_pass(tasks))
            metrics = layer_metrics(tracer)
            untraced, traced = (clock.convert(p.start, p.end)[1] for p in passes)
            metrics["trace.overhead_ratio"] = traced / untraced
            shares = layer_shares(tracer, *passes)
            units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
            tracer.write(os.path.join(OUT, f"spans-{tag}.npz"))
        else:
            with clock:
                passes = [run_pass(tasks)]
                while passes[-1].end - passes[0].start + passes[-1].wall <= args.seconds:
                    passes.append(run_pass(tasks))
            metrics, raw = end_to_end(passes, setup_times, clock)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.spans) for p in passes)
    env = environment(args.seed)
    report = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "inputs": inputs, "inputs_sha256": workloads.inputs_digest(inputs),
        "task_names": [t.name for t in tasks], "setup_s": setup_times,
        "passes": [{"start": p.start, "end": p.end, "cpu_s": p.cpu, "task_spans": p.spans}
                   for p in passes],
        "errors": worst_errors(passes), "speed_samples": clock.samples,
        "failures": failures,
        "metrics": metrics, "raw_metrics": raw, "layer_shares": shares,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} inputs={report['inputs_sha256'][:16]} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# {len(passes)} pass(es) of {len(tasks)} tasks, {len(failures)} of "
          f"{attempted} attempts failed")
    if not args.trace:
        _, pct = tail(passes[0].spans)
        print(f"# task_tail_s is the p{pct:.1f} of {len(tasks)} task latencies; "
              f"times in reference seconds, raw seconds in the last column")
    for group, share in shares.items():
        print(f"# layer shares of {group} time: "
              + " ".join(f"{name}={v:.3f}" for name, v in share.items()))
    for name, msg in failures:
        print(f"# FAILED {name}: {msg}")
    # failed_frac is carried by `failed` / `attempted` in the result line
    print(f"{args.workload:9s} {'failed_frac':34s} {len(failures) / attempted!r:>24} ratio")
    for name, value in metrics.items():
        extra = f"  (raw {raw[name]!r})" if name in raw else ""
        print(f"{args.workload:9s} {name:34s} {value!r:>24} {units[name]}{extra}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
