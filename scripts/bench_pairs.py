"""Compare benchmark runs of a parent and of a change, pair by pair.

    python3 scripts/bench_pairs.py \
        --parent P/perfbench/out/result-branch-seed601-trace0.json ... \
        --change C/perfbench/out/result-branch-seed601-trace0.json ... \
        --out BENCH_<n>.json

Each input is a result file that ``perfbench/run.py`` writes, untraced
(``--trace 0``) or traced (``--trace 1``). A parent file and a change file
form a pair when they share workload, seed and tracing; every file must
have its partner.

For each workload of the untraced pairs and each end-to-end metric of
``BENCHMARK.json`` the output holds, per side, the values in pair order,
their median and quartiles, and how many pairs the change won, lost or
tied in the metric's ``better`` direction, and ``gain``: the relative
change of the median from parent to change, signed so that positive is
better (null where the parent's median is 0), and ``resolved``: false
where the parent's interquartile range exceeds the metric's bound times
the parent's median, so that the runs spread too widely to tell a change
within the bound from none, unless every run of the change is better than
every run of the parent. It also holds each side's count of failed tasks
per workload, and the host and library versions of the first parent run.
Quartiles are ``statistics.quantiles(n=4, method="inclusive")``. Each
printed metric line ends with the gain next to the metric's ``bound``,
with ``REGRESSION`` where the loss exceeds the bound and with
``UNRESOLVED`` where the metric is not resolved. One more line per
workload gives both sides' counts of failed tasks, flagged ``MORE
FAILURES`` where the change has more than the parent.

The traced pairs go under ``layers``: for each workload its seeds and,
for each ``per_layer`` metric of ``BENCHMARK.json``, its unit, its
``better`` direction and each side's values in seed order, so that a
change's gain can be traced to the layer it came from. One printed line
per workload and metric gives both medians and their relative change.
The script reads JSON files only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    """{(workload, seed, traced): result} for one side; a key may occur once."""
    runs = {}
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        key = (res["workload"], res["environment"]["seed"], bool(res.get("trace")))
        if key in runs:
            kind = "traced run" if key[2] else "run"
            raise ValueError(f"{path}: a second {kind} of {key[0]} seed {key[1]}")
        runs[key] = res
    return runs


def _summary(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"values": values, "q1": q1, "median": med, "q3": q3, "iqr": q3 - q1}


def _gain(before, after, lower):
    """Relative change from before to after, positive when it is better."""
    if before == 0:
        return None
    change = (after - before) / abs(before)
    return -change if lower else change


def _resolved(p_sum, c_sum, bound, lower):
    """Whether the parent's spread is within the bound, or every run of the
    change beats every run of the parent."""
    if p_sum["iqr"] <= bound * abs(p_sum["median"]):
        return True
    if lower:
        return max(c_sum["values"]) < min(p_sum["values"])
    return min(c_sum["values"]) > max(p_sum["values"])


def _layers(parent, change, benchmark):
    """{workload: seeds and per-layer values of each side} of the traced pairs."""
    out = {}
    for workload in sorted({w for w, _, traced in parent if traced}):
        seeds = sorted(s for w, s, traced in parent if traced and w == workload)
        pairs = [(parent[(workload, s, True)], change[(workload, s, True)]) for s in seeds]
        out[workload] = {"seeds": seeds, "metrics": {
            m["name"]: {"unit": m["unit"], "better": m["better"],
                        "parent": [p["metrics"][m["name"]] for p, _ in pairs],
                        "change": [c["metrics"][m["name"]] for _, c in pairs]}
            for m in benchmark["per_layer"]}}
    return out


def compare(parent_paths, change_paths, benchmark):
    """The comparison as a JSON-ready dict."""
    parent, change = _load(parent_paths), _load(change_paths)
    if parent.keys() != change.keys():
        alone = sorted(parent.keys() ^ change.keys())
        raise ValueError(f"runs without a partner (workload, seed, traced): {alone}")
    metrics = benchmark["end_to_end"]
    out = {}
    for workload in sorted({w for w, _, traced in parent if not traced}):
        seeds = sorted(s for w, s, traced in parent if not traced and w == workload)
        pairs = [(parent[(workload, s, False)], change[(workload, s, False)]) for s in seeds]
        entry = {
            "seeds": seeds,
            "failed": {"parent": sum(len(p["failures"]) for p, _ in pairs),
                       "change": sum(len(c["failures"]) for _, c in pairs)},
            "metrics": {},
        }
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
            lost = sum((a > b) if lower else (a < b) for b, a in zip(before, after))
            p_sum, c_sum = _summary(before), _summary(after)
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": p_sum, "change": c_sum,
                "won": won, "lost": lost, "tied": len(pairs) - won - lost,
                "gain": _gain(p_sum["median"], c_sum["median"], lower),
                "resolved": _resolved(p_sum, c_sum, m["bound"], lower),
            }
        out[workload] = entry
    env = dict(next(iter(parent.values()))["environment"])
    env.pop("seed", None)
    result = {"pairing": "workload and seed", "environment": env, "workloads": out}
    layers = _layers(parent, change, benchmark)
    if layers:
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--out", required=True, help="where to write the comparison")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="benchmark declaration naming the end-to-end metrics")
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        benchmark = json.load(fh)
    result = compare(args.parent, args.change, benchmark)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            gain = "n/a" if m["gain"] is None else f"{m['gain']:+.1%}"
            flag = "  REGRESSION" if m["gain"] is not None and m["gain"] < -m["bound"] else ""
            flag += "" if m["resolved"] else "  UNRESOLVED"
            print(f"{workload:9s} {name:13s} {m['parent']['median']:12.6g} -> "
                  f"{m['change']['median']:12.6g}  won {m['won']}/{len(entry['seeds'])}"
                  f"  parent IQR {m['parent']['iqr']:.4g}"
                  f"  gain {gain} (bound {m['bound']:.0%}){flag}")
        failed = entry["failed"]
        flag = "  MORE FAILURES" if failed["change"] > failed["parent"] else ""
        print(f"{workload:9s} failed tasks {failed['parent']} -> {failed['change']}{flag}")
    for workload, entry in result.get("layers", {}).items():
        for name, m in entry["metrics"].items():
            before, after = statistics.median(m["parent"]), statistics.median(m["change"])
            change = "n/a" if before == 0 else f"{(after - before) / abs(before):+.1%}"
            print(f"{workload:9s} {name:34s} {before:12.6g} -> {after:12.6g}  ({change})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
