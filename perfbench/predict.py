"""Write predictions.json: the end-to-end metrics each layer should move.

    python3 perfbench/predict.py [--seed 7]

Reads the traced result of every workload at the seed
(``perfbench/out/result-<workload>-seed<seed>-trace1.json``, written by
``run.py --trace 1``) and applies one rule to the layer shares stored there:
the share of the traced time spent inside the layer's calls, callees
included. A layer with at least MOVES of a workload's time should move
``wall_s`` and ``cpu_s`` there; with at least MOVES of the time of the
middle-latency tasks, ``task_p50_s``; with at least MOVES of the tail tasks,
``task_tail_s``. On a workload where the layer has less than UNCHANGED of
the time, a change to that layer alone must move none of them.
"""

import argparse
import json
import os

from tracing import LAYER_METRICS, LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MOVES = 0.05
UNCHANGED = 0.005
GROUP_METRICS = {"pass": ["wall_s", "cpu_s"], "p50": ["task_p50_s"], "tail": ["task_tail_s"]}


def rule(share: dict) -> tuple[dict, list]:
    """(moves, unchanged_on) of one layer from {workload: {group: share}}."""
    moves = {w: [m for g, ms in GROUP_METRICS.items() if s[g] >= MOVES for m in ms]
             for w, s in share.items()}
    return moves, [w for w, s in share.items() if s["pass"] < UNCHANGED]


def predict(shares: dict) -> dict:
    """The table from {workload: {group: {layer: share}}}, keyed by layer."""
    table = {}
    for layer in LAYERS:
        share = {w: {g: round(shares[w][g][layer], 4) for g in GROUP_METRICS}
                 for w in WORKLOADS}
        moves, unchanged = rule(share)
        table[layer] = {"metrics": [m for m in LAYER_METRICS if m.split(".")[0] == layer],
                        "share": share, "moves": moves, "unchanged_on": unchanged}
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    shares = {}
    for w in WORKLOADS:
        path = os.path.join(HERE, "out", f"result-{w}-seed{seed}-trace1.json")
        with open(path, encoding="utf-8") as fh:
            shares[w] = json.load(fh)["layer_shares"]
    with open(os.path.join(HERE, "predictions.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "layers": predict(shares)}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
