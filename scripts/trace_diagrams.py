"""Trace and classify the three representative bifurcation diagrams.

Case A: N = 3, constant weight        -> Type I  (infinitely many folds)
Case B: N = 10, borderline weight h=0 -> Type II (monotone up to lambda_*)
Case C: N = 10, strong weight h=40    -> Type III (folds, then settles)

Writes CSV + SVG + classification JSON per case into --outdir and prints a
one-line summary per case. Every artifact is byte-reproducible.
"""

import argparse
import json
import os
import sys
import time

from gelfand.cli import main as cli_main

CASES = [
    ("caseA_N3_const", ["--dim", "3", "--weight", "const",
                        "--beta-min", "-2", "--beta-max", "30"]),
    ("caseB_N10_h0", ["--dim", "10", "--weight", "ah:h=0",
                      "--beta-min", "-2", "--beta-max", "40"]),
    ("caseC_N10_h40", ["--dim", "10", "--weight", "ah:h=40",
                       "--beta-min", "-5", "--beta-max", "40"]),
]


def run(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    worst = 0
    for name, flags in CASES:
        csv = os.path.join(outdir, f"{name}.csv")
        svg = os.path.join(outdir, f"{name}.svg")
        js = os.path.join(outdir, f"{name}.json")
        t0 = time.perf_counter()
        rc = cli_main(["trace", *flags, "--out", csv, "--svg", svg])
        rc = max(rc, cli_main(["classify", *flags, "--out", js]))
        dt = time.perf_counter() - t0
        # the headline numbers of the classification just written
        with open(js, encoding="utf-8") as fh:
            report = json.load(fh)
        print(f"{name}: Type {report['type']}, lambda_* = {report['lambda_star']:.6f}, "
              f"{len(report['turning_points'])} folds resolved, rc={rc}, {dt:.1f}s")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="artifacts")
    sys.exit(run(ap.parse_args().outdir))
