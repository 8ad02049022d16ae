"""Smoke tests of the scripts in scripts/, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=timeout, env=env)


def test_spectral_tables_prints_the_three_tables():
    proc = _run_script("spectral_tables.py", "--h", "5", "31",
                       "--n-max", "2", "--j-max", "1", timeout=120)
    assert proc.returncode == 0, proc.stderr
    morse, hardy, witness = (b.splitlines() for b in proc.stdout.strip().split("\n\n"))
    # each table: its header, then one row per h, per n and per j
    assert morse[0] == "h        index  eigenvalues (phase route)          method gap"
    assert len(morse) == 1 + 2
    assert hardy[0].startswith("H = j01^2 = ")
    assert hardy[1] == "n    R_n             n(R_n - H)"
    assert len(hardy) == 2 + 2
    assert witness[0] == "j    support (annulus)             Q"
    assert len(witness) == 1 + 1


def test_trace_diagrams_writes_the_three_diagrams(tmp_path):
    proc = _run_script("trace_diagrams.py", "--outdir", str(tmp_path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for line, (case, dtype, folds) in zip(lines, [("caseA_N3_const", "I", 6),
                                                 ("caseB_N10_h0", "II", 0),
                                                 ("caseC_N10_h40", "III", 2)]):
        assert line.startswith(f"{case}: Type {dtype}, ")
        assert f", {folds} folds resolved, rc=0, " in line
    # a CSV, an SVG and a classification JSON per case
    assert len(list(tmp_path.iterdir())) == 9
