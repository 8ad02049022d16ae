"""Smoke tests of the scripts in scripts/, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_spectral_tables_prints_the_three_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "spectral_tables.py"),
         "--h", "5", "31", "--n-max", "2", "--j-max", "1"],
        capture_output=True, text=True, timeout=120, env=env)
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
