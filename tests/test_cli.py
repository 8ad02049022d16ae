import json
import math
import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import gelfand.cli as cli
from gelfand import ProblemConfig, parse_weight, trace_curve
from gelfand.bifurcation import BifurcationCurve, ClassificationReport

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_main(argv):
    return cli.main(argv)


def parse_curve_csv(text):
    """Returns (manifest, sample_rows, tp_rows)."""
    manifest_lines, samples, tps = [], [], []
    pending_tp = None
    for line in text.splitlines():
        if line.startswith("# turning_point kind="):
            pending_tp = line.split("=", 1)[1]
        elif line.startswith("# "):
            manifest_lines.append(line[2:])
        elif line and not line[0].isalpha():
            vals = tuple(float(x) for x in line.split(","))
            if pending_tp is not None:
                tps.append((pending_tp, vals))
                pending_tp = None
            else:
                samples.append(vals)
    return json.loads("\n".join(manifest_lines)), samples, tps


# ------------------------------------------------------------- determinism

def test_trace_byte_identical_and_round_trip(tmp_path):
    out = tmp_path / "curve.csv"
    args = ["trace", "--dim", "3", "--weight", "const",
            "--beta-min", "-3", "--beta-max", "0", "--out", str(out)]
    assert run_main(args) == 0
    first = out.read_bytes()
    assert run_main(args) == 0
    assert out.read_bytes() == first

    manifest, samples, _ = parse_curve_csv(first.decode())
    assert manifest["command"] == "trace"
    assert manifest["seed_free"] is True
    assert manifest["beta_range"] == [-3.0, 0.0]

    # round-trip losslessly against the in-memory curve
    cfg = ProblemConfig(dim=3, weight=parse_weight("const"))
    curve = trace_curve(cfg, -3.0, 0.0, 0.25)
    assert len(samples) == len(curve.samples)
    for row, s in zip(samples, curve.samples):
        assert row == (s.beta, s.lam, s.alpha, s.dlambda_dbeta)


def test_classify_stdout_deterministic(capsys):
    args = ["classify", "--dim", "10", "--weight", "ah:h=0",
            "--beta-min", "-2", "--beta-max", "31", "--max-step", "0.5"]
    assert run_main(args) == 0
    first = capsys.readouterr().out
    assert run_main(args) == 0
    assert capsys.readouterr().out == first

    payload = json.loads(first)
    assert payload["type"] == "II"
    assert payload["extremal_bounded"] is False
    assert payload["turning_points"] == []
    assert payload["ratio_derivative_sign"] == "NonPositiveEverywhere"
    assert payload["lambda_star"] == pytest.approx(16.0, rel=1e-6)
    assert set(payload) == {
        "manifest", "dimension", "weight_spec", "beta_range", "lambda_star",
        "lambda_extremal", "turning_points", "oscillation_count", "type",
        "extremal_bounded", "ratio_derivative_sign",
    }


def test_uppercase_exponent_format(capsys, tmp_path):
    out = tmp_path / "c.csv"
    assert run_main(["trace", "--dim", "3", "--weight", "const",
                     "--beta-min", "-12", "--beta-max", "-11",
                     "--out", str(out)]) == 0
    body = out.read_text()
    data = [l for l in body.splitlines() if not l.startswith("#")][1:]
    assert any("E-" in row for row in data)  # lambda ~ 6e-6 down here
    assert "e-" not in body.replace("beta", "").replace("lambda", "")


# ---------------------------------------------------------------- trace CSV

def test_trace_flags_turning_points(tmp_path):
    out = tmp_path / "n3.csv"
    svg = tmp_path / "n3.svg"
    assert run_main(["trace", "--dim", "3", "--weight", "const",
                     "--beta-min", "-5", "--beta-max", "40",
                     "--out", str(out), "--svg", str(svg)]) == 0
    _, samples, tps = parse_curve_csv(out.read_text())
    assert len(tps) >= 3
    kinds = [k for k, _ in tps]
    assert kinds[0] == "Max"
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    # flagged rows carry a flat derivative column
    for _, vals in tps:
        assert vals[3] == 0.0
    betas = [row[0] for row in samples]
    assert betas == sorted(betas)

    # SVG side: well-formed XML, has the curve polyline and fold markers
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert root.findall(f".//{ns}polyline")
    assert len(root.findall(f".//{ns}circle")) >= 3
    assert "turning" in svg.read_text() or "circle" in svg.read_text()


def test_svg_manifest_comment_survives_double_dashes(tmp_path):
    # XML forbids "--" inside a comment, and the manifest comment holds the
    # artifact paths: each "--" is written as "-\u002d", JSON's escape for "-"
    out, svg = tmp_path / "curve--v2.csv", tmp_path / "plot--v2.svg"
    assert run_main(["trace", "--dim", "3", "--weight", "const",
                     "--beta-min", "-3", "--beta-max", "-2",
                     "--out", str(out), "--svg", str(svg)]) == 0
    ET.parse(svg)
    text = svg.read_text()
    comment = text[text.index("<!--") + 4:text.index("-->")]
    assert "--" not in comment
    manifest = json.loads(comment)
    assert manifest["artifacts"] == [str(out), str(svg)]
    assert manifest == parse_curve_csv(out.read_text())[0]


def test_manifest_strings_escape_control_characters(capsys, tmp_path):
    # parse_weight strips whitespace, so a spec with a trailing newline or
    # tab is accepted: the JSON on stdout and the CSV manifest block must
    # still parse, and give the spec back as it was typed
    assert run_main(["verify", "flux", "--dim", "3", "--weight", "const\n",
                     "--beta", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["weight_spec"] == "const\n"
    out = tmp_path / "c.csv"
    assert run_main(["trace", "--dim", "3", "--weight", "const\t\n",
                     "--beta-min", "-3", "--beta-max", "-2", "--out", str(out)]) == 0
    assert parse_curve_csv(out.read_text())[0]["weight_spec"] == "const\t\n"


# ---------------------------------------------------------------- verify

def test_verify_singular_passes(capsys):
    assert run_main(["verify", "singular", "--dim", "10", "--h", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["relative_error"] <= 1e-12
    assert payload["sup_profile_gap"] <= 1e-12


@pytest.mark.parametrize("dim", range(3, 11))
def test_verify_singular_meets_the_closed_form_to_rounding(dim, capsys):
    # the filled singular profile against U_h, far inside SINGULAR_TOL
    for h in (-1.0, 0.0, 5.0, 40.0):
        assert run_main(["verify", "singular", "--dim", str(dim), "--h", repr(h)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_error"] <= 1e-14, h
        assert payload["sup_profile_gap"] <= 5e-14, h


def test_verify_pohozaev_and_flux_pass(capsys):
    # the identity tolerance is 1e-6; a grid shoot holds both residuals far
    # below it, so an inaccurate fill of the grid fails here
    assert run_main(["verify", "pohozaev", "--dim", "5", "--weight", "const",
                     "--beta", "3", "--mu", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["residual"] <= 1e-11
    assert run_main(["verify", "flux", "--dim", "5", "--weight", "const",
                     "--beta", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["residual"] <= 1e-11


def test_verify_flux_passes_past_the_boundary_layer(capsys):
    # beta = 20 puts the layer near r = e^{-10}, below r_start = 1e-4
    assert run_main(["verify", "flux", "--dim", "3", "--weight", "ah:h=5",
                     "--beta", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["residual"] <= cli.IDENTITY_TOL


def test_verify_separation_pass_and_fail(capsys):
    assert run_main(["verify", "separation", "--dim", "10",
                     "--weight", "ah:h=5.7831859629467084",
                     "--beta", "2", "--gamma", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["min_gap_v"] > 0.0
    # intersecting low-dimension profiles: reported and flagged as failing
    assert run_main(["verify", "separation", "--dim", "3", "--weight", "const",
                     "--h", "0", "--beta", "5", "--gamma", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_verify_envelope_passes(capsys):
    assert run_main(["verify", "envelope", "--dim", "10", "--weight", "ah:h=40",
                     "--beta", "1", "--gamma", "3", "--eps0", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["gap"] > 0.0


# ---------------------------------------------------------------- spectral

def test_spectral_morse_json_contract(capsys):
    assert run_main(["spectral", "morse", "--dim", "10", "--h", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["morse_index"] == 1
    assert payload["stable"] is False
    assert len(payload["eigenvalues_below_zero"]) == 1
    assert payload["method_gap"] < 1e-3

    assert run_main(["spectral", "morse", "--dim", "9", "--h", "0",
                     "--cap", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["morse_index"] == {"capped": 8}
    assert payload["stable"] is False


def test_spectral_hardy_table(capsys):
    assert run_main(["spectral", "hardy", "--n", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 5.7831 < payload["hardy_constant"] < 5.7833
    quot = payload["quotients"]
    assert len(quot) == 64
    assert quot[63]["R"] - payload["hardy_constant"] < 0.5


def test_spectral_witness_exit_codes(capsys):
    assert run_main(["spectral", "witness", "--dim", "9", "--h", "0",
                     "--eps", "1", "--j", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    # a huge negative h makes the form positive on the shallowest annulus
    # (deeper windows suppress the h-term): witness fails, exit 1
    assert run_main(["spectral", "witness", "--dim", "9", "--h=-1e8",
                     "--eps", "1", "--j", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


# --------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ["trace", "--dim", "3", "--weight", "const", "--beta-min", "5",
     "--beta-max", "5", "--out", "x.csv"],
    ["trace", "--dim", "3", "--weight", "nope", "--beta-min", "0",
     "--beta-max", "1", "--out", "x.csv"],
    ["trace", "--dim", "3", "--weight", "const", "--beta-min", "0",
     "--beta-max", "1", "--max-step", "0", "--out", "x.csv"],
    ["classify", "--dim", "3", "--weight", "const", "--beta-min", "0",
     "--beta-max", "20"],
    ["spectral", "morse", "--dim", "13", "--h", "0"],
    ["spectral", "witness", "--dim", "10", "--h", "0", "--eps", "1", "--j", "1"],
    ["spectral", "hardy", "--n", "65"],
    ["verify", "singular", "--dim", "10", "--h", "-17"],
    # beta outside the integrator's guard range
    ["verify", "flux", "--dim", "5", "--beta", "100"],
    ["verify", "pohozaev", "--dim", "5", "--beta=-70"],
    ["trace", "--dim", "3", "--beta-min=-100", "--beta-max", "1", "--out", "x.csv"],
    # non-finite or overflowing reals, in flags and in weight specs
    ["spectral", "witness", "--dim", "5", "--h", "nan", "--eps", "1", "--j", "1"],
    ["verify", "pohozaev", "--dim", "5", "--beta", "1", "--mu", "nan"],
    ["verify", "singular", "--dim", "5", "--h", "inf"],
    ["verify", "flux", "--dim", "5", "--beta", "1e999"],
    ["trace", "--dim", "3", "--beta-min", "0", "--beta-max", "1",
     "--rtol", "-inf", "--out", "x.csv"],
    ["verify", "flux", "--dim", "5", "--weight", "polyexp:1e999;d=0", "--beta", "1"],
    ["verify", "flux", "--dim", "5", "--weight", "polyexp:;d=800", "--beta", "1"],
    ["verify", "flux", "--dim", "5", "--weight", "ah:h=1e300", "--beta", "1"],
    # a classify window past the guard range, rejected before any shoot
    ["classify", "--dim", "3", "--beta-min", "30", "--beta-max", "61"],
])
def test_invalid_flags_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    calls = []
    add_flags = cli._add_problem_flags

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return add_flags(*args, **kwargs)

    monkeypatch.setattr(cli, "_add_problem_flags", counting)
    cli._build_parser.cache_clear()
    try:
        for _ in range(5):
            assert run_main(["spectral", "hardy", "--n", "2"]) == 0
        assert len(calls) == 6  # one build: six subcommands take the problem flags
        # a malformed command after a good one is still a usage error
        with pytest.raises(SystemExit) as exc:
            run_main(["verify", "singular", "--dim", "10"])
        assert exc.value.code == 2
        assert run_main(["spectral", "hardy", "--n", "2"]) == 0
        assert len(calls) == 6
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()


def test_in_process_reruns_write_identical_bytes(tmp_path):
    out = tmp_path / "singular.json"
    argv = ["verify", "singular", "--dim", "10", "--h", "40.0", "--out", str(out)]
    written = []
    for _ in range(2):
        assert run_main(argv) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_trace_truncation_exits_three_without_artifact(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"

    def fake_trace(cfg, beta_min, beta_max, max_step):
        return BifurcationCurve(samples=(), turning_points=(),
                                beta_range=(beta_min, beta_max),
                                complete=False, diagnostic="stalled at beta=1")

    monkeypatch.setattr(cli, "trace_curve", fake_trace)
    rc = run_main(["trace", "--dim", "3", "--weight", "const",
                   "--beta-min", "0", "--beta-max", "2", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_integration_error_exits_three_without_artifact(tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.json"

    def failing(cfg):
        raise cli.IntegrationError("step size underflow", 0.5)

    monkeypatch.setattr(cli, "integrate_singular", failing)
    rc = run_main(["verify", "singular", "--dim", "10", "--h", "40", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert capsys.readouterr().err == "integration failed: step size underflow\n"


def test_classify_strict_undetermined_exits_three(monkeypatch, capsys):
    real_classify = cli.classify

    def fake_classify(cfg, curve, lam_star):
        rep = real_classify(cfg, curve, lam_star)
        return ClassificationReport(
            diagram_type="Undetermined", lambda_star=rep.lambda_star,
            lambda_extremal=rep.lambda_extremal,
            turning_points=rep.turning_points,
            oscillation_count=rep.oscillation_count,
            extremal_bounded=rep.extremal_bounded, evidence="forced")

    monkeypatch.setattr(cli, "classify", fake_classify)
    rc = run_main(["classify", "--dim", "3", "--weight", "const",
                   "--beta-min", "25", "--beta-max", "31", "--strict"])
    capsys.readouterr()
    assert rc == 3


def test_console_script_installed(tmp_path):
    """The ``gelfand`` console script declared in this checkout's
    pyproject.toml runs the N <= 9 instability witness.

    The launcher is the one the entry-points specification prescribes for a
    console script, written from the declared ``[project.scripts]`` value, so
    a wrong or missing target fails here. It is run by name with its
    directory first on PATH and this checkout's ``src`` first on PYTHONPATH,
    so no install is needed and no other ``gelfand`` on PATH is picked up.
    The wrapper text that pip or setuptools write at install time is their
    code and is not checked.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gelfand"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "gelfand"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint('gelfand', {target!r}, "
        "'console_scripts').load()())\n")
    launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir),
                                                env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["gelfand", "spectral", "witness", "--dim", "9", "--h", "0",
         "--eps", "1", "--j", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q_value"] < 0.0
