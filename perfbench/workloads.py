"""Seeded inputs, task lists and reference checks for the three workloads.

A workload is built in two steps. ``make_inputs(workload, seed)`` draws every
input from ``random.Random(seed)`` into a plain JSON-serialisable dict, so the
same seed gives byte-identical inputs (``inputs_digest``). ``build_tasks``
turns those inputs into ``Task`` objects that call the package only through
its public names, looked up at call time on the module objects passed in, so
the tracer's patches are seen.

A task's ``check`` raises ``CheckFailed`` when the result is wrong and
otherwise returns ``{quantity: relative error}`` for the quantities that have
a reference. References come from outside the code under test:
``scipy.special.jn_zeros`` (Bessel zeros), the closed form
lambda_h = 2(N-2) exp(-h/(2N)) of the explicit singular family, and the
Sturm count of sign changes of the first variation e = dv/dbeta.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

WORKLOADS = ("branch", "spectral", "verify")

# The first three zeros of J0 (Abramowitz & Stegun, Table 9.5), as the
# doubles scipy.special.jn_zeros(0, 3) returns; a test checks that they are.
# Inputs are drawn from these literals, so that the setup of a workload
# imports nothing the package does not import itself.
J0_FIRST = (2.4048255576957724, 5.520078110286311, 8.653727912911013)
H_IN = J0_FIRST[0] ** 2  # optimal Hardy constant at N = 10, as an input


@lru_cache(maxsize=None)
def j0_zeros() -> np.ndarray:
    """Reference zeros of J0, for the checks only."""
    from scipy.special import jn_zeros

    return jn_zeros(0, 64)


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def lambda_star_ref(dim: int, h: float) -> float:
    """Closed-form singular amplitude of the explicit family a_h."""
    return 2.0 * (dim - 2.0) * math.exp(-h / (2.0 * dim))


def explicit_count_ref(h: float) -> int:
    """Morse index of the explicit singular solution at N = 10: #{k: j0k^2 < h}."""
    return int(np.sum(j0_zeros() ** 2 < h))


def sign_changes(values) -> int:
    """Strict sign changes of a sampled function, zeros skipped."""
    s = np.sign(np.asarray(values, dtype=float))
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _weight_spec(h: float | None) -> str:
    """Weight spec of a_h, or of the constant weight for h = None."""
    if h is None:
        return "const"
    return "ah:h=0" if h == 0.0 else f"ah:h={h!r}"


# ---------------------------------------------------------------------------
# Input generation.

BRANCH_CASES = {
    # name: (dim, h of the a_h weight or None for const, expected diagram type)
    "N3_const": (3, None, "I"),
    "N10_h0": (10, 0.0, "II"),
    "N10_h40": (10, 40.0, "III"),
}

# Regular-solution probes for the spectral workload: (dim, h of a_h or None
# for const). Each gets one beta from a window where the radial Morse index
# is 0 and one from a window where it is 1, for all four. The index sets the
# cost of solution_stability by two orders of magnitude, so drawing beta over
# the whole of [1, 7] would let the seed, not the code, decide the run time.
SPECTRAL_REGULAR = ((3, None), (5, 5.0), (10, 40.0), (10, 0.0))
BETA_WINDOWS = ((1.0, 2.5), (4.5, 5.0))


def _band_draws(rng: random.Random, bands) -> list[float]:
    """One h in [0, 80] per index band [j0k^2, j0(k+1)^2), 0.05 clear of the
    jumps where the count is decided by rounding. Drawing per band keeps the
    index mix, and so the cost, the same for every seed."""
    edges = [0.0] + [z * z for z in J0_FIRST] + [80.0]
    return [rng.uniform(edges[k] + 0.05, edges[k + 1] - 0.05) for k in bands]


def _branch_inputs(rng: random.Random) -> dict:
    beta_min = rng.uniform(-5.25, -4.75)
    names = list(BRANCH_CASES) + ["zero_N10_aH", "zero_N3_const"]
    rng.shuffle(names)
    return {"beta_min": beta_min, "beta_max": 40.0, "max_step": 0.25,
            "order": names, "zero_betas_aH": [5.0, 15.0, 25.0],
            "zero_betas_const": [10.0, 25.0], "h_hardy": H_IN}


def _spectral_inputs(rng: random.Random) -> dict:
    regular = [{"dim": dim, "weight": _weight_spec(h), "beta": rng.uniform(*win)}
               for dim, h in SPECTRAL_REGULAR for win in BETA_WINDOWS]
    return {"regular": regular,
            "singular": [{"dim": 10, "h": h} for h in (0.0, 5.0, 40.0)]
            + [{"dim": 3, "h": None}],
            # two draws in each of the wide bands of index 1 and 2
            "explicit_h": _band_draws(rng, (0, 1, 1, 2, 2, 3)),
            "hardy_n": list(range(1, 65))}


def _polyexp_spec(rng: random.Random) -> str:
    c1 = rng.uniform(0.0, 1.5)
    d = rng.uniform(-0.5, 0.5)
    return f"polyexp:{c1!r};d={d!r}"


def _identity_draw(rng: random.Random) -> tuple[int, str, float]:
    """(dim, weight spec, beta) drawn as in acceptance criterion 6, N in [3, 12]."""
    dim = rng.randint(3, 12)
    beta = rng.uniform(-2.0, 6.0)
    kind = rng.choice(["const", "ah", "polyexp"])
    if kind == "const":
        spec = "const"
    elif kind == "ah":
        spec = _weight_spec(rng.uniform(-1.0, 40.0))
    else:
        spec = _polyexp_spec(rng)
    return dim, spec, beta


def _verify_inputs(rng: random.Random) -> dict:
    cmds: list[list[str]] = []
    for _ in range(40):
        dim, spec, beta = _identity_draw(rng)
        cmds.append(["verify", "flux", "--dim", str(dim), "--weight", spec,
                     "--beta", repr(beta)])
    for _ in range(40):
        dim, spec, beta = _identity_draw(rng)
        mu = rng.choice([0.0, 1.0])
        cmds.append(["verify", "pohozaev", "--dim", str(dim), "--weight", spec,
                     "--beta", repr(beta), "--mu", repr(mu)])
    h_spec = _weight_spec(H_IN)
    for _ in range(16):
        beta = rng.uniform(0.0, 10.0)
        gamma = beta + rng.uniform(0.5, 10.0)
        cmds.append(["verify", "separation", "--dim", "10", "--weight", h_spec,
                     "--beta", repr(beta), "--gamma", repr(gamma)])
    for _ in range(12):
        h = rng.choice([5.7832, 10.0, 40.0])
        # at h = 5.7832, just above H, the envelope gap turns negative near
        # beta = 5.5 (about -0.03 at beta = 5.8); beta stays below 4, where
        # the gap is at least 0.1 for every h drawn here
        beta = rng.uniform(0.5, 4.0)
        gamma = beta + rng.uniform(0.5, 8.0)
        eps0 = rng.uniform(0.0, 1.0)
        cmds.append(["verify", "envelope", "--dim", "10", "--weight", _weight_spec(h),
                     "--beta", repr(beta), "--gamma", repr(gamma), "--eps0", repr(eps0)])
    for dim in range(3, 11):
        for h in (-1.0, 0.0, 5.0, 40.0):
            cmds.append(["verify", "singular", "--dim", str(dim), "--h", repr(h)])
    for _ in range(4):
        dim = rng.randint(3, 9)
        cmds.append(["spectral", "witness", "--dim", str(dim),
                     "--h", repr(rng.choice([0.0, 5.0, 40.0])),
                     "--eps", repr(rng.uniform(0.5, 2.0)), "--j", str(rng.randint(1, 4))])
    for h in _band_draws(rng, (0, 1, 2, 3)):
        cmds.append(["spectral", "morse", "--dim", "10", "--h", repr(h)])
    rng.shuffle(cmds)
    rerun = sorted(rng.sample(range(len(cmds)), 15))
    return {"commands": cmds, "rerun": rerun}


_MAKERS = {"branch": _branch_inputs, "spectral": _spectral_inputs, "verify": _verify_inputs}


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = _MAKERS[workload](random.Random(seed))
    inputs["workload"] = workload
    inputs["seed"] = seed
    return inputs


def inputs_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(inputs_bytes(inputs)).hexdigest()


# ---------------------------------------------------------------------------
# Task lists.


def _branch_tasks(inp: dict, G) -> list[Task]:
    bmin, bmax, step = inp["beta_min"], inp["beta_max"], inp["max_step"]
    cutoff = bmin + (2.0 / 3.0) * (bmax - bmin)

    def case_task(name):
        dim, h, expected = BRANCH_CASES[name]
        spec = _weight_spec(h)
        h = h or 0.0

        def run():
            cfg = G.ProblemConfig(dim=dim, weight=G.parse_weight(spec, dim=dim))
            curve = G.trace_curve(cfg, bmin, bmax, step)
            lam_star, _ = G.integrate_singular(cfg)
            return curve, G.classify(cfg, curve, lam_star)

        def check(res):
            curve, rep = res
            _require(curve.complete, f"{name}: curve truncated: {curve.diagnostic}")
            _require(rep.diagram_type == expected,
                     f"{name}: type {rep.diagram_type}, expected {expected}")
            err = _rel(rep.lambda_star, lambda_star_ref(dim, h))
            _require(err <= 1e-6, f"{name}: lambda_star relative error {err:.3g}")
            tps = rep.turning_points
            if expected == "I":
                _require(len(tps) >= 3 and rep.oscillation_count >= 3,
                         f"{name}: {len(tps)} folds, {rep.oscillation_count} oscillations")
            elif expected == "II":
                _require(not tps, f"{name}: {len(tps)} folds on a type II branch")
                _require(abs(curve.lams[-1] - 16.0) <= 0.8, f"{name}: lambda(40) off")
            else:
                _require(tps and all(tp.beta < cutoff for tp in tps),
                         f"{name}: folds {[tp.beta for tp in tps]} vs cutoff {cutoff}")
                target = lambda_star_ref(dim, h)
                _require(abs(curve.lams[-1] - target) <= 0.05 * target,
                         f"{name}: lambda(40) off")
            return {f"{name}.lambda_star": err}

        return Task(name, run, check)

    def zero_aH():
        def run():
            cfg = G.ProblemConfig(dim=10, weight=G.make_ah(inp["h_hardy"], 10))
            _, sing = G.integrate_singular(cfg)
            return [G.zero_number(cfg, b, sing) for b in inp["zero_betas_aH"]]

        def check(zs):
            _require(all(z == 0 for z in zs), f"zero numbers at a_H {zs}, expected 0")
            return {}

        return Task("zero_N10_aH", run, check)

    def zero_const():
        def run():
            cfg = G.ProblemConfig(dim=3, weight=G.parse_weight("const"))
            _, sing = G.integrate_singular(cfg)
            return [G.zero_number(cfg, b, sing) for b in inp["zero_betas_const"]]

        def check(zs):
            _require(zs[1] >= zs[0] + 2, f"zero numbers {zs}: Z(25) < Z(10) + 2")
            return {}

        return Task("zero_N3_const", run, check)

    builders = {"zero_N10_aH": zero_aH, "zero_N3_const": zero_const}
    return [builders[n]() if n in builders else case_task(n) for n in inp["order"]]


def _eigen_errors(name: str, eigen, h: float) -> dict:
    """Errors of mu_k = j0k^2 - h, relative to j0k^2: mu_k itself can sit
    arbitrarily close to 0, where its own relative error says nothing."""
    return {f"{name}.mu{k}": _rel(mu + h, j0_zeros()[k - 1] ** 2)
            for k, mu in enumerate(eigen, start=1)}


def _spectral_tasks(inp: dict, G) -> list[Task]:
    tasks = []
    for i, probe in enumerate(inp["regular"]):
        dim, spec, beta = probe["dim"], probe["weight"], probe["beta"]
        name = f"stability_{i}_N{dim}_{spec}"

        def run(dim=dim, spec=spec, beta=beta):
            cfg = G.ProblemConfig(dim=dim, weight=G.parse_weight(spec, dim=dim))
            shoot = G.integrate_ivp(cfg, beta)
            return shoot, G.solution_stability(cfg, shoot)

        def check(res, name=name):
            shoot, rep = res
            ref = sign_changes(shoot.variation_profile.values)
            _require(not rep.capped and rep.morse_index == ref,
                     f"{name}: index {rep.morse_index}, sign changes of e {ref}")
            return {}

        tasks.append(Task(name, run, check))

    for probe in inp["singular"]:
        dim, h = probe["dim"], probe["h"]
        name = f"singular_N{dim}_" + ("const" if h is None else f"h{h:g}")

        def run(dim=dim, h=h):
            weight = G.parse_weight("const") if h is None else G.make_ah(h, dim)
            return G.singular_stability(G.ProblemConfig(dim=dim, weight=weight))

        def check(rep, name=name, dim=dim, h=h):
            if dim < 10:
                # oscillatory tail below the critical dimension: infinite index
                _require(rep.capped, f"{name}: expected a capped count, got {rep.morse_index}")
                return {}
            ref = explicit_count_ref(h)
            _require(not rep.capped and rep.morse_index == ref,
                     f"{name}: index {rep.morse_index}, expected {ref}")
            return _eigen_errors(name, rep.eigenvalues_below_zero, h)

        tasks.append(Task(name, run, check))

    for h in inp["explicit_h"]:
        name = f"explicit_h{h:.4f}"

        def run(h=h):
            return G.morse_index(G.reduce_to_disk(G.explicit_uh(10, h)))

        def check(rep, name=name, h=h):
            ref = explicit_count_ref(h)
            _require(not rep.capped and rep.morse_index == ref,
                     f"{name}: index {rep.morse_index}, expected {ref}")
            _require(len(rep.eigenvalues_below_zero) == ref, f"{name}: eigenvalue count")
            return _eigen_errors(name, rep.eigenvalues_below_zero, h)

        tasks.append(Task(name, run, check))

    def hardy_check(value):
        return {"hardy_constant": _rel(value, j0_zeros()[0] ** 2)}

    tasks.append(Task("hardy_constant", lambda: G.hardy_constant(), hardy_check))
    for n in inp["hardy_n"]:
        def run(n=n):
            return G.hardy_quotient_xi_n(10, n)

        def check(q, n=n):
            hardy = j0_zeros()[0] ** 2
            _require(q >= hardy - 1e-6, f"R_{n} = {q} below H")
            if n == 64:
                _require(q < hardy + 0.5, f"R_64 = {q} not within 0.5 of H")
            return {}

        tasks.append(Task(f"hardy_n{n}", run, check))
    return tasks


def _verify_check(argv: list[str], payload: dict) -> dict:
    kind = " ".join(argv[:2])
    opt = dict(zip(argv[2::2], argv[3::2]))
    if kind == "spectral morse":
        h = float(opt["--h"])
        ref = explicit_count_ref(h)
        _require(payload["morse_index"] == ref,
                 f"morse index {payload['morse_index']}, expected {ref}")
        return _eigen_errors("morse", payload["eigenvalues_below_zero"], h)
    _require(payload.get("pass") is True, f"{kind}: pass is {payload.get('pass')}")
    if kind in ("verify flux", "verify pohozaev"):
        return {kind: abs(payload["residual"])}
    if kind == "verify singular":
        ref = lambda_star_ref(int(opt["--dim"]), float(opt["--h"]))
        return {kind: _rel(payload["lambda_star"], ref)}
    return {}


def _verify_tasks(inp: dict, G, workdir: str) -> list[Task]:
    cmds = inp["commands"]
    first_bytes: dict[int, bytes] = {}
    tasks = []

    def runner(i):
        out = os.path.join(workdir, f"cmd{i:03d}.json")

        def run():
            try:
                code = G.cli.main(cmds[i] + ["--out", out])
            except SystemExit as exc:  # parser.error() exits 2 instead of returning
                code = exc.code
            if code != 0:
                return code, b""
            with open(out, "rb") as fh:
                return code, fh.read()

        return run

    for i, argv in enumerate(cmds):
        def check(res, i=i, argv=argv):
            code, data = res
            _require(code == 0, f"{' '.join(argv)}: exit code {code}")
            first_bytes[i] = data
            return _verify_check(argv, json.loads(data))

        tasks.append(Task(f"cmd{i:03d}_{cmds[i][0]}_{cmds[i][1]}", runner(i), check))

    for i in inp["rerun"]:
        def check(res, i=i):
            code, data = res
            _require(code == 0 and data == first_bytes.get(i),
                     f"rerun of command {i} is not byte-identical")
            return {}

        tasks.append(Task(f"rerun{i:03d}", runner(i), check))
    return tasks


def build_tasks(inputs: dict, G, workdir: str) -> list[Task]:
    """Task list for `inputs`; `G` is the imported `gelfand` package, and
    `workdir` the directory the verify workload writes its artifacts to."""
    workload = inputs["workload"]
    if workload == "branch":
        return _branch_tasks(inputs, G)
    if workload == "spectral":
        # seeded order: the 64 short Hardy tasks then sample the machine's
        # speed over the whole pass instead of one three-second stretch
        tasks = _spectral_tasks(inputs, G)
        random.Random(inputs["seed"]).shuffle(tasks)
        return tasks
    return _verify_tasks(inputs, G, workdir)
