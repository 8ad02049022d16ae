"""Span tracing around the calls into each layer, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent) in memory. A function is patched in every
module that holds it under the same name (``gelfand``, ``gelfand.cli``, ...),
so calls through ``from .x import f`` are seen too; ``RadialProfile`` is
patched on the class. ``gelfand._stepper.solve`` is wrapped together with the
right-hand side it is given, so every RHS call is counted and timed without
a span of its own. ``uninstall`` puts every original back and checks that it
did.

``layer_metrics`` turns the recorded spans into the per-layer metrics, and
``layer_seconds`` into the time spent inside each layer's calls. A span's
self time is its duration minus the part of it that its child spans cover. A Pruefer solve is a ``stepper.solve`` span whose parent is a
``spectral.morse_index`` span, so no private function needs patching.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# The layers, each the prefix of its span and metric names.
LAYERS = ("stepper", "radial_ode", "bifurcation", "spectral", "weights", "cli")

# Traced functions: (span name, module attribute path of the owner, attribute).
TRACED = (
    ("stepper.solve", "_stepper", "solve"),
    ("radial_ode.integrate_ivp", "radial_ode", "integrate_ivp"),
    ("radial_ode.integrate_singular", "radial_ode", "integrate_singular"),
    ("radial_ode.flux_residual", "radial_ode", "flux_residual"),
    ("radial_ode.pohozaev_residual", "radial_ode", "pohozaev_residual"),
    ("radial_ode.evaluate_array", "radial_ode.RadialProfile", "evaluate_array"),
    ("bifurcation.trace_curve", "bifurcation", "trace_curve"),
    ("bifurcation.refine_fold", "bifurcation", "refine_fold"),
    ("bifurcation.classify", "bifurcation", "classify"),
    ("bifurcation.zero_number", "bifurcation", "zero_number"),
    ("bifurcation.check_separation", "bifurcation", "check_separation"),
    ("bifurcation.check_lower_envelope", "bifurcation", "check_lower_envelope"),
    ("spectral.morse_index", "spectral", "morse_index"),
    ("spectral.solution_stability", "spectral", "solution_stability"),
    ("spectral.singular_stability", "spectral", "singular_stability"),
    ("spectral.reduce_to_disk", "spectral", "reduce_to_disk"),
    ("spectral.hardy_quotient_xi_n", "spectral", "hardy_quotient_xi_n"),
    ("spectral.hardy_constant", "spectral", "hardy_constant"),
    ("spectral.instability_witness_leq9", "spectral", "instability_witness_leq9"),
    ("spectral.eigvalsh_tridiagonal", "spectral", "eigvalsh_tridiagonal"),
    ("weights.parse_weight", "weights", "parse_weight"),
    ("weights.ratio_derivative_sign", "weights", "ratio_derivative_sign"),
    ("cli.main", "cli", "main"),
)

# Per-layer metrics with their units; layer_metrics returns exactly these.
LAYER_METRICS = {
    "stepper.calls": "count",
    "stepper.rhs_evals": "count",
    "stepper.attempts": "count",
    "stepper.nodes": "count",
    "stepper.self_s": "s",
    "stepper.rhs_s": "s",
    "radial_ode.shoots": "count",
    "radial_ode.shoot_s": "s",
    "radial_ode.shoot_self_s": "s",
    "radial_ode.rhs_evals_per_shoot": "count",
    "radial_ode.singular_calls": "count",
    "radial_ode.singular_s": "s",
    "radial_ode.residual_s": "s",
    "radial_ode.profile_evals": "count",
    "radial_ode.profile_eval_s": "s",
    "bifurcation.traces": "count",
    "bifurcation.samples": "count",
    "bifurcation.march_shoots": "count",
    "bifurcation.rejected": "count",
    "bifurcation.accept_ratio": "ratio",
    "bifurcation.folds": "count",
    "bifurcation.fold_shoots": "count",
    "bifurcation.shoots_per_fold": "count",
    "bifurcation.trace_self_s": "s",
    "bifurcation.classify_s": "s",
    "bifurcation.zero_number_s": "s",
    "bifurcation.check_s": "s",
    "spectral.morse_calls": "count",
    "spectral.morse_s": "s",
    "spectral.prufer_solves": "count",
    "spectral.prufer_rhs_evals": "count",
    "spectral.prufer_s": "s",
    "spectral.potential_evals": "count",
    "spectral.potential_eval_s": "s",
    "spectral.eigenvalues": "count",
    "spectral.solves_per_eigenvalue": "count",
    "spectral.fd_rows": "count",
    "spectral.fd_eig_s": "s",
    "spectral.reduce_s": "s",
    "spectral.hardy_s": "s",
    "weights.parse_calls": "count",
    "weights.parse_s": "s",
    "weights.ratio_sign_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
}

# Dormand-Prince 5(4) with FSAL: one RHS call to start, six per step attempt.
STAGES_PER_ATTEMPT = 6


class TraceInvariantError(RuntimeError):
    """A traced call broke an assumption the per-layer metrics rest on."""


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans while installed. Single-threaded by design."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.nid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # per stepper.solve span: RHS calls, RHS seconds, output nodes
        self.solve_rhs: dict[int, tuple[int, float, int]] = {}
        # counts read from results or arguments, keyed by metric name
        self.extra: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.nid.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_solve(self, fn):
        nid = self._id("stepper.solve")
        tracer = self
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            user_fun = bound.arguments["fun"]
            calls = 0
            busy = 0.0

            def counted(x, y):
                nonlocal calls, busy
                t0 = perf_counter()
                out = user_fun(x, y)
                busy += perf_counter() - t0
                calls += 1
                return out

            bound.arguments["fun"] = counted
            idx = tracer._open(nid)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                tracer._close(idx)
                tracer.solve_rhs[idx] = (calls, busy, len(bound.arguments["nodes"]))
            if (calls - 1) % STAGES_PER_ATTEMPT:
                raise TraceInvariantError(
                    f"solve made {calls} RHS calls, not 1 + {STAGES_PER_ATTEMPT}k: "
                    "the integrator tableau changed, so stepper.attempts is undefined")
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        extra = self.extra
        morse_sig = inspect.signature(_resolve(self.package, "spectral.morse_index"))

        def samples(args, kwargs, curve):
            extra["bifurcation.samples"] += len(curve.samples)

        def morse(args, kwargs, report):
            bound = morse_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            extra["spectral.fd_rows"] += bound.arguments["n_fd"]
            extra["spectral.eigenvalues"] += len(report.eigenvalues_below_zero)

        def cli_main(args, kwargs, code):
            argv = list(args[0] if args else kwargs.get("argv") or [])
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                with open(path, "rb") as fh:
                    extra["cli.bytes_written"] += len(fh.read())

        return {"bifurcation.trace_curve": samples, "spectral.morse_index": morse,
                "cli.main": cli_main}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in
                           ("_stepper", "radial_ode", "bifurcation", "spectral", "weights", "cli")]
        hooks = self._hooks()
        for name, owner_path, attr in TRACED:
            owner = _resolve(pkg, owner_path)
            original = getattr(owner, attr)
            if name == "stepper.solve":
                wrapper = self._wrap_solve(original)
            else:
                wrapper = self._wrap(name, original, hooks.get(name))
            holders = [owner] + [m for m in modules
                                 if m is not owner and getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)
        left = [f"{getattr(h, '__name__', h)}.{a}" for h, a, o in patches
                if getattr(h, a) is not o]
        if left:
            raise RuntimeError(f"failed to restore {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def arrays(self):
        """(names, name id, parent, start, end) as numpy arrays."""
        return (list(self.names), np.asarray(self.nid, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def solves(self):
        """(span index, [RHS calls, RHS seconds, nodes]) of every solve span."""
        idx = np.array(sorted(self.solve_rhs), dtype=np.int64)
        return idx, np.array([self.solve_rhs[i] for i in idx], dtype=float).reshape(-1, 3)

    def write(self, path: str) -> None:
        """Write the spans and RHS counters as compressed numpy arrays."""
        names, nid, parent, start, end = self.arrays()
        solves, rhs = self.solves()
        np.savez_compressed(path, names=np.array(json.dumps(names)), name_id=nid,
                            parent=parent, start=start, end=end,
                            solve_span=solves, solve_rhs=rhs)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    selft = end - start
    order = np.lexsort((start, parent))
    cur, cov_hi = -2, 0.0  # children of `cur` cover time up to cov_hi
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if p != cur:
            cur, cov_hi = p, lo
        if hi <= cov_hi:
            continue
        lo = max(lo, cov_hi)
        selft[p] -= hi - lo
        cov_hi = hi
    return selft


def layer_metrics(tr: Tracer) -> dict[str, float]:
    names, nid, parent, start, end = tr.arrays()
    dur = end - start
    selft = self_times(parent, start, end)
    ids = {n: i for i, n in enumerate(names)}
    pname = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)

    def is_(name):
        return nid == ids.get(name, -1)

    def child_of(name, parent_name):
        return is_(name) & (pname == ids.get(parent_name, -1))

    def total(mask, values=dur):
        return float(np.sum(values[mask]))

    # spans with a spectral.morse_index ancestor (parents precede children)
    morse_id = ids.get("spectral.morse_index", -1)
    under_morse = np.zeros(len(nid), dtype=bool)
    for i in range(len(nid)):
        p = parent[i]
        if p >= 0 and (nid[p] == morse_id or under_morse[p]):
            under_morse[i] = True

    solve_idx, rhs = tr.solves()
    rhs_calls, rhs_s, nodes = rhs[:, 0], rhs[:, 1], rhs[:, 2]
    solve_parent = pname[solve_idx] if len(solve_idx) else np.array([], dtype=np.int64)
    prufer = solve_parent == morse_id
    under_ivp = solve_parent == ids.get("radial_ode.integrate_ivp", -1)

    shoots = int(np.count_nonzero(is_("radial_ode.integrate_ivp")))
    march = int(np.count_nonzero(child_of("radial_ode.integrate_ivp", "bifurcation.trace_curve")))
    folds = int(np.count_nonzero(is_("bifurcation.refine_fold")))
    fold_shoots = int(np.count_nonzero(child_of("radial_ode.integrate_ivp",
                                                "bifurcation.refine_fold")))
    samples = int(tr.extra["bifurcation.samples"])
    morse_calls = int(np.count_nonzero(is_("spectral.morse_index")))
    prufer_solves = int(np.count_nonzero(prufer))
    eigen = int(tr.extra["spectral.eigenvalues"])
    potential = is_("radial_ode.evaluate_array") & under_morse
    calls = len(solve_idx)
    rhs_total = int(rhs_calls.sum())

    return {
        "stepper.calls": calls,
        "stepper.rhs_evals": rhs_total,
        "stepper.attempts": (rhs_total - calls) // STAGES_PER_ATTEMPT,
        "stepper.nodes": int(nodes.sum()),
        "stepper.self_s": float(np.sum(dur[solve_idx]) - rhs_s.sum()),
        "stepper.rhs_s": float(rhs_s.sum()),
        "radial_ode.shoots": shoots,
        "radial_ode.shoot_s": total(is_("radial_ode.integrate_ivp")),
        "radial_ode.shoot_self_s": total(is_("radial_ode.integrate_ivp"), selft),
        "radial_ode.rhs_evals_per_shoot": float(rhs_calls[under_ivp].sum() / shoots)
        if shoots else 0.0,
        "radial_ode.singular_calls": int(np.count_nonzero(is_("radial_ode.integrate_singular"))),
        "radial_ode.singular_s": total(is_("radial_ode.integrate_singular")),
        "radial_ode.residual_s": total(is_("radial_ode.flux_residual")
                                       | is_("radial_ode.pohozaev_residual")),
        "radial_ode.profile_evals": int(np.count_nonzero(is_("radial_ode.evaluate_array"))),
        "radial_ode.profile_eval_s": total(is_("radial_ode.evaluate_array")),
        "bifurcation.traces": int(np.count_nonzero(is_("bifurcation.trace_curve"))),
        "bifurcation.samples": samples,
        "bifurcation.march_shoots": march,
        "bifurcation.rejected": march - samples,
        "bifurcation.accept_ratio": samples / march if march else 0.0,
        "bifurcation.folds": folds,
        "bifurcation.fold_shoots": fold_shoots,
        "bifurcation.shoots_per_fold": fold_shoots / folds if folds else 0.0,
        "bifurcation.trace_self_s": total(is_("bifurcation.trace_curve"), selft),
        "bifurcation.classify_s": total(is_("bifurcation.classify")),
        "bifurcation.zero_number_s": total(is_("bifurcation.zero_number")),
        "bifurcation.check_s": total(is_("bifurcation.check_separation")
                                     | is_("bifurcation.check_lower_envelope")),
        "spectral.morse_calls": morse_calls,
        "spectral.morse_s": total(is_("spectral.morse_index")),
        "spectral.prufer_solves": prufer_solves,
        "spectral.prufer_rhs_evals": int(rhs_calls[prufer].sum()),
        "spectral.prufer_s": float(np.sum(dur[solve_idx[prufer]])),
        "spectral.potential_evals": int(np.count_nonzero(potential)),
        "spectral.potential_eval_s": total(potential),
        "spectral.eigenvalues": eigen,
        # one solve per call counts the index; the rest bisect eigenvalues
        "spectral.solves_per_eigenvalue": (prufer_solves - morse_calls) / eigen
        if eigen else 0.0,
        "spectral.fd_rows": int(tr.extra["spectral.fd_rows"]),
        "spectral.fd_eig_s": total(is_("spectral.eigvalsh_tridiagonal")),
        "spectral.reduce_s": total(is_("spectral.reduce_to_disk")),
        "spectral.hardy_s": total(is_("spectral.hardy_quotient_xi_n")
                                  | is_("spectral.hardy_constant")),
        "weights.parse_calls": int(np.count_nonzero(is_("weights.parse_weight"))),
        "weights.parse_s": total(is_("weights.parse_weight")),
        "weights.ratio_sign_s": total(is_("weights.ratio_derivative_sign")),
        "cli.commands": int(np.count_nonzero(is_("cli.main"))),
        "cli.self_s": total(is_("cli.main"), selft),
        "cli.bytes_written": int(tr.extra["cli.bytes_written"]),
    }


def layer_seconds(tr: Tracer, windows) -> dict[str, float]:
    """Seconds inside each layer's calls, callees included, counted for the
    spans that start inside one of ``windows`` (sorted disjoint (start, end)
    pairs). A span inside another span of its own layer is not counted again.
    This is the time a change to the layer, to its code or to the work it
    asks of the layers below, can move."""
    names, nid, parent, start, end = tr.arrays()
    layer = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])[nid]
    # bit k of above[i]: span i has an ancestor in layer k (parents precede children)
    above = [0] * len(nid)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            above[i] = above[p] | (1 << int(layer[p]))
    outer = (np.array(above, dtype=np.int64) >> layer) & 1 == 0
    w_start, w_end = np.asarray(windows, dtype=float).reshape(-1, 2).T
    w = np.searchsorted(w_start, start, side="right") - 1
    counted = outer & (w >= 0) & (start < w_end[np.maximum(w, 0)])
    dur = end - start
    return {name: float(np.sum(dur[counted & (layer == k)])) for k, name in enumerate(LAYERS)}
