"""Command-line surface: trace, classify, verify, spectral.

Every artifact embeds its run manifest (as a JSON comment block in CSV, an
XML comment in SVG, a top-level key in JSON) and is written atomically.
Outputs are byte-deterministic: no timestamps, no randomness, fixed float
formatting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._stepper import IntegrationError
from .bifurcation import (
    check_lower_envelope,
    check_separation,
    classify,
    trace_curve,
)
from .radial_ode import (
    ProblemConfig,
    explicit_lambda_h,
    flux_residual,
    integrate_ivp,
    integrate_singular,
    pohozaev_residual,
)
from .spectral import (
    MethodDisagreement,
    explicit_uh,
    hardy_constant,
    hardy_quotient_xi_n,
    instability_witness_leq9,
    morse_index,
    reduce_to_disk,
)
from .weights import make_ah, parse_weight, ratio_derivative_sign

SINGULAR_TOL = 1e-12
IDENTITY_TOL = 1e-6
GAP_TOL = -1e-10


# ---------------------------------------------------------------------------
# Serialization helpers.


def _fmt(x: float) -> str:
    """Shortest round-trip decimal, uppercase exponent marker."""
    return repr(float(x)).upper()


def _json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_json(v) for v in seq) + "]"
        items = [inner + _json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _manifest(args, artifacts, tolerances=None) -> dict:
    """The run manifest, read off the parsed flags.

    Commands with the problem flags record their weight and tolerances;
    the others record the a_h weight of their --h, if they have one.
    """
    if hasattr(args, "weight"):
        weight_spec, tolerances = args.weight, (args.rtol, args.atol)
    else:
        weight_spec = f"ah:h={args.h}" if hasattr(args, "h") else None
    return {
        "command": " ".join(getattr(args, k) for k in ("command", "check", "what")
                            if hasattr(args, k)),
        "dimension": getattr(args, "dim", 10),  # the Hardy table is in dimension 10
        "weight_spec": weight_spec,
        "tolerances": list(tolerances) if tolerances is not None else None,
        "beta_range": [args.beta_min, args.beta_max] if hasattr(args, "beta_min") else None,
        "seed_free": True,
        "artifacts": list(artifacts),
    }


def _emit(args, fields: dict, ok: bool = True, tolerances=None) -> int:
    """Write the manifest and `fields` as one JSON object to --out (default
    stdout). Returns the exit code: 0 if ok, else 1."""
    manifest = _manifest(args, [args.out] if args.out else [], tolerances)
    text = _json({"manifest": manifest, **fields}) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Curve artifacts.


def _curve_csv(curve, manifest: dict) -> str:
    lines = ["# " + ln for ln in _json(manifest).splitlines()]
    lines.append("beta,lambda,alpha,dlambda_dbeta")
    rows = [(s.beta, s.lam, s.alpha, s.dlambda_dbeta, None) for s in curve.samples]
    rows += [(t.beta, t.lam, t.alpha, 0.0, t.kind) for t in curve.turning_points]
    rows.sort(key=lambda row: row[0])
    for beta, lam, alpha, dlam, kind in rows:
        if kind is not None:
            lines.append(f"# turning_point kind={kind}")
        lines.append(f"{beta:.17G},{lam:.17G},{alpha:.17G},{dlam:.17G}")
    return "\n".join(lines) + "\n"


def _svg_coords(vals, lo, hi, pix_lo, pix_hi):
    span = hi - lo if hi > lo else 1.0
    return [(pix_lo + (v - lo) / span * (pix_hi - pix_lo)) for v in vals]


def _curve_svg(curve, manifest: dict) -> str:
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    lams = [s.lam for s in curve.samples]
    alphas = [s.alpha for s in curve.samples]
    x_lo, x_hi = 0.0, max(lams) * 1.05
    pad = 0.05 * (max(alphas) - min(alphas) or 1.0)
    y_lo, y_hi = min(alphas) - pad, max(alphas) + pad
    xs = _svg_coords(lams, x_lo, x_hi, ml, width - mr)
    ys = _svg_coords(alphas, y_lo, y_hi, height - mb, mt)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append("<!--")
    parts.append(_json(manifest).replace("--", "-\\u002d"))  # XML comments forbid "--"
    parts.append("-->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>')
    for i in range(6):
        fx = x_lo + (x_hi - x_lo) * i / 5.0
        px = ml + (width - ml - mr) * i / 5.0
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb}" x2="{px:.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{fx:.3G}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 5.0
        py = (height - mb) - (height - mb - mt) * i / 5.0
        parts.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{fy:.3G}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle">lambda</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.2f})">'
        "alpha</text>"
    )
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>')
    for tp in curve.turning_points:
        tx = _svg_coords([tp.lam], x_lo, x_hi, ml, width - mr)[0]
        ty = _svg_coords([tp.alpha], y_lo, y_hi, height - mb, mt)[0]
        parts.append(
            f'<circle cx="{tx:.2f}" cy="{ty:.2f}" r="4" fill="none" '
            'stroke="#c02020" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{tx + 6:.2f}" y="{ty - 6:.2f}" font-size="10" '
            f'fill="#c02020">{tp.kind}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Shared flag plumbing.


def _real(text: str) -> float:
    """argparse type of every float flag: a finite real."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"need a finite real, got {text!r}")
    return x


def _add_problem_flags(p: argparse.ArgumentParser, need_range: bool) -> None:
    p.add_argument("--dim", type=int, required=True, help="space dimension N (3..12)")
    p.add_argument("--weight", default="const",
                   help="weight spec: const | ah:h=H | polyexp:c1,..;d=D")
    p.add_argument("--rtol", type=_real, default=1e-10)
    p.add_argument("--atol", type=_real, default=1e-12)
    if need_range:
        p.add_argument("--beta-min", type=_real, required=True)
        p.add_argument("--beta-max", type=_real, required=True)
        p.add_argument("--max-step", type=_real, default=0.25)


def _build_cfg(args) -> ProblemConfig:
    weight = parse_weight(args.weight, dim=args.dim)
    return ProblemConfig(dim=args.dim, weight=weight,
                         rel_tol=args.rtol, abs_tol=args.atol)


# ---------------------------------------------------------------------------
# Commands. Each returns its exit code; main turns a ValueError (invalid
# input) into a usage error, exit 2, and an IntegrationError into exit 3.


def _cmd_trace(args) -> int:
    cfg = _build_cfg(args)
    manifest = _manifest(args, [args.out] + ([args.svg] if args.svg else []))
    curve = trace_curve(cfg, args.beta_min, args.beta_max, args.max_step)
    if not curve.complete:
        sys.stderr.write(f"trace truncated: {curve.diagnostic}\n")
        return 3
    _atomic_write(args.out, _curve_csv(curve, manifest))
    if args.svg:
        _atomic_write(args.svg, _curve_svg(curve, manifest))
    return 0


def _cmd_classify(args) -> int:
    cfg = _build_cfg(args)
    if args.beta_max < 30.0:
        raise ValueError("classification needs the window to reach beta >= 30")
    curve = trace_curve(cfg, args.beta_min, args.beta_max, args.max_step)
    if not curve.complete:
        sys.stderr.write(f"classification failed: {curve.diagnostic}\n")
        return 3
    lam_star, _ = integrate_singular(cfg)
    report = classify(cfg, curve, lam_star)
    ratio = ratio_derivative_sign(cfg.weight, 10) if args.dim == 10 else None
    _emit(args, {
        "dimension": args.dim,
        "weight_spec": args.weight,
        "beta_range": [args.beta_min, args.beta_max],
        "lambda_star": report.lambda_star,
        "lambda_extremal": report.lambda_extremal,
        "turning_points": [
            {"beta": t.beta, "lambda": t.lam, "alpha": t.alpha, "kind": t.kind}
            for t in report.turning_points
        ],
        "oscillation_count": report.oscillation_count,
        "type": report.diagram_type,
        "extremal_bounded": report.extremal_bounded,
        "ratio_derivative_sign": ratio,
    })
    if report.diagram_type == "Undetermined" and args.strict:
        sys.stderr.write("classification is Undetermined (strict mode)\n")
        return 3
    return 0


def _cmd_verify_singular(args) -> int:
    """verify singular: the singular solution of a_h against the explicit
    pair U_h, lambda_h.

    For a_h the singular series in the Emden variable reaches r = 1, so
    this checks the series' recurrence, with the weight's polynomial and
    tilt, against U_h: W = -h r^2 / (2N) (`radial_ode._SingularSeries`).
    Hypothesis: h > -2(N-2), so that a_h is positive on [0, 1]; then U_h
    solves the equation exactly in every N >= 3, and it is the singular
    solution, the one bounded in W at r = 0, since perturbations of the
    -2 log r branch grow like r^mu, Re mu < 0, towards r = 0. make_ah
    enforces the bound on h (exit 2); nothing else needs enforcing.
    """
    cfg = ProblemConfig(dim=args.dim, weight=make_ah(args.h, args.dim),
                        rel_tol=1e-13, abs_tol=1e-13)
    lam_exact = explicit_lambda_h(args.dim, args.h)
    lam_star, profile = integrate_singular(cfg)
    rel_err = abs(lam_star - lam_exact) / lam_exact
    n = 2.0 * args.dim
    exact = (math.log(2.0 * (args.dim - 2.0)) - 2.0 * np.log(profile.radii)
             - args.h * profile.radii ** 2 / n)
    sup_gap = float(np.max(np.abs(profile.values - exact)))
    ok = rel_err <= SINGULAR_TOL and sup_gap <= SINGULAR_TOL
    return _emit(args, {
        "dim": args.dim,
        "h": args.h,
        "lambda_star": lam_star,
        "lambda_exact": lam_exact,
        "relative_error": rel_err,
        "sup_profile_gap": sup_gap,
        "tolerance": SINGULAR_TOL,
        "pass": ok,
    }, ok, tolerances=(cfg.rel_tol, cfg.abs_tol))


def _cmd_verify_identity(args) -> int:
    """verify pohozaev and verify flux: one shoot, one identity residual."""
    cfg = _build_cfg(args)
    shoot = integrate_ivp(cfg, args.beta)
    if args.check == "pohozaev":
        res, mu = pohozaev_residual(cfg, shoot, args.mu), {"mu": args.mu}
    else:
        res, mu = flux_residual(cfg, shoot), {}
    ok = res <= IDENTITY_TOL
    return _emit(args, {
        "dim": args.dim,
        "weight_spec": args.weight,
        "beta": args.beta,
        **mu,
        "residual": res,
        "tolerance": IDENTITY_TOL,
        "pass": ok,
    }, ok)


def _cmd_verify_separation(args) -> int:
    cfg = _build_cfg(args)
    h = args.h if args.h is not None else cfg.weight.h
    if h is None:
        raise ValueError("--h is required when the weight is not in the explicit family")
    gap_v, gap_w, r_h = check_separation(cfg, h, args.beta, args.gamma)
    ok = gap_v > GAP_TOL and gap_w > GAP_TOL
    return _emit(args, {
        "dim": args.dim,
        "weight_spec": args.weight,
        "h": h,
        "beta": args.beta,
        "gamma": args.gamma,
        "min_gap_v": gap_v,
        "min_gap_weighted": gap_w,
        "r_h": r_h,
        "tolerance": GAP_TOL,
        "pass": ok,
    }, ok)


def _cmd_verify_envelope(args) -> int:
    cfg = _build_cfg(args)
    gap = check_lower_envelope(cfg, args.beta, args.gamma, args.eps0)
    ok = gap > GAP_TOL
    return _emit(args, {
        "dim": args.dim,
        "weight_spec": args.weight,
        "beta": args.beta,
        "gamma": args.gamma,
        "eps0": args.eps0,
        "gap": gap,
        "tolerance": GAP_TOL,
        "pass": ok,
    }, ok)


def _cmd_spectral_morse(args) -> int:
    k2 = reduce_to_disk(explicit_uh(args.dim, args.h))
    try:
        rep = morse_index(k2, cap=args.cap)
    except MethodDisagreement as exc:
        sys.stderr.write(f"method disagreement: {exc}\n")
        return 1
    return _emit(args, {
        "dim": args.dim,
        "h": args.h,
        "cap": args.cap,
        "morse_index": {"capped": args.cap} if rep.capped else rep.morse_index,
        "prufer_count": rep.prufer_count,
        "fd_count": rep.fd_count,
        "eigenvalues_below_zero": list(rep.eigenvalues_below_zero),
        "fd_eigenvalues": list(rep.fd_eigenvalues),
        "method_gap": rep.method_gap,
        "stable": rep.stable,
        "evidence": rep.evidence,
    })


def _cmd_spectral_hardy(args) -> int:
    if args.n < 1 or args.n > 64:
        raise ValueError(f"--n must lie in [1, 64], got {args.n}")
    H = hardy_constant()
    table = [{"n": n, "R": hardy_quotient_xi_n(10, n)} for n in range(1, args.n + 1)]
    return _emit(args, {"hardy_constant": H, "quotients": table})


def _cmd_spectral_witness(args) -> int:
    rep = instability_witness_leq9(args.dim, args.h, args.eps, args.j)
    ok = rep.q_value < 0.0
    return _emit(args, {
        "dim": args.dim,
        "h": args.h,
        "eps": args.eps,
        "j": args.j,
        "q_value": rep.q_value,
        "delta": rep.delta,
        "support": list(rep.support),
        "pass": ok,
    }, ok)


# ---------------------------------------------------------------------------
# Parser assembly.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every in-process `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="Radial Gelfand problem: bifurcation diagrams, singular "
                    "solutions, Morse indices, Hardy quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace the bifurcation curve to CSV/SVG")
    _add_problem_flags(p_trace, need_range=True)
    p_trace.add_argument("--out", required=True, help="output CSV path")
    p_trace.add_argument("--svg", default=None, help="optional SVG plot path")
    p_trace.set_defaults(func=_cmd_trace)

    p_cls = sub.add_parser("classify", help="classify the diagram (Type I/II/III)")
    _add_problem_flags(p_cls, need_range=True)
    p_cls.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_cls.add_argument("--strict", action="store_true",
                       help="exit 3 when the result is Undetermined")
    p_cls.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="check identities and inequalities")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    pv = vsub.add_parser("singular", help="explicit singular family exactness")
    pv.add_argument("--dim", type=int, required=True)
    pv.add_argument("--h", type=_real, required=True)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify_singular)

    pv = vsub.add_parser("pohozaev", help="boundary-interior identity residual")
    _add_problem_flags(pv, need_range=False)
    pv.add_argument("--beta", type=_real, required=True)
    pv.add_argument("--mu", type=_real, default=0.0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify_identity)

    pv = vsub.add_parser("flux", help="radial flux identity residual")
    _add_problem_flags(pv, need_range=False)
    pv.add_argument("--beta", type=_real, required=True)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify_identity)

    pv = vsub.add_parser("separation", help="profile ordering gaps")
    _add_problem_flags(pv, need_range=False)
    pv.add_argument("--h", type=_real, default=None,
                    help="family parameter (defaults to the weight's own h)")
    pv.add_argument("--beta", type=_real, required=True)
    pv.add_argument("--gamma", type=_real, required=True)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify_separation)

    pv = vsub.add_parser("envelope", help="lower envelope bound gap")
    _add_problem_flags(pv, need_range=False)
    pv.add_argument("--beta", type=_real, required=True)
    pv.add_argument("--gamma", type=_real, required=True)
    pv.add_argument("--eps0", type=_real, default=0.0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify_envelope)

    p_spec = sub.add_parser("spectral", help="Morse index, Hardy table, witnesses")
    ssub = p_spec.add_subparsers(dest="what", required=True)

    ps = ssub.add_parser("morse", help="Morse index of the explicit singular solution")
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--h", type=_real, required=True)
    ps.add_argument("--cap", type=int, default=16)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_spectral_morse)

    ps = ssub.add_parser("hardy", help="Hardy constant and cutoff quotient table")
    ps.add_argument("--n", type=int, default=16)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_spectral_hardy)

    ps = ssub.add_parser("witness", help="negative-energy witness for N <= 9")
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--h", type=_real, required=True)
    ps.add_argument("--eps", type=_real, required=True)
    ps.add_argument("--j", type=int, required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_spectral_witness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes WeightParseError
        parser.error(str(exc))  # exits 2
    except IntegrationError as exc:
        sys.stderr.write(f"integration failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
