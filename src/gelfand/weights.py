"""Radial weight families a(|x|) and their admissibility checks.

Grammar for weight specs:

    const
    ah:h=<real>
    polyexp:c1,...,ck;d=<real>

`polyexp` is a(r) = (1 + sum_i c_i r^{2i}) * exp(d r^2). `ah` is the
one-parameter comparison family

    a_h(r) = (1 + h r^2 / (2(N-2))) * exp(h r^2 / (2N)),

which depends on the dimension, so parsing an `ah` spec requires `dim`.
All weights satisfy a(0) = 1 and a'(0) = 0 by construction; every real in
a spec must be finite, and a(r) must be finite and positive on [0, 1]
(validated on a sample grid at parse time).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

_POSITIVITY_SAMPLES = 4096
_RATIO_SAMPLES = 4096
_RATIO_BAND = 1e-12


class WeightParseError(ValueError):
    pass


@dataclass(frozen=True)
class Weight:
    """Even-polynomial-times-Gaussian-tilt radial weight."""

    spec: str                      # canonical spec string, round-trips through parse_weight
    coeffs: tuple[float, ...]      # c_i for r^{2i}, i = 1..k
    tilt: float                    # d in exp(d r^2)
    h: float | None = None         # set when the weight is the a_h family
    dim: int | None = None         # dimension the a_h coefficients were bound to
    a2pp: float = field(init=False)  # a''(0), cached

    def __post_init__(self):
        c1 = self.coeffs[0] if self.coeffs else 0.0
        object.__setattr__(self, "a2pp", 2.0 * (c1 + self.tilt))


def parse_weight(spec: str, dim: int | None = None) -> Weight:
    """Parse a weight spec string. `dim` is required for the ah family."""
    s = spec.strip()
    if s == "const":
        return Weight(spec="const", coeffs=(), tilt=0.0)
    if s.startswith("ah:"):
        m = re.fullmatch(r"ah:h=([-+0-9.eE]+)", s)
        if m is None:
            raise WeightParseError(f"malformed ah weight spec: {spec!r}")
        try:
            h = float(m.group(1))
        except ValueError:
            raise WeightParseError(f"bad real in weight spec: {spec!r}") from None
        if dim is None:
            raise WeightParseError("ah weight requires a dimension to bind its coefficients")
        return make_ah(h, dim)
    if s.startswith("polyexp:"):
        body = s[len("polyexp:"):]
        if ";" not in body:
            raise WeightParseError(f"polyexp spec needs ';d=<real>': {spec!r}")
        coeff_part, _, tail = body.partition(";")
        m = re.fullmatch(r"d=([-+0-9.eE]+)", tail)
        if m is None:
            raise WeightParseError(f"malformed polyexp tail: {spec!r}")
        try:
            tilt = float(m.group(1))
            coeffs = tuple(float(c) for c in coeff_part.split(",")) if coeff_part else ()
        except ValueError:
            raise WeightParseError(f"bad real in weight spec: {spec!r}") from None
        if not all(map(math.isfinite, (tilt, *coeffs))):
            raise WeightParseError(f"non-finite real in weight spec: {spec!r}")
        w = Weight(spec=s, coeffs=coeffs, tilt=tilt)
        _check_admissible(w, _POSITIVITY_SAMPLES)
        return w
    raise WeightParseError(f"unknown weight spec: {spec!r}")


def make_ah(h: float, dim: int) -> Weight:
    """Build the comparison weight a_h with coefficients bound to `dim`."""
    if not isinstance(dim, Integral):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if not 3 <= dim <= 12:
        raise ValueError(f"dimension {dim} out of range [3, 12]")
    if not math.isfinite(h):
        raise WeightParseError(f"a_h requires a finite h, got {h}")
    if h <= -2.0 * (dim - 2):
        raise ValueError(f"a_h requires h > -2(N-2) = {-2.0 * (dim - 2)}, got {h}")
    if h == 0.0:
        # a_0 is identically 1; keep it bit-identical to const
        return Weight(spec="ah:h=0", coeffs=(), tilt=0.0, h=0.0, dim=dim)
    w = Weight(
        spec=f"ah:h={h!r}",
        coeffs=(h / (2.0 * (dim - 2)),),
        tilt=h / (2.0 * dim),
        h=h,
        dim=dim,
    )
    # both factors of a_h are monotone in r with the sign of h, so a(r)
    # is finite and positive on [0, 1] if it is at r = 0, where it is 1,
    # and at r = 1
    _check_at(w, weight_fn(w), 1.0)
    return w


def weight_source(k: int, tilted: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(params, lines) for the weights with k coefficients, tilted or not:
    source lines that set a = a(r) from r, reading the params c1, ..., ck,
    d and spec, which `weight_args` gives a weight's values for.

    The one scalar form of a(r) = (1 + c1 r^2 + ... + ck r^{2k}) e^{d r^2}:
    `weight_fn` compiles it, and the shooting right-hand sides
    (``radial_ode``) inline it. The sum runs from the left, with r^{2i} as
    the product r^{2i-2} r^2. Except for the constant weight, a nonpositive
    a(r) raises ValueError ``weight '<spec>' nonpositive at r=<r>``.
    """
    params = (*(f"c{i}" for i in range(1, k + 1)), "d", "spec")
    if not k and not tilted:
        return params, ("a = 1.0",)
    lines = ["r2 = r * r"] if k else []
    lines += [f"r{2 * i} = r{2 * i - 2} * r2" for i in range(2, k + 1)]
    poly = "1.0" + "".join(f" + c{i} * r{2 * i}" for i in range(1, k + 1))
    lines += [f"a = ({poly}) * exp(d * r * r)" if tilted else f"a = {poly}",
              "if a <= 0.0:",
              "    raise ValueError(f\"weight {spec!r} nonpositive at r={r}\")"]
    return params, tuple(lines)


def weight_args(w: Weight) -> tuple:
    """The values of `weight_source`'s params for the weight w."""
    return (*w.coeffs, w.tilt, w.spec)


@functools.cache
def _weight_factory(k: int, tilted: bool):
    """make(*weight_args(w)) -> a_of for the weights of one shape."""
    params, lines = weight_source(k, tilted)
    source = [f"def make({', '.join(params)}):", "    def a_of(r):",
              *(f"        {line}" for line in lines), "        return a", "    return a_of"]
    namespace = {"exp": math.exp}
    exec(compile("\n".join(source), f"<weight, {k} coefficients>", "exec"), namespace)
    return namespace["make"]


def weight_fn(w: Weight):
    """Scalar a(r), compiled from `weight_source` once per shape (number of
    coefficients, tilt or none); raises ValueError where a(r) <= 0."""
    return _weight_factory(len(w.coeffs), w.tilt != 0.0)(*weight_args(w))


def weight_arrays(w: Weight, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """Return (a(r), a'(r), a''(r), a'''(r)) on an array of radii, without
    the positivity check."""
    p = np.ones_like(r)
    dp = np.zeros_like(r)
    ddp = np.zeros_like(r)
    dddp = np.zeros_like(r)
    if w.coeffs:
        r2 = r * r
        q = np.ones_like(r)   # r^{2i-2}
        q3 = np.zeros_like(r)  # r^{2i-3}; 0 at i = 1, whose r^2 has no third derivative
        for i, c in enumerate(w.coeffs, start=1):
            dddp += (2 * i) * (2 * i - 1) * (2 * i - 2) * c * q3
            ddp += (2 * i) * (2 * i - 1) * c * q
            dp += (2 * i) * c * q * r
            q3 = q * r
            q = q * r2
            p += c * q
    if w.tilt != 0.0:
        # a = p E with E = exp(d r^2): E' = 2 d r E, E'' = (2 d + 4 d^2 r^2) E,
        # E''' = 2 d r (6 d + 4 d^2 r^2) E
        e = np.exp(w.tilt * r * r)
        tr = 2.0 * w.tilt * r
        e2 = 2.0 * w.tilt + tr * tr
        return (p * e, (dp + tr * p) * e, (ddp + 2.0 * tr * dp + e2 * p) * e,
                (dddp + 3.0 * (tr * ddp + e2 * dp) + tr * (6.0 * w.tilt + tr * tr) * p) * e)
    return p, dp, ddp, dddp


def log_weight(w: Weight, r: np.ndarray) -> np.ndarray:
    """log a(r) on an array of radii: log1p of the polynomial's terms beyond
    its 1, plus d r^2, so that it keeps its relative accuracy near r = 0,
    where log a is about a''(0) r^2 / 2."""
    r2 = r * r
    q = np.zeros_like(r)
    for c in reversed(w.coeffs):
        q = (q + c) * r2
    return np.log1p(q) + w.tilt * r2


def _check_admissible(w: Weight, samples: int) -> None:
    """WeightParseError unless a(r) is finite and positive at r = i / samples.

    All samples are screened at once on arrays; the scalar `weight_fn`, run
    at each flagged radius in turn, decides and words the error. The screen
    flags every radius the scalar can reject: its polynomial is the same
    arithmetic, and where |d r^2| <= 708, so that exp(d r^2) is a normal
    float, numpy's and math's exponentials may differ only in the last bit,
    which a margin at both ends of the float range covers. Beyond that,
    where the exponential is subnormal or near overflow, the scalar decides.
    """
    r = np.arange(samples + 1) / samples
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        a = weight_arrays(w, r)[0]
        ok = (a > 1e-300) & (a < 1e300) & (np.abs(w.tilt * r * r) <= 708.0)
        flagged = np.flatnonzero(~ok)
    a_of = weight_fn(w)
    for i in flagged.tolist():
        _check_at(w, a_of, i / samples)


def _check_at(w: Weight, a_of, r: float) -> None:
    """WeightParseError unless the scalar a_of(r) of w is finite and positive."""
    try:
        finite = math.isfinite(a_of(r))
    except OverflowError:
        finite = False
    except ValueError as exc:
        raise WeightParseError(str(exc)) from None
    if not finite:
        raise WeightParseError(f"weight {w.spec!r} not finite at r={r}")


def ratio_derivative_sign(w: Weight, dim: int, reference: Weight | None = None) -> str:
    """Sign classification of (a / a_ref)' on (0, 1].

    The default reference is a_H (H the Hardy constant) in the given
    dimension, which requires dim == 10. Returns one of
    'NonPositiveEverywhere', 'PositiveEverywhere', 'Mixed'; values within
    1e-12 of zero count as nonpositive. A reference equal to w is
    evaluated once.
    """
    if reference is None:
        if dim != 10:
            raise ValueError("default comparison weight a_H is specific to dimension 10")
        from .spectral import hardy_constant

        reference = make_ah(hardy_constant(), dim)
    r = np.arange(1, _RATIO_SAMPLES + 1) / _RATIO_SAMPLES
    a, da, _, _ = weight_arrays(w, r)
    b, db = (a, da) if reference == w else weight_arrays(reference, r)[:2]
    for wt, values in ((w, a), (reference, b)):
        if np.any(values <= 0.0):
            raise ValueError(f"weight {wt.spec!r} nonpositive on (0, 1]")
    pos = da / a - db / b > _RATIO_BAND  # sign of (a/b)' = sign of (log(a/b))'
    if pos.all():
        return "PositiveEverywhere"
    return "Mixed" if pos.any() else "NonPositiveEverywhere"
