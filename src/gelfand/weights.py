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
    # is finite and positive on [0, 1] if it is at r = 0 and r = 1
    _check_admissible(w, 1)
    return w


def weight_fn(w: Weight):
    """Scalar a(r) for the shooting right-hand sides; raises where a(r) <= 0."""
    coeffs, tilt = w.coeffs, w.tilt
    if not coeffs and tilt == 0.0:
        return lambda r: 1.0

    def a_of(r):
        p = 1.0
        if coeffs:
            r2 = r * r
            q = r2
            for c in coeffs:
                p += c * q
                q *= r2
        if tilt != 0.0:
            p *= math.exp(tilt * r * r)
        if p <= 0.0:
            raise ValueError(f"weight {w.spec!r} nonpositive at r={r}")
        return p

    return a_of


def weight_arrays(w: Weight, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (a(r), a'(r)) on an array of radii, without the positivity check."""
    p = np.ones_like(r)
    dp = np.zeros_like(r)
    if w.coeffs:
        r2 = r * r
        q = np.ones_like(r)
        for i, c in enumerate(w.coeffs, start=1):
            dp += (2 * i) * c * q * r
            q = q * r2
            p += c * q
    if w.tilt != 0.0:
        e = np.exp(w.tilt * r * r)
        return p * e, (dp + 2.0 * w.tilt * r * p) * e
    return p, dp


def _check_admissible(w: Weight, samples: int) -> None:
    """WeightParseError unless a(r) is finite and positive at r = i / samples."""
    a_of = weight_fn(w)
    for i in range(samples + 1):
        r = i / samples
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
    1e-12 of zero count as nonpositive.
    """
    if reference is None:
        if dim != 10:
            raise ValueError("default comparison weight a_H is specific to dimension 10")
        from .spectral import hardy_constant

        reference = make_ah(hardy_constant(), dim)
    r = np.arange(1, _RATIO_SAMPLES + 1) / _RATIO_SAMPLES
    a, da = weight_arrays(w, r)
    b, db = weight_arrays(reference, r)
    for wt, values in ((w, a), (reference, b)):
        if np.any(values <= 0.0):
            raise ValueError(f"weight {wt.spec!r} nonpositive on (0, 1]")
    pos = da / a - db / b > _RATIO_BAND  # sign of (a/b)' = sign of (log(a/b))'
    if pos.all():
        return "PositiveEverywhere"
    return "Mixed" if pos.any() else "NonPositiveEverywhere"
