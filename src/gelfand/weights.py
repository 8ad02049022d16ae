"""Radial weight families a(|x|) and their admissibility checks.

Grammar for weight specs:

    const
    ah:h=<real>
    polyexp:c1,...,ck;d=<real>

`polyexp` is a(r) = (1 + sum_i c_i r^{2i}) * exp(d r^2). `ah` is the
one-parameter comparison family

    a_h(r) = (1 + h r^2 / (2(N-2))) * exp(h r^2 / (2N)),

which depends on the dimension, so parsing an `ah` spec requires `dim`.
All weights satisfy a(0) = 1 and a'(0) = 0 by construction; positivity on
[0, 1] is validated on a sample grid at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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

    @property
    def is_const(self) -> bool:
        return not self.coeffs and self.tilt == 0.0


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
        w = Weight(spec=s, coeffs=coeffs, tilt=tilt)
        _check_positive(w)
        return w
    raise WeightParseError(f"unknown weight spec: {spec!r}")


def make_ah(h: float, dim: int) -> Weight:
    """Build the comparison weight a_h with coefficients bound to `dim`."""
    if not 3 <= dim <= 12:
        raise ValueError(f"dimension {dim} out of range [3, 12]")
    if h <= -2.0 * (dim - 2):
        raise ValueError(f"a_h requires h > -2(N-2) = {-2.0 * (dim - 2)}, got {h}")
    if h == 0.0:
        # a_0 is identically 1; keep it bit-identical to const
        return Weight(spec="ah:h=0", coeffs=(), tilt=0.0, h=0.0, dim=dim)
    return Weight(
        spec=f"ah:h={h!r}",
        coeffs=(h / (2.0 * (dim - 2)),),
        tilt=h / (2.0 * dim),
        h=h,
        dim=dim,
    )


def weight_eval(w: Weight, r: float) -> tuple[float, float]:
    """Return (a(r), a'(r)). Raises if the weight is nonpositive at r."""
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    p = 1.0
    dp = 0.0
    if w.coeffs:
        r2 = r * r
        q = 1.0
        for i, c in enumerate(w.coeffs, start=1):
            dp += (2 * i) * c * q * r
            q *= r2
            p += c * q
    if w.tilt == 0.0:
        a, da = p, dp
    else:
        e = math.exp(w.tilt * r * r)
        a = p * e
        da = (dp + 2.0 * w.tilt * r * p) * e
    if a <= 0.0:
        raise ValueError(f"weight {w.spec!r} nonpositive at r={r}")
    return a, da


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


def _check_positive(w: Weight) -> None:
    try:
        for i in range(_POSITIVITY_SAMPLES + 1):
            weight_eval(w, i / _POSITIVITY_SAMPLES)
    except ValueError as exc:
        raise WeightParseError(str(exc)) from None


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
    any_pos = False
    any_nonpos = False
    for i in range(1, _RATIO_SAMPLES + 1):
        r = i / _RATIO_SAMPLES
        a, da = weight_eval(w, r)
        b, db = weight_eval(reference, r)
        d = da / a - db / b  # sign of (a/b)' = sign of (log(a/b))'
        if d > _RATIO_BAND:
            any_pos = True
        else:
            any_nonpos = True
        if any_pos and any_nonpos:
            return "Mixed"
    if any_pos:
        return "PositiveEverywhere"
    return "NonPositiveEverywhere"
