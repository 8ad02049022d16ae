import mpmath
import numpy as np
import pytest

from gelfand import hardy_constant, hardy_quotient_xi_n
from gelfand.spectral import _hardy_nodes

H = hardy_constant()


def _oracle_quotient(n):
    """R_n by mpmath.quad at 30 digits, split at the kink s = n, with the
    cut piece taken to s = inf (no truncation, no closed-form tail)."""
    with mpmath.workdps(30):
        z = mpmath.besseljzero(0, 1)

        def parts(s):
            r = mpmath.exp(1 - s)
            return mpmath.besselj(0, z * r), -z * mpmath.besselj(1, z * r) * r, r

        def num(s):
            phi, dphi_r, _ = parts(s)
            cut = min(n / s, 1)
            return (cut * dphi_r + (n * phi / s ** 2 if s > n else 0)) ** 2

        def den(s):
            phi, _, r = parts(s)
            return (min(n / s, 1) * phi * r) ** 2

        pieces = ([1, n], [n, mpmath.inf]) if n > 1 else ([1, mpmath.inf],)
        top = sum(mpmath.quad(num, piece) for piece in pieces)
        bottom = sum(mpmath.quad(den, piece) for piece in pieces)
        return float(top / bottom)


@pytest.mark.parametrize("n", [1, 2, 23, 24, 25, 64])
def test_quotient_against_mpmath(n):
    exact = _oracle_quotient(n)
    assert abs(hardy_quotient_xi_n(10, n) - exact) <= 1e-13 * exact


def test_uncut_panels_hold_the_full_disk_integrals():
    # phi = J0(z r) with J0(z) = 0: int_0^1 phi'^2 r dr = z^2 J1(z)^2 / 2 and
    # int_0^1 phi^2 r dr = J1(z)^2 / 2; the panels stop at s = 24 (r = e^{-23})
    s, w, r, phi, dphi_r = _hardy_nodes()
    assert s.min() > 1.0 and s.max() < 24.0
    with mpmath.workdps(30):
        z = mpmath.besseljzero(0, 1)
        j1z = mpmath.besselj(1, z)
        grad, mass = float(z * z * j1z * j1z / 2), float(j1z * j1z / 2)
    assert abs(w @ (dphi_r * dphi_r) - grad) <= 1e-14 * grad
    assert abs(w @ ((phi * r) ** 2) - mass) <= 1e-14 * mass


def test_quotients_decrease_toward_constant():
    rs = [hardy_quotient_xi_n(10, n) for n in range(1, 65)]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    # never undershoot the sharp constant
    assert all(r >= H - 1e-6 for r in rs)
    # ... and get within 0.5 of it by n = 64 (near-optimality at desk scale)
    assert rs[-1] - H < 0.5


def test_quotient_above_constant_individually():
    assert hardy_quotient_xi_n(10, 1) > H
    assert hardy_quotient_xi_n(10, 16) > H


def test_quotient_independent_of_dimension():
    # the r^{(2-N)/2} substitution cancels N exactly; every dimension sees
    # the same two-dimensional reduced quotient
    for n in (1, 4, 16):
        base = hardy_quotient_xi_n(10, n)
        assert hardy_quotient_xi_n(3, n) == base
        assert hardy_quotient_xi_n(7, n) == base


def test_quotient_validation():
    with pytest.raises(ValueError):
        hardy_quotient_xi_n(10, 0)
    with pytest.raises(ValueError):
        hardy_quotient_xi_n(2, 1)
    with pytest.raises(ValueError):
        hardy_quotient_xi_n(10, 2.5)
    for bad in ((10, True), (True, 3), (np.bool_(True), 3)):
        with pytest.raises(ValueError, match="integer"):
            hardy_quotient_xi_n(*bad)


def test_quotient_rejects_n_beyond_its_cap():
    # the tail n^2 / (3 n^3) overflowed a float for n = 10**200
    assert hardy_quotient_xi_n(10, 2 ** 53) == pytest.approx(hardy_constant(), rel=1e-15)
    for n in (2 ** 53 + 1, 10 ** 200):
        with pytest.raises(ValueError, match=r"\[1, 2\*\*53\]"):
            hardy_quotient_xi_n(10, n)


def test_quotient_accepts_numpy_integers():
    assert hardy_quotient_xi_n(np.int64(10), np.int64(3)) == hardy_quotient_xi_n(10, 3)
