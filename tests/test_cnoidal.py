"""Every scheme against exact many-mode solutions it did not compute.

The cubic NLS i u_t + u_xx = lam |u|^2 u on the torus has cnoidal waves,
standing waves phi(x) e^{i Omega t} whose profile is a Jacobi elliptic
function of modulus k with period 2 pi, and whose Fourier coefficients are
closed forms in the nome q = e^{-pi K'/K}:

- focusing (lam = -1): phi = a dn(bx, k), b = K/pi, a = sqrt(2) b,
  Omega = b^2 (2 - k^2); c_0 = 1/sqrt(2), c_{+-n} = sqrt(2) q^n / (1 + q^{2n});
- defocusing (lam = +1): phi = a sn(bx, k), b = 2K/pi, a = sqrt(2) k b,
  Omega = -b^2 (1 + k^2); only odd modes j = 2n+1 are nonzero,
  c_{+-j} = -+2 sqrt(2) i q^{n+1/2} / (1 - q^{2n+1}).

A Galilean boost by an integer c keeps a solution 2 pi-periodic: mode n
moves to n + c and picks up e^{-2inct - ic^2 t}, which exercises the
momentum term of the low-regularity step's twist.  K(k) = pi / (2 AGM(1,
sqrt(1 - k^2))) and K' = K(sqrt(1 - k^2)).
"""

import math

import numpy as np
import pytest

from lowregnls.integrator import SchemeParams, evolve_lockstep
from lowregnls.spectral import SpectralField, l2_error, sobolev_norm

MODULUS = 0.9
CUTOFF = 64          # q ~ 0.1 at k = 0.9, so q^64 is far below round-off
HORIZON = 1.0
TAUS = (2.0 ** -6, 2.0 ** -7, 2.0 ** -8)
# the error halves with tau at order 1 and quarters at order 2
ORDER_BANDS = {"lowreg": (1.8, 2.2), "lie": (1.8, 2.2), "strang": (3.8, 4.2)}


def elliptic_k(k: float) -> float:
    """The complete elliptic integral of the first kind K(k), by the
    arithmetic-geometric mean."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    # the gap squares at each step: a few steps reach round-off for k < 1
    for _ in range(12):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def cnoidal_wave(lam: int, boost: int, t: float) -> SpectralField:
    """The exact cnoidal wave of sign lam, boosted by the integer `boost`, at
    time t, on |k| <= CUTOFF."""
    k = MODULUS
    big_k, big_k1 = elliptic_k(k), elliptic_k(math.sqrt(1.0 - k * k))
    q = math.exp(-math.pi * big_k1 / big_k)
    n = np.arange(-CUTOFF, CUTOFF + 1)
    coeffs = np.zeros(2 * CUTOFF + 1, dtype=complex)
    if lam == -1:
        b = big_k / math.pi
        omega = b * b * (2.0 - k * k)
        coeffs[:] = math.sqrt(2.0) * q ** np.abs(n) / (1.0 + q ** (2 * np.abs(n)))
    else:
        b = 2.0 * big_k / math.pi
        omega = -b * b * (1.0 + k * k)
        odd = n % 2 == 1
        coeffs[odd] = (-2j * math.sqrt(2.0) * np.sign(n[odd]) * q ** (np.abs(n[odd]) / 2.0)
                       / (1.0 - q ** np.abs(n[odd])))
    phase = np.exp(1j * (omega - 2.0 * n * boost - boost * boost) * t)
    # mode n moves to n + boost; the mode the roll wraps from N to -N is
    # below round-off
    return SpectralField(CUTOFF, np.roll(coeffs * phase, boost))


def errors(lam: int, boost: int, scheme: str) -> list[float]:
    """Each tau's final L^2 error against the exact wave, relative to the
    L^2 norm of u0."""
    u0 = cnoidal_wave(lam, boost, 0.0)
    exact = cnoidal_wave(lam, boost, HORIZON)
    runs = [SchemeParams.from_horizon(lam, tau, CUTOFF, HORIZON) for tau in TAUS]
    trajs = evolve_lockstep([u0] * len(runs), runs, scheme=scheme)
    return [l2_error(traj.final, exact) / sobolev_norm(u0, 0.0) for traj in trajs]


class TestCnoidalWave:
    @pytest.mark.parametrize("lam", [-1, 1], ids=["dn-focusing", "sn-defocusing"])
    def test_solves_the_equation(self, lam):
        # i u_t + u_xx - lam |u|^2 u = 0, with u_t from the closed form and
        # |u|^2 u summed as a convolution of coefficients
        t, h = 0.3, 1e-6
        c = cnoidal_wave(lam, 1, t).coeffs
        du = (cnoidal_wave(lam, 1, t + h).coeffs - cnoidal_wave(lam, 1, t - h).coeffs) / (2 * h)
        n = np.arange(-CUTOFF, CUTOFF + 1)
        cubic = np.convolve(np.convolve(c, c), np.conj(c[::-1]))[2 * CUTOFF:4 * CUTOFF + 1]
        residual = 1j * du - n * n * c - lam * cubic
        assert np.max(np.abs(residual)) < 1e-8

    def test_elliptic_k(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        # K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
        assert elliptic_k(math.sqrt(0.5)) == pytest.approx(
            math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi)), rel=1e-14)


@pytest.mark.parametrize("boost", [0, 1], ids=["at-rest", "boosted"])
@pytest.mark.parametrize("lam", [-1, 1], ids=["dn-focusing", "sn-defocusing"])
@pytest.mark.parametrize("scheme", sorted(ORDER_BANDS))
def test_order_against_the_exact_wave(scheme, lam, boost):
    errs = errors(lam, boost, scheme)
    low, high = ORDER_BANDS[scheme]
    ratios = [coarse / fine for coarse, fine in zip(errs, errs[1:])]
    assert all(low <= r <= high for r in ratios), (errs, ratios)
