"""Initial-state families: coefficient values, symmetry, sampling identities."""

import numpy as np
import pytest

from lowregnls import dft
from lowregnls.initial_data import (
    InitialDataSpec,
    alias_fold,
    coefficients,
    resolve_tail_cutoff,
)


def sample_on_grid(spec, m, tail):
    """Samples on dft.grid(m) of the series truncated at |k| <= tail: one
    inverse FFT of its `alias_fold`."""
    return np.fft.fftshift(np.fft.ifft(alias_fold(spec, m, tail), norm="forward"))


def series_samples_direct(spec, m, tail):
    """O(tail*m) direct summation oracle."""
    x = dft.grid(m)
    k = np.arange(-tail, tail + 1)
    c = coefficients(spec, tail)
    return np.exp(1j * x[:, None] * k[None, :]) @ c


class TestSobolevFamily:
    def test_frozen_coefficient_values(self):
        c = coefficients(InitialDataSpec(kind="sobolev", alpha=2.0), 3)
        assert c[3] == 0.0
        assert np.isclose(c[4], 0.1, rtol=1e-15)
        # 0.1 * 2^(-2.51)
        assert np.isclose(c[5], 0.01755556094672497, rtol=1e-14)
        c1 = coefficients(InitialDataSpec(kind="sobolev", alpha=1.0), 3)
        # 0.1 * 3^(-1.51)
        assert np.isclose(c1[6], 0.01903473808524213, rtol=1e-14)

    def test_even_real_symmetry(self):
        c = coefficients(InitialDataSpec(kind="sobolev", alpha=1.3), 17)
        for k in (1, 2, 5, 17):
            assert c[17 + k] == c[17 - k]
            assert c[17 + k].imag == 0.0
            assert c[17 + k].real > 0

    def test_monotone_decay(self):
        vals = np.abs(coefficients(InitialDataSpec(kind="sobolev", alpha=1.0), 39)[40:])
        assert np.all(vals[:-1] > vals[1:])

    def test_amplitude_and_offset_configurable(self):
        spec = InitialDataSpec(kind="sobolev", alpha=1.0, amplitude=0.5,
                               exponent_offset=0.75)
        assert np.isclose(coefficients(spec, 2)[4], 0.5 * 2.0 ** (-1.75), rtol=1e-14)

    def test_tail_energy_halves_at_rate(self):
        # l2 tail over (K, 2K] shrinks like 2^-(alpha + offset - 1/2) per doubling
        spec = InitialDataSpec(kind="sobolev", alpha=1.0)
        def band(k0, k1):
            k = np.arange(k0 + 1, k1 + 1, dtype=float)
            return np.sqrt(2.0 * np.sum((0.1 * k ** -1.51) ** 2))
        ratio = band(64, 128) / band(32, 64)
        assert np.isclose(ratio, 2.0 ** -1.01, rtol=0.02)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_h_alpha_band_mass_marginally_summable(self, alpha):
        # the family of type alpha lies in H^alpha with 0.01 of smoothness to
        # spare: the dyadic (1+k^2)^alpha-weighted band mass decays by the
        # near-unit factor 2^-0.02 per doubling
        spec = InitialDataSpec(kind="sobolev", alpha=alpha)

        def band(k0, k1):
            ks = np.arange(k0 + 1, k1 + 1)
            c = np.abs(coefficients(spec, k1)[k1 + k0 + 1:])
            return 2.0 * float(np.sum((1.0 + ks.astype(float) ** 2) ** alpha
                                      * c ** 2))

        for j in (6, 7, 8):
            ratio = band(2 ** (j + 1), 2 ** (j + 2)) / band(2 ** j, 2 ** (j + 1))
            assert ratio < 1.0
            assert np.isclose(ratio, 2.0 ** -0.02, rtol=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="sobolev", alpha=0.0)
        with pytest.raises(ValueError):
            InitialDataSpec(kind="sobolev", exponent_offset=0.5)
        with pytest.raises(ValueError):
            InitialDataSpec(kind="nope")


class TestOtherKinds:
    def test_plane_wave(self):
        spec = InitialDataSpec(kind="plane", amplitude=2.0, mode=3)
        c = coefficients(spec, 3)
        assert c[6] == 2.0
        assert c[0] == 0.0
        x = dft.grid(21)
        samples = sample_on_grid(spec, 21, 3)
        assert np.allclose(samples, 2.0 * np.exp(3j * x), atol=1e-14)

    def test_constant(self):
        spec = InitialDataSpec(kind="constant", amplitude=0.7)
        assert np.array_equal(coefficients(spec, 1), [0.0, 0.7, 0.0])
        samples = sample_on_grid(spec, 9, 1)
        assert np.allclose(samples, 0.7, atol=1e-15)


class TestSampling:
    @pytest.mark.parametrize("m,tail", [(5, 7), (9, 30), (21, 85), (13, 4)])
    def test_folding_matches_direct_summation(self, m, tail):
        spec = InitialDataSpec(kind="sobolev", alpha=1.0)
        fast = sample_on_grid(spec, m, tail)
        direct = series_samples_direct(spec, m, tail)
        assert np.allclose(fast, direct, rtol=0, atol=1e-12)

    def test_default_tail(self):
        spec = InitialDataSpec(kind="sobolev", alpha=1.0)
        assert resolve_tail_cutoff(spec, 16, None) == 2 ** 14
        assert resolve_tail_cutoff(spec, 2 ** 12, None) == 16 * 2 ** 12
        assert resolve_tail_cutoff(spec, 16, 100) == 100
        with pytest.raises(ValueError):
            resolve_tail_cutoff(spec, 16, 8)  # tail below the target cutoff

    def test_band_limited_tail_defaults(self):
        assert resolve_tail_cutoff(InitialDataSpec(kind="plane", mode=9), 4, None) == 9
        assert resolve_tail_cutoff(InitialDataSpec(kind="constant"), 4, None) == 4

    def test_tail_doubling_within_integral_bound(self):
        # doubling the tail past the default moves the samples by at most the
        # l1 mass of the dropped band; for alpha = 2 the integral bound is
        # 2 * 0.1 * K^-1.51 / 1.51 at K = 2^14, about 5.7e-8
        spec = InitialDataSpec(kind="sobolev", alpha=2.0)
        a = sample_on_grid(spec, 65, 2 ** 14)
        b = sample_on_grid(spec, 65, 2 ** 15)
        bound = 2.0 * 0.1 * (2.0 ** 14) ** -1.51 / 1.51
        assert np.max(np.abs(a - b)) <= bound

    def test_samples_are_real_for_even_real_series(self):
        # real, even coefficients give a real-valued sum
        spec = InitialDataSpec(kind="sobolev", alpha=1.0)
        samples = sample_on_grid(spec, 17, 50)
        assert np.max(np.abs(samples.imag)) <= 1e-14
