"""Initial-state families: coefficient values, symmetry, grid values."""

import dataclasses
import math
import re

import numpy as np
import pytest

from lowregnls import dft
from lowregnls.initial_data import InitialDataSpec, coefficients
from lowregnls.integrator import initialize
from lowregnls.spectral import SpectralField


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

    def test_amplitude_configurable_and_offset_fixed(self):
        spec = InitialDataSpec(kind="sobolev", alpha=1.0, amplitude=0.5)
        assert np.isclose(coefficients(spec, 2)[4], 0.5 * 2.0 ** (-1.51), rtol=1e-14)

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
        # the rough family is the only kind
        for kind in ("nope", "plane", "constant"):
            with pytest.raises(ValueError, match=f"unknown initial-data kind '{kind}'"):
                InitialDataSpec(kind=kind)
        assert [f.name for f in dataclasses.fields(InitialDataSpec)] == [
            "kind", "alpha", "amplitude"]

    # a finite alpha > 0 and a finite amplitude, each a real that is no bool
    # and no string
    @pytest.mark.parametrize("fields, match", [
        ({"alpha": math.nan}, "alpha must be finite, got nan"),
        ({"alpha": math.inf}, "alpha must be finite, got inf"),
        ({"alpha": -1.0}, "alpha must be > 0, got -1.0"),
        ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
        ({"alpha": True}, "alpha must be a real number, got True"),
        ({"alpha": "1"}, "alpha must be a real number, got '1'"),
        ({"amplitude": math.nan}, "amplitude must be finite, got nan"),
        ({"amplitude": math.inf}, "amplitude must be finite, got inf"),
        ({"amplitude": -math.inf}, "amplitude must be finite, got -inf"),
        ({"amplitude": np.True_}, "amplitude must be a real number, got np.True_"),
        ({"amplitude": "0.1"}, "amplitude must be a real number, got '0.1'"),
        ({"amplitude": 1j}, "amplitude must be a real number, got 1j"),
    ], ids=["alpha-nan", "alpha-inf", "alpha-negative", "alpha-zero", "alpha-bool",
            "alpha-string", "amplitude-nan", "amplitude-inf", "amplitude-minus-inf",
            "amplitude-numpy-bool", "amplitude-string", "amplitude-complex"])
    def test_hostile_value_rejected(self, fields, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            InitialDataSpec(**fields)

    def test_reals_are_stored_as_floats(self):
        spec = InitialDataSpec(alpha=2, amplitude=np.float32(0.5))
        assert (type(spec.alpha), type(spec.amplitude)) == (float, float)
        assert np.array_equal(coefficients(spec, 3),
                              coefficients(InitialDataSpec(alpha=2.0, amplitude=0.5), 3))


class TestOtherKinds:
    """The plane waves and constants of the closed-form checks are fields
    given by their modes, which `initialize` takes as they are."""

    def test_plane_wave(self):
        c = SpectralField.from_modes(3, {3: 2.0}).coeffs
        assert c[6] == 2.0
        assert c[0] == 0.0
        x = dft.grid(21)
        samples = dft.inverse(SpectralField.from_modes(10, {3: 2.0}).coeffs)
        assert np.allclose(samples, 2.0 * np.exp(3j * x), atol=1e-14)
        # both edge modes of the cutoff survive initialize
        for mode in (8, -8):
            u0 = initialize(SpectralField.from_modes(8, {mode: 2.0}), 8)
            assert u0.coefficient(mode) == 2.0
            assert np.count_nonzero(u0.coeffs) == 1

    def test_constant(self):
        assert np.array_equal(SpectralField.from_modes(1, {0: 0.7}).coeffs, [0.0, 0.7, 0.0])
        samples = dft.inverse(SpectralField.from_modes(4, {0: 0.7}).coeffs)
        assert np.allclose(samples, 0.7, atol=1e-15)

