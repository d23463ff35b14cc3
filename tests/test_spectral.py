"""Field operator checks: algebra, unitarity, dealiasing."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lowregnls.cli import MAX_CUTOFF
from lowregnls.spectral import (
    SpectralField,
    _centered,
    _pow2_grid_size,
    _standard,
    _to_grid,
    _uncentered,
    conjugate,
    dealiased_product,
    derivative,
    free_propagator,
    inv_derivative,
    l2_error,
    nonzero_part,
    project,
    sobolev_norm,
    twist_propagator,
)


def random_field(rng, cutoff, scale=1.0):
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, scale * c)


def convolution_truncated(f, g):
    """Direct O(N^2) convolution of the coefficient sequences, truncated."""
    n = max(f.cutoff, g.cutoff)
    fc = project(f, n).coeffs
    gc = project(g, n).coeffs
    full = np.convolve(fc, gc)  # frequencies -2n .. 2n
    return SpectralField(n, full[n: 3 * n + 1])


class TestFieldBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpectralField(2, np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            SpectralField(-1, np.zeros(1, dtype=complex))

    def test_coeffs_read_only(self):
        f = SpectralField.from_modes(3, {})
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_from_modes_and_coefficient(self):
        f = SpectralField.from_modes(3, {-2: 1j, 1: 2.0})
        assert f.coefficient(-2) == 1j
        assert f.coefficient(1) == 2.0
        assert f.coefficient(0) == 0.0
        assert f.coefficient(7) == 0.0  # outside the window
        with pytest.raises(ValueError):
            SpectralField.from_modes(1, {5: 1.0})

    def test_arithmetic_aligns_cutoffs(self):
        f = SpectralField.from_modes(1, {1: 2.0})
        g = SpectralField.from_modes(3, {3: 1.0})
        h = f + g
        assert h.cutoff == 3
        assert h.coefficient(1) == 2.0 and h.coefficient(3) == 1.0
        d = f - f
        assert np.all(d.coeffs == 0)
        s = 2.0 * f
        assert s.coefficient(1) == 4.0

    def test_field_times_field_rejected(self):
        f = SpectralField.from_modes(1, {})
        with pytest.raises(TypeError):
            f * f


F = SpectralField.from_modes(2, {0: 1.0, 1: 0.5j})


class TestOperatorBoundary:
    """The public operators read frequencies by the integer rule and times,
    phases' parameters and Sobolev orders by the real rule: a bad value is
    one ValueError naming the parameter, never a silent nan, a warning, an
    IndexError or a bool taken for a mode."""

    @pytest.mark.parametrize("call, match", [
        (lambda: SpectralField.from_modes(2, {True: 1.0}),
         "frequency must be an integer, got True"),
        (lambda: SpectralField.from_modes(2, {1.5: 1.0}), "frequency must be an integer, got 1.5"),
        (lambda: F.coefficient(0.5), "k must be an integer, got 0.5"),
        (lambda: F.coefficient(True), "k must be an integer, got True"),
        (lambda: free_propagator(F, math.inf), "t must be finite, got inf"),
        (lambda: free_propagator(F, math.nan), "t must be finite, got nan"),
        (lambda: free_propagator(F, "0.1"), "t must be a real number, got '0.1'"),
        (lambda: twist_propagator(F, math.nan, -1, 0.0, 0.0), "tau must be finite, got nan"),
        (lambda: twist_propagator(F, 0.1, math.inf, 0.0, 0.0), "lam must be finite, got inf"),
        (lambda: twist_propagator(F, 0.1, -1, math.nan, 0.0), "mass must be finite, got nan"),
        (lambda: twist_propagator(F, 0.1, -1, 0.0, math.nan),
         "momentum_imag must be finite, got nan"),
        (lambda: sobolev_norm(F, math.nan), "s must be finite, got nan"),
        (lambda: sobolev_norm(F, True), "s must be a real number, got True"),
    ], ids=["from-modes-bool", "from-modes-float", "coefficient-float", "coefficient-bool",
            "free-t-inf", "free-t-nan", "free-t-string", "twist-tau-nan", "twist-lam-inf",
            "twist-mass-nan", "twist-momentum-nan", "sobolev-s-nan", "sobolev-s-bool"])
    def test_rejected_naming_the_parameter(self, call, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            call()

    def test_numpy_values_pass(self):
        assert F.coefficient(np.int64(1)) == 0.5j
        assert SpectralField.from_modes(2, {np.int32(-1): 2.0}).coefficient(-1) == 2.0
        assert np.array_equal(free_propagator(F, np.float64(0.1)).coeffs,
                              free_propagator(F, 0.1).coeffs)
        assert sobolev_norm(F, np.float32(1.0)) == sobolev_norm(F, 1)


class TestProjection:
    def test_truncation(self):
        f = SpectralField.from_modes(4, {4: 1.0, 1: 2.0})
        g = project(f, 2)
        assert g.cutoff == 2
        assert g.coefficient(1) == 2.0
        assert g.coefficient(2) == 0.0

    def test_zero_extension(self):
        f = SpectralField.from_modes(1, {1: 3.0})
        g = project(f, 5)
        assert g.cutoff == 5
        assert g.coefficient(1) == 3.0
        assert np.sum(np.abs(g.coeffs)) == 3.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = random_field(rng, 6)
        assert project(f, 6) is f
        back = project(project(f, 9), 6)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_zero_mode_and_nonzero_part(self):
        f = SpectralField.from_modes(2, {0: 1.5 + 1j, 2: 2.0})
        assert f.coefficient(0) == 1.5 + 1j
        g = nonzero_part(f)
        assert g.coefficient(0) == 0.0
        assert g.coefficient(2) == 2.0
        # complementary split
        total = g + SpectralField.from_modes(2, {0: f.coefficient(0)})
        assert np.array_equal(total.coeffs, f.coeffs)


class TestDerivatives:
    def test_derivative_single_mode(self):
        f = SpectralField.from_modes(2, {1: 1.0})
        assert derivative(f).coefficient(1) == 1j

    def test_inv_derivative_inverts_on_mean_free(self):
        rng = np.random.default_rng(1)
        f = nonzero_part(random_field(rng, 8))
        back = derivative(inv_derivative(f))
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-14)
        back2 = inv_derivative(derivative(f))
        assert np.allclose(back2.coeffs, f.coeffs, atol=1e-14)

    def test_inv_derivative_kills_mean(self):
        f = SpectralField.from_modes(2, {0: 5.0, 2: 4.0})
        g = inv_derivative(f)
        assert g.coefficient(0) == 0.0
        assert g.coefficient(2) == 4.0 / 2j

    def test_conjugate_reflects(self):
        f = SpectralField.from_modes(2, {1: 2.0 + 1j})
        g = conjugate(f)
        assert g.coefficient(-1) == 2.0 - 1j
        assert g.coefficient(1) == 0.0
        rng = np.random.default_rng(2)
        h = random_field(rng, 5)
        assert np.allclose(conjugate(conjugate(h)).coeffs, h.coeffs)


class TestFreePropagator:
    def test_single_mode_phase(self):
        f = SpectralField.from_modes(3, {2: 1.0})
        t = 0.3
        g = free_propagator(f, t)
        assert np.isclose(g.coefficient(2), np.exp(-4j * t))

    def test_identity_and_composition(self):
        rng = np.random.default_rng(3)
        f = random_field(rng, 7)
        assert np.allclose(free_propagator(f, 0.0).coeffs, f.coeffs)
        a = free_propagator(free_propagator(f, 0.2), 0.5)
        b = free_propagator(f, 0.7)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)

    def test_unitary(self):
        rng = np.random.default_rng(4)
        f = random_field(rng, 9)
        assert math.isclose(
            sobolev_norm(free_propagator(f, 1.7), 0.0), sobolev_norm(f, 0.0),
            rel_tol=1e-13,
        )

    def test_commutes_with_conjugation_flip(self):
        # conj(e^{it dxx} f) == e^{-it dxx} conj(f)
        rng = np.random.default_rng(5)
        f = random_field(rng, 6)
        lhs = conjugate(free_propagator(f, 0.4))
        rhs = free_propagator(conjugate(f), -0.4)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-15)


class TestTwistPropagator:
    def test_zero_mode_phase(self):
        f = SpectralField.from_modes(2, {0: 1.0})
        tau, lam, mass = 0.25, -1, 0.7
        g = twist_propagator(f, tau, lam, mass, 0.0)
        assert np.isclose(g.coefficient(0), np.exp(-2j * lam * tau * mass))

    def test_nonzero_mode_phase(self):
        f = SpectralField.from_modes(2, {2: 1.0})
        tau, lam, mass, mom_imag = 0.1, 1, 0.3, -0.4
        g = twist_propagator(f, tau, lam, mass, mom_imag)
        # exponent i tau (-2 lam mass - k^2 - 2 lam mom_imag/k) at k = 2
        theta = tau * (-2 * lam * mass - 4.0 - 2 * lam * (-0.4) / 2.0)
        assert np.isclose(g.coefficient(2), np.exp(1j * theta))

    def test_unitary(self):
        rng = np.random.default_rng(6)
        f = random_field(rng, 11)
        g = twist_propagator(f, 0.37, -1, 1.3, -2.2)
        assert math.isclose(sobolev_norm(g, 0.0), sobolev_norm(f, 0.0), rel_tol=1e-13)


# cutoffs where the product grid is exactly 3N+1 points: 3N+1 is 16, 64 and
# 256 (powers of two) or 25, 100 and 400 (25 times a power of two)
TIGHT = (5, 8, 21, 33, 85, 133)


class TestProductGridRule:
    def test_smallest_power_of_two_or_25_times_one(self):
        family = sorted({2 ** a for a in range(24)} | {25 * 2 ** b for b in range(20)})
        cutoffs = [*range(4097), *(2 ** k for k in range(MAX_CUTOFF.bit_length()))]
        for n in cutoffs:
            m = _pow2_grid_size(n)
            assert m >= 3 * n + 1, n
            assert m in family, n
            # the next smaller member of the family is too short
            i = family.index(m)
            assert i == 0 or family[i - 1] < 3 * n + 1, n


@st.composite
def windows(draw):
    """(N, m, seed): a cutoff and a length m >= 2N+1 that holds its window."""
    n = draw(st.integers(0, 40))
    return n, draw(st.integers(2 * n + 1, 2 * n + 60)), draw(st.integers(0, 2 ** 32 - 1))


class TestStandardLayout:
    """`_standard` is the one layout rule below SpectralField: the |k| <= N
    window of a standard-order array, laid out on m points; `_centered`
    reads the window back in a field's centered order and `_uncentered`
    undoes it."""

    @given(windows())
    @example((0, 1, 0))
    @example((0, 7, 1))
    @example((5, 11, 2))
    def test_round_trip_keeps_the_window_and_zero_fills(self, case):
        n, m, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        narrow = _standard(x, n, 2 * n + 1)
        assert narrow.shape == (2, 2 * n + 1)
        assert np.array_equal(narrow[:, : n + 1], x[:, : n + 1])
        assert np.array_equal(narrow[:, n + 1:], x[:, m - n:])
        assert np.array_equal(_centered(x, n), np.fft.fftshift(narrow, axes=-1))
        back = _standard(narrow, n, m)
        window = np.zeros(m, dtype=bool)
        window[: n + 1] = True
        window[m - n:] = True
        assert np.array_equal(back[:, window], x[:, window])
        assert np.all(back[:, ~window] == 0)

    @given(windows())
    @example((0, 1, 0))
    def test_uncentered_is_ifftshift(self, case):
        n, _, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 2 * n + 1)) + 1j * rng.standard_normal((3, 2 * n + 1))
        assert np.array_equal(_uncentered(x), np.fft.ifftshift(x, axes=-1))
        assert np.array_equal(_uncentered(_centered(x, n)), x)

    @given(windows())
    @example((0, 1, 0))
    def test_into_out(self, case):
        n, m, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        out = np.full(m, np.nan, dtype=np.complex128)
        assert _standard(x, n, m, out=out) is out
        assert np.array_equal(out, _standard(x, n, m))

    @given(windows())
    @example((0, 1, 0))
    @example((8, 25, 3))
    def test_to_grid_is_direct_evaluation(self, case):
        # sum_k c_k e^{ikx_j} at x_j = 2 pi j / m
        n, m, seed = case
        f = random_field(np.random.default_rng(seed), n)
        x = 2.0 * np.pi * np.arange(m) / m
        direct = np.exp(1j * x[:, None] * f.frequencies()[None, :]) @ f.coeffs
        values = _to_grid(np.fft.ifftshift(f.coeffs), n, m)
        assert np.allclose(values, direct, rtol=0, atol=1e-12 * max(n, 1))


class TestDealiasedProduct:
    def test_squared_top_mode_truncates_to_zero(self):
        # (e^{ix})^2 = e^{2ix} lies entirely above cutoff 1
        f = SpectralField.from_modes(1, {1: 1.0})
        p = dealiased_product(f, f)
        assert np.allclose(p.coeffs, 0, atol=1e-14)

    @pytest.mark.parametrize("n", TIGHT)
    def test_squared_top_mode_truncates_to_zero_on_a_tight_grid(self, n):
        # on an m-point grid e^{2iNx} aliases to mode 2N - m, which lies in
        # |k| <= N for every N <= m <= 3N
        assert _pow2_grid_size(n) == 3 * n + 1
        for k in (n, -n):
            f = SpectralField.from_modes(n, {k: 1.0})
            p = dealiased_product(f, f)
            assert np.allclose(p.coeffs, 0, atol=1e-14)

    def test_difference_of_squares(self):
        f = SpectralField.from_modes(1, {0: 1.0, 1: 1.0})
        g = SpectralField.from_modes(1, {0: 1.0, 1: -1.0})
        p = dealiased_product(f, g)
        assert np.allclose(p.coeffs, [0, 1.0, 0], atol=1e-14)

    def test_constant_identity(self):
        rng = np.random.default_rng(7)
        f = random_field(rng, 5)
        one = SpectralField.from_modes(5, {0: 1.0})
        p = dealiased_product(f, one)
        assert np.allclose(p.coeffs, f.coeffs, atol=1e-14)

    # the TIGHT cutoffs leave the product grid no points to spare
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 32, *TIGHT])
    def test_matches_direct_convolution(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            f = random_field(rng, n)
            g = random_field(rng, n)
            fast = dealiased_product(f, g)
            direct = convolution_truncated(f, g)
            denom = max(sobolev_norm(direct, 0.0), 1e-300)
            assert l2_error(fast, direct) / denom <= 1e-12

    @given(st.one_of(st.sampled_from(TIGHT), st.integers(0, 40)),
           st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
    @example(5, 5, 0)
    @example(8, 7, 3)
    @example(21, 3, 1)
    @example(33, 33, 4)
    @example(85, 84, 2)
    @example(133, 1, 5)
    def test_matches_direct_convolution_property(self, n, other, seed):
        # the two cutoffs are drawn independently, so they mostly differ
        rng = np.random.default_rng(seed)
        f, g = random_field(rng, n), random_field(rng, other)
        fast = dealiased_product(f, g)
        direct = convolution_truncated(f, g)
        assert fast.cutoff == max(n, other)
        assert l2_error(fast, direct) <= 1e-12 * max(sobolev_norm(direct, 0.0), 1e-300)

    def test_mixed_cutoffs(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 3)
        g = random_field(rng, 7)
        fast = dealiased_product(f, g)
        assert fast.cutoff == 7
        direct = convolution_truncated(f, g)
        assert np.allclose(fast.coeffs, direct.coeffs, atol=1e-13)

    def test_bilinear(self):
        rng = np.random.default_rng(9)
        f, g, h = (random_field(rng, 4) for _ in range(3))
        lhs = dealiased_product(f + g, h)
        rhs = dealiased_product(f, h) + dealiased_product(g, h)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)


class TestNorms:
    def test_sobolev_single_mode(self):
        f = SpectralField.from_modes(2, {1: 1.0})
        assert math.isclose(sobolev_norm(f, 0.0), math.sqrt(2 * math.pi), rel_tol=1e-14)
        assert math.isclose(sobolev_norm(f, 1.0), math.sqrt(4 * math.pi), rel_tol=1e-14)
        assert math.isclose(sobolev_norm(f, 2.0), math.sqrt(8 * math.pi), rel_tol=1e-14)

    def test_sobolev_constant(self):
        f = SpectralField.from_modes(0, {0: 3.0})
        assert math.isclose(sobolev_norm(f, 5.0), 3.0 * math.sqrt(2 * math.pi), rel_tol=1e-14)

    def test_l2_error_aligns(self):
        f = SpectralField.from_modes(1, {1: 1.0})
        g = project(f, 6)
        assert l2_error(f, g) == 0.0
        h = SpectralField.from_modes(6, {5: 2.0})
        assert math.isclose(l2_error(g, g + h), 2.0 * math.sqrt(2 * math.pi), rel_tol=1e-14)

    def test_negative_index_weights_match(self):
        # (1 + k^2)^s is even in k
        f = SpectralField.from_modes(3, {-2: 1.0})
        g = SpectralField.from_modes(3, {2: 1.0})
        assert math.isclose(sobolev_norm(f, 1.5), sobolev_norm(g, 1.5), rel_tol=1e-15)

