"""Splitting baselines: order, conservation, and cross-scheme validation."""

import numpy as np
import pytest

from lowregnls.initial_data import InitialDataSpec
from lowregnls.integrator import SchemeParams, evolve, initialize, splitting_evolve
from lowregnls.reference import splitting_step
from lowregnls.spectral import SpectralField, free_propagator, l2_error, project


SMOOTH = InitialDataSpec(alpha=3.0)


def self_halving_errors(u0, order, taus, horizon=0.5, lam=-1):
    out = []
    for tau in taus:
        a = splitting_evolve(u0, SchemeParams.from_horizon(lam, tau, u0.cutoff, horizon), order).final
        b = splitting_evolve(u0, SchemeParams.from_horizon(lam, tau / 2, u0.cutoff, horizon), order).final
        out.append(l2_error(a, b))
    return out


class TestSplittingStep:
    def test_linear_substep_only_for_plane_wave_limit(self):
        # with amplitude -> 0 the nonlinear phase is negligible and one step
        # approaches the free propagator
        a = 1e-8
        u = SpectralField.from_modes(8, {1: a, 3: a})
        params = SchemeParams(lam=-1, tau=0.3, cutoff=8, steps=1)
        out = splitting_step(u, params, 1)
        lin = free_propagator(u, 0.3)
        assert l2_error(out, lin) <= 1e-17

    def test_constant_state_exact(self):
        # both substeps are exact for constants: splitting reproduces the
        # closed-form phase rotation to round-off for any step size
        c, lam, tau = 0.9 - 0.2j, -1, 0.25
        u = SpectralField.from_modes(4, {0: c})
        params = SchemeParams(lam=lam, tau=tau, cutoff=4, steps=1)
        for order in (1, 2):
            out = splitting_step(u, params, order)
            expected = c * np.exp(-1j * lam * abs(c) ** 2 * tau)
            assert abs(out.coefficient(0) - expected) <= 1e-14
            assert l2_error(out, SpectralField.from_modes(4, {0: expected})) <= 1e-13

    def test_invalid_order(self):
        u = SpectralField.from_modes(4, {})
        params = SchemeParams(lam=-1, tau=0.1, cutoff=4, steps=1)
        with pytest.raises(ValueError):
            splitting_step(u, params, 3)

    def test_cutoff_mismatch_rejected(self):
        params = SchemeParams(lam=-1, tau=0.1, cutoff=8, steps=1)
        with pytest.raises(ValueError, match="field cutoff 4 != params cutoff 8"):
            splitting_step(SpectralField.from_modes(4, {}), params, 2)

    def test_stays_band_limited(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        u = SpectralField(8, 0.3 * c)
        params = SchemeParams(lam=1, tau=0.05, cutoff=8, steps=1)
        assert splitting_step(u, params, 2).cutoff == 8


class TestSplittingEvolve:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_rejected(self, order, bad):
        u = SpectralField.from_modes(4, {1: 0.5, -2: bad})
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match="finite"):
            splitting_evolve(u, params, order)

    @pytest.mark.parametrize("order", [0, 3])
    def test_invalid_order(self, order):
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match=f"splitting order must be 1 or 2, got {order}"):
            splitting_evolve(SpectralField.from_modes(4, {}), params, order)


class TestSplittingOrders:
    def test_lie_is_first_order(self):
        u0 = initialize(SMOOTH, 64)
        errs = self_halving_errors(u0, 1, (2.0 ** -4, 2.0 ** -5, 2.0 ** -6))
        for a, b in zip(errs, errs[1:]):
            assert 1.85 <= a / b <= 2.15

    def test_strang_is_second_order(self):
        u0 = initialize(SMOOTH, 64)
        errs = self_halving_errors(u0, 2, (2.0 ** -4, 2.0 ** -5, 2.0 ** -6))
        for a, b in zip(errs, errs[1:]):
            assert 3.6 <= a / b <= 4.6


class TestConservation:
    def test_mass_drift_tiny_for_smooth_data(self):
        # phase rotation preserves |u| pointwise; truncation of the rotated
        # state is the only leak and stays at round-off for smooth data
        u0 = initialize(SMOOTH, 64)
        params = SchemeParams.from_horizon(-1, 2.0 ** -5, 64, 1.0)
        traj = splitting_evolve(u0, params, 2, diag_stride=1)
        worst = max(d.mass_drift for d in traj.diagnostics)
        assert worst <= 1e-10 * params.steps


class TestCrossValidation:
    def test_lowreg_and_strang_agree(self):
        # independent discretizations of the same flow: both must sit within
        # O(tau) of the refined reference and of each other
        u0 = initialize(SMOOTH, 64)
        params = SchemeParams.from_horizon(-1, 2.0 ** -6, 64, 0.5)
        low = evolve(u0, params).final
        strang = splitting_evolve(u0, params, 2).final
        assert l2_error(low, strang) <= 5e-5

    def test_plane_wave_cross_scheme_agreement(self):
        # moderate-amplitude single mode over a unit horizon at a fine step:
        # entirely different discretizations of the nonlinearity must land on
        # the same state to well inside the O(tau) budget
        u0 = initialize(SpectralField.from_modes(256, {1: 0.5}), 256)
        params = SchemeParams.from_horizon(-1, 2.0 ** -10, 256, 1.0)
        low = evolve(u0, params).final
        strang = splitting_evolve(u0, params, 2).final
        assert l2_error(low, strang) <= 1e-4

    def test_both_near_refined_reference(self):
        params = SchemeParams.from_horizon(-1, 2.0 ** -6, 64, 0.5)
        u0 = initialize(SMOOTH, 64)
        # the low-regularity scheme at 4N and tau/4, truncated back to S_N
        fine = SchemeParams.from_horizon(-1, 2.0 ** -8, 256, 0.5)
        ref = project(evolve(initialize(SMOOTH, 256), fine).final, 64)
        low = evolve(u0, params).final
        strang = splitting_evolve(u0, params, 2).final
        assert l2_error(low, ref) <= 5e-5
        assert l2_error(strang, ref) <= 5e-5

