"""One-step map checks: closed forms, structural cross-checks, trajectories."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lowregnls import dft, integrator
from lowregnls.harness import StudySpec
from lowregnls.initial_data import (
    InitialDataSpec,
    alias_fold,
    coefficients,
    resolve_tail_cutoff,
)
from lowregnls.integrator import (
    SCHEMES,
    BlowUpError,
    ConservedQuantities,
    SchemeParams,
    conserved_quantities,
    _plan_for,
    _StepPlan,
    evolve,
    evolve_lockstep,
    initialize,
    load_trajectory,
    save_trajectory,
    step,
    step_twisted,
)
from lowregnls.reference import SPLITTINGS, splitting_evolve
from lowregnls.spectral import (
    SpectralField,
    _centered,
    _pow2_grid_size,
    _standard,
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
    zero_mode,
)


# cutoffs where the product grid is exactly 3N+1 points: 3N+1 is 16, 64 and
# 256 (powers of two) or 25, 100 and 400 (25 times a power of two)
TIGHT = (5, 8, 21, 33, 85, 133)


def random_field(rng, cutoff, scale=0.5):
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, scale * c)


def convolution_product(f, g):
    """Pi_N(f*g) by direct convolution of the coefficients: no grid at all."""
    n = f.cutoff
    return SpectralField(n, np.convolve(f.coeffs, g.coeffs)[n: 3 * n + 1])


def psi_straight_line(u, params, cq, pn=dealiased_product):
    """The one-step map written term by term with the public operators.

    Deliberately naive: no batching, no shared transforms.  Serves as the
    independent route against the optimized `step`.  Every product goes
    through pn, so passing `convolution_product` gives an oracle that shares
    no product grid with `step`.
    """
    lam, tau = params.lam, params.tau
    f = u
    fb = conjugate(f)
    fp = free_propagator(f, tau)
    di = inv_derivative

    out = twist_propagator(f, tau, lam, cq.mass, cq.momentum)
    c0 = zero_mode(f)
    mean2 = (1 - np.exp(-2j * lam * tau * cq.mass)) * c0
    absf2 = pn(f, fb)
    mean3 = (-1j * lam * tau) * np.dot(absf2.coeffs, f.coeffs[::-1])
    out = out + SpectralField.from_modes(f.cutoff, {0: mean2 + mean3})

    out = out + lam * di(pn(fp, di(pn(fp, conjugate(fp)))))
    out = out - lam * free_propagator(di(pn(f, di(absf2))), tau)

    f2 = pn(f, f)
    t6a = di(di(pn(free_propagator(fb, -tau), free_propagator(f2, tau))))
    t6b = free_propagator(di(di(pn(fb, f2))), tau)
    out = out - 0.5 * lam * (t6a - t6b)

    h1 = pn(free_propagator(di(f), tau), free_propagator(di(f), tau))
    h2 = pn(di(f), di(f))
    out = out - 0.5 * lam * free_propagator(
        di(pn(derivative(fb), free_propagator(h1, -tau) - h2)), tau
    )
    out = out - 1j * lam * tau * free_propagator(di(pn(derivative(fb), f2)), tau)
    out = out + 2j * lam * tau * c0 * free_propagator(di(pn(derivative(fb), f)), tau)
    out = out + (-1j * lam * tau * c0 * c0) * free_propagator(nonzero_part(fb), tau)
    return out


class TestSchemeParams:
    def test_horizon(self):
        p = SchemeParams(lam=-1, tau=0.25, cutoff=8, steps=4)
        assert p.horizon == 1.0

    def test_from_horizon(self):
        p = SchemeParams.from_horizon(-1, 2.0 ** -6, 16, 1.0)
        assert p.steps == 64
        with pytest.raises(ValueError):
            SchemeParams.from_horizon(-1, 0.3, 16, 1.0)
        for horizon in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SchemeParams.from_horizon(-1, 0.25, 16, horizon)
        # a negative horizon is named as such, even one on the step grid
        for horizon in (-1.0, -0.3, -1e-300):
            with pytest.raises(ValueError, match="horizon must be >= 0"):
                SchemeParams.from_horizon(-1, 0.25, 16, horizon)
        assert SchemeParams.from_horizon(-1, 0.25, 16, -0.0).steps == 0
        with pytest.raises(ValueError, match="overflows"):
            SchemeParams.from_horizon(-1, 1e-300, 16, 1e10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(lam=0, tau=0.1, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=-0.1, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=0.1, cutoff=-2, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=0.1, cutoff=8, steps=-1)


class TestConservedQuantities:
    def test_closed_form_vs_operator_route(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = random_field(rng, 12)
            cq = conserved_quantities(u)
            mass_op = zero_mode(dealiased_product(u, conjugate(u)))
            mom_op = zero_mode(dealiased_product(u, derivative(conjugate(u))))
            assert abs(mass_op - cq.mass) <= 1e-12 * max(1.0, cq.mass)
            assert abs(mom_op - cq.momentum) <= 1e-12 * max(1.0, abs(cq.momentum))

    def test_momentum_purely_imaginary(self):
        rng = np.random.default_rng(1)
        u = random_field(rng, 9)
        cq = conserved_quantities(u)
        assert cq.momentum.real == 0.0

    def test_frozen_value_alpha1_n16(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        cq = conserved_quantities(u)
        assert np.isclose(cq.mass, 0.023928484342794334, rtol=1e-14)
        # even coefficients: momentum cancels to summation round-off
        assert abs(cq.momentum) <= 1e-16

    def test_frozen_value_alpha2_n16(self):
        u = initialize(InitialDataSpec(alpha=2.0), 16)
        assert np.isclose(conserved_quantities(u).mass, 0.020727156666911117, rtol=1e-14)


class TestInitialize:
    def test_truncated_is_exact_coefficients(self):
        spec = InitialDataSpec(alpha=1.0)
        u = initialize(spec, 8)
        assert u.cutoff == 8
        assert np.isclose(u.coefficient(1), 0.1, rtol=1e-15)
        assert np.isclose(u.coefficient(-8), 0.1 * 8.0 ** -1.51, rtol=1e-14)
        assert u.coefficient(0) == 0.0

    def test_sampled_equals_truncated_for_band_limited(self):
        spec = InitialDataSpec(kind="plane", amplitude=1.5, mode=3)
        a = initialize(spec, 8, init_mode="truncated")
        b = initialize(spec, 8, init_mode="sampled")
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)

    def test_sampled_folds_the_tail(self):
        # with tail <= 2N the interpolation is exact truncation; larger tails
        # alias the neglected modes back into the window
        spec = InitialDataSpec(alpha=1.0)
        exact = initialize(spec, 16, init_mode="truncated")
        same = initialize(spec, 16, init_mode="sampled", tail_cutoff=32)
        assert np.allclose(same.coeffs, exact.coeffs, atol=1e-14)
        aliased = initialize(spec, 16, init_mode="sampled", tail_cutoff=2 ** 12)
        gap = l2_error(aliased, exact)
        assert gap > 1e-3  # the alpha=1 tail is far from negligible

    def test_sampled_window_is_exact_alias_sum(self):
        # dual route for the sampled mode: the mod-(4N+1) fold of the exact
        # coefficients over the tail window must equal the DFT of the
        # gridded series
        spec = InitialDataSpec(alpha=2.0)
        cutoff = 8
        u = initialize(spec, cutoff, init_mode="sampled")
        m = 4 * cutoff + 1
        tail = resolve_tail_cutoff(spec, cutoff, None)
        assert tail == 2 ** 14
        exact = coefficients(spec, tail)
        folded = np.sum(exact[np.arange(-tail, tail + 1) % m == 1])
        assert abs(u.coefficient(1) - folded) <= 1e-12
        # the fold differs from the exact coefficient by the tail leakage,
        # which is small but well above round-off even at alpha = 2
        assert 1e-6 < abs(folded - exact[tail + 1]) < 1e-3
        # the whole window against the dft oracle
        samples = np.fft.fftshift(np.fft.ifft(alias_fold(spec, m, tail), norm="forward"))
        grid = dft.forward(samples)[m // 2 - cutoff: m // 2 + cutoff + 1]
        assert np.linalg.norm(u.coeffs - grid) <= 1e-14 * np.linalg.norm(grid)

    def test_field_source_is_projected(self):
        rng = np.random.default_rng(2)
        f = random_field(rng, 12)
        u = initialize(f, 6)
        assert np.array_equal(u.coeffs, project(f, 6).coeffs)
        v = initialize(f, 20)
        assert v.cutoff == 20 and np.array_equal(project(v, 12).coeffs, f.coeffs)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            initialize(InitialDataSpec(), 8, init_mode="nope")
        with pytest.raises(ValueError, match="tail cutoff needs init mode 'sampled', "
                                             "not 'truncated'"):
            initialize(InitialDataSpec(), 8, tail_cutoff=64)
        with pytest.raises(TypeError):
            initialize(3.14, 8)

    @pytest.mark.parametrize("tail", [None, 64])
    def test_sampling_needs_a_spec(self, tail):
        # sampling a field would fold its modes above 2N into the window
        # (mode 15 to -2 at N = 4), so it is refused, not truncated
        f = SpectralField.from_modes(20, {15: 1.0})
        with pytest.raises(ValueError, match="'sampled' samples a series and needs an "
                                             "InitialDataSpec, not an explicit field"):
            initialize(f, 4, init_mode="sampled", tail_cutoff=tail)


class TestStepAgainstStraightLine:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 24))
            tau = float(2.0 ** -rng.integers(2, 10))
            lam = int(rng.choice([-1, 1]))
            u = random_field(rng, n)
            cq = conserved_quantities(u)
            params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
            fast = step(u, params, cq)
            naive = psi_straight_line(u, params, cq)
            rel = l2_error(fast, naive) / sobolev_norm(naive, 0.0)
            assert rel <= 1e-12

    @pytest.mark.parametrize("lam", [-1, 1])
    @pytest.mark.parametrize("n", TIGHT)
    def test_matches_grid_free_oracle(self, n, lam):
        rng = np.random.default_rng(n)
        u = random_field(rng, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=2.0 ** -4, cutoff=n, steps=1)
        oracle = psi_straight_line(u, params, cq, pn=convolution_product)
        rel = l2_error(step(u, params, cq), oracle) / sobolev_norm(oracle, 0.0)
        assert rel <= 1e-12

    def test_stays_band_limited(self):
        rng = np.random.default_rng(4)
        u = random_field(rng, 10)
        params = SchemeParams(lam=-1, tau=0.01, cutoff=10, steps=1)
        out = step(u, params, conserved_quantities(u))
        assert out.cutoff == 10
        assert out.coeffs.shape == (21,)

    def test_cutoff_mismatch_rejected(self):
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.01, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            step(u, params, ConservedQuantities(0.0, 0.0j))

    def test_non_imaginary_momentum_rejected(self):
        u = SpectralField.from_modes(4, {1: 0.5})
        params = SchemeParams(lam=-1, tau=0.01, cutoff=4, steps=2)
        cq = ConservedQuantities(1.0, 0.5 + 1.0j)
        with pytest.raises(ValueError, match="purely imaginary"):
            step(u, params, cq)


class TestFftWork:
    @pytest.mark.parametrize("n", [8, 16, 21])
    def test_one_step_makes_seventeen_rows_on_the_product_grid(self, n, monkeypatch):
        # four batched calls of 17 rows in all (5 + 4 + 4 + 4), on the
        # smallest 2^k or 25*2^k >= 3N+1 points
        m = {8: 25, 16: 50, 21: 64}[n]
        shapes = []

        def counted(fft):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fft(a, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        u = random_field(np.random.default_rng(n), n)
        step(u, SchemeParams(lam=-1, tau=0.01, cutoff=n, steps=1), conserved_quantities(u))
        assert len(shapes) == 4
        assert sum(math.prod(sh[:-1]) for sh in shapes) == 17
        assert {sh[-1] for sh in shapes} == {m}


CUTOFFS = st.one_of(st.sampled_from(TIGHT), st.integers(0, 40))
TAUS = st.floats(1e-3, 0.25)
LAMS = st.sampled_from([-1, 1])
SEEDS = st.integers(0, 2 ** 32 - 1)


def tight_grids(*rest):
    """Pin the TIGHT cutoffs as explicit examples (n, tau, lam, seed, *rest)
    of a property test."""
    def pin(test):
        for n in TIGHT:
            test = example(n, 2.0 ** -4, -1, n, *rest)(test)
        return test
    return pin


def standard(f, m):
    """The field's coefficients in standard order on m points."""
    return _standard(np.fft.ifftshift(f.coeffs), f.cutoff, m)


def unit_field(seed, cutoff):
    """Random field with unit coefficient norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, c / np.linalg.norm(c))


def one_step(u, lam, tau):
    return step(u, SchemeParams(lam=lam, tau=tau, cutoff=u.cutoff, steps=1),
                conserved_quantities(u))


def assert_close(a, b):
    assert l2_error(a, b) <= 1e-12 * sobolev_norm(b, 0.0)


def random_stack(cutoff, runs):
    """A stack of `runs` low-regularity plans of one cutoff on its product
    grid, and an (runs, m) state stack for it."""
    m = _pow2_grid_size(cutoff)
    fields = [unit_field(r, cutoff) for r in range(runs)]
    plans = [_plan_for(SchemeParams(-1, 2.0 ** -(4 + r), cutoff, 1), conserved_quantities(f), m)
             for r, f in enumerate(fields)]
    return _StepPlan.stacked(plans), np.stack([standard(f, m) for f in fields])


class TestStepMemory:
    """One step allocates its eight-row work block and its result, no more,
    and writes into nothing it was given."""

    @pytest.mark.parametrize("n, runs", [(1024, 1), (128, 6)])
    def test_one_apply_peaks_at_nine_rows(self, n, runs):
        stack, c = random_stack(n, runs)
        stack.apply(c)                    # FFT plans are cached by the first call
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stack.apply(c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * 9 * c.nbytes

    @pytest.mark.parametrize("n, runs", [(1024, 1), (128, 6), (0, 2)])
    def test_apply_writes_only_its_result(self, n, runs):
        stack, c = random_stack(n, runs)
        tables = [stack.t1, stack.t3, stack.t4, stack.twist]
        before = [a.tobytes() for a in (c, *tables)]
        out = stack.apply(c)
        assert [a.tobytes() for a in (c, *tables)] == before
        assert not any(np.shares_memory(out, a) for a in (c, *tables))


class TestStepProperties:
    """Exact structure of the one-step map, over random N, tau and lambda."""

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.floats(0.0, 2 * math.pi))
    @tight_grids(1.0)
    def test_phase_equivariance(self, n, tau, lam, seed, phi):
        u = unit_field(seed, n)
        rot = complex(np.exp(1j * phi))
        assert_close(one_step(rot * u, lam, tau), rot * one_step(u, lam, tau))

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.floats(-math.pi, math.pi))
    @tight_grids(1.0)
    def test_translation_equivariance(self, n, tau, lam, seed, a):
        def shift(f):  # f(x) -> f(x - a)
            return SpectralField(f.cutoff, np.exp(-1j * f.frequencies() * a) * f.coeffs)

        u = unit_field(seed, n)
        assert_close(one_step(shift(u), lam, tau), shift(one_step(u, lam, tau)))

    @given(CUTOFFS, TAUS, LAMS, SEEDS)
    @tight_grids()
    def test_reflection_equivariance(self, n, tau, lam, seed):
        def reflect(f):  # f(x) -> f(-x)
            return SpectralField(f.cutoff, f.coeffs[::-1])

        u = unit_field(seed, n)
        assert_close(one_step(reflect(u), lam, tau), reflect(one_step(u, lam, tau)))

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.integers(0, 8))
    @tight_grids(8)
    def test_matches_twisted_step(self, n, tau, lam, seed, idx):
        u = unit_field(seed, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        tn = idx * tau
        twisted = free_propagator(
            step_twisted(free_propagator(u, -tn), params, cq, idx), tn + tau
        )
        assert_close(twisted, step(u, params, cq))

    @given(CUTOFFS, TAUS, LAMS, SEEDS)
    @tight_grids()
    def test_matches_grid_free_oracle(self, n, tau, lam, seed):
        u = unit_field(seed, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        oracle = psi_straight_line(u, params, cq, pn=convolution_product)
        assert_close(step(u, params, cq), oracle)


class TestTwistedCrossCheck:
    def test_equivalence_random_fields(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            n = int(rng.integers(2, 16))
            tau = float(rng.uniform(0.002, 0.1))
            lam = int(rng.choice([-1, 1]))
            u = random_field(rng, n)
            cq = conserved_quantities(u)
            params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
            direct = step(u, params, cq)
            for idx in (0, 2, 7):
                tn = idx * tau
                tw = free_propagator(
                    step_twisted(free_propagator(u, -tn), params, cq, idx),
                    tn + tau,
                )
                rel = l2_error(direct, tw) / sobolev_norm(direct, 0.0)
                assert rel <= 1e-10

    def test_index_zero_matches_untwisted_composition(self):
        # at t_0 = 0 the twisted map IS the untwisted map conjugated by one
        # free flight
        rng = np.random.default_rng(6)
        u = random_field(rng, 8)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=-1, tau=0.05, cutoff=8, steps=1)
        a = free_propagator(step_twisted(u, params, cq, 0), params.tau)
        b = step(u, params, cq)
        assert l2_error(a, b) / sobolev_norm(b, 0.0) <= 1e-12

    def test_negative_index_rejected(self):
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.1, cutoff=4, steps=1)
        with pytest.raises(ValueError):
            step_twisted(u, params, ConservedQuantities(0.0, 0.0j), -1)


class TestClosedForms:
    @pytest.mark.parametrize("lam", [-1, 1])
    @pytest.mark.parametrize("c", [0.5 + 0.0j, 1.0 - 0.5j, 0.1j])
    def test_constant_one_step(self, lam, c):
        # Psi(c) = c (1 - i lam tau |c|^2) exactly
        tau = 0.02
        params = SchemeParams(lam=lam, tau=tau, cutoff=6, steps=1)
        u = SpectralField.from_modes(6, {0: c})
        out = step(u, params, conserved_quantities(u))
        expected = c * (1 - 1j * lam * tau * abs(c) ** 2)
        assert abs(zero_mode(out) - expected) <= 1e-13
        assert sobolev_norm(nonzero_part(out), 0.0) <= 1e-13

    @pytest.mark.parametrize("lam", [-1, 1])
    def test_constant_evolution_first_order(self, lam):
        # u(t) = c exp(-i lam |c|^2 t); self-halving the step halves the error
        c = 0.8 - 0.3j
        horizon = 1.0
        errs = []
        for tau in (2.0 ** -6, 2.0 ** -7):
            params = SchemeParams.from_horizon(lam, tau, 4, horizon)
            u = SpectralField.from_modes(4, {0: c})
            traj = evolve(u, params)
            exact = c * np.exp(-1j * lam * abs(c) ** 2 * horizon)
            errs.append(abs(zero_mode(traj.final) - exact))
        ratio = errs[0] / errs[1]
        assert 1.9 <= ratio <= 2.1

    @pytest.mark.parametrize("lam", [-1, 1])
    def test_plane_wave_evolution(self, lam):
        # u(t) = a e^{ix} e^{-i (1 + lam |a|^2) t}
        a, horizon = 0.7, 0.5
        errs = []
        for tau in (2.0 ** -6, 2.0 ** -7):
            params = SchemeParams.from_horizon(lam, tau, 8, horizon)
            u = initialize(InitialDataSpec(kind="plane", amplitude=a, mode=1), 8)
            traj = evolve(u, params)
            exact = SpectralField.from_modes(
                8, {1: a * np.exp(-1j * (1 + lam * a * a) * horizon)}
            )
            errs.append(l2_error(traj.final, exact))
        assert errs[0] <= 5e-3
        assert 1.8 <= errs[0] / errs[1] <= 2.2


class TestEvolve:
    def test_snapshots_and_diagnostics(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        params = SchemeParams(lam=-1, tau=2.0 ** -5, cutoff=16, steps=32)
        traj = evolve(u, params, snapshot_times=(0.0, 0.5, 1.0), diag_stride=8)
        assert traj.snapshot_times == (0.0, 0.5, 1.0)
        assert len(traj.snapshots) == 3
        assert np.array_equal(traj.snapshots[0].coeffs, u.coeffs)
        steps_seen = [d.step_index for d in traj.diagnostics]
        assert steps_seen == [0, 8, 16, 24, 32]
        assert all(0 < d.l2 <= d.h1 for d in traj.diagnostics)
        assert traj.final is traj.snapshots[-1]
        assert traj.h1_max >= max(d.h1 for d in traj.diagnostics) - 1e-15

    def test_norm_drift_small(self):
        # the twist multiplier and all ten terms keep the mass drift at the
        # size of the nonlinear increments, not of round-off growth
        u = initialize(InitialDataSpec(alpha=1.0), 32)
        params = SchemeParams(lam=-1, tau=2.0 ** -6, cutoff=32, steps=64)
        traj = evolve(u, params)
        last = traj.diagnostics[-1]
        assert last.mass_drift <= 1e-5
        assert last.momentum_drift <= 1e-5

    def test_single_mode_self_halving(self):
        # unit plane wave, focusing: no closed form survives the full map, so
        # compare each run against the next halving; the aggregate ratio over
        # tau = 2^-4 .. 2^-8 reads off first order
        u = initialize(InitialDataSpec(kind="plane", amplitude=1.0, mode=1), 256)
        finals = {}
        for j in range(4, 9):
            params = SchemeParams.from_horizon(-1, 2.0 ** -j, 256, 1.0)
            finals[j] = evolve(u, params).final
        errs = [l2_error(finals[j], finals[j + 1]) for j in range(4, 8)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        ratio = (errs[0] / errs[-1]) ** (1 / 3)
        assert 1.9 <= ratio <= 2.1

    def test_off_grid_snapshot_rejected(self):
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError):
            evolve(u, params, snapshot_times=(0.3,))

    def test_snapshot_times_use_the_horizon_tolerance(self):
        # a time 1e-10 (relative) off the step grid is neither a horizon nor
        # a snapshot time
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        t = 0.5 * (1.0 + 1e-10)
        with pytest.raises(ValueError):
            SchemeParams.from_horizon(-1, 0.25, 4, t)
        with pytest.raises(ValueError):
            evolve(u, params, snapshot_times=(t,))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_snapshot_time_rejected(self, t):
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match=r"run 0 \(tau = 0.25\): snapshot time "
                           f"{t!r} is not a step multiple within the horizon"):
            evolve(u, params, snapshot_times=(0.5, t))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negative_diag_stride_rejected(self, scheme):
        u = SpectralField.zeros(4)
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match="diag_stride must be >= 0, got -2"):
            solo_run(scheme, u, params, diag_stride=-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_rejected(self, bad):
        u = SpectralField.from_modes(4, {1: 0.5, -2: bad})
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match="finite"):
            evolve(u, params)

    def test_blow_up_names_the_run(self):
        c = 1e200
        u = SpectralField.from_modes(2, {0: c})
        params = SchemeParams(lam=-1, tau=0.5, cutoff=2, steps=10)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
            evolve(u, params)
        err = info.value
        assert err.tau == 0.5 and err.time == err.step_index * 0.5
        # the initial H^1 norm, 2 pi 1e400, already overflows
        assert err.step_index == 1 and math.isnan(err.last_h1)
        assert "tau = 0.5" in str(err) and "last finite H^1 was nan" in str(err)

    def test_blow_up_error_pickles(self):
        # a study's worker process sends it to the parent
        err = BlowUpError(3, 0.5, 0.25, 1.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is BlowUpError
        assert (back.step_index, back.time, back.tau, back.last_h1) == (3, 0.5, 0.25, 1.0)
        assert str(back) == str(err)

    def test_blow_up_detection(self):
        # focusing constant state far above the blow-up scale overflows the
        # cubic zero-mode recursion within a few steps
        c = 1e200
        u = SpectralField.from_modes(2, {0: c})
        params = SchemeParams(lam=-1, tau=1.0, cutoff=2, steps=10)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
            evolve(u, params)
        assert info.value.step_index >= 1
        assert "step" in str(info.value)

    def test_deterministic(self):
        u = initialize(InitialDataSpec(alpha=1.0), 24)
        params = SchemeParams(lam=-1, tau=2.0 ** -5, cutoff=24, steps=16)
        a = evolve(u, params).final
        b = evolve(u, params).final
        assert np.array_equal(a.coeffs, b.coeffs)


class TestTrajectoryDump:
    def test_roundtrip(self, tmp_path):
        u = initialize(InitialDataSpec(alpha=1.0), 8)
        params = SchemeParams(lam=-1, tau=0.125, cutoff=8, steps=8)
        traj = evolve(u, params, snapshot_times=(0.0, 0.5, 1.0), diag_stride=2)
        out = tmp_path / "run"
        save_trajectory(traj, out)
        assert (out / "manifest.txt").is_file()
        assert (out / "snapshot_0000.txt").is_file()
        back = load_trajectory(out)
        assert back.params == traj.params
        assert back.cq == traj.cq
        assert back.scheme == "lowreg"
        assert back.snapshot_times == traj.snapshot_times
        for f, g in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(f.coeffs, g.coeffs)
        assert back.diagnostics == traj.diagnostics
        assert back.h1_max == traj.h1_max

    def test_manifest_keys(self, tmp_path):
        u = SpectralField.from_modes(2, {0: 1.0})
        params = SchemeParams(lam=1, tau=0.5, cutoff=2, steps=2)
        traj = evolve(u, params)
        save_trajectory(traj, tmp_path / "d")
        text = (tmp_path / "d" / "manifest.txt").read_text()
        for key in ("scheme=", "lambda=", "tau=", "N=", "steps=", "T=",
                    "mass=", "momentum_imag=", "snapshot_count=",
                    "diagnostic_count=", "h1_max="):
            assert key in text
        assert "wall_ms" not in text

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError):
            load_trajectory(tmp_path)

    def dump(self, tmp_path):
        u = SpectralField.from_modes(2, {0: 1.0, 1: 0.5j})
        traj = evolve(u, SchemeParams(lam=1, tau=0.5, cutoff=2, steps=2), diag_stride=1)
        save_trajectory(traj, tmp_path / "d")
        return traj, tmp_path / "d" / "manifest.txt"

    def test_old_dump_with_wall_time_loads(self, tmp_path):
        # dumps once carried a wall_ms= line; an unknown key is ignored
        traj, manifest = self.dump(tmp_path)
        manifest.write_text(manifest.read_text() + "wall_ms=12.5\n")
        back = load_trajectory(manifest.parent)
        assert (back.params, back.cq, back.h1_max) == (traj.params, traj.cq, traj.h1_max)
        assert back.snapshot_times == traj.snapshot_times
        for f, g in zip(back.snapshots, traj.snapshots, strict=True):
            assert f.coeffs.tobytes() == g.coeffs.tobytes()
        assert back.diagnostics == traj.diagnostics

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        traj, manifest = self.dump(tmp_path)
        manifest.write_text("# a note\n\n" + manifest.read_text().replace("\n", "\n\n"))
        assert load_trajectory(manifest.parent).diagnostics == traj.diagnostics

    @pytest.mark.parametrize("line, key, match", [
        (None, "h1_max", "missing manifest key 'h1_max'"),
        (None, "scheme", "missing manifest key 'scheme'"),
        ("diagnostic_1=1 0.5", "diagnostic_1", "bad manifest entry diagnostic_1='1 0.5': "
         "expected 6 fields, got 2"),
        ("diagnostic_0=0 0.0 1 2 3 4 5", "diagnostic_0", "expected 6 fields, got 7"),
        ("diagnostic_0=0.5 0.0 1 2 3 4", "diagnostic_0", "invalid literal for int"),
        ("snapshot_count=x", "snapshot_count", "bad manifest entry snapshot_count='x'"),
        ("tau=fast", "tau", "bad manifest entry tau='fast'"),
        ("tau=0", "tau", "bad manifest entry tau='0': tau must be a positive finite number"),
        ("lambda=0", "lambda", r"bad manifest entry lambda='0': lam must be -1 or \+1, got 0"),
        ("N=-1", "N", "bad manifest entry N='-1': cutoff must be >= 0, got -1"),
        ("steps=-1", "steps", "bad manifest entry steps='-1': steps must be >= 0, got -1"),
        ("h1_max=1 2", "h1_max", "bad manifest entry h1_max='1 2'"),
        ("scheme=rk4", "scheme", "bad manifest entry scheme='rk4': scheme must be one of"),
        ("just words", None, "malformed manifest line 'just words'"),
    ], ids=["missing", "no-scheme", "short-row", "long-row", "float-step", "count",
            "tau", "tau-range", "lambda-range", "N-range", "steps-range", "two-fields",
            "scheme", "no-equals"])
    def test_bad_manifest_named(self, tmp_path, line, key, match):
        # one ValueError that names the manifest (and the key): the CLI
        # prints it as its one error: line
        _, manifest = self.dump(tmp_path)
        lines = [ln for ln in manifest.read_text().splitlines()
                 if key is None or not ln.startswith(key + "=")]
        manifest.write_text("\n".join(lines + ([line] if line else [])) + "\n")
        with pytest.raises(ValueError, match=match) as info:
            load_trajectory(manifest.parent)
        assert str(info.value).startswith(f"{manifest}: ")


def _params(**kw):
    return SchemeParams(**{"lam": -1, "tau": 0.25, "cutoff": 2, "steps": 4, **kw})


ZERO = SpectralField.zeros(2)
CQ = ConservedQuantities(0.0, 0.0j)


class TestBoundaryChecks:
    """Each integer passed in goes through one rule: integers of any type
    pass, anything else raises a ValueError naming the parameter."""

    @pytest.mark.parametrize("call, match", [
        (lambda: SchemeParams(-1.5, 0.1, 2.9, 3.7), "lam must be -1 or +1, got -1.5"),
        (lambda: SchemeParams(0, 0.1, 2, 3), "lam must be -1 or +1, got 0"),
        (lambda: _params(cutoff=2.9), "cutoff must be an integer, got 2.9"),
        (lambda: _params(cutoff=2.0), "cutoff must be an integer, got 2.0"),
        (lambda: _params(steps=3.7), "steps must be an integer, got 3.7"),
        (lambda: _params(steps="4"), "steps must be an integer, got '4'"),
        (lambda: SpectralField(2.5, np.ones(6)), "cutoff must be an integer, got 2.5"),
        (lambda: SpectralField.zeros(2.5), "cutoff must be an integer, got 2.5"),
        (lambda: SpectralField.from_modes(-1, {}), "cutoff must be >= 0, got -1"),
        (lambda: project(ZERO, 1.0), "cutoff must be an integer, got 1.0"),
        (lambda: project(ZERO, -1), "cutoff must be >= 0, got -1"),
        (lambda: coefficients(InitialDataSpec(), 2.5), "cutoff must be an integer, got 2.5"),
        (lambda: coefficients(InitialDataSpec(), -1), "cutoff must be >= 0, got -1"),
        (lambda: initialize(InitialDataSpec(), 3.0), "cutoff must be an integer, got 3.0"),
        (lambda: initialize(InitialDataSpec(), -1), "cutoff must be >= 0, got -1"),
        (lambda: initialize(InitialDataSpec(), 4, init_mode="sampled", tail_cutoff=20.5),
         "tail_cutoff must be an integer, got 20.5"),
        (lambda: InitialDataSpec(kind="plane", mode=1.5), "mode must be an integer, got 1.5"),
        (lambda: evolve(ZERO, _params(), diag_stride=1.5),
         "diag_stride must be an integer, got 1.5"),
        (lambda: step_twisted(ZERO, _params(), CQ, 0.5), "step index must be an integer, got 0.5"),
        (lambda: step_twisted(ZERO, _params(), CQ, -1), "step index must be >= 0, got -1"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2.5, 4)),
         "cutoffs must be an integer, got 2.5"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, 4), jobs=1.9),
         "jobs must be an integer, got 1.9"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, 4), lam=-1.5),
         "lam must be -1 or +1, got -1.5"),
    ])
    def test_rejected_naming_the_parameter(self, call, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()

    def test_numpy_integers_pass(self):
        u = initialize(InitialDataSpec(), np.int64(4))
        assert np.array_equal(u.coeffs, coefficients(InitialDataSpec(), np.int32(4)))
        params = SchemeParams(np.int64(-1), 0.25, np.int64(4), np.int64(4))
        assert params == SchemeParams(-1, 0.25, 4, 4)
        assert all(type(v) is int for v in (params.lam, params.cutoff, params.steps))
        f = SpectralField(np.int64(4), u.coeffs)
        assert type(f.cutoff) is int and project(f, np.int16(6)).cutoff == 6
        a = evolve(u, params, diag_stride=np.int64(2))
        assert a.diagnostics == evolve(u, params, diag_stride=2).diagnostics
        twisted = step_twisted(u, params, conserved_quantities(u), np.int64(1))
        assert np.array_equal(twisted.coeffs,
                              step_twisted(u, params, conserved_quantities(u), 1).coeffs)
        spec = StudySpec(axis="spatial", taus=(0.1,), cutoffs=(np.int64(8), 16),
                         jobs=np.int64(2), lam=np.int64(1))
        assert spec.cutoffs == (8, 16) and spec.jobs == 2 and spec.lam == 1

    @pytest.mark.parametrize("tau", [0.0, -0.25, math.inf, math.nan])
    def test_from_horizon_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be a positive finite number"):
            SchemeParams.from_horizon(-1, tau, 2, 1.0)

    def test_twisted_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field cutoff 2 != params cutoff 3"):
            step_twisted(ZERO, _params(cutoff=3), CQ, 0)

    def test_final_of_no_snapshots_rejected(self):
        traj = evolve(ZERO, _params(), snapshot_times=())
        assert traj.snapshots == ()
        with pytest.raises(ValueError, match="recorded no snapshots"):
            traj.final

    def test_lockstep_of_no_runs_rejected(self):
        with pytest.raises(ValueError, match="one or more"):
            evolve_lockstep(ZERO, [])


TAU_SETS = st.lists(TAUS, min_size=1, max_size=4, unique=True)


def solo_run(scheme, u, params, **kw):
    """The run alone: `evolve`, or `splitting_evolve` of the scheme's order."""
    if scheme == "lowreg":
        return evolve(u, params, **kw)
    return splitting_evolve(u, params, SPLITTINGS[scheme], **kw)


class TestLockstep:
    """A stack of runs advances each run exactly as it would advance alone."""

    @given(st.lists(st.tuples(CUTOFFS, TAUS), min_size=1, max_size=4), LAMS, SEEDS)
    @example([(0, 0.25)], -1, 0)
    @example([(21, 0.1), (21, 2.0 ** -4), (21, 2.0 ** -7), (21, 0.2)], 1, 3)
    @example([(33, 0.1), (12, 2.0 ** -4), (0, 0.2), (33, 2.0 ** -7)], -1, 5)
    def test_stacked_apply_matches_rows(self, runs, lam, seed):
        # runs of any cutoffs, on the grid of the largest
        m = _pow2_grid_size(max(n for n, _ in runs))
        fields = [unit_field(seed + r, n) for r, (n, _) in enumerate(runs)]
        plans = [_plan_for(SchemeParams(lam, tau, f.cutoff, 1), conserved_quantities(f), m)
                 for f, (_, tau) in zip(fields, runs)]
        stack = _StepPlan.stacked(plans)
        c = np.stack([standard(f, m) for f in fields])
        for rows in range(1, len(runs) + 1):
            out = stack.head(rows).apply(c[:rows])
            assert out.shape == (rows, m)
            for r in range(rows):
                assert out[r].tobytes() == plans[r].apply(c[r: r + 1])[0].tobytes()

    @given(CUTOFFS, st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True),
           LAMS, SEEDS, st.integers(0, 3), st.sampled_from(SCHEMES))
    @example(33, [12, 7, 3, 0], -1, 1, 2, "lowreg")
    @example(33, [12, 7, 3, 0], -1, 1, 2, "lie")
    @example(33, [12, 7, 3, 0], 1, 1, 2, "strang")
    def test_lockstep_runs_match_solo_runs(self, n, counts, lam, seed, stride, scheme):
        u = unit_field(seed, n)
        horizon = 0.375
        runs = [SchemeParams(lam, horizon / max(s, 1), n, s) for s in counts]
        times = (0.0, horizon) if min(counts) else (0.0,)
        stacked = evolve_lockstep(u, runs, times, stride, scheme=scheme)
        for params, traj in zip(runs, stacked):
            solo = solo_run(scheme, u, params, snapshot_times=times, diag_stride=stride)
            assert traj.scheme == solo.scheme == scheme
            assert traj.params == params and traj.snapshot_times == solo.snapshot_times
            for a, b in zip(traj.snapshots, solo.snapshots, strict=True):
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert traj.diagnostics == solo.diagnostics
            assert traj.h1_max == solo.h1_max

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_snapshot_times_merge_by_step(self, scheme):
        # unordered, repeated and near-equal times (within TIME_RTOL): one
        # snapshot per step, in step order, each at the least time asked of it
        u = unit_field(4, 8)
        near = 1.0 * (1 - 1e-13)
        times = (1.0, 0.0, near, 0.0, 1.0 * (1 + 1e-13))
        runs = [SchemeParams(-1, 0.25, 8, 4), SchemeParams(-1, 0.125, 8, 8)]
        stacked = evolve_lockstep(u, runs, times, scheme=scheme)
        for params, traj in zip(runs, stacked):
            assert traj.snapshot_times == (0.0, near)
            assert len(traj.snapshots) == 2
            assert traj.snapshots[0].coeffs.tobytes() == u.coeffs.tobytes()
            assert [d.step_index for d in traj.diagnostics] == [0, params.steps]
            solo = solo_run(scheme, u, params, snapshot_times=times)
            assert traj.snapshot_times == solo.snapshot_times
            for a, b in zip(traj.snapshots, solo.snapshots, strict=True):
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert traj.diagnostics == solo.diagnostics
            assert traj.h1_max == solo.h1_max

    def test_snapshot_times_may_be_an_iterator(self):
        u = unit_field(4, 8)
        runs = [SchemeParams(-1, 0.25, 8, 4), SchemeParams(-1, 0.125, 8, 8)]
        trajs = evolve_lockstep(u, runs, snapshot_times=iter((0.0, 1.0)))
        assert [traj.snapshot_times for traj in trajs] == [(0.0, 1.0), (0.0, 1.0)]

    def test_entry_keeps_the_order_of_its_runs(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        runs = [SchemeParams.from_horizon(-1, tau, 16, 0.5)
                for tau in (2.0 ** -3, 2.0 ** -5, 2.0 ** -4)]
        trajs = evolve_lockstep(u, runs)
        assert [t.params for t in trajs] == runs
        for params, traj in zip(runs, trajs):
            assert traj.final.coeffs.tobytes() == evolve(u, params).final.coeffs.tobytes()

    def test_entry_rejects_mixed_runs(self):
        u = initialize(InitialDataSpec(alpha=1.0), 8)
        u16 = initialize(InitialDataSpec(alpha=1.0), 16)
        with pytest.raises(ValueError, match="share"):
            evolve_lockstep(u, [SchemeParams(-1, 0.1, 8, 2), SchemeParams(1, 0.2, 8, 2)])
        with pytest.raises(ValueError, match="cutoff"):
            evolve_lockstep(u, [SchemeParams(-1, 0.1, 16, 2)])
        # the 4N+1 collocation aliases differently at each N, so splitting
        # runs never ride zero-padded in a larger cutoff's stack
        for scheme in SPLITTINGS:
            with pytest.raises(ValueError, match="run 1 has cutoff 16, but splitting runs "
                               "stepped together must share cutoff 8"):
                evolve_lockstep([u, u16], [SchemeParams(-1, 0.1, 8, 2),
                                           SchemeParams(-1, 0.1, 16, 2)], scheme=scheme)
        with pytest.raises(ValueError, match=r"scheme must be one of \('lowreg', 'lie', "
                           r"'strang'\), got 'rk4'"):
            evolve_lockstep(u, [SchemeParams(-1, 0.1, 8, 2)], scheme="rk4")

    @pytest.mark.parametrize("scheme,amplitude", [
        ("lowreg", 1e2), ("lowreg", 1e6), ("lie", 1e200), ("strang", 1e200)])
    def test_blow_up_in_a_stack_names_the_run(self, scheme, amplitude):
        # focusing, large data: the low-regularity runs blow up after 3 to 5
        # steps, the coarsest first.  A splitting step never raises the l2
        # norm, so its runs blow up only from a state whose square
        # overflows, all at step 1 with no finite H^1.  The stack raises for
        # the first run to blow up in lockstep, exactly as that run alone
        u = SpectralField.from_modes(2, {0: amplitude, 1: amplitude / 3})
        runs = [SchemeParams.from_horizon(-1, tau, 2, 4.0)
                for tau in (1.0, 0.25, 2.0 ** -4, 2.0 ** -6)]
        solo = {}
        with np.errstate(all="ignore"):
            for params in runs:
                with pytest.raises(BlowUpError) as info:
                    solo_run(scheme, u, params)
                solo[params.tau] = info.value
            with pytest.raises(BlowUpError) as info:
                evolve_lockstep(u, runs, scheme=scheme)
        err = info.value
        want = solo[err.tau]
        assert (err.step_index, err.time, err.tau) == (want.step_index, want.time, want.tau)
        assert repr(err.last_h1) == repr(want.last_h1)
        assert err.step_index == min(e.step_index for e in solo.values())
        assert str(err) == str(want)


@st.composite
def cutoff_pairs(draw):
    """(N, L) with N <= L <= 2N (L <= 1 at N = 0): a cutoff and the larger
    one whose stack its runs ride in."""
    n = draw(CUTOFFS)
    return n, draw(st.integers(n, max(2 * n, 1)))


def tight_pairs(*rest):
    """Pin pairs whose L is a TIGHT cutoff, and pairs (TIGHT, 2 TIGHT)."""
    def pin(test):
        for t in TIGHT:
            test = example(((t + 1) // 2, t), *rest)(test)
            test = example((t, 2 * t), *rest)(test)
        return test
    return pin


def assert_diagnostics_close(got, want, cq, cutoff):
    """Diagnostics equal to round-off: norms relative, each drift against
    the size of the terms it sums, the masses then and at the start (times
    the cutoff for the momentum)."""
    assert [(d.step_index, d.time) for d in got] == [(d.step_index, d.time) for d in want]
    for a, b in zip(got, want):
        assert abs(a.l2 - b.l2) <= 1e-13 * b.l2
        assert abs(a.h1 - b.h1) <= 1e-13 * b.h1
        mass = b.l2 ** 2 / (2.0 * math.pi) + cq.mass
        assert abs(a.mass_drift - b.mass_drift) <= 1e-13 * mass
        assert abs(a.momentum_drift - b.momentum_drift) <= 1e-13 * mass * max(cutoff, 1)


class TestPaddedLockstep:
    """Runs of a cutoff N ride zero-padded in the stack of a cutoff L >= N,
    on L's product grid, and advance as they would alone, to round-off."""

    @given(cutoff_pairs(), st.lists(TAUS, min_size=1, max_size=4, unique=True), LAMS,
           SEEDS)
    @tight_pairs([2.0 ** -4, 0.2], -1, 7)
    @example((0, 0), [0.25], 1, 0)
    @example((0, 1), [0.25, 0.1], -1, 0)
    def test_padded_rows_stay_zero_beyond_their_cutoff(self, pair, taus, lam, seed):
        n, top = pair
        m = _pow2_grid_size(top)
        fields = [unit_field(seed + r, cutoff) for r, cutoff in enumerate((n, top) * len(taus))]
        runs = [SchemeParams(lam, tau, f.cutoff, 1) for tau, f in zip(np.repeat(taus, 2), fields)]
        cqs = [conserved_quantities(f) for f in fields]
        stack = _StepPlan.stacked([_plan_for(p, q, m) for p, q in zip(runs, cqs)])
        c = np.stack([standard(f, m) for f in fields])
        own = fields
        for _ in range(3):
            c = stack.apply(c)
            own = [step(f, p, q) for f, p, q in zip(own, runs, cqs)]
            for row, want in zip(c, own):
                # standard order: |k| <= N_r at both ends, zeros between
                assert np.all(row[want.cutoff + 1: m - want.cutoff] == 0)
                got = _centered(row, want.cutoff)
                assert np.linalg.norm(got - want.coeffs) <= 1e-13 * np.linalg.norm(want.coeffs)

    @given(cutoff_pairs(), st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True),
           LAMS, SEEDS, st.integers(0, 3))
    @tight_pairs([12, 7, 3, 0], -1, 1, 2)
    @example((0, 0), [3, 1], 1, 0, 1)
    @example((0, 1), [4, 0], -1, 0, 1)
    def test_padded_runs_match_solo_runs(self, pair, counts, lam, seed, stride):
        n, top = pair
        horizon = 0.375
        runs = [SchemeParams(lam, horizon / max(s, 1), cutoff, s)
                for s in counts for cutoff in (n, top)]
        fields = {n: unit_field(seed, n), top: unit_field(seed + 1, top)}
        times = (0.0, horizon) if min(counts) else (0.0,)
        stacked = evolve_lockstep([fields[p.cutoff] for p in runs], runs, times, stride)
        for params, traj in zip(runs, stacked, strict=True):
            u = fields[params.cutoff]
            solo = evolve(u, params, snapshot_times=times, diag_stride=stride)
            assert traj.params == params and traj.cq == solo.cq
            assert traj.snapshot_times == solo.snapshot_times
            for a, b in zip(traj.snapshots, solo.snapshots, strict=True):
                assert a.cutoff == params.cutoff
                assert l2_error(a, b) <= 1e-13 * sobolev_norm(b, 0.0)
            assert_diagnostics_close(traj.diagnostics, solo.diagnostics, solo.cq,
                                     params.cutoff)
            assert abs(traj.h1_max - solo.h1_max) <= 1e-13 * solo.h1_max


class TestLockstepBoundary:
    """The per-run form of evolve_lockstep names the run it rejects."""

    def setup_method(self):
        self.u8 = initialize(InitialDataSpec(alpha=1.0), 8)
        self.u16 = initialize(InitialDataSpec(alpha=1.0), 16)
        self.p8 = SchemeParams(-1, 0.1, 8, 2)
        self.p16 = SchemeParams(-1, 0.2, 16, 2)

    def test_initial_count_must_match_the_runs(self):
        with pytest.raises(ValueError, match="run 1 has no initial field"):
            evolve_lockstep([self.u8], [self.p8, self.p8])
        with pytest.raises(ValueError, match="initial field 2 has no run"):
            evolve_lockstep([self.u16, self.u8, self.u8], [self.p16, self.p8])

    def test_initial_cutoff_must_be_its_runs(self):
        with pytest.raises(ValueError, match=r"run 1 \(tau = 0.2\): field cutoff 8 != params cutoff 16"):
            evolve_lockstep([self.u8, self.u8], [self.p8, self.p16])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_initial_must_be_finite(self, bad):
        u = SpectralField.from_modes(16, {1: 0.5, -2: bad})
        with pytest.raises(ValueError, match=r"run 1 \(tau = 0.2\): initial coefficients must be finite"):
            evolve_lockstep([self.u8, u], [self.p8, self.p16])

    def test_snapshot_time_names_the_run(self):
        u = SpectralField.zeros(4)
        runs = [SchemeParams(-1, 0.25, 4, 4), SchemeParams(-1, 0.1, 4, 10)]
        with pytest.raises(ValueError, match=r"run 1 \(tau = 0.1\): snapshot time 0.25 "
                           "is not a step multiple within the horizon"):
            evolve_lockstep(u, runs, snapshot_times=(0.25,))

    def test_runs_must_share_lam(self):
        with pytest.raises(ValueError, match="run 1 has lam 1, but .* share lam -1"):
            evolve_lockstep([self.u16, self.u8], [self.p16, SchemeParams(1, 0.1, 8, 2)])


class TestAliasedGridPatchPoint:
    """The benchmark's correctness gate patches `integrator._pow2_grid_size`
    to an aliased 2N+1 points and expects every low-regularity path to use
    it: the grid size is looked up at call time, and it keys `_plan`."""

    def outputs(self):
        u, v = unit_field(1, 8), unit_field(2, 6)
        cq = conserved_quantities(u)
        params = SchemeParams(-1, 0.25, 8, 2)
        stack = evolve_lockstep([u, v], [params, SchemeParams(-1, 0.25, 6, 2)])
        return [step(u, params, cq), evolve(u, params).final, *(t.final for t in stack)]

    def test_an_aliased_grid_reaches_every_lowreg_path(self, monkeypatch):
        exact = self.outputs()
        monkeypatch.setattr(integrator, "_pow2_grid_size", lambda n: 2 * n + 1)
        aliased = self.outputs()
        monkeypatch.undo()
        for a, b in zip(aliased, exact, strict=True):
            assert l2_error(a, b) > 1e-6 * sobolev_norm(b, 0.0)
        # the aliased plans stay cached under their own grid size
        assert all(a.coeffs.tobytes() == b.coeffs.tobytes()
                   for a, b in zip(self.outputs(), exact, strict=True))
