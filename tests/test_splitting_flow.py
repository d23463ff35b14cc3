"""The splitting's nonlinear flow: the chirp-z route against the direct
collocation on 4N+1 points, the stack's free-flow phase against
`free_propagator`, and the FFT work of a splitting step."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lowregnls import dft
from lowregnls.integrator import SchemeParams, splitting_evolve
from lowregnls.reference import _chirp_tables, _nonlinear_flow, splitting_step
from lowregnls.spectral import (
    SpectralField,
    free_propagator,
    l2_error,
    project,
    sobolev_norm,
)

PINNED = (0, 1, 2, 5, 64, 2048)


def collocated_flow(f, lam, t):
    """The flow by its definition: zero-pad to cutoff 2N, sample on the
    4N+1-point grid, rotate each sample's phase, transform back, truncate."""
    n = f.cutoff
    vals = dft.inverse(project(f, 2 * n).coeffs)
    vals = vals * np.exp(-1j * lam * t * np.abs(vals) ** 2)
    return project(SpectralField(2 * n, dft.forward(vals)), n)


def unit_field(seed, cutoff):
    """Random field with unit coefficient norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, c / np.linalg.norm(c))


def flow(f, lam, t):
    """`_nonlinear_flow` of one field, as a one-row stack in standard order."""
    c = np.fft.ifftshift(f.coeffs)[None]
    return SpectralField(f.cutoff, np.fft.fftshift(_nonlinear_flow(c, lam, np.array([t]))[0]))


def assert_close(a, b):
    assert l2_error(a, b) <= 1e-13 * sobolev_norm(b, 0.0)


def pinned(test):
    """Pin every PINNED cutoff, with both signs of lambda, as explicit
    examples (n, t, lam, seed) of a property test."""
    for n in PINNED:
        for lam in (-1, 1):
            test = example(n, 0.25, lam, n)(test)
    return test


ARGS = (st.integers(0, 40), st.floats(1e-3, 0.5), st.sampled_from([-1, 1]),
        st.integers(0, 2 ** 32 - 1))


class TestAgainstCollocation:
    @given(*ARGS)
    @pinned
    def test_flow(self, n, t, lam, seed):
        f = unit_field(seed, n)
        assert_close(flow(f, lam, t), collocated_flow(f, lam, t))

    @given(*ARGS)
    @pinned
    def test_strang_step(self, n, tau, lam, seed):
        u = unit_field(seed, n)
        half = collocated_flow(u, lam, 0.5 * tau)
        expected = collocated_flow(free_propagator(half, tau), lam, 0.5 * tau)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        assert_close(splitting_step(u, params, 2), expected)


class TestChirpTables:
    def test_read_only(self):
        _, *tables = _chirp_tables(8)
        assert not any(t.flags.writeable for t in tables)


def propagated_step(u, params, order):
    """A splitting step with the free flow applied by `free_propagator`."""
    lam, tau = params.lam, params.tau
    if order == 1:
        return free_propagator(flow(u, lam, tau), tau)
    half = flow(u, lam, 0.5 * tau)
    return flow(free_propagator(half, tau), lam, 0.5 * tau)


class TestDriftPhase:
    @given(*ARGS, st.sampled_from([1, 2]))
    @example(2048, 2.0 ** -8, -1, 0, 2)
    @example(0, 0.25, 1, 0, 1)
    def test_trajectory_matches_free_propagator_route(self, n, tau, lam, seed, order):
        # bitwise: the final state, that of a run of half the steps, and the
        # diagnostics of every step
        u = unit_field(seed, n)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=4)
        traj = splitting_evolve(u, params, order, diag_stride=1)
        half = splitting_evolve(u, replace(params, steps=2), order)
        states = [u]
        for _ in range(params.steps):
            states.append(propagated_step(states[-1], params, order))
        for got, want in ((traj.initial, u), (half.final, states[2]), (traj.final, states[4])):
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
        h1 = [sobolev_norm(f, 1.0) for f in states]
        assert [d.h1 for d in traj.diagnostics] == h1


class TestFftWork:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("order,calls", [(1, 4), (2, 8)])
    def test_one_row_per_call_on_the_product_grid(self, n, order, calls, monkeypatch):
        # four calls per flow, each of one row, the step's one-run stack, on
        # the product grid of cutoff 2N (the smallest 2^k or 25*2^k >= 6N+1),
        # and no dft call
        m = {8: 50, 16: 100}[n]
        _chirp_tables(n)  # built once per cutoff, not per step
        shapes = []

        def counted(fft):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fft(a, *args, **kwargs)
            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("the splitting step called lowregnls.dft")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        for name in ("forward", "inverse"):
            monkeypatch.setattr(dft, name, forbidden)
        u = unit_field(n, n)
        splitting_step(u, SchemeParams(lam=-1, tau=0.01, cutoff=n, steps=1), order)
        assert shapes == [(1, m)] * calls
