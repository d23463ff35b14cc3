"""The splitting's nonlinear flow: the chirp-z route against the direct
collocation on 4N+1 points, on one grid row or on two paired ones, the
stack's free-flow phase against `free_propagator`, and the FFT work of a
splitting step."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lowregnls import dft, harness
from lowregnls.integrator import SchemeParams, conserved_quantities, splitting_evolve
from lowregnls.reference import _chirp_tables, _flow_work, _nonlinear_flow, _pairs, splitting_step
from lowregnls.spectral import (
    SpectralField,
    _pow2_grid_size,
    free_propagator,
    l2_error,
    project,
    sobolev_norm,
)

# 682 is the largest cutoff whose flow runs one grid row, 683 the least
# that pairs two
PINNED = (0, 1, 2, 5, 64, 682, 683, 2048)


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
    out = _nonlinear_flow(c, lam, np.array([t]), _flow_work(1, f.cutoff))
    return SpectralField(f.cutoff, np.fft.fftshift(out[0]))


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


    # angles t|u|^2 of hundreds of turns, which cos and sin must reduce as
    # np.exp does; a sample's relative round-off d turns into a phase error
    # of angle * d, so the bound grows by 1e-15 per radian of the largest
    @pytest.mark.parametrize("n", [5, 64])
    @pytest.mark.parametrize("lam", [-1, 1])
    def test_flow_at_large_angles(self, n, lam):
        f, t = 20.0 * unit_field(n, n), 0.5
        angle = t * np.max(np.abs(dft.inverse(project(f, 2 * n).coeffs)) ** 2)
        assert angle > 100 * 2 * np.pi
        expected = collocated_flow(f, lam, t)
        bound = (1e-13 + 1e-15 * angle) * sobolev_norm(expected, 0.0)
        assert l2_error(flow(f, lam, t), expected) <= bound


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
        # diagnostics of every step, whose drifts are those of
        # `conserved_quantities`
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
        cq = [conserved_quantities(f) for f in states]
        assert [(d.mass_drift, d.momentum_drift) for d in traj.diagnostics] == [
            (abs(q.mass - cq[0].mass), abs(q.momentum_imag - cq[0].momentum_imag)) for q in cq]


class TestFftWork:
    # four calls per flow, of the step's one-run stack, on the product grid
    # of cutoff 2N (the smallest 2^k or 25*2^k >= 6N+1): one row of all its
    # points, or, where the flow pairs (N >= 683), its even and odd points
    # as two rows of half length; and no dft call
    @pytest.mark.parametrize("n, shape", [(8, (1, 1, 50)), (16, (1, 1, 100)),
                                          (683, (1, 2, 3200))])
    @pytest.mark.parametrize("order,calls", [(1, 4), (2, 8)])
    def test_calls_on_the_product_grid(self, n, shape, order, calls, monkeypatch):
        assert shape[1] * shape[2] == _pow2_grid_size(2 * n)
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
        assert shapes == [shape] * calls


class TestPairing:
    def test_a_flow_pairs_where_its_cutoff_stacks_alone(self):
        # pairing pays for one run and costs for a stack of several, so a
        # cutoff's flow pairs exactly where `harness` steps each of its runs
        # in a stack of its own; a change to harness.STACK_POINTS or to the
        # pairing rule alone fails here
        for n in range(1, 4097):
            keys = [(n, 2.0 ** -4), (n, 2.0 ** -5)]
            params = {key: SchemeParams(-1, key[1], n, 1) for key in keys}
            alone = all(len(stack) == 1 for stack in harness._stacks("strang", params))
            assert (_pairs(n) == 2) == alone, n


class TestNormBias:
    # at t = 0 the flow is the identity up to round-off, which leans to one
    # side (mean Re<c, out - c> of +2e-16 to +4e-16 over unit fields); that
    # bias adds up over the steps of a run, so it must stay at round-off,
    # paired or not
    @pytest.mark.parametrize("n", [64, 683, 2048])
    def test_identity_flow_keeps_the_norm(self, n):
        work = _flow_work(1, n)
        for seed in range(20):
            c = np.fft.ifftshift(unit_field(seed, n).coeffs)[None]
            out = _nonlinear_flow(c, -1, np.array([0.0]), work)
            assert abs(np.vdot(c, out - c).real) <= 1e-15
