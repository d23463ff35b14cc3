"""Acceptance gate: ten end-to-end checks of the shipped solver.

Each check prints exactly one `criterion NN ...: pass|FAIL (margin)` line,
bypassing pytest's capture, so any pytest invocation shows the gate status
at a glance.  The error-table targets are frozen reference values for the
low-regularity integrator on the standard rough-data family; the remaining
checks pin closed forms, cross-checks and the runtime contract.
"""

import cmath
import gc
import time

import numpy as np
import pytest

from lowregnls import dft
from lowregnls.harness import StudySpec, spatial_study, temporal_study
from lowregnls.initial_data import InitialDataSpec
from lowregnls.integrator import (
    SchemeParams,
    conserved_quantities,
    evolve,
    initialize,
    step,
    step_twisted,
)
from lowregnls.spectral import (
    SpectralField,
    dealiased_product,
    free_propagator,
    l2_error,
    sobolev_norm,
)

TEMPORAL_TAUS = (2.0 ** -6, 2.0 ** -7, 2.0 ** -8)
TEMPORAL_CUTOFFS = (2 ** 8, 2 ** 9, 2 ** 10)
SPATIAL_TAUS = (2.0 ** -8, 2.0 ** -9, 2.0 ** -10)
SPATIAL_CUTOFFS = (16, 32, 64)

# frozen reference tables; temporal rows follow TEMPORAL_TAUS, columns
# TEMPORAL_CUTOFFS, spatial targets are per cutoff row (tau-independent)
TABLE_H2_TEMPORAL = np.array([
    [7.662e-06, 7.662e-06, 7.662e-06],
    [3.829e-06, 3.829e-06, 3.829e-06],
    [1.915e-06, 1.915e-06, 1.915e-06],
])
TABLE_H1_TEMPORAL = np.array([
    [2.144e-05, 2.146e-05, 2.146e-05],
    [1.023e-05, 1.021e-05, 1.021e-05],
    [5.057e-06, 5.067e-06, 5.066e-06],
])
SPATIAL_H2_ROWS = {32: 6.237e-05, 64: 1.574e-05}
SPATIAL_H1_ROWS = {16: 5.056e-03, 32: 2.559e-03, 64: 1.283e-03}


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def table_h2():
    return temporal_study(StudySpec(
        axis="temporal", taus=TEMPORAL_TAUS, cutoffs=TEMPORAL_CUTOFFS,
        alpha=2.0, lam=-1, horizon=1.0, jobs=3,
    ))


@pytest.fixture(scope="module")
def table_h1():
    return temporal_study(StudySpec(
        axis="temporal", taus=TEMPORAL_TAUS, cutoffs=TEMPORAL_CUTOFFS,
        alpha=1.0, lam=-1, horizon=1.0, jobs=3,
    ))


@pytest.fixture(scope="module")
def table_s2():
    return spatial_study(StudySpec(
        axis="spatial", taus=SPATIAL_TAUS, cutoffs=SPATIAL_CUTOFFS,
        alpha=2.0, lam=-1, horizon=1.0, jobs=3,
    ))


@pytest.fixture(scope="module")
def table_s1():
    return spatial_study(StudySpec(
        axis="spatial", taus=SPATIAL_TAUS, cutoffs=SPATIAL_CUTOFFS,
        alpha=1.0, lam=-1, horizon=1.0, jobs=3,
    ))


def test_criterion_01_temporal_table_h2_data(table_h2, capsys):
    dev = float(np.max(np.abs(table_h2.errors / TABLE_H2_TEMPORAL - 1.0)))
    rate_dev = max(abs(r - 1.00) for r in table_h2.rates)
    ok = dev <= 0.05 and rate_dev <= 0.02
    _report(capsys, 1, "temporal error table, H^2 data", ok,
            f"max cell dev {dev:.2%} of 5%, max rate dev {rate_dev:.3f} of 0.02")


def test_criterion_02_temporal_table_h1_data(table_h1, capsys):
    dev = float(np.max(np.abs(table_h1.errors / TABLE_H1_TEMPORAL - 1.0)))
    rate_dev = max(abs(r - 1.02) for r in table_h1.rates)
    ok = dev <= 0.05 and rate_dev <= 0.03
    _report(capsys, 2, "temporal error table, H^1 data", ok,
            f"max cell dev {dev:.2%} of 5%, max rate dev {rate_dev:.3f} of 0.03")


def test_criterion_03_spatial_table_h2_data(table_s2, capsys):
    errors = table_s2.errors
    # the N=16 row is only pinned to itself across tau columns
    consistency = float(errors[0].max() / errors[0].min() - 1.0)
    dev = max(
        float(np.max(np.abs(errors[i] / SPATIAL_H2_ROWS[n] - 1.0)))
        for i, n in enumerate(SPATIAL_CUTOFFS) if n in SPATIAL_H2_ROWS
    )
    rate_dev = max(abs(r - 1.99) for r in table_s2.rates)
    ok = consistency <= 0.02 and dev <= 0.05 and rate_dev <= 0.03
    _report(capsys, 3, "spatial error table, H^2 data", ok,
            f"max cell dev {dev:.2%} of 5%, N=16 row spread {consistency:.2%}, "
            f"max rate dev {rate_dev:.3f} of 0.03")


def test_criterion_04_spatial_table_h1_data(table_s1, capsys):
    dev = max(
        float(np.max(np.abs(table_s1.errors[i] / SPATIAL_H1_ROWS[n] - 1.0)))
        for i, n in enumerate(SPATIAL_CUTOFFS)
    )
    rate_dev = max(abs(r - 1.00) for r in table_s1.rates)
    ok = dev <= 0.05 and rate_dev <= 0.02
    _report(capsys, 4, "spatial error table, H^1 data", ok,
            f"max cell dev {dev:.2%} of 5%, max rate dev {rate_dev:.3f} of 0.02")


def test_criterion_05_twisted_equivalence(capsys):
    rng = np.random.default_rng(61)
    tau, cutoff = 0.01, 16
    worst = 0.0
    for trial in range(50):
        lam = -1 if trial % 2 == 0 else 1
        idx = trial % 9  # step indices 0..8
        params = SchemeParams(lam=lam, tau=tau, cutoff=cutoff, steps=1)
        u = SpectralField(cutoff, 0.3 * (rng.standard_normal(2 * cutoff + 1)
                                         + 1j * rng.standard_normal(2 * cutoff + 1)))
        cq = conserved_quantities(u)
        direct = step(u, params, cq)
        tn = idx * tau
        twisted = free_propagator(
            step_twisted(free_propagator(u, -tn), params, cq, idx), tn + tau
        )
        worst = max(worst, l2_error(direct, twisted) / sobolev_norm(u, 0.0))
    ok = worst <= 1e-10
    _report(capsys, 5, "twisted-variable cross-check", ok,
            f"max relative deviation {worst:.2e} of 1e-10 over 50 fields")


def test_criterion_06_dealiased_products(capsys):
    rng = np.random.default_rng(62)
    worst = 0.0
    for cutoff in (1, 2, 4, 8, 16, 32):
        for _ in range(100):
            f = SpectralField(cutoff, rng.standard_normal(2 * cutoff + 1)
                              + 1j * rng.standard_normal(2 * cutoff + 1))
            g = SpectralField(cutoff, rng.standard_normal(2 * cutoff + 1)
                              + 1j * rng.standard_normal(2 * cutoff + 1))
            full = np.convolve(f.coeffs, g.coeffs)
            direct = SpectralField(cutoff, full[cutoff: 3 * cutoff + 1])
            err = l2_error(dealiased_product(f, g), direct)
            worst = max(worst, err / max(sobolev_norm(direct, 0.0), 1e-300))
    ok = worst <= 1e-12
    _report(capsys, 6, "dealiased product vs direct convolution", ok,
            f"max relative deviation {worst:.2e} of 1e-12 over 600 pairs")


def test_criterion_07_constant_state(capsys):
    worst = 0.0
    tau = 0.02
    for lam in (-1, 1):
        for c in (1.0 + 0.0j, 0.7 - 0.4j):
            params = SchemeParams(lam=lam, tau=tau, cutoff=4, steps=1)
            u = SpectralField.from_modes(4, {0: c})
            out = step(u, params, conserved_quantities(u))
            expected = SpectralField.from_modes(
                4, {0: c * (1.0 - 1j * lam * tau * abs(c) ** 2)}
            )
            worst = max(worst, l2_error(out, expected))

    def final_err(tau):
        params = SchemeParams.from_horizon(-1, tau, 4, 1.0)
        u0 = SpectralField.from_modes(4, {0: 1.0 + 0.0j})
        traj = evolve(u0, params)
        return abs(traj.final.coefficient(0) - cmath.exp(1j))

    ratio = final_err(2.0 ** -7) / final_err(2.0 ** -8)
    ok = worst <= 1e-13 and 1.9 <= ratio <= 2.1
    _report(capsys, 7, "constant-state closed form", ok,
            f"one-step dev {worst:.2e} of 1e-13, halving ratio {ratio:.3f} in [1.9, 2.1]")


def test_criterion_08_transform_kernel(capsys):
    def oracle(samples):
        m = samples.shape[0]
        k = dft.index_window(m)
        x = dft.grid(m)
        out = np.empty(m, dtype=complex)
        for lo in range(0, m, 256):
            kk = k[lo:lo + 256, None]
            out[lo:lo + 256] = np.exp(-1j * kk * x[None, :]) @ samples / m
        return out

    rng = np.random.default_rng(63)
    worst_fwd, worst_inv = 0.0, 0.0
    for m in (1, 3, 5, 7, 9, 21, 85, 341, 1025, 4097):
        s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c = dft.forward(s)
        ref = oracle(s)
        worst_fwd = max(worst_fwd,
                        float(np.linalg.norm(c - ref) / np.linalg.norm(ref)))
        worst_inv = max(worst_inv,
                        float(np.linalg.norm(dft.inverse(c) - s) / np.linalg.norm(s)))
    ok = worst_fwd <= 1e-11 and worst_inv <= 1e-12
    _report(capsys, 8, "transform kernel vs direct summation", ok,
            f"oracle dev {worst_fwd:.2e} of 1e-11, inversion dev {worst_inv:.2e} "
            f"of 1e-12, lengths up to 4097")


def test_criterion_09_h1_stays_bounded(capsys):
    u0 = initialize(InitialDataSpec(kind="sobolev", alpha=1.0), 2 ** 10)
    params = SchemeParams.from_horizon(-1, 2.0 ** -8, 2 ** 10, 1.0)
    traj = evolve(u0, params)
    bound = 10.0 * sobolev_norm(u0, 1.0)
    ok = traj.h1_max <= bound
    _report(capsys, 9, "H^1 boundedness over a rough-data run", ok,
            f"max H^1 {traj.h1_max:.6f} vs bound {bound:.6f}")


def _step_ms(reps):
    """The least time in ms of one step at each cutoff of `reps`, once every
    cutoff is warm, its reps[cutoff] steps taken round-robin across the
    cutoffs, so that a slow spell of the host falls on all of them."""
    runs = {}
    for cutoff in reps:
        params = SchemeParams(lam=-1, tau=2.0 ** -8, cutoff=cutoff, steps=1)
        u = initialize(InitialDataSpec(kind="sobolev", alpha=1.0), cutoff)
        cq = conserved_quantities(u)
        # warm up: plan construction and caches
        runs[cutoff] = [step(step(u, params, cq), params, cq), params, cq]
    times = {cutoff: [] for cutoff in reps}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(max(reps.values())):
            for cutoff, run in runs.items():
                if i < reps[cutoff]:
                    t0 = time.perf_counter()
                    run[0] = step(*run)
                    times[cutoff].append((time.perf_counter() - t0) * 1e3)
    finally:
        if enabled:
            gc.enable()
    # the minimum estimates the inherent cost; larger samples carry scheduler
    # and allocator noise, which is what the scaling bound must ignore
    return {cutoff: min(ts) for cutoff, ts in times.items()}


def test_criterion_10_step_cost_scaling(capsys):
    t10, t12, t13, t14 = _step_ms({2 ** 10: 11, 2 ** 12: 9, 2 ** 13: 9, 2 ** 14: 9}).values()
    r1, r2 = t13 / t12, t14 / t13
    ok = t10 <= 5.0 and r1 <= 3.0 and r2 <= 3.0
    _report(capsys, 10, "per-step cost and scaling", ok,
            f"step(N=2^10) {t10:.2f} ms of 5 ms; doubling ratios "
            f"{r1:.2f}, {r2:.2f} of 3.0")
