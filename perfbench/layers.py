"""Per-layer metrics: span arithmetic over traced runs plus direct probes.

Counts come from the tracer's exact counters and are per lowreg or splitting
step.  Times are sums of span durations or self times; self time is a span's
duration minus the part of its interval its children cover.  Probes time
one public call (step, dealiased_product, splitting_step, coefficients) at
the workload's N with warm plans, as the median of repeated calls.
"""

from __future__ import annotations

import statistics
import time

from lowregnls import initial_data, integrator, reference, spectral
from tracing import SpanTree

# a numpy.fft call reads and writes every complex128 point once
FFT_BYTES_PER_POINT = 16 * 2
STUDY_SPANS = ("harness.temporal_study", "harness.spatial_study")
RUN_SPANS = ("integrator.evolve", "reference.splitting_evolve")


def probe_seconds(fn, min_calls: int = 5, min_seconds: float = 0.2) -> float:
    """Median wall time of repeated calls of fn."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(cutoffs, cutoff: int, tau: float) -> dict:
    """Warm single-call times: step at every cutoff, the others at `cutoff`."""
    spec = initial_data.InitialDataSpec(kind="sobolev", alpha=1.0, amplitude=0.1)

    def state(n):
        u = integrator.initialize(spec, n)
        return u, integrator.SchemeParams(-1, tau, n, 1), integrator.conserved_quantities(u)

    step_s = {}
    for n in sorted(set(cutoffs) | {cutoff}):
        u, params, cq = state(n)
        integrator.step(u, params, cq)
        step_s[n] = probe_seconds(lambda: integrator.step(u, params, cq))
    u, params, _ = state(cutoff)
    g = spectral.free_propagator(u, tau)
    return {
        "step_s": step_s,
        "integrator.step.ms": step_s[cutoff] * 1e3,
        "spectral.dealiased_product.us":
            probe_seconds(lambda: spectral.dealiased_product(u, g)) * 1e6,
        "reference.splitting_step.ms":
            probe_seconds(lambda: reference.splitting_step(u, params, 2)) * 1e3,
        "initial_data.coefficients.ms":
            probe_seconds(lambda: initial_data.coefficients(spec, cutoff)) * 1e3,
    }


def run_metrics(tracer, workload, wall_s: float, step_s: dict) -> dict:
    """Metrics of one traced run that took wall_s."""
    tree = SpanTree(tracer.spans)
    counts = tracer.counts
    steps = counts["steps"]

    def per_step(x):
        return x / steps if steps else 0.0

    fft_s = tree.total("numpy.fft.fft", "numpy.fft.ifft")
    evolves = tree.named("integrator.evolve")
    evolve_steps = sum(s.attrs["steps"] for s in evolves)
    studies = tree.named(*STUDY_SPANS)
    study_ids = {s.id for s in studies}
    runs = [s for s in tree.named(*RUN_SPANS) if s.parent in study_ids]
    busy = sum(s.duration for s in runs)
    study_wall = sum(s.duration for s in studies)
    jobs = getattr(getattr(workload, "spec", None), "jobs", 1)
    cells = workload.cells()
    mains = sorted(tree.named("cli.main"), key=lambda s: s.start)
    return {
        "numpy.fft.calls_per_step": per_step(counts["numpy.fft.calls"]),
        "numpy.fft.rows_per_step": per_step(counts["numpy.fft.rows"]),
        "numpy.fft.len": counts["numpy.fft.len_max"],
        "numpy.fft.bytes_per_step": per_step(counts["numpy.fft.elements"] * FFT_BYTES_PER_POINT),
        "numpy.fft.self_s": fft_s,
        "numpy.fft.share": fft_s / wall_s,
        "numpy.dot.calls_per_step": per_step(counts["numpy.dot.calls"]),
        "numpy.dot.self_s": tree.total("numpy.dot"),
        "integrator.evolve.self_s": tree.total_self("integrator.evolve"),
        "integrator.evolve.overhead_us_per_step": (
            sum(s.duration - s.attrs["steps"] * step_s[s.attrs["N"]] for s in evolves)
            / evolve_steps * 1e6 if evolve_steps else 0.0
        ),
        "integrator.save_trajectory.s": tree.total("integrator.save_trajectory"),
        "integrator.load_trajectory.s": tree.total("integrator.load_trajectory"),
        "reference.splitting_evolve.self_s": tree.total_self("reference.splitting_evolve"),
        "dft.calls_per_step": per_step(counts["dft.calls"]),
        "dft.len": counts["dft.len_max"],
        "dft.self_s": tree.total_self("dft.forward", "dft.inverse"),
        "harness.runs": counts["harness.runs"],
        "harness.cells": cells,
        "harness.run_reuse_ratio": 2 * cells / len(runs) if runs else 0.0,
        "harness.evolve_busy_s": busy,
        "harness.parallel_efficiency": busy / (jobs * study_wall) if study_wall else 0.0,
        "harness.critical_run_s": max((s.duration for s in runs), default=0.0),
        "harness.self_s": tree.total_self(*STUDY_SPANS),
        "cli.solve.s": mains[0].duration if mains else 0.0,
        "cli.diagnostics.s": mains[1].duration if len(mains) > 1 else 0.0,
        "cli.self_s": tree.total_self("cli.main"),
    }


def layer_metrics(workload, tracers, walls) -> dict:
    """Every per-layer metric but the tracing overhead: medians over the
    traced runs, which took `walls`, plus the probes."""
    cutoffs = {s.attrs["N"] for t in tracers for s in t.spans if s.name in RUN_SPANS}
    found = probes(cutoffs, workload.cutoff, workload.tau)
    step_s = found.pop("step_s")
    per_run = [run_metrics(t, workload, w, step_s) for t, w in zip(tracers, walls)]
    out = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    out.update(found)
    out["integrator.dump_bytes"] = workload.dump_bytes()
    return out
