#!/usr/bin/env python3
"""Benchmark of lowregnls: four workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-n16384 --seed 0 --seconds 20 --trace 0

With --trace 0 the workload runs with no instrumentation and the end-to-end
metrics are reported; with --trace 1 a separate traced run reports the
per-layer metrics (see perfbench/README.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The package is imported from src/ beside this directory; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_PROBES = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2

# Times are reported at a reference machine speed: the speed at which the
# calibration kernel below takes CAL_REF_S seconds.  On a shared 2-core host
# one and the same run took anywhere from 1.2 s to 2.2 s within an hour; the
# kernel, timed right before and after every run, tracks most of that drift.
CAL_REF_S = 0.05

# name -> unit; the same names, in order, as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "numpy.fft.calls_per_step": "calls/step",
    "numpy.fft.rows_per_step": "rows/step",
    "numpy.fft.len": "points",
    "numpy.fft.bytes_per_step": "B/step",
    "numpy.fft.self_s": "s",
    "numpy.fft.share": "ratio",
    "numpy.dot.calls_per_step": "calls/step",
    "numpy.dot.self_s": "s",
    "integrator.step.ms": "ms",
    "integrator.evolve.self_s": "s",
    "integrator.evolve.overhead_us_per_step": "us",
    "integrator.save_trajectory.s": "s",
    "integrator.load_trajectory.s": "s",
    "integrator.dump_bytes": "B",
    "spectral.dealiased_product.us": "us",
    "reference.splitting_step.ms": "ms",
    "reference.splitting_evolve.self_s": "s",
    "dft.calls_per_step": "calls/step",
    "dft.len": "points",
    "dft.self_s": "s",
    "harness.runs": "count",
    "harness.cells": "count",
    "harness.run_reuse_ratio": "ratio",
    "harness.evolve_busy_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.critical_run_s": "s",
    "harness.self_s": "s",
    "cli.solve.s": "s",
    "cli.diagnostics.s": "s",
    "cli.self_s": "s",
    "initial_data.coefficients.ms": "ms",
    "trace_overhead_ratio": "ratio",
}
WORKLOAD_NAMES = ("study-temporal-h1", "evolve-n16384", "study-spatial-small",
                  "cli-strang-dump")


def import_package():
    """Import lowregnls from this checkout's src/, then the workloads."""
    if not (SRC / "lowregnls" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lowregnls'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import lowregnls

    if Path(lowregnls.__file__).resolve().parent != (SRC / "lowregnls").resolve():
        print(f"error: lowregnls imported from {lowregnls.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def environment() -> dict:
    """Where the numbers come from: cores, CPU, versions, FFT and BLAS."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    fft = "pocketfft" if hasattr(np.fft, "_pocketfft_umath") else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": f"numpy.fft ({fft})",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Calibration:
    """A fixed numpy and pure-Python kernel that runs no package code, on as
    many threads as the workload keeps busy.

    `around` records the kernel's mean time just before and just after a
    measured interval; `speed` is the factor that takes a median raw time
    over such intervals to reference speed."""

    def __init__(self, threads: int = 1):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.threads = threads
        self.vec = rng.standard_normal(257) + 0j
        self.small = rng.standard_normal((8, 1024)) + 0j
        self.large = rng.standard_normal((2, 2 ** 16)) + 0j
        self.last = self.measure()
        self.times: list[float] = []

    def kernel(self, _=None) -> None:
        """About 50 ms: small-array numpy calls from a Python loop, batched
        FFTs that fit in cache, and FFTs of rows larger than L2."""
        np, vec = self.np, self.vec
        for _ in range(800):
            w = np.exp(1j * vec.real) * vec
            float(np.sum(np.abs(w) ** 2))
        for _ in range(80):
            np.fft.ifft(np.fft.fft(self.small) * 2.0)
        for _ in range(4):
            np.fft.ifft(np.fft.fft(self.large) * 2.0)

    def measure(self) -> float:
        t0 = time.perf_counter()
        if self.threads == 1:
            self.kernel()
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                list(pool.map(self.kernel, range(self.threads)))
        return time.perf_counter() - t0

    def around(self) -> None:
        """Call right after a measured interval."""
        before, self.last = self.last, self.measure()
        self.times.append(0.5 * (before + self.last))

    def speed(self, which: slice) -> float:
        """CAL_REF_S over the median kernel time around the chosen intervals."""
        return CAL_REF_S / statistics.median(self.times[which])


def setup_probe(name: str, seed: int, with_run: bool) -> None:
    """Child process: time import, inputs, plans and warm-up.  With
    with_run, then run the workload once and report the peak RSS."""
    t0 = time.perf_counter()
    workloads = import_package()
    workdir = OUT / f"probe-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    result = {"setup_s": time.perf_counter() - t0}
    if with_run:
        try:
            workload.run()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def measure_setup(name: str, seed: int, calibration: Calibration) -> tuple[list, float]:
    """Raw set-up times of SETUP_PROBES fresh processes, run one after
    another, and the peak RSS of the last one, which also runs the workload
    once.  The calibration kernel brackets every probe."""
    raw, peak = [], 0.0
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", name, "--seed", str(seed)]
        if i == SETUP_PROBES - 1:
            argv.append("--probe-run")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, cwd=ROOT)
        calibration.around()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(result["setup_s"])
        peak = result.get("peak_rss_mib", peak)
    return raw, peak


class Reps:
    """Repetitions of one workload, each timed and checked against its
    reference; a repetition may be traced by a fresh Tracer."""

    def __init__(self, workload, ref: dict, calibration: Calibration):
        self.workload = workload
        self.ref = ref
        self.calibration = calibration
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.outputs = []
        self.tracers = []
        self.failures: list[str] = []
        self.failed_runs: set[int] = set()

    def fail(self, index: int, problem: str) -> None:
        self.failures.append(f"run {index}: {problem}")
        self.failed_runs.add(index)

    def once(self, tracer=None) -> None:
        w = self.workload
        index = len(self.walls)
        out = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                out = w.run()
            else:
                with tracer.installed(), tracer.span("workload", workload=w.name):
                    out = w.run()
        except Exception as exc:  # a raising repetition is counted, not fatal
            self.fail(index, f"{type(exc).__name__}: {exc}")
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)
        self.calibration.around()
        if out is not None:
            out = w.finish(out)
            problem = w.check(out, self.ref)
            if problem:
                self.fail(index, problem)
        self.outputs.append(out)
        self.tracers.append(tracer)

    def until(self, deadline: float, at_least: int, tracer_factory=None) -> slice:
        """Repeat until the deadline and at least `at_least` times; return
        the slice of the new repetitions."""
        first = len(self.walls)
        while len(self.walls) - first < at_least or time.perf_counter() < deadline:
            self.once(tracer_factory() if tracer_factory else None)
            if self.outputs[-1] is None:
                break  # it raised; repeating would only raise again
        return slice(first, len(self.walls))

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return len(self.failed_runs)


def summary(raw: list[float]) -> str:
    return (f"raw median {statistics.median(raw):.4g} s, min {min(raw):.4g}, "
            f"max {max(raw):.4g}")


def cross_check(workloads, workload, reps: Reps) -> None:
    """step vs the conjugated step_twisted on one state of the last good run."""
    good = [i for i, out in enumerate(reps.outputs) if out is not None]
    if not good:
        return
    state, tau = workload.cross_check_state(reps.outputs[good[-1]])
    gap = workloads.twisted_deviation(state, tau)
    print(f"step_twisted cross-check at N={state.cutoff}: relative gap {gap:.3e} "
          f"(bound {workloads.ROUNDOFF:g})")
    if not gap <= workloads.ROUNDOFF:
        reps.fail(good[-1], f"step_twisted cross-check gap {gap:.3e}")


def emit(reps: Reps, metrics: dict) -> None:
    """Print failures, fail_ratio and the result line."""
    for msg in reps.failures[:10]:
        print(f"FAIL {msg}")
    print(f"fail_ratio {reps.failed / reps.attempted:.4g} "
          f"({reps.failed} of {reps.attempted} runs)")
    print(json.dumps({
        "correct": not reps.failures,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


def plain_run(workloads, workload, ref, seed: int, seconds: float) -> None:
    """End-to-end metrics, with no instrumentation in the timed runs."""
    setup_calibration = Calibration()  # set-up runs on one thread
    setup_raw, peak_mib = measure_setup(workload.name, seed, setup_calibration)
    setup_speed = setup_calibration.speed(slice(None))
    workload.warm_up()
    calibration = Calibration(workload.threads)
    reps = Reps(workload, ref, calibration)
    reps.until(time.perf_counter() + seconds, MIN_REPS)
    speed = calibration.speed(slice(None))
    cross_check(workloads, workload, reps)
    n = reps.attempted
    values = {
        "setup_s": (statistics.median(setup_raw) * setup_speed,
                    f"median of {len(setup_raw)} fresh processes; {summary(setup_raw)}"),
        "wall_s": (statistics.median(reps.walls) * speed,
                   f"median of {n} runs; {summary(reps.walls)}"),
        "cpu_s": (statistics.median(reps.cpus) * speed,
                  f"median of {n} runs; {summary(reps.cpus)}"),
        "peak_rss_mib": (peak_mib, "fresh process: set-up and one run"),
        "pass_ratio": (1.0 - reps.failed / n, "runs that passed every check"),
    }
    print(f"speed factor {speed:.4g} during the runs, {setup_speed:.4g} during set-up "
          f"({CAL_REF_S} s over the calibration kernel's median time); times below "
          f"are raw medians times the speed factor")
    metrics = {}
    for key, unit in END_TO_END.items():
        value, note = values[key]
        print(f"{key:<14} {value:12.6g} {unit:<6} {note}")
        metrics[key] = (value, unit)
    emit(reps, metrics)


def traced_run(workloads, workload, ref, seconds: float) -> None:
    """Per-layer metrics: plain runs, one counting-only run, traced runs."""
    from layers import layer_metrics
    from tracing import Tracer

    workload.warm_up()
    start = time.perf_counter()
    calibration = Calibration(workload.threads)
    reps = Reps(workload, ref, calibration)
    plain = reps.until(start + seconds / 3.0, 1)
    counting = reps.until(0.0, 1, lambda: Tracer(spans=False))
    traced = reps.until(start + seconds, MIN_TRACED_REPS, Tracer)
    # exact counts repeat in every instrumented run, and instrumentation
    # changes no bit of any output
    expected = reps.tracers[counting][0].counts
    for i in range(traced.start, traced.stop):
        if reps.tracers[i].counts != expected:
            reps.fail(i, f"counts {dict(reps.tracers[i].counts)} differ from the "
                         f"counting run's {dict(expected)}")
    first = reps.outputs[0]
    for i, out in enumerate(reps.outputs):
        if first is None or out is None or not out.same_as(first):
            reps.fail(i, "output differs from plain run 0")
    cross_check(workloads, workload, reps)

    tracers = reps.tracers[traced]
    metrics = layer_metrics(workload, tracers, reps.walls[traced])
    metrics["trace_overhead_ratio"] = (
        statistics.median(reps.walls[traced]) * calibration.speed(traced)
        / (statistics.median(reps.walls[plain]) * calibration.speed(plain))
    )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.json"
    tracers[-1].write(spans_path)
    print(f"exact counts per run: {dict(sorted(expected.items()))}")
    print(f"spans of the last traced run: {spans_path.relative_to(ROOT)}")
    for key, unit in PER_LAYER.items():
        print(f"{key:<40} {metrics[key]:14.6g} {unit}")
    emit(reps, {key: (metrics[key], unit) for key, unit in PER_LAYER.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.probe_run)
        return 0

    workloads = import_package()
    print(f"workload {args.workload} seed {args.seed} "
          f"(input set {args.seed % workloads.INPUT_SETS}) trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in environment().items()))
    ref = workloads.load_references()[args.workload][str(args.seed % workloads.INPUT_SETS)]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            traced_run(workloads, workload, ref, args.seconds)
        else:
            plain_run(workloads, workload, ref, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
