"""Convergence-study harness: self-refinement error tables and fitted rates.

A temporal study fixes each cutoff N and compares the final state at step tau
against the run with step tau/2 from the same initial state; a spatial study
fixes tau and compares cutoff N against cutoff 2N (zero-extending the coarser
field).  Errors are the plain coefficient l2 norm sqrt(sum_k |delta_k|^2).

Cells name their runs by (N, tau) key, so a run that two cells share is
computed once.  The runs of every scheme advance in lockstep, in stacks
that pay each step's numpy calls once for all their runs
(`evolve_lockstep`), with at most STACK_POINTS grid points in a row of a
stack.  Where that removes a stack, the low-regularity runs of a cutoff's
half join those of the cutoff, zero-padded on its grid; splitting layouts
never join, so a splitting stack holds one cutoff.  The stacks follow from
the keys alone, never from the number of jobs, which only sets how many
run at once, in worker processes.  A run's wall time is the time its stack
ran until the run's last step, so the wall times of runs that share a
stack overlap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .initial_data import InitialDataSpec
# evolve and splitting_evolve are not called here, but perfbench/tracing.py
# patches both by these names
from .integrator import SCHEMES, SchemeParams, evolve, evolve_lockstep, initialize  # noqa: F401
from .reference import splitting_evolve  # noqa: F401
from .spectral import SpectralField, _pow2_grid_size, l2_error

__all__ = [
    "CSV_HEADER",
    "StudySpec",
    "ConvergenceReport",
    "fit_rate",
    "temporal_study",
    "spatial_study",
    "write_report_csv",
]

CSV_HEADER = "study,alpha,lambda,T,row_param,col_param,error,rate,wall_ms"

AXES = ("temporal", "spatial")

# most grid points R * m in a row of a stack of R runs on the m-point grid
# of its largest cutoff (a cutoff's half counted at that m): the 8-row work
# block of a worker stays within 0.5 MiB, stacks of two or more runs form only
# at m <= 2048 (N <= 682), and it alone, never the number of jobs, sizes them;
# a splitting stack takes the same count, though its flow runs on the grid
# of cutoff 2N
STACK_POINTS = 4096


@dataclass(frozen=True)
class StudySpec:
    """One convergence table: study axis, physics, and the run grid."""

    axis: str
    taus: tuple[float, ...]
    cutoffs: tuple[int, ...]
    alpha: float = 1.0
    lam: int = -1
    horizon: float = 1.0
    scheme: str = "lowreg"
    init_mode: str = "truncated"
    tail_cutoff: int | None = None
    amplitude: float = 0.1
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        object.__setattr__(self, "cutoffs", tuple(int(n) for n in self.cutoffs))
        for name in ("alpha", "horizon", "amplitude"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "lam", int(self.lam))
        object.__setattr__(self, "jobs", int(self.jobs))
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.taus:
            raise ValueError("at least one tau is required")
        if not self.cutoffs:
            raise ValueError("at least one cutoff is required")
        if any(t <= 0 for t in self.taus):
            raise ValueError(f"steps must be positive, got {self.taus}")
        if any(n < 1 for n in self.cutoffs):
            raise ValueError(f"cutoffs must be >= 1, got {self.cutoffs}")
        for name in ("taus", "cutoffs"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        refined = "taus" if self.axis == "temporal" else "cutoffs"
        if len(getattr(self, refined)) < 2:
            raise ValueError(
                f"a {self.axis} study fits its rate over at least two {refined}, "
                f"got {getattr(self, refined)}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.tail_cutoff is not None and self.init_mode != "sampled":
            raise ValueError(f"a tail cutoff needs init mode 'sampled', not {self.init_mode!r}")

    def initial_data(self) -> InitialDataSpec:
        return InitialDataSpec(kind="sobolev", alpha=self.alpha, amplitude=self.amplitude)


@dataclass(frozen=True)
class ConvergenceReport:
    """Error table of the study spec, with per-column fitted rates and
    per-cell wall times."""

    spec: StudySpec
    row_params: tuple
    col_params: tuple
    errors: np.ndarray
    rates: tuple[float, ...]
    wall_ms: np.ndarray

    def __post_init__(self):
        for name in ("errors", "wall_ms"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (len(self.row_params), len(self.col_params)):
                raise ValueError(f"{name} has shape {arr.shape}, expected "
                                 f"{(len(self.row_params), len(self.col_params))}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def fit_rate(values, errors) -> float:
    """Least-squares slope of log2(error) against log2(value).

    For errors ~ C tau^p over a tau grid this returns p; for errors ~ C N^-s
    over a cutoff grid it returns -s.  A non-positive error (e.g. identical
    runs) or fewer than two distinct values make the rate undefined, and nan
    is returned as the flag.
    """
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if values.shape != errors.shape or values.size < 2:
        raise ValueError("need at least two (value, error) pairs of equal length")
    if np.any(values <= 0):
        raise ValueError("values must be positive to fit a log-log rate")
    if np.any(errors <= 0) or np.unique(values).size < 2:
        return math.nan
    return float(np.polyfit(np.log2(values), np.log2(errors), 1)[0])


def _stacks(scheme: str, params: dict) -> list[list[tuple[int, float]]]:
    """The stacks of the runs params maps to their SchemeParams, by key.

    The runs are laid out by cutoff, from the largest down.  A stack holds
    at most max(1, STACK_POINTS // m) runs, m the product grid size of its
    layout's cutoff L.  A low-regularity layout takes in the runs of a
    smaller cutoff N when 2N >= L and that adds no stack; otherwise N opens
    a layout of its own.  A splitting layout never takes in a smaller
    cutoff, since the 4N+1 collocation aliases differently at each N.  Each
    layout is cut, by step count, into consecutive stacks of that many
    runs.  The stacks depend on the keys alone, and come costliest first
    (steps x m), the order in which they start.
    """
    def per_stack(top: int) -> int:
        return max(1, STACK_POINTS // _pow2_grid_size(top))

    layouts: list[tuple[int, list]] = []
    for n in sorted({n for n, _ in params}, reverse=True):
        runs = [key for key in params if key[0] == n]
        top, joined = layouts[-1] if layouts else (n, [])
        # N's runs join when they fit in the room the layout's last stack leaves
        if (scheme == "lowreg" and joined and 2 * n >= top
                and len(runs) <= -len(joined) % per_stack(top)):
            joined += runs
        else:
            layouts.append((n, runs))
    stacks = []
    for top, runs in layouts:
        runs.sort(key=lambda key: -params[key].steps)
        size = per_stack(top)
        stacks += [runs[i: i + size] for i in range(0, len(runs), size)]
    stacks.sort(key=lambda stack: -sum(params[key].steps for key in stack)
                * _pow2_grid_size(max(n for n, _ in stack)))
    return stacks


def _run_stack(task):
    """(final coefficients, wall_ms) of each run of a task (scheme, initial
    coefficients of each run, SchemeParams of each run): plain data, which a
    worker process can take.  A stack steps in lockstep in standard order, a
    low-regularity one on the product grid of its largest cutoff (see
    `integrator.evolve_lockstep`)."""
    scheme, coeffs, runs = task
    initials = [SpectralField(params.cutoff, c) for c, params in zip(coeffs, runs)]
    return [(traj.final.coeffs, traj.wall_ms)
            for traj in evolve_lockstep(initials, runs, scheme=scheme)]


def _compute_runs(spec: StudySpec, keys: list[tuple[int, float]]):
    """(final state, wall_ms) of every (cutoff, tau) key: each of the
    `_stacks` is a `_run_stack` task, and jobs only sets how many run at
    once, in a pool of at most one worker process per CPU."""
    data = spec.initial_data()
    states = {
        n: initialize(data, n, init_mode=spec.init_mode, tail_cutoff=spec.tail_cutoff)
        for n in sorted({n for n, _ in keys})
    }
    params = {
        (n, tau): SchemeParams.from_horizon(spec.lam, tau, n, spec.horizon)
        for n, tau in keys
    }
    stacks = _stacks(spec.scheme, params)
    tasks = [(spec.scheme, [states[n].coeffs for n, _ in stack], [params[key] for key in stack])
             for stack in stacks]

    workers = min(spec.jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = list(map(_run_stack, tasks))
    else:
        # imported here, so that a serial study does not pay for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_stack, tasks))
    return {key: (SpectralField(key[0], coeffs), wall_ms) for stack, runs in zip(stacks, results)
            for key, (coeffs, wall_ms) in zip(stack, runs)}


def _study(spec: StudySpec, axis: str) -> ConvergenceReport:
    """The error table of temporal_study or spatial_study, by axis: rows are
    the refined parameter (tau or N), columns the other one."""
    if spec.axis != axis:
        raise ValueError(f"expected a {axis} StudySpec, got axis {spec.axis!r}")
    temporal = axis == "temporal"
    rows, cols = (spec.taus, spec.cutoffs) if temporal else (spec.cutoffs, spec.taus)
    # (coarse, fine) run keys (cutoff, tau) of every cell
    cells = [
        [((c, r), (c, r / 2.0)) if temporal else ((r, c), (2 * r, c)) for c in cols]
        for r in rows
    ]
    runs = _compute_runs(spec, sorted({key for row in cells for pair in row for key in pair}))
    errors = np.empty((len(rows), len(cols)))
    wall = np.empty_like(errors)
    for i, row in enumerate(cells):
        for j, (coarse, fine) in enumerate(row):
            (f, w1), (g, w2) = runs[coarse], runs[fine]
            errors[i, j] = l2_error(f, g) / math.sqrt(2.0 * math.pi)
            wall[i, j] = w1 + w2
    rates = tuple(fit_rate(rows, errors[:, j]) for j in range(len(cols)))
    return ConvergenceReport(
        spec=spec, row_params=rows, col_params=cols, errors=errors,
        rates=rates if temporal else tuple(-r for r in rates), wall_ms=wall,
    )


def temporal_study(spec: StudySpec) -> ConvergenceReport:
    """Error table err(tau, N) = ||u_{tau,N}(T) - u_{tau/2,N}(T)||.

    Rows are the requested taus, columns the cutoffs; each column's rate is
    fitted across its rows.  Runs shared between cells (the tau/2 refinements)
    are computed once.
    """
    return _study(spec, "temporal")


def spatial_study(spec: StudySpec) -> ConvergenceReport:
    """Error table err(N, tau) = ||u_{tau,N}(T) - u_{tau,2N}(T)||.

    Rows are the requested cutoffs, columns the taus; the coarser field is
    zero-extended before differencing.  Each column's rate is reported as +s
    for errors ~ N^-s (the negated log-log slope).
    """
    return _study(spec, "spatial")


def write_report_csv(report: ConvergenceReport, path_or_file) -> None:
    """One row per table cell under the fixed header; the rate column repeats
    each column's fitted rate on every row of that column."""
    spec = report.spec
    lines = [CSV_HEADER]
    for i, rp in enumerate(report.row_params):
        for j, cp in enumerate(report.col_params):
            lines.append(
                f"{spec.axis},{spec.alpha!r},{spec.lam},{spec.horizon!r},"
                f"{rp!r},{cp!r},{float(report.errors[i, j])!r},{report.rates[j]!r},"
                f"{float(report.wall_ms[i, j])!r}"
            )
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
