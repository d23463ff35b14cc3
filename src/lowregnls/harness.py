"""Convergence-study harness: self-refinement error tables and fitted rates.

A temporal study fixes each cutoff N and compares the final state at step tau
against the run with step tau/2 from the same initial state; a spatial study
fixes tau and compares cutoff N against cutoff 2N (zero-extending the coarser
field).  Errors are the plain coefficient l2 norm sqrt(sum_k |delta_k|^2).

Cells name their runs by (N, tau) key, so a run that two cells share is
computed once.  The runs of every scheme advance in lockstep, in stacks
that pay each step's numpy calls once for all their runs
(`evolve_lockstep`), each of at most `spectral._stack_runs` runs.  Where
that removes a stack, the low-regularity runs of a cutoff's half join
those of the cutoff, zero-padded on its grid; splitting layouts never
join, so a splitting stack holds one cutoff.  The stacks follow from the
keys alone, never from the number of jobs, which only sets how many run
at once, in worker processes.  A study's numbers follow from its spec
alone; timing it is left to the caller.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .initial_data import InitialDataSpec
from .integrator import MIN_TAU, SchemeParams, _scheme, _sign, evolve_lockstep, initialize
# not called here, but perfbench/tracing.py patches both by these names
from .integrator import evolve, splitting_evolve  # noqa: F401
from .spectral import SpectralField, _integer, _pow2_grid_size, _real, _stack_runs, l2_error

__all__ = [
    "CSV_HEADER",
    "StudySpec",
    "ConvergenceReport",
    "fit_rate",
    "temporal_study",
    "spatial_study",
    "write_report_csv",
]

CSV_HEADER = "study,alpha,lambda,T,row_param,col_param,error,rate"

# the parameter each axis refines (the rows of its table), then the other
# (its columns), each as (StudySpec field, name in a report)
AXIS_NAMES = {
    "temporal": (("taus", "tau"), ("cutoffs", "N")),
    "spatial": (("cutoffs", "N"), ("taus", "tau")),
}
AXES = tuple(AXIS_NAMES)


@dataclass(frozen=True)
class StudySpec:
    """One convergence table: study axis, physics, and the runs its cells name."""

    axis: str
    taus: tuple[float, ...]
    cutoffs: tuple[int, ...]
    alpha: float = 1.0
    lam: int = -1
    horizon: float = 1.0
    scheme: str = "lowreg"
    amplitude: float = 0.1
    jobs: int = 1

    def __post_init__(self):
        taus = tuple(_real(t, "tau", positive=True) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "cutoffs", tuple(_integer(n, "cutoffs", 1) for n in self.cutoffs))
        for name in ("alpha", "horizon", "amplitude"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "lam", _sign(self.lam))
        object.__setattr__(self, "jobs", _integer(self.jobs, "jobs", 1))
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        _scheme(self.scheme)
        if not (self.taus and self.cutoffs):
            raise ValueError("a study needs at least one tau and one cutoff")
        for name in ("taus", "cutoffs"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        if len(self.rows) < 2:
            raise ValueError(f"a {self.axis} study fits its rate over at least two "
                             f"{AXIS_NAMES[self.axis][0][0]}, got {self.rows}")
        # its initial data and each run's step grid, so that a bad alpha or a
        # horizon off a step grid is rejected here
        self.initial_data()
        self.runs()

    @property
    def rows(self) -> tuple:
        """The refined parameter, taus of a temporal study and cutoffs of a
        spatial one (AXIS_NAMES); cols is the other, with one fitted rate each."""
        return getattr(self, AXIS_NAMES[self.axis][0][0])

    @property
    def cols(self) -> tuple:
        return getattr(self, AXIS_NAMES[self.axis][1][0])

    def cells(self) -> list[list[tuple[tuple[int, float], tuple[int, float]]]]:
        """The (coarse, fine) run keys (cutoff, tau) of each cell, by row and column:
        a temporal study refines (N, tau) to (N, tau/2), a spatial one to (2N, tau)."""
        if self.axis == "spatial":
            return [[((n, tau), (2 * n, tau)) for tau in self.taus] for n in self.cutoffs]
        for tau in self.taus:
            if tau / 2.0 < MIN_TAU:
                raise ValueError(f"tau {tau!r} is too small to halve")
        return [[((n, tau), (n, tau / 2.0)) for n in self.cutoffs] for tau in self.taus]

    def runs(self) -> dict[tuple[int, float], SchemeParams]:
        """Each key of the cells once, in sorted order, mapped to its SchemeParams."""
        keys = sorted({key for row in self.cells() for pair in row for key in pair})
        return {(n, tau): SchemeParams.from_horizon(self.lam, tau, n, self.horizon)
                for n, tau in keys}

    def initial_data(self) -> InitialDataSpec:
        return InitialDataSpec(kind="sobolev", alpha=self.alpha, amplitude=self.amplitude)


@dataclass(frozen=True)
class ConvergenceReport:
    """Error table of the study spec, and each column's rate fitted from it:
    p for errors ~ tau^p in a temporal study, s for errors ~ N^-s in a spatial one.
    Each error must be a finite real (`spectral._real`), zero included, in a
    table of the spec's shape; else one ValueError names `errors`."""

    spec: StudySpec
    errors: np.ndarray
    rates: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        # objects, so that `_real` sees each entry before any float conversion
        entries = np.array(self.errors, dtype=object)
        shape = (len(self.spec.rows), len(self.spec.cols))
        if entries.shape != shape:
            raise ValueError(f"errors has shape {entries.shape}, expected {shape}")
        arr = np.array([_real(e, "errors") for e in entries.flat], dtype=float).reshape(shape)
        arr.flags.writeable = False
        object.__setattr__(self, "errors", arr)
        sign = 1.0 if self.spec.axis == "temporal" else -1.0
        object.__setattr__(self, "rates", tuple(sign * fit_rate(self.spec.rows, column)
                                                for column in arr.T))


def fit_rate(values, errors) -> float:
    """Least-squares slope of log2(error) against log2(value).

    For errors ~ C tau^p over a tau grid this returns p; for errors ~ C N^-s
    over a cutoff grid it returns -s.  A non-positive error (e.g. identical
    runs) or fewer than two distinct values make the rate undefined, and nan
    is returned as the flag, as it is for a non-finite error.  Each value
    must be a positive finite real (`spectral._real`); any other is one
    ValueError naming `values`, before it reaches the fit.  Each error must
    be a real number, and one past the float range is a non-finite error.
    """
    values = [_real(value, "values", positive=True) for value in values]
    errors = list(errors)
    if len(values) != len(errors) or len(values) < 2:
        raise ValueError("need at least two (value, error) pairs of equal length")
    if any(isinstance(e, bool) or not isinstance(e, numbers.Real) for e in errors):
        raise ValueError(f"errors must be real numbers, got {errors!r}")
    try:
        errors = [_real(e, "errors", positive=True) for e in errors]
    except ValueError:                  # non-positive or non-finite, 10**400 too
        return math.nan
    if len(set(values)) < 2:
        return math.nan
    return float(np.polyfit(np.log2(values), np.log2(errors), 1)[0])


def _stacks(scheme: str, params: dict) -> list[list[tuple[int, float]]]:
    """The stacks of the runs params maps to their SchemeParams, by key.

    The runs are laid out by cutoff, from the largest down.  A stack holds
    at most `spectral._stack_runs(L)` runs, L its layout's cutoff.  A
    low-regularity layout takes in the runs of a smaller cutoff N when
    2N >= L and that adds no stack; otherwise N opens a layout of its own.
    A splitting layout never takes in a smaller cutoff, since the 4N+1
    collocation aliases differently at each N.  Each layout is cut, by step
    count, into consecutive stacks of that many runs.  The stacks depend on
    the keys alone, and come costliest first (steps x grid points), the
    order in which they start.
    """
    layouts: list[tuple[int, list]] = []
    for n in sorted({n for n, _ in params}, reverse=True):
        runs = [key for key in params if key[0] == n]
        top, joined = layouts[-1] if layouts else (n, [])
        # N's runs join when they fit in the room the layout's last stack leaves
        if (scheme == "lowreg" and joined and 2 * n >= top
                and len(runs) <= -len(joined) % _stack_runs(top)):
            joined += runs
        else:
            layouts.append((n, runs))
    stacks = []
    for top, runs in layouts:
        runs.sort(key=lambda key: -params[key].steps)
        size = _stack_runs(top)
        stacks += [runs[i: i + size] for i in range(0, len(runs), size)]
    stacks.sort(key=lambda stack: -sum(params[key].steps for key in stack)
                * _pow2_grid_size(max(n for n, _ in stack)))
    return stacks


def _run_stack(task):
    """The final coefficients of each run of a task (scheme, initial
    coefficients of each run, SchemeParams of each run): plain data, which a
    worker process can take.  A stack steps in lockstep in standard order, a
    low-regularity one on the product grid of its largest cutoff (see
    `integrator.evolve_lockstep`)."""
    scheme, coeffs, runs = task
    initials = [SpectralField(params.cutoff, c) for c, params in zip(coeffs, runs)]
    return [traj.final.coeffs for traj in evolve_lockstep(initials, runs, scheme=scheme)]


def _compute_runs(spec: StudySpec):
    """The final state of every run of the spec, by key: each of the
    `_stacks` is a `_run_stack` task, and jobs only sets how many run at
    once, in a pool of at most one worker process per CPU."""
    params, data = spec.runs(), spec.initial_data()
    states = {n: initialize(data, n) for n in sorted({n for n, _ in params})}
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
    return {key: SpectralField(key[0], coeffs) for stack, finals in zip(stacks, results)
            for key, coeffs in zip(stack, finals)}


def _study(spec: StudySpec, axis: str) -> ConvergenceReport:
    """The error table of temporal_study or spatial_study, by axis, over the spec's cells."""
    if spec.axis != axis:
        raise ValueError(f"expected a {axis} StudySpec, got axis {spec.axis!r}")
    runs = _compute_runs(spec)
    errors = np.array([[l2_error(runs[coarse], runs[fine]) for coarse, fine in row]
                       for row in spec.cells()]) / math.sqrt(2.0 * math.pi)
    return ConvergenceReport(spec, errors)


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


def write_report_csv(report: ConvergenceReport, file) -> None:
    """Write to an open text file one row per table cell under the fixed
    header; the rate column repeats each column's fitted rate on every row
    of that column."""
    spec = report.spec
    study = f"{spec.axis},{spec.alpha!r},{spec.lam},{spec.horizon!r}"
    file.write("".join([CSV_HEADER + "\n"] + [
        f"{study},{rp!r},{cp!r},{float(report.errors[i, j])!r},{report.rates[j]!r}\n"
        for i, rp in enumerate(spec.rows) for j, cp in enumerate(spec.cols)]))
