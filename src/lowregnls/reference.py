"""Splitting baselines for cross-validating the low-regularity scheme.

The Lie and Strang splittings alternate the exact flows of i u_t = lam|u|^2 u
(a pointwise phase rotation, evaluated by collocation on the 4N+1-point grid)
and of i u_t + u_xx = 0 (a Fourier multiplier).  The phase rotation is not
band-limited, so its collocation commits the usual aliasing of classical
splitting codes; these schemes are baselines, not the production path.
"""

from __future__ import annotations

import numpy as np

from . import dft
from .integrator import (
    ConservedQuantities,
    SchemeParams,
    Trajectory,
    _evolve_with,
    _validated_start,
)
from .spectral import SpectralField, free_propagator, project

__all__ = ["splitting_step", "splitting_evolve"]

# scheme name -> splitting order
SPLITTINGS = {"lie": 1, "strang": 2}


def _nonlinear_flow(f: SpectralField, lam: int, t: float) -> SpectralField:
    """Exact flow of i u_t = lam |u|^2 u for time t, by collocation.

    u(x, t) = u(x, 0) exp(-i lam t |u(x, 0)|^2) pointwise on the 4N+1 grid,
    transformed back and truncated to S_N.
    """
    n = f.cutoff
    pad = project(f, 2 * n)
    vals = dft.inverse(pad.coeffs)
    vals = vals * np.exp(-1j * lam * t * np.abs(vals) ** 2)
    coeffs = dft.forward(vals)
    mid = coeffs.shape[0] // 2
    return SpectralField(n, coeffs[mid - n: mid + n + 1])


def splitting_step(f: SpectralField, params: SchemeParams, order: int) -> SpectralField:
    """One Lie (order 1) or Strang (order 2) splitting step of length tau."""
    if order not in SPLITTINGS.values():
        raise ValueError(f"splitting order must be 1 or 2, got {order}")
    if f.cutoff != params.cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {params.cutoff}")
    lam, tau = params.lam, params.tau
    if order == 1:
        return free_propagator(_nonlinear_flow(f, lam, tau), tau)
    half = _nonlinear_flow(f, lam, 0.5 * tau)
    drift = free_propagator(half, tau)
    return _nonlinear_flow(drift, lam, 0.5 * tau)


def splitting_evolve(
    initial: SpectralField,
    params: SchemeParams,
    order: int,
    cq: ConservedQuantities | None = None,
    snapshot_times=None,
    diag_stride: int = 0,
) -> Trajectory:
    """Run the splitting scheme with the same recording and input checks as
    `evolve`."""
    if order not in SPLITTINGS.values():
        raise ValueError(f"splitting order must be 1 or 2, got {order}")
    cq = _validated_start(initial, params, cq)

    def apply_fn(c: np.ndarray) -> np.ndarray:
        return splitting_step(SpectralField(params.cutoff, c), params, order).coeffs

    name = next(s for s, o in SPLITTINGS.items() if o == order)
    return _evolve_with(apply_fn, name, initial, params, cq, snapshot_times, diag_stride)

