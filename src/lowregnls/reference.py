"""Splitting baselines and refined reference runs for cross-validation.

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
    evolve,
    initialize,
)
from .spectral import SpectralField, free_propagator, project

__all__ = [
    "splitting_step",
    "splitting_evolve",
    "reference_solution",
    "ResourceCapError",
]

SPLITTING_ORDERS = (1, 2)


class ResourceCapError(RuntimeError):
    """Raised when a refined reference run would exceed the memory guard."""


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
    if order not in SPLITTING_ORDERS:
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
    if order not in SPLITTING_ORDERS:
        raise ValueError(f"splitting order must be 1 or 2, got {order}")
    cq = _validated_start(initial, params, cq)

    def apply_fn(c: np.ndarray, _j: int) -> np.ndarray:
        out = splitting_step(SpectralField(params.cutoff, c), params, order)
        return np.array(out.coeffs)

    name = "lie" if order == 1 else "strang"
    return _evolve_with(apply_fn, name, initial, params, cq, snapshot_times, diag_stride)


def reference_solution(
    source,
    params: SchemeParams,
    refinement: int = 4,
    max_cutoff: int = 2 ** 15,
) -> SpectralField:
    """Refined run of the low-regularity scheme, projected back to S_N.

    Integrates from the same initial-data source with step tau/refinement and
    cutoff N*refinement, then truncates the final state to cutoff N.  The
    refined cutoff is capped by max_cutoff to bound memory and time.
    """
    if refinement < 1:
        raise ValueError(f"refinement must be >= 1, got {refinement}")
    fine_cutoff = params.cutoff * refinement
    if fine_cutoff > max_cutoff:
        raise ResourceCapError(
            f"resource cap exceeded: refined cutoff {fine_cutoff} > {max_cutoff}"
        )
    fine = SchemeParams(
        lam=params.lam,
        tau=params.tau / refinement,
        cutoff=fine_cutoff,
        steps=params.steps * refinement,
    )
    u0 = initialize(source, fine_cutoff)
    traj = evolve(u0, fine)
    return project(traj.final, params.cutoff)
