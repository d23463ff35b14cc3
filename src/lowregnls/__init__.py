"""Pseudospectral solvers for the cubic nonlinear Schrodinger equation on the torus.

i u_t + u_xx = lambda |u|^2 u,   x in (-pi, pi],   lambda in {-1, +1}

The package provides a first-order low-regularity Fourier integrator (the
primary scheme, accurate for H^1 data), classical Lie/Strang splitting
baselines, exactly dealiased spectral arithmetic, and a convergence-study
harness with a command line front end.
"""

from .harness import (
    CSV_HEADER,
    ConvergenceReport,
    StudySpec,
    fit_rate,
    spatial_study,
    temporal_study,
    write_report_csv,
)
from .initial_data import InitialDataSpec, coefficients
from .integrator import (
    BlowUpError,
    ConservedQuantities,
    SchemeParams,
    Trajectory,
    conserved_quantities,
    evolve,
    evolve_lockstep,
    initialize,
    load_trajectory,
    save_trajectory,
    step,
    step_twisted,
)
from .reference import splitting_evolve, splitting_step
from .spectral import (
    SpectralField,
    conjugate,
    dealiased_product,
    derivative,
    free_propagator,
    inv_derivative,
    l2_error,
    load_field,
    nonzero_part,
    project,
    save_field,
    sobolev_norm,
    twist_propagator,
    zero_mode,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CSV_HEADER",
    "ConservedQuantities",
    "ConvergenceReport",
    "InitialDataSpec",
    "SchemeParams",
    "SpectralField",
    "StudySpec",
    "Trajectory",
    "coefficients",
    "conjugate",
    "conserved_quantities",
    "dealiased_product",
    "derivative",
    "evolve",
    "evolve_lockstep",
    "fit_rate",
    "free_propagator",
    "initialize",
    "inv_derivative",
    "l2_error",
    "load_field",
    "load_trajectory",
    "nonzero_part",
    "project",
    "save_field",
    "save_trajectory",
    "sobolev_norm",
    "spatial_study",
    "splitting_evolve",
    "splitting_step",
    "step",
    "step_twisted",
    "temporal_study",
    "twist_propagator",
    "write_report_csv",
    "zero_mode",
]
