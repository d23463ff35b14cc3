"""Pseudospectral solvers for the cubic nonlinear Schrodinger equation on the torus.

i u_t + u_xx = lambda |u|^2 u,   x in (-pi, pi],   lambda in {-1, +1}

The package provides a first-order low-regularity Fourier integrator (the
primary scheme, accurate for H^1 data), classical Lie/Strang splitting
baselines, exactly dealiased spectral arithmetic, and a convergence-study
harness with a command line front end.  Its public names are those of each
module's `__all__`.
"""

from . import harness, initial_data, integrator, reference, spectral
from .harness import *  # noqa: F401,F403
from .initial_data import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .reference import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (harness, initial_data, integrator, reference, spectral)
           for name in module.__all__]
