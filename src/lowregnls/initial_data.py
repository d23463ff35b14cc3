"""The initial states of the torus NLS runs: the paper's rough-data family

    u0(x) = amplitude * sum_{k != 0} |k|^(-0.51 - alpha) e^{ikx}

whose coefficients are real, even in k, and summable for alpha > 0: the
fixed offset 0.51 exceeds 1/2, so u0 lies in H^s exactly for
s < alpha + 0.01, and `alpha` dials the regularity.  Any other state, a
plane wave or a constant say, goes through
`initialize(SpectralField.from_modes(...), N)` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _integer, _real

__all__ = ["InitialDataSpec", "coefficients"]


@dataclass(frozen=True)
class InitialDataSpec:
    """Parameters of one rough initial state, with coefficients
    amplitude * |k|^(-0.51 - alpha); kind names the family, 'sobolev', the
    only one."""

    kind: str = "sobolev"
    alpha: float = 1.0
    amplitude: float = 0.1

    def __post_init__(self):
        if self.kind != "sobolev":
            raise ValueError(f"unknown initial-data kind {self.kind!r}")
        for name in ("alpha", "amplitude"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


def coefficients(spec: InitialDataSpec, cutoff: int) -> np.ndarray:
    """Coefficients for |k| <= cutoff in ascending order (length 2*cutoff+1)."""
    cutoff = _integer(cutoff, "cutoff", 0)
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    k = np.arange(-cutoff, cutoff + 1)
    nz = k != 0
    out[nz] = spec.amplitude * np.abs(k[nz]) ** (-0.51 - spec.alpha)
    return out
