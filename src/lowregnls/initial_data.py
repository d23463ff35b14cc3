"""Initial-state families for the torus NLS runs.

The workhorse is the rough-data family

    u0(x) = amplitude * sum_{k != 0} |k|^(-exponent_offset - alpha) e^{ikx}

whose coefficients are real, even in k, and summable for alpha > 0 with
exponent offset > 1/2: u0 lies in H^s exactly for s < alpha + offset - 1/2,
so `alpha` dials the regularity.  Plane-wave and constant states are kept
for closed-form checks; explicit coefficients go through
`initialize(SpectralField.from_modes(...), N)` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InitialDataSpec",
    "coefficients",
    "alias_fold",
    "resolve_tail_cutoff",
]

KINDS = ("sobolev", "plane", "constant")

# series tail kept when sampling rough data on an m-point grid
DEFAULT_TAIL_FLOOR = 2 ** 14


@dataclass(frozen=True)
class InitialDataSpec:
    """Parameters of one initial state.

    kind 'sobolev' uses (alpha, amplitude, exponent_offset); 'plane' is
    amplitude * e^{i mode x}; 'constant' is the constant amplitude.
    """

    kind: str = "sobolev"
    alpha: float = 1.0
    amplitude: float = 0.1
    exponent_offset: float = 0.51
    mode: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown initial-data kind {self.kind!r}")
        if self.kind == "sobolev":
            if self.alpha <= 0:
                raise ValueError(f"alpha must be > 0, got {self.alpha}")
            if self.exponent_offset <= 0.5:
                raise ValueError(
                    f"exponent offset must exceed 1/2 for a square-summable "
                    f"series, got {self.exponent_offset}"
                )


def coefficients(spec: InitialDataSpec, cutoff: int) -> np.ndarray:
    """Coefficients for |k| <= cutoff in ascending order (length 2*cutoff+1)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    if spec.kind == "sobolev":
        k = np.arange(-cutoff, cutoff + 1)
        nz = k != 0
        out[nz] = spec.amplitude * np.abs(k[nz]) ** (-spec.exponent_offset - spec.alpha)
    elif spec.kind == "plane":
        if abs(spec.mode) <= cutoff:
            out[spec.mode + cutoff] = spec.amplitude
    else:
        out[cutoff] = spec.amplitude
    return out


def resolve_tail_cutoff(spec: InitialDataSpec, cutoff: int, tail_cutoff: int | None) -> int:
    """Series length used when sampling: max(16 N, 2^14) by default for the
    rough family, the natural support for the band-limited kinds."""
    if tail_cutoff is not None:
        if tail_cutoff < cutoff:
            raise ValueError(
                f"tail cutoff {tail_cutoff} is below the target cutoff {cutoff}"
            )
        return tail_cutoff
    if spec.kind == "sobolev":
        return max(16 * cutoff, DEFAULT_TAIL_FLOOR)
    if spec.kind == "plane":
        return max(cutoff, abs(spec.mode))
    return cutoff


def alias_fold(spec: InitialDataSpec, m: int, tail: int) -> np.ndarray:
    """The series truncated at |k| <= tail folded onto the m bins of the
    m-point grid, bin k mod m (numpy's FFT order): e^{ikx_n} = e^{i(k mod m)x_n},
    so this is the exact DFT of the truncated series' samples."""
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, np.mod(np.arange(-tail, tail + 1), m), coefficients(spec, tail))
    return folded
