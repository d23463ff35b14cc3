"""Band-limited fields on the torus and the operators the schemes are built from.

A :class:`SpectralField` stores the coefficients c_k of a trigonometric
polynomial f(x) = sum_{|k| <= N} c_k e^{ikx} on (-pi, pi].  N is the cutoff.
All operators return new fields; coefficient arrays are read-only.

Products of two band-limited fields are formed without aliasing.  A product
of two degree-N polynomials has degree 2N; on an m-point grid its modes k and
k +- m share a bin, and for m >= 3N+1 every alias of a mode |k| <= 2N lands
outside |k| <= N (Orszag's 3/2 rule).  So evaluating both factors on such a
grid, multiplying pointwise and transforming back gives the exact product
coefficients on |k| <= N, which is all `dealiased_product` keeps.  The
evaluation grid is the smallest 2^k or 25*2^k that is >= 3N+1.  Both are
fast FFT lengths, and at N = 2^k the grid has 3.125N points where the next
power of two would have 4N.

A field's coefficients are in centered order, k = -N..N; every array below
it is in numpy's standard FFT order, k >= 0 then k < 0.  `_standard` lays a
window out on any length; `_uncentered` and `_centered` convert at fields.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralField",
    "project",
    "nonzero_part",
    "derivative",
    "inv_derivative",
    "conjugate",
    "free_propagator",
    "twist_propagator",
    "dealiased_product",
    "sobolev_norm",
    "l2_error",
]


@dataclass(frozen=True)
class SpectralField:
    """Trigonometric polynomial sum_{|k| <= cutoff} coeffs[k + cutoff] e^{ikx}.

    coeffs has length 2*cutoff + 1 and is indexed by k + cutoff, i.e. ascending
    frequency from -cutoff to +cutoff.

    The coefficients may be any complex numbers, nan and inf included, so a
    field can hold what a file or a caller gave, and `+`, `-` and a product
    with a scalar that pass float range give inf quietly, with no warning.
    But the scheme's maps take only finite fields: `dealiased_product`,
    `integrator.step`, `integrator.step_twisted` and
    `reference.splitting_step` raise one ValueError naming the argument that
    is not, and the `evolve` drivers one naming the run.  Those maps,
    `project`, `free_propagator`, `sobolev_norm` and `l2_error` raise one
    naming an argument that is no field at all, `+` and `-` one naming
    `other`, and a product with a scalar one naming a scalar that is no
    finite number.
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _integer(self.cutoff, "cutoff", 0))
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients for cutoff "
                f"{self.cutoff}, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_modes(cls, cutoff: int, modes: dict[int, complex]) -> "SpectralField":
        """Field with the given {frequency: coefficient} entries, zeros elsewhere."""
        cutoff = _integer(cutoff, "cutoff", 0)
        arr = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        for k, v in modes.items():
            k = _integer(k, "frequency")
            if abs(k) > cutoff:
                raise ValueError(f"frequency {k} outside cutoff {cutoff}")
            arr[k + cutoff] = v
        return cls(cutoff, arr)

    def coefficient(self, k: int) -> complex:
        """c_k, with c_k = 0 for |k| > cutoff."""
        k = _integer(k, "k")
        if abs(k) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.cutoff])

    def frequencies(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    # arithmetic aligns mismatched cutoffs by zero extension, and a result
    # past float range is inf, which the scheme's maps refuse
    def __add__(self, other: "SpectralField") -> "SpectralField":
        a, b = _align(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SpectralField(a.cutoff, a.coeffs + b.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        a, b = _align(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SpectralField(a.cutoff, a.coeffs - b.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, SpectralField):
            raise TypeError("use dealiased_product for field*field products")
        # a number of any type, its parts finite reals by `_real`'s rule
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Complex):
            raise ValueError(f"scalar must be a number, got {scalar!r}")
        z = complex(_real(scalar.real, "scalar"), _real(scalar.imag, "scalar"))
        with np.errstate(over="ignore", invalid="ignore"):
            return SpectralField(self.cutoff, self.coeffs * z)

    __rmul__ = __mul__


def _integer(value, name: str, least: int | None = None) -> int:
    """value as an int, the one rule for every integer a caller passes in
    (cutoffs, step counts, strides, jobs, frequencies): integers of any type
    pass, numpy's included, and anything else, a bool or an integral float
    too, raises a ValueError naming the parameter, as does a value below
    least."""
    # Python's bool is an int; numpy's has no __index__
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _real(value, name: str, positive: bool = False) -> float:
    """value as a float, the one rule for every real a caller passes in
    (taus, horizons, alpha, amplitudes, the operators' times, masses and
    Sobolev orders): reals of any type pass, numpy's
    included, and anything else, a bool or a string too, raises a ValueError
    naming the parameter, as does a value that is not finite or, where
    positive, not > 0."""
    # numpy's bool is no numbers.Real; Python's is an int
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:                     # an int or a Fraction past float range
        raise ValueError(f"{name} must be finite, got {type(value).__name__} "
                         "past the float range") from None
    if positive and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _field(f, name: str) -> SpectralField:
    """f, checked to be a SpectralField; a ValueError names the argument
    otherwise."""
    if not isinstance(f, SpectralField):
        raise ValueError(f"{name} must be a SpectralField, got {type(f).__name__}")
    return f


def _finite_field(f: SpectralField, name: str, cutoff: int | None = None) -> SpectralField:
    """f, checked to be a field of finite coefficients, and, where cutoff is
    given, to have the cutoff of the run it enters: the rule of
    `SpectralField` for the scheme's maps and drivers; a ValueError names the
    argument otherwise."""
    if not np.all(np.isfinite(_field(f, name).coeffs)):
        raise ValueError(f"{name} must have finite coefficients")
    if cutoff is not None and f.cutoff != cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {cutoff}")
    return f


def _align(f: SpectralField, g: SpectralField) -> tuple[SpectralField, SpectralField]:
    """f and g at their common cutoff; g, the right operand of `+` and `-`,
    is checked to be a field, named `other`."""
    n = max(f.cutoff, _field(g, "other").cutoff)
    return project(f, n), project(g, n)


def project(f: SpectralField, cutoff: int) -> SpectralField:
    """Change of cutoff: modes with |k| <= min(cutoff, f.cutoff) are copied,
    everything else in the target window is zero.  Truncation for smaller
    cutoffs, zero extension for larger ones."""
    f, cutoff = _field(f, "f"), _integer(cutoff, "cutoff", 0)
    if cutoff == f.cutoff:
        return f
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    m = min(cutoff, f.cutoff)
    out[cutoff - m: cutoff + m + 1] = f.coeffs[f.cutoff - m: f.cutoff + m + 1]
    return SpectralField(cutoff, out)


def nonzero_part(f: SpectralField) -> SpectralField:
    """f minus its mean: the k=0 coefficient is zeroed."""
    out = f.coeffs.copy()
    out[f.cutoff] = 0.0
    return SpectralField(f.cutoff, out)


def derivative(f: SpectralField) -> SpectralField:
    """d/dx, i.e. multiplication by ik."""
    return SpectralField(f.cutoff, 1j * f.frequencies() * f.coeffs)


def inv_derivative(f: SpectralField) -> SpectralField:
    """Antiderivative on nonzero modes: c_k / (ik) for k != 0, zero at k = 0.

    Composes with `derivative` to the identity on mean-free fields.
    """
    return SpectralField(f.cutoff, _inv_ik(f.frequencies().astype(float)) * f.coeffs)


def conjugate(f: SpectralField) -> SpectralField:
    """Complex conjugate of the field: c_k -> conj(c_{-k})."""
    return SpectralField(f.cutoff, np.conj(f.coeffs[::-1]))


def free_propagator(f: SpectralField, t: float) -> SpectralField:
    """exp(i t d_xx) f: the flow of i u_t + u_xx = 0, mode k picks up e^{-i t k^2}.
    A t whose phase t N^2 passes float range is one ValueError naming t."""
    phase = _free_phase(_field(f, "f").frequencies().astype(float), _real(t, "t"), "t")
    return SpectralField(f.cutoff, phase * f.coeffs)


def twist_propagator(
    f: SpectralField, tau: float, lam: float, mass: float, momentum_imag: float
) -> SpectralField:
    """One step of the constant-coefficient part of the scheme.

    Multiplies mode k by exp(i tau (-2 lam mass - k^2 - 2 lam momentum/(ik)))
    for k != 0 and by exp(-2i lam tau mass) for k = 0, where momentum =
    i momentum_imag is purely imaginary (it is Pi_0(u d_x conj(u)) of some
    field).  mass and momentum_imag are real, so the exponent is purely
    imaginary and the map is unitary.  A phase past float range is one
    ValueError naming the four.
    """
    phase = _twist_phase(f.frequencies().astype(float), _real(tau, "tau"), _real(lam, "lam"),
                         _real(mass, "mass"), _real(momentum_imag, "momentum_imag"))
    return SpectralField(f.cutoff, phase * f.coeffs)


# The multipliers of the scheme, on float frequencies k of a cutoff N; the
# public operators above, integrator._plan and reference._splitting_stepper
# all build from these.  Each computes quietly and raises one ValueError
# naming its arguments where the multiplier passes float range.

def _inv_ik(k: np.ndarray) -> np.ndarray:
    """Multiplier of d_x^{-1}: 1/(ik) = -i/k for k != 0, zero at k = 0."""
    return -1j * np.divide(1.0, k, out=np.zeros_like(k), where=k != 0)


def _free_phase(k: np.ndarray, t: float, name: str) -> np.ndarray:
    """Multiplier of exp(i t d_xx): e^{-i t k^2}; the error names t as `name`."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * t * k * k)
    if not np.isfinite(phase).all():
        raise ValueError(f"{name} * N^2 must be finite, got {name}={t!r} at N={len(k) // 2}")
    return phase


def _twist_phase(
    k: np.ndarray, tau: float, lam: float, mass: float, mom_imag: float
) -> np.ndarray:
    """exp(i tau (-2 lam mass - k^2 - 2 lam momentum/(ik))), momentum = i mom_imag."""
    with np.errstate(over="ignore", invalid="ignore"):
        # -2 lam momentum/(ik) = -2 lam mom_imag/k, a real phase contribution
        q_over_k = (1j * mom_imag * _inv_ik(k)).real
        phase = np.exp(1j * tau * (-2.0 * lam * mass - k * k - 2.0 * lam * q_over_k))
    if not np.isfinite(phase).all():
        raise ValueError(f"the phase must be finite, got tau={tau!r}, lam={lam!r}, "
                         f"mass={mass!r}, momentum_imag={mom_imag!r} at N={len(k) // 2}")
    return phase


def _pow2_grid_size(cutoff: int) -> int:
    """Smallest 2^a or 25*2^b with at least 3*cutoff + 1 points, so that a
    product of two degree-cutoff polynomials is exact on |k| <= cutoff.

    The name is historical: the grid used to be the smallest power of two.
    """
    need = 3 * cutoff + 1
    # (x - 1).bit_length() is the smallest a with 2^a >= x, and 25*2^b >= need
    # iff 2^b >= ceil(need/25) = (need - 1)//25 + 1
    return min(1 << (need - 1).bit_length(), 25 << ((need - 1) // 25).bit_length())


# Row length, in points, that the step layouts read when called, so that
# one patch moves the three things it decides: a stack of R runs on the
# m-point grid of its largest cutoff holds R * m <= STACK_POINTS points a
# row (`_stack_runs`, a 7-row work block within 448 KiB), a splitting flow
# pairs where its cutoff stacks alone, and a low-regularity step's tables
# lie on the window |k| <= N past it (`integrator._plan`: there a one-run
# step took 0.94-0.98x its whole-row time, up to it 1.02-1.06x)
STACK_POINTS = 4096


def _stack_runs(cutoff: int) -> int:
    """Most runs a study stacks on the grid of top cutoff `cutoff`; a
    splitting flow of that cutoff pairs its grid rows where this is 1."""
    return max(1, STACK_POINTS // _pow2_grid_size(cutoff))


def _standard(
    x: np.ndarray, cutoff: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The |k| <= cutoff window of (batched) standard-order x of any length,
    laid out in standard order on m points with zeros between; into out
    when given."""
    if out is None:
        out = np.empty(x.shape[:-1] + (m,), dtype=np.complex128)
    out[..., : cutoff + 1] = x[..., : cutoff + 1]
    out[..., cutoff + 1: m - cutoff] = 0.0
    out[..., m - cutoff:] = x[..., x.shape[-1] - cutoff:]
    return out


def _centered(x: np.ndarray, cutoff: int) -> np.ndarray:
    """The |k| <= cutoff window of (batched) standard-order x, centered."""
    return np.concatenate((x[..., x.shape[-1] - cutoff:], x[..., : cutoff + 1]), axis=-1)


def _uncentered(x: np.ndarray) -> np.ndarray:
    """(Batched) centered x of odd length 2N+1 in standard order: the
    inverse of `_centered(., N)`."""
    n = x.shape[-1] // 2
    return np.concatenate((x[..., n:], x[..., :n]), axis=-1)


def _to_grid(
    coeffs: np.ndarray, cutoff: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate (batched) standard-order coefficients of |k| <= cutoff on the
    m-point standard grid, into out when given."""
    out = _standard(coeffs, cutoff, m, out)
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


def _from_grid(
    values: np.ndarray, cutoff: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward transform of (batched) grid values, in place, truncated to
    |k| <= cutoff on 2*cutoff + 1 points, into out when given."""
    return _standard(np.fft.fft(values, axis=-1, norm="forward", out=values),
                     cutoff, 2 * cutoff + 1, out)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Truncated product Pi_N(f*g) at the common cutoff N = max(f.N, g.N).

    The coefficients agree with the exact convolution of the inputs on
    |k| <= N; no aliasing error is committed for band-limited inputs.
    """
    f, g = _align(_finite_field(f, "f"), _finite_field(g, "g"))
    m = _pow2_grid_size(f.cutoff)
    vals = _to_grid(_uncentered(np.stack([f.coeffs, g.coeffs])), f.cutoff, m)
    return SpectralField(f.cutoff, _centered(_from_grid(vals[0] * vals[1], f.cutoff), f.cutoff))


def _sobolev(cutoff: int, s: float):
    """norms(p), the H^s norms sqrt(2 pi sum_k (1 + k^2)^s p_k) of the rows
    of p, centered |c_k|^2 of cutoff `cutoff`, its weight built once: the one
    rule of `sobolev_norm` and of `integrator.evolve_lockstep`'s H^1 pass.
    An s whose weight (1 + N^2)^s passes float range is one ValueError naming s."""
    k, order = np.arange(-cutoff, cutoff + 1, dtype=float), _real(s, "s")
    with np.errstate(over="ignore"):
        # every weight of the L^2 norm is 1, held as one scalar, so that each
        # run's recorded l2 keeps no row of ones
        w = (1.0 + k * k) ** order if order else 1.0
    if not np.isfinite(w).all():
        raise ValueError(f"(1 + N^2)^s must be finite, got s={s!r} at N={cutoff}")
    return lambda p: [math.sqrt(2.0 * math.pi * float(total))
                      for total in np.sum(w * p, axis=-1)]


def _finite_norm(f: SpectralField, s: float, what: str) -> float:
    """The H^s norm of f by `_sobolev`, summed with no warning; one
    ValueError "{what} must be finite" where it is not finite."""
    # a weight that underflows to 0 times a square that overflows is nan
    with np.errstate(over="ignore", invalid="ignore"):
        [norm] = _sobolev(f.cutoff, s)(np.abs(f.coeffs[None]) ** 2)
    if not math.isfinite(norm):
        raise ValueError(f"{what} must be finite, got {norm}")
    return norm


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm sqrt(2 pi sum_k (1 + k^2)^s |c_k|^2); s = 0 is the L^2 norm.
    An s whose weight (1 + N^2)^s passes float range is one ValueError naming
    s, and a norm that is not finite one naming f and s."""
    return _finite_norm(_field(f, "f"), s, f"the H^s norm of f at s={s!r}")


def l2_error(f: SpectralField, g: SpectralField) -> float:
    """L^2 distance ||f - g||; mismatched cutoffs are aligned by zero extension.
    A distance that is not finite is one ValueError naming f and g."""
    # a difference past float range is inf, and so is its norm
    return _finite_norm(_field(f, "f") - _field(g, "g"), 0.0, "the L^2 distance of f and g")

