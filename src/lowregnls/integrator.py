"""First-order low-regularity Fourier integrator for cubic NLS on the torus.

The scheme advances i u_t + u_xx = lam |u|^2 u, u(0) = Pi_N u0, by a one-step
map built from free propagators, antiderivatives and exactly dealiased
products, with the mean mass M = Pi_0 |u0|^2 and mean momentum
P = Pi_0 (u0 d_x conj(u0)) of the initial state frozen into a unitary
"twist" multiplier.  For H^1 data the map is first-order accurate in time up
to a logarithmic factor, without any CFL-type step restriction.

`step` is the production path: all ten terms of the map are evaluated with
17 FFTs (5 + 4 + 4 + 4), in four batched calls, on a product grid of
>= 3N+1 points, the smallest 2^k or 25*2^k; products that end under the
same Fourier multiplier are summed on the grid and transformed once.  The
elementwise passes between the calls take whole rows of up to
_BLOCK_POINTS = 2^14 points, and longer rows in blocks of that many, the
passes in coefficient space only on the window |k| <= N; the result is
bitwise the same (see `_StepPlan`).
`evolve_lockstep` is the one driver of every scheme: it advances runs of
several taus together as one stack of states through the same calls, by
the low-regularity step (runs of several cutoffs on the product grid of
the largest) or by a Lie or Strang splitting step of `reference` (runs of
one cutoff), in numpy's standard FFT order; `evolve` and `splitting_evolve`
are its one-run cases.  `step_twisted` advances the twisted variable
v^n = e^{-i t_n d_xx} u^n instead; conjugating it with free propagators
reproduces `step` to rounding, which the tests exploit as a structural
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import initial_data
from .initial_data import InitialDataSpec
from .reference import SPLITTINGS, _splitting_scheme, _splitting_stepper
from .spectral import (
    SpectralField,
    _centered,
    _finite_field,
    _free_phase,
    _integer,
    _inv_ik,
    _pow2_grid_size,
    _real,
    _standard,
    _twist_phase,
    _uncentered,
    conjugate,
    dealiased_product,
    derivative,
    free_propagator,
    inv_derivative,
    nonzero_part,
    project,
    twist_propagator,
)

__all__ = [
    "SchemeParams",
    "ConservedQuantities",
    "conserved_quantities",
    "initialize",
    "step",
    "step_twisted",
    "evolve",
    "evolve_lockstep",
    "splitting_evolve",
    "Trajectory",
    "SnapshotDiagnostics",
    "BlowUpError",
    "save_trajectory",
    "load_trajectory",
]

SCHEMES = ("lowreg", *SPLITTINGS)

# relative tolerance, against max(T, 1), for a horizon T to sit on the step grid
TIME_RTOL = 1e-12

# least tau of a run: stage 1 of a step scales two rows by sqrt(0.5i/tau), so
# their squares carry 1/(2 tau); from this tau up, one overflows only where
# |d_x^{-1} f| > 2^384, where the unscaled cubic of stage 4 overflows too, so
# every blow-up is the state's own and none comes of a tiny tau
MIN_TAU = 2.0 ** -256


class BlowUpError(RuntimeError):
    """Raised when a trajectory's H^1 norm leaves the range of floating point
    numbers.  Names the run by its tau, and carries the step and the last
    finite H^1 norm of the run (nan if it had none)."""

    def __init__(self, step_index: int, tau: float, last_h1: float):
        self.step_index = step_index
        self.tau = tau
        self.last_h1 = last_h1
        super().__init__(
            f"solution blew up to a non-finite H^1 norm at step {step_index} "
            f"(t = {self.time:g}, tau = {tau!r}); last finite H^1 was {last_h1:g}"
        )

    @property
    def time(self) -> float:
        return self.step_index * self.tau

    def __reduce__(self):
        # rebuilt from its fields, so that it crosses a process boundary
        return type(self), (self.step_index, self.tau, self.last_h1)


def _scheme(name) -> str:
    """name, checked to be one of SCHEMES."""
    if name not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {name!r}")
    return name


def _sign(lam) -> int:
    """lam as the int -1 or +1, tested before it is converted, so that no
    other value, a bool included, is truncated onto a sign."""
    if isinstance(lam, (bool, np.bool_)) or lam not in (-1, 1):
        raise ValueError(f"lam must be -1 or +1, got {lam}")
    return int(lam)


@dataclass(frozen=True)
class SchemeParams:
    """Run parameters: nonlinearity sign lam, step tau >= MIN_TAU, cutoff N,
    step count."""

    lam: int
    tau: float
    cutoff: int
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "lam", _sign(self.lam))
        object.__setattr__(self, "tau", _real(self.tau, "tau", positive=True))
        if self.tau < MIN_TAU:
            raise ValueError(f"tau must be >= MIN_TAU = 2^-256, got {self.tau!r}")
        object.__setattr__(self, "cutoff", _integer(self.cutoff, "cutoff", 0))
        object.__setattr__(self, "steps", _integer(self.steps, "steps", 0))

    @property
    def horizon(self) -> float:
        """Final time T = steps * tau."""
        return self.steps * self.tau

    @classmethod
    def from_horizon(cls, lam: int, tau: float, cutoff: int, horizon: float) -> "SchemeParams":
        """Build params for integration up to T = horizon; T must sit on the
        step grid to within TIME_RTOL."""
        params = cls(lam, tau, cutoff, 0)
        horizon = _real(horizon, "horizon")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        if not math.isfinite(horizon / params.tau):
            raise ValueError(f"horizon {horizon!r} over tau {tau!r} overflows the step count")
        steps = round(horizon / params.tau)
        if abs(steps * params.tau - horizon) > TIME_RTOL * max(horizon, 1.0):
            raise ValueError(f"horizon {horizon!r} is not an integer multiple of tau {tau!r}")
        return replace(params, steps=steps)


@dataclass(frozen=True)
class ConservedQuantities:
    """Mean mass Pi_0 |u|^2 and the imaginary part of the mean momentum
    Pi_0 (u d_x conj(u)), which is purely imaginary, of the initial state;
    both are conserved by NLS and frozen into the scheme's phase multiplier.
    Each is a finite real (`spectral._real`)."""

    mass: float
    momentum_imag: float

    def __post_init__(self):
        for name in ("mass", "momentum_imag"):
            object.__setattr__(self, name, _real(getattr(self, name), name))


def conserved_quantities(f: SpectralField) -> ConservedQuantities:
    """Closed forms: mass = sum_k |c_k|^2, momentum = -i sum_k k |c_k|^2."""
    return _quantities(np.abs(f.coeffs) ** 2)


def _quantities(p: np.ndarray) -> ConservedQuantities:
    """`conserved_quantities` of a field from its centered |c_k|^2, k = -N..N."""
    n = len(p) // 2
    return ConservedQuantities(mass=float(np.sum(p)),
                               momentum_imag=-float(np.sum(np.arange(-n, n + 1) * p)))


def initialize(source, cutoff: int) -> SpectralField:
    """Initial state u^0 = Pi_N u0 in S_N: the exact coefficients of an
    InitialDataSpec for |k| <= cutoff, or the projection of an explicit field."""
    cutoff = _integer(cutoff, "cutoff", 0)
    if isinstance(source, SpectralField):
        return project(source, cutoff)
    if isinstance(source, InitialDataSpec):
        return SpectralField(cutoff, initial_data.coefficients(source, cutoff))
    raise TypeError(f"cannot initialize from {type(source).__name__}")


# Row length, in points, up to which a step makes each elementwise pass on
# whole rows, and the most points of one run that a pass takes at a time on
# longer rows: eight work rows of a block take 2 MiB, a core's L2 cache on
# the machine it was measured on (see `_StepPlan`)
_BLOCK_POINTS = 2 ** 14


class _StepPlan:
    """Multiplier tables of the step for one (lam, tau, cutoff, mass,
    momentum) on an m-point product grid, built by `_plan`, or for a stack
    of R runs of one lam on one grid, built by `stacked`; `top` is the
    largest cutoff of its runs.

    Immutable after construction, so a stack's runs and steps share it;
    `apply` allocates its own work block of eight (R, m) rows and its result,
    nothing else of that size.  One application costs 17 FFT rows per run
    (stages of 5 + 4 + 4 + 4), in four batched calls, of length m, each in
    place in the block.  The FFT, Pi_N and the diagonal multipliers are
    linear, so products that end under the same multiplier are summed on the
    grid and transformed as one row.  A step at N = 2^14 thus holds 12 table
    rows, 8 work rows and its result on 51200 points: about 16 MiB.

    The elementwise passes between the FFTs live in the stage helpers below
    (`_products`, `_squares`, `_multipliers` with `_zero_mode`, `_cubics`,
    `_truncate`, `_combine`), and `apply` makes each once, on whole rows,
    while m <= _BLOCK_POINTS = 2^14, the grid of any N <= 5461.  On longer
    rows the work block outgrows the L2 cache, and each pass goes block by
    block, a block being at most 2^14 points of one run: the grid passes
    (stages 2 and 4) over the whole row, the coefficient passes (stages 1
    and 3, the t4 products and the combine) over the window |k| <= top
    alone, at both ends of the row.
    Between them every table is zero, so those work rows (0-4 before the
    stage-1 FFT, 3-6 before the stage-3 one) and the result are zeroed there
    once instead.  Both paths make the same operations on each point in the
    same order, so a step's result is bitwise the same on either (the band
    may hold +0.0 where a product with a zero gave -0.0).  The FFT calls,
    their rows and the allocations are the same on both.  On 2 Xeon cores
    with 2 MiB of L2 each, blocks took about 3%, 5-6% and 8% off `apply`
    at N = 2^13, 2^14 and 2^16; at N = 2^12 they gained nothing, so its
    12800-point rows stay whole.

    Tables and states are in standard order on m points, with a run axis:
    t1, t3 and t4 have shape (rows, R, m), twist (R, m), and `apply` advances
    an (R, m) stack of states, run r on row r, by broadcasting, so a stack
    pays its numpy calls once per step for all R runs.  Run r's tables are
    zero beyond its cutoff N_r, so each multiplication truncates to Pi_{N_r}
    (t1[0] is its mask), and runs of several cutoffs share the grid of the
    largest, exact for each (3N+1 >= 3N_r+1), each row bitwise equal to its
    plan applied alone on that grid.
    A study advances its runs this way, in stacks that its runs alone
    decide, never its jobs, with at most harness.STACK_POINTS grid points in
    a row: a stack's work block is never larger than one run's at m > 2048.
    """

    def __init__(self, t1, t3, t4, twist, top: int):
        self.t1, self.t3, self.t4, self.twist = t1, t3, t4, twist
        self.top = top
        for arr in (t1, t3, t4, twist):
            arr.flags.writeable = False

    @classmethod
    def stacked(cls, plans) -> "_StepPlan":
        """The stack of one-tau plans of one lam on one grid; one plan is its
        own stack."""
        if len(plans) == 1:
            return plans[0]
        return cls(*(np.concatenate([getattr(p, name) for p in plans], axis=axis)
                     for name, axis in (("t1", 1), ("t3", 1), ("t4", 1), ("twist", 0))),
                   max(p.top for p in plans))

    def head(self, runs: int) -> "_StepPlan":
        """The stack of this stack's first `runs` runs, as views."""
        return _StepPlan(self.t1[:, :runs], self.t3[:, :runs], self.t4[:, :runs],
                         self.twist[:runs], self.top)

    def apply(self, c: np.ndarray) -> np.ndarray:
        # eight grid rows, each reused once its value is dead, and the result,
        # taken after the last FFT and the t4 products so it never sits beside
        # pocketfft's scratch or numpy's buffers, are all the step allocates
        # of R * m points (a row holds any operand numpy would copy into a
        # buffer).  Freed as one, the block stays in glibc's heap for the next
        # step (it keeps freed blocks up to 32 MiB)
        work = np.empty((8, *c.shape), dtype=np.complex128)
        m = c.shape[-1]
        # whole rows, or blocks of the grid and of the window |k| <= top,
        # with the band between the window's ends zeroed instead
        grid = window = band = None
        lead = c                                  # each run's c_0 in column 0
        if m > _BLOCK_POINTS:
            n = self.top
            grid, window, band = ((0, m),), ((0, n + 1), (m - n, m)), slice(n + 1, m - n)
            lead = np.broadcast_to(c[:, :1], c.shape)

        _each(window, _products, self.t1, c, work)
        if band is not None:
            work[:5, :, band] = 0.0
        np.fft.ifft(work[:5], axis=-1, norm="forward", out=work[:5])
        _each(grid, _squares, work)
        np.fft.fft(work[3:7], axis=-1, norm="forward", out=work[3:7])
        _each(window, _multipliers, self.t1, self.t3, c, lead, work)
        _zero_mode(work[3], c[:, 0])
        if band is not None:
            work[3:7, :, band] = 0.0
        np.fft.ifft(work[3:7], axis=-1, norm="forward", out=work[3:7])
        _each(grid, _cubics, work)
        np.fft.fft(work[2:6], axis=-1, norm="forward", out=work[2:6])
        _each(window, _truncate, self.t4, work)
        out = np.empty(c.shape, dtype=np.complex128)
        _each(window, _combine, self.twist, c, work, out)
        if band is not None:
            out[:, band] = 0.0
        return out


def _each(spans, stage, *arrays) -> None:
    """stage(*arrays) on whole rows when spans is None.  Else on blocks of
    the arrays, each one run r of their run axis (the second last) and a
    range of their last, in one (start, stop) span of `spans`: the fewest
    blocks of at most _BLOCK_POINTS points, their widths differing by at
    most one, made one at a time.  One run's block is a contiguous row to
    numpy, whose loops over a block of several short rows run several times
    slower.  A span of two or more points leaves no block of one, where
    numpy would sum `_combine`'s four rows in another order."""
    if spans is None:
        stage(*arrays)
        return
    for r in range(arrays[0].shape[-2]):
        rows = slice(r, r + 1)
        for lo, hi in spans:
            count = -(-(hi - lo) // _BLOCK_POINTS)
            for i in range(count):
                cols = slice(lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count)
                stage(*[x[..., rows, cols] for x in arrays])


# The stages of `_StepPlan.apply`, each on the same columns of its tables,
# states c and work rows; the FFTs between them run on whole rows.

def _products(t1, c, work) -> None:
    """Stage 1, row by row: the t1 multiples f, e^{i tau d_xx} f,
    i tau d_x f, s d_x^{-1} e^{i tau d_xx} f, s d_x^{-1} f into rows 0-4."""
    for t, row in zip(t1, work):
        np.multiply(t, c, out=row)


def _squares(work) -> None:
    """Stage 2, on the grid: row 2 becomes -i tau d_x conj(f); rows 3-6
    h1 = (d_x^{-1} e^{i tau d_xx} f)^2 and h2 = (d_x^{-1} f)^2 (both over
    -2i tau), in place; the real |f|^2 and |e^{i tau d_xx} f|^2 share
    z = |f|^2 + i |e^{i tau d_xx} f|^2; g = f^2."""
    # each operand is one view object, as numpy checks two views of one
    # row for overlap at a cost
    dxfb_g, fs, sq, h = work[2], work[:2], work[5:7], work[3:5]
    np.conj(dxfb_g, out=dxfb_g)
    np.conj(fs, out=sq)
    np.multiply(fs, sq, out=sq)
    work[5].imag = work[6].real
    np.multiply(h, h, out=h)
    np.multiply(fs[0], fs[0], out=work[6])


def _multipliers(t1, t3, c, lead, work) -> None:
    """Stage 3, in place: truncation to S_N, h1 and z under their
    multipliers, h2 and g under the mask.  Leaves the factors of the cubic
    products: in row 3 w = W / (-i tau) with W = -1/2 (e^{-i tau d_xx} h1 -
    h2) - i tau Pi_N (f - c_0)^2, all that multiplies d_x conj(f) under
    d_x^{-1} e^{i tau d_xx}, but for the c_0^2 that `_zero_mode` adds;
    e^{i tau d_xx} g in the h2 row; -d_x^{-1} z; g.  Row 7 is scratch.
    Column 0 of `lead` holds each run's c_0: it is c itself on whole rows,
    and a block of c_0 spread over the row otherwise."""
    x = work[3:7]
    w, gp, _, g = x
    x[0::2] *= t3
    x[1::2] *= t1[0]
    w += gp
    w += g
    t = work[7]
    t[...] = (2.0 * lead[..., 0])[..., None]
    w -= np.multiply(t, c, out=t)
    np.multiply(g, t1[1], out=gp)


def _zero_mode(w, c0) -> None:
    """The + c_0^2 of stage 3 on w's k = 0 column, rounded like a product of
    complex scalars: in Python floats, as numpy's complex array loop may fuse
    multiply-adds and round differently."""
    w[:, 0] += [complex(z.real * z.real - z.imag * z.imag, z.real * z.imag * 2.0)
                for z in c0.tolist()]


def _cubics(work) -> None:
    """Stage 4, on the grid: the cubic products into rows 2-5, each to be
    truncated to S_N under one row of t4: -e^{i tau d_xx} f d_x^{-1} b;
    E = -f d_x^{-1} a + d_x conj(f) W, the -i tau riding on the d_x row;
    e^{-i tau d_xx} conj(f) e^{i tau d_xx} g; conj(f) g.  Here
    -d_x^{-1} z = -d_x^{-1} a - i d_x^{-1} b with a = Pi_N |f|^2 and
    b = Pi_N |e^{i tau d_xx} f|^2, both real fields."""
    f_g, fp_g, dxfb_g, w, gp, gz, g = work[:7]
    w *= dxfb_g
    dxfb_g[...] = gz.real
    np.multiply(f_g, dxfb_g, out=dxfb_g)
    w += dxfb_g
    dxfb_g[...] = gz.imag
    np.multiply(fp_g, dxfb_g, out=dxfb_g)
    fs = work[:2]
    np.conj(fs, out=fs)                       # conj(f), e^{-i tau d_xx} conj(f)
    np.multiply(fp_g, gp, out=gp)
    np.multiply(f_g, g, out=gz)


def _truncate(t4, work) -> None:
    """The cubic rows 2-5 under their multipliers t4, each truncated to S_N.
    A pass of its own, made before the result is taken: on a block of a few
    points numpy buffers this four-row product."""
    y = work[2:6]
    y *= t4


def _combine(twist, c, work, out) -> None:
    """The result: the twisted state plus the sum of rows 2-5, summed in
    row 0."""
    np.multiply(twist, c, out=out)
    out += work[2:6].sum(axis=0, out=work[0])


@lru_cache(maxsize=32)
def _plan(lam: int, tau: float, cutoff: int, mass: float, mom_imag: float, m: int) -> _StepPlan:
    k = _uncentered(np.arange(-cutoff, cutoff + 1.0))
    inv_ik = _inv_ik(k)                       # d_x^{-1}, zero at k = 0
    ep = _free_phase(k, tau)                  # e^{i tau d_xx}
    # stage 1 scales two grid rows so that stage 3 needs no scalar but
    # c_0: the d_x row becomes -i tau d_x conj(f) once conjugated, and
    # the squares of the d_x^{-1} rows come out divided by -2i tau
    s = np.sqrt(0.5j / tau)                   # s^2 = 1 / (-2i tau)
    t1 = np.stack([np.ones_like(ep), ep, -tau * k, s * inv_ik * ep, s * inv_ik])
    t3 = np.stack([-np.conj(ep), -inv_ik])
    inv_ik2 = inv_ik * inv_ik
    t4 = np.stack([
        -lam * inv_ik, lam * ep * inv_ik,
        -0.5 * lam * inv_ik2, 0.5 * lam * ep * inv_ik2,
    ])
    # Pi_0(conj(f) Pi_N f^2) = Pi_0(|f|^2 f), so the k = 0 entry of the
    # last row yields the scheme's mean term -i lam tau Pi_0(|f|^2 f)
    t4[3, 0] = -1j * lam * tau
    twist = _twist_phase(k, tau, lam, mass, mom_imag)
    # the mean correction (1 - e^{-2i lam tau mass}) c_0 undoes the mass
    # phase on the zero mode
    twist[0] = 1.0
    t1, t3, t4 = (_standard(t, cutoff, m)[:, None] for t in (t1, t3, t4))
    return _StepPlan(t1, t3, t4, _standard(twist, cutoff, m)[None], cutoff)


def _plan_for(params: SchemeParams, cq: ConservedQuantities, m: int) -> _StepPlan:
    return _plan(params.lam, params.tau, params.cutoff, cq.mass, cq.momentum_imag, m)


def step(f: SpectralField, params: SchemeParams, cq: ConservedQuantities) -> SpectralField:
    """One application u^{n+1} = Psi(u^n) of the low-regularity map."""
    _finite_field(f, "f")
    if f.cutoff != params.cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {params.cutoff}")
    m = _pow2_grid_size(f.cutoff)
    c = _standard(_uncentered(f.coeffs), f.cutoff, m)
    return SpectralField(f.cutoff, _centered(_plan_for(params, cq, m).apply(c[None])[0], f.cutoff))


def step_twisted(
    f: SpectralField, params: SchemeParams, cq: ConservedQuantities, step_index: int
) -> SpectralField:
    """One step v^{n+1} = Phi^n(v^n) in the twisted variable v^n = e^{-i t_n d_xx} u^n.

    Built term by term from the public spectral operators; satisfies
    e^{i t_{n+1} d_xx} Phi^n(e^{-i t_n d_xx} u) = Psi(u) up to rounding, so it
    serves as an independently coded cross-check of `step`.
    """
    _finite_field(f, "f")
    if f.cutoff != params.cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {params.cutoff}")
    step_index = _integer(step_index, "step index", 0)
    lam, tau = params.lam, params.tau
    tn = step_index * tau
    tnp = tn + tau
    mass, momentum_imag = cq.mass, cq.momentum_imag

    v = f
    vb = conjugate(v)
    un = free_propagator(v, tn)
    unp = free_propagator(v, tnp)
    unb = free_propagator(vb, -tn)
    unpb = free_propagator(vb, -tnp)
    dvb_n = free_propagator(derivative(vb), -tn)
    c0 = v.coefficient(0)
    pn = dealiased_product
    di = inv_derivative

    # phase multiplier carrying mass, momentum (no k^2 part), plus its
    # zero-mode completion
    out = free_propagator(twist_propagator(v, tau, lam, mass, momentum_imag), -tau)
    mean2 = (1.0 - np.exp(-2j * lam * tau * mass)) * c0
    abs2 = pn(un, unb)
    mean3 = (-1j * lam * tau) * np.dot(abs2.coeffs, un.coeffs[::-1])
    out = out + SpectralField.from_modes(v.cutoff, {0: mean2 + mean3})

    out = out + lam * free_propagator(di(pn(unp, di(pn(unp, unpb)))), -tnp)
    out = out - lam * free_propagator(di(pn(un, di(abs2))), -tn)

    g = pn(un, un)
    t6a = free_propagator(di(di(pn(unpb, free_propagator(g, tau)))), -tnp)
    t6b = free_propagator(di(di(pn(unb, g))), -tn)
    out = out - (0.5 * lam) * (t6a - t6b)

    h1 = pn(di(unp), di(unp))
    h2 = pn(di(un), di(un))
    out = out - (0.5 * lam) * free_propagator(
        di(pn(dvb_n, free_propagator(h1, -tau) - h2)), -tn
    )

    out = out - (1j * lam * tau) * free_propagator(di(pn(dvb_n, g)), -tn)
    out = out + (2j * lam * tau * c0) * free_propagator(di(pn(dvb_n, un)), -tn)
    out = out + (-1j * lam * tau * c0 * c0) * nonzero_part(free_propagator(vb, -2.0 * tn))
    return out


@dataclass(frozen=True)
class SnapshotDiagnostics:
    """Norms and conservation drifts of the state at step step_index."""

    step_index: int
    l2: float
    h1: float
    mass_drift: float
    momentum_drift: float


@dataclass(frozen=True)
class Trajectory:
    """Result of one run: its initial state (whose conserved quantities the
    run froze), its state at step params.steps, diagnostics and H^1 maximum."""

    params: SchemeParams
    scheme: str
    initial: SpectralField
    final: SpectralField
    diagnostics: tuple[SnapshotDiagnostics, ...]
    h1_max: float


class _Record:
    """What one run of `evolve_lockstep` records: its start and its conserved
    quantities, its final state, its diagnostics, running H^1 maximum and
    blow-up check."""

    def __init__(self, initial, params, diag_stride):
        self.initial, self.params, self.stride = initial, params, diag_stride
        self.cq: ConservedQuantities | None = None
        self.final: SpectralField | None = None
        self.diagnostics: list[SnapshotDiagnostics] = []
        self.h1_max, self.last_h1 = 0.0, math.nan

    def take(self, j: int, row: np.ndarray, h1: float, p: np.ndarray) -> None:
        """Record step j of the run, its state `row` in standard order, its
        H^1 norm h1 and p, the |c_k|^2 of `row` centered on the stack's
        largest cutoff."""
        params = self.params
        if not math.isfinite(h1):
            # a non-finite coefficient, or one whose square overflows, makes
            # H^1 non-finite; at step 0 the initial state is such a state
            raise BlowUpError(j, params.tau, self.last_h1)
        self.last_h1 = h1
        self.h1_max = max(self.h1_max, h1)
        if j == params.steps or j == 0 or (self.stride > 0 and j % self.stride == 0):
            if j == params.steps:
                self.final = SpectralField(params.cutoff, _centered(row, params.cutoff))
            # the run's own window of p: the sums of `conserved_quantities`
            top, n = len(p) // 2, params.cutoff
            now = _quantities(p[top - n: top + n + 1])
            if j == 0:
                # the run's quantities: step 0's row holds the initial
                # coefficients, and its finite H^1 bounds their sums
                self.cq = now
            self.diagnostics.append(SnapshotDiagnostics(
                step_index=j, l2=math.sqrt(2.0 * math.pi * now.mass),
                h1=h1, mass_drift=abs(now.mass - self.cq.mass),
                momentum_drift=abs(now.momentum_imag - self.cq.momentum_imag),
            ))

    def trajectory(self, scheme: str) -> Trajectory:
        return Trajectory(
            params=self.params, scheme=scheme, initial=self.initial,
            final=self.final, diagnostics=tuple(self.diagnostics), h1_max=self.h1_max,
        )


def evolve(initial: SpectralField, params: SchemeParams, diag_stride: int = 0) -> Trajectory:
    """Run the low-regularity scheme for params.steps steps.

    The trajectory holds `initial` itself, uncopied, and the state at step
    L = params.steps.  Lightweight norm diagnostics are recorded at steps 0
    and L, and at every diag_stride-th step when diag_stride > 0.  The
    running H^1 maximum over every step is always tracked; drifts are from
    the initial field's conserved quantities.  Raises ValueError if the
    initial coefficients are not finite, and BlowUpError, naming the step,
    the tau and the last finite H^1, if the state's H^1 norm leaves floating
    point range at any step, step 0 (the initial state) included.
    """
    [traj] = evolve_lockstep([initial], [params], diag_stride)
    return traj


def splitting_evolve(initial: SpectralField, params: SchemeParams, order: int,
                     diag_stride: int = 0) -> Trajectory:
    """Run the Lie (order 1) or Strang (order 2) splitting of `reference`
    with the same recording and input checks as `evolve`."""
    [traj] = evolve_lockstep([initial], [params], diag_stride, scheme=_splitting_scheme(order))
    return traj


def evolve_lockstep(initials, runs, diag_stride: int = 0,
                    scheme: str = "lowreg") -> list[Trajectory]:
    """`evolve` for one or more runs of one lam, stepped together by one
    scheme of SCHEMES; trajectories come back in the order of runs.

    initials holds one field per run, each at its run's cutoff, whose
    conserved quantities are the run's.  Row r of the (R, m) state stack is
    run r in standard order, for every scheme: on the product grid of the
    largest cutoff N for the low-regularity step (see `_StepPlan`), on 2N+1
    points for splitting runs, which share one cutoff (see `reference`).
    Only H^1 norms, final states and diagnostics are centered.  The runs
    step in descending order of step count, and a run that reaches its step
    count leaves the stack by a prefix slice; the driver only steps and
    hands each live row, its centered |c_k|^2 and its H^1 norm, all from one
    pass, to the run's `_Record`, which keeps its final state, diagnostics
    and blow-up check.  Each trajectory is that
    of the run's own `evolve` or `splitting_evolve`, bitwise when every run
    has the largest cutoff, to round-off otherwise, and a function of its
    inputs alone.  A ValueError for bad input and a BlowUpError name the run.
    """
    _scheme(scheme)
    diag_stride = _integer(diag_stride, "diag_stride", 0)
    runs = list(runs)
    if not runs:
        raise ValueError("runs stepped together must be one or more")
    initials = list(initials)
    if len(initials) != len(runs):
        unmatched = (f"run {len(initials)} has no initial field" if len(initials) < len(runs)
                     else f"initial field {len(runs)} has no run")
        raise ValueError(f"{len(initials)} initial fields for {len(runs)} runs: {unmatched}")
    for r, (field, params) in enumerate(zip(initials, runs)):
        if params.lam != runs[0].lam:
            raise ValueError(f"run {r} has lam {params.lam}, but runs stepped together "
                             f"must share lam {runs[0].lam}")
        if scheme != "lowreg" and params.cutoff != runs[0].cutoff:
            raise ValueError(f"run {r} has cutoff {params.cutoff}, but splitting runs "
                             f"stepped together must share cutoff {runs[0].cutoff}")
        if field.cutoff != params.cutoff:
            raise ValueError(f"run {r} (tau = {params.tau!r}): field cutoff "
                             f"{field.cutoff} != params cutoff {params.cutoff}")
        if not np.all(np.isfinite(field.coeffs)):
            raise ValueError(f"run {r} (tau = {params.tau!r}): initial coefficients "
                             "must be finite")
    records = [_Record(field, params, diag_stride) for field, params in zip(initials, runs)]
    # longest run first, so that runs leave the stack by a prefix slice
    ranked = sorted(records, key=lambda rec: -rec.params.steps)
    top = max(params.cutoff for params in runs)
    size = _pow2_grid_size(top) if scheme == "lowreg" else 2 * top + 1
    k = np.arange(-top, top + 1, dtype=float)
    w1 = 1.0 + k * k
    live = len(ranked)
    c = np.stack([_standard(_uncentered(rec.initial.coeffs), rec.initial.cutoff, size)
                  for rec in ranked])
    for j in range(ranked[0].params.steps + 1):
        if j:
            c = advance(c)
        # summed in centered order, as `sobolev_norm` sums
        p = np.abs(_centered(c, top)) ** 2
        for rec, row, norm, prow in zip(ranked, c, np.sum(w1 * p, axis=-1), p):
            rec.take(j, row, math.sqrt(2.0 * math.pi * float(norm)), prow)
        # freed before the next step allocates, where a live block would
        # move the step's work block to fresh pages
        del p, prow
        while live and ranked[live - 1].params.steps == j:
            live -= 1
        if j == 0:
            # built once step 0 has passed, so a run that cannot start builds no plan
            stepper = _stepper(scheme, ranked, size)
        if j == 0 or 0 < live < len(c):
            c = c[:live]
            advance = stepper(live)
    return [rec.trajectory(scheme) for rec in records]


def _stepper(scheme: str, ranked, size: int):
    """stepper(rows) of `evolve_lockstep`: the `scheme` step of the first
    rows of the stack of the records `ranked`, on `size` points."""
    if scheme != "lowreg":
        return _splitting_stepper(scheme, [rec.params for rec in ranked])
    stack = _StepPlan.stacked([_plan_for(rec.params, rec.cq, size) for rec in ranked])
    return lambda rows: stack.head(rows).apply


def save_trajectory(traj: Trajectory, dirpath) -> None:
    """Write a trajectory dump of four files: manifest.txt, the run's lines
    key=value of scheme, lambda, tau, N, steps and h1_max; initial.txt and
    final.txt, each the state's 2N+1 lines "re im" in ascending k; and
    diagnostics.txt, one line "j l2 h1 mass_drift momentum_drift" per
    recorded step j.  Each number is its repr, which reads back bit-exactly,
    and each fact is written once: the horizon, the row times, k and the
    conserved quantities follow from the rest."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    params = traj.params
    (d / "manifest.txt").write_text(
        f"scheme={traj.scheme}\nlambda={params.lam}\ntau={params.tau!r}\nN={params.cutoff}\n"
        f"steps={params.steps}\nh1_max={traj.h1_max!r}\n")
    for name, f in (("initial", traj.initial), ("final", traj.final)):
        pairs = zip(f.coeffs.real.tolist(), f.coeffs.imag.tolist())
        (d / f"{name}.txt").write_text("".join(f"{x!r} {y!r}\n" for x, y in pairs))
    (d / "diagnostics.txt").write_text("".join(
        f"{r.step_index} {r.l2!r} {r.h1!r} {r.mass_drift!r} {r.momentum_drift!r}\n"
        for r in traj.diagnostics))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _table(path: Path, count: int, parse) -> list:
    """parse(*fields) of each line of a dump's table file, a line of count
    fields; a bad line is one ValueError naming the file and the line."""
    rows = []
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        fields = line.split()
        try:
            if len(fields) != count:
                raise ValueError(f"expected {count} fields, got {len(fields)}")
            rows.append(parse(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
    return rows


def _manifest_dict(path: Path) -> dict[str, str]:
    out = {}
    for ln in path.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{path}: malformed manifest line {ln!r}")
        key, val = (s.strip() for s in ln.split("=", 1))
        if key in out:
            raise ValueError(f"{path}: manifest key {key!r} is given twice")
        out[key] = val
    return out


def load_trajectory(dirpath) -> Trajectory:
    """Read back a dump written by save_trajectory.

    The manifest must name one run: each of its six keys is given once,
    keys it does not read are ignored, and steps * tau is a finite time.  A
    missing or repeated key, a bad or non-finite value and a time past float
    range raise one ValueError naming the manifest and the key.  The three
    tables are read by one rule, `_table`: a line of the wrong field count or
    with a bad or non-finite number is one ValueError naming the file and the
    line.  A state file must hold 2N+1 lines at the manifest's N, and the
    rows' steps must rise strictly from 0 to the manifest's steps, so each
    row's time j * tau is finite too; a file that does not is one ValueError
    naming it (and the row's line).  A missing table file raises OSError."""
    d = Path(dirpath)
    manifest = d / "manifest.txt"
    if not manifest.is_file():
        raise ValueError(f"{d}: no manifest.txt found")
    kv = _manifest_dict(manifest)

    def bad(key, why) -> ValueError:
        return ValueError(f"{manifest}: bad manifest entry {key}={kv[key]!r}: {why}")

    def entry(key, parse=_finite):
        if key not in kv:
            raise ValueError(f"{manifest}: missing manifest key {key!r}")
        try:
            return parse(kv[key])
        except (ValueError, OverflowError) as exc:
            raise bad(key, exc) from None

    def param(key, name, parse):
        # checked alone, by the rule of SchemeParams, so that an error names the key
        unit = SchemeParams(1, 1.0, 0, 0)
        return entry(key, lambda text: getattr(replace(unit, **{name: parse(text)}), name))

    scheme, h1_max = entry("scheme", _scheme), entry("h1_max")
    params = SchemeParams(param("lambda", "lam", int), param("tau", "tau", float),
                          param("N", "cutoff", int), param("steps", "steps", int))
    try:
        finite = math.isfinite(params.horizon)
    except OverflowError:                     # steps past the range of floats
        finite = False
    if not finite:
        raise bad("steps", f"steps * tau {params.tau!r} is not a finite time")

    states = []
    for name in ("initial", "final"):
        path = d / f"{name}.txt"
        coeffs = _table(path, 2, lambda x, y: complex(_finite(x), _finite(y)))
        if len(coeffs) != 2 * params.cutoff + 1:
            raise ValueError(f"{path}: expected {2 * params.cutoff + 1} lines for the "
                             f"manifest's N={params.cutoff}, got {len(coeffs)}")
        states.append(SpectralField(params.cutoff, coeffs))
    path = d / "diagnostics.txt"
    rows = _table(path, 5, lambda j, *values: SnapshotDiagnostics(
        _integer(int(j), "step", 0), *map(_finite, values)))
    js = [row.step_index for row in rows]
    for n, (before, j) in enumerate(zip(js, js[1:]), start=2):
        if j <= before:
            raise ValueError(f"{path}: line {n}: step {j} does not come after step {before}")
    if not js or js[0] != 0:
        raise ValueError(f"{path}: line 1: the diagnostics do not start at step 0")
    if js[-1] != params.steps:
        raise ValueError(f"{path}: line {len(js)}: the diagnostics end at step {js[-1]}, "
                         f"not at the manifest's steps={params.steps}")
    return Trajectory(params=params, scheme=scheme, initial=states[0], final=states[1],
                      diagnostics=tuple(rows), h1_max=h1_max)
