"""Splitting baselines for cross-validating the low-regularity scheme.

The Lie and Strang splittings alternate the exact flows of i u_t = lam|u|^2 u
(a pointwise phase rotation, evaluated by collocation on the 4N+1-point grid)
and of i u_t + u_xx = 0 (a Fourier multiplier).  The phase rotation is not
band-limited, so its collocation commits the usual aliasing of classical
splitting codes; these schemes are baselines, not the production path.

The collocation grid stays at M = 4N+1 points, since any other length would
change the baseline's aliasing.  But M is odd and in general not a fast FFT
length, so both of its DFTs are computed as chirp-z (Bluestein) convolutions
on the product grid of cutoff 2N (see `_nonlinear_flow`), in standard order:
four FFT calls per flow, of one row per run, or from N = 683 on, where a
run steps alone in any study, of two rows per run, the grid's even and odd
points, which pocketfft transforms together in SIMD (`_pairs`).

`integrator.evolve_lockstep` (and `splitting_evolve`, its one-run case)
steps a stack of splitting runs in lockstep, as it does low-regularity runs,
but only runs of one cutoff, since the 4N+1 collocation aliases differently
at each N.  Its stepper (`_splitting_stepper`) owns one workspace of grid,
sample, angle and phase rows for the whole stack, and every flow runs in it:
the samples turn by a real angle, through its cosine and sine, and a step
allocates nothing but its states (and, for a stack of several runs, numpy's
buffers for a table row broadcast over it).  This module holds only the
splitting mathematics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import (
    SpectralField,
    _centered,
    _finite_field,
    _free_phase,
    _from_grid,
    _integer,
    _pow2_grid_size,
    _to_grid,
    _uncentered,
)

__all__ = ["splitting_step"]

# scheme name -> splitting order
SPLITTINGS = {"lie": 1, "strang": 2}


# a flow pairs (see `_nonlinear_flow`) where the grid of cutoff N, half its
# chirp-z grid, has more than this many points (N >= 683).  pocketfft
# vectorizes across the rows of a call, not within a row: a (2, 6400) call
# costs 0.67x a (1, 12800) one, and one run's paired flow takes 0.82-0.90x
# the time of its one-row flow at N = 683..8192 (0.84-0.93x at 256..512).
# But below this size `harness` stacks two or more runs of a cutoff
# (STACK_POINTS // 2), whose calls already hold several rows, and pairing
# them took 1.07-1.15x (2 and 4 runs at N = 128 and 256).  So the rule reads
# N alone, and a stack's rows compute the bits of the same runs stepped alone
_PAIRED_POINTS = 2048


def _pairs(n: int) -> int:
    """Grid rows P per run of the cutoff-n flow: 2 where it pairs, else 1."""
    return 2 if _pow2_grid_size(n) > _PAIRED_POINTS else 1


@lru_cache(maxsize=8)
def _chirp_tables(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """(m, alpha, K1, K2, unchirp, twiddle) of the cutoff-n flow, whose
    chirp-z grid of L = _pow2_grid_size(2n) points runs as P = _pairs(n) rows
    of m = L/P points: read-only, so every stack of cutoff n shares them.

    alpha_k = e^{i pi k^2/M} on |k| <= n and beta_j = e^{-i pi j^2/M} on
    |j| <= 3n, with M = 4n+1; K1 and K2 are beta and conj(beta) on the L-point
    grid, and unchirp is conj(alpha)/M.  With omega = e^{2 pi i/L}, row r of
    the (P, 2n+1) alpha is alpha_k omega^{rk}, row r of the (P, m) K1 holds
    its points P p + r, and of K2 its points P p + r + P - 1, both divided by
    P (exactly), and row r of the (P, 2n+1) unchirp is
    unchirp_k omega^{-(r+P-1)k}: at P = 1 the tables themselves.  The
    (P - 1, 4n+1) twiddle is omega^j on the samples |j| <= 2n.  All in
    standard order; exponents are reduced mod 2M or L in integers before
    scaling.
    """
    big_m, big_l, pairs = 4 * n + 1, _pow2_grid_size(2 * n), _pairs(n)
    m = big_l // pairs
    k = _uncentered(np.arange(-n, n + 1))
    j = _uncentered(np.arange(-3 * n, 3 * n + 1))
    alpha = np.exp(1j * np.pi / big_m * ((k * k) % (2 * big_m)))
    beta = np.exp(-1j * np.pi / big_m * ((j * j) % (2 * big_m)))
    kernels = _to_grid(np.stack([beta, beta.conj()]), 3 * n, big_l)
    unchirp = alpha.conj() / big_m

    def twisted(row, e):
        """row times omega^e, or row itself where every e is 0."""
        return row * np.exp(2j * np.pi / big_l * (e % big_l)) if e.any() else row

    def split(grid):
        """Row r of grid's points P p + r, divided by P; contiguous, since
        numpy buffers an in-place product with a strided table."""
        return np.ascontiguousarray(grid.reshape(m, pairs).T) / pairs

    tables = (np.stack([twisted(alpha, r * k) for r in range(pairs)]),
              split(kernels[0]),
              split(np.roll(kernels[1], 1 - pairs)),
              np.stack([twisted(unchirp, -(r + pairs - 1) * k) for r in range(pairs)]),
              twisted(np.ones((pairs - 1, big_m), dtype=np.complex128),
                      _uncentered(np.arange(-2 * n, 2 * n + 1))))
    for arr in tables:
        arr.flags.writeable = False
    return m, *tables


def _flow_work(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """The workspace of `_nonlinear_flow` for `rows` runs of cutoff n, per
    run P = _pairs(n) grid rows of m points (one chirp-z grid), P sample
    rows of 4n+1 points, a real angle row and a complex phase row: 0.63 MiB
    a run at n = 2^11 (P = 2), 20 MiB at 2^16."""
    m, alpha = _chirp_tables(n)[:2]
    pairs, samples = alpha.shape[0], 4 * n + 1
    return (np.empty((rows, pairs, m), dtype=np.complex128),
            np.empty((rows, pairs, samples), dtype=np.complex128),
            np.empty((rows, samples)),
            np.empty((rows, samples), dtype=np.complex128))


def _nonlinear_flow(c: np.ndarray, lam: int, t: np.ndarray, work) -> np.ndarray:
    """Exact flow of i u_t = lam |u|^2 u, by collocation, of an (R, 2N+1)
    stack of coefficients in standard order, row r for time t[r].

    u(x, t) = u(x, 0) exp(-i lam t |u(x, 0)|^2) pointwise on the M = 4N+1
    grid, transformed back and truncated to S_N.

    Both DFTs of length M run as chirp-z convolutions.  With
    kn = (k^2 + n^2 - (n-k)^2)/2, the samples are alpha_n w_n where
    w_n = sum_k (c_k alpha_k) beta_{n-k}, and the forward transform's chirp
    cancels alpha_n again, so the flow rotates w_n, which has the same
    modulus, and never forms the samples themselves.  The first convolution
    maps |k| <= N to |n| <= 2N and the second maps back, both through a
    kernel on |j| <= 3N, so each is an exact cyclic convolution on any grid
    of >= 6N+1 points.  The product grid of cutoff 2N, the smallest 2^a or
    25*2^b >= 6N+1, is such a grid, of L points, and a fast FFT length.

    Where the flow pairs (P = 2, see `_pairs`), each FFT call takes the even
    and odd points of that grid as two rows of m = L/2 points (L = 2m for
    N >= 5), one radix-2 stage done in coefficient space.  With
    omega = e^{2 pi i/L}, the rows a_k and a_k omega^k (|k| <= N < m/2, so
    their ends never meet) give w_n = W0[n] + omega^{-n} W1[n] (indices mod
    m), and the flow rotates z_n = omega^n W0[n] + W1[n] = omega^n w_n, of the
    same modulus, into x_n = omega^n v_n.  The rows x_n and omega^n x_n,
    folded onto m points at n mod m (their ends add where m < 4N+1),
    transform to the odd and even grid points of v, and the tables undo
    every twiddle (see `_chirp_tables`).

    Every call runs in work, a `_flow_work` of R rows, and rotates the
    samples by the real angle -lam t |z_n|^2 through its cosine and sine; the
    returned stack is the only array it allocates.
    """
    n = (c.shape[-1] - 1) // 2
    m, alpha, k1, k2, unchirp, twiddle = _chirp_tables(n)
    g, w, angle, phase = work
    paired, s = len(twiddle) > 0, 2 * n
    _to_grid(np.multiply(c[:, None], alpha, out=w[..., : 2 * n + 1]), n, m, out=g)
    # K1 and K2 multiply in place: at N = 0, a one-point grid, they are 1
    g *= k1
    z = _from_grid(g, s, out=w)[:, 0]
    if paired:
        z *= twiddle[0]
        z += w[:, 1]
    np.abs(z, out=angle)
    angle *= angle
    angle *= (-lam * t)[:, None]
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    if paired:
        # in place, as a paired row is never one element
        z *= phase
        np.multiply(z, twiddle[0], out=w[:, 1])
        # sample n < 0 lands on point n + m, where sample n + m <= 2N lies
        # when m < 4N+1: there the o such pairs add
        o = max(0, 2 * s + 1 - m)
        g[..., : s + 1] = w[..., : s + 1]
        g[..., m - s + o:] = w[..., s + 1 + o:]
        g[..., m - s: m - s + o] += w[..., s + 1: s + 1 + o]
    else:
        # the rotated samples go straight onto the grid, not in place into
        # w: numpy multiplies a one-element array (N = 0, one run) in place
        # by its scalar path, which rounds unlike the array loop of a larger
        # stack
        np.multiply(z[:, : s + 1], phase[:, : s + 1], out=g[:, 0, : s + 1])
        np.multiply(z[:, s + 1:], phase[:, s + 1:], out=g[:, 0, m - s:])
    g[..., s + 1: m - s] = 0.0
    np.fft.ifft(g, axis=-1, norm="forward", out=g)
    g *= k2
    # truncated into the dead sample rows, then out of place, as above
    f = _from_grid(g, n, out=w[..., : 2 * n + 1])
    if paired:
        f *= unchirp
        return np.add(f[:, 0], f[:, 1])
    return np.multiply(f[:, 0], unchirp[0])


def _splitting_scheme(order) -> str:
    """The scheme of SPLITTINGS of a splitting order, which must be 1 or 2."""
    order = _integer(order, "splitting order")
    for scheme, o in SPLITTINGS.items():
        if o == order:
            return scheme
    raise ValueError(f"splitting order must be 1 or 2, got {order}")


def _splitting_stepper(scheme: str, runs):
    """stepper(rows): the Lie or Strang step (scheme of SPLITTINGS) of the
    first rows of a stack of runs (SchemeParams) of one lam and one cutoff,
    run r on row r.
    The free flow's multipliers e^{-i tau k^2}, one row per run, and the
    flows' workspace (`_flow_work`: per run one or, where the flow pairs,
    two grid and sample rows, a real angle and a complex phase row) are
    built once.  Every step, at any row
    count, runs its flows in that workspace sliced to the live rows, so it
    allocates only its (rows, 2N+1) states, none of them in the workspace,
    and numpy's buffers for the tables broadcast over more than one row."""
    lam, n = runs[0].lam, runs[0].cutoff
    taus = np.array([params.tau for params in runs])
    phase = _free_phase(_uncentered(np.arange(-n, n + 1.0)), taus[:, None])
    times = taus if scheme == "lie" else 0.5 * taus
    work = _flow_work(len(runs), n)

    def stepper(rows: int):
        drift, t, live = phase[:rows], times[:rows], [a[:rows] for a in work]
        # np.multiply, not *: numpy turns `drift * temporary` of >= 256 KiB
        # into `temporary *= drift`, and a complex product rounds differently
        # with its operands swapped, so a large stack's rows would not match
        # their runs alone
        if scheme == "lie":
            return lambda c: np.multiply(drift, _nonlinear_flow(c, lam, t, live))
        return lambda c: _nonlinear_flow(np.multiply(drift, _nonlinear_flow(c, lam, t, live)),
                                         lam, t, live)

    return stepper


def splitting_step(f: SpectralField, params, order: int) -> SpectralField:
    """One Lie (order 1) or Strang (order 2) splitting step of length tau."""
    scheme = _splitting_scheme(order)
    _finite_field(f, "f", params.cutoff)
    out = _splitting_stepper(scheme, [params])(1)(_uncentered(f.coeffs)[None])
    return SpectralField(f.cutoff, _centered(out[0], f.cutoff))

