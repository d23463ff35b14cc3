"""First-order low-regularity Fourier integrator for cubic NLS on the torus.

The scheme advances i u_t + u_xx = lam |u|^2 u, u(0) = Pi_N u0, by a one-step
map built from free propagators, antiderivatives and exactly dealiased
products, with the mean mass M = Pi_0 |u0|^2 and mean momentum
P = Pi_0 (u0 d_x conj(u0)) of the initial state frozen into a unitary
"twist" multiplier.  For H^1 data the map is first-order accurate in time up
to a logarithmic factor, without any CFL-type step restriction.

`step` is the production path: all ten terms of the map are evaluated with
20 FFTs, in four batched calls, on a power-of-two product grid of >= 3N+1
points.  `step_twisted` advances the twisted variable
v^n = e^{-i t_n d_xx} u^n instead; conjugating it with free propagators
reproduces `step` to rounding, which the tests exploit as a structural
cross-check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import dft, initial_data
from .initial_data import InitialDataSpec
from .spectral import (
    SpectralField,
    _from_grid,
    _pow2_grid_size,
    _to_grid,
    conjugate,
    dealiased_product,
    derivative,
    free_propagator,
    inv_derivative,
    load_field,
    nonzero_part,
    project,
    save_field,
    twist_propagator,
    zero_mode,
)

__all__ = [
    "SchemeParams",
    "ConservedQuantities",
    "conserved_quantities",
    "initialize",
    "step",
    "step_twisted",
    "evolve",
    "Trajectory",
    "SnapshotDiagnostics",
    "BlowUpError",
    "save_trajectory",
    "load_trajectory",
]

INIT_MODES = ("truncated", "sampled")


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the range of floating point numbers."""

    def __init__(self, step_index: int, time_value: float):
        self.step_index = step_index
        self.time = time_value
        super().__init__(
            f"solution blew up to non-finite values at step {step_index} "
            f"(t = {time_value:g})"
        )


@dataclass(frozen=True)
class SchemeParams:
    """Run parameters: nonlinearity sign lam, step tau, cutoff N, step count."""

    lam: int
    tau: float
    cutoff: int
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "lam", int(self.lam))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "cutoff", int(self.cutoff))
        object.__setattr__(self, "steps", int(self.steps))
        if self.lam not in (-1, 1):
            raise ValueError(f"lam must be -1 or +1, got {self.lam}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")

    @property
    def horizon(self) -> float:
        """Final time T = steps * tau."""
        return self.steps * self.tau

    @classmethod
    def from_horizon(cls, lam: int, tau: float, cutoff: int, horizon: float) -> "SchemeParams":
        """Build params for integration up to T = horizon; T must sit on the
        step grid to within 1e-12 relative."""
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be a positive finite number, got {tau}")
        steps = int(round(horizon / tau))
        if steps < 0 or abs(steps * tau - horizon) > 1e-12 * max(abs(horizon), 1.0):
            raise ValueError(
                f"horizon {horizon!r} is not an integer multiple of tau {tau!r}"
            )
        return cls(lam, tau, cutoff, steps)


@dataclass(frozen=True)
class ConservedQuantities:
    """Mean mass Pi_0 |u|^2 (real) and mean momentum Pi_0 (u d_x conj(u))
    (purely imaginary) of the initial state; both are conserved by NLS and
    frozen into the scheme's phase multiplier."""

    mass: float
    momentum: complex


def conserved_quantities(f: SpectralField) -> ConservedQuantities:
    """Closed forms: mass = sum_k |c_k|^2, momentum = -i sum_k k |c_k|^2."""
    p = np.abs(f.coeffs) ** 2
    mass = float(np.sum(p))
    mom = -float(np.sum(f.frequencies() * p))
    return ConservedQuantities(mass=mass, momentum=complex(0.0, mom))


def initialize(
    source,
    cutoff: int,
    init_mode: str = "truncated",
    tail_cutoff: int | None = None,
) -> SpectralField:
    """Initial state in S_N from an InitialDataSpec or an explicit field.

    'truncated' takes the exact coefficients for |k| <= cutoff.  'sampled'
    evaluates the series (truncated at tail_cutoff, default max(16N, 2^14))
    on the 4N+1-point grid, transforms, and truncates; the two modes differ
    by the aliasing of the neglected tail and coincide for band-limited
    sources.
    """
    if init_mode not in INIT_MODES:
        raise ValueError(f"init_mode must be one of {INIT_MODES}, got {init_mode!r}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if isinstance(source, SpectralField):
        return project(source, cutoff)
    if not isinstance(source, InitialDataSpec):
        raise TypeError(f"cannot initialize from {type(source).__name__}")
    if init_mode == "truncated":
        return SpectralField(cutoff, initial_data.coefficients(source, cutoff))
    m = 4 * cutoff + 1
    tail = initial_data.resolve_tail_cutoff(source, cutoff, tail_cutoff)
    samples = initial_data.sample_on_grid(source, m, tail)
    full = dft.forward(samples)
    mid = m // 2
    return SpectralField(cutoff, full[mid - cutoff: mid + cutoff + 1])


class _StepPlan:
    """Precomputed multipliers for one (lam, tau, cutoff, mass, momentum).

    Immutable after construction and safe to share across threads; `apply`
    allocates its own work arrays.  One application costs 20 FFTs, in four
    batched calls, of the power-of-two product grid length (>= 3N+1).
    """

    def __init__(self, lam: int, tau: float, cutoff: int, mass: float, mom_imag: float):
        self.lam = lam
        self.tau = tau
        self.cutoff = cutoff
        self.grid_size = _pow2_grid_size(cutoff)
        k = np.arange(-cutoff, cutoff + 1, dtype=float)
        self.ik = 1j * k
        inv = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        nz = k != 0
        inv[nz] = 1.0 / (1j * k[nz])
        self.inv_ik = inv
        self.inv_ik2 = inv * inv
        self.ep = np.exp(-1j * tau * k * k)       # e^{i tau d_xx}
        self.em = np.conj(self.ep)                # e^{-i tau d_xx}
        q_over_k = np.zeros_like(k)
        q_over_k[nz] = mom_imag / k[nz]
        theta = tau * (-2.0 * lam * mass - k * k - 2.0 * lam * q_over_k)
        self.twist = np.exp(1j * theta)
        self.phase0 = complex(np.exp(-2j * lam * tau * mass))
        for arr in (self.ik, self.inv_ik, self.inv_ik2, self.ep, self.em, self.twist):
            arr.flags.writeable = False

    def apply(self, c: np.ndarray) -> np.ndarray:
        lam, tau = self.lam, self.tau
        n, m = self.cutoff, self.grid_size
        ik, inv_ik, inv_ik2 = self.ik, self.inv_ik, self.inv_ik2
        ep, em = self.ep, self.em
        # every grid array of the step lives in one block: stage 1's five
        # rows and two conjugates, stage 3's four rows, and six rows shared by
        # stages 2 and 4.  Freed as one, the block stays in the allocator's
        # heap for the next step instead of going back to the OS and being
        # faulted in again (glibc keeps freed blocks of up to 32 MiB: 17 rows
        # of 2^16 points at N = 2^14).
        work = np.empty((17, m), dtype=np.complex128)
        g1, g3, q = work[:7], work[7:11], work[11:]

        cb = np.conj(c[::-1])
        cp = ep * c

        # stage 1: five fields to the product grid; e^{-i tau d_xx} conj(f)
        # is conj(e^{i tau d_xx} f) pointwise and needs no transform of its own
        _to_grid(np.stack([c, cp, ik * cb, inv_ik * c, inv_ik * cp]), n, m, out=g1[:5])
        f_g, fp_g, dxfb_g, pinv_g, pinvp_g, fc_g, fbm_g = g1
        np.conj(f_g, out=fc_g)
        np.conj(fp_g, out=fbm_g)

        # stage 2: first round of quadratic products, truncated to S_N; the
        # real |f|^2 and |e^{i tau d_xx} f|^2 share one row
        z_g, ff_g, hp_g, h_g, s9_g = q[:5]
        np.multiply(fp_g, fbm_g, out=ff_g)
        np.multiply(f_g, fc_g, out=z_g)
        z_g.imag = ff_g.real                     # |f|^2 + i |e^{i tau d_xx} f|^2
        np.multiply(f_g, f_g, out=ff_g)          # f^2
        np.multiply(pinvp_g, pinvp_g, out=hp_g)  # (d_x^{-1} e^{i tau d_xx} f)^2
        np.multiply(pinv_g, pinv_g, out=h_g)     # (d_x^{-1} f)^2
        np.multiply(dxfb_g, f_g, out=s9_g)       # d_x conj(f) * f
        z, g, h1, h2, s9 = _from_grid(q[:5], n)
        # z = a + i b with a = Pi_N |f|^2 and b = Pi_N |e^{i tau d_xx} f|^2;
        # both are real fields, so a_k = (z_k + conj(z_{-k})) / 2
        a = 0.5 * (z + np.conj(z[::-1]))

        # stage 3: intermediate fields entering the cubic products; the real
        # d_x^{-1} a and d_x^{-1} b share one row, d_x^{-1} z
        _to_grid(np.stack([inv_ik * z, g, ep * g, em * h1 - h2]), n, m, out=g3)
        gab_g, gg_g, gepg_g, gi7_g = g3
        ga_g, gb_g = gab_g.real, gab_g.imag

        # stage 4: cubic products, truncated to S_N
        cc_g, d_g, s6a_g, s6b_g, k7_g, s8_g = q
        np.multiply(fp_g, gb_g, out=cc_g)       # e^{i tau d_xx} f * d_x^{-1} b
        np.multiply(f_g, ga_g, out=d_g)         # f * d_x^{-1} a
        np.multiply(fbm_g, gepg_g, out=s6a_g)   # e^{-i tau d_xx} conj(f) * e^{i tau d_xx} Pi_N f^2
        np.multiply(fc_g, gg_g, out=s6b_g)      # conj(f) * Pi_N f^2
        np.multiply(dxfb_g, gi7_g, out=k7_g)    # d_x conj(f) * (e^{-i tau d_xx} h1 - h2)
        np.multiply(dxfb_g, gg_g, out=s8_g)     # d_x conj(f) * Pi_N f^2
        cc, d, s6a, s6b, k7, s8 = _from_grid(q, n)

        c0 = c[n]
        out = self.twist * c
        out[n] += (1.0 - self.phase0) * c0
        out[n] += (-1j * lam * tau) * np.sum(a * c[::-1])
        out += lam * (inv_ik * cc)
        out -= lam * (ep * (inv_ik * d))
        out -= (0.5 * lam) * (inv_ik2 * s6a - ep * (inv_ik2 * s6b))
        out -= (0.5 * lam) * (ep * (inv_ik * k7))
        out -= (1j * lam * tau) * (ep * (inv_ik * s8))
        out += (2j * lam * tau * c0) * (ep * (inv_ik * s9))
        cb_nz = cb.copy()
        cb_nz[n] = 0.0
        out += (-1j * lam * tau * c0 * c0) * (ep * cb_nz)
        return out


@lru_cache(maxsize=32)
def _plan(lam: int, tau: float, cutoff: int, mass: float, mom_imag: float) -> _StepPlan:
    return _StepPlan(lam, tau, cutoff, mass, mom_imag)


def _plan_for(params: SchemeParams, cq: ConservedQuantities) -> _StepPlan:
    if abs(cq.momentum.real) > 1e-10 * (1.0 + abs(cq.momentum)):
        raise ValueError(
            f"momentum must be purely imaginary, got real part {cq.momentum.real!r}"
        )
    return _plan(params.lam, params.tau, params.cutoff, cq.mass, cq.momentum.imag)


def step(f: SpectralField, params: SchemeParams, cq: ConservedQuantities) -> SpectralField:
    """One application u^{n+1} = Psi(u^n) of the low-regularity map."""
    if f.cutoff != params.cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {params.cutoff}")
    return SpectralField(f.cutoff, _plan_for(params, cq).apply(f.coeffs))


def step_twisted(
    f: SpectralField, params: SchemeParams, cq: ConservedQuantities, step_index: int
) -> SpectralField:
    """One step v^{n+1} = Phi^n(v^n) in the twisted variable v^n = e^{-i t_n d_xx} u^n.

    Built term by term from the public spectral operators; satisfies
    e^{i t_{n+1} d_xx} Phi^n(e^{-i t_n d_xx} u) = Psi(u) up to rounding, so it
    serves as an independently coded cross-check of `step`.
    """
    if f.cutoff != params.cutoff:
        raise ValueError(f"field cutoff {f.cutoff} != params cutoff {params.cutoff}")
    if step_index < 0:
        raise ValueError(f"step index must be >= 0, got {step_index}")
    lam, tau = params.lam, params.tau
    tn = step_index * tau
    tnp = tn + tau
    mass, momentum = cq.mass, cq.momentum

    v = f
    vb = conjugate(v)
    un = free_propagator(v, tn)
    unp = free_propagator(v, tnp)
    unb = free_propagator(vb, -tn)
    unpb = free_propagator(vb, -tnp)
    dvb_n = free_propagator(derivative(vb), -tn)
    c0 = zero_mode(v)
    pn = dealiased_product
    di = inv_derivative

    # phase multiplier carrying mass, momentum (no k^2 part), plus its
    # zero-mode completion
    out = free_propagator(twist_propagator(v, tau, lam, mass, momentum), -tau)
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
    """Norms and conservation drifts of the state at one recorded step."""

    step_index: int
    time: float
    l2: float
    h1: float
    mass_drift: float
    momentum_drift: float


@dataclass(frozen=True)
class Trajectory:
    """Result of one run: snapshots at requested times plus diagnostics."""

    params: SchemeParams
    cq: ConservedQuantities
    scheme: str
    snapshot_times: tuple[float, ...]
    snapshots: tuple[SpectralField, ...]
    diagnostics: tuple[SnapshotDiagnostics, ...]
    h1_max: float
    wall_ms: float

    @property
    def final(self) -> SpectralField:
        if not self.snapshots:
            raise ValueError("trajectory recorded no snapshots")
        return self.snapshots[-1]


def _snapshot_index(t: float, tau: float, steps: int) -> int:
    j = int(round(t / tau))
    if j < 0 or j > steps or abs(j * tau - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(
            f"snapshot time {t!r} is not a step multiple within the horizon"
        )
    return j


def _diagnose(
    c: np.ndarray, k: np.ndarray, w1: np.ndarray, cq: ConservedQuantities,
    j: int, tau: float,
) -> SnapshotDiagnostics:
    p = np.abs(c) ** 2
    total = float(np.sum(p))
    l2 = math.sqrt(2.0 * math.pi * total)
    h1 = math.sqrt(2.0 * math.pi * float(np.sum(w1 * p)))
    mom = complex(0.0, -float(np.sum(k * p)))
    return SnapshotDiagnostics(
        step_index=j,
        time=j * tau,
        l2=l2,
        h1=h1,
        mass_drift=abs(total - cq.mass),
        momentum_drift=abs(mom - cq.momentum),
    )


def _evolve_with(
    apply_fn,
    scheme: str,
    initial: SpectralField,
    params: SchemeParams,
    cq: ConservedQuantities,
    snapshot_times,
    diag_stride: int,
) -> Trajectory:
    tau, steps = params.tau, params.steps
    if snapshot_times is None:
        snapshot_times = (params.horizon,)
    snapshot_times = tuple(float(t) for t in snapshot_times)
    want = {}
    for t in snapshot_times:
        want.setdefault(_snapshot_index(t, tau, steps), []).append(t)
    diag_steps = set(want)
    diag_steps.update((0, steps))
    if diag_stride > 0:
        diag_steps.update(range(0, steps + 1, diag_stride))

    k = initial.frequencies().astype(float)
    w1 = 1.0 + k * k
    snapshots: dict[int, SpectralField] = {}
    diagnostics: dict[int, SnapshotDiagnostics] = {}

    t0 = time.perf_counter()
    c = initial.coeffs
    h1_max = math.sqrt(2.0 * math.pi * float(np.sum(w1 * np.abs(c) ** 2)))
    if 0 in want:
        snapshots[0] = initial
    if 0 in diag_steps:
        diagnostics[0] = _diagnose(c, k, w1, cq, 0, tau)
    for j in range(1, steps + 1):
        c = apply_fn(c, j - 1)
        if not np.all(np.isfinite(c)):
            raise BlowUpError(j, j * tau)
        h1_max = max(h1_max, math.sqrt(2.0 * math.pi * float(np.sum(w1 * np.abs(c) ** 2))))
        if j in want:
            snapshots[j] = SpectralField(params.cutoff, c)
        if j in diag_steps:
            diagnostics[j] = _diagnose(c, k, w1, cq, j, tau)
    wall_ms = (time.perf_counter() - t0) * 1e3

    ordered = sorted(want)
    snap_times = tuple(min(want[j]) for j in ordered)
    return Trajectory(
        params=params,
        cq=cq,
        scheme=scheme,
        snapshot_times=snap_times,
        snapshots=tuple(snapshots[j] for j in ordered),
        diagnostics=tuple(diagnostics[j] for j in sorted(diagnostics)),
        h1_max=h1_max,
        wall_ms=wall_ms,
    )


def evolve(
    initial: SpectralField,
    params: SchemeParams,
    cq: ConservedQuantities | None = None,
    snapshot_times=None,
    diag_stride: int = 0,
) -> Trajectory:
    """Run the low-regularity scheme for params.steps steps.

    Snapshots (full fields) are stored at the requested times, which must lie
    on the step grid; the default is the final time only.  Lightweight norm
    diagnostics are recorded at every snapshot, at steps 0 and L, and at every
    diag_stride-th step when diag_stride > 0.  The running H^1 maximum over
    every step is always tracked.  Raises BlowUpError, naming the step, if the
    state leaves floating point range.
    """
    if initial.cutoff != params.cutoff:
        raise ValueError(
            f"field cutoff {initial.cutoff} != params cutoff {params.cutoff}"
        )
    if cq is None:
        cq = conserved_quantities(initial)
    plan = _plan_for(params, cq)
    return _evolve_with(
        lambda c, j: plan.apply(c), "lowreg", initial, params, cq,
        snapshot_times, diag_stride,
    )


def save_trajectory(traj: Trajectory, dirpath) -> None:
    """Write a trajectory dump: one field file per snapshot plus manifest.txt
    with key=value lines for the run parameters, conserved quantities and the
    recorded diagnostics."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    lines = [
        f"scheme={traj.scheme}",
        f"lambda={traj.params.lam}",
        f"tau={traj.params.tau!r}",
        f"N={traj.params.cutoff}",
        f"steps={traj.params.steps}",
        f"T={traj.params.horizon!r}",
        f"mass={traj.cq.mass!r}",
        f"momentum_imag={traj.cq.momentum.imag!r}",
        f"h1_max={traj.h1_max!r}",
        f"wall_ms={traj.wall_ms!r}",
        f"snapshot_count={len(traj.snapshots)}",
    ]
    for i, (t, f) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        name = f"snapshot_{i:04d}.txt"
        save_field(f, d / name)
        lines.append(f"snapshot_{i}_time={t!r}")
        lines.append(f"snapshot_{i}_file={name}")
    lines.append(f"diagnostic_count={len(traj.diagnostics)}")
    for i, row in enumerate(traj.diagnostics):
        lines.append(
            f"diagnostic_{i}={row.step_index} {row.time!r} {row.l2!r} {row.h1!r} "
            f"{row.mass_drift!r} {row.momentum_drift!r}"
        )
    (d / "manifest.txt").write_text("\n".join(lines) + "\n")


def _manifest_dict(path: Path) -> dict[str, str]:
    out = {}
    for ln in path.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{path}: malformed manifest line {ln!r}")
        key, val = ln.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_trajectory(dirpath) -> Trajectory:
    """Read back a dump written by save_trajectory."""
    d = Path(dirpath)
    manifest = d / "manifest.txt"
    if not manifest.is_file():
        raise ValueError(f"{d}: no manifest.txt found")
    kv = _manifest_dict(manifest)
    try:
        params = SchemeParams(
            lam=int(kv["lambda"]), tau=float(kv["tau"]),
            cutoff=int(kv["N"]), steps=int(kv["steps"]),
        )
        cq = ConservedQuantities(
            mass=float(kv["mass"]), momentum=complex(0.0, float(kv["momentum_imag"])),
        )
        scheme = kv.get("scheme", "lowreg")
        n_snap = int(kv["snapshot_count"])
        times, fields = [], []
        for i in range(n_snap):
            times.append(float(kv[f"snapshot_{i}_time"]))
            fields.append(load_field(d / kv[f"snapshot_{i}_file"]))
        n_diag = int(kv["diagnostic_count"])
        rows = []
        for i in range(n_diag):
            parts = kv[f"diagnostic_{i}"].split()
            rows.append(
                SnapshotDiagnostics(
                    step_index=int(parts[0]), time=float(parts[1]),
                    l2=float(parts[2]), h1=float(parts[3]),
                    mass_drift=float(parts[4]), momentum_drift=float(parts[5]),
                )
            )
        return Trajectory(
            params=params, cq=cq, scheme=scheme,
            snapshot_times=tuple(times), snapshots=tuple(fields),
            diagnostics=tuple(rows),
            h1_max=float(kv["h1_max"]), wall_ms=float(kv["wall_ms"]),
        )
    except KeyError as exc:
        raise ValueError(f"{manifest}: missing manifest key {exc}") from exc
