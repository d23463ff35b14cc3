"""Command line front end.

Subcommands: solve (one trajectory, optional dump), study-temporal and
study-spatial (convergence tables, CSV output), diagnostics (norm and drift
series from a fresh run or re-read from a dump), selftest (quick built-in
verification).  Step sizes accept the power-of-two shorthand 2^-k.  A
--config file of key=value lines supplies defaults; explicit flags override
it.  Every error path prints a single "error: <message>" line and exits
nonzero.  Only this module reads a clock: solve and study --out print wall_ms.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    StudySpec,
    spatial_study,
    temporal_study,
    write_report_csv,
)
from .initial_data import KINDS, InitialDataSpec
from .integrator import (
    INIT_MODES,
    SCHEMES,
    SchemeParams,
    conserved_quantities,
    evolve,
    initialize,
    load_trajectory,
    save_trajectory,
    step,
    step_twisted,
)
from .reference import SPLITTINGS, splitting_evolve
from .spectral import (
    SpectralField,
    dealiased_product,
    free_propagator,
    l2_error,
    sobolev_norm,
)

__all__ = ["main", "build_parser"]

DIAG_HEADER = "t,l2,h1,mass_drift,momentum_drift"

# largest cutoff accepted on the command line: a step at N = 2^16 works on
# 8 grid rows, its result and 12 table rows of 204800 points (66 MiB); a
# spatial study also runs 2N, and stacks its runs (a cutoff's half
# zero-padded among them where that removes stacks) only at grids of <= 2048
# points (harness.STACK_POINTS), at any --jobs; each of the up to --jobs
# worker processes holds one stack at a time.
# The sampled initial series may reach 16 times that, its default at N = 2^16.
MAX_CUTOFF = 2 ** 16

# largest step count of one run accepted on the command line: it bounds --T
# against tau, which are otherwise only required to be finite and positive
MAX_STEPS = 2 ** 24


class CliError(Exception):
    """User-facing failure; main() renders it as a single error: line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_time(text: str) -> float:
    """A positive time value: a float literal or the shorthand 2^k / 2^-k."""
    text = text.strip()
    m = re.fullmatch(r"2\^([+-]?\d+)", text)
    try:
        value = 2.0 ** int(m.group(1)) if m else float(text)
    except (ValueError, OverflowError) as exc:
        raise CliError(f"cannot parse time value {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise CliError(f"time value must be positive and finite, got {text!r}")
    return value


def parse_cutoff(text: str) -> int:
    """A positive integer cutoff of at most MAX_CUTOFF, plain or in the
    shorthand 2^k."""
    text = text.strip()
    m = re.fullmatch(r"2\^(\d+)", text)
    try:
        value = int(m.group(1) if m else text)
    except ValueError as exc:
        raise CliError(f"cannot parse cutoff {text!r}") from exc
    if m is not None:
        # bound the exponent first so that 2^huge is never evaluated
        value = 2 ** min(value, MAX_CUTOFF.bit_length())
    if value < 1:
        raise CliError(f"cutoff must be >= 1, got {text!r}")
    if value > MAX_CUTOFF:
        raise CliError(f"cutoff {text!r} exceeds the maximum {MAX_CUTOFF}")
    return value


def _bounded_int(flag: str, least: int, most: int | None = None):
    """argparse type for an integer flag in [least, most]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise CliError(f"{flag} must be an integer, got {text!r}") from exc
        if value < least:
            raise CliError(f"{flag} must be >= {least}, got {text!r}")
        if most is not None and value > most:
            raise CliError(f"{flag} {text!r} exceeds the maximum {most}")
        return value
    return parse


def _parse_list(text: str, parse_one):
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise CliError(f"empty list {text!r}")
    return tuple(parse_one(s) for s in items)


def _add_common(p: _Parser, study: bool) -> None:
    """Flags of the run subcommands: the initial-state flags for a single
    run, --jobs for a study."""
    p.add_argument("--alpha", type=float, default=1.0,
                   help="regularity parameter of the rough initial data (default 1.0)")
    p.add_argument("--lambda", dest="lam", type=int, choices=[-1, 1], default=-1,
                   help="nonlinearity sign: -1 focusing, +1 defocusing (default -1)")
    p.add_argument("--T", type=float, default=1.0,
                   help="final time; must be an integer multiple of tau (default 1.0)")
    p.add_argument("--init-mode", choices=INIT_MODES, default="truncated",
                   help="coefficient truncation or 4N+1-point sampling of the "
                        "initial series (default truncated)")
    p.add_argument("--tail-cutoff", type=_bounded_int("--tail-cutoff", 0, 16 * MAX_CUTOFF),
                   default=None,
                   help="series tail kept by --init-mode sampled "
                        "(default max(16N, 16384))")
    p.add_argument("--scheme", choices=SCHEMES, default="lowreg",
                   help="time stepper: low-regularity integrator or a splitting "
                        "baseline (default lowreg)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (created if missing)")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value file of defaults; explicit flags override it")
    if study:
        p.add_argument("--jobs", type=_bounded_int("--jobs", 1), default=1,
                       help="worker processes; each advances one stack of runs in lockstep "
                            "(default 1)")
    else:
        p.add_argument("--initial", choices=KINDS, default="sobolev",
                       help="initial state family (default sobolev)")
        p.add_argument("--amplitude", type=float, default=None,
                       help="initial amplitude (default 0.1 for sobolev, 1.0 otherwise)")
        p.add_argument("--mode", type=int, default=1,
                       help="frequency of the plane-wave initial state (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lowregnls",
        description="Low-regularity Fourier integrator for the cubic nonlinear "
                    "Schrodinger equation i u_t + u_xx = lambda |u|^2 u on the torus.",
    )
    parser.add_argument("--version", action="version", version=f"lowregnls {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="COMMAND")

    p_solve = sub.add_parser(
        "solve", help="run one trajectory and optionally write a dump",
        description="Run one trajectory and print final norms; with --out, "
                    "write a trajectory dump (snapshots plus manifest).",
    )
    p_solve.add_argument("--tau", type=parse_time, required=True,
                         help="time step; accepts the shorthand 2^-k")
    p_solve.add_argument("--N", type=parse_cutoff, required=True,
                         help="spectral cutoff; accepts the shorthand 2^k")
    p_solve.add_argument("--diag-stride", type=_bounded_int("--diag-stride", 0), default=0,
                         metavar="K",
                         help="record norm diagnostics every K steps in the "
                              "dump (default 0: first and last step only)")
    _add_common(p_solve, study=False)

    p_diag = sub.add_parser(
        "diagnostics", help="emit a norm/drift diagnostics table",
        description="Emit the diagnostic series "
                    f"({DIAG_HEADER}) as CSV to stdout or to "
                    "--out/diagnostics.csv, either per step from a fresh run "
                    "(--tau and --N) or re-read from a trajectory dump (--in).",
    )
    p_diag.add_argument("--in", dest="dump_in", metavar="DIR", default=None,
                        help="trajectory dump to re-read instead of running")
    p_diag.add_argument("--tau", type=parse_time, default=None,
                        help="time step; accepts the shorthand 2^-k")
    p_diag.add_argument("--N", type=parse_cutoff, default=None,
                        help="spectral cutoff; accepts the shorthand 2^k")
    _add_common(p_diag, study=False)

    p_temp = sub.add_parser(
        "study-temporal", help="tau-refinement convergence table",
        description="Temporal self-refinement study: for each cutoff in --N-list "
                    "and each step in --tau-list, compare the final state against "
                    "the tau/2 run and fit per-column rates.",
    )
    p_temp.add_argument("--tau-list", required=True, metavar="LIST",
                        help="comma-separated steps, e.g. 2^-6,2^-7,2^-8")
    p_temp.add_argument("--N-list", required=True, metavar="LIST",
                        help="comma-separated cutoffs, e.g. 256,512,1024")
    _add_common(p_temp, study=True)

    p_spat = sub.add_parser(
        "study-spatial", help="cutoff-refinement convergence table",
        description="Spatial self-refinement study: for each step in --tau-list "
                    "and each cutoff in --N-list, compare the final state against "
                    "the 2N run and fit per-column rates.",
    )
    p_spat.add_argument("--tau-list", required=True, metavar="LIST",
                        help="comma-separated steps, e.g. 2^-8")
    p_spat.add_argument("--N-list", required=True, metavar="LIST",
                        help="comma-separated cutoffs, e.g. 16,32,64")
    _add_common(p_spat, study=True)

    sub.add_parser(
        "selftest", help="quick built-in verification",
        description="Run quick built-in checks (dealiased products against "
                    "direct convolution, twisted-variable cross-check, "
                    "constant-state closed form) and report pass/fail.",
    )
    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Rewrite argv so config-file entries precede (and thus lose to) flags."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from exc
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        tokens += [f"--{key.replace('_', '-')}", value]
    return [argv[0]] + tokens + argv[1:]


def _initial_spec(args) -> InitialDataSpec:
    kind = getattr(args, "initial", "sobolev")
    amplitude = getattr(args, "amplitude", None)
    if amplitude is None:
        amplitude = 0.1 if kind == "sobolev" else 1.0
    if kind == "sobolev":
        return InitialDataSpec(kind="sobolev", alpha=args.alpha, amplitude=amplitude)
    if kind == "plane":
        if abs(args.mode) > args.N:
            raise CliError(f"--mode {args.mode} lies outside the cutoff |k| <= {args.N}")
        return InitialDataSpec(kind="plane", amplitude=amplitude, mode=args.mode)
    return InitialDataSpec(kind="constant", amplitude=amplitude)


def _check_steps(tau: float, horizon: float) -> None:
    """Reject a run of more than MAX_STEPS steps before it starts; a horizon
    that is not finite is left to SchemeParams.from_horizon."""
    if math.isfinite(horizon) and horizon / tau > MAX_STEPS:
        raise CliError(f"--T {horizon!r} at tau {tau!r} takes more than the "
                       f"maximum {MAX_STEPS} steps")


def _run_trajectory(args, snapshot_times, diag_stride):
    _check_steps(args.tau, args.T)
    params = SchemeParams.from_horizon(args.lam, args.tau, args.N, args.T)
    u0 = initialize(_initial_spec(args), args.N,
                    init_mode=args.init_mode, tail_cutoff=args.tail_cutoff)
    run = (evolve if args.scheme == "lowreg"
           else functools.partial(splitting_evolve, order=SPLITTINGS[args.scheme]))
    # keep stderr to the single error: line even when a run blows up
    with np.errstate(all="ignore"):
        start = time.perf_counter()
        traj = run(u0, params, snapshot_times=snapshot_times, diag_stride=diag_stride)
        return params, traj, (time.perf_counter() - start) * 1e3


def _cmd_solve(args) -> int:
    params, traj, wall_ms = _run_trajectory(args, snapshot_times=(0.0, args.T),
                                            diag_stride=args.diag_stride)
    last = traj.diagnostics[-1]
    print(f"scheme={traj.scheme} lambda={params.lam} N={params.cutoff} "
          f"tau={params.tau!r} T={params.horizon!r} steps={params.steps}")
    print(f"final: l2={last.l2:.9e} h1={last.h1:.9e} "
          f"mass_drift={last.mass_drift:.3e} momentum_drift={last.momentum_drift:.3e}")
    print(f"h1_max={traj.h1_max:.9e} wall_ms={wall_ms:.3f}")
    if args.out is not None:
        save_trajectory(traj, args.out)
        print(f"wrote trajectory dump to {args.out}")
    return 0


def _cmd_diagnostics(args) -> int:
    if args.dump_in is not None:
        if args.tau is not None or args.N is not None:
            raise CliError("--in re-reads a dump; it excludes --tau/--N")
        traj = load_trajectory(args.dump_in)
    else:
        if args.tau is None or args.N is None:
            raise CliError("diagnostics needs --tau and --N (or --in DIR)")
        traj = _run_trajectory(args, snapshot_times=(args.T,), diag_stride=1)[1]
    lines = [DIAG_HEADER]
    for row in traj.diagnostics:
        lines.append(f"{row.time!r},{row.l2!r},{row.h1!r},"
                     f"{row.mass_drift!r},{row.momentum_drift!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diagnostics.csv").write_text(text)
        print(f"wrote {out / 'diagnostics.csv'}")
    return 0


def _emit_report(report, out_dir, wall_ms: float) -> int:
    if out_dir is None:
        write_report_csv(report, sys.stdout)
        return 0
    spec = report.spec
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"study_{spec.axis}.csv"
    write_report_csv(report, path)
    label, collabel = ("tau", "N") if spec.axis == "temporal" else ("N", "tau")
    print(f"{spec.axis} study: alpha={spec.alpha} lambda={spec.lam} "
          f"T={spec.horizon} scheme={spec.scheme}")
    header = " ".join(f"{collabel}={c}" for c in report.col_params)
    print(f"{'':>16} {header}")
    for i, rp in enumerate(report.row_params):
        cells = " ".join(f"{report.errors[i, j]:.3e}" for j in range(len(report.col_params)))
        print(f"{label}={rp!r:>14} {cells}")
    print(f"{'rate':>16} " + " ".join(f"{r:.2f}" for r in report.rates))
    print(f"wall_ms={wall_ms:.3f}")
    print(f"wrote {path}")
    return 0


def _cmd_study(args, axis: str) -> int:
    taus = _parse_list(args.tau_list, parse_time)
    # the finest run of a temporal study steps at tau/2
    finest = min(taus) / (2.0 if axis == "temporal" else 1.0)
    if finest == 0.0:
        raise CliError(f"tau {min(taus)!r} is too small to halve")
    _check_steps(finest, args.T)
    spec = StudySpec(
        axis=axis,
        taus=taus,
        cutoffs=_parse_list(args.N_list, parse_cutoff),
        alpha=args.alpha,
        lam=args.lam,
        horizon=args.T,
        scheme=args.scheme,
        init_mode=args.init_mode,
        tail_cutoff=args.tail_cutoff,
        jobs=args.jobs,
    )
    study = temporal_study if axis == "temporal" else spatial_study
    # as in _run_trajectory; the worker processes fork inside this state
    with np.errstate(all="ignore"):
        start = time.perf_counter()
        report = study(spec)
    return _emit_report(report, args.out, (time.perf_counter() - start) * 1e3)


def _selftest_dealiasing(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        n = 8
        f = SpectralField(n, rng.standard_normal(2 * n + 1)
                          + 1j * rng.standard_normal(2 * n + 1))
        g = SpectralField(n, rng.standard_normal(2 * n + 1)
                          + 1j * rng.standard_normal(2 * n + 1))
        full = np.convolve(f.coeffs, g.coeffs)
        direct = SpectralField(n, full[n: 3 * n + 1])
        err = l2_error(dealiased_product(f, g), direct) / max(l2_error(direct, SpectralField.zeros(n)), 1e-300)
        worst = max(worst, err)
    return worst <= 1e-12, f"max relative deviation {worst:.2e} (tol 1e-12)"


def _selftest_twisted(rng) -> tuple[bool, str]:
    n, tau = 8, 0.01
    worst = 0.0
    for lam in (-1, 1):
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        for idx in (0, 3):
            u = SpectralField(n, 0.3 * (rng.standard_normal(2 * n + 1)
                                        + 1j * rng.standard_normal(2 * n + 1)))
            cq = conserved_quantities(u)
            direct = step(u, params, cq)
            tn = idx * tau
            twisted = free_propagator(
                step_twisted(free_propagator(u, -tn), params, cq, idx), tn + tau
            )
            err = l2_error(direct, twisted) / sobolev_norm(direct, 0.0)
            worst = max(worst, err)
    return worst <= 1e-10, f"max relative deviation {worst:.2e} (tol 1e-10)"


def _selftest_constant(_rng) -> tuple[bool, str]:
    worst = 0.0
    for lam in (-1, 1):
        for c in (0.5 + 0.0j, 1.0 - 0.5j):
            tau = 0.02
            params = SchemeParams(lam=lam, tau=tau, cutoff=4, steps=1)
            u = SpectralField.from_modes(4, {0: c})
            out = step(u, params, conserved_quantities(u))
            expected = SpectralField.from_modes(4, {0: c * (1 - 1j * lam * tau * abs(c) ** 2)})
            worst = max(worst, l2_error(out, expected))
    return worst <= 1e-13, f"max absolute deviation {worst:.2e} (tol 1e-13)"


def _cmd_selftest(_args) -> int:
    rng = np.random.default_rng(20240811)
    checks = [
        ("dealiased product vs direct convolution", _selftest_dealiasing),
        ("twisted-variable cross-check", _selftest_twisted),
        ("constant-state closed form", _selftest_constant),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn(rng)
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1
    return 1 if failures else 0


_COMMANDS = {
    "solve": _cmd_solve,
    "diagnostics": _cmd_diagnostics,
    "study-temporal": functools.partial(_cmd_study, axis="temporal"),
    "study-spatial": functools.partial(_cmd_study, axis="spatial"),
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        argv = _inject_config(list(argv))
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
