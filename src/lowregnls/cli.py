"""Command line front end.

Subcommands: solve (one trajectory, optional dump), study-temporal and
study-spatial (convergence tables, CSV output), diagnostics (the norm and
drift series re-read from a dump, which `solve --diag-stride 1 --out DIR`
records at every step, as CSV on stdout).  Step sizes accept the
power-of-two shorthand 2^-k.  Flags come only from argv.  Every error path
prints a single "error: <message>" line and exits nonzero; a blow-up too,
with no warning, since the driver under every run and study owns the
floating-point state of its steps (`integrator.evolve_lockstep`).  Only this
module reads a clock: solve and study --out print wall_ms.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from pathlib import Path

from . import __version__
from .harness import (
    AXIS_NAMES,
    StudySpec,
    spatial_study,
    temporal_study,
    write_report_csv,
)
from .initial_data import InitialDataSpec
from .integrator import (
    SCHEMES,
    SchemeParams,
    evolve,
    initialize,
    load_trajectory,
    save_trajectory,
    splitting_evolve,
)
from .reference import SPLITTINGS

__all__ = ["main", "build_parser"]

DIAG_HEADER = "t,l2,h1,mass_drift,momentum_drift"

# largest cutoff accepted on the command line: a step at N = 2^16 works on
# 7 grid rows and its result of 204800 points and 12 table rows of the
# 131073 of its window (49 MiB, 56 MiB at its traced peak with the plan's
# build), and a splitting step runs its flows in a 20 MiB workspace (two
# grid rows of 204800 points, two sample rows of 262145 and an angle and a
# phase row); a spatial study also runs 2N, and stacks its runs (a cutoff's half
# zero-padded among them where that removes stacks) only at grids of <= 2048
# points (harness.STACK_POINTS), at any --jobs; each of the up to --jobs
# worker processes holds one stack at a time.
MAX_CUTOFF = 2 ** 16

# largest step count of one run accepted on the command line: it bounds --T
# against tau, which are otherwise only required to be finite and positive
MAX_STEPS = 2 ** 24

# most diagnostic rows one solve may record (steps // --diag-stride + 1): a
# row costs ~280 bytes held in the trajectory and ~300 bytes of
# diagnostics.txt text while the dump is written, so 2^20 rows take ~0.6 GB
MAX_DIAG_ROWS = 2 ** 20


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


def _bounded_int(flag: str, least: int):
    """argparse type for an integer flag >= least."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise CliError(f"{flag} must be an integer, got {text!r}") from exc
        if value < least:
            raise CliError(f"{flag} must be >= {least}, got {text!r}")
        return value
    return parse


def _parse_list(text: str, parse_one):
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise CliError(f"empty list {text!r}")
    return tuple(parse_one(s) for s in items)


def _add_common(p: _Parser, study: bool) -> None:
    """Flags of the run subcommands: --amplitude for a single run, --jobs for
    a study."""
    p.add_argument("--alpha", type=float, default=1.0,
                   help="regularity parameter of the rough initial data (default 1.0)")
    p.add_argument("--lambda", dest="lam", type=int, choices=[-1, 1], default=-1,
                   help="nonlinearity sign: -1 focusing, +1 defocusing (default -1)")
    p.add_argument("--T", type=float, default=1.0,
                   help="final time; must be an integer multiple of tau (default 1.0)")
    p.add_argument("--scheme", choices=SCHEMES, default="lowreg",
                   help="time stepper: low-regularity integrator or a splitting "
                        "baseline (default lowreg)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (created if missing)")
    if study:
        p.add_argument("--jobs", type=_bounded_int("--jobs", 1), default=1,
                       help="worker processes; each advances one stack of runs in lockstep "
                            "(default 1)")
    else:
        p.add_argument("--amplitude", type=float, default=0.1,
                       help="amplitude of the rough initial data (default 0.1)")


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
                    "write a trajectory dump (manifest, initial and final states, and the "
                    "diagnostic rows in diagnostics.txt).",
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
        description="Re-read the diagnostic series "
                    f"({DIAG_HEADER}) from a trajectory dump and print it as CSV to "
                    "stdout; solve --diag-stride 1 --out DIR records it at every step.",
    )
    p_diag.add_argument("--in", dest="dump_in", metavar="DIR", required=True,
                        help="trajectory dump to re-read")

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
    return parser


def _check_steps(runs) -> None:
    """Reject runs (their SchemeParams) whose longest takes more than
    MAX_STEPS steps, before any of them starts."""
    longest = max(runs, key=lambda params: params.steps)
    if longest.steps > MAX_STEPS:
        raise CliError(f"--T {longest.horizon!r} at tau {longest.tau!r} takes more than the "
                       f"maximum {MAX_STEPS} steps")


def _cmd_solve(args) -> int:
    if args.diag_stride > 0 and args.out is None:
        raise CliError("--diag-stride records diagnostics in the dump; it needs --out")
    params = SchemeParams.from_horizon(args.lam, args.tau, args.N, args.T)
    _check_steps([params])
    if args.diag_stride > 0 and params.steps // args.diag_stride + 1 > MAX_DIAG_ROWS:
        raise CliError(f"--diag-stride {args.diag_stride} over {params.steps} steps records "
                       f"more than the maximum {MAX_DIAG_ROWS} diagnostic rows")
    u0 = initialize(InitialDataSpec(alpha=args.alpha, amplitude=args.amplitude), args.N)
    run = (evolve if args.scheme == "lowreg"
           else functools.partial(splitting_evolve, order=SPLITTINGS[args.scheme]))
    start = time.perf_counter()
    traj = run(u0, params, diag_stride=args.diag_stride)
    wall_ms = (time.perf_counter() - start) * 1e3
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
    traj = load_trajectory(args.dump_in)
    lines = [DIAG_HEADER]
    for row in traj.diagnostics:
        lines.append(f"{row.step_index * traj.params.tau!r},{row.l2!r},{row.h1!r},"
                     f"{row.mass_drift!r},{row.momentum_drift!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _emit_report(report, out_dir, wall_ms: float) -> int:
    if out_dir is None:
        write_report_csv(report, sys.stdout)
        return 0
    spec = report.spec
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"study_{spec.axis}.csv"
    with open(path, "w") as fh:
        write_report_csv(report, fh)
    (_, label), (_, collabel) = AXIS_NAMES[spec.axis]
    print(f"{spec.axis} study: alpha={spec.alpha} lambda={spec.lam} "
          f"T={spec.horizon} scheme={spec.scheme}")
    header = " ".join(f"{collabel}={c}" for c in spec.cols)
    print(f"{'':>16} {header}")
    for i, rp in enumerate(spec.rows):
        cells = " ".join(f"{report.errors[i, j]:.3e}" for j in range(len(spec.cols)))
        print(f"{label}={rp!r:>14} {cells}")
    print(f"{'rate':>16} " + " ".join(f"{r:.2f}" for r in report.rates))
    print(f"wall_ms={wall_ms:.3f}")
    print(f"wrote {path}")
    return 0


def _cmd_study(args, axis: str) -> int:
    spec = StudySpec(
        axis=axis,
        taus=_parse_list(args.tau_list, parse_time),
        cutoffs=_parse_list(args.N_list, parse_cutoff),
        alpha=args.alpha,
        lam=args.lam,
        horizon=args.T,
        scheme=args.scheme,
        jobs=args.jobs,
    )
    _check_steps(spec.runs().values())
    study = temporal_study if axis == "temporal" else spatial_study
    start = time.perf_counter()
    report = study(spec)
    return _emit_report(report, args.out, (time.perf_counter() - start) * 1e3)


_COMMANDS = {
    "solve": _cmd_solve,
    "diagnostics": _cmd_diagnostics,
    "study-temporal": functools.partial(_cmd_study, axis="temporal"),
    "study-spatial": functools.partial(_cmd_study, axis="spatial"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
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
