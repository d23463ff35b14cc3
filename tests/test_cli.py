"""End-to-end tests of the command line front end.

All tests drive cli.main() in process but those of TestModuleEntryPoint,
which run python -m lowregnls in a fresh interpreter: its exit codes, and
the one stderr line of a solve and of a pooled study that blow up, as a
shell sees them.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lowregnls
from lowregnls import __version__, cli, harness, integrator, reference
from lowregnls.cli import (
    DIAG_HEADER,
    MAX_CUTOFF,
    MAX_DIAG_ROWS,
    MAX_STEPS,
    CliError,
    _check_steps,
    main,
    parse_cutoff,
    parse_horizon,
    parse_time,
)
from lowregnls.harness import CSV_HEADER
from lowregnls.initial_data import InitialDataSpec
from lowregnls.integrator import (
    SCHEMES,
    SchemeParams,
    evolve,
    initialize,
    load_trajectory,
    splitting_evolve,
)
from lowregnls.reference import SPLITTINGS

DATA = Path(__file__).parent / "data"


class TestValueParsing:
    def test_time_shorthand(self):
        assert parse_time("2^-6") == 2.0 ** -6
        assert parse_time("2^3") == 8.0
        assert parse_time(" 2^-2 ") == 0.25
        assert parse_time("0.125") == 0.125

    @pytest.mark.parametrize("bad", ["abc", "0", "-1", "2^", "inf", "nan"])
    def test_time_rejects(self, bad):
        with pytest.raises(CliError):
            parse_time(bad)

    def test_horizon_takes_any_time_literal(self):
        # the time value of --T: the rule of parse_time, left to the run to
        # check, so that 0 and the values the run rejects still parse
        assert parse_horizon(" 2^-1 ") == 0.5
        assert parse_horizon("0") == 0.0
        assert parse_horizon("-1") == -1.0
        assert math.isnan(parse_horizon("nan"))

    @pytest.mark.parametrize("bad", ["abc", "2^", "2^99999", ""])
    def test_horizon_rejects(self, bad):
        with pytest.raises(CliError, match="cannot parse time value"):
            parse_horizon(bad)

    def test_cutoff_shorthand(self):
        assert parse_cutoff("2^5") == 32
        assert parse_cutoff("17") == 17
        assert parse_cutoff("2^16") == MAX_CUTOFF

    @pytest.mark.parametrize("bad", ["0", "-3", "x", "2^-3"])
    def test_cutoff_rejects(self, bad):
        with pytest.raises(CliError):
            parse_cutoff(bad)


class TestSolve:
    def test_prints_summary(self, capsys):
        rc = main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lowreg" in out
        assert "final: l2=" in out
        assert "h1_max=" in out

    @pytest.mark.parametrize("horizon, run", [("2^-1", "T=0.5 steps=4"), ("0", "T=0.0 steps=0")])
    def test_horizon_shorthand(self, horizon, run, capsys):
        # --T takes the 2^k shorthand of --tau, and 0 runs no step
        assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", horizon]) == 0
        assert f"tau=0.125 {run}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("amplitude", ["-1e-3", "-1E+0", "-.5e-2"])
    def test_negative_value_in_any_notation(self, amplitude, capsys):
        # a value that starts with "-" is a number, not an option: the run
        # is the one of the joined form, which argparse never takes apart
        outs = []
        for flag in (["--amplitude", amplitude], [f"--amplitude={amplitude}"]):
            assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", "1", *flag]) == 0
            outs.append(capsys.readouterr().out.split(" wall_ms=")[0])
        assert outs[0] == outs[1] and "steps=8" in outs[0]

    def test_writes_dump(self, tmp_path, capsys):
        dump = tmp_path / "run"
        rc = main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5",
                   "--out", str(dump)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote trajectory dump" in out
        assert sorted(p.name for p in dump.iterdir()) == ["diagnostics.txt", "final.txt",
                                                          "initial.txt", "manifest.txt"]
        traj = load_trajectory(dump)
        assert traj.params.horizon == 0.5
        assert traj.final.cutoff == 8

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dump_names_no_state_by_time(self, scheme, tmp_path, capsys):
        # --T 0.3 at tau 0.1 is 3 steps; the dump holds the step count, and
        # the final row's time is 3 * 0.1 as the diagnostics re-read it
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "0.1", "--N", "8", "--T", "0.3", "--scheme", scheme,
                     "--out", str(dump)]) == 0
        manifest = (dump / "manifest.txt").read_text()
        assert "steps=3\n" in manifest
        assert not re.search(r"(?m)^(T|\w*time\w*)=", manifest)
        capsys.readouterr()
        assert main(["diagnostics", "--in", str(dump)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("0.30000000000000004,")  # repr(3 * 0.1)
        # the two states, bitwise: the initial field and the run's final state
        u0 = initialize(InitialDataSpec(kind="sobolev", alpha=1.0, amplitude=0.1), 8)
        params = SchemeParams.from_horizon(-1, 0.1, 8, 0.3)
        want = (evolve(u0, params) if scheme == "lowreg"
                else splitting_evolve(u0, params, SPLITTINGS[scheme])).final
        traj = load_trajectory(dump)
        assert traj.initial.coeffs.tobytes() == u0.coeffs.tobytes()
        assert traj.final.coeffs.tobytes() == want.coeffs.tobytes()

    def test_dump_is_plain_tables(self, tmp_path, capsys):
        # a dump is four files, and numpy reads each of its three tables to
        # the numbers load_trajectory gives, bit for bit
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-4", "--N", "16", "--T", "0.5", "--scheme", "strang",
                     "--diag-stride", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in dump.iterdir()) == ["diagnostics.txt", "final.txt",
                                                          "initial.txt", "manifest.txt"]
        traj = load_trajectory(dump)
        rows = [[r.step_index, r.l2, r.h1, r.mass_drift, r.momentum_drift]
                for r in traj.diagnostics]
        assert len(rows) == 9
        assert np.loadtxt(dump / "diagnostics.txt").tobytes() == np.array(rows).tobytes()
        for name, f in (("initial", traj.initial), ("final", traj.final)):
            pairs = np.stack([f.coeffs.real, f.coeffs.imag], axis=1)
            assert np.loadtxt(dump / f"{name}.txt").tobytes() == pairs.tobytes()

    def test_initial_state_is_the_rough_data_of_its_flags(self, tmp_path, capsys):
        # --alpha and --amplitude shape the one family solve starts from
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5", "--alpha", "0.5",
                     "--amplitude", "0.3", "--lambda", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        u0 = initialize(InitialDataSpec(alpha=0.5, amplitude=0.3), 8)
        assert load_trajectory(dump).initial.coeffs.tobytes() == u0.coeffs.tobytes()

    def test_prints_its_wall_time(self, capsys):
        assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5"]) == 0
        [line] = [ln for ln in capsys.readouterr().out.splitlines() if "wall_ms=" in ln]
        assert line.startswith("h1_max=")
        assert float(line.rsplit("wall_ms=", 1)[1]) >= 0.0

    @pytest.mark.parametrize("scheme, cutoff, tau, stride", [
        ("lowreg", "8", "2^-4", "2"),
        ("strang", "8", "2^-4", "2"),
        *((scheme, "64", "2^-6", "4") for scheme in SCHEMES),
        # 25600- and 51200-point rows, whose tables lie on the window
        ("lowreg", "2^13", "2^-6", "4"),
        ("lowreg", "2^14", "2^-6", "4"),
        # flows that pair their grid rows
        ("lie", "2^10", "2^-6", "4"),
        ("strang", "2^10", "2^-6", "4"),
    ])
    def test_dump_is_reproducible(self, scheme, cutoff, tau, stride, tmp_path, capsys):
        # a run is a function of its inputs, so two dumps, each from tables
        # built afresh, are byte-identical, and so are their re-read diagnostics
        dumps, reread = [tmp_path / "a", tmp_path / "b"], []
        for dump in dumps:
            integrator._plan.cache_clear()
            reference._chirp_tables.cache_clear()
            assert main(["solve", "--tau", tau, "--N", cutoff, "--T", "0.5", "--scheme", scheme,
                         "--diag-stride", stride, "--out", str(dump)]) == 0
            capsys.readouterr()
            assert main(["diagnostics", "--in", str(dump)]) == 0
            reread.append(capsys.readouterr().out)
        files = [sorted(p.name for p in dump.iterdir()) for dump in dumps]
        assert files[0] == files[1] and "manifest.txt" in files[0]
        for name in files[0]:
            assert (dumps[0] / name).read_bytes() == (dumps[1] / name).read_bytes()
        assert reread[0] == reread[1]

    def test_splitting_scheme_selected(self, capsys):
        rc = main(["solve", "--tau", "2^-4", "--N", "8", "--T", "0.5",
                   "--scheme", "lie"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lie" in out


class TestDiagnostics:
    RUN = ["--tau", "2^-3", "--N", "8", "--T", "0.5"]

    @pytest.fixture
    def dump(self, tmp_path, capsys):
        """A dump of a run that records diagnostics at every step."""
        dump = tmp_path / "run"
        assert main(["solve", *self.RUN, "--diag-stride", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        return dump

    def test_stdout_series(self, dump, capsys):
        rc = main(["diagnostics", "--in", str(dump)])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == DIAG_HEADER
        assert len(lines) == 1 + 5  # steps 0..4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.0 and float(first[4]) == 0.0

    def test_reread_matches_the_run(self, dump, capsys):
        assert main(["diagnostics", "--in", str(dump)]) == 0
        reread = capsys.readouterr().out
        params = SchemeParams.from_horizon(-1, 2.0 ** -3, 8, 0.5)
        u0 = initialize(InitialDataSpec(kind="sobolev", alpha=1.0, amplitude=0.1), 8)
        rows = evolve(u0, params, diag_stride=1).diagnostics
        # repr round trip through diagnostics.txt is exact
        assert reread == "".join(
            f"{line}\n" for line in [DIAG_HEADER] + [
                f"{r.step_index * params.tau!r},{r.l2!r},{r.h1!r},{r.mass_drift!r},"
                f"{r.momentum_drift!r}"
                for r in rows])

    def test_run_flags_are_unrecognized(self, dump, capsys):
        # diagnostics only re-reads a dump, so a run flag is a usage error
        rc = main(["diagnostics", "--in", str(dump), "--alpha", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unrecognized arguments")

    def test_requires_in(self, capsys):
        rc = main(["diagnostics"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--in" in err and "required" in err


class TestStudies:
    def test_temporal_csv_to_stdout(self, capsys):
        rc = main(["study-temporal", "--tau-list", "2^-4,2^-5",
                   "--N-list", "8", "--T", "0.5"])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2
        first = lines[1].split(",")
        assert first[0] == "temporal"
        assert first[1] == "1.0"
        assert first[2] == "-1"
        assert float(first[4]) == 2.0 ** -4
        assert int(first[5]) == 8

    def test_spatial_report_to_dir(self, tmp_path, capsys):
        rc = main(["study-spatial", "--tau-list", "2^-5",
                   "--N-list", "8,16,32", "--T", "0.5",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spatial study:" in out
        assert "rate" in out
        assert "wrote" in out
        text = (tmp_path / "study_spatial.csv").read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.strip().splitlines()) == 1 + 3

    def test_report_to_dir_prints_the_study_wall_time(self, tmp_path, capsys):
        assert main(["study-temporal", "--tau-list", "2^-4,2^-5", "--N-list", "8",
                     "--T", "0.5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        [line] = [ln for ln in out.splitlines() if "wall_ms" in ln]
        assert float(line.removeprefix("wall_ms=")) >= 0.0
        assert "wall_ms" not in (tmp_path / "study_temporal.csv").read_text()

    def test_horizon_shorthand(self, capsys):
        args = ["study-temporal", "--tau-list", "2^-4,2^-5", "--N-list", "8"]
        assert main(args + ["--T", "2^-1"]) == 0
        shorthand = capsys.readouterr().out
        assert main(args + ["--T", "0.5"]) == 0
        assert shorthand == capsys.readouterr().out

    @pytest.mark.parametrize("axis, cutoffs, horizon, scheme, jobs", [
        # three low-regularity layouts, more stacks than a 2-core pool has workers
        ("temporal", "8,32,128", "0.25", "lowreg", "3"),
        # multi-tau stacks, whose splitting rows share the flows' workspace
        # as they leave the stack; the low-regularity runs of 16 ride alone,
        # as 2 * 16 < 64
        ("temporal", "16,64", "0.5", "lowreg", "2"),
        *(("temporal", "16,32", "0.5", scheme, "2") for scheme in SPLITTINGS),
        # padded stacks (128 on the grid of 256) and the multi-cutoff lockstep
        *(("spatial", "128,256,512", "0.25", scheme, "2") for scheme in ("lowreg", "strang")),
        # both sides of spectral.STACK_POINTS: whole 4096-point rows at 1365,
        # and 6400-point rows at 1366, whose tables lie on the window
        ("temporal", "1365,1366", "0.125", "lowreg", "2"),
        # one-run stacks of paired flows at 2^10, and both sides of the
        # pairing boundary: 682 two runs to a stack with one-row flows, 683
        # one run to a stack with paired flows
        *(("temporal", cutoffs, "0.25", "strang", "2") for cutoffs in ("1024", "682,683")),
    ])
    def test_jobs_flag_is_deterministic(self, axis, cutoffs, horizon, scheme, jobs, capsys):
        # each run builds its tables afresh, as a new process would: a pool
        # forks, and its workers would inherit the tables of the serial run
        args = [f"study-{axis}", "--tau-list", "2^-4,2^-5", "--N-list", cutoffs,
                "--T", horizon, "--scheme", scheme]
        # more than one stack, so that --jobs starts a pool of workers
        spec = harness.StudySpec(axis=axis, taus=(2.0 ** -4, 2.0 ** -5),
                                 cutoffs=tuple(map(int, cutoffs.split(","))),
                                 horizon=float(horizon), scheme=scheme)
        assert len(harness._stacks(scheme, spec.runs())) >= 2
        outs = []
        for n_jobs in ("1", jobs):
            integrator._plan.cache_clear()
            reference._chirp_tables.cache_clear()
            assert main(args + ["--jobs", n_jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]

    def test_jobs_flag_is_deterministic_for_a_spatial_study(self, capsys):
        # 64 rides zero-padded with 128 at any jobs; 256 stacks alone
        args = ["study-spatial", "--tau-list", "2^-5,2^-6,2^-7",
                "--N-list", "64,128", "--T", "0.5"]
        outs = []
        for jobs in ("1", "2", "6"):
            assert main(args + ["--jobs", jobs]) == 0
            outs.append([ln.rsplit(",", 1)[0] for ln in capsys.readouterr().out.splitlines()])
        assert outs[1] == outs[0] and outs[2] == outs[0]


def set_line(key, line):
    """The manifest edit that puts line in place of the line of key."""
    return lambda lines: [line if ln.startswith(key + "=") else ln for ln in lines]


class TestErrorContract:
    def check(self, argv, code, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        captured = capsys.readouterr()
        assert rc == code
        assert "Traceback" not in captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        return lines[0]

    def test_no_subcommand(self, capsys):
        msg = self.check([], 2, capsys)
        assert "subcommand" in msg

    def test_unknown_flag(self, capsys):
        self.check(["solve", "--tau", "2^-3", "--N", "8", "--nope"], 2, capsys)

    def test_bad_time_literal(self, capsys):
        self.check(["solve", "--tau", "abc", "--N", "8"], 2, capsys)

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--jobs", "2"]],
                             ids=["format", "jobs"])
    def test_flag_not_on_solve(self, flag, capsys):
        # no subcommand has --format; --jobs is a study flag
        msg = self.check(["solve", "--tau", "2^-3", "--N", "8"] + flag, 2, capsys)
        assert "unrecognized arguments" in msg

    def test_empty_tau_list(self, capsys):
        self.check(["study-temporal", "--tau-list", ",", "--N-list", "8"],
                   2, capsys)

    def test_horizon_off_step_grid(self, capsys):
        msg = self.check(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.3"],
                         1, capsys)
        assert "multiple" in msg

    @pytest.mark.parametrize("command", [
        ["solve", "--tau", "2^-3", "--N", "8"],
        ["study-temporal", "--tau-list", "2^-3,2^-4", "--N-list", "8"],
    ], ids=["solve", "study-temporal"])
    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon(self, command, horizon, capsys):
        msg = self.check(command + ["--T", horizon], 1, capsys)
        assert "horizon must be finite" in msg

    @pytest.mark.parametrize("command", [
        ["solve", "--tau", "2^-3", "--N", "8"],
        ["study-temporal", "--tau-list", "2^-3,2^-4", "--N-list", "8"],
    ], ids=["solve", "study-temporal"])
    def test_negative_horizon(self, command, capsys):
        msg = self.check(command + ["--T", "-1"], 1, capsys)
        assert "horizon must be >= 0" in msg

    # a negative value in any notation reaches the run's own check, where
    # argparse's pattern read -1e-3 or -inf as an option ("expected one
    # argument", exit 2)
    @pytest.mark.parametrize("command", [
        ["solve", "--tau", "2^-3", "--N", "8"],
        ["study-temporal", "--tau-list", "2^-3,2^-4", "--N-list", "8"],
    ], ids=["solve", "study-temporal"])
    @pytest.mark.parametrize("flag, value, match", [
        ("--T", "-1e-3", "horizon must be >= 0, got -0.001"),
        ("--T", "-2.5E+1", "horizon must be >= 0, got -25.0"),
        ("--alpha", "-1e-3", "alpha must be > 0, got -0.001"),
        ("--alpha", "-inf", "alpha must be finite, got -inf"),
        ("--alpha", "-NaN", "alpha must be finite, got nan"),
    ], ids=["T-exponent", "T-signed-exponent", "alpha-exponent", "alpha-inf", "alpha-nan"])
    def test_negative_value_reaches_the_run(self, command, flag, value, match, capsys):
        assert self.check(command + [flag, value], 1, capsys) == f"error: {match}"

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "8", "--T", "1e300"],
        # 2^24 steps at tau, but the tau/2 runs take 2^25
        ["study-temporal", "--tau-list", "2^-3,2^-20", "--N-list", "8", "--T", "16"],
        ["study-spatial", "--tau-list", "2^-20,2^-3", "--N-list", "8,16", "--T", "32"],
    ], ids=["solve", "study-temporal-halved", "study-spatial"])
    def test_too_many_steps(self, argv, capsys):
        msg = self.check(argv, 2, capsys)
        assert f"maximum {MAX_STEPS} steps" in msg

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-200", "--N", "8", "--T", "1e300"],
        ["study-temporal", "--tau-list", "2^-200,2^-199", "--N-list", "8", "--T", "1e300"],
    ], ids=["solve", "study-temporal"])
    def test_step_count_overflows(self, argv, capsys):
        # T/tau overflows to inf: SchemeParams rejects it, on every subcommand
        assert "overflows the step count" in self.check(argv, 1, capsys)

    @pytest.mark.parametrize("stride", ["1", "16"])
    def test_too_many_diagnostic_rows(self, stride, tmp_path, capsys, monkeypatch):
        # 2^24 steps // 16 + 1 rows is one above the bound; rejected before
        # any step, so no dump is written
        def ran(*args, **kwargs):
            raise RuntimeError("ran")

        monkeypatch.setattr(cli, "evolve", ran)
        dump = tmp_path / "D"
        msg = self.check(["solve", "--tau", "2^-20", "--T", "16", "--N", "8",
                          "--diag-stride", stride, "--out", str(dump)], 2, capsys)
        assert f"more than the maximum {MAX_DIAG_ROWS} diagnostic rows" in msg
        assert not dump.exists()

    def test_diag_stride_needs_a_dump(self, capsys):
        # the stride only sets the rows of the dump's diagnostics
        msg = self.check(["solve", "--tau", "2^-3", "--N", "8", "--diag-stride", "1"], 2, capsys)
        assert "needs --out" in msg

    def test_halved_tau_underflows(self, capsys):
        # tau/2 of the finest run is 0.0; StudySpec rejects it, like every
        # other value it rejects, as a runtime failure
        msg = self.check(["study-temporal", "--tau-list", "2^-1074,2^-3", "--N-list", "8",
                          "--T", "0"], 1, capsys)
        assert "too small to halve" in msg

    @pytest.mark.parametrize("argv", [
        ["study-temporal", "--tau-list", "2^-3,2^-3", "--N-list", "8"],
        ["study-temporal", "--tau-list", "2^-3,0.125", "--N-list", "8"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8,16,8"],
    ], ids=["same-tau", "same-tau-spelled-twice", "same-cutoff"])
    def test_duplicate_study_parameters(self, argv, capsys):
        assert "must be distinct" in self.check(argv, 1, capsys)

    @pytest.mark.parametrize("argv,axis", [
        (["study-temporal", "--tau-list", "2^-3", "--N-list", "8,16"], "temporal"),
        (["study-spatial", "--tau-list", "2^-3,2^-4", "--N-list", "8"], "spatial"),
    ], ids=["temporal", "spatial"])
    def test_single_refined_parameter(self, argv, axis, capsys, monkeypatch):
        # rejected before any run: a run here would end in "error: ran"
        def ran(*args, **kwargs):
            raise RuntimeError("ran")

        monkeypatch.setattr(harness, "_compute_runs", ran)
        msg = self.check(argv, 1, capsys)
        assert f"a {axis} study fits its rate over at least two" in msg

    @pytest.mark.parametrize("flag", [["--init-mode", "sampled"], ["--init-mode", "truncated"],
                                      ["--tail-cutoff", "64"]],
                             ids=["init-mode-sampled", "init-mode-truncated", "tail-cutoff"])
    @pytest.mark.parametrize("command", [
        ["solve", "--tau", "2^-3", "--N", "8"],
        ["study-temporal", "--tau-list", "2^-3,2^-4", "--N-list", "8"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8,16"],
    ], ids=["solve", "study-temporal", "study-spatial"])
    def test_one_start_rule(self, command, flag, capsys):
        # every run starts from Pi_N u0, so no flag chooses another
        assert "unrecognized arguments: --" in self.check(command + flag, 2, capsys)

    @pytest.mark.parametrize("flag", [["--initial", "plane"], ["--mode", "3"]],
                             ids=["initial-plane", "mode"])
    def test_one_initial_family(self, flag, capsys):
        # solve starts from the rough data alone; the plane and constant
        # states are library states, reached through initialize
        msg = self.check(["solve", "--tau", "2^-3", "--N", "8", *flag], 2, capsys)
        assert msg == f"error: unrecognized arguments: {' '.join(flag)}"

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "4", "--config", "f"],
        ["diagnostics", "--in", "D", "--out", "X"],
    ], ids=["solve-config", "diagnostics-out"])
    def test_flags_come_from_argv_and_diagnostics_go_to_stdout(self, argv, capsys):
        # no file supplies flags and diagnostics has no second sink: both
        # are flags the subcommand does not take, rejected before any file
        # is read or written
        msg = self.check(argv, 2, capsys)
        assert msg == f"error: unrecognized arguments: {' '.join(argv[-2:])}"

    def test_last_occurrence_of_a_flag_wins(self, capsys):
        # what a file of flags spliced in before an explicit flag relies on
        assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5",
                     "--scheme", "lie", "--scheme", "lowreg"]) == 0
        assert "scheme=lowreg" in capsys.readouterr().out

    def test_step_bound_is_inclusive(self):
        def run(steps):
            return SchemeParams(lam=-1, tau=2.0 ** -20, cutoff=8, steps=steps)

        _check_steps([run(1), run(MAX_STEPS)])
        with pytest.raises(CliError):
            _check_steps([run(MAX_STEPS + 1), run(1)])

    def test_blow_up_reported(self, capsys):
        msg = self.check(["solve", "--amplitude", "1e8", "--tau", "0.5", "--N", "4", "--T", "2"],
                         1, capsys)
        assert "blew up" in msg and " at step 3 " in msg

    def test_blow_up_of_the_initial_state(self, tmp_path, capsys):
        # the initial H^1 norm already overflows: the run blows up at step 0,
        # so no dump holds a non-finite H^1
        dump = tmp_path / "D"
        msg = self.check(["solve", "--tau", "0.1", "--N", "4", "--T", "0", "--amplitude",
                          "1e200", "--out", str(dump)], 1, capsys)
        assert "blew up to a non-finite H^1 norm at step 0 " in msg
        assert not dump.exists()

    @pytest.mark.parametrize("name", ["final.txt", "manifest.txt"])
    def test_dump_file_not_utf8(self, name, tmp_path, capsys):
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-3", "--N", "4", "--T", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        path = dump / name
        path.write_bytes(b"\xff" + path.read_bytes())
        msg = self.check(["diagnostics", "--in", str(dump)], 1, capsys)
        assert msg.startswith(f"error: {path}: ")

    def test_dump_whose_horizon_overflows(self, tmp_path, capsys):
        # a dump edited to a step count past float range, its last row at that
        # step: the time of the row is no float, and the loader says so
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "0.5", "--N", "2", "--T", "1", "--diag-stride", "1",
                     "--out", str(dump)]) == 0
        capsys.readouterr()
        manifest, rows = dump / "manifest.txt", dump / "diagnostics.txt"
        manifest.write_text(manifest.read_text().replace("steps=2\n", f"steps={10 ** 400}\n"))
        rows.write_text(re.sub(r"(?m)^2 ", f"{10 ** 400} ", rows.read_text()))
        msg = self.check(["diagnostics", "--in", str(dump)], 1, capsys)
        assert msg.startswith(f"error: {manifest}: bad manifest entry steps=")
        assert msg.endswith("steps * tau 0.5 is not a finite time")

    def test_blow_up_in_a_worker_process(self, capfd):
        # the runs of cutoffs 8 and 64 form two stacks, so --jobs 2 runs
        # them in two worker processes; capfd also sees what they print
        argv = ["study-temporal", "--tau-list", "2^20,2^19", "--T", "1048576",
                "--N-list", "8,64"]
        serial = self.check(argv + ["--jobs", "1"], 1, capfd)
        assert "blew up" in serial
        assert self.check(argv + ["--jobs", "2"], 1, capfd) == serial

    @pytest.mark.parametrize("edit, key, at_fault", [
        (set_line("scheme", "scheme=rk4"), "scheme", "manifest.txt"),
        (set_line("h1_max", ""), "h1_max", "manifest.txt"),
        (set_line("lambda", "lambda=0"), "lambda", "manifest.txt"),
        (set_line("N", "N=-1"), "N", "manifest.txt"),
        (set_line("steps", "steps=-1"), "steps", "manifest.txt"),
        # the initial state holds too few lines for N=5, and the rows end at step 8
        (set_line("N", "N=5"), "N", "initial.txt"),
        (set_line("steps", "steps=9"), "steps", "diagnostics.txt"),
        # a key given twice names no one run: 0.0625 would time the rows of another
        (set_line("tau", "tau=0.125\ntau=0.0625"), "tau", "manifest.txt"),
        (lambda lines: lines + ["T=9"], "T", "manifest.txt"),
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "tau", "manifest.txt"),
    ], ids=["scheme", "missing", "lambda-range", "N-range", "steps-range", "N-of-states",
            "steps-of-rows", "key-twice", "seventh-line", "lines-3-and-4-swapped"])
    def test_malformed_dump(self, edit, key, at_fault, tmp_path, capsys):
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-3", "--N", "4", "--T", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        manifest = dump / "manifest.txt"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        msg = self.check(["diagnostics", "--in", str(dump)], 1, capsys)
        assert msg.startswith(f"error: {dump / at_fault}: ")
        assert repr(key) in msg or f"{key}=" in msg

    @pytest.mark.parametrize("row, match", [
        ("0 0.0", "line 1: expected 5 fields, got 2"),
        # a row of the older format, which also held the row's time
        ("0 0.0 1 2 3 4", "line 1: expected 5 fields, got 6"),
        ("1 1 2 3 4", "line 1: the diagnostics do not start at step 0"),
    ], ids=["short-row", "row-with-time", "first-step"])
    def test_malformed_row(self, row, match, tmp_path, capsys):
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-3", "--N", "4", "--T", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        rows = dump / "diagnostics.txt"
        rows.write_text(row + "\n" + rows.read_text().split("\n", 1)[1])
        msg = self.check(["diagnostics", "--in", str(dump)], 1, capsys)
        assert msg == f"error: {rows}: {match}"

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_initial_data(self, amplitude, capsys):
        msg = self.check(["solve", "--amplitude", amplitude, "--tau", "2^-3",
                          "--N", "8"], 1, capsys)
        assert "finite" in msg

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "2^40"],
        ["solve", "--tau", "2^-3", "--N", "2^99999999999"],
        ["solve", "--tau", "2^-3", "--N", str(MAX_CUTOFF + 1)],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "16,2^40"],
    ], ids=["shorthand", "shorthand-huge-exponent", "one-past", "study-list"])
    def test_absurd_size(self, argv, capsys):
        assert "maximum" in self.check(argv, 2, capsys)

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "8", "--diag-stride", "-1"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8", "--jobs", "0"],
        ["study-temporal", "--tau-list", "2^-3", "--N-list", "8", "--jobs", "-2"],
    ], ids=["diag-stride", "jobs-zero", "jobs-negative"])
    def test_count_below_minimum(self, argv, capsys):
        assert ">=" in self.check(argv, 2, capsys)


def tokens(valid, extreme):
    """A flag value: most often a valid one, else an extreme or invalid one.
    (Hypothesis favours small integers, so the extreme branch is the
    largest.)"""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(extreme if i == 3 else valid))


def token_lists(valid, extreme):
    """A comma-separated list of values, duplicates included; one time in
    eight an empty one."""
    lists = st.lists(tokens(valid, extreme), min_size=1, max_size=3).map(",".join)
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(["", ","]) if i == 7 else lists)


# Valid cutoffs are at most 2^5 and valid runs take at most 32 steps, so
# that one example takes milliseconds.
TIMES = (["2^-3", "2^-4", "0.25", "0.1"],
         ["2^-1074", "5e-324", "1e308", "-0", "0", "-1", "nan", "inf", "-inf",
          "2^99999", "x", ""])
CUTOFFS = (["1", "2", "5", "8", "2^5"],
           ["0", "-0", "-1", "2^17", "2^99999", "99999999999999999999", "1.5",
            "nan", "x", ""])
RUN_FLAGS = {
    "--alpha": tokens(["1", "0.5", "3", "0"],
                      ["-0", "-1", "5e-324", "1e308", "nan", "inf", "x"]),
    "--lambda": tokens(["-1", "1"], ["0", "x"]),
    "--T": tokens(["0", "0.25", "0.5", "0.3"],
                  ["-0", "5e-324", "1e308", "-1", "-1e-3", "nan", "inf", "x"]),
    "--scheme": tokens(["lowreg", "lie", "strang"], ["bogus"]),
}
ONE_RUN_FLAGS = {
    "--tau": tokens(*TIMES),
    "--N": tokens(*CUTOFFS),
    "--amplitude": tokens(["0.1", "1", "0"],
                          ["-0", "-1", "-1e-3", "-inf", "1e8", "1e308", "5e-324", "nan", "inf",
                           "x"]),
}
STUDY_FLAGS = {
    **RUN_FLAGS,
    "--tau-list": token_lists(*TIMES),
    "--N-list": token_lists(*CUTOFFS),
    "--jobs": tokens(["1", "2", "4"], ["0", "-1", "x"]),
}
FLAGS = {
    "solve": {**RUN_FLAGS, **ONE_RUN_FLAGS,
              "--diag-stride": tokens(["0", "1", "3"], ["-1", "x"])},
    "diagnostics": {"--in": st.just("no-such-dump")},
    "study-temporal": STUDY_FLAGS,
    "study-spatial": STUDY_FLAGS,
}
# drawn for every argv of the subcommand, so that many examples run
REQUIRED = {
    "solve": ["--tau", "--N"],
    "diagnostics": ["--in"],
    "study-temporal": ["--tau-list", "--N-list"],
    "study-spatial": ["--tau-list", "--N-list"],
}


@st.composite
def argvs(draw, command):
    flags = FLAGS[command]
    argv = [command]
    for flag in REQUIRED[command] + draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        value = draw(flags[flag])
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.integers(0, 7)) == 7:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--nope", "stray"])))
    return argv


class TestErrorContractProperty:
    """Every argv ends in exit status 0, 1 or 2, with no traceback and at
    most one line on stderr, an error: line."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @given(data=st.data())
    def test_any_argv(self, command, data):
        argv = data.draw(argvs(command), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        assert lines == [] if rc == 0 else (len(lines) == 1 and lines[0].startswith("error: "))


@pytest.fixture(scope="module")
def real_dump(tmp_path_factory):
    """The files of the dump of a short run with diagnostics at every step,
    by name."""
    dump = tmp_path_factory.mktemp("real") / "D"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--tau", "0.125", "--N", "4", "--T", "0.5",
                     "--diag-stride", "1", "--out", str(dump)]) == 0
    return {p.name: p.read_text() for p in dump.iterdir()}


# a number token: not inside a key such as h1_max
NUMBER = re.compile(r"(?<![\w.+-])-?\d[\w.+-]*")
# the lines that carry an N, a step count or a row's step: the manifest's N=
# and steps=, and the rows, which alone start with an integer (a state's
# numbers are float reprs, each with a "." or an "e")
EDITABLE = re.compile(r"N=|steps=|\d+ ")


@st.composite
def corrupted(draw, files):
    """(kind, files): files with one line of one file deleted, duplicated,
    truncated, one of its numbers made non-finite or overflowing, or the
    manifest's N or step count or a row's step changed; or one file emptied
    or removed (text None)."""
    kind = draw(st.sampled_from(["delete", "duplicate", "truncate", "number", "edit",
                                 "empty", "remove"]))
    fits = {"number": NUMBER.search, "edit": EDITABLE.match}.get(kind, bool)
    name = draw(st.sampled_from(sorted(name for name, text in files.items()
                                       if any(map(fits, text.splitlines())))))
    if kind in ("empty", "remove"):
        return kind, {**files, name: "" if kind == "empty" else None}
    lines = files[name].splitlines()
    i = draw(st.sampled_from([k for k, ln in enumerate(lines) if fits(ln)]))
    line = lines[i]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "truncate":
        lines[i] = line[:draw(st.integers(0, len(line) - 1))]
    else:
        spans = [m.span() for m in NUMBER.finditer(line)]
        a, b = spans[0] if kind == "edit" else draw(st.sampled_from(spans))
        values = (["nan", "inf", "-inf", "1e400"] if kind == "number"
                  else ["0", "1", "3", "5", "7", "-1", "0.3", "0.25", "0.375", "2"])
        lines[i] = line[:a] + draw(st.sampled_from(values)) + line[b:]
    return kind, {**files, name: "\n".join(lines) + "\n"}


def rows_csv(files: dict) -> str:
    """The diagnostics CSV of a dump's rows, read apart from the package
    from the texts of its files by name: a row of step j is at time j * tau."""
    [tau] = re.findall(r"(?m)^tau=(.*)$", files["manifest.txt"])
    lines = [DIAG_HEADER]
    for row in files["diagnostics.txt"].splitlines():
        j, *values = row.split()
        lines.append(",".join([repr(int(j) * float(tau)), *(repr(float(v)) for v in values)]))
    return "\n".join(lines) + "\n"


def numbered_rows(files: dict) -> str:
    """The rows of a dump as the older format held them in its manifest: a
    row count, then one numbered key per row."""
    rows = files["diagnostics.txt"].splitlines()
    return f"diagnostic_count={len(rows)}\n" + "".join(
        f"diagnostic_{i}={row}\n" for i, row in enumerate(rows))


class TestDiagnosticsOnCorruptDumps:
    """diagnostics on a real dump with one corrupted line or file ends in exit
    0 and the CSV of the dump's rows, or in one error: line."""

    def test_real_dump(self, real_dump, tmp_path, capsys):
        for name, text in real_dump.items():
            (tmp_path / name).write_text(text)
        assert main(["diagnostics", "--in", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == rows_csv(real_dump)
        assert len(out.splitlines()) == 1 + 5

    @given(data=st.data())
    def test_any_one_line_corruption(self, real_dump, data):
        kind, files = data.draw(corrupted(real_dump), label="files")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            for name, text in files.items():
                if text is not None:
                    (Path(d) / name).write_text(text)
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                rc = main(["diagnostics", "--in", d])
        if rc == 0:
            # every number of a dump is finite, so a non-finite one is an
            # error; and every line is there once, so a repeated one is too
            assert kind not in ("number", "duplicate")
            assert err.getvalue() == ""
            assert out.getvalue() == rows_csv(files)
        else:
            assert rc == 1 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "Traceback" not in err.getvalue()

    def test_state_no_run_wrote_loads_silently(self, real_dump, tmp_path, capsys):
        # the squares of the initial state overflow here, which no run's can
        # (its H^1 norm would blow up at step 0); the loader computes nothing
        # of the states, the rows come from diagnostics.txt, and nothing
        # reaches stderr
        for name, text in real_dump.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "initial.txt").write_text(
            "1e200 0.0\n" + real_dump["initial.txt"].split("\n", 1)[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnostics", "--in", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == rows_csv(real_dump)

    def test_numbered_snapshot_dump_exits_1(self, real_dump, tmp_path, capsys):
        # a dump of states in numbered snapshot files, each named with its
        # time in the manifest: its seventh manifest line is the error
        files = {"snapshot_0000.txt": real_dump["initial.txt"],
                 "snapshot_0001.txt": real_dump["final.txt"],
                 "manifest.txt": real_dump["manifest.txt"] + numbered_rows(real_dump)
                 + "snapshot_count=2\nsnapshot_0_time=0.0\nsnapshot_1_time=0.5\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["diagnostics", "--in", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == f"error: {tmp_path / 'manifest.txt'}: line 7: expected the end of " \
            "the file, got 'diagnostic_count=5'"

    def test_numbered_row_dump_exits_1(self, real_dump, tmp_path, capsys):
        # a dump of the older format, its rows numbered in the manifest under
        # a row count: its seventh manifest line is the error
        files = {**real_dump, "manifest.txt": real_dump["manifest.txt"] + numbered_rows(real_dump)}
        del files["diagnostics.txt"]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["diagnostics", "--in", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == f"error: {tmp_path / 'manifest.txt'}: line 7: expected the end of " \
            "the file, got 'diagnostic_count=5'"

    @pytest.mark.parametrize("name, edit", [
        ("final.txt", lambda text: "nan" + text[text.index(" "):]),
        ("manifest.txt", lambda text: re.sub(r"(?m)^h1_max=.*$", "h1_max=nan", text)),
        ("manifest.txt", lambda text: re.sub(r"(?m)^tau=.*$", "tau=inf", text)),
        ("diagnostics.txt", lambda text: re.sub(r"(?m)^(2) \S+", r"\1 nan", text)),
        ("final.txt", lambda text: text.split("\n", 1)[1]),
        ("final.txt", lambda text: text + text.split("\n", 1)[0] + "\n"),
        ("final.txt", lambda text: text.replace("\n", " 0.0\n", 1)),
    ], ids=["nan-coefficient", "h1_max-nan", "tau-inf", "row-nan", "missing-line",
            "extra-line", "three-fields"])
    def test_bad_number_or_line_exits_1(self, real_dump, tmp_path, name, edit, capsys):
        for n, text in real_dump.items():
            (tmp_path / n).write_text(edit(text) if n == name else text)
        assert (tmp_path / name).read_text() != real_dump[name]
        assert main(["diagnostics", "--in", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")


HELP_CASES = [
    ("help_main.txt", ["--help"]),
    ("help_solve.txt", ["solve", "--help"]),
    ("help_diagnostics.txt", ["diagnostics", "--help"]),
    ("help_study_temporal.txt", ["study-temporal", "--help"]),
    ("help_study_spatial.txt", ["study-spatial", "--help"]),
]


class TestHelpGolden:
    @pytest.mark.parametrize("fname,argv", HELP_CASES, ids=[f for f, _ in HELP_CASES])
    def test_help_matches_golden(self, fname, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps to the terminal
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == (DATA / fname).read_text()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"lowregnls {__version__}\n"


README = Path(__file__).parents[1] / "README.md"


class TestReadme:
    """The commands and the quick start that README.md shows stay true."""

    COMMANDS = [line.split()[1:] for line in README.read_text().splitlines()
                if line.startswith("    lowregnls ")]

    def test_it_shows_every_subcommand(self):
        assert {argv[0] for argv in self.COMMANDS} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
    def test_command_parses(self, argv):
        # parsed as main parses it, without running it
        assert cli.build_parser().parse_args(argv).command == argv[0]

    def test_quick_start_runs(self, capsys):
        [code] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        exec(code, {})
        norm, h1_max = map(float, capsys.readouterr().out.split())
        assert 0.0 < norm <= h1_max


class TestModuleEntryPoint:
    """The python -m entry point as a shell sees it, in a fresh interpreter,
    whose default warning filters print a warning that pytest's would not."""

    def run(self, argv):
        # the child imports the package the tests import, installed or not
        path = [str(Path(lowregnls.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run([sys.executable, "-m", "lowregnls", *argv],
                              capture_output=True, text=True, env=env)

    def test_exit_codes(self):
        ok = self.run(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5"])
        assert ok.returncode == 0 and ok.stderr == ""
        assert "final: l2=" in ok.stdout

        bad = self.run(["solve", "--tau", "abc", "--N", "8"])
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["solve", "--amplitude", "1", "--tau", "2^-5", "--N", "64", "--T", "1"],
        # two stacks, so two worker processes
        ["study-temporal", "--tau-list", "2^20,2^19", "--T", "1048576", "--N-list", "8,64",
         "--jobs", "2"],
    ], ids=["solve", "pooled-study"])
    def test_blow_up_prints_one_line(self, argv):
        # past the scheme's tau limit a run blows up: no RuntimeWarning from
        # the run or from a worker process, only the error line
        done = self.run(argv)
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: solution blew up")
