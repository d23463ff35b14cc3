"""End-to-end tests of the command line front end.

All tests drive cli.main() in process; one subprocess test pins the
python -m entry point and exit codes as seen by a shell.
"""

import cmath
import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lowregnls
from lowregnls import __version__, harness
from lowregnls.cli import (
    DIAG_HEADER,
    MAX_CUTOFF,
    MAX_STEPS,
    CliError,
    _check_steps,
    main,
    parse_cutoff,
    parse_time,
)
from lowregnls.harness import CSV_HEADER
from lowregnls.integrator import load_trajectory

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

    def test_cutoff_shorthand(self):
        assert parse_cutoff("2^5") == 32
        assert parse_cutoff("17") == 17
        assert parse_cutoff("2^16") == MAX_CUTOFF

    @pytest.mark.parametrize("bad", ["0", "-3", "x", "2^-3"])
    def test_cutoff_rejects(self, bad):
        with pytest.raises(CliError):
            parse_cutoff(bad)


class TestSolve:
    @pytest.mark.parametrize("mode", ["8", "-8"])
    def test_plane_wave_at_the_cutoff(self, mode, capsys):
        rc = main(["solve", "--tau", "2^-3", "--N", "8", "--initial", "plane",
                   "--mode", mode])
        assert rc == 0
        # ||e^{ikx}|| = sqrt(2 pi): the state is not the zero field
        assert "final: l2=2.506628275e+00" in capsys.readouterr().out

    def test_prints_summary(self, capsys):
        rc = main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lowreg" in out
        assert "final: l2=" in out
        assert "h1_max=" in out

    def test_writes_dump(self, tmp_path, capsys):
        dump = tmp_path / "run"
        rc = main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5",
                   "--out", str(dump)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote trajectory dump" in out
        traj = load_trajectory(dump)
        assert traj.snapshot_times == (0.0, 0.5)
        assert traj.final.cutoff == 8

    def test_constant_state_closed_form(self, tmp_path, capsys):
        # 1000 first-order steps of u' : u(1) = e^{-i lambda} with lambda=-1
        dump = tmp_path / "run"
        rc = main(["solve", "--initial", "constant", "--amplitude", "1",
                   "--tau", "0.001", "--N", "4", "--T", "1",
                   "--out", str(dump)])
        capsys.readouterr()
        assert rc == 0
        final = load_trajectory(dump).final
        assert abs(final.coefficient(0) - cmath.exp(1j)) <= 2e-3

    def test_prints_its_wall_time(self, capsys):
        assert main(["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5"]) == 0
        [line] = [ln for ln in capsys.readouterr().out.splitlines() if "wall_ms=" in ln]
        assert line.startswith("h1_max=")
        assert float(line.rsplit("wall_ms=", 1)[1]) >= 0.0

    @pytest.mark.parametrize("scheme", ["lowreg", "strang"])
    def test_dump_is_reproducible(self, scheme, tmp_path, capsys):
        # a run is a function of its inputs, so two dumps are byte-identical
        dumps = [tmp_path / "a", tmp_path / "b"]
        for dump in dumps:
            assert main(["solve", "--tau", "2^-4", "--N", "8", "--T", "0.5", "--scheme", scheme,
                         "--diag-stride", "2", "--out", str(dump)]) == 0
        capsys.readouterr()
        files = [sorted(p.name for p in dump.iterdir()) for dump in dumps]
        assert files[0] == files[1] and "manifest.txt" in files[0]
        for name in files[0]:
            assert (dumps[0] / name).read_bytes() == (dumps[1] / name).read_bytes()

    def test_splitting_scheme_selected(self, capsys):
        rc = main(["solve", "--tau", "2^-4", "--N", "8", "--T", "0.5",
                   "--scheme", "lie"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lie" in out


class TestDiagnostics:
    def test_stdout_series(self, capsys):
        rc = main(["diagnostics", "--tau", "2^-3", "--N", "8", "--T", "0.5"])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == DIAG_HEADER
        assert len(lines) == 1 + 5  # steps 0..4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.0 and float(first[4]) == 0.0

    def test_out_file(self, tmp_path, capsys):
        rc = main(["diagnostics", "--tau", "2^-3", "--N", "8", "--T", "0.5",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote" in out
        text = (tmp_path / "diagnostics.csv").read_text()
        assert text.startswith(DIAG_HEADER + "\n")

    def test_reread_matches_fresh_run(self, tmp_path, capsys):
        args = ["--tau", "2^-3", "--N", "8", "--T", "0.5"]
        assert main(["diagnostics"] + args) == 0
        fresh = capsys.readouterr().out
        dump = tmp_path / "run"
        assert main(["solve", *args, "--diag-stride", "1",
                     "--out", str(dump)]) == 0
        capsys.readouterr()
        assert main(["diagnostics", "--in", str(dump)]) == 0
        reread = capsys.readouterr().out
        # repr round trip through the manifest is exact
        assert reread == fresh

    def test_in_excludes_fresh_run_flags(self, capsys):
        rc = main(["diagnostics", "--in", "somewhere", "--tau", "2^-3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    def test_requires_tau_and_cutoff(self, capsys):
        rc = main(["diagnostics"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err


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

    def test_jobs_flag_is_deterministic(self, capsys):
        args = ["study-temporal", "--tau-list", "2^-4,2^-5",
                "--N-list", "8", "--T", "0.25"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "3"]) == 0
        pooled = capsys.readouterr().out
        assert pooled == serial

    def test_jobs_flag_is_deterministic_for_a_spatial_study(self, capsys):
        # 64 rides zero-padded with 128 at any jobs; 256 stacks alone
        args = ["study-spatial", "--tau-list", "2^-5,2^-6,2^-7",
                "--N-list", "64,128", "--T", "0.5"]
        outs = []
        for jobs in ("1", "2", "6"):
            assert main(args + ["--jobs", jobs]) == 0
            outs.append([ln.rsplit(",", 1)[0] for ln in capsys.readouterr().out.splitlines()])
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\n\ntau=2^-3\nN=8\nT=0.5\nscheme=lie\n")
        rc = main(["solve", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lie" in out
        assert "T=0.5" in out

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=2^-3\nN=8\nT=0.5\nscheme=lie\n")
        rc = main(["solve", "--config", str(cfg), "--scheme", "lowreg"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme=lowreg" in out
        assert "T=0.5" in out  # untouched keys still apply

    def test_underscore_keys_map_to_dashes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=2^-3\nN=8\nT=0.5\ninit_mode=sampled\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_equals_form(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=2^-3\nN=8\nT=0.5\nscheme=lie\n")
        assert main(["solve", f"--config={cfg}"]) == 0
        out = capsys.readouterr().out
        assert "scheme=lie" in out and "T=0.5" in out

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=2^-3\nnonsense\n")
        rc = main(["solve", "--config", str(cfg), "--N", "8"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "expected key=value" in err

    def test_missing_file(self, capsys):
        rc = main(["solve", "--tau", "2^-3", "--N", "8",
                   "--config", "no/such/file.cfg"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot read config file" in err


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
    ])
    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon(self, command, horizon, capsys):
        msg = self.check(command + ["--T", horizon], 1, capsys)
        assert "horizon must be finite" in msg

    @pytest.mark.parametrize("command", [
        ["solve", "--tau", "2^-3", "--N", "8"],
        ["study-temporal", "--tau-list", "2^-3,2^-4", "--N-list", "8"],
    ])
    def test_negative_horizon(self, command, capsys):
        msg = self.check(command + ["--T", "-1"], 1, capsys)
        assert "horizon must be >= 0" in msg

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "8", "--T", "1e300"],
        # T/tau overflows to inf
        ["solve", "--tau", "1e-300", "--N", "8", "--T", "1e10"],
        # 2^24 steps at tau, but the tau/2 runs take 2^25
        ["study-temporal", "--tau-list", "2^-3,2^-20", "--N-list", "8", "--T", "16"],
        ["study-spatial", "--tau-list", "2^-20,2^-3", "--N-list", "8,16", "--T", "32"],
    ])
    def test_too_many_steps(self, argv, capsys):
        msg = self.check(argv, 2, capsys)
        assert f"maximum {MAX_STEPS} steps" in msg

    def test_halved_tau_underflows(self, capsys):
        # tau/2 of the finest run is 0.0, so horizon/(tau/2) used to raise
        # ZeroDivisionError
        msg = self.check(["study-temporal", "--tau-list", "2^-1074,2^-3", "--N-list", "8",
                          "--T", "0"], 2, capsys)
        assert "too small to halve" in msg

    @pytest.mark.parametrize("argv", [
        ["study-temporal", "--tau-list", "2^-3,2^-3", "--N-list", "8"],
        ["study-temporal", "--tau-list", "2^-3,0.125", "--N-list", "8"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8,16,8"],
    ])
    def test_duplicate_study_parameters(self, argv, capsys):
        assert "must be distinct" in self.check(argv, 1, capsys)

    @pytest.mark.parametrize("argv,axis", [
        (["study-temporal", "--tau-list", "2^-3", "--N-list", "8,16"], "temporal"),
        (["study-spatial", "--tau-list", "2^-3,2^-4", "--N-list", "8"], "spatial"),
    ])
    def test_single_refined_parameter(self, argv, axis, capsys, monkeypatch):
        # rejected before any run: a run here would end in "error: ran"
        def ran(*args, **kwargs):
            raise RuntimeError("ran")

        monkeypatch.setattr(harness, "_compute_runs", ran)
        msg = self.check(argv, 1, capsys)
        assert f"a {axis} study fits its rate over at least two" in msg

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "8", "--T", "0.5", "--tail-cutoff", "4"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8,16", "--T", "0.5",
         "--tail-cutoff", "0"],
    ])
    def test_tail_cutoff_needs_sampled_init(self, argv, capsys, monkeypatch):
        # a tail cutoff in the default truncated mode is an error, before
        # any run: a run here would end in "error: ran"
        def ran(*args, **kwargs):
            raise RuntimeError("ran")

        monkeypatch.setattr(harness, "_compute_runs", ran)
        msg = self.check(argv, 1, capsys)
        assert "a tail cutoff needs init mode 'sampled', not 'truncated'" in msg

    @pytest.mark.parametrize("mode", ["9", "-9", "99"])
    def test_plane_mode_outside_cutoff(self, mode, capsys):
        msg = self.check(["solve", "--tau", "2^-3", "--N", "8", "--initial", "plane",
                          "--mode", mode], 2, capsys)
        assert "outside the cutoff" in msg

    def test_step_bound_is_inclusive(self):
        _check_steps(2.0 ** -20, 16.0)  # exactly MAX_STEPS steps
        with pytest.raises(CliError):
            _check_steps(2.0 ** -20, 16.0 + 2.0 ** -20)

    def test_blow_up_reported(self, capsys):
        msg = self.check(["solve", "--initial", "constant", "--amplitude",
                          "1e8", "--tau", "0.5", "--N", "4", "--T", "2"],
                         1, capsys)
        assert "blew up" in msg

    def test_blow_up_in_a_worker_process(self, capfd):
        # the runs of cutoffs 8 and 64 form two stacks, so --jobs 2 runs
        # them in two worker processes; capfd also sees what they print
        argv = ["study-temporal", "--tau-list", "2^20,2^19", "--T", "1048576",
                "--N-list", "8,64"]
        serial = self.check(argv + ["--jobs", "1"], 1, capfd)
        assert "blew up" in serial
        assert self.check(argv + ["--jobs", "2"], 1, capfd) == serial

    @pytest.mark.parametrize("edit, key", [
        ("diagnostic_0=0 0.0", "diagnostic_0"),
        ("snapshot_count=x", "snapshot_count"),
        ("scheme=rk4", "scheme"),
        ("", "h1_max"),
        ("lambda=0", "lambda"),
        ("N=-1", "N"),
        ("steps=-1", "steps"),
    ], ids=["short-row", "count", "scheme", "missing", "lambda-range", "N-range",
            "steps-range"])
    def test_malformed_dump(self, edit, key, tmp_path, capsys):
        dump = tmp_path / "D"
        assert main(["solve", "--tau", "2^-3", "--N", "4", "--T", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        manifest = dump / "manifest.txt"
        lines = [edit if ln.startswith(key + "=") else ln
                 for ln in manifest.read_text().splitlines()]
        manifest.write_text("\n".join(lines) + "\n")
        msg = self.check(["diagnostics", "--in", str(dump)], 1, capsys)
        assert msg.startswith(f"error: {manifest}: ")
        assert repr(key) in msg or f"{key}=" in msg

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
        ["solve", "--tau", "2^-3", "--N", "8", "--init-mode", "sampled",
         "--tail-cutoff", str(2 ** 40)],
    ])
    def test_absurd_size(self, argv, capsys):
        assert "maximum" in self.check(argv, 2, capsys)

    @pytest.mark.parametrize("argv", [
        ["solve", "--tau", "2^-3", "--N", "8", "--diag-stride", "-1"],
        ["study-spatial", "--tau-list", "2^-3", "--N-list", "8", "--jobs", "0"],
        ["study-temporal", "--tau-list", "2^-3", "--N-list", "8", "--jobs", "-2"],
    ])
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
                  ["-0", "5e-324", "1e308", "-1", "nan", "inf", "x"]),
    "--init-mode": tokens(["truncated", "sampled"], ["bogus"]),
    "--tail-cutoff": tokens(["0", "16", "64"], ["-1", "2^4", "99999999999999999999"]),
    "--scheme": tokens(["lowreg", "lie", "strang"], ["bogus"]),
}
ONE_RUN_FLAGS = {
    "--tau": tokens(*TIMES),
    "--N": tokens(*CUTOFFS),
    "--initial": tokens(["sobolev", "plane", "constant"], ["bogus"]),
    "--amplitude": tokens(["0.1", "1", "0"],
                          ["-0", "-1", "1e8", "1e308", "5e-324", "nan", "inf", "x"]),
    "--mode": tokens(["1", "-1", "0", "5"], ["32", "33", "99999999999999999999", "x"]),
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
    "diagnostics": {**RUN_FLAGS, **ONE_RUN_FLAGS, "--in": st.just("no-such-dump")},
    "study-temporal": STUDY_FLAGS,
    "study-spatial": STUDY_FLAGS,
}
# drawn for every argv of the subcommand, so that many examples run
REQUIRED = {
    "solve": ["--tau", "--N"],
    "diagnostics": ["--tau", "--N"],
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


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 3
        assert all(": pass (" in ln for ln in lines)


HELP_CASES = [
    ("help_main.txt", ["--help"]),
    ("help_solve.txt", ["solve", "--help"]),
    ("help_diagnostics.txt", ["diagnostics", "--help"]),
    ("help_study_temporal.txt", ["study-temporal", "--help"]),
    ("help_study_spatial.txt", ["study-spatial", "--help"]),
    ("help_selftest.txt", ["selftest", "--help"]),
]


class TestHelpGolden:
    @pytest.mark.parametrize("fname,argv", HELP_CASES)
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


class TestModuleEntryPoint:
    def test_selftest_and_error_exit_codes(self):
        # the child imports the package the tests import, installed or not
        path = [str(Path(lowregnls.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        ok = subprocess.run(
            [sys.executable, "-m", "lowregnls", "selftest"],
            capture_output=True, text=True, env=env,
        )
        assert ok.returncode == 0
        assert ok.stdout.count(": pass (") == 3

        bad = subprocess.run(
            [sys.executable, "-m", "lowregnls", "solve", "--tau", "abc",
             "--N", "8"],
            capture_output=True, text=True, env=env,
        )
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: ")
