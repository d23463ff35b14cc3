"""Study harness: rate fitting, table structure, CSV contract, determinism."""

import ast
import concurrent.futures
import dataclasses
import importlib
import io
import math
import multiprocessing
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lowregnls import harness
from lowregnls.harness import (
    CSV_HEADER,
    STACK_POINTS,
    ConvergenceReport,
    StudySpec,
    fit_rate,
    spatial_study,
    temporal_study,
    write_report_csv,
)
from lowregnls.initial_data import InitialDataSpec
from lowregnls.integrator import (
    MIN_TAU,
    BlowUpError,
    SchemeParams,
    evolve,
    evolve_lockstep,
    initialize,
)
from lowregnls.spectral import _pow2_grid_size, l2_error, project


class TestFitRate:
    def test_exact_first_order(self):
        taus = [2.0 ** -k for k in range(4, 9)]
        errs = [0.37 * t for t in taus]
        assert math.isclose(fit_rate(taus, errs), 1.0, abs_tol=1e-12)

    def test_exact_inverse_square(self):
        ns = [16, 32, 64, 128]
        errs = [5.0 / n ** 2 for n in ns]
        assert math.isclose(fit_rate(ns, errs), -2.0, abs_tol=1e-12)

    def test_least_squares_not_endpoint(self):
        # perturb one interior point; the slope moves less than an endpoint fit
        taus = [0.5, 0.25, 0.125, 0.0625]
        errs = [t * (1.3 if i == 1 else 1.0) for i, t in enumerate(taus)]
        slope = fit_rate(taus, errs)
        assert 0.8 <= slope <= 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_rate([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_rate([-1.0, 2.0], [1.0, 1.0])

    def test_nonpositive_error_flags_nan(self):
        assert math.isnan(fit_rate([1.0, 2.0], [1.0, 0.0]))
        assert math.isnan(fit_rate([1.0, 2.0], [1.0, -1.0]))

    def test_repeated_values_flag_nan_without_warning(self):
        # one distinct abscissa leaves the slope undefined; polyfit would
        # return a number and a RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(fit_rate([0.125, 0.125], [1e-3, 2e-3]))
            assert math.isnan(fit_rate([8, 8, 8], [1e-3, 2e-3, 3e-3]))
            assert math.isclose(fit_rate([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]), 1.0)


class TestStudySpecValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError):
            StudySpec(axis="sideways", taus=(0.1,), cutoffs=(8,))

    def test_empty_lists(self):
        with pytest.raises(ValueError):
            StudySpec(axis="temporal", taus=(), cutoffs=(8,))
        with pytest.raises(ValueError):
            StudySpec(axis="temporal", taus=(0.1,), cutoffs=())

    @pytest.mark.parametrize("taus,cutoffs", [
        ((0.125, 0.125), (8,)),
        ((0.25, 0.125, 0.25), (8, 16)),
        ((0.125,), (8, 8)),
    ], ids=["tau-twice", "tau-twice-apart", "cutoff-twice"])
    def test_duplicates_rejected(self, taus, cutoffs):
        for axis in ("temporal", "spatial"):
            with pytest.raises(ValueError, match="distinct"):
                StudySpec(axis=axis, taus=taus, cutoffs=cutoffs)

    @pytest.mark.parametrize("axis,refined", [("temporal", "taus"), ("spatial", "cutoffs")])
    def test_single_refined_parameter_rejected(self, axis, refined):
        # one row gives no rate, so the spec fails before any run; the other
        # axis may hold a single value
        one = {"taus": (0.1,), "cutoffs": (8,)}
        two = {"taus": (0.1, 0.05), "cutoffs": (8, 16)}
        StudySpec(axis=axis, **{**one, refined: two[refined]})
        with pytest.raises(ValueError, match=f"a {axis} study .* two {refined}"):
            StudySpec(axis=axis, **one)

    # each spec fails at construction, by the rule its runs would apply
    @pytest.mark.parametrize("fields, match", [
        ({"scheme": "rk4"}, "scheme must be one of"),
        ({"taus": (0.1, 0.0)}, "tau must be a positive finite number, got 0.0"),
        ({"taus": (-0.1, 0.1)}, "tau must be a positive finite number, got -0.1"),
        ({"taus": (math.nan, 0.1)}, "tau must be a positive finite number, got nan"),
        ({"taus": (math.inf, 0.1)}, "tau must be a positive finite number, got inf"),
        # the tau/2 run of a temporal study underflows
        ({"axis": "temporal", "taus": (5e-324, 0.1), "horizon": 0.0},
         "tau 5e-324 is too small to halve"),
        ({"horizon": math.nan}, "horizon must be finite, got nan"),
        ({"taus": (0.125,), "horizon": 0.3},
         "horizon 0.3 is not an integer multiple of tau 0.125"),
        ({"cutoffs": (0, 8)}, "cutoffs must be >= 1, got 0"),
        ({"cutoffs": (2.5, 4)}, "cutoffs must be an integer, got 2.5"),
        ({"jobs": 0}, "jobs must be >= 1, got 0"),
        ({"jobs": 1.9}, "jobs must be an integer, got 1.9"),
        ({"lam": 0}, r"lam must be -1 or \+1, got 0"),
        ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
    ], ids=["scheme", "tau-zero", "tau-negative", "tau-nan", "tau-inf", "tau-unhalvable",
            "horizon-nan", "horizon-off-grid", "cutoff-zero", "cutoff-float", "jobs-zero",
            "jobs-float", "lam", "alpha"])
    def test_bad_value_rejected(self, fields, match):
        base = {"axis": "spatial", "taus": (0.1,), "cutoffs": (8, 16)}
        with pytest.raises(ValueError, match=match):
            StudySpec(**{**base, **fields})

    # each real is a finite real that is no bool and no string, rejected by
    # the spec, not later by a run that names its tau
    @pytest.mark.parametrize("fields, match", [
        ({"amplitude": math.nan}, "amplitude must be finite, got nan"),
        ({"amplitude": -math.inf}, "amplitude must be finite, got -inf"),
        ({"amplitude": "0.1"}, "amplitude must be a real number, got '0.1'"),
        ({"alpha": math.inf}, "alpha must be finite, got inf"),
        ({"alpha": True}, "alpha must be a real number, got True"),
        ({"horizon": math.inf}, "horizon must be finite, got inf"),
        ({"horizon": "1"}, "horizon must be a real number, got '1'"),
        ({"taus": ("0.1",)}, "tau must be a real number, got '0.1'"),
        ({"taus": (True,)}, "tau must be a real number, got True"),
        ({"lam": True}, "lam must be -1 or +1, got True"),
        ({"lam": np.True_}, "lam must be -1 or +1, got True"),
    ], ids=["amplitude-nan", "amplitude-minus-inf", "amplitude-string", "alpha-inf", "alpha-bool",
            "horizon-inf", "horizon-string", "tau-string", "tau-bool", "lam-bool",
            "lam-numpy-bool"])
    def test_hostile_value_rejected(self, fields, match):
        base = {"axis": "spatial", "taus": (0.1,), "cutoffs": (8, 16)}
        with pytest.raises(ValueError, match=re.escape(match)):
            StudySpec(**{**base, **fields})

    @pytest.mark.parametrize("option", [{"init_mode": "sampled"}, {"tail_cutoff": 64}],
                             ids=["init_mode", "tail_cutoff"])
    def test_one_start_rule(self, option):
        # every run starts from Pi_N u0, so a spec names no other start rule
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            StudySpec(axis="spatial", taus=(0.1,), cutoffs=(8, 16), **option)

    def test_axis_mismatch(self):
        spec = StudySpec(axis="spatial", taus=(0.1,), cutoffs=(8, 16))
        with pytest.raises(ValueError):
            temporal_study(spec)
        spec2 = StudySpec(axis="temporal", taus=(0.1, 0.05), cutoffs=(8,))
        with pytest.raises(ValueError):
            spatial_study(spec2)


def small_temporal_spec(**kw):
    base = dict(axis="temporal", taus=(2.0 ** -5, 2.0 ** -6), cutoffs=(8, 16),
                alpha=1.0, horizon=0.5)
    base.update(kw)
    return StudySpec(**base)


def small_spatial_spec(**kw):
    base = dict(axis="spatial", taus=(2.0 ** -5,), cutoffs=(8, 16, 32),
                alpha=1.0, horizon=0.5)
    base.update(kw)
    return StudySpec(**base)


class TestTemporalStudy:
    def test_shape_and_rates(self):
        rep = temporal_study(small_temporal_spec())
        assert rep.spec.axis == "temporal"
        assert rep.spec.rows == (2.0 ** -5, 2.0 ** -6)
        assert rep.spec.cols == (8, 16)
        assert rep.errors.shape == (2, 2)
        assert np.all(rep.errors > 0)
        assert len(rep.rates) == 2
        for r in rep.rates:
            assert 0.9 <= r <= 1.2  # first order in tau

    def test_deterministic_and_schedule_independent(self):
        a = temporal_study(small_temporal_spec(jobs=1))
        b = temporal_study(small_temporal_spec(jobs=3))
        assert np.array_equal(a.errors, b.errors)
        assert a.rates == b.rates

    def test_splitting_schemes_run(self):
        # smooth data so the splitting order is visible at coarse steps
        rep = temporal_study(small_temporal_spec(scheme="strang", cutoffs=(8,),
                                                 alpha=3.0))
        # second-order scheme: self-halving rate near 2
        assert 1.6 <= rep.rates[0] <= 2.4

    def test_zero_data_zero_errors_nan_rates(self):
        # the zero state is a fixed point, so every run agrees exactly and
        # the fitted rate is undefined
        rep = temporal_study(small_temporal_spec(amplitude=0.0))
        assert np.all(rep.errors == 0)
        assert all(math.isnan(r) for r in rep.rates)


class TestSpatialStudy:
    def test_shape_and_rates(self):
        rep = spatial_study(small_spatial_spec())
        assert rep.spec.axis == "spatial"
        assert rep.spec.rows == (8, 16, 32)
        assert rep.spec.cols == (2.0 ** -5,)
        assert rep.errors.shape == (3, 1)
        # alpha=1 data loses mass like N^-1.01 beyond the cutoff
        assert 0.8 <= rep.rates[0] <= 1.2

    def test_zero_extension_differencing(self):
        # the N and 2N runs start from the same truncated data, so the error
        # is dominated by the band (N, 2N]: monotone decreasing in N
        rep = spatial_study(small_spatial_spec())
        e = rep.errors[:, 0]
        assert e[0] > e[1] > e[2] > 0

    def test_deterministic_across_jobs(self):
        # the stacks follow from the runs alone: 64 rides with 128 in one
        # stack of 6 runs at any jobs
        taus = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
        a, b, c = (spatial_study(small_spatial_spec(taus=taus, cutoffs=(64, 128), jobs=jobs))
                   for jobs in (1, 2, 6))
        assert np.array_equal(a.errors, b.errors) and np.array_equal(a.errors, c.errors)
        assert a.rates == b.rates == c.rates


def final_state(spec, tau, n):
    """Final state of the (N, tau) run a study cell names, run by hand."""
    u0 = initialize(spec.initial_data(), n)
    return evolve(u0, SchemeParams.from_horizon(spec.lam, tau, n, spec.horizon)).final


class TestCells:
    """Each cell is the coefficient l2 distance of the two runs it names;
    every table here has distinct row and column counts, so a transposed or
    mis-keyed table cannot match."""

    def test_temporal_cell(self):
        spec = small_temporal_spec(taus=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6))
        rep = temporal_study(spec)
        i, j = 2, 1
        tau, n = spec.taus[i], spec.cutoffs[j]
        want = l2_error(final_state(spec, tau, n),
                        final_state(spec, tau / 2.0, n)) / math.sqrt(2.0 * math.pi)
        assert rep.errors[i, j] == want
        for col in range(len(spec.cutoffs)):
            assert rep.rates[col] == fit_rate(spec.taus, rep.errors[:, col])

    def test_spatial_cell(self):
        # 512's two runs fill a stack (1600-point grid), so 256 runs apart
        # from it and the cells of 256 are those of solo runs, bitwise; 128
        # rides zero-padded on the grid of 256, so the cells of 64 and 128
        # are those of their solo runs to round-off
        spec = small_spatial_spec(taus=(2.0 ** -4, 2.0 ** -5), cutoffs=(64, 128, 256))
        rep = spatial_study(spec)
        for i, n in enumerate(spec.cutoffs):
            for j, tau in enumerate(spec.taus):
                # the N run is zero-extended to 2N before differencing
                want = l2_error(project(final_state(spec, tau, n), 2 * n),
                                final_state(spec, tau, 2 * n)) / math.sqrt(2.0 * math.pi)
                if n == 256:
                    assert rep.errors[i, j] == want
                else:
                    assert abs(rep.errors[i, j] - want) <= 1e-13 * want
        for col in range(len(spec.taus)):
            assert rep.rates[col] == -fit_rate(spec.cutoffs, rep.errors[:, col])


class TestRunGrid:
    """A spec names the (coarse, fine) run keys (cutoff, tau) of each cell,
    and each run once; a study computes those runs and no other."""

    def test_temporal_refines_tau(self):
        t3, t4, t5 = 2.0 ** -3, 2.0 ** -4, 2.0 ** -5
        spec = small_temporal_spec(taus=(t3, t4), cutoffs=(8, 16), horizon=1.0)
        assert (spec.rows, spec.cols) == ((t3, t4), (8, 16))
        assert spec.cells() == [[((8, t3), (8, t4)), ((16, t3), (16, t4))],
                                [((8, t4), (8, t5)), ((16, t4), (16, t5))]]
        # (N, 2^-4) is the fine run of row 2^-3 and the coarse run of row 2^-4
        assert list(spec.runs()) == [(n, tau) for n in (8, 16) for tau in (t5, t4, t3)]
        assert spec.runs()[8, t4] == SchemeParams(-1, t4, 8, 16)

    def test_spatial_refines_the_cutoff(self):
        tau = 2.0 ** -3
        spec = small_spatial_spec(taus=(tau,), cutoffs=(8, 16), horizon=1.0)
        assert (spec.rows, spec.cols) == ((8, 16), (tau,))
        assert spec.cells() == [[((8, tau), (16, tau))], [((16, tau), (32, tau))]]
        assert spec.runs() == {(n, tau): SchemeParams(-1, tau, n, 8) for n in (8, 16, 32)}

    def test_halved_tau_underflows(self):
        # only a temporal study halves tau, here to below MIN_TAU; the
        # message names the tau
        spec = dict(taus=(MIN_TAU, 0.5), cutoffs=(8, 16), horizon=0.0)
        StudySpec(axis="spatial", **spec)
        with pytest.raises(ValueError, match=f"^tau {MIN_TAU!r} is too small to halve$"):
            StudySpec(axis="temporal", **spec)

    @pytest.mark.parametrize("spec", [
        small_temporal_spec(taus=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6)),
        small_spatial_spec(taus=(2.0 ** -4, 2.0 ** -5), cutoffs=(8, 16, 64)),
        small_temporal_spec(scheme="strang"),
    ], ids=["temporal", "spatial", "strang"])
    def test_study_runs_each_run_of_the_spec_once(self, spec, monkeypatch):
        keys = []
        run = harness._run_stack

        def record(task):
            keys.extend((params.cutoff, params.tau) for params in task[2])
            return run(task)

        monkeypatch.setattr(harness, "_run_stack", record)
        harness._study(spec, spec.axis)
        assert sorted(keys) == list(spec.runs())


def key_record(stack):
    """(cutoff, taus) of a stack of (cutoff, tau) run keys of one cutoff;
    (largest cutoff, cutoff of each run) in place of the cutoff when some
    run rides zero-padded in a larger cutoff's window."""
    cutoffs = tuple(n for n, _ in stack)
    top = max(cutoffs)
    return top if set(cutoffs) == {top} else (top, cutoffs), tuple(tau for _, tau in stack)


def stack_record(initial, runs):
    """key_record of a stack handed to evolve_lockstep, from one initial
    field per run."""
    assert tuple(f.cutoff for f in initial) == tuple(p.cutoff for p in runs)
    return key_record([(p.cutoff, p.tau) for p in runs])


@pytest.fixture
def stacks(monkeypatch):
    """The (cutoff, taus) of every stack a study hands to evolve_lockstep,
    in the order the stacks start."""
    seen = []
    run = harness.evolve_lockstep

    def record(initial, runs, scheme="lowreg"):
        seen.append(stack_record(initial, runs))
        return run(initial, runs, scheme=scheme)

    monkeypatch.setattr(harness, "evolve_lockstep", record)
    return seen


def study_plan(spec):
    """The stacks `harness._stacks` forms from the runs of a study's spec,
    in the order they start; no run is computed."""
    return harness._stacks(spec.scheme, spec.runs())


@pytest.fixture
def planned_stacks():
    """The stacks a study forms, sorted, from its plan alone."""
    return lambda spec: sorted(map(key_record, study_plan(spec)), key=repr)


class TestStacks:
    def test_one_cutoff_forms_one_stack_at_any_jobs(self, planned_stacks):
        # the 4 runs at tau 2^-5 .. 2^-8 fit one stack on the 50-point grid
        # of 8, by step count, and jobs never cut it
        for jobs in (1, 2):
            spec = small_temporal_spec(taus=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
                                       cutoffs=(8,), jobs=jobs)
            assert planned_stacks(spec) == [(8, tuple(2.0 ** -k for k in (8, 7, 6, 5)))]

    def test_serial_study_stacks_each_cutoff_whole_costliest_first(self, stacks):
        # cutoffs 8 .. 64: each cutoff's runs join those of its double, in
        # one stack by step count, and the layouts of 64 and 16 stay apart
        spatial_study(small_spatial_spec(taus=(2.0 ** -5, 2.0 ** -6), jobs=1))
        assert stacks == [((n, (n, n // 2) * 2), (2.0 ** -6,) * 2 + (2.0 ** -5,) * 2)
                          for n in (64, 16)]

    def test_parallel_spatial_study_still_pairs_cutoffs(self, planned_stacks):
        # at 3 jobs as in a serial study: the 6 runs of each pair of
        # cutoffs form one stack, by step count
        taus = (2.0 ** -7, 2.0 ** -6, 2.0 ** -5)
        assert planned_stacks(small_spatial_spec(taus=taus, jobs=3)) == sorted(
            (((n, (n, n // 2) * 3), tuple(sorted(taus * 2))) for n in (64, 16)), key=repr)

    def test_jobs_do_not_decide_a_pairing(self, planned_stacks):
        # the grid of 256 (800 points) stacks at most 5 runs: its 3 runs
        # and the 3 of 128 would take 2 stacks where its own take 1, so 128
        # stays out of the window of 256 at any jobs
        taus = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
        for jobs in (1, 2):
            spec = small_spatial_spec(taus=taus, cutoffs=(64, 128), jobs=jobs)
            keys = {key for key, _ in planned_stacks(spec)}
            assert 256 in keys and all(key == 256 or key[0] == 128 for key in keys)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_temporal_table_stacks_are_unpaired(self, planned_stacks, jobs):
        # the benchmark's (jobs 2) and the acceptance (jobs 3) temporal
        # tables: pairing 512 with 1024 or 256 with 512 would add stacks;
        # 1024 steps its runs one at a time, 512 two, 256 all four
        spec = StudySpec(axis="temporal", taus=(2.0 ** -6, 2.0 ** -7, 2.0 ** -8),
                         cutoffs=(256, 512, 1024), jobs=jobs)
        taus = tuple(2.0 ** -k for k in (9, 8, 7, 6))
        want = [(1024, (tau,)) for tau in taus] + [(512, taus[:2]), (512, taus[2:]), (256, taus)]
        assert planned_stacks(spec) == sorted(want, key=repr)

    @given(st.sampled_from(harness.AXES),
           st.lists(st.integers(4, 300), min_size=2, max_size=4, unique=True),
           st.lists(st.sampled_from([2.0 ** -k for k in range(2, 7)]), min_size=1, max_size=3,
                    unique=True))
    def test_stacks_follow_from_the_runs_alone(self, axis, cutoffs, taus):
        # a temporal table fits its rate over two taus or more
        assume(axis == "spatial" or len(taus) > 1)
        spec = small_spatial_spec(axis=axis, taus=taus, cutoffs=cutoffs)
        keys = {(n, tau / 2.0) for n in cutoffs for tau in taus} if axis == "temporal" else {
            (2 * n, tau) for n in cutoffs for tau in taus}
        keys |= {(n, tau) for n in cutoffs for tau in taus}
        # _stacks takes no jobs; that the tables agree at any jobs is
        # checked end to end by test_tables_do_not_depend_on_jobs
        plan = study_plan(spec)
        assert sorted(key for stack in plan for key in stack) == sorted(keys)
        for stack in plan:
            top = max(n for n, _ in stack)
            assert len(stack) <= max(1, STACK_POINTS // _pow2_grid_size(top))
            assert all(2 * n >= top for n, _ in stack)

    def test_stacks_are_capped_by_grid_points(self, stacks):
        # at N = 1024 the product grid has 3200 > STACK_POINTS / 2 points
        assert STACK_POINTS // _pow2_grid_size(1024) == 1
        spec = small_temporal_spec(taus=(2.0 ** -5, 2.0 ** -6), cutoffs=(1024,),
                                   horizon=2.0 ** -5)
        temporal_study(spec)
        assert sorted(stacks) == [(1024, (tau,)) for tau in (2.0 ** -7, 2.0 ** -6, 2.0 ** -5)]

    def test_splitting_cutoffs_never_join(self, planned_stacks):
        # each cutoff's runs form one stack, all its taus by step count;
        # 8 stays out of the window of 16 although 2 * 8 >= 16, because the
        # 4N+1 collocation aliases differently at each N.  The same
        # low-regularity table joins them
        taus = tuple(2.0 ** -k for k in (7, 6, 5))
        spec = small_temporal_spec(scheme="lie", cutoffs=(8, 16))
        assert planned_stacks(spec) == sorted([(8, taus), (16, taus)], key=repr)
        assert planned_stacks(dataclasses.replace(spec, scheme="lowreg")) == [
            ((16, (16, 8) * 3), tuple(sorted(taus * 2)))]

    def test_blow_up_names_the_run(self):
        spec = small_temporal_spec(taus=(0.5, 0.25), cutoffs=(8,), amplitude=1e6,
                                   horizon=2.0)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
            temporal_study(spec)
        u0 = initialize(spec.initial_data(), 8)
        params = SchemeParams.from_horizon(spec.lam, info.value.tau, 8, spec.horizon)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as solo:
            evolve(u0, params)
        assert str(info.value) == str(solo.value)


# studies of two stacks or more, so that jobs > 1 starts a pool
POOLED_SPECS = {
    "lowreg-temporal": small_temporal_spec(cutoffs=(8, 64)),
    "lowreg-spatial": small_spatial_spec(),
    "strang-temporal": small_temporal_spec(scheme="strang", alpha=3.0),
    "strang-spatial": small_spatial_spec(scheme="strang", alpha=3.0),
}


class TestWorkerProcesses:
    @pytest.mark.parametrize("spec", POOLED_SPECS.values(), ids=POOLED_SPECS.keys())
    def test_tables_do_not_depend_on_jobs(self, spec):
        assert len(study_plan(spec)) >= 2
        study = temporal_study if spec.axis == "temporal" else spatial_study
        serial, *pooled = (study(dataclasses.replace(spec, jobs=jobs)) for jobs in (1, 2, 3, 5))
        for rep in pooled:
            assert np.array_equal(rep.errors, serial.errors)
            assert rep.rates == serial.rates
        assert multiprocessing.active_children() == []

    def test_blow_up_crosses_the_pool(self):
        # both stacks blow up; the costlier one, of cutoff 64, is reported
        spec = small_temporal_spec(taus=(0.5, 0.25), cutoffs=(8, 64), amplitude=1e6,
                                   horizon=2.0)
        assert len(study_plan(spec)) == 2
        messages = []
        for kw in ({"jobs": 1}, {"jobs": 2}, {"cutoffs": (64,)}):
            with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
                temporal_study(dataclasses.replace(spec, **kw))
            messages.append(str(info.value))
        assert messages[0] == messages[1] == messages[2]
        assert multiprocessing.active_children() == []

    def test_pool_is_bounded_by_the_machine(self, monkeypatch):
        # an in-process stand-in for the pool records its size; no real pool
        # is started for a huge jobs value
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # at N = 1024 each of the 4 runs is a stack of its own
        spec = small_temporal_spec(taus=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6), cutoffs=(1024,),
                                   horizon=2.0 ** -4, jobs=10 ** 6)
        assert len(study_plan(spec)) == 4
        rep = temporal_study(spec)
        assert sizes == [3]
        assert np.array_equal(rep.errors, temporal_study(dataclasses.replace(spec, jobs=1)).errors)
        assert sizes == [3]


class TestCsv:
    def test_header_and_rows(self):
        rep = temporal_study(small_temporal_spec())
        buf = io.StringIO()
        write_report_csv(rep, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "study,alpha,lambda,T,row_param,col_param,error,rate"
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "temporal"
        assert first[1] == "1.0"
        assert first[2] == "-1"
        assert first[3] == "0.5"
        assert float(first[4]) == 2.0 ** -5
        assert int(first[5]) == 8
        assert float(first[6]) > 0
        # rate column repeats the column fit
        assert float(first[7]) == rep.rates[0]
        assert len(first) == 8

    def test_file_output(self, tmp_path):
        rep = spatial_study(small_spatial_spec(cutoffs=(8, 16)))
        path = tmp_path / "study.csv"
        with open(path, "w") as fh:
            write_report_csv(rep, fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert row[0] == "spatial"
        assert int(row[4]) == 8          # row_param is the cutoff
        assert float(row[5]) == 2.0 ** -5  # col_param is tau

    def test_roundtrip_values(self):
        rep = temporal_study(small_temporal_spec())
        buf = io.StringIO()
        write_report_csv(rep, buf)
        rows = buf.getvalue().strip().splitlines()[1:]
        got = np.array([float(r.split(",")[6]) for r in rows]).reshape(2, 2)
        assert np.array_equal(got, rep.errors)  # repr round-trips exactly


class TestDiagnosticsSeries:
    def test_rows_match_trajectory(self):
        # the per-step rows a report reads straight off the trajectory
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        params = SchemeParams(lam=-1, tau=0.125, cutoff=16, steps=8)
        traj = evolve(u, params, diag_stride=2)
        rows = traj.diagnostics
        assert isinstance(rows, tuple)
        assert [r.step_index for r in rows] == [0, 2, 4, 6, 8]
        assert all(r.l2 > 0 and r.h1 >= r.l2 for r in rows)


class TestReportValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceReport(spec=small_temporal_spec(), errors=np.ones((3, 1)))

    @pytest.mark.parametrize("spec, sign", [
        (small_temporal_spec(taus=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6)), 1.0),
        (small_spatial_spec(taus=(2.0 ** -5, 2.0 ** -6)), -1.0),
    ], ids=["temporal", "spatial"])
    def test_rates_are_fitted_from_the_table(self, spec, sign):
        # a report fits its own rates, so none can contradict its table:
        # p of errors ~ tau^p, and s of errors ~ N^-s
        errors = np.random.default_rng(5).uniform(0.1, 1.0, (len(spec.rows), len(spec.cols)))
        rep = ConvergenceReport(spec, errors)
        assert rep.rates == tuple(sign * fit_rate(spec.rows, errors[:, j])
                                  for j in range(len(spec.cols)))
        with pytest.raises(TypeError):
            ConvergenceReport(spec, errors, rep.rates)


def test_benchmark_patch_points_resolve():
    # perfbench/tracing.py patches each (module, attribute) of its
    # PATCH_POINTS by getattr, so harness keeps names it no longer calls
    # (evolve, splitting_evolve); a missing one would end a traced run with
    # AttributeError.  The points are read from that file, not copied
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    [points] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["PATCH_POINTS"]]
    assert len(points) > 10
    missing = [(module, attr) for module, attr, *_ in points
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
