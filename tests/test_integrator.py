"""One-step map checks: closed forms, structural cross-checks, trajectories."""

import math
import pickle
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lowregnls import dft, integrator, reference
from lowregnls.harness import StudySpec
from lowregnls.initial_data import InitialDataSpec, coefficients
from lowregnls.integrator import (
    MIN_TAU,
    SCHEMES,
    BlowUpError,
    ConservedQuantities,
    SchemeParams,
    conserved_quantities,
    _plan_for,
    _StepPlan,
    evolve,
    evolve_lockstep,
    initialize,
    load_trajectory,
    save_trajectory,
    splitting_evolve,
    step,
    step_twisted,
)
from lowregnls.reference import SPLITTINGS, _chirp_tables, _splitting_stepper, splitting_step
from lowregnls.spectral import (
    SpectralField,
    _centered,
    _pow2_grid_size,
    _standard,
    conjugate,
    dealiased_product,
    derivative,
    free_propagator,
    inv_derivative,
    l2_error,
    nonzero_part,
    project,
    sobolev_norm,
    twist_propagator,
)


# cutoffs where the product grid is exactly 3N+1 points: 3N+1 is 16, 64 and
# 256 (powers of two) or 25, 100 and 400 (25 times a power of two)
TIGHT = (5, 8, 21, 33, 85, 133)


def random_field(rng, cutoff, scale=0.5):
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, scale * c)


def convolution_product(f, g):
    """Pi_N(f*g) by direct convolution of the coefficients: no grid at all."""
    n = f.cutoff
    return SpectralField(n, np.convolve(f.coeffs, g.coeffs)[n: 3 * n + 1])


def psi_straight_line(u, params, cq, pn=dealiased_product):
    """The one-step map written term by term with the public operators.

    Deliberately naive: no batching, no shared transforms.  Serves as the
    independent route against the optimized `step`.  Every product goes
    through pn, so passing `convolution_product` gives an oracle that shares
    no product grid with `step`.
    """
    lam, tau = params.lam, params.tau
    f = u
    fb = conjugate(f)
    fp = free_propagator(f, tau)
    di = inv_derivative

    out = twist_propagator(f, tau, lam, cq.mass, cq.momentum_imag)
    c0 = f.coefficient(0)
    mean2 = (1 - np.exp(-2j * lam * tau * cq.mass)) * c0
    absf2 = pn(f, fb)
    mean3 = (-1j * lam * tau) * np.dot(absf2.coeffs, f.coeffs[::-1])
    out = out + SpectralField.from_modes(f.cutoff, {0: mean2 + mean3})

    out = out + lam * di(pn(fp, di(pn(fp, conjugate(fp)))))
    out = out - lam * free_propagator(di(pn(f, di(absf2))), tau)

    f2 = pn(f, f)
    t6a = di(di(pn(free_propagator(fb, -tau), free_propagator(f2, tau))))
    t6b = free_propagator(di(di(pn(fb, f2))), tau)
    out = out - 0.5 * lam * (t6a - t6b)

    h1 = pn(free_propagator(di(f), tau), free_propagator(di(f), tau))
    h2 = pn(di(f), di(f))
    out = out - 0.5 * lam * free_propagator(
        di(pn(derivative(fb), free_propagator(h1, -tau) - h2)), tau
    )
    out = out - 1j * lam * tau * free_propagator(di(pn(derivative(fb), f2)), tau)
    out = out + 2j * lam * tau * c0 * free_propagator(di(pn(derivative(fb), f)), tau)
    out = out + (-1j * lam * tau * c0 * c0) * free_propagator(nonzero_part(fb), tau)
    return out


class TestSchemeParams:
    def test_horizon(self):
        p = SchemeParams(lam=-1, tau=0.25, cutoff=8, steps=4)
        assert p.horizon == 1.0

    def test_from_horizon(self):
        p = SchemeParams.from_horizon(-1, 2.0 ** -6, 16, 1.0)
        assert p.steps == 64
        with pytest.raises(ValueError):
            SchemeParams.from_horizon(-1, 0.3, 16, 1.0)
        # a negative horizon is named as such, even one on the step grid
        for horizon in (-1.0, -0.3, -1e-300):
            with pytest.raises(ValueError, match="horizon must be >= 0"):
                SchemeParams.from_horizon(-1, 0.25, 16, horizon)
        assert SchemeParams.from_horizon(-1, 0.25, 16, -0.0).steps == 0
        with pytest.raises(ValueError, match="overflows"):
            SchemeParams.from_horizon(-1, 2.0 ** -200, 16, 1e300)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon must be finite, got {horizon!r}$"):
            SchemeParams.from_horizon(-1, 0.25, 16, horizon)

    @pytest.mark.parametrize("nudge", [1 + 1e-13, 1 - 1e-13])
    def test_horizon_within_time_rtol_names_its_step(self, nudge):
        # the step grid holds to TIME_RTOL, relative, on either side of a step
        assert SchemeParams.from_horizon(-1, 0.25, 16, 0.5 * nudge).steps == 2

    @pytest.mark.parametrize("nudge", [1 + 1e-10, 1 - 1e-10])
    def test_horizon_past_time_rtol_rejected(self, nudge):
        with pytest.raises(ValueError, match="is not an integer multiple of tau 0.25"):
            SchemeParams.from_horizon(-1, 0.25, 16, 0.5 * nudge)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(lam=0, tau=0.1, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=-0.1, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=0.1, cutoff=-2, steps=1)
        with pytest.raises(ValueError):
            SchemeParams(lam=1, tau=0.1, cutoff=8, steps=-1)


class TestConservedQuantities:
    def test_closed_form_vs_operator_route(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = random_field(rng, 12)
            cq = conserved_quantities(u)
            mass_op = dealiased_product(u, conjugate(u)).coefficient(0)
            mom_op = dealiased_product(u, derivative(conjugate(u))).coefficient(0)
            assert abs(mass_op - cq.mass) <= 1e-12 * max(1.0, cq.mass)
            assert abs(mom_op - 1j * cq.momentum_imag) <= \
                1e-12 * max(1.0, abs(cq.momentum_imag))

    def test_momentum_purely_imaginary(self):
        # Pi_0(u d_x conj(u)) = -i sum_k k |c_k|^2 has no real part, so only
        # its imaginary part is kept, as a float
        rng = np.random.default_rng(1)
        u = random_field(rng, 9)
        mom_op = dealiased_product(u, derivative(conjugate(u))).coefficient(0)
        assert abs(mom_op.real) <= 1e-12 * abs(mom_op)
        assert type(conserved_quantities(u).momentum_imag) is float

    # two finite reals, by the rule of every real a caller passes in, so no
    # step runs on an infinite mass to an all-nan field
    @pytest.mark.parametrize("values, match", [
        ((math.inf, 0.0), "mass must be finite, got inf"),
        ((math.nan, 0.0), "mass must be finite, got nan"),
        ((True, 0.0), "mass must be a real number, got True"),
        ((0.0, -math.inf), "momentum_imag must be finite, got -inf"),
        ((0.0, "0"), "momentum_imag must be a real number, got '0'"),
    ], ids=["mass-inf", "mass-nan", "mass-bool", "momentum-minus-inf", "momentum-string"])
    def test_hostile_value_rejected(self, values, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            ConservedQuantities(*values)

    def test_frozen_value_alpha1_n16(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        cq = conserved_quantities(u)
        assert np.isclose(cq.mass, 0.023928484342794334, rtol=1e-14)
        # even coefficients: momentum cancels to summation round-off
        assert abs(cq.momentum_imag) <= 1e-16

    def test_frozen_value_alpha2_n16(self):
        u = initialize(InitialDataSpec(alpha=2.0), 16)
        assert np.isclose(conserved_quantities(u).mass, 0.020727156666911117, rtol=1e-14)


class TestInitialize:
    def test_truncated_is_exact_coefficients(self):
        spec = InitialDataSpec(alpha=1.0)
        u = initialize(spec, 8)
        assert u.cutoff == 8
        assert np.isclose(u.coefficient(1), 0.1, rtol=1e-15)
        assert np.isclose(u.coefficient(-8), 0.1 * 8.0 ** -1.51, rtol=1e-14)
        assert u.coefficient(0) == 0.0

    def test_field_source_is_projected(self):
        rng = np.random.default_rng(2)
        f = random_field(rng, 12)
        u = initialize(f, 6)
        assert np.array_equal(u.coeffs, project(f, 6).coeffs)
        v = initialize(f, 20)
        assert v.cutoff == 20 and np.array_equal(project(v, 12).coeffs, f.coeffs)

    @pytest.mark.parametrize("spec", [InitialDataSpec(alpha=0.5), InitialDataSpec(kind="plane", mode=-5),
                                      InitialDataSpec(kind="constant", amplitude=0.3)],
                             ids=["sobolev", "plane", "constant"])
    def test_start_is_nested_projection(self, spec):
        # u^0 = Pi_N u0 exactly, so a finer start projects onto a coarser one
        for n in (3, 8, 21):
            u = initialize(spec, n)
            assert np.array_equal(u.coeffs, coefficients(spec, n))
            assert np.array_equal(project(initialize(spec, 4 * n), n).coeffs, u.coeffs)

    def test_bad_inputs(self):
        with pytest.raises(TypeError, match="cannot initialize from float"):
            initialize(3.14, 8)

    @pytest.mark.parametrize("option", [{"init_mode": "sampled"}, {"init_mode": "truncated"},
                                        {"tail_cutoff": 64}],
                             ids=["init_mode-sampled", "init_mode-truncated", "tail_cutoff"])
    def test_one_start_rule(self, option):
        # every run starts from Pi_N u0; there is no other rule to choose
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            initialize(InitialDataSpec(), 8, **option)


class TestStepAgainstStraightLine:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 24))
            tau = float(2.0 ** -rng.integers(2, 10))
            lam = int(rng.choice([-1, 1]))
            u = random_field(rng, n)
            cq = conserved_quantities(u)
            params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
            fast = step(u, params, cq)
            naive = psi_straight_line(u, params, cq)
            rel = l2_error(fast, naive) / sobolev_norm(naive, 0.0)
            assert rel <= 1e-12

    @pytest.mark.parametrize("lam", [-1, 1])
    @pytest.mark.parametrize("n", TIGHT)
    def test_matches_grid_free_oracle(self, n, lam):
        rng = np.random.default_rng(n)
        u = random_field(rng, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=2.0 ** -4, cutoff=n, steps=1)
        oracle = psi_straight_line(u, params, cq, pn=convolution_product)
        rel = l2_error(step(u, params, cq), oracle) / sobolev_norm(oracle, 0.0)
        assert rel <= 1e-12

    def test_stays_band_limited(self):
        rng = np.random.default_rng(4)
        u = random_field(rng, 10)
        params = SchemeParams(lam=-1, tau=0.01, cutoff=10, steps=1)
        out = step(u, params, conserved_quantities(u))
        assert out.cutoff == 10
        assert out.coeffs.shape == (21,)

    def test_cutoff_mismatch_rejected(self):
        u = SpectralField.from_modes(4, {})
        params = SchemeParams(lam=-1, tau=0.01, cutoff=8, steps=1)
        with pytest.raises(ValueError):
            step(u, params, ConservedQuantities(0.0, 0.0))


class TestFftWork:
    @pytest.mark.parametrize("n", [8, 16, 21])
    def test_one_step_makes_seventeen_rows_on_the_product_grid(self, n, monkeypatch):
        # four batched calls of 17 rows in all (5 + 4 + 4 + 4), on the
        # smallest 2^k or 25*2^k >= 3N+1 points
        m = {8: 25, 16: 50, 21: 64}[n]
        shapes = []

        def counted(fft):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fft(a, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        u = random_field(np.random.default_rng(n), n)
        step(u, SchemeParams(lam=-1, tau=0.01, cutoff=n, steps=1), conserved_quantities(u))
        assert len(shapes) == 4
        assert sum(math.prod(sh[:-1]) for sh in shapes) == 17
        assert {sh[-1] for sh in shapes} == {m}


CUTOFFS = st.one_of(st.sampled_from(TIGHT), st.integers(0, 40))
TAUS = st.floats(1e-3, 0.25)
LAMS = st.sampled_from([-1, 1])
SEEDS = st.integers(0, 2 ** 32 - 1)


def tight_grids(*rest):
    """Pin the TIGHT cutoffs as explicit examples (n, tau, lam, seed, *rest)
    of a property test."""
    def pin(test):
        for n in TIGHT:
            test = example(n, 2.0 ** -4, -1, n, *rest)(test)
        return test
    return pin


def standard(f, m):
    """The field's coefficients in standard order on m points."""
    return _standard(np.fft.ifftshift(f.coeffs), f.cutoff, m)


def unit_field(seed, cutoff):
    """Random field with unit coefficient norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    return SpectralField(cutoff, c / np.linalg.norm(c))


def one_step(u, lam, tau):
    return step(u, SchemeParams(lam=lam, tau=tau, cutoff=u.cutoff, steps=1),
                conserved_quantities(u))


def assert_close(a, b):
    assert l2_error(a, b) <= 1e-12 * sobolev_norm(b, 0.0)


def random_stack(cutoff, runs):
    """A stack of `runs` low-regularity plans of one cutoff on its product
    grid, and an (runs, m) state stack for it."""
    m = _pow2_grid_size(cutoff)
    fields = [unit_field(r, cutoff) for r in range(runs)]
    plans = [_plan_for(SchemeParams(-1, 2.0 ** -(4 + r), cutoff, 1), conserved_quantities(f),
                       cutoff, m)
             for r, f in enumerate(fields)]
    return _StepPlan.stacked(plans), np.stack([standard(f, m) for f in fields])


def with_blocks(*cases):
    """Parametrize (n, runs, block) over the cases (n, runs), each once with
    the module's block size (block None, whole rows) and once with blocks
    of 64 points, at which a grid of more points takes the blocked path of
    `apply`."""
    ids = [f"{n}-{runs}" for n, runs in cases]
    return pytest.mark.parametrize(
        "n, runs, block", [(*case, None) for case in cases] + [(*case, 64) for case in cases],
        ids=ids + [f"{i}-blocks" for i in ids])


def set_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(integrator, "_BLOCK_POINTS", block)


class TestStepMemory:
    """One step allocates its seven-row work block and its result, no more,
    and writes into nothing it was given, on whole rows and by blocks; its
    plan holds its twelve table rows on the points that `apply` reads."""

    # N = 2^13 goes by blocks at the module's block size too
    @with_blocks((1024, 1), (128, 6), (8192, 1))
    def test_one_apply_peaks_at_eight_rows(self, n, runs, block, monkeypatch):
        set_block(monkeypatch, block)
        stack, c = random_stack(n, runs)
        stack.apply(c)                    # FFT plans are cached by the first call
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stack.apply(c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # seven work rows and the result; the rest, views, the c_0 column
        # and `_zero_mode`'s list, measured 1.5-2.5 KB
        assert peak <= 8 * c.nbytes + 4096

    # whole rows of N = 2^12 (12800 points) read their tables on the row,
    # blocks of N = 2^13 (25600 points) on the window |k| <= N alone, a
    # padded run's too
    @pytest.mark.parametrize("cutoffs, points", [((4096,), 12800), ((8192,), 2 * 8192 + 1),
                                                 ((8192, 5000), 2 * 8192 + 1)])
    def test_plans_hold_twelve_rows_where_apply_reads(self, cutoffs, points, monkeypatch):
        plans = []

        def spy(*args, real=integrator._plan):
            plans.append(real(*args))
            return plans[-1]

        monkeypatch.setattr(integrator, "_plan", spy)
        fields = [unit_field(r, n) for r, n in enumerate(cutoffs)]
        runs = [SchemeParams(-1, 0.01, n, 1) for n in cutoffs]
        evolve_lockstep(fields, runs)
        if len(cutoffs) == 1:                 # `step` lays them by the same rule
            step(fields[0], runs[0], conserved_quantities(fields[0]))
        assert len(plans) == len(cutoffs) + (len(cutoffs) == 1)
        for plan in plans:
            tables = (plan.t1, plan.t3, plan.t4, plan.twist)
            assert sum(t.nbytes for t in tables) == 12 * points * 16
            n = plan.top
            assert not any(t[..., n + 1: points - n].any() for t in tables)

    @with_blocks((1024, 1), (128, 6), (0, 2))
    def test_apply_writes_only_its_result(self, n, runs, block, monkeypatch):
        set_block(monkeypatch, block)
        stack, c = random_stack(n, runs)
        tables = [stack.t1, stack.t3, stack.t4, stack.twist]
        before = [a.tobytes() for a in (c, *tables)]
        out = stack.apply(c)
        assert [a.tobytes() for a in (c, *tables)] == before
        assert not any(np.shares_memory(out, a) for a in (c, *tables))


def window_bytes(c, top):
    """The |k| <= top window of standard-order rows c, as bytes: the band
    beyond it may hold +0.0 on one path where the other has -0.0."""
    return _centered(c, top).tobytes()


class TestBlockedStep:
    """Rows longer than `integrator._BLOCK_POINTS` are stepped block by
    block, and the window by itself; the result is bitwise that of whole
    rows.  The block size is patched down so that small grids take it."""

    # cutoffs of a stack's runs, at blocks of at most 64 points: a window
    # end of 193 = 3 * 64 + 1 points in 4 blocks of 48 or 49; of 41 in one;
    # a stack of 128 and 64 padded on the 400-point grid of 128, its window
    # ends of 129 and 128 points in 3 and 2 blocks
    STACKS = {"several-blocks": (192,), "one-block": (40,), "padded": (128, 64)}

    def stacks(self, cutoffs, runs):
        """The cutoffs repeated over `runs` taus: the plan stack on the grid
        of the largest, its initial (R, m) states, the fields and runs."""
        cutoffs = [n for _ in range(runs) for n in cutoffs]
        m = _pow2_grid_size(max(cutoffs))
        fields = [unit_field(r, n) for r, n in enumerate(cutoffs)]
        params = [SchemeParams(-1, 2.0 ** -(4 + r % 3), n, 3 + r % 2)
                  for r, n in enumerate(cutoffs)]
        stack = _StepPlan.stacked([_plan_for(p, conserved_quantities(f), max(cutoffs), m)
                                   for p, f in zip(params, fields)])
        return stack, np.stack([standard(f, m) for f in fields]), fields, params

    def steps(self, cutoffs, runs):
        """Three steps of the stack, and the points of its tables."""
        stack, c, _, _ = self.stacks(cutoffs, runs)
        out = []
        for _ in range(3):
            c = stack.apply(c)
            out.append(c)
        return out, stack.t1.shape[-1]

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("cutoffs", STACKS.values(), ids=STACKS.keys())
    def test_blocks_give_the_rows_result(self, cutoffs, runs, monkeypatch):
        top = max(cutoffs)
        assert _pow2_grid_size(top) > 64
        rows, points = self.steps(cutoffs, runs)
        assert points == _pow2_grid_size(top)
        monkeypatch.setattr(integrator, "_BLOCK_POINTS", 64)
        # the plans the production rule lays on the window
        blocks, points = self.steps(cutoffs, runs)
        assert points == 2 * top + 1
        for a, b in zip(rows, blocks, strict=True):
            assert window_bytes(a, top) == window_bytes(b, top)
            assert np.all(b[:, top + 1: b.shape[-1] - top] == 0)

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("cutoffs", STACKS.values(), ids=STACKS.keys())
    def test_blocked_lockstep_runs_are_the_rows_runs(self, cutoffs, runs, monkeypatch):
        _, _, fields, params = self.stacks(cutoffs, runs)
        rows = evolve_lockstep(fields, params, diag_stride=1)
        monkeypatch.setattr(integrator, "_BLOCK_POINTS", 64)
        blocks = evolve_lockstep(fields, params, diag_stride=1)
        for a, b in zip(rows, blocks, strict=True):
            assert a.final.coeffs.tobytes() == b.final.coeffs.tobytes()
            assert a.diagnostics == b.diagnostics and a.h1_max == b.h1_max

    def test_a_stack_under_its_grid_top_blocks_as_its_rows(self, monkeypatch):
        # the one run of the grid's cutoff, 128, has no step, so the stack
        # steps the window |k| <= 100 of its runs, tables and all, on the
        # 400-point grid of 128
        cutoffs, steps = (128, 100, 64), (0, 3, 2)
        fields = [unit_field(r, n) for r, n in enumerate(cutoffs)]
        params = [SchemeParams(-1, 2.0 ** -5, n, j) for n, j in zip(cutoffs, steps)]
        rows = evolve_lockstep(fields, params, diag_stride=1)
        monkeypatch.setattr(integrator, "_BLOCK_POINTS", 64)
        blocks = evolve_lockstep(fields, params, diag_stride=1)
        for a, b in zip(rows, blocks, strict=True):
            assert a.final.coeffs.tobytes() == b.final.coeffs.tobytes()
            assert a.diagnostics == b.diagnostics and a.h1_max == b.h1_max

    def test_the_module_blocks_only_rows_past_its_size(self, monkeypatch):
        # 2^13 is the first power of two whose grid (25600 points) is cut
        assert _pow2_grid_size(4096) <= integrator._BLOCK_POINTS < _pow2_grid_size(8192)
        cut = []
        real = integrator._each

        def spy(spans, stage, *arrays):
            cut.append(spans is not None)
            return real(spans, stage, *arrays)

        monkeypatch.setattr(integrator, "_each", spy)
        for n in (4096, 8192):
            u = unit_field(n, n)
            step(u, SchemeParams(-1, 0.01, n, 1), conserved_quantities(u))
        assert cut == [False] * 6 + [True] * 6       # six passes a step


def built_stepper(scheme, n, runs, monkeypatch):
    """A Lie or Strang stepper of `runs` runs of cutoff n, warmed by one step
    (FFT plans are cached by the first call), an (runs, 2n+1) state stack,
    and what the stepper built: its drift table and its flows' workspace."""
    built = {}
    for name in ("_free_phase", "_flow_work"):
        def spy(*args, real=getattr(reference, name), name=name):
            built[name] = real(*args)
            return built[name]
        monkeypatch.setattr(reference, name, spy)
    stepper = _splitting_stepper(scheme, [SchemeParams(-1, 2.0 ** -(4 + r), n, 1)
                                          for r in range(runs)])
    c = np.stack([np.fft.ifftshift(unit_field(r, n).coeffs) for r in range(runs)])
    stepper(runs)(c)
    return stepper, c, built["_free_phase"], built["_flow_work"]


class TestSplittingMemory:
    """A splitting step runs its flows in its stepper's workspace: it
    allocates only a few (R, 2N+1) state stacks, and numpy's buffer for a
    table row broadcast over more than one run, and writes into nothing it
    was given."""

    @pytest.mark.parametrize("scheme", SPLITTINGS)
    @pytest.mark.parametrize("n, runs", [(1024, 1), (128, 3)])
    def test_one_step_peaks_at_its_states(self, scheme, n, runs, monkeypatch):
        stepper, c, _, _ = built_stepper(scheme, n, runs, monkeypatch)
        step = stepper(runs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 16 bytes a point: the (R, m) grid rows of the product grid of 2N.
        # One run reads 2.0-2.1 state stacks; three read 4.2-5.2, as numpy
        # buffers `g *= k1` and the like, up to a grid stack, when the row
        # multiplies a stack
        grid = runs * _pow2_grid_size(2 * n) * 16
        assert 3 * c.nbytes < grid
        assert peak <= 3 * c.nbytes + (grid if runs > 1 else 0)

    @pytest.mark.parametrize("scheme", SPLITTINGS)
    @pytest.mark.parametrize("n, runs", [(16, 1), (16, 3), (0, 1), (683, 1)])
    def test_step_writes_only_its_result(self, scheme, n, runs, monkeypatch):
        stepper, c, drift, work = built_stepper(scheme, n, runs, monkeypatch)
        given = (c, drift, *_chirp_tables(n)[1:])
        before = [a.tobytes() for a in given]
        out = stepper(runs)(c)
        assert [a.tobytes() for a in given] == before
        assert not any(np.shares_memory(out, a) for a in (*given, *work))

    # N = 0 multiplies one-element arrays, and at N = 2048 four runs hold
    # more than 256 KiB of states: numpy rounds a one-element product in
    # place, and `a * temporary` that large with its operands swapped, unlike
    # the out-of-place loop of another stack.  From N = 683 on the flows
    # pair, by N alone, so a stack pairs as its runs alone do
    @pytest.mark.parametrize("scheme", SPLITTINGS)
    @pytest.mark.parametrize("n", [0, 16, 683, 2048])
    def test_recut_stepper_matches_solo_runs(self, scheme, n, monkeypatch):
        stepper, c, _, _ = built_stepper(scheme, n, 4, monkeypatch)
        for rows in (4, 3, 2, 1):
            out = stepper(rows)(c[:rows])
            for r in range(rows):
                solo = _splitting_stepper(scheme, [SchemeParams(-1, 2.0 ** -(4 + r), n, 1)])
                assert out[r].tobytes() == solo(1)(c[r: r + 1])[0].tobytes()


class TestStepProperties:
    """Exact structure of the one-step map, over random N, tau and lambda."""

    @given(st.integers(1, 64), st.floats(200.0, 256.0).map(lambda e: 2.0 ** -e),
           st.floats(0.0, 1.0), LAMS, st.one_of(st.none(), SEEDS))
    @example(8, MIN_TAU, 1.0, -1, None)
    @example(64, MIN_TAU, 1.0, -1, None)
    def test_a_step_of_tiny_tau_keeps_its_input(self, n, tau, amplitude, lam, seed):
        # stage 1's rows scaled by sqrt(0.5i/tau) square to finite numbers
        # down to MIN_TAU, and so short a step leaves the state as it was:
        # the rough data (seed None) or a random field, at the amplitude
        if seed is None:
            u = initialize(InitialDataSpec(amplitude=amplitude), n)
        else:
            u = amplitude * unit_field(seed, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = step(u, SchemeParams(lam, tau, n, 1), conserved_quantities(u))
        assert np.max(np.abs(v.coeffs - u.coeffs)) <= 1e-15 * np.max(np.abs(u.coeffs))

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.floats(0.0, 2 * math.pi))
    @tight_grids(1.0)
    def test_phase_equivariance(self, n, tau, lam, seed, phi):
        u = unit_field(seed, n)
        rot = complex(np.exp(1j * phi))
        assert_close(one_step(rot * u, lam, tau), rot * one_step(u, lam, tau))

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.floats(-math.pi, math.pi))
    @tight_grids(1.0)
    def test_translation_equivariance(self, n, tau, lam, seed, a):
        def shift(f):  # f(x) -> f(x - a)
            return SpectralField(f.cutoff, np.exp(-1j * f.frequencies() * a) * f.coeffs)

        u = unit_field(seed, n)
        assert_close(one_step(shift(u), lam, tau), shift(one_step(u, lam, tau)))

    @given(CUTOFFS, TAUS, LAMS, SEEDS)
    @tight_grids()
    def test_reflection_equivariance(self, n, tau, lam, seed):
        def reflect(f):  # f(x) -> f(-x)
            return SpectralField(f.cutoff, f.coeffs[::-1])

        u = unit_field(seed, n)
        assert_close(one_step(reflect(u), lam, tau), reflect(one_step(u, lam, tau)))

    @given(CUTOFFS, TAUS, LAMS, SEEDS, st.integers(0, 8))
    @tight_grids(8)
    def test_matches_twisted_step(self, n, tau, lam, seed, idx):
        u = unit_field(seed, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        tn = idx * tau
        twisted = free_propagator(
            step_twisted(free_propagator(u, -tn), params, cq, idx), tn + tau
        )
        assert_close(twisted, step(u, params, cq))

    @given(CUTOFFS, TAUS, LAMS, SEEDS)
    @tight_grids()
    def test_matches_grid_free_oracle(self, n, tau, lam, seed):
        u = unit_field(seed, n)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
        oracle = psi_straight_line(u, params, cq, pn=convolution_product)
        assert_close(step(u, params, cq), oracle)


class TestTwistedCrossCheck:
    def test_equivalence_random_fields(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            n = int(rng.integers(2, 16))
            tau = float(rng.uniform(0.002, 0.1))
            lam = int(rng.choice([-1, 1]))
            u = random_field(rng, n)
            cq = conserved_quantities(u)
            params = SchemeParams(lam=lam, tau=tau, cutoff=n, steps=1)
            direct = step(u, params, cq)
            for idx in (0, 2, 7):
                tn = idx * tau
                tw = free_propagator(
                    step_twisted(free_propagator(u, -tn), params, cq, idx),
                    tn + tau,
                )
                rel = l2_error(direct, tw) / sobolev_norm(direct, 0.0)
                assert rel <= 1e-10

    def test_index_zero_matches_untwisted_composition(self):
        # at t_0 = 0 the twisted map IS the untwisted map conjugated by one
        # free flight
        rng = np.random.default_rng(6)
        u = random_field(rng, 8)
        cq = conserved_quantities(u)
        params = SchemeParams(lam=-1, tau=0.05, cutoff=8, steps=1)
        a = free_propagator(step_twisted(u, params, cq, 0), params.tau)
        b = step(u, params, cq)
        assert l2_error(a, b) / sobolev_norm(b, 0.0) <= 1e-12

    def test_negative_index_rejected(self):
        u = SpectralField.from_modes(4, {})
        params = SchemeParams(lam=-1, tau=0.1, cutoff=4, steps=1)
        with pytest.raises(ValueError):
            step_twisted(u, params, ConservedQuantities(0.0, 0.0), -1)


class TestClosedForms:
    @pytest.mark.parametrize("lam", [-1, 1])
    @pytest.mark.parametrize("c", [0.5 + 0.0j, 1.0 - 0.5j, 0.1j])
    def test_constant_one_step(self, lam, c):
        # Psi(c) = c (1 - i lam tau |c|^2) exactly
        tau = 0.02
        params = SchemeParams(lam=lam, tau=tau, cutoff=6, steps=1)
        u = SpectralField.from_modes(6, {0: c})
        out = step(u, params, conserved_quantities(u))
        expected = c * (1 - 1j * lam * tau * abs(c) ** 2)
        assert abs(out.coefficient(0) - expected) <= 1e-13
        assert sobolev_norm(nonzero_part(out), 0.0) <= 1e-13

    @pytest.mark.parametrize("lam", [-1, 1])
    def test_constant_evolution_first_order(self, lam):
        # u(t) = c exp(-i lam |c|^2 t); self-halving the step halves the error
        c = 0.8 - 0.3j
        horizon = 1.0
        errs = []
        for tau in (2.0 ** -6, 2.0 ** -7):
            params = SchemeParams.from_horizon(lam, tau, 4, horizon)
            u = SpectralField.from_modes(4, {0: c})
            traj = evolve(u, params)
            exact = c * np.exp(-1j * lam * abs(c) ** 2 * horizon)
            errs.append(abs(traj.final.coefficient(0) - exact))
        ratio = errs[0] / errs[1]
        assert 1.9 <= ratio <= 2.1

    @pytest.mark.parametrize("lam", [-1, 1])
    def test_plane_wave_evolution(self, lam):
        # u(t) = a e^{ix} e^{-i (1 + lam |a|^2) t}
        a, horizon = 0.7, 0.5
        errs = []
        for tau in (2.0 ** -6, 2.0 ** -7):
            params = SchemeParams.from_horizon(lam, tau, 8, horizon)
            u = initialize(InitialDataSpec(kind="plane", amplitude=a, mode=1), 8)
            traj = evolve(u, params)
            exact = SpectralField.from_modes(
                8, {1: a * np.exp(-1j * (1 + lam * a * a) * horizon)}
            )
            errs.append(l2_error(traj.final, exact))
        assert errs[0] <= 5e-3
        assert 1.8 <= errs[0] / errs[1] <= 2.2


class TestEvolve:
    def test_diagnostics(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        params = SchemeParams(lam=-1, tau=2.0 ** -5, cutoff=16, steps=32)
        traj = evolve(u, params, diag_stride=8)
        steps_seen = [d.step_index for d in traj.diagnostics]
        assert steps_seen == [0, 8, 16, 24, 32]
        assert all(0 < d.l2 <= d.h1 for d in traj.diagnostics)
        assert traj.h1_max >= max(d.h1 for d in traj.diagnostics) - 1e-15

    def test_norm_drift_small(self):
        # the twist multiplier and all ten terms keep the mass drift at the
        # size of the nonlinear increments, not of round-off growth
        u = initialize(InitialDataSpec(alpha=1.0), 32)
        params = SchemeParams(lam=-1, tau=2.0 ** -6, cutoff=32, steps=64)
        traj = evolve(u, params)
        last = traj.diagnostics[-1]
        assert last.mass_drift <= 1e-5
        assert last.momentum_drift <= 1e-5

    def test_single_mode_self_halving(self):
        # unit plane wave, focusing: no closed form survives the full map, so
        # compare each run against the next halving; the aggregate ratio over
        # tau = 2^-4 .. 2^-8 reads off first order
        u = initialize(InitialDataSpec(kind="plane", amplitude=1.0, mode=1), 256)
        finals = {}
        for j in range(4, 9):
            params = SchemeParams.from_horizon(-1, 2.0 ** -j, 256, 1.0)
            finals[j] = evolve(u, params).final
        errs = [l2_error(finals[j], finals[j + 1]) for j in range(4, 8)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        ratio = (errs[0] / errs[-1]) ** (1 / 3)
        assert 1.9 <= ratio <= 2.1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_initial_and_final_states(self, scheme):
        # the field passed in, uncopied, and the state after params.steps
        # single steps, bitwise
        u = unit_field(3, 8)
        params = SchemeParams.from_horizon(-1, 0.1, 8, 0.3)
        traj = solo_run(scheme, u, params)
        want, cq = u, conserved_quantities(u)
        for _ in range(params.steps):
            want = (step(want, params, cq) if scheme == "lowreg"
                    else splitting_step(want, params, SPLITTINGS[scheme]))
        assert traj.initial is u
        assert traj.final.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_of_no_steps_ends_where_it_starts(self, scheme):
        u = unit_field(3, 8)
        traj = solo_run(scheme, u, SchemeParams(lam=-1, tau=0.1, cutoff=8, steps=0))
        assert traj.initial is u
        assert traj.final.coeffs.tobytes() == u.coeffs.tobytes()
        assert [d.step_index for d in traj.diagnostics] == [0]

    @pytest.mark.parametrize("steps", [(0, 0), (0, 3)])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_runs_of_no_steps_build_no_plan_or_workspace(self, scheme, steps, monkeypatch):
        # a run with no step to take builds no plan of the low-regularity
        # step and no row of the splitting flows' workspace, nor does a
        # stack of such runs build a stepper at all
        built = []

        def spy(*args, real=reference._flow_work):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(reference, "_flow_work", spy)
        integrator._plan.cache_clear()
        fields = [unit_field(r, 8) for r in range(2)]
        runs = [SchemeParams(-1, 2.0 ** -(4 + r), 8, n) for r, n in enumerate(steps)]
        trajs = evolve_lockstep(fields, runs, diag_stride=1, scheme=scheme)
        stepping = sum(n > 0 for n in steps)
        info = integrator._plan.cache_info()
        if scheme == "lowreg":
            assert (info.misses, info.currsize, built) == (stepping, stepping, [])
        else:
            assert (info.misses, built) == (0, [(1, 8)] if stepping else [])
        for u, params, traj in zip(fields, runs, trajs, strict=True):
            if params.steps:
                alone = solo_run(scheme, u, params, diag_stride=1)
                assert traj.final.coeffs.tobytes() == alone.final.coeffs.tobytes()
                assert traj.diagnostics == alone.diagnostics
                continue
            assert traj.final.coeffs.tobytes() == u.coeffs.tobytes()
            [row] = traj.diagnostics
            assert row.step_index == 0 and traj.h1_max == row.h1 == sobolev_norm(u, 1.0)
            assert row.mass_drift == row.momentum_drift == 0.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negative_diag_stride_rejected(self, scheme):
        u = SpectralField.from_modes(4, {})
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match="diag_stride must be >= 0, got -2"):
            solo_run(scheme, u, params, diag_stride=-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_rejected(self, bad):
        u = SpectralField.from_modes(4, {1: 0.5, -2: bad})
        params = SchemeParams(lam=-1, tau=0.25, cutoff=4, steps=4)
        with pytest.raises(ValueError, match="finite"):
            evolve(u, params)

    def test_blow_up_names_the_run(self):
        c = 1e200
        u = SpectralField.from_modes(2, {0: c})
        params = SchemeParams(lam=-1, tau=0.5, cutoff=2, steps=10)
        with pytest.raises(BlowUpError) as info:
            evolve(u, params)
        err = info.value
        assert err.tau == 0.5 and err.time == err.step_index * 0.5
        # the initial H^1 norm, 2 pi 1e400, already overflows: the initial
        # state is step 0, and the run has no finite H^1
        assert err.step_index == 0 and math.isnan(err.last_h1)
        assert "tau = 0.5" in str(err) and "last finite H^1 was nan" in str(err)

    def test_a_run_that_cannot_start_builds_no_plan(self):
        # step 0 finds the initial H^1 norm not finite before any plan,
        # which would carry a nan twist, is built and cached
        integrator._plan.cache_clear()
        u = SpectralField.from_modes(4, {0: 1e200})
        with pytest.raises(BlowUpError) as info:
            evolve(u, SchemeParams(-1, 0.1, 4, 2))
        assert info.value.step_index == 0
        info = integrator._plan.cache_info()
        assert (info.misses, info.currsize) == (0, 0)
        # a run that starts builds its one plan
        evolve(SpectralField.from_modes(4, {0: 1.0}), SchemeParams(-1, 0.1, 4, 2))
        info = integrator._plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_blow_up_error_pickles(self):
        # a study's worker process sends it to the parent
        err = BlowUpError(3, 0.25, 1.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is BlowUpError
        assert (back.step_index, back.time, back.tau, back.last_h1) == (3, 0.75, 0.25, 1.0)
        assert str(back) == str(err)

    def test_blow_up_detection(self):
        # focusing constant state far above the blow-up scale, with a finite
        # initial H^1 norm, overflows the cubic zero-mode recursion within a
        # few steps
        c = 1e100
        u = SpectralField.from_modes(2, {0: c})
        params = SchemeParams(lam=-1, tau=1.0, cutoff=2, steps=10)
        with pytest.raises(BlowUpError) as info:
            evolve(u, params)
        assert info.value.step_index >= 1
        assert "step" in str(info.value)

    def test_deterministic(self):
        u = initialize(InitialDataSpec(alpha=1.0), 24)
        params = SchemeParams(lam=-1, tau=2.0 ** -5, cutoff=24, steps=16)
        a = evolve(u, params).final
        b = evolve(u, params).final
        assert np.array_equal(a.coeffs, b.coeffs)


class TestTrajectoryDump:
    def test_roundtrip(self, tmp_path):
        u = initialize(InitialDataSpec(alpha=1.0), 8)
        params = SchemeParams(lam=-1, tau=0.125, cutoff=8, steps=8)
        traj = evolve(u, params, diag_stride=2)
        out = tmp_path / "run"
        save_trajectory(traj, out)
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics.txt", "final.txt",
                                                         "initial.txt", "manifest.txt"]
        assert_same_trajectory(load_trajectory(out), traj)

    def test_numpy_floats_write_the_same_dump(self, tmp_path):
        # a trajectory a caller builds from numpy floats writes the bytes of
        # its Python-float twin, which read back bit-exactly
        traj = evolve(initialize(InitialDataSpec(alpha=1.0), 8),
                      SchemeParams(lam=-1, tau=0.125, cutoff=8, steps=8), diag_stride=2)
        twin = replace(traj, h1_max=np.float64(traj.h1_max), diagnostics=tuple(
            replace(row, **{name: np.float64(getattr(row, name))
                            for name in ("l2", "h1", "mass_drift", "momentum_drift")})
            for row in traj.diagnostics))
        assert "np.float64" in repr(twin.h1_max) and "np.float64" in repr(twin.diagnostics)
        save_trajectory(traj, tmp_path / "a")
        save_trajectory(twin, tmp_path / "b")
        for name in ("manifest.txt", "initial.txt", "final.txt", "diagnostics.txt"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        assert_same_trajectory(load_trajectory(tmp_path / "b"), traj)

    def test_manifest_keys(self, tmp_path):
        # each fact once: no horizon, state time, file name, wall time,
        # conserved quantity (those of the initial state) or row count
        u = SpectralField.from_modes(2, {0: 1.0})
        params = SchemeParams(lam=1, tau=0.5, cutoff=2, steps=2)
        traj = evolve(u, params)
        save_trajectory(traj, tmp_path / "d")
        text = (tmp_path / "d" / "manifest.txt").read_text()
        assert text == f"scheme=lowreg\nlambda=1\ntau=0.5\nN=2\nsteps=2\nh1_max={traj.h1_max!r}\n"
        # a row is "j l2 h1 mass_drift momentum_drift"; its time is j * tau
        assert (tmp_path / "d" / "diagnostics.txt").read_text() == "".join(
            f"{row.step_index} {row.l2!r} {row.h1!r} {row.mass_drift!r} {row.momentum_drift!r}\n"
            for row in traj.diagnostics)
        assert [row.step_index for row in traj.diagnostics] == [0, 2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError):
            load_trajectory(tmp_path)

    def dump(self, tmp_path):
        u = SpectralField.from_modes(2, {0: 1.0, 1: 0.5j})
        traj = evolve(u, SchemeParams(lam=1, tau=0.5, cutoff=2, steps=2), diag_stride=1)
        save_trajectory(traj, tmp_path / "d")
        return traj, tmp_path / "d" / "manifest.txt"

    def test_unknown_keys_ignored(self, tmp_path):
        # a horizon, a state's time, a file name, a wall time, the conserved
        # quantities and the numbered rows of older dumps are not in the
        # format: the loader ignores them, opens no path they name, and takes
        # its rows from diagnostics.txt alone, so a row count or a numbered
        # row adds or hides none
        traj, manifest = self.dump(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "final.txt").write_text("0.0 0.0\n" * 5)
        manifest.write_text(manifest.read_text() + "T=9\nwall_ms=12.5\nsnapshot_count=2\n"
                            "snapshot_1_time=1.0\nfinal_file=../elsewhere/final.txt\n"
                            "mass=5.0\nmomentum_imag=-7.0\ndiagnostic_count=2\n"
                            "diagnostic_0=0 1 2 3 4\ndiagnostic_2=7 1 2 3 4\n")
        assert_same_trajectory(load_trajectory(manifest.parent), traj)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        traj, manifest = self.dump(tmp_path)
        manifest.write_text("# a note\n\n" + manifest.read_text().replace("\n", "\n\n"))
        assert load_trajectory(manifest.parent).diagnostics == traj.diagnostics

    @pytest.mark.parametrize("line, key, match", [
        (None, "h1_max", "missing manifest key 'h1_max'"),
        (None, "scheme", "missing manifest key 'scheme'"),
        ("steps=7", "steps", "line 3: the diagnostics end at step 2, not at the manifest's "
         "steps=7$"),
        ("N=5", "N", "expected 11 lines for the manifest's N=5, got 5$"),
        ("tau=fast", "tau", "bad manifest entry tau='fast'"),
        ("tau=0", "tau", "bad manifest entry tau='0': tau must be a positive finite number"),
        ("lambda=0", "lambda", r"bad manifest entry lambda='0': lam must be -1 or \+1, got 0"),
        ("N=-1", "N", "bad manifest entry N='-1': cutoff must be >= 0, got -1"),
        ("steps=-1", "steps", "bad manifest entry steps='-1': steps must be >= 0, got -1"),
        ("h1_max=1 2", "h1_max", "bad manifest entry h1_max='1 2'"),
        ("h1_max=nan", "h1_max", "bad manifest entry h1_max='nan': 'nan' is not a finite number"),
        ("tau=0.0625", None, "manifest key 'tau' is given twice$"),
        ("scheme=rk4", "scheme", "bad manifest entry scheme='rk4': scheme must be one of"),
        ("just words", None, "malformed manifest line 'just words'"),
    ], ids=["missing", "no-scheme", "steps-of-rows", "N-of-states", "tau", "tau-range",
            "lambda-range", "N-range", "steps-range", "two-fields", "h1_max-nan", "tau-twice",
            "scheme", "no-equals"])
    def test_bad_manifest_named(self, tmp_path, line, key, match):
        # one ValueError that names the manifest (and the key), or, where the
        # manifest's N does not fit the states, the first state file, and
        # where its steps do not end the rows, diagnostics.txt: the CLI
        # prints it as its one error: line
        _, manifest = self.dump(tmp_path)
        lines = [ln for ln in manifest.read_text().splitlines()
                 if key is None or not ln.startswith(key + "=")]
        manifest.write_text("\n".join(lines + ([line] if line else [])) + "\n")
        with pytest.raises(ValueError, match=match) as info:
            load_trajectory(manifest.parent)
        at_fault = {"N=5": "initial.txt", "steps=7": "diagnostics.txt"}.get(line, "manifest.txt")
        assert str(info.value).startswith(f"{manifest.with_name(at_fault)}: ")

    @pytest.mark.parametrize("edit, match", [
        (lambda rows: [rows[0], "1 0.5", rows[2]], "line 2: expected 5 fields, got 2"),
        # a row of the older format, which also held the row's time
        (lambda rows: ["0 0.0 1 2 3 4", *rows[1:]], "line 1: expected 5 fields, got 6"),
        (lambda rows: [*rows[:2], "2 7.0 1 2 3 4"], "line 3: expected 5 fields, got 6"),
        (lambda rows: ["0.5 1 2 3 4", *rows[1:]], "line 1: invalid literal for int.*: '0.5'"),
        (lambda rows: ["-1 1 2 3 4", *rows[1:]], "line 1: step must be >= 0, got -1"),
        # a row step past float range is read as an int, and fails on row order
        (lambda rows: [rows[0], f"{10 ** 400} 1 2 3 4", rows[2]],
         f"line 3: step 2 does not come after step {10 ** 400}"),
        (lambda rows: [rows[0], "0 1 2 3 4", rows[2]],
         "line 2: step 0 does not come after step 0"),
        (lambda rows: [rows[0], rows[1], *rows[1:]], "line 3: step 1 does not come after step 1"),
        (lambda rows: [], "line 1: the diagnostics do not start at step 0"),
        (lambda rows: [*rows[:2], "2 nan 1 2 3"], "line 3: 'nan' is not a finite number"),
        (lambda rows: [rows[0], "1 1 inf 2 3", rows[2]], "line 2: 'inf' is not a finite number"),
        (lambda rows: ["0 1 2 1e400 3", *rows[1:]], "line 1: '1e400' is not a finite number"),
        (lambda rows: [*rows[:2], "2 1 2 3 -inf"], "line 3: '-inf' is not a finite number"),
    ], ids=["short-row", "long-row", "row-with-time", "float-step", "negative-step", "huge-step",
            "row-order", "row-twice", "no-rows", "row-l2-nan", "row-h1-inf",
            "row-mass-drift-huge", "row-momentum-drift-inf"])
    def test_bad_row_named(self, tmp_path, edit, match):
        # one ValueError that names diagnostics.txt and the line at fault
        _, manifest = self.dump(tmp_path)
        path = manifest.with_name("diagnostics.txt")
        path.write_text("".join(f"{ln}\n" for ln in edit(path.read_text().splitlines())))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}$"):
            load_trajectory(manifest.parent)

    @pytest.mark.parametrize("tau, steps", [(None, 10 ** 400), ("4.0", 10 ** 308)],
                             ids=["steps-past-float-range", "product-overflows"])
    def test_horizon_must_be_finite(self, tmp_path, tau, steps):
        # the last row at step `steps`, whose time j * tau is then no finite
        # float: the one error names steps
        _, manifest = self.dump(tmp_path)
        text = manifest.read_text().replace("steps=2\n", f"steps={steps}\n")
        if tau is not None:
            text = text.replace("tau=0.5\n", f"tau={tau}\n")
        manifest.write_text(text)
        rows = manifest.with_name("diagnostics.txt")
        rows.write_text(re.sub(r"(?m)^2 ", f"{steps} ", rows.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: bad manifest "
                           f"entry steps='{steps}': steps \\* tau .* is not a finite time$"):
            load_trajectory(manifest.parent)

    @pytest.mark.parametrize("rows, match", [
        (slice(1, None), "line 1: the diagnostics do not start at step 0"),
        (slice(None, -1), "line 2: the diagnostics end at step 1, not at the manifest's steps=2"),
    ], ids=["first-row", "last-row"])
    def test_rows_of_one_run(self, tmp_path, rows, match):
        # every run records its steps 0 and steps, so a dump without either
        # names no run
        traj, manifest = self.dump(tmp_path)
        save_trajectory(replace(traj, diagnostics=traj.diagnostics[rows]), manifest.parent)
        path = manifest.with_name("diagnostics.txt")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}$"):
            load_trajectory(manifest.parent)

    def with_states(self, traj, coeffs):
        """traj with both states holding coeffs, at their cutoff."""
        f = SpectralField((len(coeffs) - 1) // 2, np.array(coeffs, dtype=np.complex128))
        return replace(traj, params=replace(traj.params, cutoff=f.cutoff), initial=f, final=f)

    @given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=41).filter(lambda c: len(c) % 2 == 1))
    @example([complex(-0.0, -0.0)])
    @example([complex(5e-324, -1.7976931348623157e308), complex(-0.0, 2.2250738585072014e-308),
              complex(1.7976931348623157e308, -5e-324)])
    def test_state_round_trip_bit_exact(self, tmp_path_factory, coeffs):
        traj, manifest = self.dump(tmp_path_factory.mktemp("dump"))
        traj = self.with_states(traj, coeffs)
        save_trajectory(traj, manifest.parent)
        # bit patterns, so that -0.0 and 0.0 count as different
        assert_same_trajectory(load_trajectory(manifest.parent), traj)

    def test_state_text(self, tmp_path):
        # 2N+1 lines "re im" in ascending k, each value the repr of a float;
        # N is the manifest's, and k follows from the line
        traj, manifest = self.dump(tmp_path)
        coeffs = [complex(-0.0, 0.0), complex(1e-300, -2.5), complex(0.5, 5e-324)]
        save_trajectory(self.with_states(traj, coeffs), manifest.parent)
        for name in ("initial.txt", "final.txt"):
            assert manifest.with_name(name).read_text() == "-0.0 0.0\n1e-300 -2.5\n0.5 5e-324\n"
        assert "N=1\n" in manifest.read_text()

    @pytest.mark.parametrize("text, match", [
        ("", "expected 5 lines for the manifest's N=2, got 0$"),
        ("0.0 0.0\n" * 4, "expected 5 lines for the manifest's N=2, got 4$"),
        ("0.0 0.0\n" * 6, "expected 5 lines for the manifest's N=2, got 6$"),
        # the older format: a header "N 2", then lines "k re im"
        ("N 2\n" + "".join(f"{k} 0.0 0.0\n" for k in range(-2, 3)),
         "line 1: could not convert string to float: 'N'$"),
        ("0.0 0.0\n0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n", "line 2: expected 2 fields, got 1$"),
        ("0.0 0.0\n" * 2 + "0 0.0 0.0\n" + "0.0 0.0\n" * 2, "line 3: expected 2 fields, got 3$"),
        ("0.0 0.0\n" * 4 + "0.0 x\n", "line 5: could not convert string to float: 'x'$"),
        ("nan 0.0\n" + "0.0 0.0\n" * 4, "line 1: 'nan' is not a finite number$"),
        ("0.0 0.0\n0.0 inf\n" + "0.0 0.0\n" * 3, "line 2: 'inf' is not a finite number$"),
        ("0.0 0.0\n" * 4 + "-1e400 0.0\n", "line 5: '-1e400' is not a finite number$"),
    ], ids=["empty", "short", "long", "old-format", "one-field", "three-fields", "non-float",
            "nan", "inf", "overflow"])
    def test_bad_state_named(self, tmp_path, text, match):
        # one ValueError that names the state file, and the line if one is bad
        _, manifest = self.dump(tmp_path)
        path = manifest.with_name("final.txt")
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}"):
            load_trajectory(manifest.parent)


def assert_same_trajectory(a, b):
    """a and b hold the same run and the same numbers, bit for bit."""
    assert (a.params, a.scheme) == (b.params, b.scheme)
    assert repr((a.diagnostics, a.h1_max)) == repr((b.diagnostics, b.h1_max))
    for f, g in ((a.initial, b.initial), (a.final, b.final)):
        assert (f.cutoff, f.coeffs.tobytes()) == (g.cutoff, g.coeffs.tobytes())


@st.composite
def short_runs(draw):
    """(scheme, initial field, params, diag_stride) of a short run."""
    scheme = draw(st.sampled_from(SCHEMES))
    params = SchemeParams(draw(LAMS), draw(st.sampled_from([0.5, 0.25, 0.1, 2.0 ** -3])),
                          draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    u = random_field(np.random.default_rng(draw(SEEDS)), params.cutoff, 0.3)
    return scheme, u, params, draw(st.integers(0, 4))


@given(run=short_runs())
def test_dump_round_trip(run):
    scheme, u, params, stride = run
    traj = solo_run(scheme, u, params, diag_stride=stride)
    with tempfile.TemporaryDirectory() as d:
        save_trajectory(traj, d)
        assert_same_trajectory(load_trajectory(d), traj)


def _params(**kw):
    return SchemeParams(**{"lam": -1, "tau": 0.25, "cutoff": 2, "steps": 4, **kw})


ZERO = SpectralField.from_modes(2, {})
CQ = ConservedQuantities(0.0, 0.0)


class TestBoundaryChecks:
    """Each integer passed in goes through one rule: integers of any type
    pass, anything else raises a ValueError naming the parameter."""

    @pytest.mark.parametrize("call, match", [
        (lambda: SchemeParams(-1.5, 0.1, 2.9, 3.7), "lam must be -1 or +1, got -1.5"),
        (lambda: SchemeParams(0, 0.1, 2, 3), "lam must be -1 or +1, got 0"),
        (lambda: _params(cutoff=2.9), "cutoff must be an integer, got 2.9"),
        (lambda: _params(cutoff=2.0), "cutoff must be an integer, got 2.0"),
        (lambda: _params(steps=3.7), "steps must be an integer, got 3.7"),
        (lambda: _params(steps="4"), "steps must be an integer, got '4'"),
        (lambda: SpectralField(2.5, np.ones(6)), "cutoff must be an integer, got 2.5"),
        (lambda: SpectralField.from_modes(2.5, {}), "cutoff must be an integer, got 2.5"),
        (lambda: SpectralField.from_modes(-1, {}), "cutoff must be >= 0, got -1"),
        (lambda: project(ZERO, 1.0), "cutoff must be an integer, got 1.0"),
        (lambda: project(ZERO, -1), "cutoff must be >= 0, got -1"),
        (lambda: coefficients(InitialDataSpec(), 2.5), "cutoff must be an integer, got 2.5"),
        (lambda: coefficients(InitialDataSpec(), -1), "cutoff must be >= 0, got -1"),
        (lambda: initialize(InitialDataSpec(), 3.0), "cutoff must be an integer, got 3.0"),
        (lambda: initialize(InitialDataSpec(), -1), "cutoff must be >= 0, got -1"),
        (lambda: InitialDataSpec(kind="plane", mode=1.5), "mode must be an integer, got 1.5"),
        (lambda: evolve(ZERO, _params(), diag_stride=1.5),
         "diag_stride must be an integer, got 1.5"),
        (lambda: step_twisted(ZERO, _params(), CQ, 0.5), "step index must be an integer, got 0.5"),
        (lambda: step_twisted(ZERO, _params(), CQ, -1), "step index must be >= 0, got -1"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2.5, 4)),
         "cutoffs must be an integer, got 2.5"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, 4), jobs=1.9),
         "jobs must be an integer, got 1.9"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, 4), lam=-1.5),
         "lam must be -1 or +1, got -1.5"),
    ])
    def test_rejected_naming_the_parameter(self, call, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()

    # Python's bool is an int, but no count, cutoff or order is True
    @pytest.mark.parametrize("call, name", [
        (lambda: SpectralField(True, np.ones(3)), "cutoff"),
        (lambda: SpectralField.from_modes(True, {}), "cutoff"),
        (lambda: _params(cutoff=True), "cutoff"),
        (lambda: project(ZERO, True), "cutoff"),
        (lambda: initialize(InitialDataSpec(), True), "cutoff"),
        (lambda: _params(steps=True), "steps"),
        (lambda: evolve(ZERO, _params(), diag_stride=True), "diag_stride"),
        (lambda: splitting_step(ZERO, _params(), True), "splitting order"),
        (lambda: splitting_evolve(ZERO, _params(), True), "splitting order"),
        (lambda: step_twisted(ZERO, _params(), CQ, True), "step index"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, True)), "cutoffs"),
        (lambda: StudySpec(axis="spatial", taus=(0.1,), cutoffs=(2, 4), jobs=True), "jobs"),
        (lambda: InitialDataSpec(kind="plane", mode=True), "mode"),
    ], ids=["field-cutoff", "from-modes-cutoff", "params-cutoff", "project-cutoff",
            "initialize-cutoff", "steps", "diag-stride", "step-order", "evolve-order",
            "step-index", "study-cutoffs", "study-jobs", "plane-mode"])
    def test_bool_is_no_integer(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            call()

    def test_numpy_integers_pass(self):
        u = initialize(InitialDataSpec(), np.int64(4))
        assert np.array_equal(u.coeffs, coefficients(InitialDataSpec(), np.int32(4)))
        params = SchemeParams(np.int64(-1), 0.25, np.int64(4), np.int64(4))
        assert params == SchemeParams(-1, 0.25, 4, 4)
        assert all(type(v) is int for v in (params.lam, params.cutoff, params.steps))
        f = SpectralField(np.int64(4), u.coeffs)
        assert type(f.cutoff) is int and project(f, np.int16(6)).cutoff == 6
        a = evolve(u, params, diag_stride=np.int64(2))
        assert a.diagnostics == evolve(u, params, diag_stride=2).diagnostics
        twisted = step_twisted(u, params, conserved_quantities(u), np.int64(1))
        assert np.array_equal(twisted.coeffs,
                              step_twisted(u, params, conserved_quantities(u), 1).coeffs)
        spec = StudySpec(axis="spatial", taus=(0.1,), cutoffs=(np.int64(8), 16),
                         jobs=np.int64(2), lam=np.int64(1))
        assert spec.cutoffs == (8, 16) and spec.jobs == 2 and spec.lam == 1

    # one rule per value type: a finite real (no bool, no string) for tau and
    # horizon, a real -1 or +1 (no bool) for lam, an integer splitting order
    @pytest.mark.parametrize("call, match", [
        (lambda: SchemeParams(True, 0.1, 4, 1), "lam must be -1 or +1, got True"),
        (lambda: SchemeParams(np.True_, 0.1, 4, 1), "lam must be -1 or +1, got True"),
        (lambda: SchemeParams(False, 0.1, 4, 1), "lam must be -1 or +1, got False"),
        (lambda: SchemeParams(-1, "0.1", 4, 1), "tau must be a real number, got '0.1'"),
        (lambda: SchemeParams(-1, True, 4, 1), "tau must be a real number, got True"),
        (lambda: SchemeParams(-1, None, 4, 1), "tau must be a real number, got None"),
        (lambda: SchemeParams(-1, 0.1 + 0j, 4, 1), "tau must be a real number, got (0.1+0j)"),
        (lambda: SchemeParams(-1, -math.inf, 4, 1),
         "tau must be a positive finite number, got -inf"),
        (lambda: SchemeParams(-1, np.float64(math.nan), 4, 1),
         "tau must be a positive finite number, got nan"),
        # below MIN_TAU a step's scaled squares overflow into a false blow-up
        (lambda: SchemeParams(-1, 2.0 ** -257, 4, 1),
         f"tau must be >= MIN_TAU = 2^-256, got {2.0 ** -257!r}"),
        (lambda: SchemeParams(-1, 1e-300, 4, 1), "tau must be >= MIN_TAU = 2^-256, got 1e-300"),
        (lambda: SchemeParams(-1, 5e-324, 4, 1), "tau must be >= MIN_TAU = 2^-256, got 5e-324"),
        (lambda: SchemeParams.from_horizon(-1, 0.25, 4, "1"),
         "horizon must be a real number, got '1'"),
        (lambda: SchemeParams.from_horizon(-1, 0.25, 4, True),
         "horizon must be a real number, got True"),
        (lambda: splitting_step(ZERO, _params(), 1.0), "splitting order must be an integer, got 1.0"),
        (lambda: splitting_step(ZERO, _params(), "2"), "splitting order must be an integer, got '2'"),
        (lambda: splitting_step(ZERO, _params(), 3), "splitting order must be 1 or 2, got 3"),
        (lambda: splitting_evolve(ZERO, _params(), 2.0),
         "splitting order must be an integer, got 2.0"),
    ], ids=["lam-true", "lam-numpy-true", "lam-false", "tau-string", "tau-bool", "tau-none",
            "tau-complex", "tau-minus-inf", "tau-numpy-nan", "tau-below-floor", "tau-1e-300",
            "tau-subnormal", "horizon-string", "horizon-bool",
            "step-order-float", "step-order-string", "step-order-three", "evolve-order-float"])
    def test_hostile_value_rejected(self, call, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()

    def test_numpy_reals_pass(self):
        params = SchemeParams(-1, np.float32(0.25), 4, 1)
        assert type(params.tau) is float and params == SchemeParams(-1, 0.25, 4, 1)
        assert SchemeParams.from_horizon(-1, 0.25, 4, np.float64(1.0)).steps == 4

    @pytest.mark.parametrize("tau", [0.0, -0.25, math.inf, math.nan])
    def test_from_horizon_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be a positive finite number"):
            SchemeParams.from_horizon(-1, tau, 2, 1.0)

    # a field may hold nan or inf (`SpectralField`), but no map of the scheme
    # takes one: it used to return nan silently or warn from numpy
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.inf)],
                             ids=["nan", "inf", "minus-inf", "imag-inf"])
    @pytest.mark.parametrize("call, name", [
        (lambda u: step(u, _params(), CQ), "f"),
        (lambda u: step_twisted(u, _params(), CQ, 1), "f"),
        (lambda u: splitting_step(u, _params(), 2), "f"),
        (lambda u: dealiased_product(u, ZERO), "f"),
        (lambda u: dealiased_product(ZERO, u), "g"),
    ], ids=["step", "step-twisted", "splitting-step", "product-f", "product-g"])
    def test_non_finite_field_rejected(self, call, name, bad):
        u = SpectralField.from_modes(2, {0: 0.5, 1: bad})
        with pytest.raises(ValueError, match=f"^{name} must have finite coefficients$"):
            call(u)

    def test_twisted_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field cutoff 2 != params cutoff 3"):
            step_twisted(ZERO, _params(cutoff=3), CQ, 0)

    def test_lockstep_of_no_runs_rejected(self):
        with pytest.raises(ValueError, match="one or more"):
            evolve_lockstep([], [])


def dump_of_scheme(tmp_path, name):
    """A dump whose manifest names the scheme name."""
    save_trajectory(evolve(ZERO, _params()), tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.txt"
    manifest.write_text(re.sub(r"(?m)^scheme=.*$", f"scheme={name}", manifest.read_text()))
    return manifest.parent


@pytest.mark.parametrize("entry", [
    lambda tmp_path: StudySpec(axis="spatial", taus=(0.25,), cutoffs=(2, 4), scheme="rk4"),
    lambda tmp_path: evolve_lockstep([ZERO], [_params()], scheme="rk4"),
    lambda tmp_path: load_trajectory(dump_of_scheme(tmp_path, "rk4")),
], ids=["StudySpec", "evolve_lockstep", "load_trajectory"])
def test_one_scheme_rule(entry, tmp_path):
    # every entry point checks a scheme name by one rule, with one message;
    # load_trajectory puts the manifest and key in front of it
    with pytest.raises(ValueError) as info:
        entry(tmp_path)
    assert str(info.value).endswith(
        "scheme must be one of ('lowreg', 'lie', 'strang'), got 'rk4'")


TAU_SETS = st.lists(TAUS, min_size=1, max_size=4, unique=True)


def solo_run(scheme, u, params, **kw):
    """The run alone: `evolve`, or `splitting_evolve` of the scheme's order."""
    if scheme == "lowreg":
        return evolve(u, params, **kw)
    return splitting_evolve(u, params, SPLITTINGS[scheme], **kw)


class TestLockstep:
    """A stack of runs advances each run exactly as it would advance alone."""

    @given(st.lists(st.tuples(CUTOFFS, TAUS), min_size=1, max_size=4), LAMS, SEEDS)
    @example([(0, 0.25)], -1, 0)
    @example([(21, 0.1), (21, 2.0 ** -4), (21, 2.0 ** -7), (21, 0.2)], 1, 3)
    @example([(33, 0.1), (12, 2.0 ** -4), (0, 0.2), (33, 2.0 ** -7)], -1, 5)
    def test_stacked_apply_matches_rows(self, runs, lam, seed):
        # runs of any cutoffs, on the grid of the largest
        top = max(n for n, _ in runs)
        m = _pow2_grid_size(top)
        fields = [unit_field(seed + r, n) for r, (n, _) in enumerate(runs)]
        plans = [_plan_for(SchemeParams(lam, tau, f.cutoff, 1), conserved_quantities(f), top, m)
                 for f, (_, tau) in zip(fields, runs)]
        stack = _StepPlan.stacked(plans)
        c = np.stack([standard(f, m) for f in fields])
        for rows in range(1, len(runs) + 1):
            out = stack.head(rows).apply(c[:rows])
            assert out.shape == (rows, m)
            for r in range(rows):
                assert out[r].tobytes() == plans[r].apply(c[r: r + 1])[0].tobytes()

    @given(CUTOFFS, st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True),
           LAMS, SEEDS, st.integers(0, 3), st.sampled_from(SCHEMES))
    @example(33, [12, 7, 3, 0], -1, 1, 1, "lowreg")
    @example(33, [12, 7, 3, 0], -1, 1, 1, "lie")
    @example(33, [12, 7, 3, 0], 1, 1, 1, "strang")
    def test_lockstep_runs_match_solo_runs(self, n, counts, lam, seed, stride, scheme):
        # the final states bitwise, and the states between through their
        # diagnostics, every step's at stride 1
        u = unit_field(seed, n)
        horizon = 0.375
        runs = [SchemeParams(lam, horizon / max(s, 1), n, s) for s in counts]
        stacked = evolve_lockstep([u] * len(runs), runs, stride, scheme=scheme)
        for params, traj in zip(runs, stacked):
            solo = solo_run(scheme, u, params, diag_stride=stride)
            assert traj.scheme == solo.scheme == scheme
            assert traj.params == params and traj.initial is u
            assert traj.final.coeffs.tobytes() == solo.final.coeffs.tobytes()
            assert traj.diagnostics == solo.diagnostics
            assert traj.h1_max == solo.h1_max

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shorter_run_final_is_a_state_of_the_longer(self, scheme):
        # two runs at one tau: the shorter's final state, stepped on to the
        # longer's step count, is the longer's final state, bitwise
        u = unit_field(4, 8)
        short, long = SchemeParams(-1, 0.25, 8, 2), SchemeParams(-1, 0.25, 8, 5)
        a, b = evolve_lockstep([u, u], [short, long], 1, scheme=scheme)
        state, cq = a.final, conserved_quantities(u)
        for _ in range(long.steps - short.steps):
            state = (step(state, long, cq) if scheme == "lowreg"
                     else splitting_step(state, long, SPLITTINGS[scheme]))
        assert state.coeffs.tobytes() == b.final.coeffs.tobytes()
        assert a.diagnostics == b.diagnostics[:short.steps + 1]

    def test_entry_keeps_the_order_of_its_runs(self):
        u = initialize(InitialDataSpec(alpha=1.0), 16)
        runs = [SchemeParams.from_horizon(-1, tau, 16, 0.5)
                for tau in (2.0 ** -3, 2.0 ** -5, 2.0 ** -4)]
        trajs = evolve_lockstep([u] * len(runs), runs)
        assert [t.params for t in trajs] == runs
        for params, traj in zip(runs, trajs):
            assert traj.final.coeffs.tobytes() == evolve(u, params).final.coeffs.tobytes()

    def test_entry_rejects_mixed_runs(self):
        u = initialize(InitialDataSpec(alpha=1.0), 8)
        u16 = initialize(InitialDataSpec(alpha=1.0), 16)
        with pytest.raises(ValueError, match="share"):
            evolve_lockstep([u, u], [SchemeParams(-1, 0.1, 8, 2), SchemeParams(1, 0.2, 8, 2)])
        with pytest.raises(ValueError, match="cutoff"):
            evolve_lockstep([u], [SchemeParams(-1, 0.1, 16, 2)])
        # the 4N+1 collocation aliases differently at each N, so splitting
        # runs never ride zero-padded in a larger cutoff's stack
        for scheme in SPLITTINGS:
            with pytest.raises(ValueError, match="run 1 has cutoff 16, but splitting runs "
                               "stepped together must share cutoff 8"):
                evolve_lockstep([u, u16], [SchemeParams(-1, 0.1, 8, 2),
                                           SchemeParams(-1, 0.1, 16, 2)], scheme=scheme)
        with pytest.raises(ValueError, match=r"scheme must be one of \('lowreg', 'lie', "
                           r"'strang'\), got 'rk4'"):
            evolve_lockstep([u], [SchemeParams(-1, 0.1, 8, 2)], scheme="rk4")

    @pytest.mark.parametrize("scheme,amplitude", [
        ("lowreg", 1e2), ("lowreg", 1e6), ("lie", 1e200), ("strang", 1e200)])
    def test_blow_up_in_a_stack_names_the_run(self, scheme, amplitude):
        # focusing, large data: the low-regularity runs blow up after 3 to 5
        # steps, the coarsest first.  A splitting step never raises the l2
        # norm, so its runs blow up only from a state whose square
        # overflows: the initial state, so all at step 0 with no finite
        # H^1.  The stack raises for
        # the first run to blow up in lockstep, exactly as that run alone
        u = SpectralField.from_modes(2, {0: amplitude, 1: amplitude / 3})
        runs = [SchemeParams.from_horizon(-1, tau, 2, 4.0)
                for tau in (1.0, 0.25, 2.0 ** -4, 2.0 ** -6)]
        solo = {}
        for params in runs:
            with pytest.raises(BlowUpError) as info:
                solo_run(scheme, u, params)
            solo[params.tau] = info.value
        with pytest.raises(BlowUpError) as info:
            evolve_lockstep([u] * len(runs), runs, scheme=scheme)
        err = info.value
        want = solo[err.tau]
        assert (err.step_index, err.time, err.tau) == (want.step_index, want.time, want.tau)
        assert repr(err.last_h1) == repr(want.last_h1)
        assert err.step_index == min(e.step_index for e in solo.values())
        assert str(err) == str(want)


@st.composite
def near_overflow_runs(draw):
    """(scheme, initial field, SchemeParams): a few modes of amplitude
    1e50..1e200 at a cutoff of 1..8, whose squares, products or H^1 norm
    leave floating point range within 0..6 steps, or stay just inside it."""
    cutoff = draw(st.integers(1, 8))
    modes = draw(st.dictionaries(
        st.integers(-cutoff, cutoff),
        st.builds(lambda e, phase: 10.0 ** e * np.exp(1j * phase),
                  st.floats(50.0, 200.0), st.floats(0.0, 2 * math.pi)),
        min_size=1, max_size=3))
    params = SchemeParams(draw(LAMS), draw(st.sampled_from([1.0, 0.25, 2.0 ** -4, 2.0 ** -7])),
                          cutoff, draw(st.integers(1, 6)))
    return draw(st.sampled_from(SCHEMES)), SpectralField.from_modes(cutoff, modes), params


def first_non_finite_h1(scheme, u, params):
    """The first step j whose state has a non-finite H^1 norm, or None, by
    the one-step maps outside any driver, which owns no floating-point state
    for them."""
    f = u
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(params.steps + 1):
            if j:
                f = (step(f, params, cq) if scheme == "lowreg"
                     else splitting_step(f, params, SPLITTINGS[scheme]))
            if not math.isfinite(sobolev_norm(f, 1)):
                return j
            if j == 0:
                cq = conserved_quantities(u)
    return None


class TestTauLimit:
    """The explicit map has a tau limit set by the size of the data, not by
    N: the rough data at amplitude 1 (alpha = 1, lam = -1) blow up at
    tau = 2^-5 at step 16 for every N, N = 2^13 on blocks included."""

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096, 8192])
    def test_blow_up_step_does_not_depend_on_n(self, n):
        u = initialize(InitialDataSpec(alpha=1.0, amplitude=1.0), n)
        with pytest.raises(BlowUpError) as info:
            evolve(u, SchemeParams.from_horizon(-1, 2.0 ** -5, n, 1.0))
        assert info.value.step_index == 16


class TestUniformInN:
    """The paper's claim where it separates the schemes: on the rough data
    at amplitude 1 (alpha = 1, lam = -1, N = 2048, T = 0.5, tau = 2^-8),
    the low-regularity H^1 maximum is already that of a finer tau, while
    the splittings', at this N, is far above it.  The splittings' flows
    run paired here."""

    # the low-regularity H^1 maximum at tau = 2^-10, its tau/4 run, which
    # read 10.544982989881015 (numpy 2.4.6); tau = 2^-8 reads 10.570, Lie
    # 30.63 and Strang 28.50
    FINE_H1_MAX = 10.545

    def test_h1_maximum(self):
        n = 2048
        u = initialize(InitialDataSpec(alpha=1.0, amplitude=1.0), n)
        params = SchemeParams.from_horizon(-1, 2.0 ** -8, n, 0.5)
        lowreg = evolve(u, params).h1_max
        assert abs(lowreg - self.FINE_H1_MAX) <= 0.01 * self.FINE_H1_MAX
        for order in (1, 2):
            assert splitting_evolve(u, params, order).h1_max >= 2 * lowreg


class TestBlowUpDetector:
    """The per-step H^1 check is the detector of every overflow or nan in a
    step: a run near the overflow edge warns of nothing, and either ends
    finite or raises BlowUpError at the first step whose H^1 is not finite."""

    @given(near_overflow_runs())
    @example(("lowreg", SpectralField.from_modes(2, {0: 1e100}), SchemeParams(-1, 1.0, 2, 6)))
    def test_h1_check_is_the_detector(self, run):
        scheme, u, params = run
        want = first_non_finite_h1(scheme, u, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                [traj] = evolve_lockstep([u], [params], diag_stride=1, scheme=scheme)
            except BlowUpError as exc:
                assert exc.step_index == want
                return
        assert want is None
        assert np.all(np.isfinite(traj.final.coeffs))
        assert math.isfinite(traj.h1_max)
        assert len(traj.diagnostics) == params.steps + 1
        for row in traj.diagnostics:
            assert all(map(math.isfinite, (row.l2, row.h1, row.mass_drift, row.momentum_drift)))


@st.composite
def cutoff_pairs(draw):
    """(N, L) with N <= L <= 2N (L <= 1 at N = 0): a cutoff and the larger
    one whose stack its runs ride in."""
    n = draw(CUTOFFS)
    return n, draw(st.integers(n, max(2 * n, 1)))


def tight_pairs(*rest):
    """Pin pairs whose L is a TIGHT cutoff, and pairs (TIGHT, 2 TIGHT)."""
    def pin(test):
        for t in TIGHT:
            test = example(((t + 1) // 2, t), *rest)(test)
            test = example((t, 2 * t), *rest)(test)
        return test
    return pin


def assert_diagnostics_close(got, want, cq, cutoff):
    """Diagnostics equal to round-off: norms relative, each drift against
    the size of the terms it sums, the masses then and at the start (times
    the cutoff for the momentum)."""
    assert [d.step_index for d in got] == [d.step_index for d in want]
    for a, b in zip(got, want):
        assert abs(a.l2 - b.l2) <= 1e-13 * b.l2
        assert abs(a.h1 - b.h1) <= 1e-13 * b.h1
        mass = b.l2 ** 2 / (2.0 * math.pi) + cq.mass
        assert abs(a.mass_drift - b.mass_drift) <= 1e-13 * mass
        assert abs(a.momentum_drift - b.momentum_drift) <= 1e-13 * mass * max(cutoff, 1)


class TestPaddedLockstep:
    """Runs of a cutoff N ride zero-padded in the stack of a cutoff L >= N,
    on L's product grid, and advance as they would alone, to round-off."""

    @given(cutoff_pairs(), st.lists(TAUS, min_size=1, max_size=4, unique=True), LAMS,
           SEEDS)
    @tight_pairs([2.0 ** -4, 0.2], -1, 7)
    @example((0, 0), [0.25], 1, 0)
    @example((0, 1), [0.25, 0.1], -1, 0)
    def test_padded_rows_stay_zero_beyond_their_cutoff(self, pair, taus, lam, seed):
        n, top = pair
        m = _pow2_grid_size(top)
        fields = [unit_field(seed + r, cutoff) for r, cutoff in enumerate((n, top) * len(taus))]
        runs = [SchemeParams(lam, tau, f.cutoff, 1) for tau, f in zip(np.repeat(taus, 2), fields)]
        cqs = [conserved_quantities(f) for f in fields]
        stack = _StepPlan.stacked([_plan_for(p, q, top, m) for p, q in zip(runs, cqs)])
        c = np.stack([standard(f, m) for f in fields])
        own = fields
        for _ in range(3):
            c = stack.apply(c)
            own = [step(f, p, q) for f, p, q in zip(own, runs, cqs)]
            for row, want in zip(c, own):
                # standard order: |k| <= N_r at both ends, zeros between
                assert np.all(row[want.cutoff + 1: m - want.cutoff] == 0)
                got = _centered(row, want.cutoff)
                assert np.linalg.norm(got - want.coeffs) <= 1e-13 * np.linalg.norm(want.coeffs)

    @given(cutoff_pairs(), st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True),
           LAMS, SEEDS, st.integers(0, 3))
    @tight_pairs([12, 7, 3, 0], -1, 1, 1)
    @example((0, 0), [3, 1], 1, 0, 1)
    @example((0, 1), [4, 0], -1, 0, 1)
    def test_padded_runs_match_solo_runs(self, pair, counts, lam, seed, stride):
        n, top = pair
        horizon = 0.375
        runs = [SchemeParams(lam, horizon / max(s, 1), cutoff, s)
                for s in counts for cutoff in (n, top)]
        fields = {n: unit_field(seed, n), top: unit_field(seed + 1, top)}
        stacked = evolve_lockstep([fields[p.cutoff] for p in runs], runs, stride)
        for params, traj in zip(runs, stacked, strict=True):
            u = fields[params.cutoff]
            solo = evolve(u, params, diag_stride=stride)
            assert traj.params == params and traj.initial is u
            assert traj.final.cutoff == params.cutoff
            assert l2_error(traj.final, solo.final) <= 1e-13 * sobolev_norm(solo.final, 0.0)
            assert_diagnostics_close(traj.diagnostics, solo.diagnostics,
                                     conserved_quantities(u), params.cutoff)
            assert abs(traj.h1_max - solo.h1_max) <= 1e-13 * solo.h1_max

    @pytest.mark.parametrize("pair", [(8, 16), (21, 33)], ids=["8-in-16", "21-in-33"])
    def test_diagnostics_sum_the_run_own_modes(self, pair):
        # a row between the ends sums |c_k|^2 over the run's own |k| <= N, as
        # `conserved_quantities` of its state does, bitwise; the stack of one
        # step reaches that state bitwise, as it steps the same rows
        fields = [unit_field(r, cutoff) for r, cutoff in enumerate(pair)]
        two, one = (evolve_lockstep(fields, [SchemeParams(-1, 0.1, f.cutoff, steps)
                                             for f in fields], diag_stride=1)
                    for steps in (2, 1))
        for a, b, u in zip(two, one, fields):
            now, start = conserved_quantities(b.final), conserved_quantities(u)
            assert (a.diagnostics[1].mass_drift, a.diagnostics[1].momentum_drift) == (
                abs(now.mass - start.mass), abs(now.momentum_imag - start.momentum_imag))


class TestLockstepBoundary:
    """The per-run form of evolve_lockstep names the run it rejects."""

    def setup_method(self):
        self.u8 = initialize(InitialDataSpec(alpha=1.0), 8)
        self.u16 = initialize(InitialDataSpec(alpha=1.0), 16)
        self.p8 = SchemeParams(-1, 0.1, 8, 2)
        self.p16 = SchemeParams(-1, 0.2, 16, 2)

    def test_initial_count_must_match_the_runs(self):
        with pytest.raises(ValueError, match="run 1 has no initial field"):
            evolve_lockstep([self.u8], [self.p8, self.p8])
        with pytest.raises(ValueError, match="initial field 2 has no run"):
            evolve_lockstep([self.u16, self.u8, self.u8], [self.p16, self.p8])

    def test_initial_cutoff_must_be_its_runs(self):
        with pytest.raises(ValueError, match=r"run 1 \(tau = 0.2\): field cutoff 8 != params cutoff 16"):
            evolve_lockstep([self.u8, self.u8], [self.p8, self.p16])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_initial_must_be_finite(self, bad):
        u = SpectralField.from_modes(16, {1: 0.5, -2: bad})
        with pytest.raises(ValueError, match=r"run 1 \(tau = 0.2\): initial field must have "
                                             r"finite coefficients$"):
            evolve_lockstep([self.u8, u], [self.p8, self.p16])

    def test_runs_must_share_lam(self):
        with pytest.raises(ValueError, match="run 1 has lam 1, but .* share lam -1"):
            evolve_lockstep([self.u16, self.u8], [self.p16, SchemeParams(1, 0.1, 8, 2)])


class TestAliasedGridPatchPoint:
    """The benchmark's correctness gate patches `integrator._pow2_grid_size`
    to an aliased 2N+1 points and expects every low-regularity path to use
    it: the grid size is looked up at call time, and it keys `_plan`."""

    def outputs(self):
        u, v = unit_field(1, 8), unit_field(2, 6)
        cq = conserved_quantities(u)
        params = SchemeParams(-1, 0.25, 8, 2)
        stack = evolve_lockstep([u, v], [params, SchemeParams(-1, 0.25, 6, 2)])
        return [step(u, params, cq), evolve(u, params).final, *(t.final for t in stack)]

    def test_an_aliased_grid_reaches_every_lowreg_path(self, monkeypatch):
        exact = self.outputs()
        monkeypatch.setattr(integrator, "_pow2_grid_size", lambda n: 2 * n + 1)
        aliased = self.outputs()
        monkeypatch.undo()
        for a, b in zip(aliased, exact, strict=True):
            assert l2_error(a, b) > 1e-6 * sobolev_norm(b, 0.0)
        # the aliased plans stay cached under their own grid size
        assert all(a.coeffs.tobytes() == b.coeffs.tobytes()
                   for a, b in zip(self.outputs(), exact, strict=True))
