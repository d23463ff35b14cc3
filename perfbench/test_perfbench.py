"""Tests of the benchmark itself: python3 -m pytest perfbench

They check that the correctness gate catches an aliased product grid, that
the tracer counts and restores what it patches, that self time subtracts
the union of child intervals, and that BENCHMARK.json names exactly the
metrics run.py reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from lowregnls import initial_data, integrator  # noqa: E402
from tracing import Span, SpanTree, Tracer  # noqa: E402


def _aliased_grid(cutoff: int) -> int:
    """2N+1 points: products truncated to |k| <= N need at least 3N+1."""
    return 2 * cutoff + 1


@pytest.fixture
def aliased_grid(monkeypatch):
    integrator._plan.cache_clear()
    monkeypatch.setattr(integrator, "_pow2_grid_size", _aliased_grid)
    yield
    integrator._plan.cache_clear()


@pytest.mark.parametrize("name", ["evolve-n16384", "study-spatial-small"])
def test_gate_passes_the_code_as_it_is(name, tmp_path):
    w = workloads.WORKLOADS[name](0, tmp_path)
    ref = workloads.load_references()[name]["0"]
    assert w.check(w.finish(w.run()), ref) is None


@pytest.mark.parametrize("name", ["evolve-n16384", "study-spatial-small"])
def test_gate_flags_an_aliased_product_grid(name, tmp_path, aliased_grid):
    w = workloads.WORKLOADS[name](0, tmp_path)
    ref = workloads.load_references()[name]["0"]
    problem = w.check(w.finish(w.run()), ref)
    assert problem is not None and "deviate" in problem


def test_sketch_estimates_the_relative_deviation():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    ref = workloads.sketch_record(c)
    assert workloads.sketch_deviation(c, ref) == 0.0
    d = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    d *= 1e-9 * np.linalg.norm(c) / np.linalg.norm(d)
    assert 0.5e-9 < workloads.sketch_deviation(c + d, ref) < 2e-9


def test_tracer_counts_fft_work_per_step_and_restores_numpy():
    fft = np.fft.fft
    u0 = integrator.initialize(initial_data.InitialDataSpec(), 16)
    params = integrator.SchemeParams(lam=-1, tau=0.01, cutoff=16, steps=3)
    tracer = Tracer()
    with tracer.installed():
        integrator.evolve(u0, params)
    assert np.fft.fft is fft
    c = tracer.counts
    assert (c["steps"], c["numpy.fft.calls"], c["numpy.fft.rows"]) == (3, 12, 69)
    assert c["numpy.fft.len_max"] == 128 and c["numpy.dot.calls"] == 3
    [evolve] = SpanTree(tracer.spans).named("integrator.evolve")
    ffts = SpanTree(tracer.spans).named("numpy.fft.fft", "numpy.fft.ifft")
    assert all(s.parent == evolve.id for s in ffts)


def test_self_time_subtracts_the_union_of_children():
    def span(id_, start, end, parent=None, thread=1):
        s = Span(id_, f"s{id_}", start, thread, parent, {})
        s.end = end
        return s

    # two overlapping children on different threads cover [1, 5] of [0, 10]
    root = span(0, 0.0, 10.0)
    tree = SpanTree([root, span(1, 1.0, 4.0, 0, 2), span(2, 3.0, 5.0, 0, 3)])
    assert tree.self_time(root) == pytest.approx(6.0)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_without_the_package_source_it_fails_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "evolve-n16384",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
