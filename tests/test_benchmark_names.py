"""The names the benchmark's tracer patches still exist and still run.

``perfbench/tracing.py`` looks up every wrapped name with a plain
``getattr``, so deleting or renaming one breaks every traced benchmark run.
Entering its patch context and running each traced entry point once turns
that breakage into a test failure.
"""

import importlib.util
from pathlib import Path

import pytest

import meanset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_patches_every_name_it_needs():
    tracer = _tracer()
    with tracer.installed(meanset):
        _, A = meanset.load_bundled("squares3")
        assert meanset.recognize(A, (0.5, -0.5)).decision == "non-member"
        assert meanset.mean_deficit(A, (0.5, 0.0)).value <= 1e-8
        assert len(meanset.run_heatmap(A, 2, 0, 0.1, threads=1)) == 2
        assert meanset.heatmap.worker_count() >= 1
        # cone-ball models send this query through the Frank-Wolfe rounds
        _, Q = meanset.load_bundled("quadrant_window")
        assert meanset.recognize(Q, (1.0, -0.0010957907691939717)).decision == "non-member"
    metrics = tracer.layer_metrics()
    assert metrics["boundary.recognize_general.calls"] == 2
    assert metrics["boundary.general_deficit.calls"] == 3
    assert metrics["heatmap.workers"] >= 1
    assert metrics["convex.feasibility_min_norm.stalled"] == 0
    assert metrics["convex.feasibility_min_norm.iterations"] > 0


def test_traced_search_count_is_the_number_of_searches(monkeypatch):
    """``geodesics.searches`` counts ``vertex_upper_bound`` calls, so it reads
    0 without warning if the bound ever leaves the chain search."""
    runs = [0]
    real = meanset.geodesics._search

    def counted(*args):
        runs[0] += 1
        return real(*args)

    monkeypatch.setattr(meanset.geodesics, "_search", counted)
    tracer = _tracer()
    with tracer.installed(meanset):
        cx, _ = meanset.load_bundled("squares3")
        # bent through the origin: the walk declines and the search runs
        assert meanset.distance(cx, (0.9, -0.2), (-0.2, 0.9)) == pytest.approx(
            1.8439088914585775, abs=1e-12)
    assert runs[0] >= 1
    assert tracer.layer_metrics()["geodesics.searches"] == runs[0]
