"""The names the benchmark's tracer patches still exist and still run.

``perfbench/tracing.py`` looks up every wrapped name with a plain
``getattr``, so deleting or renaming one breaks every traced benchmark run.
Entering its patch context and running each traced entry point once turns
that breakage into a test failure.
"""

import importlib.util
from pathlib import Path

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
    metrics = tracer.layer_metrics()
    assert metrics["boundary.recognize_general.calls"] == 1
    assert metrics["boundary.general_deficit.calls"] == 3
    assert metrics["heatmap.workers"] >= 1
