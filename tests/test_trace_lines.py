"""The line sets of ``tools/trace_lines.py`` on a small module, and its workload and family runs."""

import importlib.util
import json
import os
import threading
from pathlib import Path

TRACE_LINES = Path(__file__).resolve().parents[1] / "tools" / "trace_lines.py"

SMALL = """\
import math


def root(x):
    if x > 0:
        return math.sqrt(x)
    return -x


def in_thread():
    return 1
"""


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    return spec, module


def test_unreached_lines_of_a_small_module(tmp_path):
    """Lines run by the module, a call and a worker thread are reached; the
    branch not taken is the one line left."""
    spec, tool = _load("trace_lines", TRACE_LINES)
    spec.loader.exec_module(tool)
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    assert tool.executable_lines(path) == {1, 4, 5, 6, 7, 10, 11}
    spec, small = _load("small", path)
    with tool.LineTrace([path]) as trace:
        spec.loader.exec_module(small)
        assert small.root(4.0) == 2.0
        worker = threading.Thread(target=small.in_thread)
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    missed = tool.executable_lines(path) - trace.hits[os.path.realpath(path)]
    assert tool.ranges(missed) == "7"
    assert tool.ranges({3, 4, 5, 9, 12, 13}) == "3-5, 9, 12-13"


def test_workloads_and_families_in_one_trace(monkeypatch, capsys):
    """``--workload`` repeats, and ``--families`` runs the families' first
    ``--pairs`` pairs in the same trace; the workloads are stubbed here, so
    that no test imports the benchmark."""
    spec, tool = _load("trace_lines", TRACE_LINES)
    spec.loader.exec_module(tool)
    ran = []
    monkeypatch.setattr(tool, "run_workload", lambda *args: ran.append(args))
    argv = ["--workload", "recognize_corpus", "--workload", "grid_distance", "--seed", "3",
            "--families", "--pairs", "1"]
    assert tool.main(argv) == 0
    assert ran == [("recognize_corpus", 3, 1), ("grid_distance", 3, 1)]
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in lines if line.startswith("{")]
    assert [(r["family"], r["calls"]) for r in rows] == [
        ("L8", 1), ("L4xI", 1), ("tripod2", 1), ("staircase", 1)]
    modules = sorted(p.stem for p in (TRACE_LINES.parents[1] / "src" / "meanset").glob("*.py"))
    assert [line.split(":")[0] for line in lines[len(rows):]] == modules
