"""Smoke test of ``tools/families.py`` on the first pairs of each family."""

import json
import sys
from types import SimpleNamespace

import pytest

from meanset import GeodesicError


@pytest.mark.parametrize("name, steps", [("L8", 0), ("L4xI", 5), ("tripod2", 31),
                                         ("staircase", 48), ("grid10", 0)])
def test_first_pairs_answer_with_closed_form_lengths(tool, name, steps):
    """Six pairs of each family: all answered, within 1e-12 of the closed
    form where the family has one, in an exact count of Newton steps.  Each
    pair leaves one cache entry, and each search with a breakpoint at a
    vertex between its ends one pivot."""
    out = tool.run_family(name, 6, alarm=20.0)
    assert (out["calls"], out["geodesic_errors"], out["timeouts"]) == (6, 0, 0)
    assert out["newton_steps"] == steps
    assert 0.0 <= out["call_ms_median"] <= out["call_ms_worst"] <= 1e3 * out["wall_s"] + 1.0
    assert out["cache_entries"] == 6 and out["cache_kb"] > 0.0
    pivots = {"L8": 1, "L4xI": 0, "tripod2": 0, "staircase": 2, "grid10": 0}[name]
    assert out["pivot_entries"] == pivots and out["pivot_kb"] > 0.0
    if name == "staircase":
        assert out["worst_error"] is None
    else:
        assert out["worst_error"] <= 1e-12


def test_errors_and_alarms_are_counted(tool, monkeypatch, capsys):
    """A call that raises GeodesicError and one that outlasts the alarm are
    each counted, and neither ends the sweep; the command line prints one
    JSON line per family."""
    calls = [0]

    def failing(cx, p, q):
        calls[0] += 1
        if calls[0] == 1:
            raise GeodesicError("no geodesic")
        while True:
            pass

    monkeypatch.setattr(tool, "distance", failing)
    assert tool.main(["--family", "L8", "--pairs", "3", "--alarm", "0.05"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["family"], out["calls"], out["geodesic_errors"], out["timeouts"]) == ("L8", 3, 1, 2)
    assert out["worst_error"] == 0.0
    assert out["call_ms_median"] is None and out["call_ms_worst"] is None
    assert out["cache_entries"] == 0 and out["pivot_entries"] == 0


def test_call_times_cover_answered_calls_only(tool, monkeypatch):
    """The median and worst time per call, in ms, are taken over the
    answered calls: here 4, 1 and 2 ms, while a failing call of 50 ms
    counts only as an error."""
    clock = [0.0]
    calls = iter([(0.004, False), (0.050, True), (0.001, False), (0.002, False)])

    def timed(cx, p, q):
        seconds, fails = next(calls)
        clock[0] += seconds
        if fails:
            raise GeodesicError("no geodesic")
        return 0.0

    monkeypatch.setattr(tool, "distance", timed)
    monkeypatch.setattr(tool, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    out = tool.run_family("L8", 4, alarm=20.0)
    assert (out["calls"], out["geodesic_errors"], out["timeouts"]) == (4, 1, 0)
    assert (out["call_ms_median"], out["call_ms_worst"]) == (2.0, 4.0)


def test_cache_size_counts_each_object_once(tool):
    """A shared object is counted once, and objects already in ``seen``, as
    the complex's cell-id strings are, not at all."""
    end, cell = (0.5, 1.5), "c007"
    cache = {(end, end): (end, cell)}
    want = (sys.getsizeof(cache) + sys.getsizeof((end, end)) + sys.getsizeof(end)
            + 2 * sys.getsizeof(0.5) + sys.getsizeof((end, cell)))
    assert tool.deep_bytes(cache, {id(cell)}) == want
    assert tool.deep_bytes(cache, set()) == want + sys.getsizeof(cell)
