"""The verdicts of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _summarise(parent, change, better="lower", bound=0.25):
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = [{"workload": "w", "seed": seed, "side": side, "traced": False,
             "result": {"metrics": {"m": {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    runs.append({"workload": "w", "seed": 0, "side": "parent", "traced": True,
                 "result": {"metrics": {"m": {"value": 1e9}}}})   # traced runs are left out
    return module.summarise(runs, {"m": (better, bound)})["w"]["m"]


PARENT = [10.0, 10.5, 11.0, 9.5, 10.2, 10.8, 9.8, 10.1, 10.4, 9.9]


@pytest.mark.parametrize("change, better, claim, within", [
    ([x - 2.0 for x in PARENT], "lower", True, True),     # 10/10 wins, far beyond the IQR
    ([x - 0.1 for x in PARENT], "lower", False, True),    # 10/10 wins, inside the IQR
    ([x - 2.0 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]], "lower", False, True),  # 8/10
    ([x * 1.2 for x in PARENT], "lower", False, True),    # 20% worse, bound 25%
    ([x * 1.3 for x in PARENT], "lower", False, False),   # 30% worse
    ([x * 0.7 for x in PARENT], "higher", False, False),  # 30% fewer of a higher-better metric
    ([x + 2.0 for x in PARENT], "higher", True, True),
])
def test_summarise_verdicts(change, better, claim, within):
    got = _summarise(PARENT, change, better)
    assert got["parent"]["median"] == pytest.approx(10.15)
    assert (got["claim_rule"], got["within_bound"]) == (claim, within)
