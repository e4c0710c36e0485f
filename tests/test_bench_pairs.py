"""The verdicts of ``tools/bench_pairs.py`` on synthetic runs."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarise(parent, change, better="lower", bound=0.25):
    runs = [{"workload": "w", "seed": seed, "side": side, "traced": False,
             "result": {"metrics": {"m": {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    runs.append({"workload": "w", "seed": 0, "side": "parent", "traced": True,
                 "result": {"metrics": {"m": {"value": 1e9}}}})   # traced runs are left out
    return _module().summarise(runs, {"m": (better, bound)})["w"]["m"]


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


WIDE = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]   # IQR 3.5, 35% of the median


@pytest.mark.parametrize("parent, change, better, unresolved", [
    (PARENT, [x * 1.2 for x in PARENT], "lower", False),  # both IQRs under the bound
    (WIDE, WIDE, "lower", True),                         # the parent's spread is too wide
    (PARENT, [x + (4.0 if i % 2 else -4.0) for i, x in enumerate(PARENT)], "lower",
     True),                                              # the change's spread is too wide
    (WIDE, [x - 10.0 for x in WIDE], "lower", False),    # every change run is better
    (WIDE, [x + 10.0 for x in WIDE], "higher", False),
    (WIDE, [x + 10.0 for x in WIDE], "lower", True),     # every change run is worse
])
def test_summarise_flags_a_spread_wider_than_the_bound(parent, change, better, unresolved):
    assert _summarise(parent, change, better)["unresolved"] is unresolved


def test_frozen_diff_lists_changed_added_and_removed_files(tmp_path):
    module = _module()
    trees = []
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench" / "run.py").write_text("pass\n")
        (tree / "perfbench" / "__pycache__" / f"{side}.pyc").write_bytes(side.encode())
        (tree / "src.py").write_text(side)   # outside the frozen paths
        trees.append(tree)
    assert module.frozen_diff(*trees) == []
    (trees[1] / "perfbench" / "run.py").write_text("pass \n")
    (trees[1] / "perfbench" / "grids.py").write_text("")
    (trees[0] / "BENCHMARK.json").unlink()
    assert module.frozen_diff(*trees) == ["BENCHMARK.json", "perfbench/grids.py",
                                          "perfbench/run.py"]


def test_parse_output_keeps_the_phases_of_each_set_up():
    """The result is the last line; the phases come from the detail line before
    it, without the totals, and a detail line without set-ups gives none."""
    module = _module()
    setups = [{"import_s": 0.05 + i, "load_s": 0.002, "validate_s": 0.001, "setup_s": 0.053 + i,
               "scaled_s": 0.04} for i in range(3)]
    result = {"correct": True, "metrics": {"setup_s": {"value": 0.04, "unit": "s"}}}
    out = "\n".join(["warming up", json.dumps({"mode": "untraced", "setups": setups}),
                     json.dumps(result)]) + "\n"
    got, phases = module.parse_output(out)
    assert got == result
    assert phases == [{"import_s": 0.05 + i, "load_s": 0.002, "validate_s": 0.001}
                      for i in range(3)]
    traced = json.dumps({"mode": "traced"}) + "\n" + json.dumps(result)
    assert module.parse_output(traced) == (result, [])


def test_summarise_gives_each_sides_median_set_up_phases():
    """Medians over every set-up of a side's paired runs; an unpaired run, a
    traced run and a side whose runs kept no set-ups add nothing."""
    def run(seed, side, imports, traced=False):
        return {"workload": "w", "seed": seed, "side": side, "traced": traced,
                "result": {"metrics": {"m": {"value": 1.0}}},
                "setups": [{"import_s": t, "load_s": 0.5 * t, "validate_s": 0.0}
                           for t in imports]}

    runs = [run(0, "parent", [0.08, 0.09, 0.07]), run(0, "change", [0.05, 0.06, 0.04]),
            run(1, "change", [0.06, 0.05, 0.05]), run(1, "parent", [0.09, 0.08, 0.10]),
            run(2, "parent", [9.0, 9.0, 9.0]),                # no change run at seed 2
            run(0, "change", [9.0, 9.0, 9.0], traced=True)]
    phases = _module().summarise(runs, {"m": ("lower", 0.25)})["w"]["setup_phases"]
    assert phases["parent"] == pytest.approx(
        {"import_s": 0.085, "load_s": 0.0425, "validate_s": 0.0})
    assert phases["change"] == pytest.approx(
        {"import_s": 0.05, "load_s": 0.025, "validate_s": 0.0})
    for r in runs:
        r["setups"] = [] if r["side"] == "change" else r["setups"]
    assert _module().summarise(runs, {"m": ("lower", 0.25)})["w"]["setup_phases"]["change"] is None


def test_traced_counts_name_the_counts_that_moved():
    """Only metrics of unit ``count`` in the two traced runs of a workload are
    compared, the probes' included; untraced runs, and a workload traced on
    one side only, add nothing."""
    def run(workload, side, metrics, traced=True):
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return {"workload": workload, "seed": 1, "side": side, "traced": traced,
                "result": {"metrics": metrics}}

    same = {"a.calls": (5, "count"), "a.self_s": (0.1, "s"), "loc.total": (10, "lines")}
    runs = [
        run("w", "parent", {**same, "b.calls": (208, "count"), "probe.x.b.calls": (1, "count"),
                            "ratio": (1.0, "ratio")}),
        run("w", "change", {**same, "a.self_s": (0.2, "s"), "loc.total": (9, "lines"),
                            "b.calls": (38, "count"), "probe.x.b.calls": (0, "count"),
                            "ratio": (0.2, "ratio"), "new.calls": (3, "count")}),
        run("w", "change", {"b.calls": (1, "count")}, traced=False),
        run("v", "parent", same), run("v", "change", {**same, "a.self_s": (9.0, "s")}),
        run("u", "parent", same),
    ]
    assert _module().traced_counts(runs) == {
        "v": {"equal": True, "differing": {}},
        "w": {"equal": False, "differing": {"b.calls": [208, 38], "new.calls": [None, 3],
                                            "probe.x.b.calls": [1, 0]}},
    }


def test_scale_reads_the_families_lines_of_a_tree(tmp_path):
    """``scale`` runs a tree's ``tools/families.py`` and keeps each JSON line
    it prints; a tree without the tool gives None."""
    module = _module()
    lines = [{"family": "L8", "call_ms_median": 1.5, "call_ms_worst": 9.0},
             {"family": "staircase", "call_ms_median": 0.5, "call_ms_worst": 2.0}]
    (tmp_path / "stub" / "tools").mkdir(parents=True)
    (tmp_path / "stub" / "tools" / "families.py").write_text(
        "import json\n" + "".join(f"print(json.dumps({line!r}))\n" for line in lines))
    assert module.scale(tmp_path / "stub") == lines
    (tmp_path / "bare").mkdir()
    assert module.scale(tmp_path / "bare") is None


STUB_WORKLOADS = """\
class Stub:
    name = "stub"

    def op_count(self, seconds):
        return int(seconds)

    def load(self, ms):
        return None

    def rounds(self, state, seed):
        while True:
            yield [seed]

    def checked_inputs(self, state, seed, timed_ops):
        return []

    def prepare(self, ms, state, inp):
        return None

    def run(self, ms, state, inp, ctx):
        return ms.ANSWER + inp


WORKLOADS = {"stub": Stub()}
"""


def test_answers_reads_the_lines_of_a_tree(tmp_path):
    """``answers`` runs this checkout's ``tools/answers.py`` on a tree, whose
    own package and workloads it imports, and keeps each JSON line."""
    (tmp_path / "src" / "meanset").mkdir(parents=True)
    (tmp_path / "src" / "meanset" / "__init__.py").write_text("ANSWER = 1\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 2, "workloads": [{"name": "stub"}]}))
    answers = "".join(f"{1 + seed}\n" for seed in (7001, 7001, 8001, 8001, 9001, 9001))
    assert _module().answers(tmp_path) == [
        {"workload": "stub", "inputs": 6, "sha256": hashlib.sha256(answers.encode()).hexdigest()}]


def test_main_runs_committed_trees_after_one_unrecorded_warm_up(tmp_path, monkeypatch):
    """Both sides are extracted revisions, the change ``HEAD`` unless named,
    and one untraced run, the first pair's first, is made before the first
    recorded untraced run and left out of the file."""
    module = _module()
    spec = json.loads((BENCH_PAIRS.parents[1] / "BENCHMARK.json").read_text())
    revs, calls = [], []

    def extract(rev, dest):
        revs.append(rev)
        dest.mkdir(parents=True)
        return dest

    def run_once(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed, trace))
        return {"metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in spec["end_to_end"]}}, []

    monkeypatch.setattr(module, "extract", extract)
    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.setattr(module, "scale", lambda tree: None)
    monkeypatch.setattr(module, "answers", lambda tree: [])
    out = tmp_path / "BENCH.json"
    args = ["--out", str(out), "--pairs", "2", "--seed", "5", "--traced",
            "--workload", "w", "--workload", "v"]
    assert module.main(args) == 0
    assert revs == ["HEAD~1", "HEAD"]
    warm_up = ("parent", "w", 5, False)
    recorded = [("parent", "w", 5, True), ("change", "w", 5, True),
                ("parent", "w", 5, False), ("change", "w", 5, False),
                ("change", "w", 6, False), ("parent", "w", 6, False),
                ("parent", "v", 5, True), ("change", "v", 5, True),
                ("parent", "v", 5, False), ("change", "v", 5, False),
                ("change", "v", 6, False), ("parent", "v", 6, False)]
    assert calls == recorded[:2] + [warm_up] + recorded[2:]
    doc = json.loads(out.read_text())
    assert (doc["base"], doc["change"]) == ("HEAD~1", "HEAD")
    assert [(r["side"], r["workload"], r["seed"], r["traced"]) for r in doc["runs"]] == recorded
    assert doc["summary"]["w"]["pairs"] == doc["summary"]["v"]["pairs"] == 2
    assert module.main(args + ["--base", "abc", "--change", "def"]) == 0
    assert revs[2:] == ["abc", "def"]
