"""Alternating parent/change pairs of the benchmark, written to ``BENCH_<n>.json``.

Usage, from the repository root::

    python3 tools/bench_pairs.py --out BENCH_16.json --pairs 10 --seed 1601 \\
        --seconds 17 --workload grid_distance --workload recognize_corpus

The parent (``--base``, default ``HEAD~1``) and the change (``--change``,
default ``HEAD``) are extracted with ``git archive`` into a temporary
directory, so both sides run committed files only: no uncommitted edit and
no bytecode cache of this checkout.  For each workload, pair i runs
``perfbench/run.py --seed <seed + i>`` once in each tree, one run at a time,
the parent first in even pairs and the change first in odd ones, so that a
drift of the host's speed falls on both sides alike.  Before the first
recorded untraced run, the same run is made once and left out: the first
untraced run of an invocation has read as little as a sixth of its side's
median under ``perfbench/hostclock.py``'s scaling.  ``--traced`` adds one
``--trace 1`` run per side and workload, at the first seed, for the
per-layer counts, and ``traced_counts`` gives per workload whether every
metric of unit ``count`` in those two runs is ``equal``, the ``probe.*``
counts included, and the ``differing`` ones as ``[parent, change]``.

The output holds every result line that ``perfbench/run.py`` printed, and
per workload and end-to-end metric (as ``BENCHMARK.json`` lists them) the
parent's and the change's median, quartiles and IQR, the relative change
of the median, and the change's wins: the pairs in which the change was
better in the metric's direction, ties counting for neither side.  Three
verdicts go with them.  ``claim_rule``: the change won at least nine tenths
of the pairs, and its median is better than the parent's by more than the
parent's IQR.  ``within_bound``: the change's median is no worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, taken
relative to the parent's median.  ``unresolved``: the spread, the larger of
the two sides' IQRs relative to the parent's median, is wider than the
bound, and not every change run reads better than every parent run; such a
metric is neither a gain nor shown to be unchanged.  Each untraced run also
keeps its set-ups' phases from the detail line (``setups``: ``import_s``,
``load_s`` and ``validate_s``, unscaled seconds; ``perfbench/run.py`` times
one set-up in process and two in child processes), and ``setup_phases``
gives each side's median of every phase over the set-ups of its paired
runs, so that a change of ``setup_s`` shows which phase moved.  ``loc``
gives the line count of ``src/meanset/*.py`` on each side, as the
benchmark's ``loc.total`` counts it, and ``frozen`` whether ``perfbench/``
and ``BENCHMARK.json`` are byte-identical in the two trees, listing every
file that differs or is on one side only (bytecode caches left out).
After the pairs, ``tools/families.py`` runs once in each tree, and
``scale`` holds each side's JSON lines (one per generated family, with
its median and worst time per call), or null for a tree without the
tool.  Last, this checkout's ``tools/answers.py`` runs once on each tree,
and ``answers`` holds each side's lines (one per workload, the SHA-256 of
every output) and whether they are ``identical``.  The file is rewritten
after every run, so an interrupted run of this script keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("import_s", "load_s", "validate_s")


def extract(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def loc_total(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src" / "meanset").glob("*.py"))


def frozen_diff(a: Path, b: Path) -> list:
    """Files under ``perfbench/`` and ``BENCHMARK.json`` whose bytes differ
    between the trees ``a`` and ``b``, or that only one of them has."""
    def files(tree):
        found = [tree / "BENCHMARK.json"] + list((tree / "perfbench").rglob("*"))
        return {str(f.relative_to(tree)): f.read_bytes() for f in found
                if f.is_file() and "__pycache__" not in f.parts}

    fa, fb = files(a), files(b)
    return sorted(name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name))


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """``parse_output`` of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_output(proc.stdout)


def json_lines(cmd: list, tree: Path) -> list:
    """The JSON lines that ``cmd`` prints, run in ``tree``."""
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def scale(tree: Path) -> list:
    """The JSON lines of one ``tools/families.py`` run in ``tree``, or None
    when the tree has no such tool."""
    if not (tree / "tools" / "families.py").is_file():
        return None
    return json_lines([sys.executable, "tools/families.py"], tree)


def answers(tree: Path) -> list:
    """The JSON lines of this checkout's ``tools/answers.py`` run on ``tree``."""
    return json_lines([sys.executable, str(ROOT / "tools" / "answers.py"), str(tree)], tree)


def parse_output(stdout: str) -> tuple:
    """The result object (the last line printed) of one benchmark run, and the
    phases of each set-up listed in its detail line (the line before), or an
    empty list when that line lists none, as a traced run's does not."""
    *_, detail, result = stdout.strip().splitlines()
    setups = json.loads(detail).get("setups", ())
    return json.loads(result), [{k: s[k] for k in PHASES} for s in setups]


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list, metrics: dict) -> dict:
    """Per workload and metric: both sides' quartiles, the relative change
    of the median, the change's wins over the completed pairs and the two
    verdicts of the module docstring, and ``setup_phases``.  ``metrics`` maps
    each name to its ``(better, bound)`` from ``BENCHMARK.json``."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == wl and not r["traced"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        out[wl] = {"pairs": len(pairs), "setup_phases": {}}
        for side in ("parent", "change"):
            setups = [s for p in pairs for s in p[side].get("setups", ())]
            out[wl]["setup_phases"][side] = {
                k: statistics.median(s[k] for s in setups) for k in PHASES} if setups else None
        for name, (better, bound) in metrics.items():
            base = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
            new = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
            sign = -1.0 if better == "lower" else 1.0
            b, c = quartiles(base), quartiles(new)
            wins = sum(sign * (y - x) > 0.0 for x, y in zip(base, new))
            gain = sign * (c["median"] - b["median"])   # > 0 when the change is better
            spread = max(b["iqr"], c["iqr"])
            apart = all(sign * (y - x) > 0.0 for x in base for y in new)
            out[wl][name] = {
                "parent": b, "change": c,
                "relative": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
                "wins": wins,
                "claim_rule": 10 * wins >= 9 * len(pairs) and gain > b["iqr"],
                "within_bound": gain >= -bound * abs(b["median"]),
                "unresolved": spread > bound * abs(b["median"]) and not apart,
            }
    return out


def traced_counts(runs: list) -> dict:
    """Per workload traced on both sides: ``equal``, whether the two traced
    runs agree on every metric of unit ``count``, and ``differing``, each
    metric on which they do not as ``[parent, change]`` (None on a side
    without it)."""
    out = {}
    for wl in sorted({r["workload"] for r in runs if r["traced"]}):
        sides = {r["side"]: r["result"]["metrics"] for r in runs
                 if r["traced"] and r["workload"] == wl}
        if len(sides) < 2:
            continue
        names = sorted({k for m in sides.values() for k, v in m.items() if v["unit"] == "count"})
        pairs = {k: [sides[s].get(k, {}).get("value") for s in ("parent", "change")]
                 for k in names}
        differing = {k: v for k, v in pairs.items() if v[0] != v[1]}
        out[wl] = {"equal": not differing, "differing": differing}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=17.0)
    ap.add_argument("--base", default="HEAD~1", help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per side and workload")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": extract(args.base, Path(tmp) / "parent"),
                 "change": extract(args.change, Path(tmp) / "change")}
        differing = frozen_diff(trees["parent"], trees["change"])
        doc = {"base": args.base, "change": args.change,
               "seconds": args.seconds, "seed": args.seed,
               "loc": {side: loc_total(tree) for side, tree in trees.items()},
               "frozen": {"identical": not differing, "differing": differing},
               "runs": [], "summary": {}, "traced_counts": {}, "scale": None,
               "answers": None}
        print(json.dumps({"frozen": doc["frozen"]}), flush=True)
        out = Path(args.out)

        def record(workload, seed, side, order, traced):
            t0 = time.perf_counter()
            result, setups = run_once(trees[side], workload, seed, args.seconds, traced)
            doc["runs"].append({"workload": workload, "seed": seed, "side": side,
                                "order": order, "traced": traced,
                                "wall_s": time.perf_counter() - t0, "result": result,
                                "setups": setups})
            doc["summary"] = summarise(doc["runs"], metrics)
            doc["traced_counts"] = traced_counts(doc["runs"])
            out.write_text(json.dumps(doc, indent=1) + "\n")

        warmed = False
        for workload in args.workload:
            if args.traced:
                for side in ("parent", "change"):
                    record(workload, args.seed, side, 0, True)
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                if not warmed:   # the warm-up run, not recorded
                    run_once(trees[sides[0]], workload, args.seed + i, args.seconds, False)
                    warmed = True
                for order, side in enumerate(sides):
                    record(workload, args.seed + i, side, order, False)
            print(json.dumps({workload: doc["summary"].get(workload)}), flush=True)
        doc["scale"] = {side: scale(tree) for side, tree in trees.items()}
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(json.dumps({"scale": doc["scale"]}), flush=True)
        sides = {side: answers(tree) for side, tree in trees.items()}
        doc["answers"] = {**sides, "identical": sides["parent"] == sides["change"]}
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(json.dumps({"answers": doc["answers"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
