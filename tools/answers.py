"""A digest of every answer the benchmark's workloads get from one tree.

Usage, from the repository root::

    python3 tools/answers.py TREE

``TREE`` is a checkout (``.`` for this one).  Its ``src/meanset`` is
imported, and its ``perfbench/workloads.py`` unchanged, as
``tools/trace_lines.py`` imports it.  For each workload that its
``BENCHMARK.json`` lists, at each seed of ``SEEDS``, on freshly loaded
complexes, each timed input of one ``run_seconds`` run (``op_count`` of
them) is run once, in order, and then each checked input; no output is
checked.  One JSON line per workload gives the number of inputs and the
SHA-256 of the ``repr`` of every output in order, an exception counting as
its type name and message.  Two trees whose lines are equal gave the same
answers.  The run takes about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEEDS = (7001, 8001, 9001)


def answer(ms, wl, state, inp) -> str:
    """The ``repr`` of one input's output, or its exception's type name and message."""
    try:
        return repr(wl.run(ms, state, inp, wl.prepare(ms, state, inp)))
    except Exception as exc:   # an error is an answer too
        return f"{type(exc).__name__}: {exc}"


def timed_inputs(wl, state, seed: int, count: int) -> list:
    """The first ``count`` inputs of the workload's seeded rounds, taken as
    ``perfbench/run.py`` takes them."""
    inputs = []
    for batch in wl.rounds(state, seed):
        inputs.extend(batch)
        if len(inputs) >= count:
            return inputs[:count]


def digest(ms, wl, seeds, seconds: float) -> dict:
    """The workload's line: its inputs at every seed, and the SHA-256 of their answers."""
    sha, count = hashlib.sha256(), 0
    for seed in seeds:
        state = wl.load(ms)
        inputs = timed_inputs(wl, state, seed, wl.op_count(seconds))
        for inp in inputs + wl.checked_inputs(state, seed, len(inputs)):
            sha.update(f"{answer(ms, wl, state, inp)}\n".encode())
            count += 1
    return {"workload": wl.name, "inputs": count, "sha256": sha.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", help="the checkout whose answers are hashed")
    tree = Path(ap.parse_args(argv).tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import meanset
    import workloads

    if Path(meanset.__file__).resolve().parent != tree / "src" / "meanset":
        raise SystemExit(f"meanset was imported from {meanset.__file__}, not from {tree}")
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        line = digest(meanset, workloads.WORKLOADS[entry["name"]], SEEDS, spec["run_seconds"])
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
