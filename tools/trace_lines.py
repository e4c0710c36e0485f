"""The executable lines of ``src/meanset/*.py`` that a run never reached.

Usage, from the repository root::

    python3 tools/trace_lines.py -- -q tests/test_geodesics.py
    python3 tools/trace_lines.py --workload recognize_corpus --seed 7 --rounds 3
    python3 tools/trace_lines.py --workload recognize_corpus \\
        --workload heatmap_corpus --workload grid_distance --rounds 8 --families --pairs 100

The first form runs pytest in this process with the arguments after ``--``
(``src`` goes first on ``sys.path``, as the tier-1 command sets it).  The
others run each ``--workload`` in turn and then, with ``--families``,
``tools/families.py`` on the first ``--pairs`` pairs of each family (all
when omitted), all in one trace.  A workload run imports
``perfbench/workloads.py`` without changing it, builds and validates the
workload's complexes, and makes the timed calls of ``--rounds`` rounds of
its inputs from ``--seed``; output checks are not run.  The families print
their JSON lines.  Every form traces every thread with ``sys.settrace``
and ``threading.settrace`` and prints, per module, the lines that the
module's compiled code objects mark executable (``co_lines()``) and that
no trace event reached.  Code run in a subprocess, such as the
command-line tests, is not traced.  Tracing slows a run about threefold;
no coverage package is needed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path) -> set:
    """The line numbers that the code objects compiled from the file ``path`` run."""
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """Within ``with``, the lines reached in the files ``paths``, per file, in ``hits``."""

    def __init__(self, paths):
        self.hits = {os.path.realpath(p): set() for p in paths}
        self._files = {}   # co_filename -> its hit set, or None for other files

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            self._files[name] = self.hits.get(os.path.realpath(name))
        hits = self._files[name]
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()   # a trace this one nests in
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def ranges(lines) -> str:
    """Sorted line numbers with runs folded, as ``3-5, 9``."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run_workload(name: str, seed: int, rounds: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    import meanset

    wl = workloads.WORKLOADS[name]
    state = wl.load(meanset)
    for cx in wl.complexes(state):
        cx.validate()
    batches = wl.rounds(state, seed)
    for _ in range(rounds):
        for inp in next(batches):
            wl.run(meanset, state, inp, wl.prepare(meanset, state, inp))


def run_families(pairs) -> None:
    """``tools/families.py`` on the first ``pairs`` pairs of every family (all when None)."""
    spec = importlib.util.spec_from_file_location("families", ROOT / "tools" / "families.py")
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    families.main([] if pairs is None else ["--pairs", str(pairs)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[],
                    help="a workload of perfbench/workloads.py (repeatable)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--families", action="store_true", help="run tools/families.py too")
    ap.add_argument("--pairs", type=int, help="the families' --pairs")
    ap.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    modules = sorted((SRC / "meanset").glob("*.py"))
    with LineTrace(modules) as trace:
        if args.workload or args.families:
            for name in args.workload:
                run_workload(name, args.seed, args.rounds)
            if args.families:
                run_families(args.pairs)
            status = 0
        else:
            import pytest

            status = int(pytest.main(args.pytest_args))
    for path in modules:
        want = executable_lines(path)
        missed = want - trace.hits[os.path.realpath(path)]
        print(f"{path.stem}: {len(missed)} of {len(want)} executable lines unreached"
              + (f": {ranges(missed)}" if missed else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
