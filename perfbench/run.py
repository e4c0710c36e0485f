"""meanset benchmark: one workload per run, untraced or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload recognize_corpus --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs
installing.  Detail lines (environment, sample counts, failures) go to
standard output first; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, measured without tracing, over a fixed amount of work
per seed (see ``measure``).  ``--trace 1`` runs a fixed input list four
times on fresh complexes (a discarded warm-up, traced, untraced, traced),
reports the per-layer metrics of the first traced pass and the tracing
overhead, and marks the run incorrect unless both traced passes did exactly
the same work.

Workloads: recognize_corpus, verify_members, heatmap_corpus, grid_distance
(see ``workloads.py``).  Per-layer metric names are listed in
``BENCHMARK.json``; ``tracing.py`` says which library functions they wrap.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from hostclock import NOMINAL_ROUNDS_PER_S, HostClock, reference_speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Failure  # noqa: E402

SETUP_CHILDREN = 2        # extra set-ups in child processes; setup_s is the median
CALL_LIMIT_S = 30.0       # one library call, timed or checked
CHECK_LIMIT_S = 5.0       # one output check
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 67.0, 50.0)
MODULES = ("__init__", "boundary", "cli", "complexes", "convex", "corpus",
           "geodesics", "heatmap", "recognition")


class MissingPackage(RuntimeError):
    pass


def import_meanset():
    """Import ``meanset`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "meanset" / "__init__.py").is_file():
        raise MissingPackage(f"no meanset package under {SRC}")
    sys.path.insert(0, str(SRC))
    ms = importlib.import_module("meanset")
    if Path(ms.__file__).resolve().parent != (SRC / "meanset").resolve():
        raise MissingPackage(f"meanset was imported from {ms.__file__}, not from {SRC}")
    return ms


def set_up(wl):
    """Import the package, load the workload's complexes and validate each.

    Returns ``(meanset, state, timings)``; this is what ``setup_s`` times.
    """
    t0 = time.perf_counter()
    ms = import_meanset()
    t1 = time.perf_counter()
    state = wl.load(ms)
    t2 = time.perf_counter()
    reports = [cx.validate() for cx in wl.complexes(state)]
    t3 = time.perf_counter()
    if not all(r.ok for r in reports):
        raise RuntimeError(f"{wl.name}: a complex fails validate()")
    return ms, state, {"import_s": t1 - t0, "load_s": t2 - t1, "validate_s": t3 - t2,
                       "setup_s": t3 - t0}


def scaled_set_up(wl):
    """``set_up`` with its time also scaled to the nominal host (``scaled_s``).

    The reference is timed only afterwards, because it imports scipy, whose
    first import is part of what set-up times.
    """
    ms, state, setup = set_up(wl)
    speed = statistics.median(reference_speed() for _ in range(5))
    setup["scaled_s"] = setup["setup_s"] * speed / NOMINAL_ROUNDS_PER_S
    return ms, state, setup


def child_set_up(wl) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", wl.name]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 of ``n`` samples beyond it."""
    return next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0), 50.0)


def environment(ms) -> dict:
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "heatmap_workers": ms.heatmap.worker_count(),
        "MEANSET_THREADS": os.environ.get("MEANSET_THREADS"),
    }
    if env["MEANSET_THREADS"] is not None:
        print("warning: MEANSET_THREADS is set; the heat map's default worker "
              "count is not what this run measures", file=sys.stderr)
    return env


class TimeLimit(Exception):
    """A library call or check ran past its limit and was interrupted."""


def _expire(signum, frame):
    raise TimeLimit("time limit exceeded")


@contextlib.contextmanager
def time_limit(seconds: float):
    """Interrupt the enclosed code with ``TimeLimit`` after ``seconds``.

    Some inputs send the library into effectively unbounded work (see
    ``RecognizeCorpus``); the limit keeps every run within its time budget
    and turns such a call into a counted failure.  ``main`` installs the
    signal handler; only the main thread is interrupted.
    """
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def call(ms, wl, state, inp, ctx):
    """One timed call: ``(output or exception, seconds)``."""
    t0 = time.perf_counter()
    try:
        with time_limit(CALL_LIMIT_S):
            out = wl.run(ms, state, inp, ctx)
    except Exception as exc:  # judged as a failure; never aborts the run
        out = exc
    return out, time.perf_counter() - t0


def judge(ms, wl, state, inp, ctx, out):
    """The failure of one output, or None; unbounded work is a known defect."""
    if isinstance(out, TimeLimit):
        return Failure(True, f"{inp}: call exceeded {CALL_LIMIT_S:g} s")
    if isinstance(out, Exception):
        return Failure(False, f"{inp}: raised {out!r}")
    try:
        with time_limit(CHECK_LIMIT_S):
            return wl.check(ms, state, inp, ctx, out)
    except TimeLimit:
        return Failure(True, f"{inp}: check exceeded {CHECK_LIMIT_S:g} s")
    except Exception as exc:
        return Failure(False, f"{inp}: check raised {exc!r}")


def repeats(cold, warm) -> bool:
    """Whether the warm pass gave the cold pass's output (or error) again."""
    if isinstance(cold, Exception) or isinstance(warm, Exception):
        return type(cold) is type(warm) and str(cold) == str(warm)
    return cold == warm


def prepare_all(ms, wl, state, batch):
    ctxs = []
    for inp in batch:
        try:
            ctxs.append(wl.prepare(ms, state, inp))
        except Exception as exc:
            raise RuntimeError(f"{wl.name}: preparing {inp} raised {exc!r}") from exc
    return ctxs


class Tally:
    """Attempted operations and failures, known defects kept apart."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, failure) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if not f.known]

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(self.attempted, 1),
            "known_defect_failures": len(self.failures) - len(self.unexpected),
            "first_failures": [f.message for f in self.failures[:5]],
        }


def first_inputs(wl, state, seed: int, count: int) -> list:
    """The first ``count`` inputs of the workload's seeded rounds."""
    inputs = []
    for batch in wl.rounds(state, seed):
        inputs.extend(batch)
        if len(inputs) >= count:
            return inputs[:count]


def measure(wl, seed: int, seconds: float) -> tuple:
    """The untraced run: end-to-end metrics and the detail report.

    A run does a fixed amount of work for a given seed and ``seconds``: the
    ``wl.op_count(seconds)`` inputs, in rounds, once per cold pass.  Every
    cold pass starts from freshly loaded complexes, so their geodesic
    caches start empty.  After each cold round, the round runs again,
    ``wl.warm_repeats`` times, on the complexes of this pass and of every
    earlier one: those are the warm calls, spread over the whole run.
    Every repeat must give the first cold output again, and the first cold
    outputs are checked, so ``attempted`` and ``failed`` depend on the seed
    alone.

    The shared hosts this runs on switch, for seconds at a time, between
    states in which the same call takes up to twice as long or longer.  So
    every call's time is scaled to the nominal host (see ``HostClock``).
    An input's cold time is the best of its scaled cold calls, which drops
    the odd call that a sub-second stall hit; its warm time is the median
    of its scaled warm calls, since the least of many scaled times would
    mostly pick out the reference's own jitter.  The detail line has the
    unscaled figures.
    """
    ms, state, setup = scaled_set_up(wl)
    env = environment(ms)
    inputs = first_inputs(wl, state, seed, wl.op_count(seconds))
    clock = HostClock()
    n = len(inputs)
    cold = []                     # per pass, (seconds, clock index) of each input
    warm = [[] for _ in range(n)]  # per input, (seconds, clock index) of each warm call
    outs = [None] * n
    differs = {}                  # input index -> failure
    passes = []                   # (state, contexts) of each cold pass so far

    def timed(pass_, i, kind):
        pass_state, ctxs = pass_
        index = clock.tick()
        out, dt = call(ms, wl, pass_state, inputs[i], ctxs[i])
        if outs[i] is None and kind == "cold":
            outs[i] = out
        elif i not in differs and not repeats(outs[i], out):
            differs[i] = Failure(False, f"{inputs[i]}: a {kind} repeat differs "
                                        "from the first cold result")
        return dt, index

    for p in range(wl.passes):
        pass_state = state if p == 0 else wl.load(ms)
        passes.append((pass_state, prepare_all(ms, wl, pass_state, inputs)))
        cold.append([None] * n)
        for k in range(0, n, wl.round_len):
            rnd = range(k, min(k + wl.round_len, n))
            for i in rnd:
                cold[p][i] = timed(passes[p], i, "cold")
            # this round again on the complexes of this pass and of every
            # earlier one, so that each input's warm calls are spread over
            # the run instead of bunched after it
            for pass_ in passes:
                for _ in range(wl.warm_repeats):
                    for i in rnd:
                        warm[i].append(timed(pass_, i, "warm"))
    first_ctxs = passes[0][1]
    clock.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = Tally()
    for i, (inp, ctx, out) in enumerate(zip(inputs, first_ctxs, outs)):
        tally.add(differs.get(i) or judge(ms, wl, state, inp, ctx, out))
    checked = wl.checked_inputs(state, seed, len(inputs))
    for inp, ctx in zip(checked, prepare_all(ms, wl, state, checked)):
        tally.add(judge(ms, wl, state, inp, ctx, call(ms, wl, state, inp, ctx)[0]))

    setups = [setup] + [child_set_up(wl) for _ in range(SETUP_CHILDREN)]

    def per_input_ms(runs, pick, scaled=True):
        """``pick`` (min or median) over ``runs`` (lists of calls by input), in ms."""
        return pick([[clock.scale(dt, index) if scaled else dt for dt, index in run_]
                     for run_ in runs], axis=0) * 1e3

    warm_t = list(zip(*warm))      # the j-th warm call of every input
    cold_ms, warm_ms = per_input_ms(cold, np.min), per_input_ms(warm_t, np.median)
    raw_ms = per_input_ms(cold, np.min, scaled=False)
    raw_warm_ms = per_input_ms(warm_t, np.median, scaled=False)
    units = sum(wl.units(out) for out in outs if not isinstance(out, Exception))
    q = wl.tail_q or tail_percentile(len(inputs))
    metrics = {
        "latency_ms_p50": (float(np.median(cold_ms)), "ms"),
        "latency_ms_tail": (float(np.percentile(cold_ms, q)), "ms"),
        "warm_latency_ms_p50": (float(np.median(warm_ms)), "ms"),
        "ops_per_s": (float(units / (cold_ms.sum() / 1e3)), "1/s"),
        "success_rate": (1.0 - len(tally.failures) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
    }
    detail = {
        "workload": wl.name, "seed": seed, "mode": "untraced", "env": env,
        "inputs": n, "cold_passes": len(cold), "warm_calls_per_input": len(warm[0]),
        "timed_s": sum(dt for calls in cold + warm for dt, _ in calls),
        "units": units, "checked_inputs": len(checked), "tail_percentile": q,
        "host_speed": {"samples": len(clock.speeds), "min": min(clock.speeds),
                       "median": statistics.median(clock.speeds), "max": max(clock.speeds)},
        "unscaled": {"latency_ms_p50": float(np.median(raw_ms)),
                     "latency_ms_tail": float(np.percentile(raw_ms, q)),
                     "warm_latency_ms_p50": float(np.median(raw_warm_ms)),
                     "ops_per_s": float(units / (raw_ms.sum() / 1e3)),
                     "setup_s": statistics.median(s["setup_s"] for s in setups)},
        # how far the host's state moved from one pass to the next
        "cold_pass_p50_ms": [float(np.median([dt for dt, _ in c])) * 1e3 for c in cold],
        "warm_call_p50_ms": [float(np.median([w[j][0] for w in warm])) * 1e3
                             for j in range(len(warm[0]))],
        "setups": setups, **tally.report(),
    }
    return not tally.unexpected, tally, metrics, detail


# -- traced run ---------------------------------------------------------------

PROBE_COUNTS = ("geodesics.geodesic.calls", "geodesics.chain_length.calls",
                "convex.box_segment_min.calls", "convex.feasibility_min_norm.iterations")


def run_probes(ms, tracer, tally) -> dict:
    """Fixed queries on fresh complexes whose work counts are pinned.

    ``recognize`` and ``mean_deficit`` run at the squares3 edge point
    (0.5, 0) and the squares5 vertex (0, 0, 0), both frozen members; a
    four-sample heat map on squares3 covers the heat map's worker path.
    Together they reach every traced layer on every workload.
    """
    pinned = {}
    for key, corpus, x in (("squares3_edge", "squares3", (0.5, 0.0)),
                           ("squares5_vertex", "squares5", (0.0, 0.0, 0.0))):
        _, A = ms.load_bundled(corpus)
        before = tracer.work_counts()
        try:
            ok = (ms.recognize(A, x).decision == "member"
                  and ms.mean_deficit(A, x).value <= 1e-8)
        except Exception as exc:
            ok = False
            print(f"probe {key} raised {exc!r}", file=sys.stderr)
        after = tracer.work_counts()
        tally.add(None if ok else Failure(False, f"probe {key}: not a member"))
        for name in PROBE_COUNTS:
            pinned[f"probe.{key}.{name}"] = after.get(name, 0) - before.get(name, 0)
    _, A = ms.load_bundled("squares3")
    rows = ms.run_heatmap(A, 4, 0, 0.1)
    tally.add(None if len(rows) == 4 else Failure(False, "heat-map probe row count"))
    return pinned


def fixed_pass(ms, wl, inputs, tracer, tally):
    """Run ``inputs`` on fresh complexes; returns ``(seconds of timed calls, pinned)``."""
    state = wl.load(ms)
    ctxs = prepare_all(ms, wl, state, inputs)
    pinned = {}
    with tracer.installed(ms) if tracer else contextlib.nullcontext():
        if tracer:
            pinned = run_probes(ms, tracer, tally)
        outs = [call(ms, wl, state, inp, ctx) for inp, ctx in zip(inputs, ctxs)]
    if tracer:
        pinned["geodesics.cache_entries"] = sum(len(cx._geo_cache)
                                                for cx in wl.complexes(state))
    for inp, ctx, (out, _) in zip(inputs, ctxs, outs):
        tally.add(judge(ms, wl, state, inp, ctx, out))
    return sum(dt for _, dt in outs), pinned


def line_counts() -> dict:
    out = {}
    for mod in MODULES:
        path = SRC / "meanset" / f"{mod}.py"
        out[f"loc.{mod}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["loc.total"] = sum(len(p.read_text().splitlines())
                           for p in (SRC / "meanset").glob("*.py"))
    return out


def trace(wl, seed: int) -> tuple:
    ms, state, setup = set_up(wl)
    env = environment(ms)
    checked = wl.checked_inputs(state, seed, wl.trace_ops)
    inputs = first_inputs(wl, state, seed, wl.trace_ops) + checked[:wl.trace_checked]

    # a discarded first pass pays the process's one-time costs (lazy imports
    # inside scipy, first calls) so that the overhead compares like with like
    discard = Tally()
    fixed_pass(ms, wl, inputs, None, discard)
    tally = Tally()
    first, second = Tracer(), Tracer()
    first_s, pinned = fixed_pass(ms, wl, inputs, first, tally)
    untraced_s, _ = fixed_pass(ms, wl, inputs, None, discard)
    second_s, _ = fixed_pass(ms, wl, inputs, second, discard)
    traced_s = (first_s + second_s) / 2
    repeat = first.work_counts() == second.work_counts()
    if not repeat:
        a, b = first.work_counts(), second.work_counts()
        diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
        print(f"work counts differ between traced passes: {diff}", file=sys.stderr)

    values = {
        **first.layer_metrics(),
        "complexes.validate.s": setup["validate_s"],
        "package.import_s": setup["import_s"],
        **pinned,
        **line_counts(),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
    }
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    detail = {"workload": wl.name, "seed": seed, "mode": "traced", "env": env,
              "traced_ops": len(inputs), "untraced_s": untraced_s, "traced_s": traced_s,
              "work_counts_repeat": repeat, "spans": len(first.spans), **tally.report()}
    correct = repeat and not tally.unexpected and not discard.unexpected
    return correct, tally, metrics, detail


def unit_of(name: str) -> str:
    if name.startswith("loc."):
        return "lines"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "_per_search", "efficiency")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _expire)
    try:
        if args.setup_only:
            print(json.dumps(scaled_set_up(wl)[2]))
            return 0
        if args.trace:
            correct, tally, metrics, detail = trace(wl, args.seed)
        else:
            correct, tally, metrics, detail = measure(wl, args.seed, args.seconds)
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
