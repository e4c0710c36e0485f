"""The benchmark workloads: inputs, the timed call and its output check.

``BENCHMARK.json`` lists recognize_corpus, heatmap_corpus and grid_distance.
verify_members can be run by hand with ``--workload verify_members``; it is
left out of ``BENCHMARK.json`` because one run of it takes 25-40 s whatever
``--seconds`` says, which the time allowed for all runs does not cover.

Every workload is a closed loop with one client.  Inputs come in rounds of
fixed composition (for example one query per corpus), and a run takes a
whole number of rounds, so the mix of cheap and expensive operations, and
with it the median, is the same in every run.  All inputs derive from the
``--seed`` argument, and how many a run takes from ``--seconds`` alone.

An output check returns None when the output is right, or a ``Failure``.
``known=True`` marks a documented defect of the library that the benchmark
counts in its error rate without calling the run incorrect; any other
failure makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import grids


@dataclass(frozen=True)
class Failure:
    known: bool
    message: str


def _load_corpora(ms, names) -> dict:
    return {name: ms.load_bundled(name) for name in names}


class Workload:
    name = ""
    round_len = 1         # inputs per round
    op_ms = 1.0           # run time per input and cold pass (2-CPU x86 VM), to size a run
    passes = 2            # cold passes over the inputs, each on fresh complexes
    warm_repeats = 3      # warm calls of a round on each pass's complexes, per cold round
    tail_q = None         # latency_ms_tail percentile; None: ``tail_percentile``
    trace_ops = 1         # timed-kind operations of the fixed traced pass
    trace_checked = 0     # checked inputs appended to the fixed traced pass (None: all)

    def op_count(self, seconds: float) -> int:
        """Inputs of a run: whole rounds whose cold passes take about ``seconds``."""
        rounds = math.ceil(seconds * 1e3 / (self.passes * self.op_ms * self.round_len))
        return max(1, rounds) * self.round_len

    def load(self, ms) -> dict:
        """Build or load the complexes and point sets; the set-up that is timed."""
        raise NotImplementedError

    def complexes(self, state) -> list:
        raise NotImplementedError

    def rounds(self, state, seed: int):
        """Endless iterator over rounds (lists) of inputs."""
        raise NotImplementedError

    def units(self, out) -> int:
        """Completed units of work in one output, for ``ops_per_s``."""
        return 1

    def prepare(self, ms, state, inp):
        """Untimed per-input preparation, such as building a certificate."""
        return None

    def run(self, ms, state, inp, ctx):
        raise NotImplementedError

    def check(self, ms, state, inp, ctx, out):
        raise NotImplementedError

    def checked_inputs(self, state, seed: int, timed_ops: int) -> list:
        """Inputs run once, untimed, and judged by ``check`` like timed ones."""
        return []


def _cell_cycle(cx, rng):
    """Endless maximal cell ids: one seeded permutation of them after another,
    so that every cell is drawn equally often and the mix of cheap and
    expensive cells varies little from seed to seed."""
    ids = list(cx.maximal_ids)
    while True:
        for k in rng.permutation(len(ids)):
            yield ids[k]


def _random_point(cx, cid, rng, snapped: bool) -> tuple:
    """Uniform point of maximal cell ``cid``; optionally snapped onto a face
    or vertex of that cell by rounding a random nonempty subset of its free
    coordinates to a cell bound."""
    lo, hi = cx.bounds(cid)
    pt = lo + (hi - lo) * rng.random(cx.ambient_dim)
    if snapped:
        free = [i for i in range(cx.ambient_dim) if hi[i] > lo[i]]
        count = int(rng.integers(1, len(free) + 1))
        for i in rng.choice(free, size=count, replace=False):
            pt[i] = hi[i] if rng.random() < 0.5 else lo[i]
    return tuple(float(x) for x in pt)


class RecognizeCorpus(Workload):
    """``recognize`` at fresh points, one per bundled corpus per round.

    Each corpus draws the cells of its points in turn from seeded
    permutations of its maximal cells.  Every fourth point of each corpus
    is snapped onto a face or vertex: those are the only queries that reach
    ``boundary`` and the Frank-Wolfe solver.  Membership certificates are re-verified with
    ``VERIFY_SAMPLES`` sample points; non-membership certificates are
    re-verified exactly.  The frozen members and non-members of every
    corpus are checked inputs with a known decision.

    At a few points of the squares5 edge x = y = 0 (z = 0.35 is one) the
    re-verification's fixed-weight Frank-Wolfe solve in ``conic_residual``
    runs for minutes; the runner's check time limit counts it as a failure.
    """

    name = "recognize_corpus"
    round_len = 20        # four rounds of the five corpora; the fourth is snapped
    op_ms = 10.0
    # the slowest few per cent of points are rare chain-solver cases that
    # cost 10-100 times the median; p98 (10-20 points beyond it) varies by
    # up to a fifth from seed to seed, p95 by about a tenth
    tail_q = 95.0
    trace_ops = 100
    trace_checked = None  # all frozen points
    VERIFY_SAMPLES = 8

    def load(self, ms):
        return _load_corpora(ms, ms.BUNDLED)

    def complexes(self, state):
        return [cx for cx, _ in state.values()]

    def rounds(self, state, seed):
        rng = np.random.default_rng(seed)
        cells = {(name, snapped): _cell_cycle(cx, rng)
                 for name, (cx, _) in state.items() for snapped in (False, True)}
        k = 0
        while True:
            snapped = k % 4 == 3
            yield [(name, _random_point(cx, next(cells[name, snapped]), rng, snapped), None)
                   for name, (cx, _) in state.items()]
            k += 1

    def checked_inputs(self, state, seed, timed_ops):
        from meanset.corpus import expected

        return [(name, tuple(p), want) for name in state
                for want, key in (("member", "members"), ("non-member", "non_members"))
                for p in expected(name)[key]]

    def run(self, ms, state, inp, ctx):
        name, x, _ = inp
        return ms.recognize(state[name][1], x)

    def check(self, ms, state, inp, ctx, out):
        name, x, want = inp
        A = state[name][1]
        kind = "member" if out.certificate.kind == "membership" else "non-member"
        if out.decision != kind:
            return Failure(False, f"{name} {x}: decision {out.decision} with a "
                                  f"{out.certificate.kind} certificate")
        if want is not None and out.decision != want:
            return Failure(False, f"{name} {x}: expected {want}, got {out.decision}")
        rep = ms.verify_certificate(A, x, out.certificate, samples=self.VERIFY_SAMPLES)
        if not rep.ok:
            return Failure(False, f"{name} {x}: certificate fails re-verification "
                                  f"{rep.failures[:2]}")
        return None


class VerifyMembers(Workload):
    """``verify_certificate`` with library defaults on the frozen members.

    One round is every frozen member of the four corpora that is not itself
    a point of the set (those certificates are point masses, and checking
    them only reads cached distances), on freshly loaded complexes.  Each
    corpus opens with its first listed member, which pays for the distances
    from the sample points to the set points; the other members follow in a
    seeded order and find those distances cached, so the work of a round
    does not depend on the order.  The median then falls inside the group
    of squares3 members rather than on the edge between two groups.  A
    round takes 20-35 s on a 2-CPU x86 VM, so a run is one cold pass of one
    round of 20 calls; with at least 10 samples beyond it, its tail
    percentile is the median.  The certificates come from ``recognize``
    outside the timed call.
    """

    name = "verify_members"
    CORPORA = ("tripod", "squares3", "cube_square", "squares5")
    round_len = 20
    op_ms = 1600.0
    passes = 1            # one round is already a run
    warm_repeats = 5
    trace_ops = 6

    def load(self, ms):
        return _load_corpora(ms, self.CORPORA)

    def complexes(self, state):
        return [cx for cx, _ in state.values()]

    def rounds(self, state, seed):
        from meanset.corpus import expected

        firsts, rest = [], []
        for name in self.CORPORA:
            A = state[name][1]
            first, *others = [tuple(p) for p in expected(name)["members"]
                              if A.label_of(tuple(p)) is None]
            firsts.append((name, first))
            rest.extend((name, p) for p in others)
        rng = np.random.default_rng(seed)
        while True:
            yield firsts + [rest[i] for i in rng.permutation(len(rest))]

    def prepare(self, ms, state, inp):
        name, x = inp
        return ms.recognize(state[name][1], x).certificate

    def run(self, ms, state, inp, ctx):
        name, x = inp
        return ms.verify_certificate(state[name][1], x, ctx)

    def check(self, ms, state, inp, ctx, out):
        if ctx.kind != "membership":
            return Failure(False, f"{inp}: frozen member recognised as non-member")
        if not out.ok:
            return Failure(False, f"{inp}: report not ok {out.failures[:2]}")
        return None


class HeatmapCorpus(Workload):
    """One ``run_heatmap`` call per corpus per round, default worker count.

    Sample counts differ by corpus so that every call costs about the same
    (roughly 45 ms on a 2-CPU x86 VM), which keeps the median inside one
    mode; calls this small let a run time about 130 of them.  quadrant_window
    samples have a long tail (a call of 5 can take 300 ms), and fewer calls
    left the tail and ``ops_per_s`` varying by a fifth from seed to seed.  The check compares each CSV with a ``threads=1`` run
    of the same seed on freshly loaded complexes, so the two runs share no
    cache.
    """

    name = "heatmap_corpus"
    SAMPLES = {"squares3": 16, "squares5": 2, "quadrant_window": 5}
    EPS = 0.1
    round_len = 3
    op_ms = 67.0
    # quadrant_window calls make the slowest tenth; p90 (13 calls beyond it)
    # varied by a fifth to a third from seed to seed, p75 by about a tenth
    tail_q = 75.0
    trace_ops = 6

    def load(self, ms):
        return _load_corpora(ms, self.SAMPLES)

    def complexes(self, state):
        return [cx for cx, _ in state.values()]

    def rounds(self, state, seed):
        rng = np.random.default_rng(seed)
        while True:
            yield [(name, int(rng.integers(2**31))) for name in self.SAMPLES]

    def units(self, out):
        return len(out[0])

    def run(self, ms, state, inp, ctx):
        name, seed = inp
        cx, A = state[name]
        rows = ms.run_heatmap(A, self.SAMPLES[name], seed, self.EPS)
        return rows, ms.to_csv(rows, cx.ambient_dim)

    def check(self, ms, state, inp, ctx, out):
        name, seed = inp
        rows, csv = out
        if len(rows) != self.SAMPLES[name] or not all(
                math.isfinite(r.deficit) and r.deficit >= 0 for r in rows):
            return Failure(False, f"{inp}: malformed heat-map rows")
        cx, A = self.load(ms)[name]
        serial = ms.run_heatmap(A, self.SAMPLES[name], seed, self.EPS, threads=1)
        if ms.to_csv(serial, cx.ambient_dim) != csv:
            return Failure(False, f"{inp}: CSV differs from the threads=1 run")
        return None


class GridDistance(Workload):
    """``distance`` between uniform point pairs on generated grids.

    The timed calls are pairs on the 3x3x3 cube grid.  One pair on the 8x8
    square grid per ``CUBE_PAIRS_PER_SQUARE`` timed pairs is a checked
    input, run once, untimed.  Those pairs are not timed because the
    ``max_chain=8`` cap forces a bent path whenever the straight segment
    crosses 9 or more cells, and the chain search that ends in that wrong
    answer takes from a few milliseconds to seconds per pair, which no
    run of this length averages to a steady figure.  The oracle is
    ``|p - q|``; a longer answer is that known defect.
    """

    name = "grid_distance"
    SQUARES, CUBES = (8, 8), (3, 3, 3)
    CUBE_PAIRS_PER_SQUARE = 4
    op_ms = 16.0
    trace_ops = 100
    trace_checked = 20

    def load(self, ms):
        return {sizes: ms.complex_from_dict(grids.grid_document(*sizes))
                for sizes in (self.SQUARES, self.CUBES)}

    def complexes(self, state):
        return list(state.values())

    @staticmethod
    def _pair(rng, sizes):
        return sizes, grids.uniform_point(rng, sizes), grids.uniform_point(rng, sizes)

    def rounds(self, state, seed):
        rng = np.random.default_rng(seed)
        while True:
            yield [self._pair(rng, self.CUBES)]

    def checked_inputs(self, state, seed, timed_ops):
        rng = np.random.default_rng([seed, 2])
        count = max(1, timed_ops // self.CUBE_PAIRS_PER_SQUARE)
        return [self._pair(rng, self.SQUARES) for _ in range(count)]

    def run(self, ms, state, inp, ctx):
        sizes, p, q = inp
        return ms.distance(state[sizes], p, q)

    def check(self, ms, state, inp, ctx, out):
        _, p, q = inp
        want = grids.straight_distance(p, q)
        if abs(out - want) <= 1e-7 * (1.0 + want):
            return None
        if out > want:
            return Failure(True, f"max_chain=8 detour: {out:.9g} > |p-q| = {want:.9g}")
        return Failure(False, f"distance {out:.9g} below the straight line {want:.9g}")


WORKLOADS = {w.name: w for w in (RecognizeCorpus(), VerifyMembers(), HeatmapCorpus(),
                                  GridDistance())}
