"""Monte-Carlo sampling of the mean-deficit landscape, exported as CSV.

Each sample draws a maximal cell, then a uniform point inside it, and
records the deficit value plus a light/dark decision at a fixed threshold.
Sample ``i`` draws from its own ``random.Random`` stream, seeded by the
string ``f"{seed}:{i}"`` alone, so the output is byte-identical no matter
how many worker threads run or what ``PYTHONHASHSEED`` is.  Sampling is
serial unless the caller passes ``threads``: the work is GIL-bound, so a
thread pool only slows it down.
"""

from __future__ import annotations

import io
import random
from collections import namedtuple

from .recognition import (PointSetA, check_count, check_point_set, check_tolerance,
                          mean_deficit, random_point)

__all__ = ["HeatMapSample", "run_heatmap", "segment_probes", "to_csv", "worker_count"]


class HeatMapSample(namedtuple("HeatMapSample", "cell point deficit decision")):
    """One row: ``decision`` is whether ``deficit`` is strictly below the threshold."""

    __slots__ = ()


def worker_count() -> int:
    """The worker count of a heat map that passes no ``threads``: always 1."""
    return 1


def _one_sample(A: PointSetA, seed: int, index: int, eps: float) -> HeatMapSample:
    cid, pt = random_point(A.cx, random.Random(f"{seed}:{index}"))
    report = mean_deficit(A, pt)
    return HeatMapSample(cid, A.cx.snap(pt), report.value, bool(report.value < eps))


def run_heatmap(A: PointSetA, samples: int, seed: int, eps: float,
                threads: int = None) -> list:
    """Draw ``samples`` deficit evaluations; deterministic in ``seed``, a
    nonnegative integer.  At most one worker thread runs per sample."""
    check_point_set(A)
    samples = check_count(samples, "the sample count", 1)
    seed = check_count(seed, "seed")
    check_tolerance(eps)
    threads = worker_count() if threads is None else check_count(threads, "threads", 1)
    workers = min(threads, samples)
    if workers <= 1:
        return [_one_sample(A, seed, i, eps) for i in range(samples)]
    from concurrent.futures import ThreadPoolExecutor   # on first use: it imports logging

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(_one_sample, A, seed, i, eps) for i in range(samples)]
        return [f.result() for f in futs]


def segment_probes(A: PointSetA, p, q, count: int, eps: float) -> list:
    """Deficit rows at ``count`` evenly spaced points strictly inside [p, q].

    The probe at fraction j/(count+1) is evaluated through the full
    boundary-aware deficit path; the straight segment must stay inside the
    complex.  Raises ``ValueError`` when ``p`` or ``q`` is no sequence of
    numbers, or when they differ in dimension.
    """
    count = check_count(count, "count")
    check_tolerance(eps)
    cx = check_point_set(A).cx
    try:
        p, q = [*map(float, p)], [*map(float, q)]
    except (TypeError, ValueError):   # no sequence, or an item that is no number
        raise ValueError(f"p and q must be sequences of numbers, got {p!r} and {q!r}") from None
    if len(p) != len(q):
        raise ValueError(f"p has dimension {len(p)}, q has {len(q)}")
    out = []
    for j in range(1, count + 1):
        t = j / (count + 1)
        loc = cx.locate(tuple(a + t * (b - a) for a, b in zip(p, q)))
        report = mean_deficit(A, loc)
        out.append(HeatMapSample(loc.minimal_cell, loc.coords, report.value,
                                 bool(report.value < eps)))
    return out


def to_csv(samples: list, ambient_dim: int) -> str:
    """The rows as CSV; ``ValueError`` for ``samples`` that is not iterable, for a
    row that is no :class:`HeatMapSample` whose point is ``ambient_dim`` numbers
    and whose deficit is a number, or for an ``ambient_dim`` that is no
    nonnegative integer."""
    ambient_dim = check_count(ambient_dim, "ambient_dim")
    buf = io.StringIO()
    cols = ",".join(f"x{i}" for i in range(ambient_dim))
    buf.write(f"cell,{cols},deficit,decision\n")
    row = "%s," + ",".join(["%.12g"] * ambient_dim) + ",%.12g,%d\n"
    try:
        samples = iter(samples)
    except TypeError:
        raise ValueError(f"samples must be an iterable of rows, got {samples!r}") from None
    for s in samples:
        if not isinstance(s, HeatMapSample):
            raise ValueError(f"rows must be HeatMapSample records, got {s!r}")
        try:
            if len(s.point) != ambient_dim:
                raise ValueError(f"row {s!r} has {len(s.point)} coordinates, not {ambient_dim}")
            buf.write(row % (s.cell, *s.point, s.deficit, 1 if s.decision else 0))
        except TypeError:
            raise ValueError(f"row {s!r} needs a point of numbers and a numeric deficit") from None
    return buf.getvalue()
