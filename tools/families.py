"""Seeded geodesic sweeps on generated complexes with closed-form distances.

Usage, from the repository root::

    python3 tools/families.py
    python3 tools/families.py --family L8 --family tripod2 --pairs 20 --alarm 5

Each family is a fixed seeded set of point pairs on one complex:

* ``L8``: ``l_shape(8)``, 300 pairs;
* ``L4xI``: the prism L4 x [0, 2], 1,500 pairs;
* ``tripod2``: the product of the bundled tripod with itself in R^4,
  1,500 pairs;
* ``staircase``: five cubes winding around two reflex edges, 200 pairs
  between its end cubes.

Points are uniform in a uniformly drawn maximal cell (``random_point``);
in every third pair one end has its coordinates rounded to halves, onto a
face, an edge or a vertex.  ``--pairs`` takes the first N pairs of each
set.  ``distance`` runs on each pair in turn, on one complex per family,
with an alarm of ``--alarm`` seconds per call.  One JSON line per family
gives the calls, the ``GeodesicError``s and the calls the alarm stopped,
the exact Newton steps of the chain solver, the wall time, the median and
the worst time of one answered call in ms, the largest error against the
closed form, the SHA-256 of the answered lengths' reprs, in pair order,
and the geodesic cache and the pivot table the sweep leaves on the
family's complex: the entries of each and its size in KB
(``sys.getsizeof`` summed over every object it reaches through dicts and
tuples, each object counted once, the complex's cell-id strings left out).
The closed forms: ``oracles.polyomino_distance`` on L8, combined with the
interval as a product on L4 x [0, 2], and the tripod's tree distance
combined as a product on tripod^2.  The staircase has none, so its error
is null.

L10 and L4 x L4 are left out: their chain searches grow without bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from generators import INTERVAL, STAIRCASE, l_shape, product  # noqa: E402
from meanset import GeodesicError, complex_from_dict, distance, geodesics  # noqa: E402
from meanset.complexes import read_json  # noqa: E402
from meanset.corpus import data_path  # noqa: E402
from meanset.recognition import random_point  # noqa: E402
from oracles import polyomino_distance  # noqa: E402


def _tripod_distance(u, v) -> float:
    """Distance in the tripod, three unit legs from the origin of R^2 (two
    along the x axis, one up the y axis): straight along one line of legs,
    else through the origin."""
    if (u[1] == 0.0 and v[1] == 0.0) or (u[0] == 0.0 and v[0] == 0.0):
        return math.dist(u, v)
    return math.hypot(*u) + math.hypot(*v)


def _squares(doc) -> list:
    return [tuple(c["base"]) for c in doc["cells"]]


def families() -> dict:
    """name -> (pairs, seed, complex document, the base corners of the two
    ends' unit cubes or None, closed form or None)."""
    l8, l4, tripod = l_shape(8), l_shape(4), read_json(data_path("tripod.json"))
    s8, s4 = _squares(l8), _squares(l4)
    return {
        "L8": (300, 801, l8, None, lambda p, q: polyomino_distance(s8, p, q)),
        "L4xI": (1500, 402, product(l4, INTERVAL), None,
                 lambda p, q: math.hypot(polyomino_distance(s4, p[:2], q[:2]), q[2] - p[2])),
        "tripod2": (1500, 302, product(tripod, tripod), None,
                    lambda p, q: math.hypot(_tripod_distance(p[:2], q[:2]),
                                            _tripod_distance(p[2:], q[2:]))),
        "staircase": (200, 37, STAIRCASE, [STAIRCASE["cells"][i]["base"] for i in (0, -1)],
                      None),
    }


def pairs(cx, count: int, seed: int, ends) -> list:
    """The seeded pairs: uniform points of uniform maximal cells, or of the
    unit cubes at the corners ``ends`` for the two ends; in every third
    pair one end rounded to halves."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        pq = []
        for k in range(2):
            if ends is None:
                x = random_point(cx, rng)[1]
            else:
                x = tuple(b + rng.random() for b in ends[k])
            if i % 3 == 0 and k == i % 2:
                x = tuple(round(2.0 * c) / 2.0 for c in x)
            pq.append(x)
        out.append(tuple(pq))
    return out


def deep_bytes(obj, seen: set) -> int:
    """``sys.getsizeof`` summed over ``obj`` and every object it reaches
    through dicts, tuples and lists, skipping those whose ``id`` is in
    ``seen``; each one counted is added to ``seen``."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        obj = [x for item in obj.items() for x in item]
    if isinstance(obj, (tuple, list)):
        size += sum(deep_bytes(x, seen) for x in obj)
    return size


class _Alarm(Exception):
    pass


def _ring(signum, frame):
    raise _Alarm


def run_family(name: str, count: int = None, alarm: float = 20.0) -> dict:
    """Sweep one family (its first ``count`` pairs, all when None)."""
    total, seed, doc, ends, closed = families()[name]
    cx = complex_from_dict(doc)
    todo = pairs(cx, total if count is None else min(count, total), seed, ends)
    steps = [0]
    real = geodesics._newton_step

    def counted(*args):
        steps[0] += 1
        return real(*args)

    errors = timeouts = 0
    answered, call_ms = [], []
    old = signal.signal(signal.SIGALRM, _ring)
    geodesics._newton_step = counted
    start = time.perf_counter()
    try:
        for p, q in todo:
            signal.setitimer(signal.ITIMER_REAL, alarm)
            try:
                t0 = time.perf_counter()
                answered.append((p, q, distance(cx, p, q)))
                call_ms.append(1e3 * (time.perf_counter() - t0))
            except GeodesicError:
                errors += 1
            except _Alarm:
                timeouts += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - start
    finally:
        geodesics._newton_step = real
        signal.signal(signal.SIGALRM, old)
    digest = hashlib.sha256("".join(f"{d!r}\n" for _, _, d in answered).encode())
    cache_bytes = deep_bytes(cx._geo_cache, set(map(id, cx._by_id)))
    pivot_bytes = deep_bytes(cx._pivots, set(map(id, cx._by_id)))
    worst = max((abs(d - closed(p, q)) for p, q, d in answered), default=0.0) if closed else None
    return {"family": name, "calls": len(todo), "geodesic_errors": errors,
            "timeouts": timeouts, "newton_steps": steps[0], "wall_s": round(wall, 3),
            "call_ms_median": round(statistics.median(call_ms), 4) if call_ms else None,
            "call_ms_worst": round(max(call_ms), 4) if call_ms else None,
            "worst_error": worst, "lengths_sha256": digest.hexdigest(),
            "cache_entries": len(cx._geo_cache), "cache_kb": round(cache_bytes / 1024, 1),
            "pivot_entries": len(cx._pivots), "pivot_kb": round(pivot_bytes / 1024, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--family", action="append", choices=list(families()),
                    help="a family to run (repeatable; default all)")
    ap.add_argument("--pairs", type=int, help="run only the first N pairs of each family")
    ap.add_argument("--alarm", type=float, default=20.0, help="seconds allowed per call")
    args = ap.parse_args(argv)
    for name in args.family or families():
        print(json.dumps(run_family(name, args.pairs, args.alarm)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
