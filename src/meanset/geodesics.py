"""Geodesics in a cubical complex by exact chain optimisation.

A geodesic between two points is found by enumerating simple chains of
maximal cells (consecutive cells sharing a face), minimising the broken
path length over the gate faces of each candidate chain, and keeping the
best.  Enumeration is best-first with an admissible lower bound through
each gate face and an incumbent upper bound from a vertex-graph shortest
path, so only a handful of chains is ever evaluated on the bundled
complexes.  Ties between optimal chains resolve to the lexicographically
smallest cell-id sequence, which makes every result deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import CubicalComplex, LocatedPoint
from .convex import box_segment_min

__all__ = [
    "Geodesic",
    "GeodesicError",
    "chain_length",
    "geodesic",
    "distance",
    "midpoint",
    "point_along",
    "initial_direction",
    "vertex_upper_bound",
]

DEFAULT_MAX_CHAIN = 8


class GeodesicError(RuntimeError):
    """No geodesic could be produced for the request."""


@dataclass(frozen=True)
class Geodesic:
    """A piecewise-straight path: breakpoints plus one cell id per segment."""

    breakpoints: tuple
    cells: tuple
    length: float

    def __post_init__(self):
        if len(self.breakpoints) >= 2 and len(self.cells) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one cell per segment")


def _norm(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _polyline_length(pts) -> float:
    return sum(_norm(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


def chain_length(cx: CubicalComplex, p, q, chain, _face_bounds=None):
    """Minimal length of a path p -> q crossing the given cell chain.

    Breakpoints are constrained to the shared face between consecutive
    cells.  Cyclic coordinate descent (each block an exact
    :func:`box_segment_min`) does the work; a projected subgradient pass on
    the joint objective restarts the descent if per-sweep progress dies
    before the tolerance is met.  Returns ``(value, breakpoints)`` with the
    two endpoints included.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if _face_bounds is None:
        bounds = []
        for i in range(len(chain) - 1):
            f = cx.face_between(chain[i], chain[i + 1])
            if f is None:
                raise GeodesicError(
                    f"chain cells {chain[i]} and {chain[i + 1]} share no face"
                )
            bounds.append(cx.bounds(f.ident))
    else:
        bounds = _face_bounds
    k = len(bounds)
    if k == 0:
        return float(np.linalg.norm(pa - qa)), [tuple(pa), tuple(qa)]
    if k == 1:
        val, x = box_segment_min(pa, qa, *bounds[0])
        return val, [tuple(pa), tuple(x), tuple(qa)]

    pts = [pa]
    for lo, hi in bounds:
        pts.append(box_segment_min(pa, qa, lo, hi)[1])
    pts.append(qa)

    def total():
        d = np.diff(np.stack(pts), axis=0)
        return float(np.sqrt((d * d).sum(axis=1)).sum())

    def sweep_until_stall():
        prev = total()
        calm = 0
        for _ in range(3000):
            for j in range(k):
                lo, hi = bounds[j]
                pts[j + 1] = box_segment_min(pts[j], pts[j + 2], lo, hi)[1]
            cur = total()
            if prev - cur <= 1e-13 * (1.0 + cur):
                calm += 1
                if calm >= 2:
                    return cur
            else:
                calm = 0
            prev = cur
        return total()

    def degenerate():
        # a breakpoint glued to a neighbour is the one configuration where
        # blockwise optimality can lock below the true optimum
        d = np.diff(np.stack(pts), axis=0)
        return bool((np.sqrt((d * d).sum(axis=1)) <= 1e-9).any())

    val = sweep_until_stall()
    for _ in range(2):
        if not degenerate():
            break
        improved = _subgradient_polish(pts, bounds, val)
        if improved is None:
            break
        val2 = sweep_until_stall()
        if val - val2 <= 1e-12:
            val = min(val, val2)
            break
        val = val2
    return val, [tuple(x) for x in pts]


def _subgradient_polish(pts, bounds, best_val):
    """Projected subgradient pass on the joint breakpoint objective.

    Mutates ``pts`` in place when it finds a strictly better configuration;
    returns the improved value or None.
    """
    k = len(bounds)
    P = np.stack(pts)               # (k+2, n), rows 1..k are the variables
    lo = np.stack([b[0] for b in bounds])
    hi = np.stack([b[1] for b in bounds])
    best = P[1:-1].copy()
    best_f = best_val

    improved = False
    for t in range(400):
        if t >= 24 and not improved:
            break  # the locked corner is genuinely optimal
        diffs = P[1:] - P[:-1]
        norms = np.sqrt((diffs * diffs).sum(axis=1))
        safe = np.where(norms > 1e-14, norms, 1.0)
        units = np.where(norms[:, None] > 1e-14, diffs / safe[:, None], 0.0)
        grads = units[:-1] - units[1:]
        gmax = float(np.sqrt((grads * grads).sum(axis=1)).max())
        if gmax <= 1e-14:
            break
        step = 0.2 * (1.0 + best_f) / (gmax * (t + 10.0))
        P[1:-1] = np.clip(P[1:-1] - step * grads, lo, hi)
        d2 = P[1:] - P[:-1]
        f = float(np.sqrt((d2 * d2).sum(axis=1)).sum())
        if f < best_f - 1e-12:
            best_f = f
            best = P[1:-1].copy()
            improved = True
    if improved:
        for j in range(k):
            pts[j + 1] = best[j]
        return best_f
    return None


def _reachable(cx: CubicalComplex, starts, ends) -> bool:
    seen = set(starts)
    frontier = list(starts)
    target = set(ends)
    while frontier:
        cell = frontier.pop()
        if cell in target:
            return True
        for nbr, _ in cx.adjacency[cell]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return bool(target & seen)


def vertex_upper_bound(cx: CubicalComplex, p, q) -> float:
    """Length of a vertex-graph path from p to q; an upper bound on distance."""
    p_loc = cx.locate(p)
    q_loc = cx.locate(q)
    table = cx.vertex_distances()
    index = table["index"]
    dist = table["dist"]

    def hooks(loc):
        out = {}
        for ident in loc.containing:
            for v in cx.cell(ident).vertices():
                if v not in out:
                    out[v] = _norm(loc.coords, v)
        return out

    ph = hooks(p_loc)
    qh = hooks(q_loc)
    best = math.inf
    if set(p_loc.containing) & set(q_loc.containing):
        best = _norm(p_loc.coords, q_loc.coords)
    for vp, dp in ph.items():
        row = dist[index[vp]]
        for vq, dq in qh.items():
            cand = dp + row[index[vq]] + dq
            if cand < best:
                best = cand
    return float(best)


def _assemble(cx, chain, pts):
    """Elide zero-length segments and build the final Geodesic."""
    bps = [cx.snap(pts[0])]
    cells = []
    for i, cell in enumerate(chain):
        nxt = cx.snap(pts[i + 1])
        if _norm(nxt, bps[-1]) <= 1e-9:
            continue
        bps.append(nxt)
        cells.append(cell)
    if len(bps) == 1:
        return Geodesic(tuple(bps), (), 0.0)
    return Geodesic(tuple(bps), tuple(cells), _polyline_length(bps))


def geodesic(cx: CubicalComplex, p, q, max_chain: int = DEFAULT_MAX_CHAIN) -> Geodesic:
    """The geodesic from ``p`` to ``q`` (unique in a valid complex)."""
    p_loc = cx.locate(p)
    q_loc = cx.locate(q)
    key = (p_loc.coords, q_loc.coords, max_chain)
    hit = cx._geo_cache.get(key)
    if hit is not None:
        return hit
    rkey = (q_loc.coords, p_loc.coords, max_chain)
    hit = cx._geo_cache.get(rkey)
    if hit is not None:
        rev = Geodesic(tuple(reversed(hit.breakpoints)), tuple(reversed(hit.cells)), hit.length)
        cx._geo_cache[key] = rev
        return rev

    g = _solve_geodesic(cx, p_loc, q_loc, max_chain)
    cx._geo_cache[key] = g
    return g


def _solve_geodesic(cx, p_loc, q_loc, max_chain):
    p = p_loc.coords
    q = q_loc.coords
    common = set(p_loc.containing) & set(q_loc.containing)
    if common:
        if p == q:
            return Geodesic((p,), (), 0.0)
        mset = set(cx.maximal_ids)
        seg_cell = min(c for c in common if c in mset)
        return _assemble(cx, (seg_cell,), [np.asarray(p), np.asarray(q)])

    mset = set(cx.maximal_ids)
    starts = sorted(c for c in p_loc.containing if c in mset)
    ends = frozenset(c for c in q_loc.containing if c in mset)
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)

    ub = vertex_upper_bound(cx, p_loc, q_loc)
    if not math.isfinite(ub):
        if not _reachable(cx, starts, ends):
            raise GeodesicError(
                "points lie in different connected components; no geodesic exists"
            )

    counter = itertools.count()
    direct = float(np.linalg.norm(pa - qa))
    heap = []
    for s in starts:
        heapq.heappush(heap, (direct, next(counter), (s,), ()))

    best_val = math.inf
    candidates = []
    while heap:
        lb, _, chain, faces = heapq.heappop(heap)
        if lb > min(best_val, ub) + 2e-9:
            break
        last = chain[-1]
        if last in ends:
            val, pts = chain_length(cx, p, q, chain,
                                    [cx.bounds(f) for f in faces])
            candidates.append((val, chain, pts))
            if val < best_val:
                best_val = val
            continue
        if len(chain) >= max_chain:
            continue
        for nbr, fid in cx.adjacency[last]:
            if nbr in chain:
                continue
            flo, fhi = cx.bounds(fid)
            fval, _ = box_segment_min(pa, qa, flo, fhi)
            nlb = max(lb, fval)
            if nlb > min(best_val, ub) + 2e-9:
                continue
            heapq.heappush(heap, (nlb, next(counter), chain + (nbr,), faces + (fid,)))

    if not candidates:
        if not _reachable(cx, starts, ends):
            raise GeodesicError(
                "points lie in different connected components; no geodesic exists"
            )
        raise GeodesicError(
            f"no simple cell chain of at most {max_chain} cells connects the points; "
            "increase max_chain"
        )
    ties = [c for c in candidates if c[0] <= best_val + 1e-9]
    ties.sort(key=lambda c: (c[1],))
    _, chain, pts = ties[0]
    return _assemble(cx, chain, [np.asarray(x) for x in pts])


def distance(cx: CubicalComplex, p, q, max_chain: int = DEFAULT_MAX_CHAIN) -> float:
    return geodesic(cx, p, q, max_chain).length


def point_along(g: Geodesic, s: float) -> tuple:
    """The point a fraction ``s`` of the total length along ``g``."""
    if s < -1e-12 or s > 1.0 + 1e-12:
        raise ValueError("fraction must lie in [0, 1]")
    s = min(max(s, 0.0), 1.0)
    bps = g.breakpoints
    if len(bps) == 1 or g.length <= 0.0:
        return bps[0]
    target = s * g.length
    acc = 0.0
    for i in range(len(bps) - 1):
        seg = _norm(bps[i], bps[i + 1])
        if acc + seg >= target - 1e-15:
            t = 0.0 if seg <= 0 else (target - acc) / seg
            t = min(max(t, 0.0), 1.0)
            return tuple(
                bps[i][j] + t * (bps[i + 1][j] - bps[i][j]) for j in range(len(bps[i]))
            )
        acc += seg
    return bps[-1]


def midpoint(cx: CubicalComplex, p, q) -> tuple:
    return point_along(geodesic(cx, p, q), 0.5)


def initial_direction(cx: CubicalComplex, x, a):
    """First breakpoint of the geodesic from ``x`` to ``a`` and the minimal
    cell containing the initial segment.  Returns ``(x_a, cell_id)``."""
    x_loc = cx.locate(x)
    a_loc = cx.locate(a)
    g = geodesic(cx, x_loc, a_loc)
    if g.length <= 1e-12:
        raise GeodesicError("initial direction undefined for coincident points")
    x_a = g.breakpoints[1]
    xa_loc = cx.locate(x_a)
    shared = set(x_loc.containing) & set(xa_loc.containing)
    if not shared:
        raise GeodesicError("geodesic segment escapes every cell; complex is inconsistent")
    best = min(shared, key=lambda cid: (cx.cell(cid).dim, cid))
    return x_a, best
