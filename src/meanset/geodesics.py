"""Geodesics in a cubical complex: straight ones walked, bent ones searched.

Every cell is a unit box of R^n, so ``|p - q|`` bounds every path in the
complex from below, and when the straight segment lies in the complex it
is the geodesic.  :func:`_walk` follows it cell by cell, as voxel
traversal does (Amanatides and Woo, Eurographics 1987), over the maximal
cells of the complex only; it needs no search and no solve.

When the segment leaves the complex, the geodesic is found by enumerating
simple chains of maximal cells (consecutive cells sharing a face),
minimising the broken path length over the gates (the faces shared by
consecutive cells) of each candidate chain, and keeping the best.
Enumeration is best-first with an admissible lower bound through each
gate, so a chain whose bound exceeds the geodesic's length never leaves
the heap before a chain of the geodesic has been evaluated.  The CAT(0)
geodesic is unique, so optimal chains differ only in which cells label the
same path: the search stops as soon as no chain left in the heap can beat
the best one evaluated by more than 1e-9.  Points in different connected
components are refused before any chain is built.  Heap ties are broken
by push order, which makes every result deterministic.  No cap on chain
length is needed: a simple chain holds at most one visit per maximal
cell, and the lower bound does the pruning.

A gate that is a single vertex pins its breakpoint, so :func:`chain_length`
cuts the chain there and solves each piece on its own: a piece with no
gate is a segment, one with one gate is the closed form of
:func:`box_segment_min`, and only a piece of two or more gates is a
sum-of-norms program over the free gate coordinates, solved by one
projected Newton method that returns only a certified optimum.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import CubicalComplex, LocatedPoint
from .convex import box_segment_min, segment_span

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


def chain_length(cx: CubicalComplex, p, q, chain, _face_bounds=None, _face_mins=None):
    """Minimal length of a path p -> q crossing the given cell chain, as
    ``(value, breakpoints)`` with the endpoints included.

    A gate that is a single vertex fixes its breakpoint, so the chain is
    cut at every such gate and each piece is solved on its own; the values
    add up and the breakpoints join.  A piece with no gate is a segment and
    one with one gate has the closed form of :func:`box_segment_min`.  A
    piece of more gates starts at each gate's own :func:`box_segment_min`
    point and runs projected Newton on ``sum sqrt(|x_{i+1} - x_i|^2 +
    eps^2)``, ``eps`` stepped from 1e-3 down to 1e-13, until
    :func:`_certified_gap` is at most 1e-13 (1 + value).  Else breakpoints
    within 1e-9 of each other are merged and finished by exact Newton, and
    a gap above 1e-9 (1 + value) raises GeodesicError.  ``_face_mins``, the
    ``box_segment_min(p, q, gate)`` pairs already at hand, stand in for
    those calls when no gate is a vertex.
    """
    bounds = _face_bounds
    if bounds is None:
        faces = [cx.face_between(a, b) for a, b in zip(chain, chain[1:])]
        if None in faces:
            raise GeodesicError(f"consecutive cells of chain {tuple(chain)} share no face")
        bounds = [cx._boxes[f.ident] for f in faces]
    p, q = tuple(map(float, p)), tuple(map(float, q))
    cuts = [i for i, (lo, hi) in enumerate(bounds) if all(l == h for l, h in zip(lo, hi))]
    # piece k runs from ends[k] through the gates strictly between edges[k] and edges[k + 1]
    ends = [p] + [tuple(map(float, bounds[i][0])) for i in cuts] + [q]
    edges = [-1] + cuts + [len(bounds)]
    mins = None if cuts else _face_mins
    total, pts = 0.0, [p]
    for a, b, i, j in zip(ends, ends[1:], edges, edges[1:]):
        val, gap, piece = _solve_piece(a, b, bounds[i + 1:j], mins)
        if gap > 1e-9 * (1.0 + val):
            raise GeodesicError(f"chain {tuple(chain)} from {p} to {q}: certified gap "
                                f"{gap:.3g} of the piece from {a} to {b} exceeds 1e-9 "
                                f"(1 + length {val:.12g})")
        total += val
        pts += piece[1:]
    return total, pts


def _solve_piece(a, b, bounds, mins):
    """``(value, gap, breakpoints)`` of the shortest path a -> b through the
    gates ``bounds``, none of them a vertex (see :func:`chain_length`)."""
    if not bounds:
        return math.dist(a, b), 0.0, [a, b]
    if len(bounds) == 1:
        val, x = mins[0] if mins else box_segment_min(a, b, *bounds[0])
        return val, 0.0, [a, tuple(x), b]

    # boxes of all points, a and b being boxes of their own
    lo, hi = (np.array([a] + [g[side] for g in bounds] + [b]) for side in (0, 1))
    starts = [x for _, x in mins] if mins else [box_segment_min(a, b, *g)[1] for g in bounds]
    P = np.array([a] + starts + [b])
    gap, val = _certified_gap(P, lo, hi)
    for eps in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
        while gap > 1e-13 * (1.0 + val):
            dec = _newton_step(P, lo, hi, eps)
            gap, val = _certified_gap(P, lo, hi)
            if dec <= eps:
                break
    if gap > 1e-13 * (1.0 + val):
        M = _merged(P, lo, hi)
        gap, val, P = min((gap, val, P), (*_certified_gap(M, lo, hi), M), key=lambda c: c[0])
    return val, gap, [tuple(x) for x in P]


def _newton_step(P, lo, hi, eps):
    """One projected Newton step on ``sum sqrt(|x_{i+1} - x_i|^2 + eps^2)``
    over the points ``P`` in their boxes ``[lo, hi]``, in place; coordinates
    held at a bound by the gradient stay put.  Returns the Newton decrement,
    or 0 if no step passes the Armijo test or moves a coordinate by 1e-15."""
    N, n = P.shape
    Dm = np.diff(np.eye(N), axis=0)        # the segment vectors are Dm @ P
    d = Dm @ P
    r = np.sqrt((d * d).sum(axis=1) + eps * eps)
    w = d / np.where(r > 0.0, r, 1.0)[:, None]
    g = Dm.T @ w
    free = ((lo < hi) & ~((P <= lo) & (g > 0)) & ~((P >= hi) & (g < 0))).ravel()
    if not free.any() or not r.all():
        return 0.0
    # the Hessian is Dm^T B Dm, with B_i = (I - w_i w_i^T) / r_i that of segment i
    B = (np.eye(n) - w[:, :, None] * w[:, None, :]) / r[:, None, None]
    H = np.einsum("ia,ikl,ib->akbl", Dm, B, Dm).reshape(N * n, N * n)[np.ix_(free, free)]
    step = np.zeros(N * n)
    step[free] = np.linalg.solve(H + 1e-12 * np.eye(free.sum()), -g.ravel()[free])
    step = step.reshape(N, n)
    t = 1.0
    while t > 1e-12:
        Pn = np.clip(P + t * step, lo, hi)
        D = Dm @ (Pn - P)
        # length changes as differences of squares, exact up to the rounding
        # of the change itself, so that the Armijo test works at tiny steps
        rn = np.sqrt(((d + D) ** 2).sum(axis=1) + eps * eps)
        change = ((D * (2.0 * d + D)).sum(axis=1) / (r + rn)).sum()
        if change < 1e-4 * min(0.0, float((g * (Pn - P)).sum())):
            moved = np.abs(Pn - P).max() > 1e-15
            P[:] = Pn
            return -float(g.ravel() @ step.ravel()) if moved else 0.0
        t *= 0.5
    return 0.0


def _certified_gap(P, lo, hi):
    """``(gap, value)``: the length of the broken line ``P`` and a bound on
    its excess over the shortest one through its boxes, the smaller of
    ``value - |p - q|`` and the Frank-Wolfe gap ``max_S <G, P - S>`` of the
    subgradient ``G_j = u_{j-1} - u_j``, ``u_i`` the unit vector of segment
    i (zero beyond p and q).  A zero-length segment may take any |u| <= 1.
    A coordinate of ``u`` may fall across point j only at a lower bound and
    rise only at an upper one; along a run of zero segments each ``u`` is,
    per coordinate, nearest 0 such that the run still reaches the next unit
    vector."""
    d = np.diff(P, axis=0)
    L = np.sqrt((d * d).sum(axis=1))
    U = np.zeros((len(P) + 1, P.shape[1]))
    U[1:-1] = d / np.where(L > 0.0, L, 1.0)[:, None]
    fall, rise = (lo == hi) | (P <= lo), (lo == hi) | (P >= hi)
    zero = np.flatnonzero(L == 0.0)
    for run in np.split(zero, np.flatnonzero(np.diff(zero) > 1) + 1) if zero.size else ():
        b = run[-1] + 1                         # points run[0] .. b coincide
        for j in run:
            low = np.where(fall[j], -np.inf, U[j])
            high = np.where(rise[j], np.inf, U[j])
            low = np.where(rise[j + 1:b + 1].any(axis=0), low, np.maximum(low, U[b + 1]))
            high = np.where(fall[j + 1:b + 1].any(axis=0), high, np.minimum(high, U[b + 1]))
            u = np.clip(0.0, low, high)
            U[j + 1] = u / max(1.0, float(np.sqrt(u @ u)))
    G = U[:-1] - U[1:]
    val = float(L.sum())
    gap = float(np.maximum(G * (P - lo), G * (P - hi)).sum())
    return min(gap, val - float(np.linalg.norm(P[-1] - P[0]))), val


def _merged(P, lo, hi):
    """``P`` with each run of points within 1e-9 of each other glued into
    one point of their boxes' common face, finished by exact Newton on the
    chain of glued points; ``P`` itself if some run's boxes do not meet."""
    gaps = np.linalg.norm(np.diff(P, axis=0), axis=1)
    runs = np.split(np.arange(len(P)), np.flatnonzero(gaps > 1e-9) + 1)
    glo, ghi = np.array([lo[r].max(0) for r in runs]), np.array([hi[r].min(0) for r in runs])
    if (glo > ghi).any():
        return P
    R = np.clip([P[r].mean(axis=0) for r in runs], glo, ghi)
    while len(R) > 2 and _newton_step(R, glo, ghi, 0.0) > 0.0:
        pass
    return R[np.repeat(np.arange(len(runs)), [len(r) for r in runs])]


def vertex_upper_bound(cx: CubicalComplex, p, q) -> float:
    """An upper bound on the distance from p to q, infinite exactly when
    they lie in different connected components.

    Cells are convex, so a geodesic crosses each maximal cell at most once,
    in a segment no longer than the cell's diagonal; ``sqrt(n)`` times the
    number of maximal cells bounds its length.  The name is kept from the
    vertex-graph path this bound once was, because counting its calls is
    how a tracer counts chain searches: each search calls it once.
    """
    def component(point):
        loc = cx.locate(point)
        return cx._component[next(c for c in loc.containing if c in cx._maximal)]

    if component(p) != component(q):
        return math.inf
    return math.sqrt(cx.ambient_dim) * len(cx.maximal_ids)


def _assemble(cx, chain, pts):
    """Elide zero-length segments and build the final Geodesic."""
    bps = [cx.snap(pts[0])]
    cells = []
    for i, cell in enumerate(chain):
        nxt = cx.snap(pts[i + 1])
        if math.dist(nxt, bps[-1]) <= 1e-9:
            continue
        bps.append(nxt)
        cells.append(cell)
    length = sum((math.dist(a, b) for a, b in zip(bps, bps[1:])), 0.0)
    return Geodesic(tuple(bps), tuple(cells), length)


def geodesic(cx: CubicalComplex, p, q) -> Geodesic:
    """The geodesic from ``p`` to ``q`` (unique in a valid complex).

    The cache holds one entry per unordered pair, solved in the direction
    first asked for and reversed exactly when read the other way.
    """
    p_loc = cx.locate(p)
    q_loc = cx.locate(q)
    a, b = p_loc.coords, q_loc.coords
    key = (a, b) if a <= b else (b, a)
    g = cx._geo_cache.get(key)
    if g is None:
        g = cx._geo_cache[key] = _solve_geodesic(cx, p_loc, q_loc)
    if g.breakpoints[0] != a:
        return Geodesic(g.breakpoints[::-1], g.cells[::-1], g.length)
    return g


def _solve_geodesic(cx, p_loc, q_loc):
    g = _walk(cx, p_loc, q_loc)
    return g if g is not None else _search(cx, p_loc, q_loc)


def _walk(cx, p_loc, q_loc):
    """The straight segment from p to q as a Geodesic, or None when the
    walk finds no cell to carry it on.

    From the maximal cells containing p, each step keeps the cell whose
    :func:`segment_span` starts by the current ``t`` (up to 1e-12) and
    reaches farthest, the first in cell order on ties, then moves to the
    neighbours whose shared face holds the exit point to 1e-9 (the span
    test decides); the exit point is clipped into the face of the cell
    taken.  ``t`` grows at every step, so no cell is met twice.
    """
    p, q = p_loc.coords, q_loc.coords
    d = tuple(b - a for a, b in zip(p, q))
    boxes = cx._boxes
    t = 0.0
    chain, pts = [], [p]
    step = [(c, None) for c in p_loc.containing if c in cx._maximal]
    while True:
        best, reach, gate = None, t, None
        for cell, face in step:
            span = segment_span(p, d, *boxes[cell])
            if span is not None and span[0] <= t + 1e-12 and span[1] > reach:
                best, reach, gate = cell, span[1], face
        if best is None:
            return None
        if gate is not None:
            lo, hi = boxes[gate]
            pts.append(tuple(min(max(x, l), h) for x, l, h in zip(exit_pt, lo, hi)))
        chain.append(best)
        if reach >= 1.0:
            pts.append(q)
            return _assemble(cx, chain, pts)
        t = reach
        exit_pt = tuple(a + t * di for a, di in zip(p, d))
        step = [(nbr, face) for nbr, face in cx.adjacency[best]
                if all(l - 1e-9 <= x <= h + 1e-9 for x, l, h in zip(exit_pt, *boxes[face]))]


def _search(cx, p_loc, q_loc):
    """The geodesic by best-first chain search (see the module docstring)."""
    p = p_loc.coords
    q = q_loc.coords
    if not math.isfinite(vertex_upper_bound(cx, p_loc, q_loc)):
        raise GeodesicError(
            f"points {p} (cell {p_loc.minimal_cell}) and {q} (cell {q_loc.minimal_cell}) "
            "lie in different connected components; no geodesic exists"
        )

    starts = [c for c in p_loc.containing if c in cx._maximal]
    ends = frozenset(c for c in q_loc.containing if c in cx._maximal)
    counter = itertools.count()
    direct = math.dist(p, q)
    heap = [(direct, next(counter), (s,), ()) for s in starts]

    face_lb = {}   # face id -> box_segment_min(p, q, face): shortest length, its minimiser
    best_val = math.inf
    best = None
    while heap:
        lb, _, chain, faces = heapq.heappop(heap)
        if lb >= best_val - 1e-9:   # nothing left can beat the best chain
            break
        last = chain[-1]
        if last in ends:
            val, pts = chain_length(cx, p, q, chain, [cx._boxes[f] for f in faces],
                                    [face_lb[f] for f in faces])
            if val < best_val - 1e-9:
                best_val = val
                best = (chain, pts)
            continue
        for nbr, fid in cx.adjacency[last]:
            if nbr in chain:
                continue
            fmin = face_lb.get(fid)
            if fmin is None:
                fmin = face_lb[fid] = box_segment_min(p, q, *cx._boxes[fid])
            nlb = max(lb, fmin[0])
            if nlb < best_val - 1e-9:
                heapq.heappush(heap, (nlb, next(counter), chain + (nbr,), faces + (fid,)))

    if best is None:
        raise GeodesicError(
            f"no cell chain joins {p} and {q} in one connected component; "
            "the complex is inconsistent"
        )
    chain, pts = best
    return _assemble(cx, chain, pts)


def distance(cx: CubicalComplex, p, q) -> float:
    return geodesic(cx, p, q).length


def point_along(g: Geodesic, s: float) -> tuple:
    """The point a fraction ``s`` of the total length along ``g``."""
    if not -1e-12 <= s <= 1.0 + 1e-12:   # a NaN fails both comparisons
        raise ValueError(f"fraction must lie in [0, 1], got {s!r}")
    s = min(max(s, 0.0), 1.0)
    bps = g.breakpoints
    if len(bps) == 1 or g.length <= 0.0:
        return bps[0]
    target = s * g.length
    acc = 0.0
    for i in range(len(bps) - 1):
        seg = math.dist(bps[i], bps[i + 1])
        if acc + seg >= target - 1e-15:
            t = 0.0 if seg <= 0 else (target - acc) / seg
            t = min(max(t, 0.0), 1.0)
            return tuple(a + t * (b - a) for a, b in zip(bps[i], bps[i + 1]))
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
