"""Geodesics in a cubical complex: straight ones walked, bent ones searched.

Every cell is a unit box of R^n, so ``|p - q|`` bounds every path in the
complex from below, and when the straight segment lies in the complex it
is the geodesic.  :func:`_walk` follows it through the lattice cells it
crosses, as voxel traversal does (Amanatides and Woo, Eurographics 1987):
its crossings of integer planes are sorted once by ``t``, and each cell
entered is one key lookup in the owner table; no search, no solve.  Ends
are located only by the search, when the walk fails.

When the segment leaves the complex, the geodesic is found by enumerating
simple chains of maximal cells (consecutive cells sharing a face),
minimising the broken path length over the gates (the faces shared by
consecutive cells) of each candidate chain, and keeping the best.
Enumeration is best-first with an admissible lower bound through each
gate, so a chain whose bound exceeds the geodesic's length never leaves
the heap before a chain of the geodesic has been evaluated.  A chain of
two convex cells is scored by its gate's bound, exact there; a longer one
by :func:`chain_length`.  The CAT(0)
geodesic is unique, so optimal chains differ only in which cells label the
same path: the search stops as soon as no chain left in the heap can beat
the best one evaluated by more than 1e-9.  Points in different connected
components are refused before any chain is built.  Heap ties are broken
by push order, which makes every result deterministic.  No cap on chain
length is needed: a simple chain holds at most one visit per maximal
cell, and the lower bound does the pruning.

Before its heap, a search tries a pivot: the first breakpoint of an
earlier answer from the same start cell to the same end that is a vertex
v, with that answer's tail from v on.  The complex keeps one per start
cell and end, at most ``_CACHE_SIZE`` of them, dropping the oldest first.
The walk from p to v joined to the tail is straight but at v, and the tail
is a geodesic, so the joined path is a local geodesic when it passes the
link test of :func:`_link_slack` at v (Miller, Owen and Provan, Adv. Appl.
Math. 68, 2015): it turns by the angle pi there in the tangent cone.  In a
CAT(0) space a local geodesic is the geodesic (Bridson and Haefliger,
*Metric Spaces of Non-Positive Curvature*, Prop. II.1.4), so a certified
pivot gives the heap's answer with no chain solve; a pivot that fails is
dropped and leaves the search to the heap.  Elsewhere a local geodesic may
go round the wrong side of a hole, so pivots are stored only on a complex
that :meth:`CubicalComplex.validate` proves CAT(0), with flag links and
simply connected; on any other, an annulus say, every bent path comes from
the heap.  Around a reflex vertex, where the geodesics from a whole region
bend, one pivot answers them all, on whichever side of the vertex the
winning chain runs.

A gate that is a single vertex pins its breakpoint, so :func:`chain_length`
cuts the chain there and solves each piece on its own: a piece with no
gate is a segment, one with one gate is the closed form of
:func:`box_segment_min`, and only a piece of two or more gates is a
sum-of-norms program over the free gate coordinates.  Such a piece first
tries its unfolded start: when every gate is a facet of both cells beside
it, the cells unfold into the frame of the first, as shortest paths on
polyhedral surfaces are found (Sharir and Schorr, SIAM J. Comput. 15,
1986; Mitchell, Mount and Papadimitriou, SIAM J. Comput. 16, 1987), and
the straight line to the unfolded end, pulled tight at the gate it misses
most, is certified or refused by the solver's own gap.  Otherwise one
projected Newton method returns only a certified optimum.  Its Hessian is
a symmetric positive definite band matrix, each gate's coordinates coupled
only to the next gate's, so each step is one band Cholesky factorisation
on Python floats; breakpoints that meet, where the path wraps an edge
shared by consecutive gates, are merged at the end of every smoothing
level.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from collections import namedtuple

from .complexes import CubicalComplex
from .convex import _all_finite, _checked_make, box_segment_min

__all__ = [
    "Geodesic",
    "GeodesicError",
    "chain_length",
    "geodesic",
    "distance",
    "midpoint",
    "point_along",
    "vertex_upper_bound",
]


class GeodesicError(RuntimeError):
    """No geodesic could be produced for the request."""


class Geodesic(namedtuple("Geodesic", "breakpoints cells length")):
    """A piecewise-straight path: breakpoints plus one cell id per segment."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, breakpoints, cells, length):
        try:
            if len(breakpoints) >= 2 and len(cells) != len(breakpoints) - 1:
                raise ValueError("need exactly one cell per segment")
        except TypeError:   # no sized sequence
            raise ValueError(f"breakpoints and cells must be sequences, "
                             f"got {breakpoints!r} and {cells!r}") from None
        return tuple.__new__(cls, (breakpoints, cells, length))


def chain_length(cx: CubicalComplex, p, q, chain):
    """Minimal length of a path p -> q crossing the given cell chain, as
    ``(value, breakpoints)`` with the endpoints included.

    A gate that is a single vertex fixes its breakpoint, so the chain is
    cut at every such gate and each piece is solved on its own; the values
    add up and the breakpoints join.  A piece with no gate is a segment and
    one with one gate has the closed form of :func:`box_segment_min`.  A
    piece of more gates whose gates are each a facet of both cells beside
    it is unfolded into the frame of its first cell (:func:`_unfolded`):
    the straight line to the unfolded end, cut at the crossing farthest
    outside its gate and clamped there, is returned with no Newton step
    when :func:`_certified_gap` is at most 1e-13 (1 + value).  Else the
    piece starts at each gate's own :func:`box_segment_min`
    point and runs projected Newton (:func:`_newton_step`) on ``sum
    sqrt(|x_{i+1} - x_i|^2 + eps^2)``, ``eps`` stepped from 1e-3 down to
    1e-13, at most 10 steps per point per level, until :func:`_certified_gap`
    is at most 1e-13 (1 + value).  At the end of each level breakpoints
    within 10 eps (at least 1e-9) of each other are merged and finished by
    exact Newton, and the merged chain ends the solve once it certifies.  A
    gap above 1e-9 (1 + value) raises GeodesicError.

    The chain is checked first: it must be non-empty and name only maximal
    cells of the complex, start in a cell holding p and end in one holding
    q, and consecutive cells must share a face in ``cx.adjacency``, the
    search's table; else GeodesicError.  Ends that are no sequences of
    numbers, or a ``cx`` that is no :class:`CubicalComplex`, raise
    ValueError.  The chain search calls this only for chains of three or
    more cells; it scores a chain of two from the gate bound it holds.
    """
    try:
        p, q = tuple(map(float, p)), tuple(map(float, q))
    except (TypeError, ValueError):   # no sequence, or an item that is no number
        raise ValueError(f"p and q must be sequences of numbers, got {p!r} and {q!r}") from None
    if not isinstance(cx, CubicalComplex):
        raise ValueError(f"cx must be a CubicalComplex, got {cx!r}")
    try:
        chain = tuple(chain)
        odd = [cell for cell in chain if cell not in cx.adjacency]   # unknown or not maximal
    except TypeError:   # no sequence, or a cell that is no hashable id
        raise GeodesicError(f"chain {chain!r} from {p} to {q} is not a sequence of "
                            "cell ids") from None
    if not chain:
        raise GeodesicError(f"empty chain from {p} to {q}")
    if odd:
        what = "cell {!r} is not maximal" if odd[0] in cx._by_id else "unknown cell {!r}"
        raise GeodesicError(f"chain {chain} from {p} to {q}: " + what.format(odd[0]))
    for end, cell in ((p, chain[0]), (q, chain[-1])):
        if cell not in cx._cells_at(cx.snap(end))[1]:
            raise GeodesicError(f"chain {chain} from {p} to {q}: "
                                f"its end cell {cell} does not hold {end}")
    gates = [dict(cx.adjacency[a]).get(b) for a, b in zip(chain, chain[1:])]
    if None in gates:
        raise GeodesicError(f"consecutive cells of chain {chain} share no face")
    bounds = [cx._boxes[f] for f in gates]
    cuts = [i for i, (lo, hi) in enumerate(bounds) if all(l == h for l, h in zip(lo, hi))]
    # piece k runs from ends[k] through the gates strictly between edges[k] and edges[k + 1]
    ends = [p] + [bounds[i][0] for i in cuts] + [q]
    edges = [-1] + cuts + [len(bounds)]
    total, pts = 0.0, [p]
    for a, b, i, j in zip(ends, ends[1:], edges, edges[1:]):
        cells = [cx._boxes[c] for c in chain[i + 1:j + 1]] if j - i > 2 else None
        val, gap, piece = _solve_piece(a, b, bounds[i + 1:j], cells)
        if gap > 1e-9 * (1.0 + val):
            raise GeodesicError(f"chain {chain} from {p} to {q}: certified gap "
                                f"{gap:.3g} of the piece from {a} to {b} exceeds 1e-9 "
                                f"(1 + length {val:.12g})")
        total += val
        pts += piece[1:]
    return total, pts


_LEVELS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13)   # smoothing eps, coarse to fine


def _solve_piece(a, b, bounds, cells):
    """``(value, gap, breakpoints)`` of the shortest path a -> b through the
    gates ``bounds``, none of them a vertex, between the boxes ``cells`` (see
    :func:`chain_length`)."""
    if not bounds:
        return math.dist(a, b), 0.0, [a, b]
    if len(bounds) == 1:
        val, x = box_segment_min(a, b, *bounds[0])
        return val, 0.0, [a, x, b]

    # boxes of all points, a and b being boxes of their own
    lo = [a] + [g[0] for g in bounds] + [b]
    hi = [a] + [g[1] for g in bounds] + [b]
    line = _unfolded(a, b, cells, bounds)
    if line:
        P = [a, *line, b]
        gap, val = _certified_gap(P, lo, hi)
        if gap <= 1e-13 * (1.0 + val):
            return val, gap, P
    P = [list(x) for x in (a, *(box_segment_min(a, b, *g)[1] for g in bounds), b)]
    gap, val = _certified_gap(P, lo, hi)
    for eps in _LEVELS:
        for _ in range(10 * len(P)):
            if gap <= 1e-13 * (1.0 + val):
                break
            dec = _newton_step(P, lo, hi, eps)
            gap, val = _certified_gap(P, lo, hi)
            if dec <= eps:
                break
        if gap <= 1e-13 * (1.0 + val):
            break
        # smoothing by eps holds points that meet at the optimum about eps
        # apart: glue those within 10 eps and keep the glued chain once it
        # certifies, or after the last level if its gap is the smaller
        near, last = max(1e-9, 10.0 * eps), eps == _LEVELS[-1]
        if last or any(math.dist(x, y) <= near for x, y in zip(P, P[1:])):
            M = _merged(P, lo, hi, near)
            mgap, mval = _certified_gap(M, lo, hi)
            if mgap <= 1e-13 * (1.0 + mval) or (last and mgap < gap):
                gap, val, P = mgap, mval, M
    return val, gap, [tuple(x) for x in P]


def _unfolded(a, b, cells, gates):
    """Breakpoints on the ``gates`` of a path from ``a`` to ``b`` that is
    straight, but for bends at gate boundaries, in the chain of boxes
    ``cells`` unfolded into the frame of the first: the straight line, cut
    at the gate whose crossing lies farthest outside it, at that crossing
    clamped into the gate, and each side pulled tight the same way.  None
    when some gate is not a facet of both cells beside it, or when a line
    runs parallel to a gate it must cross.

    A cell's frame map sends its coordinate i to ``sign[i] x_i + off[i]`` on
    the frame's axis ``perm[i]``.  At a gate, the axis along which the next
    cell leaves it is turned onto the continuation of the axis along which
    the previous cell reaches it; the gate's own points stay put.
    """
    n = len(a)
    perm, sign, off = list(range(n)), [1.0] * n, [0.0] * n
    hinges = []   # per gate: the axis reaching it, the frame map of the cell before it
    for (clo, chi), (glo, ghi), (dlo, dhi) in zip(cells, gates, cells[1:]):
        out = [i for i in range(n) if glo[i] == ghi[i] and clo[i] < chi[i]]
        into = [i for i in range(n) if glo[i] == ghi[i] and dlo[i] < dhi[i]]
        if len(out) != 1 or len(into) != 1:
            return None
        u, v = out[0], into[0]
        hinges.append((u, perm[:], sign[:], off[:]))
        if u != v:   # c + t (x_v - d) continues axis u past the gate at x_u = c
            c, d = glo[u], glo[v]
            t = -1.0 if (clo[u] == c) == (dlo[v] == d) else 1.0
            perm[u], perm[v] = perm[v], perm[u]
            sign[u], sign[v], off[u], off[v] = (sign[v] * t, sign[u] * t,
                                                sign[v] * (d - t * c) + off[v],
                                                sign[u] * (c - t * d) + off[u])

    def frame(x, pm, sg, of):
        X = [0.0] * n
        for i, xi in enumerate(x):
            X[pm[i]] = sg[i] * xi + of[i]
        return X

    def pull(X, Y, i, j):   # the breakpoints on gates i .. j - 1 of the string X -> Y
        pts, worst, cut = [], 1e-12, None
        for g in range(i, j):
            (u, pm, sg, of), (glo, ghi) = hinges[g], gates[g]
            k = pm[u]
            if Y[k] == X[k]:
                return None
            s = (sg[u] * glo[u] + of[u] - X[k]) / (Y[k] - X[k])
            x = [sg[m] * (X[pm[m]] + s * (Y[pm[m]] - X[pm[m]]) - of[m]) for m in range(n)]
            pts.append(tuple(min(max(xm, l), h) for xm, l, h in zip(x, glo, ghi)))
            miss = max(abs(xm - cm) for xm, cm in zip(x, pts[-1]))
            if miss > worst:
                worst, cut = miss, g
        if cut is None:
            return pts
        C = frame(pts[cut - i], *hinges[cut][1:])
        left, right = pull(X, C, i, cut), pull(C, Y, cut + 1, j)
        return None if left is None or right is None else left + [pts[cut - i]] + right

    return pull(a, frame(b, perm, sign, off), 0, len(gates))


def _newton_step(P, lo, hi, eps):
    """One projected Newton step on ``sum sqrt(|x_{i+1} - x_i|^2 + eps^2)``
    over the points ``P``, a list of coordinate lists, in their boxes
    ``[lo, hi]``; coordinates held at a bound by the gradient stay put, as
    does one whose pivot rounding leaves not positive.  The rows of ``P``
    that move are replaced, never written into.  Returns the Newton
    decrement, or 0 if no step t = 1, 1/2, ..., 2^-39 (40 at most) passes
    the Armijo test or moves a coordinate by 1e-15.

    The Hessian is ``Dm^T B Dm``, ``Dm`` the difference operator of the
    points and ``B_i = (I - w_i w_i^T) / r_i`` that of segment i: ``B_{j-1}
    + B_j`` on point j's coordinates and ``-B_j`` between points j and j + 1.
    On the free coordinates in point order, shifted by 1e-12 so that ``eps =
    0`` stays solvable, it is a symmetric positive definite band matrix of
    half-width below 2n, a point with no free coordinate leaving a gap.  A
    row-oriented band Cholesky factorisation (Golub and Van Loan, *Matrix
    Computations*, 4.3) and one substitution each way solve it in O(N n^3)
    float operations, which on boxes of a few axes cost less as Python
    floats than as numpy calls."""
    N, n = len(P), len(P[0])
    zero = [0.0] * n
    # segment i has vector d_i, smoothed length r_i and w_i = d_i / r_i; w and
    # r are padded beyond p and q with a zero vector and an infinite length,
    # so that B_i is zero there
    e2 = eps * eps
    d = [[y - x for x, y in zip(p, q)] for p, q in zip(P, P[1:])]
    r = []
    for di in d:
        ss = 0.0
        for x in di:
            ss += x * x
        r.append(math.sqrt(ss + e2))
    if 0.0 in r:
        return 0.0
    w = [zero] + [[x / ri for x in di] for di, ri in zip(d, r)] + [zero]
    r = [math.inf] + r + [math.inf]
    # the free coordinates (point j, axis k) in point order, with the
    # gradient g_j = w_{j-1} - w_j on them
    free = []
    for j, (x, l, h, u, v) in enumerate(zip(P, lo, hi, w, w[1:])):
        for k in range(n):
            if l[k] < h[k]:
                gk = u[k] - v[k]
                if not (x[k] <= l[k] and gk > 0.0) and not (x[k] >= h[k] and gk < 0.0):
                    free.append((j, k, gk))
    if not free:
        return 0.0

    # H = L L^T, row a of L kept from column first on as (first, row); then
    # L y = -g and L^T s = y, s overwriting y.  A pivot that rounding leaves
    # not positive, where a segment far shorter than its neighbours swamps
    # the shift, is made infinite: its coordinate stays put in this step and
    # the others take the Newton step of the system without it
    L, y, first = [], [], 0
    for a, (j, k, gk) in enumerate(free):
        while free[first][0] < j - 1:
            first += 1
        wl, rl, wr, rr = w[j], r[j], w[j + 1], r[j + 1]
        row = []
        L.append((first, row))
        for b in range(first, a + 1):
            jb, m, _ = free[b]
            h = ((k == m) - wl[k] * wl[m]) / rl   # B_{j-1}(k, m)
            if jb == j:
                h += ((k == m) - wr[k] * wr[m]) / rr + (k == m) * 1e-12
            else:   # point j - 1
                h = -h
            sb, Lb = L[b]
            for c in range(max(first, sb), b):
                h -= row[c - first] * Lb[c - sb]
            row.append(h / Lb[-1] if b < a else math.sqrt(h) if h > 0.0 else math.inf)
        for c in range(first, a):
            gk += row[c - first] * y[c]
        y.append(-gk / row[-1])
    for a in range(len(free) - 1, -1, -1):
        sa, row = L[a]
        y[a] = s = y[a] / row[-1]
        for c in range(sa, a):
            y[c] -= row[c - sa] * s
    dec = -math.fsum(s * gk for (_, _, gk), s in zip(free, y))
    segs = sorted({i for j, _, _ in free for i in (j - 1, j) if 0 <= i < N - 1})

    t = 1.0
    while t > 1e-12:
        # the clipped trial points Pn, their changes dP
        Pn, dP, lin = P[:], [zero] * N, 0.0
        for (j, k, gk), s in zip(free, y):
            if dP[j] is zero:
                Pn[j], dP[j] = P[j][:], zero[:]
            x, l, h = P[j][k], lo[j][k], hi[j][k]
            v = x + t * s
            Pn[j][k] = v = l if v < l else h if v > h else v
            dP[j][k] = v = v - x
            lin += gk * v
        # length changes as differences of squares, exact up to the rounding
        # of the change itself, so that the Armijo test works at tiny steps
        change = 0.0
        for i in segs:
            num, ss = 0.0, 0.0
            for a, b, c in zip(d[i], dP[i], dP[i + 1]):
                D = c - b
                num += D * (2.0 * a + D)
                ss += (a + D) * (a + D)
            change += num / (r[i + 1] + math.sqrt(ss + e2))
        if change < 1e-4 * min(0.0, lin):
            P[:] = Pn
            return dec if any(abs(v) > 1e-15 for dj in dP for v in dj) else 0.0
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
    N, n = len(P), len(P[0])
    zero = [0.0] * n
    U = [zero]
    L = []
    for p, q in zip(P, P[1:]):
        di = [y - x for x, y in zip(p, q)]
        li = math.hypot(*di)
        L.append(li)
        U.append([x / li for x in di] if li > 0.0 else zero)
    U.append(zero)
    for i in range(N - 1):
        if L[i] > 0.0:
            continue
        b = next((k for k in range(i + 1, N - 1) if L[k] > 0.0), N - 1)   # i .. b coincide
        later = range(i + 1, b + 1)
        u = []
        for k in range(n):
            fall = any(lo[m][k] == hi[m][k] or P[m][k] <= lo[m][k] for m in later)
            rise = any(lo[m][k] == hi[m][k] or P[m][k] >= hi[m][k] for m in later)
            low = -math.inf if lo[i][k] == hi[i][k] or P[i][k] <= lo[i][k] else U[i][k]
            high = math.inf if lo[i][k] == hi[i][k] or P[i][k] >= hi[i][k] else U[i][k]
            if not rise:
                low = max(low, U[b + 1][k])
            if not fall:
                high = min(high, U[b + 1][k])
            u.append(min(max(0.0, low), high))
        norm = max(1.0, math.hypot(*u))
        U[i + 1] = [x / norm for x in u]
    terms = []
    for p, l_, h_, u, v in zip(P, lo, hi, U, U[1:]):
        for x, l, h, a, c in zip(p, l_, h_, u, v):
            G = a - c
            terms.append(max(G * (x - l), G * (x - h)))
    val = math.fsum(L)
    gap = math.fsum(terms)
    return min(gap, val - math.dist(P[-1], P[0])), val


def _merged(P, lo, hi, near):
    """``P`` with each run of points within ``near`` of each other glued
    into one point of their boxes' common face, finished by exact Newton on
    the glued chain until it certifies in ``lo``, ``hi``, at most 10 steps
    per glued point; ``P`` itself if some run's boxes do not meet."""
    runs = [[0]]
    for j in range(1, len(P)):
        if math.dist(P[j - 1], P[j]) > near:
            runs.append([j])
        else:
            runs[-1].append(j)
    glo = [[max(c) for c in zip(*[lo[j] for j in run])] for run in runs]
    ghi = [[min(c) for c in zip(*[hi[j] for j in run])] for run in runs]
    if any(l > h for gl, gh in zip(glo, ghi) for l, h in zip(gl, gh)):
        return P
    R = [[min(max(math.fsum(c) / len(run), l), h)
          for c, l, h in zip(zip(*[P[j] for j in run]), gl, gh)]
         for run, gl, gh in zip(runs, glo, ghi)]
    at = [i for i, run in enumerate(runs) for _ in run]   # P's point j is R's point at[j]
    if any(l < h for gl, gh in zip(glo, ghi) for l, h in zip(gl, gh)):   # else nothing moves
        for _ in range(10 * len(R)):
            gap, val = _certified_gap([R[i] for i in at], lo, hi)
            if gap <= 1e-13 * (1.0 + val) or _newton_step(R, glo, ghi, 0.0) <= 0.0:
                break
    return [R[i] for i in at]


def vertex_upper_bound(cx: CubicalComplex, p, q) -> float:
    """An upper bound on the distance from p to q, infinite exactly when
    they lie in different connected components.

    Cells are convex, so a geodesic crosses each maximal cell at most once,
    in a segment no longer than the cell's diagonal; ``sqrt(n)`` times the
    number of maximal cells bounds its length.  The name is kept from the
    vertex-graph path this bound once was, because counting its calls is
    how a tracer counts chain searches: each search calls it once.
    ``ValueError`` unless ``cx`` is a :class:`CubicalComplex`.
    """
    if not isinstance(cx, CubicalComplex):
        raise ValueError(f"cx must be a CubicalComplex, got {cx!r}")
    if len({cx._component[cx.maximal_cells_containing(x)[0]] for x in (p, q)}) > 1:
        return math.inf
    return math.sqrt(cx.ambient_dim) * len(cx.maximal_ids)


def _assemble(chain, pts):
    """The Geodesic through the snapped points ``pts``, one cell of
    ``chain`` per segment, with segments of at most 1e-9 elided."""
    bps, cells, total = [pts[0]], [], 0.0
    for cell, x in zip(chain, pts[1:]):
        step = math.dist(x, bps[-1])
        if step > 1e-9:
            bps.append(x)
            cells.append(cell)
            total += step
    return Geodesic(tuple(bps), tuple(cells), total)


# geodesics cached per complex: ~400 B an entry on the bundled corpora, 0.7-0.9 KB on the
# generated families' longer paths, 3.9 KB on grid10's 27-cell ones (the ends are the key's
# tuples, integer coordinates the complex's floats); a recognize call re-reads a few dozen at most
_CACHE_SIZE = 1024
# serialises evict-and-insert across the threads of a heat map; hits take no lock
_CACHE_LOCK = threading.Lock()


def geodesic(cx: CubicalComplex, p, q) -> Geodesic:
    """The geodesic from ``p`` to ``q`` (unique in a valid complex).

    Each end is read as coordinates by :meth:`CubicalComplex._snapped`.  The cache
    holds one entry per unordered pair of them, solved in the direction first asked for
    and reversed exactly when read the other way; every key's ends were walked between
    or located once, so a hit skips no check.  It holds at most ``_CACHE_SIZE`` entries:
    a miss that finds it full first drops the oldest inserted entry (a hit does not
    reorder), and a pair dropped is solved again, in the direction it is next asked
    for.  On a miss, ends of the complex's dimension are walked between unlocated: a
    walk that ends proves both lie in the complex.  Otherwise :func:`_search` locates
    each end, p first.  ``ValueError`` unless ``cx`` is a :class:`CubicalComplex`.
    """
    if not isinstance(cx, CubicalComplex):
        raise ValueError(f"cx must be a CubicalComplex, got {cx!r}")
    a, b = cx._snapped(p), cx._snapped(q)
    key = (a, b) if a <= b else (b, a)
    g = cx._geo_cache.get(key)
    if g is None:
        g = (len(a) == len(b) == cx.ambient_dim and _walk(cx, a, b)) or _search(cx, a, b)
        _store(cx._geo_cache, key, g)
    if g.breakpoints[0] != a:
        return Geodesic(g.breakpoints[::-1], g.cells[::-1], g.length)
    return g


def _store(table, key, value):
    """``table[key] = value`` under ``_CACHE_LOCK``; a new key that finds the
    table full first drops its oldest inserted entry."""
    with _CACHE_LOCK:
        if key not in table and len(table) >= _CACHE_SIZE:
            del table[next(iter(table))]
        table[key] = value


def _walk(cx, p, q):
    """The straight segment from the snapped point p to q as a Geodesic, or
    None when part of it lies in no cell of the complex.

    The first lattice cell it crosses spans each axis it moves along by the
    unit interval it enters, and each parallel one (``|d_i| <= 1e-14``, as
    in :func:`~meanset.convex.segment_span`) unless ``p_i`` is an integer.
    Each crossing of an integer plane ``x_i = e`` up to each axis's first
    past q is listed once, ``(t, axis, step)`` with ``t = (e - p_i) / d_i``
    as ``segment_span`` computes a box's exit, and the list is sorted.  The
    crossings within 1e-12 of a group's first ``t`` make one step, whose
    exit point, snapped by :meth:`CubicalComplex.snap`'s rule, ends a piece
    kept and measured by :func:`_assemble`'s; each cell crossed goes to the
    first of its owners in cell order.  A straight segment enters each
    lattice cell at most once, so an axis crossing more planes than the
    complex has cells gives None before any is listed.
    """
    d, base, axes, cross = [], [], [], []
    for i, (a, b) in enumerate(zip(p, q)):
        d.append(di := b - a)
        k = math.floor(a) if di >= -1e-14 else math.ceil(a) - 1
        base.append(k)
        if abs(di) > 1e-14 or a != k:
            axes.append(i)
        if abs(di) > 1e-14:   # planes e, e + s, ... short of end; all but the last two lie before q
            s, e, end = (1, k + 1, math.floor(b) + 2) if di > 0.0 else (-1, k, math.ceil(b) - 2)
            if (end - e) * s - 2 > len(cx.cells):
                return None
            while e != end:
                cross.append(((e - a) / di, i, s))
                e += s
    cross = sorted(cross) + [(math.inf, 0, 0)]
    axes, index, owners, floats = tuple(axes), cx._index, cx._owners, cx._floats
    bps, cells, total, j = [p], [], 0.0, 0
    while True:
        cell = index.get((tuple(base), axes))
        if cell is None:
            return None
        t = cross[j][0]
        if t >= 1.0:
            y = q
        else:   # snap's rule; c % 1.0 is within 2e-16 of c's distance above its floor
            y = []
            for a, di in zip(p, d):
                c = a + t * di
                y.append(c if 2e-9 < c % 1.0 < 0.999999998 or abs(c - (r := round(c))) > 1e-9
                         else floats[r] if r in floats else float(r))
            y = tuple(y)
        step = math.dist(y, bps[-1])
        if step > 1e-9:
            bps.append(y)
            cells.append(owners[cell][0])
            total += step
        if t >= 1.0:
            return Geodesic(tuple(bps), tuple(cells), total)
        while cross[j][0] <= t + 1e-12:
            _, i, s = cross[j]
            base[i] += s
            j += 1


def _search(cx, p, q):
    """Best-first chain search (see the module docstring) from the snapped point p,
    located first, to q: a geodesic ending on the tuples p and q, its other breakpoints snapped.

    First the pivot ``(v, tail)`` of an earlier answer that started in a
    maximal cell holding p (the first in cell order that has one) and ended
    at q: the walk from p to the vertex v, on their coordinates, joined to
    ``tail``, is returned if :func:`_link_slack` at v is at least -1e-7;
    a pivot whose walk leaves the complex, is a single point or fails the
    test is dropped and leaves the search to the heap.  When ``cx`` is
    proved CAT(0), the heap's answer with a vertex between its ends gives
    the pivot of its first cell and q (:func:`_remember`).
    """
    p_loc, q_loc = cx._locate_snapped(p), cx._locate_snapped(q)
    if not math.isfinite(vertex_upper_bound(cx, p_loc, q_loc)):
        raise GeodesicError(
            f"points {p} (cell {p_loc.minimal_cell}) and {q} (cell {q_loc.minimal_cell}) "
            "lie in different connected components; no geodesic exists"
        )

    starts = cx._owners[p_loc.minimal_cell]
    pivots = cx._pivots
    key = next((k for s in starts if (k := (s, q)) in pivots), None) if pivots else None
    pivot = pivots.get(key) if key else None
    if pivot is not None:
        v, tail = pivot
        w = _walk(cx, p, v)
        if w is not None and len(w.breakpoints) > 1 and \
                _link_slack(cx, v, w.breakpoints[-2], tail.breakpoints[1]) >= -1e-7:
            return _assemble(w.cells + tail.cells, w.breakpoints + tail.breakpoints[1:])
        _drop(pivots, key, pivot)

    ends = frozenset(cx._owners[q_loc.minimal_cell])
    counter = itertools.count()
    direct = math.dist(p, q)
    heap = [(direct, next(counter), (s,), None) for s in starts]

    face_lb = {}   # face id -> box_segment_min(p, q, face): shortest length, its minimiser
    best_val, best = math.inf, None
    while heap:
        lb, _, chain, gate = heapq.heappop(heap)
        if lb >= best_val - 1e-9:   # nothing left can beat the best chain
            break
        last = chain[-1]
        if last in ends:
            if len(chain) == 2:   # two convex boxes meeting in the gate: its bound is exact
                val, x = face_lb[gate]
                pts = [p, x, q]
            else:
                val, pts = chain_length(cx, p, q, chain)
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
                heapq.heappush(heap, (nlb, next(counter), chain + (nbr,), fid))

    if best is None:
        raise GeodesicError(
            f"no cell chain joins {p} and {q} in one connected component; "
            "the complex is inconsistent"
        )
    chain, pts = best
    g = _assemble(chain, [p, *map(cx.snap, pts[1:-1]), q])
    _remember(cx, q, g)
    return g


def _remember(cx, q, g):
    """On a complex proved CAT(0), keep the pivot of ``g``: its first
    breakpoint between the ends that is a vertex, with the part of ``g``
    from there on, under ``g``'s first cell and ``q``."""
    bps = g.breakpoints
    j = next((j for j in range(1, len(bps) - 1) if all(map(float.is_integer, bps[j]))), None)
    if j and cx.validate().cat0:
        _store(cx._pivots, (g.cells[0], q), (bps[j], _assemble(g.cells[j:], bps[j:])))


def _drop(table, key, value):
    """Delete ``table[key]`` under ``_CACHE_LOCK`` if it is still ``value``."""
    with _CACHE_LOCK:
        if table.get(key) is value:
            del table[key]


def _link_slack(cx, x, prev, nxt) -> float:
    """How far the path ``prev -> x -> nxt`` is from meeting itself at the
    angle pi at ``x``: 0 when it does, up to rounding, and negative otherwise
    (Miller, Owen and Provan, Adv. Appl. Math. 68, 2015).

    Let sigma be the carrier of ``x`` and d1, d2 the vectors to ``prev`` and
    ``nxt``.  Their parts along sigma's axes must match, ``(d1 par, |d1 perp|)
    / |d1| = (-d2 par, |d2 perp|) / |d2|``; the distance between the two unit
    vectors, negated, is the slack of that.  When both normal parts are
    nonzero, their signed directions (axis, sign), weighted by their squared
    share of the normal part on each side, must meet at distance pi in the
    link of sigma: two directions, one of each side, clash when they share an
    axis with opposite signs or when sigma and both edges lie in no cell
    (:meth:`CubicalComplex._spans`, ``validate``'s rule too), and a minimum-weight
    vertex cover of the clashes, brute-forced
    over the subsets of the smaller side, must weigh 1.  A direction on both
    sides clashes with nothing, so it lowers the cover by its weight; the
    cover weighs at most 1, and its slack is its weight less 1.  The slack is
    the smaller of the two."""
    sigma = cx._by_id[cx._cells_at(x)[0]]
    along = sigma.axes
    d1 = [a - b for a, b in zip(prev, x)]
    d2 = [a - b for a, b in zip(nxt, x)]
    l1, l2 = math.hypot(*d1), math.hypot(*d2)
    # each side's signed normal directions with their squared coordinates
    A = {(i, v > 0.0): v * v for i, v in enumerate(d1) if v and i not in along}
    B = {(i, v > 0.0): v * v for i, v in enumerate(d2) if v and i not in along}
    n1, n2 = sum(A.values()), sum(B.values())
    slack = -math.hypot(*(d1[i] / l1 + d2[i] / l2 for i in along),
                        math.sqrt(n1) / l1 - math.sqrt(n2) / l2)
    if not (A and B):
        return slack
    if len(A) > len(B):
        A, B, n1, n2 = B, A, n2, n1
    # a and b clash unless they are one direction or sigma and both edges lie in one cell
    clash = [{b for b in B if not (a == b or cx._spans(sigma.base, along, (a, b)))} for a in A]
    wa = [w / n1 for w in A.values()]
    cover = math.inf
    for mask in range(1 << len(A)):   # the directions of A in the cover; B covers the rest's clashes
        rest = set().union(*(c for k, c in enumerate(clash) if not mask >> k & 1))
        cover = min(cover, sum(w for k, w in enumerate(wa) if mask >> k & 1)
                    + sum(B[b] for b in rest) / n2)
    return min(slack, cover - 1.0)


def distance(cx: CubicalComplex, p, q) -> float:
    return geodesic(cx, p, q).length


def point_along(g: Geodesic, s: float) -> tuple:
    """The point a fraction ``s`` of the total length along ``g``."""
    if not isinstance(g, Geodesic):
        raise ValueError(f"g must be a Geodesic, got {g!r}")
    if not (_all_finite([s]) and -1e-12 <= s <= 1.0 + 1e-12):
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
