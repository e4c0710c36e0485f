"""Oracles that share no code with the solvers they check.

At a point in the relative interior of a maximal cell the mean deficit is
the Euclidean distance from the point to the hull of the straightened set
points.  Here that distance is rebuilt from ``geodesic`` and
``point_along`` alone and solved with scipy's NNLS.  The face through
which a geodesic leaves a cell, which ``meanset.boundary`` reads off as a
sign pattern, is found here from the cells that hold the geodesic's first
segment.  The shortest broken line through a chain of gates, which
``meanset.geodesics`` solves by Newton's method, is solved here by scipy's
SLSQP; one Newton step of that
solver and its certified gap are checked against the dense array forms
they replaced.  A cell's conic problem,
the distance from the hull of its model sets to a sign cone, which
``meanset.convex`` solves by Wolfe's algorithm and Frank-Wolfe rounds, is
solved here by NNLS where the hull is a polytope and by SLSQP over the
sets' cone form where it is curved, and Wolfe's algorithm itself, which
``meanset.convex`` runs on Python floats, is kept here in its numpy form.
The distance inside a flat polyomino,
which ``meanset.geodesics`` finds by a chain search, is found here on the
visibility graph of its reflex vertices.  The shortest path through a box,
which ``meanset.convex`` finds on the faces that can hold it, is found
here on all of them.  The straight-segment walk, which
``meanset.geodesics`` steps through the lattice axis by axis, is kept here
in the form that clips the segment to each cell's box by ``segment_span``
and tests each neighbour's shared face; it shares only the final assembly
with the walk, so it checks the stepping alone.  The link test at a
geodesic's breakpoints, which ``meanset.geodesics`` runs with a
brute-force vertex cover, is run here with numpy arrays and the cover
solved as a linear program by scipy's ``linprog``.
"""

import heapq
import itertools
import math
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.optimize import linprog, minimize, nnls

from meanset import geodesic, geodesics, mean_deficit, point_along, recognize
from meanset.convex import box_segment_min, segment_span


def straightened_deficit(A, x) -> float:
    """Distance from ``x`` to the hull of the straightened set points.

    Each geodesic from ``x`` is cut back by halving its fraction ``t``
    until ``point_along`` lands in the query's cell, and the cut point
    ``p`` is pushed back out to full length: ``z_a = x + (p - x) / t``.
    """
    cx = A.cx
    loc = cx.locate(x)
    cell = cx.cell(loc.minimal_cell)
    assert loc.minimal_cell in cx.maximal_ids, "needs a relative-interior point"
    xs = np.asarray(loc.coords, dtype=float)
    Z = []
    for lbl in A.labels:
        g = geodesic(cx, loc.coords, A.coords(lbl))
        t = 1.0
        for _ in range(60):
            p = np.asarray(point_along(g, t), dtype=float)
            if cell.contains(p):
                break
            t *= 0.5
        else:
            raise AssertionError(f"geodesic to {lbl!r} never enters the query's cell")
        Z.append(xs + (p - xs) / t)
    return hull_to_cone_nnls(np.array(Z) - xs, ("zero",) * len(xs))[1]


def agrees_with_straightened(A, x, tol: float = 1e-7) -> tuple:
    """``(ok, oracle deficit, mean_deficit, decision)`` at a relative-interior point.

    ``ok`` holds when ``recognize`` decides as the oracle does and
    ``mean_deficit`` is within ``tol`` of the oracle's value.
    """
    want = straightened_deficit(A, x)
    got = mean_deficit(A, x).value
    decision = recognize(A, x).decision
    ok = decision == ("member" if want <= 1e-8 else "non-member") and abs(got - want) <= tol
    return ok, want, got, decision


def cells_holding(cx, x) -> tuple:
    """Ids of every lattice cell holding the snapped point ``x``, in cell
    order, by testing each cell in turn."""
    p = cx.snap(x)
    return tuple(c.ident for c in cx.cells if c.contains(p, 0.0))


def cell_meet(a, b):
    """Per-axis integer intervals ``(lo, hi)`` of the intersection of two
    cells, or None when they are disjoint."""
    lo, hi = [], []
    for i in range(len(a.base)):
        low = max(a.base[i], b.base[i])
        high = min(a.base[i] + (i in a.axes), b.base[i] + (i in b.axes))
        if low > high:
            return None
        lo.append(low)
        hi.append(high)
    return lo, hi


def exit_normal_cone(cx, x, cell_id, a):
    """Normal cone at ``x`` of the face of cell ``cell_id`` through which the
    geodesic from ``x`` to ``a`` leaves it: the meet of that cell and the
    smallest cell (first in id order on ties) holding both ``x`` and the
    geodesic's first breakpoint, found among all cells by its box."""
    x_a = geodesic(cx, x, a).breakpoints[1]
    shared = set(cells_holding(cx, x)) & set(cells_holding(cx, x_a))
    via = min(shared, key=lambda cid: (cx.cell(cid).dim, cid))
    lo, hi = cell_meet(cx.cell(cell_id), cx.cell(via))
    key = (tuple(lo), tuple(i for i, (l, h) in enumerate(zip(lo, hi)) if h > l))
    face = next(c.ident for c in cx.cells if (c.base, c.axes) == key)
    return cx.tangent_cone(face, x).polar()


def chain_oracle(p, q, gates) -> float:
    """Length of the shortest broken line ``p -> x_1 -> ... -> x_k -> q``
    with each ``x_i`` in the box ``gates[i] = (lo, hi)``, by SLSQP.

    The variables are the coordinates with ``lo < hi``.  SLSQP runs from the
    box centres and from the points of the segment ``[p, q]`` clipped into
    the boxes; the shorter result is returned.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    lo = np.array([g[0] for g in gates], dtype=float)
    hi = np.array([g[1] for g in gates], dtype=float)
    free = lo < hi

    def points(z):
        X = lo.copy()
        X[free] = z
        return np.vstack([p, X, q])

    def length(z):
        return float(np.linalg.norm(np.diff(points(z), axis=0), axis=1).sum())

    def gradient(z):
        d = np.diff(points(z), axis=0)
        n = np.linalg.norm(d, axis=1)
        u = np.where(n[:, None] > 0, d / np.where(n > 0, n, 1.0)[:, None], 0.0)
        return (u[:-1] - u[1:])[free]

    if not free.any():   # every gate is a vertex: the path is fixed
        return length(np.zeros(0))
    t = np.arange(1, len(lo) + 1)[:, None] / (len(lo) + 1)
    starts = (0.5 * (lo + hi), np.clip(p + t * (q - p), lo, hi))
    return min(
        minimize(length, x0[free], jac=gradient, method="SLSQP",
                 bounds=list(zip(lo[free], hi[free])),
                 options={"ftol": 1e-16, "maxiter": 1000}).fun
        for x0 in starts
    )


def full_box_segment_min(a, b, lo, hi):
    """``meanset.convex.box_segment_min`` written out on its own: every one
    of the 3**k faces of the box is tried, as the solver tries every face,
    with its own enumeration of the faces in place of the solver's cached
    one.  The segment fast path and the closed form per face are the
    solver's own; faces are visited by decreasing dimension, the first
    candidate of the least value kept."""
    a, b = [*map(float, a)], [*map(float, b)]
    lo, hi = [*map(float, lo)], [*map(float, hi)]
    n = len(a)
    d = [bi - ai for ai, bi in zip(a, b)]
    span = segment_span(a, d, lo, hi)
    if span is not None or math.dist(a, b) <= 1e-13:
        return box_segment_min(a, b, lo, hi)
    freed = [i for i in range(n) if hi[i] - lo[i] > 1e-12]
    base = [0.5 * (lo[i] + hi[i]) for i in range(n)]
    faces = sorted(itertools.product((0, -1, 1), repeat=len(freed)),
                   key=lambda f: f.count(0), reverse=True)
    best_val, best_x = math.inf, None
    for face in faces:
        x = base[:]
        free = [i for i, side in zip(freed, face) if side == 0]
        for i, side in zip(freed, face):
            if side:
                x[i] = lo[i] if side < 0 else hi[i]
        ca = cb = 0.0
        for i in range(n):
            if i not in free:
                ca += (a[i] - x[i]) * (a[i] - x[i])
                cb += (b[i] - x[i]) * (b[i] - x[i])
        P, Q = math.sqrt(ca), math.sqrt(cb)
        if not free:
            if P + Q < best_val:
                best_val, best_x = P + Q, x
            continue
        if P + Q <= 0.0:
            continue
        span = 0.0
        for i in free:
            t = (a[i] * Q + b[i] * P) / (P + Q)
            if t < lo[i] - 1e-12 or t > hi[i] + 1e-12:
                break
            x[i] = min(max(t, lo[i]), hi[i])
            span += (b[i] - a[i]) * (b[i] - a[i])
        else:
            val = math.hypot(P + Q, math.sqrt(span))
            if val < best_val:
                best_val, best_x = val, x
    return math.dist(a, best_x) + math.dist(best_x, b), tuple(best_x)


def dense_newton_step(P, lo, hi, eps) -> float:
    """One projected Newton step on ``sum sqrt(|x_{i+1} - x_i|^2 + eps^2)``
    over the rows of the array ``P`` in their boxes ``[lo, hi]``, in place,
    with the dense Hessian: the reference for ``meanset.geodesics``' band
    Cholesky solve.  Coordinates held at a bound by the gradient stay put; the
    Hessian ``Dm^T B Dm`` is built whole by ``einsum``, shifted by 1e-12 on
    the free coordinates and solved by ``numpy.linalg.solve``; the step is
    clipped into the boxes and halved until the Armijo test passes.
    Returns the Newton decrement, or 0 if no step passes or none moves a
    coordinate by 1e-15."""
    N, n = P.shape
    Dm = np.diff(np.eye(N), axis=0)        # the segment vectors are Dm @ P
    d = Dm @ P
    r = np.sqrt((d * d).sum(axis=1) + eps * eps)
    w = d / np.where(r > 0.0, r, 1.0)[:, None]
    g = Dm.T @ w
    free = ((lo < hi) & ~((P <= lo) & (g > 0)) & ~((P >= hi) & (g < 0))).ravel()
    if not free.any() or not r.all():
        return 0.0
    B = (np.eye(n) - w[:, :, None] * w[:, None, :]) / r[:, None, None]
    H = np.einsum("ia,ikl,ib->akbl", Dm, B, Dm).reshape(N * n, N * n)[np.ix_(free, free)]
    step = np.zeros(N * n)
    step[free] = np.linalg.solve(H + 1e-12 * np.eye(free.sum()), -g.ravel()[free])
    step = step.reshape(N, n)
    t = 1.0
    while t > 1e-12:
        Pn = np.clip(P + t * step, lo, hi)
        D = Dm @ (Pn - P)
        rn = np.sqrt(((d + D) ** 2).sum(axis=1) + eps * eps)
        change = ((D * (2.0 * d + D)).sum(axis=1) / (r + rn)).sum()
        if change < 1e-4 * min(0.0, float((g * (Pn - P)).sum())):
            moved = np.abs(Pn - P).max() > 1e-15
            P[:] = Pn
            return -float(g.ravel() @ step.ravel()) if moved else 0.0
        t *= 0.5
    return 0.0


def array_certified_gap(P, lo, hi) -> tuple:
    """``(gap, value)`` of the broken line through the rows of the array
    ``P`` in their boxes, computed on whole arrays: the reference for
    ``meanset.geodesics._certified_gap``, which works point by point.  The
    gap is the smaller of ``value - |p - q|`` and the Frank-Wolfe gap of the
    subgradient ``G_j = u_{j-1} - u_j``; along a run of zero-length
    segments each ``u`` is, per coordinate, nearest 0 such that the run
    still reaches the next unit vector, falling across a point only at a
    lower bound and rising only at an upper one."""
    d = np.diff(P, axis=0)
    L = np.sqrt((d * d).sum(axis=1))
    U = np.zeros((len(P) + 1, P.shape[1]))
    U[1:-1] = d / np.where(L > 0.0, L, 1.0)[:, None]
    fall, rise = (lo == hi) | (P <= lo), (lo == hi) | (P >= hi)
    zero = np.flatnonzero(L == 0.0)
    for run in np.split(zero, np.flatnonzero(np.diff(zero) > 1) + 1) if zero.size else ():
        b = run[-1] + 1
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


def _array_affine_min_norm(Q: np.ndarray, e=None) -> np.ndarray:
    """Minimiser weights over the affine span of the rows of ``Q`` (may be
    negative), by an LU solve of the KKT system with a least-squares
    fallback when a pivot is at most 1e-12 of the largest entry of its row,
    or the weights miss the sum-to-one row by 1e-6.  With ``e`` (1 for a
    point row, 0 for a ray row) only the point weights must sum to one."""
    k = Q.shape[0]
    if k == 1:
        return np.ones(1)
    G = Q @ Q.T
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G
    kkt[:k, k] = kkt[k, :k] = 1.0 if e is None else e
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)   # an exactly zero pivot
        lu, piv = lu_factor(kkt, check_finite=False)
    rows = list(range(k + 1))   # the row of kkt that each row of lu came from
    for i, j in enumerate(piv):
        rows[i], rows[j] = rows[j], rows[i]
    bad = (np.abs(np.diag(lu)) <= 1e-12 * np.abs(kkt).max(axis=1)[rows]).any()
    if not bad:
        sol = lu_solve((lu, piv), rhs)
        v = sol[:k]
        s = v.sum() if e is None else v @ e
        bad = not np.isfinite(sol).all() or abs(s - 1.0) > 1e-6
    if bad:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        v = sol[:k]
        s = v.sum() if e is None else v @ e
    if abs(s - 1.0) > 1e-12 and abs(s) > 1e-12:
        v = v / s
    return v


def array_min_norm_point(points, rays=None) -> tuple:
    """``(point, weights, gap)``: Wolfe's algorithm for the nearest point of
    ``conv(points) + cone(rays)`` to the origin on numpy arrays, step for
    step as ``meanset.convex.min_norm_point`` runs it on floats: the
    reference that the float version must match."""
    Q = np.array(points, dtype=float)
    m = Q.shape[0]
    sq = np.einsum("ij,ij->i", Q, Q)
    scale = max(1.0, float(sq.max(initial=0.0)))
    root = math.sqrt(scale)
    e = None  # 1 for a point, 0 for a ray
    if rays is not None:
        Q = np.vstack([Q, rays])
        e = np.arange(Q.shape[0]) < m

    corral = [int(sq.argmin())]
    w = np.ones(1)
    x = Q[corral[0]].copy()
    budget = 64 * Q.shape[0] + 256
    while True:
        dots = Q @ x
        xx = float(x @ x)
        if e is not None:
            dots[m:] = xx + root * dots[m:]  # <x, x + root * r> for a ray r
        j = int(dots.argmin())
        gap = xx - float(dots[j])
        if gap <= 1e-12 * scale or j in corral or budget == 0:
            break
        budget -= 1
        corral.append(j)
        v = _array_affine_min_norm(Q[corral], None if e is None else e[corral])
        if v[-1] <= 0.0:
            corral.pop()
            break
        w = np.append(w, 0.0)
        while (v <= 1e-12).any():
            theta = 1.0
            for i in range(len(corral)):
                if v[i] <= 1e-12 and w[i] > v[i]:
                    theta = min(theta, w[i] / (w[i] - v[i]))
            w = (1.0 - theta) * w + theta * v
            w[w < 1e-13] = 0.0
            keep = w > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep]
            w = w / (w.sum() if e is None else w @ e[corral])
            v = _array_affine_min_norm(Q[corral], None if e is None else e[corral])
        w = v
        x = w @ Q[corral]

    weights = np.zeros(m)
    for c, wi in zip(corral, w):
        if c < m:
            weights[c] += wi
    return x, weights, gap


def _ray_columns(signs) -> list:
    """Columns ``-m`` can use for a cone point ``m``: ``-e_i`` on a
    ``nonneg`` axis, ``+e_i`` on a ``nonpos`` one, both on a ``free`` one."""
    n = len(signs)
    cols = []
    for i, s in enumerate(signs):
        for sign in {"nonneg": (-1.0,), "nonpos": (1.0,), "free": (-1.0, 1.0)}.get(s, ()):
            col = np.zeros(n)
            col[i] = sign
            cols.append(col)
    return cols


def hull_to_cone_nnls(P, signs) -> tuple:
    """Weights ``w`` on the simplex and the distance from ``w @ P`` to the
    sign cone ``signs``, minimised over both, by NNLS.

    The unknowns are the point weights and one weight per ray column of the
    cone.  NNLS drives ``w @ P`` plus the rays to 0, with one extra row
    ``c * sum(w) = c`` on the point weights alone.  The objective is
    homogeneous of degree two on the cone of unknowns, so the penalised
    optimum lies on the ray through the constrained one and rescaling by
    ``sum(w)`` recovers it.
    """
    P = np.asarray(P, dtype=float)
    rays = _ray_columns(signs)
    c = max(1.0, float(np.abs(P).max()))
    M = np.hstack([P.T, np.array(rays).T.reshape(P.shape[1], len(rays))])
    M = np.vstack([M, np.r_[np.full(len(P), c), np.zeros(len(rays))]])
    b = np.zeros(M.shape[0])
    b[-1] = c
    sol, _ = nnls(M, b)
    sol = sol / sol[:len(P)].sum()
    return sol[:len(P)], float(np.linalg.norm(M[:-1] @ sol))


def polytope_points(sets):
    """The vertices of the hull of ``sets``, or None when one set is curved.

    A ``Singleton`` is its point.  A ``ConeBall`` whose cone has one
    non-``zero`` axis ``i`` is the segment of ``scale * (t e_i - u)`` over
    the ``t`` of the axis's sign with ``|t e_i - u| <= 1``.
    """
    pts = []
    for s in sets:
        if type(s).__name__ == "Singleton":
            pts.append(s.scale * np.asarray(s.g, dtype=float))
            continue
        live = [i for i, sign in enumerate(s.cone.signs) if sign != "zero"]
        if len(live) != 1:
            return None
        i = live[0]
        u = np.asarray(s.u, dtype=float)
        half = abs(u[i])   # the ball's radius on axis i, as |u| = 1
        lo, hi = u[i] - half, u[i] + half
        if s.cone.signs[i] == "nonneg":
            lo = max(lo, 0.0)
        elif s.cone.signs[i] == "nonpos":
            hi = min(hi, 0.0)
        for t in (lo, hi):
            pts.append(s.scale * (t * np.eye(len(u))[i] - u))
    return np.array(pts)


def _project_signs(z, signs):
    out = np.array(z, dtype=float)
    for i, s in enumerate(signs):
        if s == "zero" or (s == "nonneg" and out[i] < 0) or (s == "nonpos" and out[i] > 0):
            out[i] = 0.0
    return out


def _sign_bounds(signs):
    return [{"zero": (0.0, 0.0), "nonneg": (0.0, None), "nonpos": (None, 0.0),
             "free": (None, None)}[s] for s in signs]


def hull_to_cone_slsqp(sets, signs, starts: int = 3, seed: int = 0) -> float:
    """An achievable distance from ``conv(union of sets)`` to the sign cone
    ``signs``, by SLSQP over the cone form of the sets.

    A ``ConeBall`` ``scale * {n - u : n in N, |n - u| <= 1}`` with weight
    ``l`` contributes ``scale * (w - l u)`` with ``w`` in ``N`` and
    ``|w - l u| <= l``; a ``Singleton`` contributes ``l`` times its point.
    Each run is repaired to exact feasibility before its distance is read:
    the weights are put on the simplex, each ``w`` is clamped into ``N`` and
    then shrunk toward 0 (which stays in ``N`` and, as ``|u| = 1``, meets
    the ball) until it is strictly inside the ball.  The least repaired
    distance over the runs is returned, so it never lies below the optimum.
    """
    k, n = len(sets), len(signs)
    balls = [a for a, s in enumerate(sets) if type(s).__name__ != "Singleton"]
    col = {a: k + j * n for j, a in enumerate(balls)}
    m0 = k + len(balls) * n
    U = {a: np.asarray(sets[a].u, dtype=float) for a in balls}
    pts = {a: sets[a].scale * np.asarray(sets[a].g, dtype=float)
           for a in range(k) if a not in col}

    def hull_point(x):
        z = np.zeros(n)
        for a in range(k):
            if a in col:
                z += sets[a].scale * (x[col[a]:col[a] + n] - x[a] * U[a])
            else:
                z += x[a] * pts[a]
        return z

    def objective(x):
        r = hull_point(x) - x[m0:]
        return float(r @ r)

    def gradient(x):
        r = 2.0 * (hull_point(x) - x[m0:])
        g = np.zeros_like(x)
        for a in range(k):
            if a in col:
                g[a] = -sets[a].scale * (r @ U[a])
                g[col[a]:col[a] + n] = sets[a].scale * r
            else:
                g[a] = r @ pts[a]
        g[m0:] = -r
        return g

    def ball(a):
        def fun(x):
            y = x[col[a]:col[a] + n] - x[a] * U[a]
            return x[a] * x[a] - y @ y

        def jac(x):
            y = x[col[a]:col[a] + n] - x[a] * U[a]
            g = np.zeros_like(x)
            g[a] = 2.0 * x[a] + 2.0 * (y @ U[a])
            g[col[a]:col[a] + n] = -2.0 * y
            return g
        return {"type": "ineq", "fun": fun, "jac": jac}

    bounds = [(0.0, None)] * k
    for a in balls:
        bounds += _sign_bounds(sets[a].cone.signs)
    bounds += _sign_bounds(signs)
    cons = [{"type": "eq", "fun": lambda x: x[:k].sum() - 1.0,
             "jac": lambda x: np.r_[np.ones(k), np.zeros(len(x) - k)]}]
    cons += [ball(a) for a in balls]

    def repaired(x):
        lam = np.clip(x[:k], 0.0, None)
        lam = lam / lam.sum()
        z = np.zeros(n)
        for a in range(k):
            if a not in col:
                z += lam[a] * pts[a]
                continue
            w = _project_signs(x[col[a]:col[a] + n], sets[a].cone.signs)
            ww, wu = float(w @ w), float(w @ U[a])
            shrink = min(1.0, 2.0 * lam[a] * wu / ww) if ww > 0.0 and wu > 0.0 else 0.0
            z += sets[a].scale * ((1.0 - 1e-12) * shrink * w - lam[a] * U[a])
        return float(np.linalg.norm(z - _project_signs(z, signs)))

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        x0 = np.zeros(m0 + n)
        x0[:k] = rng.dirichlet(np.ones(k))
        res = minimize(objective, x0, jac=gradient, method="SLSQP", bounds=bounds,
                       constraints=cons, options={"ftol": 1e-16, "maxiter": 500})
        best = min(best, repaired(res.x))
    return best


def polyomino_distance(squares, p, q) -> float:
    """Length of the shortest path from ``p`` to ``q`` in the union of the
    closed unit squares with lower-left corners ``squares``; ``inf`` when
    none exists.

    Dijkstra runs over p, q and the reflex vertices (three of their four
    squares present), joined when the segment between them stays in the
    union (Lozano-Perez and Wesley, CACM 1979).  Cut at every grid line it
    crosses, a segment falls into pieces that each lie in one closed grid
    cell, so it stays in the union when the midpoint of every piece does.
    """
    squares = set(squares)

    def inside(x, y, tol=1e-12):
        return any((i, j) in squares
                   for i in range(math.ceil(x - 1 - tol), math.floor(x + tol) + 1)
                   for j in range(math.ceil(y - 1 - tol), math.floor(y + tol) + 1))

    def visible(a, b):
        cuts = {0.0, 1.0}
        for i in (0, 1):
            if a[i] != b[i]:
                lo, hi = sorted((a[i], b[i]))
                cuts.update((k - a[i]) / (b[i] - a[i])
                            for k in range(math.ceil(lo), math.floor(hi) + 1))
        ts = sorted(cuts)
        return all(inside(*(a[i] + 0.5 * (s + t) * (b[i] - a[i]) for i in (0, 1)))
                   for s, t in zip(ts, ts[1:]))

    corners = {(x + dx, y + dy) for x, y in squares for dx in (0, 1) for dy in (0, 1)}
    reflex = sorted(v for v in corners
                    if sum((v[0] - dx, v[1] - dy) in squares for dx in (0, 1) for dy in (0, 1)) == 3)
    nodes = [tuple(map(float, p)), tuple(map(float, q))] + reflex
    done = set()
    heap = [(0.0, 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if i == 1:
            return d
        if i in done:
            continue
        done.add(i)
        for j, v in enumerate(nodes):
            if j not in done and visible(nodes[i], v):
                heapq.heappush(heap, (d + math.dist(nodes[i], v), j))
    return math.inf


def reference_walk(cx, p_loc, q_loc):
    """The straight segment from p to q as a Geodesic, or None, by the
    face-box walk: from the maximal cells holding p, each step keeps the
    cell whose span starts by the current ``t`` (up to 1e-12) and reaches
    farthest, the first in cell order on ties, then tests every neighbour
    of that cell for a shared face holding the exit point to 1e-9, and
    clips the exit point into the face of the cell taken.  The walk of
    ``meanset.geodesics``, which keeps each axis's next crossing instead
    and looks up the lattice cell the segment enters, must match it bit
    for bit."""
    p, q = p_loc.coords, q_loc.coords
    d = tuple(b - a for a, b in zip(p, q))
    boxes = cx._boxes
    t = 0.0
    chain, pts = [], [p]
    step = [(c, None) for c in cells_holding(cx, p) if c in cx.maximal_ids]
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
            return geodesics._assemble(chain, [cx.snap(x) for x in pts])
        t = reach
        exit_pt = tuple(a + t * di for a, di in zip(p, d))
        step = [(nbr, face) for nbr, face in cx.adjacency[best]
                if all(l - 1e-9 <= x <= h + 1e-9 for x, l, h in zip(exit_pt, *boxes[face]))]


def link_slack(cx, g) -> float:
    """The worst slack of the link test over the breakpoints of ``g``
    between its ends, 0.0 when it has none.

    At a breakpoint x with carrier sigma (its floor, spanning the axes where
    x is not an integer) and unit vectors u, v to the breakpoints before and
    after it, the path is straight in the tangent cone when ``(u par, |u
    perp|) = (-v par, |v perp|)`` and the normal parts meet at distance pi in
    the link of sigma.  The slack is the smaller of minus the distance
    between those two unit vectors and, when both normal parts are nonzero,
    the weight less 1 of a minimum vertex cover of the clashing pairs of
    signed normal directions (one of each side, weighted by its squared share
    of its side's normal part): a pair clashes when it shares an axis with
    opposite signs, or when sigma and both edges are no cell of ``cx``.  The
    cover is the optimum of its linear program, which is integral on a
    bipartite graph (Konig's theorem)."""
    cells = {(c.base, c.axes) for c in cx.cells}
    worst = 0.0
    P = [np.asarray(x, dtype=float) for x in g.breakpoints]
    for prev, x, nxt in zip(P, P[1:], P[2:]):
        base = np.floor(x)
        normal = x == base
        along = tuple(int(i) for i in np.flatnonzero(~normal))
        u, v = (prev - x) / np.linalg.norm(prev - x), (nxt - x) / np.linalg.norm(nxt - x)
        nu, nv = np.where(normal, u, 0.0), np.where(normal, v, 0.0)
        gap = np.append(u[~normal] + v[~normal], np.linalg.norm(nu) - np.linalg.norm(nv))
        slack = -float(np.linalg.norm(gap))
        if nu.any() and nv.any():
            A = [(int(i), bool(nu[i] > 0)) for i in np.flatnonzero(nu)]
            B = [(int(i), bool(nv[i] > 0)) for i in np.flatnonzero(nv)]
            weights = np.concatenate([nu[nu != 0] ** 2 / nu.dot(nu), nv[nv != 0] ** 2 / nv.dot(nv)])
            rows = []
            for k, (i, up) in enumerate(A):
                for m, (j, vp) in enumerate(B):
                    if i == j:
                        clash = up != vp
                    else:
                        corner = [int(c) for c in base]
                        corner[i] -= not up
                        corner[j] -= not vp
                        clash = (tuple(corner), tuple(sorted(along + (i, j)))) not in cells
                    if clash:
                        row = np.zeros(len(A) + len(B))
                        row[k] = row[len(A) + m] = -1.0
                        rows.append(row)
            cover = 0.0
            if rows:
                res = linprog(weights, A_ub=np.array(rows), b_ub=-np.ones(len(rows)),
                              bounds=(0.0, 1.0), method="highs")
                assert res.status == 0, res.message
                cover = float(res.fun)
            slack = min(slack, cover - 1.0)
        worst = min(worst, slack)
    return worst
