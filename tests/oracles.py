"""Oracles that share no code with the solvers they check.

At a point in the relative interior of a maximal cell the mean deficit is
the Euclidean distance from the point to the hull of the straightened set
points.  Here that distance is rebuilt from ``geodesic`` and
``point_along`` alone and solved with scipy's NNLS.  The shortest broken
line through a chain of gates, which ``meanset.geodesics`` solves by
Newton's method, is solved here by scipy's SLSQP.
"""

import numpy as np
from scipy.optimize import minimize, nnls

from meanset import geodesic, mean_deficit, point_along, recognize


def simplex_min_norm(Q):
    """Weights ``w`` on the probability simplex minimising ``|w @ Q|``, and that norm.

    NNLS on ``Q^T w = 0`` with one extra row ``c * sum(w) = c``.  The
    objective is homogeneous of degree two, so the penalised optimum lies
    on the ray through the constrained one and rescaling recovers it.
    """
    Q = np.asarray(Q, dtype=float)
    c = max(1.0, float(np.abs(Q).max()))
    M = np.vstack([Q.T, np.full(len(Q), c)])
    b = np.zeros(M.shape[0])
    b[-1] = c
    w, _ = nnls(M, b)
    w = w / w.sum()
    return w, float(np.linalg.norm(w @ Q))


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
    return simplex_min_norm(np.array(Z) - xs)[1]


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

    t = np.arange(1, len(lo) + 1)[:, None] / (len(lo) + 1)
    starts = (0.5 * (lo + hi), np.clip(p + t * (q - p), lo, hi))
    return min(
        minimize(length, x0[free], jac=gradient, method="SLSQP",
                 bounds=list(zip(lo[free], hi[free])),
                 options={"ftol": 1e-16, "maxiter": 1000}).fun
        for x0 in starts
    )
