"""Oracles for the decision path that share no code with ``meanset.boundary``.

At a point in the relative interior of a maximal cell the mean deficit is
the Euclidean distance from the point to the hull of the straightened set
points.  Here that distance is rebuilt from ``geodesic`` and
``point_along`` alone and solved with scipy's NNLS.
"""

import numpy as np
from scipy.optimize import nnls

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
