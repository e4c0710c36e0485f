"""Exact convex kernels checked against brute-force and scipy oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from meanset.convex import (
    FREE,
    NONNEG,
    NONPOS,
    ZERO,
    ConeBall,
    ProductSet,
    SignCone,
    Singleton,
    box_segment_min,
    feasibility_min_norm,
    min_norm_point,
    shared_certificate_weights,
)
from oracles import simplex_min_norm


# ---------------------------------------------------------------------------
# sign cones


def test_sign_cone_projection_and_polarity():
    cone = SignCone((FREE, ZERO, NONNEG, NONPOS))
    v = np.array([3.0, 2.0, -1.5, 0.5])
    p = cone.project(v)
    assert np.allclose(p, [3.0, 0.0, 0.0, 0.0])
    assert cone.contains(p)
    # projection is idempotent and the residual is polar to the cone
    assert np.allclose(cone.project(p), p)
    assert cone.polar().contains(v - p)


def test_sign_cone_polar_negate_roundtrip():
    cone = SignCone((NONNEG, NONPOS, ZERO, FREE))
    assert cone.polar().polar().signs == cone.signs
    assert cone.negate().negate().signs == cone.signs


def test_sign_cone_projection_is_nearest_point():
    rng = np.random.default_rng(11)
    choices = (FREE, ZERO, NONNEG, NONPOS)
    for _ in range(200):
        n = rng.integers(1, 6)
        cone = SignCone(tuple(choices[i] for i in rng.integers(0, 4, size=n)))
        v = rng.normal(size=n) * 3
        p = cone.project(v)
        assert cone.contains(p, tol=1e-12)
        # no sampled feasible point does better
        for _ in range(40):
            q = cone.project(rng.normal(size=n) * 3)
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


# ---------------------------------------------------------------------------
# min-norm point over a polytope


def test_min_norm_point_hand_cases():
    r = min_norm_point(np.array([[2.0, 1.0]]))
    assert np.allclose(r.point, [2.0, 1.0])

    # segment crossing the origin's perpendicular
    r = min_norm_point(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(r.point, [1.0, 0.0], atol=1e-12)
    assert np.allclose(r.weights, [0.5, 0.5], atol=1e-12)

    # hull containing the anchor
    r = min_norm_point(np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]),
                       anchor=np.zeros(2))
    assert np.linalg.norm(r.point) <= 1e-12


def _hull_projection_oracle(pts, anchor):
    m = len(pts)
    cons = ({"type": "eq", "fun": lambda w: w.sum() - 1.0},)

    def obj(w):
        d = pts.T @ w - anchor
        return float(d @ d)

    best = None
    for k in range(m):
        w0 = np.zeros(m)
        w0[k] = 1.0
        res = minimize(obj, w0, bounds=[(0.0, 1.0)] * m, constraints=cons,
                       method="SLSQP", options={"maxiter": 300, "ftol": 1e-16})
        if best is None or res.fun < best:
            best = res.fun
    return math.sqrt(max(best, 0.0))


def test_min_norm_point_matches_slsqp_oracle():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        pts = rng.normal(size=(m, n)) * rng.uniform(0.5, 2.0)
        anchor = rng.normal(size=n)
        r = min_norm_point(pts, anchor=anchor)
        want = _hull_projection_oracle(pts, anchor)
        assert np.linalg.norm(r.point - anchor) == pytest.approx(want, abs=5e-7)
        assert r.weights.min() >= -1e-12
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(pts.T @ r.weights, r.point, atol=1e-9)


# ---------------------------------------------------------------------------
# two-segment path minimum over a box


def _box_path_oracle(a, b, lo, hi):
    n = len(lo)
    rng = np.random.default_rng(5)

    def path(x):
        return float(np.linalg.norm(a - x) + np.linalg.norm(x - b))

    best = math.inf
    for _ in range(8):
        x0 = rng.uniform(lo, hi)
        res = minimize(path, x0, bounds=list(zip(lo, hi)),
                       method="L-BFGS-B", options={"ftol": 1e-18, "gtol": 1e-14})
        best = min(best, res.fun)
    for corner in range(1 << n):
        x = np.array([hi[i] if corner >> i & 1 else lo[i] for i in range(n)],
                     dtype=float)
        best = min(best, path(x))
    return best


def _box_cases():
    """Full-dimensional boxes, then gate faces of unit cubes in R^3 and R^4.

    A gate face pins some axes (``lo == hi``) and leaves 1, 2 or 3 free.
    Every third gate case has integer endpoints, and every third puts one
    endpoint on the face's affine hull (P = 0 or Q = 0), sometimes also on
    the plane of one of its free sides.
    """
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        lo = rng.integers(-2, 2, size=n).astype(float)
        hi = lo + 1.0
        a = rng.normal(size=n) * 2
        b = rng.normal(size=n) * 2
        yield a, b, lo, hi
    for trial in range(300):
        n = int(rng.integers(3, 5))
        free = rng.permutation(n)[:int(rng.integers(1, 4))]
        lo = rng.integers(-2, 2, size=n).astype(float)
        hi = lo.copy()
        hi[free] += 1.0
        a = rng.normal(size=n) * 2
        b = rng.normal(size=n) * 2
        if trial % 3 == 1:
            a, b = np.round(a), np.round(b)
        elif trial % 3 == 2:
            end = a if rng.random() < 0.5 else b
            pinned = lo == hi
            end[pinned] = lo[pinned]
            if rng.random() < 0.5:
                i = free[0]
                end[i] = lo[i] if rng.random() < 0.5 else hi[i]
        yield a, b, lo, hi


def _kkt_holds(a, b, lo, hi, x, tol=1e-6):
    """First-order optimality of a smooth point x: the gradient of
    |x-a| + |x-b| vanishes on free coordinates and points into the box on
    coordinates at a bound."""
    ra, rb = x - a, x - b
    if min(np.linalg.norm(ra), np.linalg.norm(rb)) <= 1e-6:
        return True  # a kink of the objective; the oracle bound covers it
    g = ra / np.linalg.norm(ra) + rb / np.linalg.norm(rb)
    for i in range(len(x)):
        if hi[i] - lo[i] <= 1e-12:
            continue
        if x[i] <= lo[i] + 1e-12:
            ok = g[i] >= -tol
        elif x[i] >= hi[i] - 1e-12:
            ok = g[i] <= tol
        else:
            ok = abs(g[i]) <= tol
        if not ok:
            return False
    return True


def test_box_segment_min_against_solver_oracle():
    for a, b, lo, hi in _box_cases():
        val, x = box_segment_min(a, b, lo, hi)
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        assert val == pytest.approx(
            np.linalg.norm(a - x) + np.linalg.norm(x - b), abs=1e-12)
        assert val <= _box_path_oracle(a, b, lo, hi) + 1e-7
        assert _kkt_holds(a, b, lo, hi, x)


def test_box_segment_min_slab_fast_path():
    # both endpoints project straight through the box
    val, x = box_segment_min([-1.0, 0.5], [2.0, 0.5],
                             [0.0, 0.0], [1.0, 1.0])
    assert val == pytest.approx(3.0, abs=1e-14)
    assert x[1] == pytest.approx(0.5, abs=1e-14)


def test_box_segment_min_reflection_case():
    # single free coordinate: Fermat reflection closed form
    val, x = box_segment_min([-1.0, 1.0], [1.0, 1.0], [-2.0, 0.0], [2.0, 0.0])
    assert x[0] == pytest.approx(0.0, abs=1e-14)
    assert val == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)


# ---------------------------------------------------------------------------
# support-oracle sets


def test_singleton_support():
    s = Singleton((0.6, -0.8), scale=2.0)
    d = np.array([1.0, 1.0])
    assert s.support(d) == pytest.approx(2.0 * (0.6 - 0.8))
    assert np.allclose(s.support_point(d), [1.2, -1.6])


def test_cone_ball_support_matches_sampling():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        signs = tuple((FREE, NONNEG, NONPOS, ZERO)[i]
                      for i in rng.integers(0, 4, size=n))
        cone = SignCone(signs)
        ball = ConeBall(tuple(u), cone)
        d = rng.normal(size=n)
        got = ball.support(d)
        # sampled feasible points n - u with n in N, |n - u| <= 1
        best = -math.inf
        for _ in range(4000):
            cand = cone.project(u + rng.normal(size=n) * 0.7)
            w = cand - u
            nw = np.linalg.norm(w)
            if nw > 1.0:
                cand = u + (cand - u) / nw
                cand = cone.project(cand)
                w = cand - u
                if np.linalg.norm(w) > 1.0 + 1e-9:
                    continue
            best = max(best, float(np.dot(d, w)))
        assert got >= best - 1e-6


def test_product_set_stacks_blocks():
    s1 = Singleton((1.0, 0.0))
    s2 = Singleton((0.0, -1.0), scale=3.0)
    prod = ProductSet((s1, s2), 2)
    d = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(prod.support_point(d), [1.0, 0.0, 0.0, -3.0])
    assert prod.support(d) == pytest.approx(1.0 - 12.0)
    assert np.allclose(prod.anchor_point(), [1.0, 0.0, 0.0, -3.0])
    assert np.allclose(prod.scaled(2.0).support_point(d), [2.0, 0.0, 0.0, -6.0])


# ---------------------------------------------------------------------------
# conic feasibility


def test_feasibility_free_weights_zero_case():
    # conv of two opposite singletons crosses the zero cone
    sets = [Singleton((1.0, 0.0)), Singleton((-1.0, 0.0))]
    target = SignCone((ZERO, ZERO))
    r = feasibility_min_norm(sets, target)
    assert r.status == "zero"
    assert r.residual <= 1e-8
    assert r.weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_feasibility_free_weights_positive_case():
    sets = [Singleton((0.8, 0.6)), Singleton((0.6, 0.8))]
    target = SignCone((ZERO, ZERO))
    r = feasibility_min_norm(sets, target)
    assert r.status == "positive"
    # nearest hull point to the origin, computed directly
    want = np.linalg.norm(min_norm_point(np.array([[0.8, 0.6], [0.6, 0.8]])).point)
    assert r.residual == pytest.approx(want, abs=1e-9)


def test_feasibility_fixed_weights_minkowski():
    # 0.5*{(2,0)} + 0.5*{(0,2)} = {(1,1)}, distance to nonpositive cone
    sets = [Singleton((1.0, 0.0), scale=2.0), Singleton((0.0, 1.0), scale=2.0)]
    target = SignCone((NONPOS, NONPOS))
    r = feasibility_min_norm(sets, target, weights=[0.5, 0.5])
    assert r.residual == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert r.status == "positive"


def test_feasibility_subspace_target_is_exact():
    """Singleton sets and a target of only free and zero signs are solved
    by one exact min-norm call; an NNLS oracle on the zero coordinates
    gives the same distance."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        signs = tuple(str(s) for s in rng.choice([FREE, ZERO], size=n))
        units = rng.normal(size=(m, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        sets = [Singleton(tuple(g), scale=float(rng.uniform(0.1, 3.0))) for g in units]
        r = feasibility_min_norm(sets, SignCone(signs))
        assert r.iterations == 0
        pts = np.array([s.anchor_point() for s in sets])
        pinned = np.array([s == ZERO for s in signs])
        _, want = simplex_min_norm(pts * pinned)
        assert r.residual == pytest.approx(want, abs=1e-7)
        if want > 1e-6 or want < 1e-10:
            assert r.status == ("zero" if want <= 1e-8 else "positive")
        assert np.allclose(r.weights @ pts, r.point, atol=1e-12)
    # a sign-constrained coordinate keeps the Frank-Wolfe solve
    sets = [Singleton((0.8, 0.6)), Singleton((0.6, -0.8))]
    r = feasibility_min_norm(sets, SignCone((NONPOS, FREE)))
    assert r.iterations >= 1
    assert r.residual == pytest.approx(0.6, abs=1e-8)


def test_feasibility_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        feasibility_min_norm([], SignCone((ZERO,)))
    with pytest.raises(ValueError):
        feasibility_min_norm([Singleton((1.0,))], SignCone((ZERO,)),
                             weights=[-0.5])


# ---------------------------------------------------------------------------
# shared weights across stacked problems


def test_shared_weights_single_problem():
    sets = [Singleton((1.0, 0.0)), Singleton((-1.0, 0.0))]
    target = SignCone((ZERO, ZERO))
    v, res = shared_certificate_weights([(sets, target)])
    assert v == pytest.approx([0.5, 0.5], abs=1e-8)
    assert max(res) <= 1e-8


def test_shared_weights_two_problems_force_unique_solution():
    # first problem pins v to (2/3, 1/3); the second is solved by any v
    p1 = ([Singleton((1.0, 0.0)), Singleton((-1.0, 0.0), scale=2.0)],
          SignCone((ZERO, ZERO)))
    p2 = ([Singleton((0.0, -1.0)), Singleton((0.0, -0.5))],
          SignCone((FREE, NONPOS)))
    v, res = shared_certificate_weights([p1, p2])
    assert v == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-7)
    assert max(res) <= 1e-8


def test_shared_weights_mismatched_sizes_rejected():
    p1 = ([Singleton((1.0,))], SignCone((ZERO,)))
    p2 = ([Singleton((1.0,)), Singleton((-1.0,))], SignCone((ZERO,)))
    with pytest.raises(ValueError):
        shared_certificate_weights([p1, p2])
    with pytest.raises(ValueError):
        shared_certificate_weights([])
