"""Exact convex kernels checked against brute-force and scipy oracles."""

import itertools
import math
import random

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
    WeightedSum,
    _affine_min_norm,
    box_segment_min,
    feasibility_min_norm,
    min_norm_point,
    segment_span,
    shared_certificate_weights,
)
from oracles import (_array_affine_min_norm, array_min_norm_point, full_box_segment_min,
                     hull_to_cone_nnls)


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
        point, weights = np.asarray(r.point), np.asarray(r.weights)
        assert np.linalg.norm(point - anchor) == pytest.approx(want, abs=5e-7)
        assert weights.min() >= -1e-12
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(pts.T @ weights, point, atol=1e-9)


def _wolfe_inputs(rng):
    """Seeded ``(points, anchor, rays)`` for Wolfe's algorithm: k = 1-6
    points in n = 1-4 dimensions, generic, with duplicates, collinear, or
    with one point an affine combination of the others, half of them
    anchored; then the reduced points and rays of every sign pattern of
    n = 1-4 axes, as ``feasibility_min_norm`` poses them."""
    for t in range(2400):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        pts = rng.normal(size=(k, n)) * rng.uniform(0.1, 3.0)
        kind = t % 4
        if kind == 1 and k > 1:
            pts[rng.integers(k)] = pts[rng.integers(k)]
        elif kind == 2:
            pts = pts[0] + rng.normal(size=(k, 1)) * rng.normal(size=n)
        elif kind == 3 and k > 1:
            c = rng.normal(size=k - 1)
            pts[-1] = (c / c.sum()) @ pts[:-1] if abs(c.sum()) > 0.1 else pts[0]
        yield pts, (rng.normal(size=n) if t % 2 else None), None
    for n in range(1, 5):
        for signs in itertools.product((FREE, ZERO, NONNEG, NONPOS), repeat=n):
            k = int(rng.integers(1, 7))
            pts = rng.normal(size=(k, n))
            if k > 1 and rng.random() < 0.3:
                pts[-1] = pts[0]
            keep = [i for i, s in enumerate(signs) if s != FREE]
            rays = [np.eye(len(keep))[j] * (-1.0 if signs[i] == NONNEG else 1.0)
                    for j, i in enumerate(keep) if signs[i] != ZERO]
            yield pts[:, keep], None, np.array(rays) if rays else None


def test_min_norm_point_matches_array_reference():
    """The float solver takes the numpy solver's steps: same points,
    weights and gaps to 1e-12."""
    count = 0
    for pts, anchor, rays in _wolfe_inputs(np.random.default_rng(41)):
        r = min_norm_point(pts, anchor=anchor, rays=rays)
        point, weights, gap = array_min_norm_point(pts, anchor=anchor, rays=rays)
        assert np.allclose(r.point, point, rtol=0.0, atol=1e-12), (pts, anchor, rays)
        assert np.allclose(r.weights, weights, rtol=0.0, atol=1e-12), (pts, anchor, rays)
        assert r.gap == pytest.approx(gap, abs=1e-12), (pts, anchor, rays)
        count += 1
    assert count >= 2000


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


def test_box_segment_min_takes_any_sequence():
    """Tuples, lists, int arrays and float arrays give the same ``(value,
    x)``, ``x`` a tuple of floats; where the segment meets the box the value
    is ``math.dist(a, b)`` exactly."""
    rng = np.random.default_rng(11)
    fast = 0
    for k in range(400):
        n = int(rng.integers(1, 4))
        lo = rng.integers(-2, 2, size=n)
        hi = lo + rng.integers(0, 2, size=n)
        if k % 2:
            a, b = rng.integers(-3, 4, size=n), rng.integers(-3, 4, size=n)
            forms = (tuple, list, np.asarray, lambda v: np.asarray(v, dtype=float))
        else:   # off the lattice: no int array can hold the endpoints
            a, b = rng.uniform(-3, 3, size=n), rng.uniform(-3, 3, size=n)
            forms = (tuple, list, lambda v: np.asarray(v, dtype=float))
        outs = [box_segment_min(*(f(v.tolist()) for v in (a, b, lo, hi))) for f in forms]
        for val, x in outs:
            assert isinstance(val, float)
            assert isinstance(x, tuple) and all(type(c) is float for c in x)
            assert val == outs[0][0] and x == outs[0][1], (a, b, lo, hi)
        if segment_span(a.tolist(), (b - a).tolist(), lo.tolist(), hi.tolist()) is not None:
            fast += 1
            assert outs[0][0] == math.dist(a.tolist(), b.tolist()), (a, b, lo, hi)
    assert 0 < fast < 400


def test_box_segment_min_equals_full_enumeration():
    """Trying every face of its box, ``box_segment_min`` returns the very
    ``(value, x)`` of ``oracles.full_box_segment_min``, which enumerates all
    3**k faces on its own, on seeded random boxes in R^1-R^4 with
    integer bounds from -3 to 3: some axes degenerate (``lo == hi``), about
    half the end coordinates rounded to an integer, many of them onto a
    bound, and half of the boxes only 1e-13 wide on one axis."""
    rng = random.Random(26)
    on_bound = bent = 0
    for trial in range(4000):
        n = rng.randint(1, 4)
        lo = [float(rng.randint(-3, 2)) for _ in range(n)]
        hi = [l + rng.choice((0.0, 1.0, 1.0)) for l in lo]
        if trial % 2:
            i = rng.randrange(n)
            hi[i] = lo[i] + 1e-13
        ends = [[rng.uniform(-4.0, 4.0) for _ in range(n)] for _ in range(2)]
        for end in ends:
            for i in range(n):
                if rng.random() < 0.5:
                    end[i] = float(rng.choice((lo[i], hi[i], round(end[i]))))
        on_bound += any(e[i] in (lo[i], hi[i]) for e in ends for i in range(n))
        a, b = ends
        bent += segment_span(a, [y - x for x, y in zip(a, b)], lo, hi) is None
        assert box_segment_min(a, b, lo, hi) == full_box_segment_min(a, b, lo, hi), (a, b, lo, hi)
    assert on_bound > 2000 and bent > 2000


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


def test_cone_ball_pinched_to_a_point():
    """A cone free only along an axis where u is 0 leaves the one point
    ``-u``: no sliver from rounding in the ball's radius."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        axis = int(rng.integers(n))
        u = rng.normal(size=n)
        u[axis] = 0.0
        u /= np.linalg.norm(u)
        signs = tuple(FREE if i == axis else ZERO for i in range(n))
        scale = float(rng.uniform(0.1, 3.0))
        ball = ConeBall(tuple(u), SignCone(signs), scale)
        for d in rng.normal(size=(5, n)):
            assert np.array_equal(ball.support_point(d), -scale * u)


def test_product_set_stacks_blocks():
    s1 = Singleton((1.0, 0.0))
    s2 = Singleton((0.0, -1.0), scale=3.0)
    prod = ProductSet((s1, s2), 2)
    d = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(prod.support_point(d), [1.0, 0.0, 0.0, -3.0])
    assert np.allclose(prod.anchor_point(), [1.0, 0.0, 0.0, -3.0])


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
    sets = (Singleton((1.0, 0.0), scale=2.0), Singleton((0.0, 1.0), scale=2.0))
    target = SignCone((NONPOS, NONPOS))
    r = feasibility_min_norm([WeightedSum(sets, (0.5, 0.5))], target)
    assert r.residual == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert r.status == "positive"


def test_feasibility_subspace_target_is_exact():
    """Singleton sets are solved by one exact Wolfe solve over the points and
    the target cone's rays, reporting zero Frank-Wolfe iterations, for
    targets of every sign; an NNLS oracle with a ray column per signed or
    free axis gives the same distance."""
    rng = np.random.default_rng(17)
    for _ in range(400):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        signs = tuple(str(s) for s in rng.choice([FREE, ZERO, NONNEG, NONPOS], size=n))
        units = rng.normal(size=(m, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        sets = [Singleton(tuple(g), scale=float(rng.uniform(0.1, 3.0))) for g in units]
        r = feasibility_min_norm(sets, SignCone(signs))
        assert r.iterations == 0
        pts = np.array([s.anchor_point() for s in sets])
        _, want = hull_to_cone_nnls(pts, signs)
        assert r.residual == pytest.approx(want, abs=1e-9)
        if want > 1e-6 or want < 1e-10:
            assert r.status == ("zero" if want <= 1e-8 else "positive")
        point, cone_point = np.asarray(r.point), np.asarray(r.cone_point)
        assert np.allclose(np.asarray(r.weights) @ pts, point, atol=1e-12)
        assert SignCone(signs).contains(r.cone_point, 0.0)
        assert np.linalg.norm(point - cone_point) == pytest.approx(r.residual, abs=1e-12)
    # a sign-constrained coordinate is a ray of the same exact solve
    sets = [Singleton((0.8, 0.6)), Singleton((0.6, -0.8))]
    r = feasibility_min_norm(sets, SignCone((NONPOS, FREE)))
    assert r.iterations == 0
    assert r.residual == pytest.approx(0.6, abs=1e-8)


def test_feasibility_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        feasibility_min_norm([], SignCone((ZERO,)))
    with pytest.raises(ValueError):
        WeightedSum((Singleton((1.0,)),), (-0.5,))
    with pytest.raises(ValueError):
        WeightedSum((Singleton((1.0,)),), (0.5, 0.5))


@pytest.mark.parametrize("call, name", [
    (lambda: min_norm_point([]), "points"),
    (lambda: min_norm_point([[math.nan, 0.0], [1.0, 0.0]]), "points"),
    (lambda: min_norm_point([[1.0, 0.0], [0.0, -math.inf]]), "points"),
    (lambda: feasibility_min_norm([Singleton((0.5, 0.0))], SignCone((ZERO,))), "sets"),
    (lambda: feasibility_min_norm([Singleton((0.5, 0.0))], SignCone((ZERO,)), tol=math.nan),
     "tol"),
    (lambda: box_segment_min((0, 0), (1, 1), (2, 2), (3, 3, 3)), "hi"),
    (lambda: Singleton((math.nan, 0.0)), "g"),
    (lambda: ConeBall((1.0, 0.0), SignCone((FREE,))), "u"),
], ids=["no-points", "nan-point", "inf-point", "dimensions", "nan-tol", "box-dimensions",
        "nan-singleton", "cone-ball-dimensions"])
def test_kernel_entries_raise_value_errors(call, name):
    """Each of these returned an answer for malformed input; each now
    raises a ``ValueError`` that names the argument."""
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()


def test_singular_kkt_falls_back_to_least_squares(monkeypatch):
    """A corral of two equal points has a singular KKT system: elimination
    meets a zero pivot and least squares gives the minimum-norm weights."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    assert _affine_min_norm([(1.0, 2.0), (1.0, 2.0)], [1.0, 1.0]) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert len(calls) == 1


def test_affine_weights_of_one_row_and_of_an_ill_conditioned_pair(monkeypatch):
    """One row is its own affine span, with weight 1 and no solve.  The KKT
    system of the points 1e4 and 1e4 + 1 on a line is so ill-conditioned
    that elimination misses the sum-to-one constraint; least squares
    answers, and its weights, scaled to sum to 1, are those of the origin,
    the min-norm point of the line, (10001, -10000)."""
    assert _affine_min_norm([(1.0, 2.0)], [1.0]) == [1.0]
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    v = _affine_min_norm([(1e4,), (1e4 + 1.0,)], [1.0, 1.0])
    assert len(calls) == 1
    assert sum(v) == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx([10001.0, -10000.0], rel=1e-7)


def _singular_systems(rng):
    """Seeded ``(Q, e)`` whose KKT systems are singular: k = 2-6 rows in
    n = 1-4 dimensions with a duplicate point, all points collinear, or one
    point an affine combination of the others; a fifth of them with the
    last row a ray (e = 0) along the first two points' difference."""
    for t in range(3000):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        pts = rng.normal(size=(k, n)) * rng.uniform(0.1, 3.0)
        kind = t % 3
        if kind == 0:
            pts[rng.integers(1, k)] = pts[0]
        elif kind == 1:
            pts = pts[0] + rng.normal(size=(k, 1)) * rng.normal(size=n)
        else:
            c = rng.normal(size=k - 1)
            if abs(c.sum()) < 0.1:
                continue
            pts[-1] = (c / c.sum()) @ pts[:-1]
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == k - 1:
            continue
        e = [1.0] * k
        if t % 5 == 4 and k > 2:
            pts[-1] = pts[1] - pts[0]
            e[-1] = 0.0
        yield pts, e


def test_singular_kkt_weights_stay_bounded(monkeypatch):
    """On singular KKT systems both the float and the array solvers return
    weights of moderate size whose point is least squares' to 1e-9:
    elimination meets a pivot that is zero up to rounding and hands the
    system to least squares, instead of dividing by it into weights near
    1e16 whose sum still passes the sum-to-one row."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    count = 0
    for Q, e in _singular_systems(np.random.default_rng(43)):
        k = len(Q)
        kkt = np.block([[Q @ Q.T, np.array(e)[:, None]], [np.array(e)[None, :], np.zeros((1, 1))]])
        want = lstsq(kkt, np.eye(k + 1)[k], rcond=None)[0][:k] @ Q
        for v in (np.array(_affine_min_norm([tuple(r) for r in Q.tolist()], e)),
                  _array_affine_min_norm(Q, np.array(e))):
            assert np.abs(v).max() <= 1e6, (Q, e, v)
            assert np.allclose(v @ Q, want, rtol=0.0, atol=1e-9 * (1.0 + np.abs(Q).max())), (Q, e)
            assert float(np.array(e) @ v) == pytest.approx(1.0, abs=1e-9)
        count += 1
    assert count >= 2000
    assert len(calls) == 2 * count


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
