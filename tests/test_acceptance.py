"""Acceptance gate: nine checks covering every capability end to end.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
numbers before asserting, so a full run leaves a scannable scoreboard.
All expected values are frozen analytic results or were computed once with
independent oracles (grid quadrature, scipy projections) and written down.
"""

import math
import time

import numpy as np
import pytest

from meanset import (
    CubeCell,
    CubicalComplex,
    PointSetA,
    certified_lower_bound,
    distance,
    general_deficit,
    geodesic,
    load_bundled,
    mean_deficit,
    midpoint,
    point_along,
    recognize,
    run_heatmap,
    to_csv,
    verify_certificate,
)
from meanset import test_function_line_search as line_search
from meanset.convex import min_norm_point
from meanset.corpus import expected
from oracles import agrees_with_straightened

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# helpers


def _in_triangle(p, v0, v1, v2, pad: float = 1e-9) -> bool:
    """Barycentric point-in-triangle test with a small tolerance pad."""
    m = np.array([[v1[0] - v0[0], v2[0] - v0[0]],
                  [v1[1] - v0[1], v2[1] - v0[1]]], dtype=float)
    lam = np.linalg.solve(m, np.array([p[0] - v0[0], p[1] - v0[1]]))
    return lam[0] >= -pad and lam[1] >= -pad and lam.sum() <= 1.0 + pad


def _grid_points(cx, per_axis: int):
    """All grid nodes of every maximal cell, deduplicated."""
    seen = {}
    for cid in cx.maximal_ids:
        lo, hi = cx.cell(cid).bounds()
        free = [i for i in range(len(lo)) if hi[i] > lo[i]]
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in free]
        mesh = np.meshgrid(*axes, indexing="ij")
        for row in np.stack([m.ravel() for m in mesh], axis=1):
            p = list(lo)
            for i, v in zip(free, row):
                p[i] = float(v)
            seen[tuple(p)] = True
    return list(seen)


def _random_cell_point(cx, rng):
    ids = cx.maximal_ids
    lo, hi = cx.cell(ids[int(rng.integers(len(ids)))]).bounds()
    return tuple(float(v) for v in rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# 1. deficit values on the three-legged tree


def test_criterion_1_tripod_deficit(bundles):
    _, A = bundles["tripod"]
    t0 = time.perf_counter()
    errs = []
    for t in (0.1, 0.5, 1.0):
        errs.append(abs(mean_deficit(A, (0.0, t)).value - (1.0 + t)))
    err0 = abs(mean_deficit(A, (0.0, 0.0)).value)
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-6 and err0 <= 1e-8 and elapsed < 1.0
    report(1, ok, f"deficit 1+t on the free leg, max err {max(errs):.2e}, "
                  f"err at origin {err0:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. bent geodesic crossing point in the cube-square complex


def test_criterion_2_crossing_breakpoint(bundles):
    cx, A = bundles["cube_square"]
    g = geodesic(cx, A.coords("q"), A.coords("r"))
    interior = g.breakpoints[1:-1]
    want = (0.0, R2 - 1.0, 0.0)
    ok = len(interior) == 1 and all(
        abs(c - w) <= 1e-8 for c, w in zip(interior[0], want))
    err = max(abs(c - w) for c, w in zip(interior[0], want)) if interior else float("inf")
    report(2, ok, f"geodesic(q, r) bends at (0, sqrt(2)-1, 0), max coord err {err:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. mean-set surface inside the cube, located by bisection


def _bisect_surface_y(A, x: float, z: float) -> float:
    """The y where membership flips at fixed (x, z), from the descent
    direction's vertical sign: positive below the surface, negative above."""
    lo, hi = 0.02, 0.98

    def vertical_sign(y):
        rep = general_deficit(A, (x, y, z))
        if rep.direction is None:
            return 0.0
        return rep.direction[1]

    s_lo, s_hi = vertical_sign(lo), vertical_sign(hi)
    assert s_lo > 0 and s_hi < 0, (x, z, s_lo, s_hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        s = vertical_sign(mid)
        if s == 0.0:
            return mid
        if s > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_cube_surface(bundles):
    _, A = bundles["cube_square"]
    t0 = time.perf_counter()

    member_ok = True
    for t in (0.05, 0.1, 0.2):
        p = (4 * t, (1 + 5 * t) / 3.0, 3 * t)
        r = recognize(A, p, tol=1e-6)
        member_ok &= r.decision == "member"
        member_ok &= mean_deficit(A, p).value <= 1e-6

    q = (0.5, 1.0 / 3.0, 0.25)
    r = recognize(A, q)
    non_ok = r.decision == "non-member"
    if non_ok:
        d_here = A.distances_from(q)
        d_wit = A.distances_from(r.certificate.witness)
        non_ok = all(d_wit[l] < d_here[l] for l in A.labels)
        non_ok &= verify_certificate(A, q, r.certificate, samples=200).ok

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.05, 0.8))
        x = float(rng.uniform(z + 0.1, 0.95))
        h = math.hypot(x, z)
        y_true = z * (1.0 + h) / (x + h)
        worst = max(worst, abs(_bisect_surface_y(A, x, z) - y_true))

    elapsed = time.perf_counter() - t0
    ok = member_ok and non_ok and worst <= 1e-5 and elapsed < 30.0
    report(3, ok, f"surface points member, interior point refuted, "
                  f"bisection vs closed form worst err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. quadrant distances and the variance-gap line search


def test_criterion_4_quadrant_line_search(bundles):
    cx, A = bundles["quadrant_window"]
    d = distance(cx, (0.0, 1.0), (R3, 0.0))
    dist_err = abs(d - (1.0 + R3))
    seg = geodesic(cx, (0.0, 0.0), (R3, 0.0))
    frac, _ = line_search(A, (0.0, -1.0), seg)
    t_err = abs(frac * seg.length - 1.0 / (1.0 + R3))
    ok = dist_err <= 1e-8 and t_err <= 1e-6
    report(4, ok, f"distance err {dist_err:.2e}, minimizer err {t_err:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 5. planar three-square classification against the analytic mean set


def _squares3_analytic(p, pad: float = 1e-9) -> bool:
    x, y = p
    in_triangle = (x <= pad and y >= -pad and y <= x + 1.0 + pad)
    on_segment = (abs(y) <= pad and -pad <= x <= 1.0 + pad)
    return in_triangle or on_segment


def test_criterion_5_planar_grid(bundles):
    cx, A = bundles["squares3"]
    set_pts = [np.array(A.coords(l)) for l in A.labels]
    mismatches = []
    for p in _grid_points(cx, 41):
        if any(np.linalg.norm(np.array(p) - s) <= 1e-12 for s in set_pts):
            continue
        got = recognize(A, p, tol=1e-6).decision == "member"
        if got != _squares3_analytic(p):
            mismatches.append(p)
    spot = all(recognize(A, (t, 0.0), tol=1e-6).decision == "member"
               for t in (0.25, 0.5, 0.75))
    ok = not mismatches and spot
    report(5, ok, f"41x41 per square, {len(mismatches)} mismatches vs "
                  f"triangle-plus-segment mean set, edge points (t,0) member: {spot}")
    assert ok, mismatches[:10]


# ---------------------------------------------------------------------------
# 6. five-square classification against the four analytic triangles


def _squares5_analytic(p, pad: float = 1e-9) -> bool:
    x, y, z = p
    if abs(z) <= pad:
        if _in_triangle((x, y), (0, 0), (1, -1), (0, -0.5)):
            return True
        if _in_triangle((x, y), (0, 0), (-0.5, 0), (-1, 1)):
            return True
    if abs(x) <= pad and _in_triangle((y, z), (0, 0), (-0.5, 0), (0, 1)):
        return True
    if abs(y) <= pad and _in_triangle((x, z), (0, 0), (-0.5, 0), (0, 1)):
        return True
    return False


def test_criterion_6_five_square_grid(bundles):
    cx, A = bundles["squares5"]
    mismatches = []
    for p in _grid_points(cx, 13):
        got = recognize(A, p, tol=1e-6).decision == "member"
        if got != _squares5_analytic(p):
            mismatches.append(p)
    ok = not mismatches
    report(6, ok, f"13x13 per square, {len(mismatches)} mismatches vs the "
                  f"four-triangle mean set through d=(-1/2,0,0), e=(0,-1/2,0)")
    assert ok, mismatches[:10]


# ---------------------------------------------------------------------------
# 7. single-cube deficit equals the Euclidean hull distance


def test_criterion_7_euclidean_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    decision_clashes = 0
    for i in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        cx = CubicalComplex(n, [CubeCell((0,) * n, tuple(range(n)))])
        while True:
            pts = rng.uniform(0.0, 1.0, size=(m, n))
            gaps = [np.linalg.norm(pts[a] - pts[b])
                    for a in range(m) for b in range(a + 1, m)]
            if not gaps or min(gaps) > 1e-3:
                break
        A = PointSetA.from_coords(cx, [tuple(row) for row in pts])
        if i % 2 == 0:
            w = rng.dirichlet(np.ones(m))
            xbar = tuple(w @ pts)
        else:
            xbar = tuple(rng.uniform(0.0, 1.0, size=n))
        oracle = min_norm_point([row for row in pts], anchor=np.array(xbar))
        hull_dist = float(np.linalg.norm(oracle.point - np.array(xbar)))
        got = mean_deficit(A, xbar).value
        worst = max(worst, abs(got - hull_dist))
        member = recognize(A, xbar).decision == "member"
        if member != (hull_dist <= 1e-8):
            decision_clashes += 1
    ok = worst <= 1e-8 and decision_clashes == 0
    report(7, ok, f"200 random single-cube instances, worst |deficit - hull "
                  f"distance| {worst:.2e}, {decision_clashes} decision clashes")
    assert ok


# ---------------------------------------------------------------------------
# 8. property suites: comparison inequality, certificates, contraction,
#    agreement with an interior oracle


def _cn_inequality(cx, rng, trials: int) -> float:
    worst = -np.inf
    for _ in range(trials):
        p = _random_cell_point(cx, rng)
        q = _random_cell_point(cx, rng)
        r = _random_cell_point(cx, rng)
        m = midpoint(cx, q, r)
        lhs = distance(cx, p, m) ** 2
        rhs = (0.5 * distance(cx, p, q) ** 2 + 0.5 * distance(cx, p, r) ** 2
               - 0.25 * distance(cx, q, r) ** 2)
        worst = max(worst, lhs - rhs)
    return worst


def test_criterion_8_property_suites(bundles):
    rng = np.random.default_rng(314)

    # thin-triangle comparison at every midpoint
    cn_worst = -np.inf
    for name in sorted(bundles):
        cx, _ = bundles[name]
        cn_worst = max(cn_worst, _cn_inequality(cx, rng, 500))
    cn_ok = cn_worst <= 1e-7

    # round-trip: emitted certificates re-verify from scratch
    cert_ok = True
    for name in sorted(bundles):
        cx, A = bundles[name]
        exp = expected(name)
        for p in exp["members"][:2]:
            r = recognize(A, tuple(p))
            cert_ok &= r.decision == "member"
            cert_ok &= verify_certificate(A, tuple(p), r.certificate).ok
        for p in exp["non_members"]:
            r = recognize(A, tuple(p))
            cert_ok &= r.decision == "non-member"
            d_here = A.distances_from(tuple(p))
            d_wit = A.distances_from(r.certificate.witness)
            cert_ok &= all(d_wit[l] < d_here[l] for l in A.labels)
            cert_ok &= certified_lower_bound(A, tuple(p), r.certificate) > 0

    # pulling every set point toward the query preserves the decision
    names = sorted(bundles)
    done = 0
    contraction_ok = True
    while done < 50:
        cx, A = bundles[names[done % len(names)]]
        xbar = _random_cell_point(cx, rng)
        if done % 2 == 0:
            pool = expected(names[done % len(names)])["members"]
            xbar = tuple(pool[int(rng.integers(len(pool)))])
        if A.label_of(xbar) is not None:
            xbar = _random_cell_point(cx, rng)
            if A.label_of(xbar) is not None:
                continue
        moved = []
        for lbl in A.labels:
            g = geodesic(cx, xbar, A.coords(lbl))
            moved.append(point_along(g, float(rng.uniform(0.3, 1.0))))
        gaps = [np.linalg.norm(np.array(u) - np.array(v))
                for i, u in enumerate(moved) for v in moved[:i]]
        if gaps and min(gaps) <= 1e-9:
            continue
        pulled = PointSetA.from_coords(cx, moved)
        if recognize(pulled, xbar).decision != recognize(A, xbar).decision:
            contraction_ok = False
            break
        done += 1

    # the decision path agrees with the straightened-point oracle inside cells
    relint_ok = True
    quota = {"tripod": 50, "squares3": 50, "cube_square": 40,
             "quadrant_window": 40, "squares5": 20}
    checked = 0
    for name, count in sorted(quota.items()):
        cx, A = bundles[name]
        got = 0
        while got < count:
            p = _random_cell_point(cx, rng)
            if A.label_of(p) is not None:
                continue
            ok, *_ = agrees_with_straightened(A, p, tol=1e-7)
            relint_ok &= ok
            got += 1
            checked += 1
    ok = cn_ok and cert_ok and contraction_ok and relint_ok and checked == 200
    report(8, ok, f"midpoint comparison worst slack {cn_worst:.2e} over 2500 "
                  f"triples; certificates re-verified: {cert_ok}; contraction "
                  f"decisions stable over 50: {contraction_ok}; "
                  f"agreement with the interior oracle on {checked}: {relint_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 9. reproducible heat map with the frozen light fraction


def test_criterion_9_heatmap(bundles):
    cx, A = bundles["squares3"]
    samples = run_heatmap(A, 2000, 42, 0.1, threads=1)
    frac = sum(1 for s in samples if s.decision) / len(samples)
    # 97x97 midpoint quadrature of the light region puts the ratio at 0.2786
    frac_err = abs(frac - 0.2786)
    csv1 = to_csv(samples, cx.ambient_dim)
    csv4 = to_csv(run_heatmap(A, 2000, 42, 0.1, threads=4), cx.ambient_dim)
    ok = frac_err <= 0.05 and csv1 == csv4
    report(9, ok, f"light fraction {frac:.4f} vs quadrature 0.2786 "
                  f"(err {frac_err:.4f}), CSV identical across threads: {csv1 == csv4}")
    assert ok
