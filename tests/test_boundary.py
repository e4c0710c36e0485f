"""Shared-face recognition: per-cell conic solves, witnesses, invariances."""

import math
import time

import numpy as np
import pytest

from meanset import (
    CertificateError,
    ConvergenceError,
    PointSetA,
    boundary,
    complex_from_dict,
    convex,
    general_deficit,
    geodesics,
    load_bundled,
    mean_deficit,
    recognize,
    recognize_general,
    solve_PC,
    verify_certificate,
)
from meanset.boundary import _scaled_problem, build_models, conic_residual, directional_derivative
from meanset.convex import ConeBall, FeasibilityResult, Singleton
from meanset.corpus import BUNDLED
from oracles import (
    agrees_with_straightened,
    exit_normal_cone,
    hull_to_cone_nnls,
    hull_to_cone_slsqp,
    polytope_points,
)


def _random_point(cx, rng):
    ids = cx.maximal_ids
    cell = cx.cell(ids[int(rng.integers(len(ids)))])
    lo, hi = cell.bounds()
    return tuple(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# per-cell conic solves


def test_solve_pc_feasible_on_tripod_origin(bundles):
    cx, A = bundles["tripod"]
    for cid in cx.maximal_cells_containing((0.0, 0.0)):
        out = solve_PC(A, (0.0, 0.0), cid)
        assert out.value0, cid
        assert out.residual <= 1e-8


def _snapped_point(cx, rng):
    """A uniform point of a random maximal cell with a random nonempty subset
    of its free coordinates rounded to a bound of the cell."""
    cid = cx.maximal_ids[int(rng.integers(len(cx.maximal_ids)))]
    lo, hi = cx.bounds(cid)
    pt = lo + (hi - lo) * rng.random(cx.ambient_dim)
    free = [i for i in range(cx.ambient_dim) if hi[i] > lo[i]]
    for i in rng.choice(free, size=int(rng.integers(1, len(free) + 1)), replace=False):
        pt[i] = hi[i] if rng.random() < 0.5 else lo[i]
    return tuple(float(v) for v in pt)


def test_cell_residuals_match_independent_conic_oracles(bundles):
    """Per-cell residuals at snapped points of every corpus against solvers
    that share no code with ``meanset.convex``.  Where every model set is a
    point or a segment the cell is a polytope problem, which NNLS solves to
    rounding; elsewhere SLSQP's repaired, feasible value bounds the optimum
    from above, so the residual may never exceed it."""
    rng = np.random.default_rng(2024)
    polytope = curved = 0
    for name in BUNDLED:
        cx, A = bundles[name]
        for _ in range(40):
            loc = cx.locate(_snapped_point(cx, rng))
            if A.label_of(loc) is not None:
                continue
            for cid in sorted(cx.maximal_cells_containing(loc)):
                sets, target = _scaled_problem(build_models(A, loc, cid))
                got = solve_PC(A, loc, cid).residual
                P = polytope_points(sets)
                if P is not None:
                    _, want = hull_to_cone_nnls(P, target.signs)
                    assert got == pytest.approx(want, abs=1e-9), (name, loc.coords, cid)
                    polytope += 1
                else:
                    want = hull_to_cone_slsqp(sets, target.signs)
                    assert got <= want + 1e-8, (name, loc.coords, cid, got, want)
                    curved += 1
                assert (got <= 1e-8) == (want <= 1e-8), (name, loc.coords, cid, got, want)
    assert polytope >= 50 and curved >= 50


def test_solve_pc_infeasible_off_the_mean_set(bundles):
    cx, A = bundles["tripod"]
    # the vertical leg: the cell condition fails there
    leg = next(c.ident for c in cx.cells if c.base == (0, 0) and c.axes == (1,))
    out = solve_PC(A, (0.0, 0.5), leg)
    assert not out.value0
    assert out.direction is not None
    # the improving direction strictly decreases both distance models
    models = build_models(A, A.cx.locate((0.0, 0.5)), leg)
    for m in models:
        assert directional_derivative(m, out.direction) < 0.0


def test_relint_model_is_the_exact_singleton(bundles):
    """In a cell's relative interior the derivative model is the unit
    gradient, a Singleton.  At (-0.8, -0.4) the gate construction of a face
    point would give a zero-diameter ConeBall; both have the same support."""
    cx, A = bundles["squares3"]
    loc = cx.locate((-0.8, -0.4))
    cell = loc.minimal_cell
    model = next(m for m in build_models(A, loc, cell) if m.label == "b")
    assert isinstance(model.subdiff, Singleton)
    x = np.array(loc.coords)
    u = np.array(model.probe) - x
    degenerate = ConeBall(tuple(u / np.linalg.norm(u)), cx.tangent_cone(cell, loc.coords).polar())
    rng = np.random.default_rng(5)
    for d in rng.normal(size=(50, 2)):
        assert model.subdiff.support(d) == pytest.approx(degenerate.support(d), abs=1e-12)


def test_exit_cones_match_gate_oracle(bundles):
    """Every cone-ball model at 600 snapped points of each corpus carries
    exactly the normal cone of ``oracles.exit_normal_cone``, the face found
    from the cells that hold the geodesic's first segment."""
    rng = np.random.default_rng(5)
    balls = 0
    for name in BUNDLED:
        cx, A = bundles[name]
        for _ in range(600):
            loc = cx.locate(_snapped_point(cx, rng))
            if A.label_of(loc) is not None:
                continue
            for cid in cx.maximal_cells_containing(loc):
                for m in build_models(A, loc, cid):
                    if isinstance(m.subdiff, ConeBall):
                        want = exit_normal_cone(cx, loc.coords, cid, A.points[m.label])
                        assert m.subdiff.cone == want, (name, loc.coords, cid, m.label)
                        balls += 1
    assert balls >= 4000


def test_directional_derivative_outside_tangent_is_inf(bundles):
    cx, A = bundles["tripod"]
    leg = next(c.ident for c in cx.cells if c.base == (0, 0) and c.axes == (1,))
    models = build_models(A, cx.locate((0.0, 0.5)), leg)
    assert directional_derivative(models[0], (1.0, 0.0)) == np.inf


def test_stalled_solve_error_names_the_point_and_cell(bundles, monkeypatch):
    cx, A = bundles["squares3"]
    x = (0.5, 0.0)

    def stalled(sets, target, weights=None, tol=1e-8):
        n = target.dim
        return FeasibilityResult(residual=1.0, point=np.ones(n), cone_point=np.zeros(n),
                                 weights=np.full(len(sets), 1.0 / len(sets)),
                                 status="stalled", iterations=1000, gap=1.0)

    monkeypatch.setattr(boundary, "feasibility_min_norm", stalled)
    with pytest.raises(ConvergenceError) as exc:
        recognize(A, x)
    msg = str(exc.value)
    assert str(cx.locate(x).coords) in msg
    assert f"cell {sorted(cx.maximal_cells_containing(x))[0]}" in msg
    assert "1000 rounds" in msg


# ---------------------------------------------------------------------------
# decisions on shared faces


QUADRANT_EDGE = (1.0, -0.0010957907691939717)


def test_frank_wolfe_out_of_rounds_names_the_point_and_cell(bundles, monkeypatch):
    """The real solver, given no Frank-Wolfe rounds at an edge point whose
    two cells each need one, stalls in the first cell it solves."""
    cx, A = bundles["quadrant_window"]
    x = QUADRANT_EDGE
    monkeypatch.setattr(convex, "_MAX_ROUNDS", 0)
    with pytest.raises(ConvergenceError) as exc:
        recognize(A, x)
    msg = str(exc.value)
    assert f"stalled at {cx.locate(x).coords}" in msg
    assert f"in cell {cx.maximal_cells_containing(x)[0]}" in msg


def test_rounding_residual_at_zero_tolerance_is_no_stall(bundles):
    """At ``tol=0`` a residual of rounding size, left well inside the round
    limit, is positive, not stalled: the frozen member (-0.5, 0.25) of
    squares3 then fails as the frozen non-member (1, -1) of quadrant_window
    does, on a descent direction too short to follow."""
    for name, x, cell, residual in [("squares3", (-0.5, 0.25), "c006", "1.17757e-16"),
                                    ("quadrant_window", (1.0, -1.0), "c038", "1.11022e-16")]:
        cx, A = bundles[name]
        res = convex.feasibility_min_norm(
            *_scaled_problem(build_models(A, cx.locate(x), cell)), tol=0.0)
        assert res.status == "positive"
        with pytest.raises(CertificateError) as exc:
            recognize(A, x, tol=0.0)
        assert str(exc.value) == (f"degenerate descent direction at {x} in cell {cell}; "
                                  f"residual {residual}")


def test_failed_descent_and_witness_checks_raise(bundles, monkeypatch):
    """A descent direction that fails its derivative check, or a witness
    search whose every halving is no strictly closer point, raises a
    CertificateError naming the point and the cell."""
    cx, A = bundles["squares3"]
    x = (0.5, -0.5)
    with monkeypatch.context() as m:
        m.setattr(boundary, "directional_derivative", lambda model, u: 1.0)
        with pytest.raises(CertificateError, match=r"^descent direction check failed at "
                           r"\(0.5, -0.5\) in cell c012: max derivative 1.70711 vs residual 0.5$"):
            recognize(A, x)
    monkeypatch.setattr(boundary, "witness_margins",
                        lambda A, d_ref, loc: dict.fromkeys(A.labels, 0.0))
    with pytest.raises(CertificateError, match=r"^failed to realise a strictly-closer witness "
                       r"at \(0.5, -0.5\) from cell c012$"):
        recognize(A, x)


def test_no_shared_weights_names_the_point_and_cells(bundles, monkeypatch):
    """A member where two cells meet, each feasible alone, needs one weight
    vector for both; when none is found the decision fails naming both."""
    cx, A = bundles["squares5"]
    x = (0.0, 0.0, 0.5)
    cells = cx.maximal_cells_containing(x)
    assert len(cells) == 2 and recognize(A, x).decision == "member"

    def unfound(problems, tol=1e-8):
        raise ConvergenceError("no shared weights")

    monkeypatch.setattr(boundary, "shared_certificate_weights", unfound)
    with pytest.raises(CertificateError) as exc:
        recognize(A, x)
    msg = str(exc.value)
    assert str(cx.locate(x).coords) in msg
    assert str(sorted(cells)) in msg


@pytest.fixture
def support_point_budget(monkeypatch):
    """Fail a test after 500 ``ConeBall.support_point`` calls, the mark of a
    Frank-Wolfe loop that no longer converges."""
    calls = [0]
    inner = ConeBall.support_point

    def counted(self, d):
        calls[0] += 1
        if calls[0] > 500:
            raise AssertionError("more than 500 ConeBall.support_point calls")
        return inner(self, d)

    monkeypatch.setattr(ConeBall, "support_point", counted)
    return calls


def test_quadrant_window_edge_is_exact_and_fast(bundles, support_point_budget):
    """On the edge x = 1 just below the missing quadrant both cells' models
    include a cone-ball, a segment in 2-D, so each cell's residual is an
    exact nearest-point distance; the values are those of an NNLS solve."""
    cx, A = bundles["quadrant_window"]
    r = recognize(A, QUADRANT_EDGE)
    assert r.decision == "non-member"
    assert r.deficit == pytest.approx(1.389406797357877e-3, abs=1e-12)
    assert verify_certificate(A, QUADRANT_EDGE, r.certificate).ok
    want = {"c042": 1.095790769193972e-3, "c056": 1.389406797357877e-3}
    assert sorted(cx.maximal_cells_containing(QUADRANT_EDGE)) == sorted(want)
    for cid, value in want.items():
        out = solve_PC(A, QUADRANT_EDGE, cid)
        assert out.residual == pytest.approx(value, abs=1e-12)
    assert 0 < support_point_budget[0] <= 500


def test_pinched_cone_ball_keeps_no_sliver(bundles):
    """At this cube_square point the geodesic to ``r`` leaves along the
    square face of cell c009, so its initial direction lies in the cell's
    tangent cone and the model is the point ``-u``.  A cone-ball there
    would be a single point too, since its cone is free only along an axis
    where u is 0; a radius taken as sqrt(1 - sum of u_i^2 over the pinned
    axes) kept a sliver about 1.5e-8 wide, and the residual read 3.8e-9
    low.  ``test_cone_ball_pinched_to_a_point`` keeps that check."""
    cx, A = bundles["cube_square"]
    x = (0.021193381740469808, 0.8106908479800631, 1.0)
    model = next(m for m in build_models(A, cx.locate(x), "c009") if m.label == "r")
    assert isinstance(model.subdiff, Singleton)
    assert solve_PC(A, x, "c009").residual == pytest.approx(0.8717638529821677, abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_solve_pc_rejects_bad_tolerance(bundles, tol):
    """``solve_PC`` is public outside ``decide``; it checks its own tolerance
    instead of reporting a stalled solve."""
    cx, A = bundles["squares3"]
    with pytest.raises(ValueError, match="tolerance"):
        solve_PC(A, (0.5, 0.0), "c012", tol=tol)


def test_recognize_general_squares5_vertex_shared_by_all_cells(bundles):
    cx, A = bundles["squares5"]
    t0 = time.perf_counter()
    r = recognize_general(A, (0.0, 0.0, 0.0))
    assert time.perf_counter() - t0 < 5.0
    assert r.decision == "member"
    assert set(r.per_cell) == set(cx.maximal_cells_containing((0.0, 0.0, 0.0)))
    for cid, (feasible, residual) in r.per_cell.items():
        assert feasible and residual <= 1e-8
    w = r.certificate.weights
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
    assert min(w.values()) >= -1e-12
    rep = verify_certificate(A, (0.0, 0.0, 0.0), r.certificate, samples=150)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name, x, calls", [("squares3", (0.5, 0.0), 6),
                                             ("squares5", (0.0, 0.0, 0.0), 30)])
def test_probe_geodesic_calls_are_pinned(monkeypatch, name, x, calls):
    """``recognize`` then ``mean_deficit`` at the benchmark's two probe
    points, a member on an edge and one at a vertex, on a fresh complex
    read exactly this many geodesics, cache hits included."""
    _, A = load_bundled(name)
    seen = []
    solve = geodesics.geodesic

    def counted(*args):
        seen.append(args)
        return solve(*args)

    monkeypatch.setattr(geodesics, "geodesic", counted)
    assert recognize(A, x).decision == "member"
    assert mean_deficit(A, x).value <= 1e-8
    assert len(seen) == calls


@pytest.mark.parametrize("name, x, iterations", [("squares3", (0.5, 0.0), 0),
                                                  ("squares5", (0.0, 0.0, 0.0), 12)])
def test_probe_conic_iterations_are_pinned(monkeypatch, name, x, iterations):
    """The same two probes run exactly this many Frank-Wolfe rounds in all,
    the stacked shared-weight solves included: a change to the conic
    kernel's arithmetic must not change its algorithm."""
    _, A = load_bundled(name)
    rounds = []
    solve = convex.feasibility_min_norm

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        rounds.append(res.iterations)
        return res

    monkeypatch.setattr(convex, "feasibility_min_norm", counted)
    monkeypatch.setattr(boundary, "feasibility_min_norm", counted)
    assert recognize(A, x).decision == "member"
    assert mean_deficit(A, x).value <= 1e-8
    assert rounds and sum(rounds) == iterations


def test_recognize_general_witness_is_strict(bundles):
    cx, A = bundles["squares3"]
    r = recognize_general(A, (0.25, -0.1))
    assert r.decision == "non-member"
    d_bar = A.distances_from((0.25, -0.1))
    d_wit = A.distances_from(r.certificate.witness)
    for lbl in A.labels:
        assert d_wit[lbl] < d_bar[lbl]


def test_conic_residual_vanishes_on_members(bundles):
    cx, A = bundles["squares3"]
    for probe in [(0.5, 0.0), (0.0, 0.0), (-0.5, 0.25)]:
        r = recognize(A, probe)
        assert r.decision == "member"
        for cid in cx.maximal_cells_containing(probe):
            res = conic_residual(A, probe, cid, r.certificate.weights)
            assert res <= 1e-7, (probe, cid)


def test_label_permutation_invariance(bundles):
    """Relabeling the set must not change any decision, and every member
    certificate must stay valid cell by cell (weights themselves may differ
    where several weight vectors certify the same point)."""
    cx, A = bundles["squares3"]
    coords = {lbl: A.coords(lbl) for lbl in A.labels}
    flipped = PointSetA(cx, {lbl: coords[lbl] for lbl in reversed(A.labels)})
    for probe in [(0.5, 0.0), (0.0, 0.0), (0.25, -0.1), (-0.5, 0.25), (0.5, -0.5)]:
        r1 = recognize(A, probe)
        r2 = recognize(flipped, probe)
        assert r1.decision == r2.decision, probe
        if r1.decision == "member":
            for cid in cx.maximal_cells_containing(probe):
                assert conic_residual(flipped, probe, cid,
                                      r2.certificate.weights) <= 1e-7, probe


def test_permutation_preserves_unique_weights(bundles):
    cx, A = bundles["tripod"]
    coords = {lbl: A.coords(lbl) for lbl in A.labels}
    flipped = PointSetA(cx, {lbl: coords[lbl] for lbl in reversed(A.labels)})
    w1 = recognize(A, (0.5, 0.0)).certificate.weights
    w2 = recognize(flipped, (0.5, 0.0)).certificate.weights
    for lbl in A.labels:
        assert w1[lbl] == pytest.approx(w2[lbl], abs=1e-6)


def test_general_deficit_matches_dedicated_values(bundles):
    cx, A = bundles["squares3"]
    rep = general_deficit(A, (0.5, -0.5))
    assert rep.value == pytest.approx(0.5, abs=1e-8)
    assert np.linalg.norm(rep.direction) == pytest.approx(1.0, abs=1e-9)
    rep0 = general_deficit(A, (0.25, 0.0))
    assert rep0.value <= 1e-8
    assert rep0.weights is not None


def test_boundary_deficit_agrees_with_interior_nearby(bundles):
    """Approaching a shared face, the interior deficit converges to the
    boundary value computed directly on the face."""
    cx, A = bundles["squares3"]
    on_face = general_deficit(A, (0.5, 0.0)).value
    near = mean_deficit(A, (0.5, -1e-7)).value
    assert near == pytest.approx(on_face, abs=1e-5)


@pytest.mark.parametrize("name", ["tripod", "squares3", "squares5"])
def test_relint_consistency_sampled(bundles, name):
    cx, A = bundles[name]
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(12):
        p = _random_point(cx, rng)
        if A.label_of(p) is not None:
            continue
        ok, want, got, decision = agrees_with_straightened(A, p)
        assert ok, (name, p, want, got, decision)
        checked += 1
    assert checked >= 10


def test_per_cell_keeps_cell_order_past_c999():
    """The per-cell solves run in ``maximal_cells_containing`` order, which
    is cell order; id strings sort "c1000" before "c999"."""
    cx = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [i, j], "axes": [0, 1]} for i in range(20) for j in range(20)]})
    for edge in cx.cells:
        lo, hi = edge.bounds()
        x = tuple(0.5 * (lo + hi))
        cells = cx.maximal_cells_containing(x)
        if edge.dim == 1 and len(cells) == 2 and sorted(cells) != list(cells):
            break
    else:
        raise AssertionError("no edge between squares on either side of c999")
    A = PointSetA.from_coords(cx, [(0.5, 0.5), (19.5, 0.5), (9.5, 19.5)])
    assert list(general_deficit(A, x).per_cell) == list(cells)
