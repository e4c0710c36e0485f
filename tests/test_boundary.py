"""Shared-face recognition: per-cell conic solves, witnesses, invariances."""

import time

import numpy as np
import pytest

from meanset import (
    PointSetA,
    general_deficit,
    load_bundled,
    mean_deficit,
    recognize,
    recognize_general,
    solve_PC,
    verify_certificate,
)
from meanset.boundary import build_models, conic_residual, directional_derivative
from meanset.convex import ConeBall, Singleton
from oracles import agrees_with_straightened


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
    degenerate = ConeBall(tuple(u / np.linalg.norm(u)), cx.normal_cone(cell, loc.coords))
    rng = np.random.default_rng(5)
    for d in rng.normal(size=(50, 2)):
        assert model.subdiff.support(d) == pytest.approx(degenerate.support(d), abs=1e-12)


def test_directional_derivative_outside_tangent_is_inf(bundles):
    cx, A = bundles["tripod"]
    leg = next(c.ident for c in cx.cells if c.base == (0, 0) and c.axes == (1,))
    models = build_models(A, cx.locate((0.0, 0.5)), leg)
    assert directional_derivative(models[0], (1.0, 0.0)) == np.inf


# ---------------------------------------------------------------------------
# decisions on shared faces


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
