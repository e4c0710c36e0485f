"""Membership decisions at every point of the complex.

Inside each maximal cell ``C`` containing the query point the one-sided
derivative of the distance to a set point ``a`` is the support function of a
compact convex model set: a single unit vector (the geodesic leaves through
the cell interior, always so in the cell's relative interior) or a
cone-ball slice (it leaves through a face).  Scaled by the distances
``d_a`` these are the derivatives of ``d_a^2 / 2``, and the query is a mean
exactly when, for every ``C``, some convex combination of the scaled sets
meets the negated normal cone of ``C`` -- a conic feasibility problem
solved by :func:`meanset.convex.feasibility_min_norm`.  Its convex weights
are membership weights and its residual is the mean deficit.  In the
relative interior of a maximal cell the problem is the Euclidean distance
from the query to the hull of the straightened set points, solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics
from .complexes import LocatedPoint
from .convex import (
    ConeBall,
    ConvergenceError,
    SignCone,
    Singleton,
    box_segment_min,
    feasibility_min_norm,
    shared_certificate_weights,
)
from .recognition import (
    CertificateError,
    DeficitReport,
    MembershipCertificate,
    NonMembershipCertificate,
    PointSetA,
    RecognitionResult,
    recognize_interior,  # noqa: F401 -- perfbench/tracing.py wraps it here too
)

__all__ = [
    "DirectionalDerivativeModel",
    "PCOutcome",
    "build_model",
    "build_models",
    "directional_derivative",
    "solve_PC",
    "decide",
    "recognize_general",
    "general_deficit",
    "conic_residual",
]


@dataclass(frozen=True)
class DirectionalDerivativeModel:
    """One-sided derivative data of ``d(., a)`` at a point, within one cell."""

    label: str
    cell: str                # maximal cell the model is valid in
    distance: float          # d_a at the query point
    probe: tuple             # first geodesic breakpoint toward a
    via_cell: str            # minimal cell of the initial geodesic segment
    gate: str                # shared face of cell and via_cell
    subdiff: object          # Singleton or ConeBall
    tangent: SignCone        # tangent cone of the cell at the query point


def build_model(A: PointSetA, loc: LocatedPoint, cell_id: str, label: str,
                _tangent: SignCone = None) -> DirectionalDerivativeModel:
    cx = A.cx
    g = geodesics.geodesic(cx, loc, A.points[label])
    if g.length <= 1e-12:
        raise CertificateError("derivative model undefined at a set point")
    tangent = _tangent if _tangent is not None else cx.tangent_cone(cell_id, loc.coords)
    if loc.minimal_cell == cell_id:
        # relative interior: d_a is differentiable, and its unit gradient
        # points away from the first breakpoint of the geodesic
        x_a = g.breakpoints[1]
        via = gate = cell_id
        away = [xi - ai for xi, ai in zip(loc.coords, x_a)]
        r = math.hypot(*away)
        sub = Singleton(tuple(v / r for v in away))
    else:
        x = np.asarray(loc.coords, dtype=float)
        x_a, via = geodesics.initial_direction(cx, loc, A.points[label])
        gate_cell = cx.face_between(cell_id, via)
        if gate_cell is None:
            raise CertificateError(
                f"cells {cell_id} and {via} share no face at the query point"
            )
        gate = gate_cell.ident
        lo, hi = gate_cell.bounds()
        xa = np.asarray(x_a, dtype=float)
        _, xstar = box_segment_min(xa, x, lo, hi)
        if np.linalg.norm(xstar - x) > 1e-7:
            gdir = (x - xstar) / np.linalg.norm(x - xstar)
            sub = Singleton(tuple(gdir))
        else:
            u = (xa - x) / np.linalg.norm(xa - x)
            sub = ConeBall(tuple(u), cx.normal_cone(gate, loc.coords))
    return DirectionalDerivativeModel(
        label=label,
        cell=cell_id,
        distance=g.length,
        probe=tuple(x_a),
        via_cell=via,
        gate=gate,
        subdiff=sub,
        tangent=tangent,
    )


def build_models(A: PointSetA, loc: LocatedPoint, cell_id: str) -> list:
    tangent = A.cx.tangent_cone(cell_id, loc.coords)
    return [build_model(A, loc, cell_id, lbl, _tangent=tangent) for lbl in A.labels]


def _scaled_problem(models) -> tuple:
    """One cell's conic problem: the sets ``d_a S_a`` and the target cone."""
    sets = [m.subdiff.scaled(m.distance) for m in models]
    return sets, models[0].tangent.polar().negate()


def directional_derivative(model: DirectionalDerivativeModel, u) -> float:
    """One-sided derivative of ``d(., a)`` along ``u`` from within the cell.

    Returns ``+inf`` for directions leaving the cell's tangent cone.
    Positively homogeneous in ``u``.
    """
    if not model.tangent.contains(u, 1e-9):
        return math.inf
    return float(model.subdiff.support(u))


@dataclass(frozen=True)
class PCOutcome:
    """Result of the per-cell conic feasibility problem."""

    cell: str
    value0: bool
    residual: float
    weights: np.ndarray       # convex weights over the set labels
    direction: tuple = None   # unit decrease direction when infeasible
    margin: float = None      # max of d_a times the derivative along it


def solve_PC(A: PointSetA, xbar, cell_id: str, tol: float = 1e-8,
             _models=None) -> PCOutcome:
    """Decide whether the first-order mean condition holds in one cell.

    Solves for the distance from the hull of the scaled model sets
    ``d_a S_a`` to the negated normal cone.  Feasible (residual at most
    ``tol``): the convex weights are membership weights.  Infeasible:
    returns a unit direction ``u`` in the tangent cone with
    ``d_a * D_u d_a <= -residual / 2`` for every set point.
    """
    cx = A.cx
    loc = cx.locate(xbar)
    models = _models if _models is not None else build_models(A, loc, cell_id)
    sets, target = _scaled_problem(models)
    res = feasibility_min_norm(sets, target, tol=tol)
    if res.status == "stalled":
        raise ConvergenceError(
            f"conic feasibility stalled in cell {cell_id} "
            f"(residual {res.residual:g}, gap {res.gap:g})"
        )
    if res.residual <= tol:
        return PCOutcome(cell_id, True, res.residual, res.weights)

    rho = res.residual
    u = models[0].tangent.project(np.asarray(res.cone_point) - np.asarray(res.point))
    nu = math.sqrt(float(u @ u))
    if nu <= 1e-15:
        raise CertificateError(
            f"degenerate descent direction in cell {cell_id}; residual {rho:g}"
        )
    u = (u / nu).tolist()
    margin = max(m.distance * directional_derivative(m, u) for m in models)
    if not margin <= -0.5 * rho:
        raise CertificateError(
            f"descent direction check failed in cell {cell_id}: "
            f"max derivative {margin:g} vs residual {rho:g}"
        )
    return PCOutcome(cell_id, False, rho, res.weights,
                     direction=tuple(u), margin=margin)


def _witness_from_direction(A: PointSetA, loc: LocatedPoint, cell_id: str,
                            step) -> NonMembershipCertificate:
    """The first of ``x + step / 2^k`` in the cell strictly closer to every set point."""
    cx = A.cx
    x = np.asarray(loc.coords, dtype=float)
    step = np.asarray(step, dtype=float)
    d_ref = A.distances_from(loc)
    cell = cx.cell(cell_id)
    for _ in range(60):
        cand = x + step
        if cell.contains(cand):
            d_cand = A.distances_from(tuple(cand))
            margins = {l: d_ref[l] - d_cand[l] for l in A.labels}
            if min(margins.values()) > 0.0:
                return NonMembershipCertificate(tuple(cx.snap(cand)), margins)
        step = 0.5 * step
    raise CertificateError(
        f"failed to realise a strictly-closer witness from cell {cell_id}"
    )


def _solve_cells(A: PointSetA, xbar, tol: float):
    """The per-cell solves at ``xbar``; returns ``(loc, report, worst)``.

    The report's value is the largest residual over the maximal cells
    containing the query.  When every cell is feasible it carries
    membership weights: one cell's own, or one vector feasible in all
    cells where several meet (None if none is found).  Otherwise it carries
    the descent direction of ``worst``, the cell with the largest residual.
    A set point is a point mass, with ``worst`` None.
    """
    cx = A.cx
    loc = cx.locate(xbar)
    cells = sorted(cx.maximal_cells_containing(loc))
    hit = A.label_of(loc)
    if hit is not None:
        weights = {l: float(l == hit) for l in A.labels}
        return loc, DeficitReport(0.0, dict.fromkeys(cells, 0.0), weights=weights), None

    models = {cid: build_models(A, loc, cid) for cid in cells}
    outcomes = [solve_PC(A, loc, cid, tol, _models=models[cid]) for cid in cells]
    per_cell = {o.cell: o.residual for o in outcomes}
    worst = max(outcomes, key=lambda o: o.residual)
    if not worst.value0:
        return loc, DeficitReport(worst.residual, per_cell, direction=worst.direction), worst
    if len(cells) == 1:
        v = worst.weights
    else:
        try:
            v, _ = shared_certificate_weights(
                [_scaled_problem(models[cid]) for cid in cells], tol=tol)
        except ConvergenceError:
            return loc, DeficitReport(worst.residual, per_cell), worst
    v = np.clip(v, 0.0, None)
    weights = {l: float(w) for l, w in zip(A.labels, v / v.sum())}
    return loc, DeficitReport(worst.residual, per_cell, weights=weights), worst


def decide(A: PointSetA, xbar, tol: float = 1e-8):
    """Membership at ``xbar`` with its evidence: ``(DeficitReport, certificate)``.

    A member's certificate carries the weights of the per-cell solves.  A
    non-member's witness is searched from ``x - r``, where ``r`` is the
    worst cell's residual vector, halving the step until every distance
    strictly drops.
    """
    loc, report, worst = _solve_cells(A, xbar, tol)
    if report.value <= tol:
        if report.weights is None:
            raise CertificateError("per-cell problems are feasible but no shared weights found")
        return report, MembershipCertificate(report.weights, report.value)
    step = report.value * np.asarray(report.direction)
    return report, _witness_from_direction(A, loc, worst.cell, step)


def recognize_general(A: PointSetA, xbar, tol: float = 1e-8) -> RecognitionResult:
    """Decide membership at any query point, with a certificate either way."""
    report, cert = decide(A, xbar, tol)
    per_cell = {cid: (r <= tol, r) for cid, r in report.per_cell.items()}
    decision = "member" if cert.kind == "membership" else "non-member"
    return RecognitionResult(decision, cert, per_cell, report.value)


def general_deficit(A: PointSetA, xbar) -> DeficitReport:
    """Mean deficit at any query point: the largest per-cell residual of the
    distance-scaled conic problem, with weights or a descent direction."""
    return _solve_cells(A, xbar, 1e-8)[1]


def conic_residual(A: PointSetA, xbar, cell_id: str, weights: dict) -> float:
    """First-order residual of given membership weights within one cell.

    Over the unscaled model sets the weights become ``v_a`` proportional
    to ``w_a * d_a``; measures how far that fixed combination is from the
    negated normal cone.
    """
    cx = A.cx
    loc = cx.locate(xbar)
    dists = A.distances_from(loc)
    pairs = [(l, weights.get(l, 0.0) * dists[l]) for l in A.labels]
    live = [(l, v) for l, v in pairs if v > 0.0]
    if not live:
        # all weight sits on coincident set points; stationarity is vacuous
        return 0.0
    tangent = cx.tangent_cone(cell_id, loc.coords)
    models = [build_model(A, loc, cell_id, l, _tangent=tangent) for l, _ in live]
    v = np.array([vi for _, vi in live])
    v = v / v.sum()
    sets = [m.subdiff for m in models]
    res = feasibility_min_norm(sets, tangent.polar().negate(), weights=v)
    return res.residual
