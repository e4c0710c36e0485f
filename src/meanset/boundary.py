"""Membership decisions at every point of the complex.

Inside each maximal cell ``C`` containing the query point the one-sided
derivative of the distance to a set point ``a`` is the support function of a
compact convex model set.  Let ``u`` be the initial unit direction of the
geodesic to ``a``.  By the first variation formula ``d_a`` has the gradient
``-u`` in ``C`` exactly when ``u`` lies in the tangent cone of ``C``, always
so in its relative interior, and the model is the point ``-u``; otherwise
the geodesic leaves through a face of ``C`` and the model is the cone-ball
slice of ``u`` and that face's normal cone.  The face's tangent cone is a
sign pattern of ``C``'s tangent cone ``T`` and ``u``: an axis keeps its sign
in ``T`` when it is free, or nonnegative with ``u_i > 0``, or nonpositive
with ``u_i < 0``, and is pinned to zero otherwise.  Scaled by the distances
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
import operator
from collections import namedtuple

from . import geodesics
from .complexes import LocatedPoint
from .convex import (
    FREE,
    NONNEG,
    NONPOS,
    ZERO,
    ConeBall,
    ConvergenceError,
    SignCone,
    Singleton,
    WeightedSum,
    _all_finite,
    box_segment_min,  # noqa: F401 -- perfbench/tracing.py wraps it here
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
    _per_label,
    check_point_set,
    check_tolerance,
    recognize_interior,  # noqa: F401 -- perfbench/tracing.py wraps it here too
    witness_margins,
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


class DirectionalDerivativeModel(namedtuple(
        "DirectionalDerivativeModel", "label cell distance probe subdiff tangent")):
    """One-sided derivative data of ``d(., a)`` at a point in the maximal ``cell``:
    its ``distance`` d_a, the first geodesic breakpoint toward a (``probe``), the
    Singleton or ConeBall ``subdiff`` and the cell's ``tangent`` cone there."""

    __slots__ = ()


def build_model(A: PointSetA, loc: LocatedPoint, cell_id: str, label: str,
                _tangent: SignCone = None) -> DirectionalDerivativeModel:
    """The model of ``d(., a)`` at ``loc`` in one cell, by the module docstring's rule."""
    cx = A.cx
    try:
        a = A.points[label]
    except (KeyError, TypeError):   # TypeError: an unhashable label
        raise ValueError(f"label must be a label of A, got {label!r}") from None
    g = geodesics.geodesic(cx, loc, a)
    if g.length <= 1e-12:
        raise CertificateError("derivative model undefined at a set point")
    tangent = _tangent if _tangent is not None else cx.tangent_cone(cell_id, loc)
    x_a = g.breakpoints[1]
    toward = [ai - xi for xi, ai in zip(loc.coords, x_a)]
    r = math.hypot(*toward)
    u = tuple(v / r for v in toward)
    if tangent.contains(u):
        sub = Singleton(tuple(-v for v in u))
    else:
        exit_face = SignCone(tuple(
            s if s == FREE or (s == NONNEG and ui > 0.0) or (s == NONPOS and ui < 0.0) else ZERO
            for s, ui in zip(tangent.signs, u)))
        sub = ConeBall(u, exit_face.polar())
    return DirectionalDerivativeModel(label, cell_id, g.length, x_a, sub, tangent)


def build_models(A: PointSetA, loc: LocatedPoint, cell_id: str) -> list:
    tangent = A.cx.tangent_cone(cell_id, loc)
    return [build_model(A, loc, cell_id, lbl, _tangent=tangent) for lbl in A.labels]


def _scaled_problem(models) -> tuple:
    """One cell's conic problem: the sets ``d_a S_a`` and the target cone."""
    sets = [m.subdiff.scaled(m.distance) for m in models]
    return sets, models[0].tangent.polar().negate()


def directional_derivative(model: DirectionalDerivativeModel, u) -> float:
    """One-sided derivative of ``d(., a)`` along ``u`` from within the cell.

    Returns ``+inf`` for directions leaving the cell's tangent cone.
    Positively homogeneous in ``u``.  ``ValueError`` unless ``u`` is a
    sequence of finite numbers.
    """
    if not isinstance(model, DirectionalDerivativeModel):
        raise ValueError(f"model must be a DirectionalDerivativeModel, got {model!r}")
    if not _all_finite(u):
        raise ValueError(f"u must be a sequence of finite numbers, got {u!r}")
    if not model.tangent.contains(u, 1e-9):
        return math.inf
    return float(model.subdiff.support(u))


class PCOutcome(namedtuple("PCOutcome", "cell value0 residual weights direction",
                           defaults=(None,))):
    """The per-cell conic problem's result: convex ``weights`` over the set labels,
    and a unit decrease ``direction`` when infeasible."""

    __slots__ = ()


def solve_PC(A: PointSetA, xbar, cell_id: str, tol: float = 1e-8,
             _models=None) -> PCOutcome:
    """Decide whether the first-order mean condition holds in one cell.

    Solves for the distance from the hull of the scaled model sets
    ``d_a S_a`` to the negated normal cone.  Feasible (residual at most
    ``tol``): the convex weights are membership weights.  Infeasible:
    returns a unit direction ``u`` in the tangent cone with
    ``d_a * D_u d_a <= -residual / 2`` for every set point.
    """
    check_tolerance(tol)
    cx = check_point_set(A).cx
    loc = cx.locate(xbar)
    models = _models if _models is not None else build_models(A, loc, cell_id)
    sets, target = _scaled_problem(models)
    res = feasibility_min_norm(sets, target, tol=tol)
    if res.status == "stalled":
        raise ConvergenceError(
            f"conic feasibility stalled at {loc.coords} in cell {cell_id} "
            f"after {res.iterations} rounds "
            f"(residual {res.residual:g}, gap {res.gap:g})"
        )
    if res.residual <= tol:
        return PCOutcome(cell_id, True, res.residual, res.weights)

    rho = res.residual
    u = models[0].tangent.project(map(operator.sub, res.cone_point, res.point))
    nu = math.sqrt(sum(ui * ui for ui in u))
    if nu <= 1e-15:
        raise CertificateError(f"degenerate descent direction at {loc.coords} "
                               f"in cell {cell_id}; residual {rho:g}")
    u = [ui / nu for ui in u]
    margin = max(m.distance * directional_derivative(m, u) for m in models)
    if not margin <= -0.5 * rho:
        raise CertificateError(
            f"descent direction check failed at {loc.coords} in cell {cell_id}: "
            f"max derivative {margin:g} vs residual {rho:g}"
        )
    return PCOutcome(cell_id, False, rho, res.weights, direction=tuple(u))


def _witness_from_direction(A: PointSetA, loc: LocatedPoint, cell_id: str,
                            step) -> NonMembershipCertificate:
    """The first of ``x + step / 2^k``, k < 60, in the cell strictly closer to every set point."""
    cx = A.cx
    d_ref = A.distances_from(loc)
    for _ in range(60):
        cand = cx.snap(tuple(map(operator.add, loc.coords, step)))
        carrier, owners = cx._cells_at(cand)
        if cell_id in owners:
            margins = witness_margins(A, d_ref, LocatedPoint(cand, carrier, cx))
            if min(margins.values()) > 0.0:
                return NonMembershipCertificate(cand, margins)
        step = [0.5 * s for s in step]
    raise CertificateError(
        f"failed to realise a strictly-closer witness at {loc.coords} from cell {cell_id}"
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
    cx = check_point_set(A).cx
    loc = cx.locate(xbar)
    cells = cx.maximal_cells_containing(loc)
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
    v = [w if w > 0.0 else 0.0 for w in v]
    total = sum(v)
    weights = {l: w / total for l, w in zip(A.labels, v)}
    return loc, DeficitReport(worst.residual, per_cell, weights=weights), worst


def decide(A: PointSetA, xbar, tol: float = 1e-8):
    """Membership at ``xbar`` with its evidence: ``(DeficitReport, certificate)``.

    A member's certificate carries the weights of the per-cell solves.  A
    non-member's witness is searched from ``x - r``, where ``r`` is the
    worst cell's residual vector, halving the step, at most 60 times, until
    every distance strictly drops.
    """
    check_tolerance(tol)
    loc, report, worst = _solve_cells(A, xbar, tol)
    if report.value <= tol:
        if report.weights is None:
            raise CertificateError(
                f"per-cell problems at {loc.coords} are feasible in cells "
                f"{sorted(report.per_cell)} but no shared weights found")
        return report, MembershipCertificate(report.weights, report.value)
    step = [report.value * d for d in report.direction]
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
    cx = check_point_set(A).cx
    loc = cx.locate(xbar)
    tangent = cx.tangent_cone(cell_id, loc)
    dists = A.distances_from(loc)
    pairs = [(l, w * dists[l]) for l, w in zip(A.labels, _per_label(A, weights, "weights"))]
    live = [(l, v) for l, v in pairs if v > 0.0]
    if not live:
        # all weight sits on coincident set points; stationarity is vacuous
        return 0.0
    models = [build_model(A, loc, cell_id, l, _tangent=tangent) for l, _ in live]
    total = sum(vi for _, vi in live)
    combined = WeightedSum(tuple(m.subdiff for m in models), tuple(vi / total for _, vi in live))
    return feasibility_min_norm([combined], tangent.polar().negate()).residual
