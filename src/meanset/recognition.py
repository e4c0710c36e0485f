"""Recognising weighted means of a finite point set in a cubical complex.

A query point is a mean of the labelled set exactly when the mean-deficit
vanishes there.  This module holds the point set, the certificates and
their checks; the decision itself is the per-cell conic solve of
:mod:`meanset.boundary`, which emits machine-checkable certificates:

* :class:`MembershipCertificate` -- simplex weights under which the query
  point minimises the weighted squared-distance objective;
* :class:`NonMembershipCertificate` -- a nearby witness point strictly
  closer to every set point, which lower-bounds the distance from the
  query point to the whole mean set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics
from .complexes import CubicalComplex
from .convex import min_norm_point  # noqa: F401 -- perfbench/tracing.py wraps it here

__all__ = [
    "PointSetA",
    "MembershipCertificate",
    "NonMembershipCertificate",
    "DeficitReport",
    "VerificationReport",
    "RecognitionResult",
    "CertificateError",
    "test_function",
    "test_function_line_search",
    "recognize_interior",
    "recognize",
    "mean_deficit",
    "certified_lower_bound",
    "verify_certificate",
    "weighted_objective",
]


class CertificateError(RuntimeError):
    """Certificate construction or validation failed."""


class PointSetA:
    """A labelled finite set of points in one complex."""

    def __init__(self, cx: CubicalComplex, labelled_points):
        self.cx = cx
        self.labels = tuple(labelled_points.keys())
        if not self.labels:
            raise ValueError("point set must be nonempty")
        self.points = {}
        for lbl, coords in labelled_points.items():
            self.points[lbl] = cx.locate(coords)
        for i, la in enumerate(self.labels):
            for lb in self.labels[i + 1:]:
                d = math.dist(self.points[la].coords, self.points[lb].coords)
                if d <= 1e-9:
                    raise ValueError(f"points {la!r} and {lb!r} coincide")

    @classmethod
    def from_coords(cls, cx: CubicalComplex, coords, labels=None) -> "PointSetA":
        coords = list(coords)
        if labels is None:
            labels = [f"a{i}" for i in range(len(coords))]
        if len(labels) != len(coords):
            raise ValueError("labels and coordinates must align")
        return cls(cx, dict(zip(labels, coords)))

    def __len__(self):
        return len(self.labels)

    def coords(self, label) -> tuple:
        return self.points[label].coords

    def distances_from(self, x) -> dict:
        loc = self.cx.locate(x)
        return {
            lbl: geodesics.distance(self.cx, loc, self.points[lbl])
            for lbl in self.labels
        }

    def label_of(self, x, tol: float = 1e-9):
        """The label whose point coincides with ``x``, or None."""
        loc = self.cx.locate(x)
        for lbl in self.labels:
            if math.dist(loc.coords, self.points[lbl].coords) <= tol:
                return lbl
        return None


@dataclass(frozen=True)
class MembershipCertificate:
    weights: dict
    deficit: float

    kind = "membership"

    def to_dict(self):
        return {
            "kind": self.kind,
            "weights": {k: float(v) for k, v in self.weights.items()},
            "deficit": float(self.deficit),
        }


@dataclass(frozen=True)
class NonMembershipCertificate:
    witness: tuple
    margins: dict

    kind = "non-membership"

    def to_dict(self):
        return {
            "kind": self.kind,
            "witness": [float(x) for x in self.witness],
            "margins": {k: float(v) for k, v in self.margins.items()},
        }


@dataclass(frozen=True)
class DeficitReport:
    """The mean-deficit value at a point with its supporting evidence."""

    value: float
    per_cell: dict           # maximal cell id -> per-cell deficit value
    weights: dict = None     # minimising weights when the value is zero
    direction: tuple = None  # unit decrease direction when positive

    def to_dict(self):
        out = {"value": float(self.value),
               "per_cell": {k: float(v) for k, v in self.per_cell.items()}}
        if self.weights is not None:
            out["weights"] = {k: float(v) for k, v in self.weights.items()}
        if self.direction is not None:
            out["direction"] = [float(x) for x in self.direction]
        return out


@dataclass(frozen=True)
class RecognitionResult:
    decision: str            # "member" | "non-member"
    certificate: object
    per_cell: dict           # maximal cell id -> (feasible, residual)
    deficit: float

    def to_dict(self):
        return {
            "decision": self.decision,
            "certificate": self.certificate.to_dict(),
            "per_cell": {k: {"value0": bool(v[0]), "residual": float(v[1])}
                         for k, v in self.per_cell.items()},
            "deficit": float(self.deficit),
        }


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    samples: int
    failures: tuple          # offending samples or cells, with numbers
    conic_residuals: dict    # maximal cell id -> first-order residual

    def to_dict(self):
        return {
            "ok": self.ok,
            "samples": self.samples,
            "failures": [list(map(str, f)) for f in self.failures],
            "conic_residuals": {k: float(v) for k, v in self.conic_residuals.items()},
        }


# ---------------------------------------------------------------------------
# the variance-gap test function


def test_function(A: PointSetA, xbar, x) -> float:
    """Half the worst-case gap ``d_a(x)^2 - d_a(xbar)^2`` over the set.

    Nonnegative everywhere exactly when ``xbar`` is a mean of ``A``.
    """
    d_ref = A.distances_from(xbar)
    d_x = A.distances_from(x)
    return 0.5 * max(d_x[l] ** 2 - d_ref[l] ** 2 for l in A.labels)


def test_function_line_search(A: PointSetA, xbar, g: geodesics.Geodesic,
                              tol: float = 1e-8):
    """Minimise the test function along the geodesic ``g``.

    Returns ``(s_star, value)`` with ``s_star`` the length fraction in
    ``[0, 1]``.  The function is convex along geodesics, so golden-section
    search applies; an everywhere-flat profile resolves to ``s = 0``.
    """
    def phi(s):
        return test_function(A, xbar, geodesics.point_along(g, s))

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = phi(x2)
    s_star = 0.5 * (lo + hi)
    val = phi(s_star)
    f0 = phi(0.0)
    if f0 <= val + 1e-12:  # flat or boundary-minimal profile: prefer s = 0
        return 0.0, f0
    return s_star, val


# ---------------------------------------------------------------------------
# decisions, made by the per-cell conic solve in ``boundary``


def recognize(A: PointSetA, xbar, tol: float = 1e-8) -> RecognitionResult:
    """Decide membership anywhere in the complex, with a certificate."""
    from . import boundary  # local import; boundary builds on this module

    return boundary.recognize_general(A, xbar, tol)


def recognize_interior(A: PointSetA, xbar, tol: float = 1e-8):
    """``(DeficitReport, certificate)`` at a point interior to a maximal cell.

    Kept as an entry point because ``perfbench/tracing.py`` wraps it by name.
    """
    loc = A.cx.locate(xbar)
    if loc.minimal_cell not in A.cx.maximal_ids or A.label_of(loc) is not None:
        raise CertificateError("query point is a set point or not interior to a maximal cell")
    from . import boundary
    return boundary.decide(A, loc, tol)


def mean_deficit(A: PointSetA, xbar) -> DeficitReport:
    """The mean-deficit value at ``xbar`` with per-cell breakdown."""
    from . import boundary

    return boundary.general_deficit(A, xbar)


def certified_lower_bound(A: PointSetA, xbar, cert: NonMembershipCertificate) -> float:
    """The distance lower bound carried by a non-membership certificate.

    Every mean must be farther from the witness than the query point is,
    by at least the smallest margin; that margin therefore bounds the
    distance from the query point to the entire mean set from below.
    """
    if not isinstance(cert, NonMembershipCertificate):
        raise CertificateError("lower bounds require a non-membership certificate")
    margins = list(cert.margins.values())
    if not margins or min(margins) <= 0.0:
        raise CertificateError("certificate margins must all be strictly positive")
    return float(min(margins))


def weighted_objective(A: PointSetA, weights: dict, x, p: float = 2.0) -> float:
    """The weighted p-th power distance objective at ``x`` (p >= 1)."""
    if p < 1.0:
        raise ValueError("exponent must be at least 1")
    d = A.distances_from(x)
    return float(sum(weights.get(l, 0.0) * d[l] ** p for l in A.labels))


def _sample_points(cx: CubicalComplex, rng, count):
    ids = cx.maximal_ids
    out = []
    for _ in range(count):
        cell = cx.cell(ids[int(rng.integers(len(ids)))])
        lo, hi = cell.bounds()
        pt = lo + (hi - lo) * rng.random(cx.ambient_dim)
        out.append(tuple(pt))
    return out


def verify_certificate(A: PointSetA, xbar, cert, samples: int = 500,
                       seed: int = 7, tol: float = 1e-7) -> VerificationReport:
    """Re-check a certificate from scratch.

    Membership: the variance inequality
    ``sum_a w_a d_a(x)^2 >= sum_a w_a d_a(xbar)^2 + d(x, xbar)^2`` must hold
    on sampled points, and a first-order conic condition must hold in every
    maximal cell at the query point.  Non-membership: the witness must be
    strictly closer to every set point.
    """
    cx = A.cx
    loc = cx.locate(xbar)
    failures = []
    conic = {}

    if isinstance(cert, NonMembershipCertificate):
        d_ref = A.distances_from(loc)
        d_wit = A.distances_from(cert.witness)
        for l in A.labels:
            margin = d_ref[l] - d_wit[l]
            if margin <= 0.0:
                failures.append((l, f"witness not strictly closer: margin {margin:g}"))
        return VerificationReport(not failures, 0, tuple(failures), {})

    if not isinstance(cert, MembershipCertificate):
        raise CertificateError(f"cannot verify object of type {type(cert).__name__}")

    w = np.array([cert.weights.get(l, 0.0) for l in A.labels])
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-6:
        failures.append(("weights", "not a probability vector"))
    d_ref = A.distances_from(loc)
    base = sum(wi * d_ref[l] ** 2 for wi, l in zip(w, A.labels))

    rng = np.random.default_rng(seed)
    pts = _sample_points(cx, rng, samples)
    for pt in pts:
        d_x = A.distances_from(pt)
        lhs = sum(wi * d_x[l] ** 2 for wi, l in zip(w, A.labels))
        gap = lhs - base - geodesics.distance(cx, pt, loc) ** 2
        if gap < -tol:
            failures.append((pt, f"variance inequality violated by {-gap:g}"))

    from . import boundary

    for cid in cx.maximal_cells_containing(loc):
        r = boundary.conic_residual(A, loc, cid, cert.weights)
        conic[cid] = r
        if r > tol:
            failures.append((cid, f"first-order conic residual {r:g}"))
    return VerificationReport(not failures, samples, tuple(failures), conic)
