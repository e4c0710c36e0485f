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
import random
from collections import namedtuple

from . import geodesics
from .complexes import CubicalComplex
from .convex import _all_finite, check_count, check_tolerance
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


def _per_label(A, values, name: str, error=ValueError) -> list:
    """``values[l]`` per label of ``A`` (0.0 if absent); ``error`` unless ``values`` is a dict."""
    if not isinstance(values, dict):
        raise error(f"{name} must be a dict keyed by label, got {values!r}")
    return [values.get(l, 0.0) for l in A.labels]


class PointSetA:
    """A labelled finite set of points in one complex."""

    def __init__(self, cx: CubicalComplex, labelled_points):
        if not isinstance(cx, CubicalComplex):
            raise ValueError(f"cx must be a CubicalComplex, got {cx!r}")
        if not isinstance(labelled_points, dict):
            raise ValueError(f"labelled points must be a dict, got {labelled_points!r}")
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
        try:
            coords = list(coords)
        except TypeError:
            raise ValueError(f"coords must be a sequence of points, got {coords!r}") from None
        try:
            labels = [f"a{i}" for i in range(len(coords))] if labels is None else list(labels)
            labelled = dict(zip(labels, coords))
        except TypeError:   # no sequence, or a label that is not hashable
            raise ValueError(f"labels must be a sequence of hashable labels, "
                             f"got {labels!r}") from None
        if len(labels) != len(coords):
            raise ValueError("labels and coordinates must align")
        return cls(cx, labelled)

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

    def label_of(self, x):
        """The label whose point lies within 1e-9 of ``x``, or None."""
        loc = self.cx.locate(x)
        for lbl in self.labels:
            if math.dist(loc.coords, self.points[lbl].coords) <= 1e-9:
                return lbl
        return None


def check_point_set(A) -> PointSetA:
    """``A`` itself; ``ValueError`` naming it unless it is a :class:`PointSetA`."""
    if not isinstance(A, PointSetA):
        raise ValueError(f"A must be a PointSetA, got {A!r}")
    return A


class MembershipCertificate(namedtuple("MembershipCertificate", "weights deficit")):
    __slots__ = ()
    kind = "membership"

    def to_dict(self):
        return {
            "kind": self.kind,
            "weights": {k: float(v) for k, v in self.weights.items()},
            "deficit": float(self.deficit),
        }


class NonMembershipCertificate(namedtuple("NonMembershipCertificate", "witness margins")):
    __slots__ = ()
    kind = "non-membership"

    def to_dict(self):
        return {
            "kind": self.kind,
            "witness": [float(x) for x in self.witness],
            "margins": {k: float(v) for k, v in self.margins.items()},
        }


class DeficitReport(namedtuple("DeficitReport", "value per_cell weights direction",
                               defaults=(None, None))):
    """The mean-deficit ``value`` at a point, its value per maximal cell id
    (``per_cell``), and the minimising ``weights`` when it is zero or a unit
    decrease ``direction`` when it is positive."""

    __slots__ = ()

    def to_dict(self):
        out = {"value": float(self.value),
               "per_cell": {k: float(v) for k, v in self.per_cell.items()}}
        if self.weights is not None:
            out["weights"] = {k: float(v) for k, v in self.weights.items()}
        if self.direction is not None:
            out["direction"] = [float(x) for x in self.direction]
        return out


class RecognitionResult(namedtuple("RecognitionResult",
                                   "decision certificate per_cell deficit")):
    """A ``decision``, "member" or "non-member", with its ``certificate``;
    ``per_cell`` maps each maximal cell id to ``(feasible, residual)``."""

    __slots__ = ()

    def to_dict(self):
        return {
            "decision": self.decision,
            "certificate": self.certificate.to_dict(),
            "per_cell": {k: {"value0": bool(v[0]), "residual": float(v[1])}
                         for k, v in self.per_cell.items()},
            "deficit": float(self.deficit),
        }


class VerificationReport(namedtuple("VerificationReport",
                                    "ok samples failures conic_residuals")):
    """``failures`` holds the offending samples or cells, with numbers;
    ``conic_residuals`` maps each maximal cell id to its first-order residual."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the variance-gap test function


def test_function(A: PointSetA, xbar, x) -> float:
    """Half the worst-case gap ``d_a(x)^2 - d_a(xbar)^2`` over the set.

    Nonnegative everywhere exactly when ``xbar`` is a mean of ``A``.
    """
    d_ref = check_point_set(A).distances_from(xbar)
    d_x = A.distances_from(x)
    return 0.5 * max(d_x[l] ** 2 - d_ref[l] ** 2 for l in A.labels)


def test_function_line_search(A: PointSetA, xbar, g: geodesics.Geodesic,
                              tol: float = 1e-8):
    """Minimise the test function along the geodesic ``g``.

    Returns ``(s_star, value)`` with ``s_star`` the length fraction in
    ``[0, 1]``.  The function is convex along geodesics, so golden-section
    search applies; an everywhere-flat profile resolves to ``s = 0``.  The
    bracket shrinks by the factor 0.618 per step until it is narrower than
    ``tol`` or float resolution stops it shrinking, whichever comes first: at
    most about 1,550 steps for any ``tol``, 39 at the default.
    """
    check_tolerance(tol, positive=True)

    def phi(s):
        return test_function(A, xbar, geodesics.point_along(g, s))

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    while hi - lo > tol:
        width = hi - lo
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = phi(x2)
        if hi - lo >= width:   # the bracket is down to float resolution
            break
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
    return boundary.recognize_general(A, xbar, tol)


def recognize_interior(A: PointSetA, xbar, tol: float = 1e-8):
    """``(DeficitReport, certificate)`` at a point interior to a maximal cell.

    Kept as an entry point because ``perfbench/tracing.py`` wraps it by name.
    """
    loc = check_point_set(A).cx.locate(xbar)
    if loc.minimal_cell not in A.cx.maximal_ids or A.label_of(loc) is not None:
        raise CertificateError("query point is a set point or not interior to a maximal cell")
    return boundary.decide(A, loc, tol)


def mean_deficit(A: PointSetA, xbar) -> DeficitReport:
    """The mean-deficit value at ``xbar`` with per-cell breakdown."""
    return boundary.general_deficit(A, xbar)


def witness_margins(A: PointSetA, d_ref: dict, witness) -> dict:
    """``d(xbar, a) - d(witness, a)`` for each set point ``a``, given ``d_ref``, the
    distances from the query point ``xbar``."""
    d_wit = A.distances_from(witness)
    return {l: d_ref[l] - d_wit[l] for l in A.labels}


def certified_lower_bound(A: PointSetA, xbar, cert: NonMembershipCertificate) -> float:
    """The distance lower bound carried by a non-membership certificate.

    Every mean must be farther from the witness than the query point is,
    by at least the smallest margin; that margin therefore bounds the
    distance from the query point to the entire mean set from below.  The margins
    are recomputed from distances, and the stored ones must be positive too.
    """
    if not isinstance(cert, NonMembershipCertificate):
        raise CertificateError("lower bounds require a non-membership certificate")
    stored = list(cert.margins.values()) if isinstance(cert.margins, dict) else []
    if not (stored and _all_finite(stored) and min(stored) > 0.0):
        raise CertificateError(f"certificate margins must all be strictly positive, "
                               f"got {cert.margins!r}")
    margins = witness_margins(check_point_set(A), A.distances_from(xbar), cert.witness)
    low = min(margins.values())
    if not low > 0.0:
        raise CertificateError(f"witness {cert.witness} is not strictly closer than the "
                               f"query point to every set point: margins {margins!r}")
    return float(low)


def weighted_objective(A: PointSetA, weights: dict, x, p: float = 2.0) -> float:
    """The weighted p-th power distance objective at ``x`` (finite p >= 1, finite weights)."""
    if not (_all_finite([p]) and p >= 1.0):
        raise ValueError(f"exponent must be finite and at least 1, got {p!r}")
    w = _per_label(check_point_set(A), weights, "weights")
    if not _all_finite(w):
        raise ValueError(f"weights must be finite real numbers, got {weights!r}")
    d = A.distances_from(x)
    return float(sum(wi * d[l] ** p for wi, l in zip(w, A.labels)))


def random_point(cx: CubicalComplex, rng: random.Random) -> tuple:
    """``(cell id, point)``: a uniformly drawn maximal cell and a uniform point
    of its box, a tuple of floats.  Draws only with ``rng.random()``: Python
    keeps its sequence for a seed across versions, and does not promise that
    of ``randrange``.  ``ValueError`` unless ``cx`` is a :class:`CubicalComplex`
    and ``rng`` has a ``random`` method."""
    if not isinstance(cx, CubicalComplex):
        raise ValueError(f"cx must be a CubicalComplex, got {cx!r}")
    if not callable(getattr(rng, "random", None)):
        raise ValueError(f"rng must have a random() method, got {rng!r}")
    ids = cx.maximal_ids
    cid = ids[int(rng.random() * len(ids))]
    lo, hi = cx._boxes[cid]
    return cid, tuple(l + (h - l) * rng.random() for l, h in zip(lo, hi))


def verify_certificate(A: PointSetA, xbar, cert, samples: int = 500,
                       seed: int = 7, tol: float = 1e-7) -> VerificationReport:
    """Re-check a certificate from scratch.

    Membership: the variance inequality
    ``sum_a w_a d_a(x)^2 >= sum_a w_a d_a(xbar)^2 + d(x, xbar)^2`` must hold
    on sampled points, and a first-order conic condition must hold in every
    maximal cell at the query point; weights that are not a probability
    vector (a NaN or a string is not) fail at once, before any sample.  The
    sampled points are :func:`random_point` draws from one stream seeded by
    ``seed``, a nonnegative integer.  Non-membership: the witness must be
    strictly closer to every set point.
    """
    check_tolerance(tol)
    samples = check_count(samples, "samples")
    rng = random.Random(check_count(seed, "seed"))
    cx = check_point_set(A).cx
    loc = cx.locate(xbar)
    failures = []
    conic = {}

    if isinstance(cert, NonMembershipCertificate):
        for l, margin in witness_margins(A, A.distances_from(loc), cert.witness).items():
            if margin <= 0.0:
                failures.append((l, f"witness not strictly closer: margin {margin:g}"))
        return VerificationReport(not failures, 0, tuple(failures), {})

    if not isinstance(cert, MembershipCertificate):
        raise CertificateError(f"cannot verify object of type {type(cert).__name__}")

    w = _per_label(A, cert.weights, "certificate weights", CertificateError)
    if not (_all_finite(w) and all(wi >= -1e-12 for wi in w) and abs(sum(w) - 1.0) <= 1e-6):
        return VerificationReport(False, 0, (("weights", "not a probability vector"),), {})
    d_ref = A.distances_from(loc)
    base = sum(wi * d_ref[l] ** 2 for wi, l in zip(w, A.labels))

    for _ in range(samples):
        pt = random_point(cx, rng)[1]
        d_x = A.distances_from(pt)
        lhs = sum(wi * d_x[l] ** 2 for wi, l in zip(w, A.labels))
        gap = lhs - base - geodesics.distance(cx, pt, loc) ** 2
        if gap < -tol:
            failures.append((pt, f"variance inequality violated by {-gap:g}"))

    for cid in cx.maximal_cells_containing(loc):
        r = boundary.conic_residual(A, loc, cid, cert.weights)
        conic[cid] = r
        if r > tol:
            failures.append((cid, f"first-order conic residual {r:g}"))
    return VerificationReport(not failures, samples, tuple(failures), conic)


from . import boundary  # noqa: E402 -- last, since boundary imports the names above
