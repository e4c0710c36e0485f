"""Convex kernels shared by the geometry modules.

Everything in here works on tiny dense problems (ambient dimension of a
handful, point sets of at most a few dozen), so the solvers favour exact
small linear algebra and finite enumeration over general-purpose iterative
machinery.  The public pieces are:

* :class:`SignCone` -- per-coordinate sign-constraint cones (tangent and
  normal cones of axis-aligned boxes live here).
* :func:`min_norm_point` -- Wolfe's algorithm for the nearest point of a
  convex hull plus a finitely generated cone to the origin.
* :func:`box_segment_min` -- shortest broken path from ``a`` to ``b``
  through an axis-aligned box, exact by enumerating every face of the box.
* :class:`Singleton` / :class:`ConeBall` -- compact convex sets used as
  one-sided derivative models, supporting exact linear maximisation;
  :class:`ProductSet` stacks them blockwise and :class:`WeightedSum` is
  their Minkowski sum under fixed weights.
* :func:`feasibility_min_norm` -- distance between the convex hull of a
  union of such sets and a sign cone: fully corrective Frank-Wolfe whose
  corrective step is one exact Wolfe solve, so polytopes are solved
  exactly in finitely many rounds.
* :func:`shared_certificate_weights` -- a single weight vector feasible
  for several conic problems at once, as one stacked feasibility solve.

Everything runs on Python floats, and every vector a solve returns is a
tuple of them: on problems this small each array-library call costs more
than the arithmetic it does.  The public entries raise ``ValueError``
naming the argument on empty, non-finite or mismatched-dimension input.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

__all__ = [
    "FREE",
    "ZERO",
    "NONNEG",
    "NONPOS",
    "SignCone",
    "MinNormResult",
    "min_norm_point",
    "box_segment_min",
    "Singleton",
    "ConeBall",
    "ProductSet",
    "WeightedSum",
    "FeasibilityResult",
    "feasibility_min_norm",
    "shared_certificate_weights",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its target tolerance."""


def _all_finite(values) -> bool:
    """Whether every value is a finite real number (a string, None or a boolean is not)."""
    try:
        return all(v.__class__ is not bool and math.isfinite(v) for v in values)
    except TypeError:
        return False


def check_tolerance(tol, positive: bool = False, name: str = "tolerance") -> None:
    """Raise ``ValueError``, naming ``tol`` as ``name``, unless it is a finite and nonnegative
    real number (positive if asked): a NaN compares false with every residual and would pass
    any certificate."""
    if not (_all_finite([tol]) and (tol > 0.0 if positive else tol >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {tol!r}")


def check_count(count, name: str, least: int = 0) -> int:
    """``count`` as an ``int``; ``ValueError`` naming it unless it is an
    integer of at least ``least`` (a float such as 2.0 or NaN is not, nor is
    a boolean)."""
    try:
        n = None if isinstance(count, bool) else operator.index(count)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {count!r}")
    return n


def _checked_make(cls, fields):
    """``_make`` of a record that checks its fields: through ``__new__``, so
    that ``_make`` and ``_replace``, which calls it, run the checks too."""
    return cls(*fields)


# ---------------------------------------------------------------------------
# sign cones

FREE = "free"
ZERO = "zero"
NONNEG = "nonneg"
NONPOS = "nonpos"

_ALL_SIGNS = (FREE, ZERO, NONNEG, NONPOS)
_POLAR = {FREE: ZERO, ZERO: FREE, NONNEG: NONPOS, NONPOS: NONNEG}
_NEGATE = {FREE: FREE, ZERO: ZERO, NONNEG: NONPOS, NONPOS: NONNEG}


class SignCone(namedtuple("SignCone", "signs")):
    """A cone cut out by per-coordinate sign constraints, a tuple ``signs``.

    Each coordinate is one of ``free`` (unconstrained), ``zero`` (pinned to
    0), ``nonneg`` or ``nonpos``.  Tangent and normal cones of axis-aligned
    boxes are exactly of this shape, which keeps projection and polarity
    exact coordinate-wise operations.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, signs):
        try:
            for s in signs:
                if s not in _ALL_SIGNS:
                    raise ValueError(f"unknown sign constraint {s!r}")
        except TypeError:   # not iterable
            raise ValueError(f"signs must be a sequence of sign constraints, got {signs!r}") from None
        return tuple.__new__(cls, (signs,))

    @property
    def dim(self) -> int:
        return len(self.signs)

    def contains(self, v, tol: float = 1e-9) -> bool:
        try:
            if len(v) != len(self.signs):
                raise ValueError(f"v must have the cone's dimension {self.dim}")
        except TypeError:   # no sized sequence
            raise ValueError(f"v must be a sequence of numbers, got {v!r}") from None
        for s, vi in zip(self.signs, v):
            if s == ZERO and abs(vi) > tol:
                return False
            if s == NONNEG and vi < -tol:
                return False
            if s == NONPOS and vi > tol:
                return False
        return True

    def project(self, v) -> tuple:
        """Euclidean projection, a per-coordinate clamp, as a tuple of floats;
        ``v`` may be any iterable of numbers of the cone's dimension."""
        try:
            return tuple([0.0 if s == ZERO or (s == NONNEG and vi < 0.0)
                          or (s == NONPOS and vi > 0.0) else float(vi)
                          for s, vi in zip(self.signs, v, strict=True)])
        except ValueError:   # zip's: v is longer or shorter than the cone
            raise ValueError(f"v must have the cone's dimension {self.dim}") from None
        except TypeError:   # no iterable, or an item that is no number
            raise ValueError(f"v must be a sequence of numbers, got {v!r}") from None

    def polar(self) -> "SignCone":
        return SignCone(tuple(_POLAR[s] for s in self.signs))

    def negate(self) -> "SignCone":
        return SignCone(tuple(_NEGATE[s] for s in self.signs))


# ---------------------------------------------------------------------------
# Wolfe min-norm point


class MinNormResult(namedtuple("MinNormResult", "point weights gap")):
    """The nearest ``point`` of the set to the origin, its convex ``weights`` over
    the input points and ``gap``, max_a <x, x - q_a>, a bound on suboptimality."""

    __slots__ = ()


# Wolfe's stopping tolerance, relative to the squared size of the data
_WOLFE_TOL = 1e-12


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b), 0.0)


def _combine(w, rows) -> list:
    """``sum_c w_c rows_c``, one coordinate at a time."""
    return [sum(map(operator.mul, w, col)) for col in zip(*rows)]


def _float_rows(rows, name: str, n: int = None) -> list:
    """``rows`` as tuples of floats, each of length ``n`` (the first row's
    when None) and finite."""
    try:
        rows = [tuple(map(float, r)) for r in rows]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be rows of numbers, got {rows!r}") from None
    for r in rows:
        if n is None:
            n = len(r)
        if len(r) != n:
            raise ValueError(f"{name} must have dimension {n}, got {list(r)}")
        if not all(map(math.isfinite, r)):
            raise ValueError(f"{name} must be finite, got {list(r)}")
    return rows


def _solve(A, b) -> list:
    """``x`` with ``A x = b`` by Gaussian elimination with partial pivoting,
    or None when a pivot is at most 1e-12 of its row's largest entry in
    ``A``, a zero that rounding left: dividing by it blows ``x`` up."""
    n = len(A)
    # each row carries that threshold past its right-hand side
    M = [row + [bi, 1e-12 * max(map(abs, row))] for row, bi in zip(A, b)]
    for c in range(n):
        p = c
        for r in range(c + 1, n):
            if abs(M[r][c]) > abs(M[p][c]):
                p = r
        piv = M[p][c]
        if abs(piv) <= M[p][n + 1]:
            return None
        M[c], M[p] = M[p], M[c]
        for row in M[c + 1:]:
            f = row[c] / piv
            if f != 0.0:
                for j in range(c + 1, n + 1):
                    row[j] -= f * M[c][j]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        x[c] = (M[c][n] - _dot(M[c][c + 1:n], x[c + 1:])) / M[c][c]
    return x


def _affine_min_norm(Q, e) -> list:
    """Minimiser weights over the affine span of the rows of ``Q`` (may be
    negative), by one elimination on the KKT system.  ``e`` is 1 for a point
    row and 0 for a ray row: only the point weights must sum to one, so ray
    rows span linear directions.  Wolfe's corral is affinely independent:
    an improving atom ``q`` has ``<q, x> < |x|^2``, off the hyperplane
    ``<y, x> = |x|^2`` that holds the corral.  So a pivot that is zero up to
    rounding, a non-finite solution, or weights that miss the sum to one by
    1e-6 mean that rounding made the rows dependent: the answer is None."""
    k = len(Q)
    if k == 1:
        return [1.0]
    kkt = [[_dot(qi, qj) for qj in Q] + [ei] for qi, ei in zip(Q, e)] + [e + [0.0]]
    sol = _solve(kkt, [0.0] * k + [1.0])
    if sol is None or not all(map(math.isfinite, sol)) or abs(_dot(sol[:k], e) - 1.0) > 1e-6:
        return None
    return sol[:k]


def _corral_step(Q, e, corral, w):
    """Wolfe's step as ``corral[-1]`` enters with weight 0 in ``w``: the corral and
    weights at the affine minimiser once minor cycles drop the zero weights, or None
    if a solve is refused or the entering atom gets no weight: no step can progress."""
    v = _affine_min_norm([Q[c] for c in corral], [e[c] for c in corral])
    if v is None or v[-1] <= 0.0:
        return None
    while min(v) <= 1e-12:
        # step from w toward v until the first weight hits zero
        theta = 1.0
        for wi, vi in zip(w, v):
            if vi <= 1e-12 and wi > vi:
                theta = min(theta, wi / (wi - vi))
        w = [(1.0 - theta) * wi + theta * vi for wi, vi in zip(w, v)]
        corral = [c for c, wi in zip(corral, w) if wi >= 1e-13]
        w = [wi for wi in w if wi >= 1e-13]
        s = _dot(w, [e[c] for c in corral])
        w = [wi / s for wi in w]
        v = _affine_min_norm([Q[c] for c in corral], [e[c] for c in corral])
        if v is None:
            return None
    return corral, v


def min_norm_point(points, rays=None) -> MinNormResult:
    """Nearest point of ``conv(points) + cone(rays)`` to the origin (Wolfe's algorithm).

    The corral holds points and rays: its affine step makes only the point
    weights sum to one.  When choosing the atom to add, a ray ``r`` counts
    as the point ``x + sqrt(scale) r``, where ``scale`` (at least 1) is the
    largest squared norm of the points.  Returns the optimal point, convex
    weights over the input points, and the final variational gap
    ``max_a <x, x - q_a>`` over those atoms, which is
    nonpositive-up-to-tolerance at the optimum.  At most 64 k + 256 atoms
    enter, k the points and rays.  Raises ``ValueError`` naming the argument
    on no points, on points or rays that are no rows of numbers, on a
    non-finite coordinate, or on rows of differing dimensions.
    """
    P = _float_rows(points, "points")
    if not P:
        raise ValueError("points must hold at least one point")
    m, n = len(P), len(P[0])
    sq = [_dot(q, q) for q in P]
    scale = max(1.0, max(sq))
    root = math.sqrt(scale)
    Q = P if rays is None else P + _float_rows(rays, "rays", n)
    e = [1.0] * m + [0.0] * (len(Q) - m)  # 1 for a point, 0 for a ray

    corral = [sq.index(min(sq))]
    w = [1.0]
    x = list(Q[corral[0]])
    budget = 64 * len(Q) + 256
    while True:
        xx = _dot(x, x)
        dots = [_dot(q, x) for q in Q]
        dots[m:] = [xx + root * d for d in dots[m:]]  # <x, x + root * r> for a ray r
        best = min(dots)
        j = dots.index(best)
        gap = xx - best
        if gap <= _WOLFE_TOL * scale or j in corral or budget == 0:
            break  # optimal, numerically stuck, or out of iterations
        budget -= 1
        step = _corral_step(Q, e, corral + [j], w + [0.0])
        if step is None:
            break  # numerically stuck: keep the last corral, weights and point
        corral, w = step
        x = _combine(w, [Q[c] for c in corral])

    weights = [0.0] * m
    for c, wi in zip(corral, w):
        if c < m:
            weights[c] += wi
    return MinNormResult(point=tuple(x), weights=tuple(weights), gap=gap)


# ---------------------------------------------------------------------------
# shortest path from a to b through an axis-aligned box


def segment_span(a, d, lo, hi):
    """The interval ``(t0, t1)`` of ``t`` in [0, 1] with ``a + t d`` in the
    box ``{lo <= x <= hi}``, or None when the segment misses it.

    The test has a slack of 1e-12 in ``t`` (and in position along axes
    with ``|d_i| <= 1e-14``), so a segment that only grazes the box may
    return ``t1`` up to 1e-12 below ``t0``.
    """
    t0, t1 = 0.0, 1.0
    for ai, di, li, hi_i in zip(a, d, lo, hi):
        if abs(di) <= 1e-14:
            if ai < li - 1e-12 or ai > hi_i + 1e-12:
                return None
            continue
        s0 = (li - ai) / di
        s1 = (hi_i - ai) / di
        if s0 > s1:
            s0, s1 = s1, s0
        if s0 > t0:
            t0 = s0
        if s1 < t1:
            t1 = s1
        if t0 > t1 + 1e-12:
            return None
    return t0, t1


def box_segment_min(a, b, lo, hi):
    """Minimise ``|a-x| + |x-b|`` over the box ``{lo <= x <= hi}``, exactly.

    Returns ``(value, x)``, ``x`` a tuple of floats; the inputs may be any
    sequences of numbers.  When the straight segment meets the box the
    value is exactly ``math.dist(a, b)`` and ties among on-segment
    minimisers are broken by the point of smallest Euclidean norm.
    Otherwise every face of the box is tried: each of the k axes with
    ``lo < hi`` is pinned to ``lo``, pinned to ``hi`` or left free, and on
    each of the 3**k faces the minimiser over the face's affine hull has a
    closed form.  The objective is convex, so the best candidate that lies
    in its face is the minimum; no iterative solver is involved.  The work
    is on Python floats: array-library calls cost more than the arithmetic on
    boxes of a few axes.  Raises ``ValueError`` naming an argument that is
    no sequence of finite numbers of a's dimension, or a box with lo > hi.
    """
    try:
        a, b = [*map(float, a)], [*map(float, b)]
        lo, hi = [*map(float, lo)], [*map(float, hi)]
    except (TypeError, ValueError):
        for name, v in (("a", a), ("b", b), ("lo", lo), ("hi", hi)):
            try:
                [*map(float, v)]
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a sequence of numbers, got {v!r}") from None
    n = len(a)
    if len(b) != n or len(lo) != n or len(hi) != n:
        name, v = next((k, v) for k, v in (("b", b), ("lo", lo), ("hi", hi)) if len(v) != n)
        raise ValueError(f"{name} has dimension {len(v)}, a has {n}")
    if n == 0:
        raise ValueError("a, b, lo and hi must have at least one coordinate")
    # |a - b| or |lo - hi| is NaN or infinite if a coordinate is; NaN fails <=
    ab = math.dist(a, b)
    if not math.isfinite(ab + math.dist(lo, hi)) or not all(map(operator.le, lo, hi)):
        for name, v in (("a", a), ("b", b), ("lo", lo), ("hi", hi)):
            if not all(map(math.isfinite, v)):
                raise ValueError(f"{name} must be finite, got {v}")
        if not all(map(operator.le, lo, hi)):
            raise ValueError(f"lo must be at most hi on every axis, got {lo} and {hi}")
    d = [bi - ai for ai, bi in zip(a, b)]

    # fast path: clip the segment against the box slabs
    span = segment_span(a, d, lo, hi)
    if span is not None:
        t0, t1 = span
        if t1 < t0:
            t0 = t1 = 0.5 * (t0 + t1)
        dd = sum(di * di for di in d)
        if dd <= 0.0:
            tt = t0
        else:
            tt = min(max(-sum(ai * di for ai, di in zip(a, d)) / dd, t0), t1)
        x = [min(max(ai + tt * di, l), h) for ai, di, l, h in zip(a, d, lo, hi)]
        return ab, tuple(x)

    if ab <= 1e-13:
        x = [min(max(ai, l), h) for ai, l, h in zip(a, lo, hi)]
        return math.dist(a, x) + math.dist(x, b), tuple(x)

    # The minimiser lies in the relative interior of exactly one face, and
    # by convexity it also minimises over that face's affine hull.  On a
    # hull at distances P from a and Q from b, unfolding the two segments
    # into a plane puts the hull minimiser at (Q a + P b) / (P + Q), with
    # value hypot(P + Q, |a - b| along the hull).  Faces are visited by
    # decreasing dimension, so a candidate beats its own subfaces on ties.
    freed = [i for i in range(n) if hi[i] - lo[i] > 1e-12]
    base = [0.5 * (lo[i] + hi[i]) for i in range(n)]  # lo == hi when pinned
    best_val, best_x = math.inf, None
    for face in _box_faces(len(freed)):
        x = base[:]
        free = []
        for i, side in zip(freed, face):
            if side < 0:
                x[i] = lo[i]
            elif side > 0:
                x[i] = hi[i]
            else:
                free.append(i)
        ca = cb = 0.0
        for i in range(n):
            if i not in free:
                da = a[i] - x[i]
                db = b[i] - x[i]
                ca += da * da
                cb += db * db
        P = math.sqrt(ca)
        Q = math.sqrt(cb)
        if free:
            if P + Q <= 0.0:
                continue  # the segment lies in the hull and misses the face
            span = 0.0
            for i in free:
                t = (a[i] * Q + b[i] * P) / (P + Q)
                if t < lo[i] - 1e-12 or t > hi[i] + 1e-12:
                    break
                x[i] = min(max(t, lo[i]), hi[i])
                span += (b[i] - a[i]) * (b[i] - a[i])
            else:
                val = math.hypot(P + Q, math.sqrt(span))
                if val < best_val:
                    best_val, best_x = val, x
        elif P + Q < best_val:
            best_val, best_x = P + Q, x
    return math.dist(a, best_x) + math.dist(best_x, b), tuple(best_x)


@functools.lru_cache(maxsize=None)
def _box_faces(k: int) -> tuple:
    """The 3**k faces of a k-dimensional box, by decreasing dimension.

    A face gives each free axis a side: -1 pinned to lo, +1 pinned to hi,
    0 left free.
    """
    faces = itertools.product((0, -1, 1), repeat=k)
    return tuple(sorted(faces, key=lambda f: f.count(0), reverse=True))


# ---------------------------------------------------------------------------
# compact convex sets with exact support oracles


def _norm(v) -> float:
    """The Euclidean norm of ``v``, NaN unless it is a sequence of numbers."""
    try:
        return math.hypot(*v)
    except TypeError:
        return math.nan


class Singleton(namedtuple("Singleton", "g scale")):
    """A one-point set ``{scale * g}`` with ``|g| <= 1``.  Its support and
    anchor points are tuples of floats."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, g, scale=1.0):
        if not _norm(g) <= 1.0 + 1e-7:
            raise ValueError(f"g must be finite and in the unit ball, got {g}")
        try:
            if math.isfinite(scale):
                return tuple.__new__(cls, (g, scale))
        except TypeError:   # no number
            pass
        raise ValueError(f"scale must be finite, got {scale!r}")

    def support(self, d) -> float:
        return self.scale * sum(gi * di for gi, di in zip(self.g, d))

    def support_point(self, d) -> tuple:
        return self.anchor_point()

    def anchor_point(self) -> tuple:
        return tuple(self.scale * gi for gi in self.g)

    def scaled(self, c: float) -> "Singleton":
        return Singleton(self.g, self.scale * c)


class ConeBall(namedtuple("ConeBall", "u cone scale")):
    """The set ``scale * ((N - u) ∩ B(0,1))`` for a sign cone ``N = cone``, ``|u| = 1``.

    Support maximisation is exact: enumerate which sign-constrained
    coordinates of ``n`` are pinned to zero, solve the remaining ball
    restriction in closed form, and keep the best sign-feasible candidate.
    Support and anchor points are tuples of floats.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, u, cone, scale=1.0):
        if not abs(_norm(u) - 1.0) <= 1e-7:
            raise ValueError(f"u must be a finite unit vector, got {u}")
        if not isinstance(cone, SignCone):
            raise ValueError(f"cone must be a SignCone, got {cone!r}")
        if len(u) != cone.dim:
            raise ValueError(f"u has dimension {len(u)}, the cone {cone.dim}")
        try:
            if math.isfinite(scale):
                return tuple.__new__(cls, (u, cone, scale))
        except TypeError:   # no number
            pass
        raise ValueError(f"scale must be finite, got {scale!r}")

    def _argmax_shift(self, d) -> list:
        """Maximise ``<d, n>`` over ``n in N`` with ``|n - u| <= 1``."""
        u = self.u
        signs = self.cone.signs
        n_dim = len(signs)
        signed = [i for i in range(n_dim) if signs[i] in (NONNEG, NONPOS)]
        free = [i for i in range(n_dim) if signs[i] == FREE]
        best_val = 0.0
        best_n = [0.0] * n_dim  # n = 0 is always feasible: |0 - u| = 1
        for mask in range(1 << len(signed)):
            # the signed axes in the mask are pinned to 0, as the ZERO ones are
            live = [i for k, i in enumerate(signed) if not mask >> k & 1] + free
            # |u| = 1, so the ball's radius on the live axes is the norm of
            # u there; 1 - (the rest) would lose half the digits near 0
            rad = math.sqrt(sum(u[i] * u[i] for i in live))
            nd = math.sqrt(sum(d[i] * d[i] for i in live))
            if nd <= 1e-15:
                continue
            cand = [0.0] * n_dim
            val = 0.0
            for i in live:
                ni = u[i] + rad * d[i] / nd
                if (signs[i] == NONNEG and ni < -1e-12) or (signs[i] == NONPOS and ni > 1e-12):
                    break
                cand[i] = ni
                val += d[i] * ni
            else:
                if val > best_val + 1e-15:
                    best_val, best_n = val, cand
        return best_n

    def support_point(self, d) -> tuple:
        n = self._argmax_shift(d)
        return tuple(self.scale * (ni - ui) for ni, ui in zip(n, self.u))

    def support(self, d) -> float:
        return float(_dot(d, self.support_point(d)))

    def anchor_point(self) -> tuple:
        return tuple(-self.scale * ui for ui in self.u)

    def scaled(self, c: float) -> "ConeBall":
        return ConeBall(self.u, self.cone, self.scale * c)


# ---------------------------------------------------------------------------
# distance from a hull / Minkowski sum to a sign cone


class ProductSet(namedtuple("ProductSet", "blocks block_dim")):
    """A product of convex model sets, one per equally-sized block of size
    ``block_dim``: one set for :func:`feasibility_min_norm`, which calls its
    support and anchor points.  The support point of a stacked direction is
    the stack of blockwise support points."""

    __slots__ = ()

    def support_point(self, d) -> tuple:
        n = self.block_dim
        return tuple(itertools.chain.from_iterable(
            blk.support_point(d[i * n:(i + 1) * n]) for i, blk in enumerate(self.blocks)))

    def anchor_point(self) -> tuple:
        return tuple(itertools.chain.from_iterable(blk.anchor_point() for blk in self.blocks))


class WeightedSum(namedtuple("WeightedSum", "sets weights")):
    """The Minkowski sum ``sum_k w_k S_k`` of model sets under fixed weights:
    one set for :func:`feasibility_min_norm`, which calls its support and
    anchor points.  Weights of at most 1e-15 drop out of support points."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, sets, weights):
        try:
            if len(weights) == len(sets) and all(
                    math.isfinite(w) and w >= -1e-12 for w in weights):
                return tuple.__new__(cls, (sets, weights))
        except TypeError:   # no sequence, or a weight that is no number
            pass
        raise ValueError(f"weights must be a finite nonnegative vector, one per set, "
                         f"got {weights!r}")

    def support_point(self, d) -> tuple:
        out = [0.0] * len(d)
        for s, w in zip(self.sets, self.weights):
            if w > 1e-15:
                out = [o + w * p for o, p in zip(out, s.support_point(d))]
        return tuple(out)

    def anchor_point(self) -> tuple:
        return tuple(map(sum, zip(*([w * p for p in s.anchor_point()]
                                    for s, w in zip(self.sets, self.weights)))))


_MODEL_SETS = (Singleton, ConeBall, ProductSet, WeightedSum)


class FeasibilityResult(namedtuple(
        "FeasibilityResult", "residual point cone_point weights status iterations gap")):
    """The distance achieved (``residual``) at the optimal ``point`` of the search
    set, its projection ``cone_point`` onto the target cone, the convex ``weights``
    over the sets, ``status`` ("zero", "positive" or "stalled"), and the Frank-Wolfe
    ``iterations`` and last ``gap``."""

    __slots__ = ()


# Frank-Wolfe rounds before a solve reports "stalled"
_MAX_ROUNDS = 1000


@functools.lru_cache(maxsize=None)
def _cone_rays(signs: tuple) -> tuple:
    """The constrained coordinates of a sign cone (None when none is free),
    and one ray per signed one (``-e_i`` for ``nonneg``, ``+e_i`` for
    ``nonpos``) in those coordinates, or None when no coordinate is
    signed."""
    keep = [i for i, s in enumerate(signs) if s != FREE]
    rays = tuple(tuple((-1.0 if signs[i] == NONNEG else 1.0) if j == k else 0.0
                       for j in range(len(keep)))
                 for k, i in enumerate(keep) if signs[i] != ZERO)
    return (tuple(keep) if len(keep) < len(signs) else None), rays or None


def _hull_to_cone(P: list, target: SignCone) -> tuple:
    """Nearest points of ``conv(P)`` and the cone ``target``, exactly.

    ``target`` is cut out coordinate by coordinate, so a hull point's
    distance to it ignores the ``free`` coordinates, and along each signed
    one the hull point may slide toward the cone at no cost.  The distance
    is therefore the norm of the min-norm point of the reduced hull plus
    the cone of those slides, one Wolfe solve over points and rays.  The
    hull point with those weights is nearest to the cone, and its
    projection is the nearest cone point.  ``P`` is a list of points;
    returns ``(point, cone_point, weights, gap)``.
    """
    keep, rays = _cone_rays(target.signs)
    reduced = P if keep is None else [[p[i] for i in keep] for p in P]
    res = min_norm_point(reduced, rays=rays)
    z = tuple(_combine(res.weights, P))
    return z, target.project(z), res.weights, res.gap


def feasibility_min_norm(sets, target: SignCone, tol: float = 1e-8) -> FeasibilityResult:
    """Distance between ``conv(union of the sets)`` and the cone ``target``.

    The convex weights over the sets are free; a fixed combination is one
    :class:`WeightedSum` set.  Uses fully corrective Frank-Wolfe
    (simplicial decomposition): each round adds the support atom of the
    current gradient, then one exact Wolfe solve over the collected atoms
    (:func:`_hull_to_cone`) gives the nearest point of their hull to the
    cone.  The rounds are finite when every set is a polytope.  The first
    atoms are the sets' anchor points, so a problem of :class:`Singleton`
    sets alone is solved by that first exact solve, reporting zero
    Frank-Wolfe iterations.  A solve still open after ``_MAX_ROUNDS``
    rounds reports ``"stalled"``.  Raises ``ValueError`` on ``sets`` that
    are no sequence of this module's model sets or hold none, on a
    ``target`` that is no :class:`SignCone`, on a set whose points do not
    have the cone's dimension, and on a ``tol`` that is not finite and
    nonnegative.
    """
    check_tolerance(tol, name="tol")
    if not isinstance(target, SignCone):
        raise ValueError(f"target must be a SignCone, got {target!r}")
    try:
        m = len(sets)
        models = all(isinstance(s, _MODEL_SETS) for s in sets)
    except TypeError:   # no sequence
        models = False
    if not models:
        raise ValueError(f"sets must be a sequence of model sets, got {sets!r}")
    if m == 0:
        raise ValueError("need at least one set")
    atoms = [s.anchor_point() for s in sets]
    for a in atoms:
        if len(a) != target.dim:
            raise ValueError(f"sets have points of dimension {len(a)}, the target cone {target.dim}")
    sources = list(range(m))
    z, mpt, lam, gap = _hull_to_cone(atoms, target)
    it = 0
    stalled = False
    if not all(isinstance(s, Singleton) for s in sets):
        for it in range(1, _MAX_ROUNDS + 1):
            g = list(map(operator.sub, z, mpt))
            f = _dot(g, g)
            if f <= max(1e-22, 0.25 * tol * tol):
                gap = 0.0
                break
            down = [-gi for gi in g]
            source = None   # the set whose support point minimises <g, .>, first on ties
            for k in range(m):
                p = sets[k].support_point(down)
                val = _dot(g, p)
                if source is None or val < best - 1e-15:
                    best, s, source = val, p, k
            gap = 2.0 * _dot(g, map(operator.sub, z, s))
            if gap <= max(1e-18, 1e-13 * f):
                break
            atoms = [a for a, w in zip(atoms, lam) if w > 0.0] + [s]
            sources = [c for c, w in zip(sources, lam) if w > 0.0] + [source]
            z, mpt, lam, _ = _hull_to_cone(atoms, target)
            g = list(map(operator.sub, z, mpt))
            if _dot(g, g) >= f:
                break  # an exact step that gains nothing has hit the rounding floor
        else:
            stalled = True

    g = list(map(operator.sub, z, mpt))
    residual = math.sqrt(_dot(g, g))
    # each atom's weight goes to the set it came from
    v_out = [0.0] * m
    for c, w in zip(sources, lam):
        v_out[c] += w

    status = "zero" if residual <= tol else "stalled" if stalled else "positive"
    return FeasibilityResult(residual=residual, point=z, cone_point=mpt, weights=tuple(v_out),
                             status=status, iterations=it, gap=gap)


# ---------------------------------------------------------------------------
# one weight vector feasible for several conic problems at once


def shared_certificate_weights(problems, tol: float = 1e-8):
    """Find simplex weights ``v`` with ``sum_a v_a S_a^C`` meeting cone ``M_C`` for every ``C``.

    ``problems`` is a list of ``(sets, target)`` pairs sharing the same set
    count.  Stacking each set's copies across problems into one block vector
    turns the joint search into a single free-weight conic feasibility: a
    convex combination of the stacked sets uses the same ``v`` in every
    block, so one Frank-Wolfe run solves all problems simultaneously.

    Returns ``(v, residuals)`` with one residual per problem; raises
    :class:`ConvergenceError` when the stacked residual misses the tolerance.
    """
    if not problems:
        raise ValueError("need at least one conic problem")
    m = len(problems[0][0])
    if any(len(sets) != m for sets, _ in problems):
        raise ValueError("all problems must share the same number of sets")
    n = problems[0][1].dim

    stacked = [ProductSet(tuple(sets[k] for sets, _ in problems), n) for k in range(m)]
    target = SignCone(tuple(s for _, M in problems for s in M.signs))

    r = feasibility_min_norm(stacked, target, tol=tol)
    res = []
    for j, (_, M) in enumerate(problems):
        zc = r.point[j * n:(j + 1) * n]
        dz = list(map(operator.sub, zc, M.project(zc)))
        res.append(math.sqrt(_dot(dz, dz)))
    if max(res) > tol:
        raise ConvergenceError(
            "no shared weight vector reached tolerance "
            f"{tol:g}; per-problem residuals {res}"
        )
    v = [w if w > 0.0 else 0.0 for w in r.weights]
    s = sum(v)
    return (tuple(w / s for w in v) if s > 0.0 else (1.0 / m,) * m), res
