"""Convex kernels shared by the geometry modules.

Everything in here works on tiny dense problems (ambient dimension of a
handful, point sets of at most a few dozen), so the solvers favour exact
small linear algebra and finite enumeration over general-purpose iterative
machinery.  The public pieces are:

* :class:`SignCone` -- per-coordinate sign-constraint cones (tangent and
  normal cones of axis-aligned boxes live here).
* :func:`min_norm_point` -- Wolfe's algorithm for the nearest point of a
  convex hull to an anchor.
* :func:`box_segment_min` -- shortest broken path from ``a`` to ``b``
  through an axis-aligned box, exact by enumerating the box's faces.
* :class:`Singleton` / :class:`ConeBall` -- compact convex sets used as
  one-sided derivative models, supporting exact linear maximisation.
* :func:`feasibility_min_norm` -- fully corrective Frank-Wolfe distance
  between a convex hull (or Minkowski sum) and a sign cone.
* :func:`shared_certificate_weights` -- alternating solve for a single
  weight vector feasible for several conic problems at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

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
    "FeasibilityResult",
    "feasibility_min_norm",
    "shared_certificate_weights",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its target tolerance."""


# ---------------------------------------------------------------------------
# sign cones

FREE = "free"
ZERO = "zero"
NONNEG = "nonneg"
NONPOS = "nonpos"

_ALL_SIGNS = (FREE, ZERO, NONNEG, NONPOS)
_POLAR = {FREE: ZERO, ZERO: FREE, NONNEG: NONPOS, NONPOS: NONNEG}
_NEGATE = {FREE: FREE, ZERO: ZERO, NONNEG: NONPOS, NONPOS: NONNEG}


@dataclass(frozen=True)
class SignCone:
    """A cone cut out by per-coordinate sign constraints.

    Each coordinate is one of ``free`` (unconstrained), ``zero`` (pinned to
    0), ``nonneg`` or ``nonpos``.  Tangent and normal cones of axis-aligned
    boxes are exactly of this shape, which keeps projection and polarity
    exact coordinate-wise operations.
    """

    signs: tuple

    def __post_init__(self):
        for s in self.signs:
            if s not in _ALL_SIGNS:
                raise ValueError(f"unknown sign constraint {s!r}")

    @property
    def dim(self) -> int:
        return len(self.signs)

    def contains(self, v, tol: float = 1e-9) -> bool:
        for s, vi in zip(self.signs, v):
            if s == ZERO and abs(vi) > tol:
                return False
            if s == NONNEG and vi < -tol:
                return False
            if s == NONPOS and vi > tol:
                return False
        return True

    def project(self, v) -> np.ndarray:
        """Euclidean projection, a per-coordinate clamp."""
        out = np.array(v, dtype=float)
        for i, s in enumerate(self.signs):
            if s == ZERO:
                out[i] = 0.0
            elif s == NONNEG:
                if out[i] < 0.0:
                    out[i] = 0.0
            elif s == NONPOS:
                if out[i] > 0.0:
                    out[i] = 0.0
        return out

    def polar(self) -> "SignCone":
        return SignCone(tuple(_POLAR[s] for s in self.signs))

    def negate(self) -> "SignCone":
        return SignCone(tuple(_NEGATE[s] for s in self.signs))


# ---------------------------------------------------------------------------
# Wolfe min-norm point


@dataclass(frozen=True)
class MinNormResult:
    point: np.ndarray   # nearest point of the hull to the anchor
    weights: np.ndarray  # convex weights over the input points
    gap: float          # max_a <x, x - q_a>, a bound on suboptimality


def _affine_min_norm(Q: np.ndarray) -> np.ndarray:
    """Affine-hull minimiser weights for the rows of ``Q`` (may be negative)."""
    k = Q.shape[0]
    if k == 1:
        return np.ones(1)
    G = Q @ Q.T
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
        v = sol[:k]
        s = v.sum()
        bad = not np.isfinite(sol).all() or abs(s - 1.0) > 1e-6
    except np.linalg.LinAlgError:
        bad = True
    if bad:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        v = sol[:k]
        s = v.sum()
    if abs(s - 1.0) > 1e-12 and abs(s) > 1e-12:
        v = v / s
    return v


def min_norm_point(points, anchor=None, tol: float = 1e-12, max_iter=None) -> MinNormResult:
    """Nearest point of ``conv(points)`` to ``anchor`` (Wolfe's algorithm).

    Returns the optimal point, convex weights over the inputs, and the
    final variational gap ``max_a <x-anchor, (x-anchor) - (p_a-anchor)>``
    which is nonpositive-up-to-tolerance at the optimum.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    m = P.shape[0]
    if anchor is None:
        Q = P.copy()
        anchor_arr = np.zeros(P.shape[1])
    else:
        anchor_arr = np.asarray(anchor, dtype=float)
        Q = P - anchor_arr
    sq = np.einsum("ij,ij->i", Q, Q)
    scale = max(1.0, float(sq.max(initial=0.0)))
    if max_iter is None:
        max_iter = 64 * m + 256

    corral = [int(sq.argmin())]
    w = np.ones(1)
    x = Q[corral[0]].copy()
    for _ in range(max_iter):
        dots = Q @ x
        xx = float(x @ x)
        j = int(dots.argmin())
        if xx - dots[j] <= tol * scale:
            break
        if j in corral:
            break  # numerically stuck; gap is reported below
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            v = _affine_min_norm(Q[corral])
            if (v > 1e-12).all():
                w = v
                break
            # step from w toward v until the first weight hits zero
            theta = 1.0
            for i in range(len(corral)):
                if v[i] <= 1e-12 and w[i] > v[i]:
                    theta = min(theta, w[i] / (w[i] - v[i]))
            w = (1.0 - theta) * w + theta * v
            w[w < 1e-13] = 0.0
            keep = w > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep]
            w = w / w.sum()
        x = w @ Q[corral]

    weights = np.zeros(m)
    for c, wi in zip(corral, w):
        weights[c] += wi
    dots = Q @ x
    gap = float((x @ x) - dots.min())
    return MinNormResult(point=x + anchor_arr, weights=weights, gap=gap)


# ---------------------------------------------------------------------------
# shortest path from a to b through an axis-aligned box


def _path_value(a, b, x) -> float:
    return float(np.linalg.norm(x - a) + np.linalg.norm(x - b))


def box_segment_min(a, b, lo, hi):
    """Minimise ``|a-x| + |x-b|`` over the box ``{lo <= x <= hi}``, exactly.

    Returns ``(value, x)``.  When the straight segment meets the box the
    value is exactly ``|a-b|`` and ties among on-segment minimisers are
    broken by the point of smallest Euclidean norm.  Otherwise every face
    of the box is tried: each of the k axes with ``lo < hi`` is pinned to
    ``lo``, pinned to ``hi`` or left free, and on each of the 3**k faces
    the minimiser over the face's affine hull has a closed form.  The
    objective is convex, so the best candidate that lies in its face is
    the minimum; no iterative solver is involved.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = a.shape[0]
    d = b - a

    # fast path: clip the segment against the box slabs
    t0, t1 = 0.0, 1.0
    hit = True
    for i in range(n):
        di = d[i]
        if abs(di) <= 1e-14:
            if a[i] < lo[i] - 1e-12 or a[i] > hi[i] + 1e-12:
                hit = False
                break
        else:
            s0 = (lo[i] - a[i]) / di
            s1 = (hi[i] - a[i]) / di
            if s0 > s1:
                s0, s1 = s1, s0
            if s0 > t0:
                t0 = s0
            if s1 < t1:
                t1 = s1
            if t0 > t1 + 1e-12:
                hit = False
                break
    if hit and t0 <= t1 + 1e-12:
        if t1 < t0:
            t0 = t1 = 0.5 * (t0 + t1)
        dd = float(d @ d)
        if dd <= 0.0:
            tt = t0
        else:
            tt = min(max(-float(a @ d) / dd, t0), t1)
        x = np.clip(a + tt * d, lo, hi)
        return float(np.linalg.norm(d)), x

    if np.linalg.norm(d) <= 1e-13:
        x = np.clip(a, lo, hi)
        return _path_value(a, b, x), x

    # The minimiser lies in the relative interior of exactly one face, and
    # by convexity it also minimises over that face's affine hull.  On a
    # hull at distances P from a and Q from b, unfolding the two segments
    # into a plane puts the hull minimiser at (Q a + P b) / (P + Q), with
    # value hypot(P + Q, |a - b| along the hull).  Faces are visited by
    # decreasing dimension, so a candidate beats its own subfaces on ties.
    al, bl, lol, hil = a.tolist(), b.tolist(), lo.tolist(), hi.tolist()
    freed = [i for i in range(n) if hil[i] - lol[i] > 1e-12]
    base = [0.5 * (lol[i] + hil[i]) for i in range(n)]  # lo == hi when pinned
    best_val, best_x = math.inf, None
    for face in _box_faces(len(freed)):
        x = base[:]
        free = []
        for i, side in zip(freed, face):
            if side < 0:
                x[i] = lol[i]
            elif side > 0:
                x[i] = hil[i]
            else:
                free.append(i)
        ca = cb = 0.0
        for i in range(n):
            if i not in free:
                da = al[i] - x[i]
                db = bl[i] - x[i]
                ca += da * da
                cb += db * db
        P = math.sqrt(ca)
        Q = math.sqrt(cb)
        if free:
            if P + Q <= 0.0:
                continue  # the segment lies in the hull and misses the face
            span = 0.0
            for i in free:
                t = (al[i] * Q + bl[i] * P) / (P + Q)
                if t < lol[i] - 1e-12 or t > hil[i] + 1e-12:
                    break
                x[i] = min(max(t, lol[i]), hil[i])
                span += (bl[i] - al[i]) * (bl[i] - al[i])
            else:
                val = math.hypot(P + Q, math.sqrt(span))
                if val < best_val:
                    best_val, best_x = val, x
        elif P + Q < best_val:
            best_val, best_x = P + Q, x
    x = np.array(best_x)
    return _path_value(a, b, x), x


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


@dataclass(frozen=True)
class Singleton:
    """A one-point set ``{scale * g}`` with ``|g| <= 1``."""

    g: tuple
    scale: float = 1.0

    def __post_init__(self):
        if math.hypot(*self.g) > 1.0 + 1e-7:
            raise ValueError("singleton derivative model must lie in the unit ball")

    def support(self, d) -> float:
        return self.scale * sum(gi * di for gi, di in zip(self.g, d))

    def support_point(self, d) -> np.ndarray:
        return self.scale * np.asarray(self.g, dtype=float)

    def anchor_point(self) -> np.ndarray:
        return self.scale * np.asarray(self.g, dtype=float)

    def scaled(self, c: float) -> "Singleton":
        return Singleton(self.g, self.scale * c)

    def simplify(self):
        return self


@dataclass(frozen=True)
class ConeBall:
    """The set ``scale * ((N - u) ∩ B(0,1))`` for a sign cone ``N``, ``|u| = 1``.

    Support maximisation is exact: enumerate which sign-constrained
    coordinates of ``n`` are pinned to zero, solve the remaining ball
    restriction in closed form, and keep the best sign-feasible candidate.
    """

    u: tuple
    cone: SignCone
    scale: float = 1.0

    def __post_init__(self):
        nu = np.linalg.norm(self.u)
        if abs(nu - 1.0) > 1e-7:
            raise ValueError("cone-ball offset must be a unit vector")

    def _argmax_shift(self, d: np.ndarray) -> np.ndarray:
        """Maximise ``<d, n>`` over ``n in N`` with ``|n - u| <= 1``."""
        u = np.asarray(self.u, dtype=float)
        signs = self.cone.signs
        n_dim = len(signs)
        pinned = [i for i in range(n_dim) if signs[i] == ZERO]
        signed = [i for i in range(n_dim) if signs[i] in (NONNEG, NONPOS)]
        best_val = 0.0
        best_n = np.zeros(n_dim)  # n = 0 is always feasible: |0 - u| = 1
        for mask in range(1 << len(signed)):
            zeroed = list(pinned)
            live = []
            for k, i in enumerate(signed):
                if mask >> k & 1:
                    zeroed.append(i)
                else:
                    live.append(i)
            live += [i for i in range(n_dim) if signs[i] == FREE]
            rad2 = 1.0 - sum(u[i] * u[i] for i in zeroed)
            if rad2 < -1e-12:
                continue
            rad = math.sqrt(max(rad2, 0.0))
            dl = np.array([d[i] for i in live])
            nd = float(np.linalg.norm(dl))
            if nd <= 1e-15:
                continue
            cand = np.zeros(n_dim)
            ok = True
            val = 0.0
            for k, i in enumerate(live):
                ni = u[i] + rad * dl[k] / nd
                if signs[i] == NONNEG and ni < -1e-12:
                    ok = False
                    break
                if signs[i] == NONPOS and ni > 1e-12:
                    ok = False
                    break
                cand[i] = ni
                val += d[i] * ni
            if ok and val > best_val + 1e-15:
                best_val = val
                best_n = cand
        return best_n

    def support_point(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        n = self._argmax_shift(d)
        return self.scale * (n - np.asarray(self.u, dtype=float))

    def support(self, d) -> float:
        d = np.asarray(d, dtype=float)
        return float(np.dot(d, self.support_point(d)))

    def anchor_point(self) -> np.ndarray:
        return -self.scale * np.asarray(self.u, dtype=float)

    def scaled(self, c: float) -> "ConeBall":
        return ConeBall(self.u, self.cone, self.scale * c)

    def simplify(self):
        """Collapse to a :class:`Singleton` when the set has zero diameter."""
        n_dim = len(self.u)
        pts = []
        for i in range(n_dim):
            e = np.zeros(n_dim)
            e[i] = 1.0
            pts.append(self.support_point(e))
            pts.append(self.support_point(-e))
        pts = np.array(pts)
        diam = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diam = max(diam, float(np.linalg.norm(pts[i] - pts[j])))
        if diam <= 1e-9:
            centre = pts.mean(axis=0) / max(self.scale, 1e-300)
            return Singleton(tuple(centre), self.scale)
        return self


# ---------------------------------------------------------------------------
# distance from a hull / Minkowski sum to a sign cone


@dataclass(frozen=True)
class ProductSet:
    """A product of convex model sets, one per equally-sized block.

    Supports the same atom interface as its factors; the support point of a
    stacked direction is the stack of blockwise support points.
    """

    blocks: tuple
    block_dim: int

    def support_point(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        n = self.block_dim
        return np.concatenate([
            blk.support_point(d[i * n:(i + 1) * n]) for i, blk in enumerate(self.blocks)
        ])

    def support(self, d) -> float:
        d = np.asarray(d, dtype=float)
        return float(np.dot(d, self.support_point(d)))

    def anchor_point(self) -> np.ndarray:
        return np.concatenate([blk.anchor_point() for blk in self.blocks])

    def scaled(self, c: float) -> "ProductSet":
        return ProductSet(tuple(b.scaled(c) for b in self.blocks), self.block_dim)

    def simplify(self):
        return self


@dataclass(frozen=True)
class FeasibilityResult:
    residual: float       # distance achieved
    point: np.ndarray     # optimal point of the search set
    cone_point: np.ndarray  # its projection onto the target cone
    weights: np.ndarray   # convex weights over the sets
    status: str           # "zero" | "positive" | "stalled"
    iterations: int
    gap: float
    history: tuple        # squared residual after each outer iteration


def feasibility_min_norm(sets, target: SignCone, weights=None,
                         tol: float = 1e-8, max_iter: int = 100000) -> FeasibilityResult:
    """Distance between a set built from ``sets`` and the cone ``target``.

    With ``weights=None`` the search set is ``conv(union of the sets)`` and
    the convex weights are free; with a fixed weight vector it is the
    Minkowski sum of the scaled sets.  Uses fully corrective Frank-Wolfe:
    each outer round adds the support atom of the current gradient and then
    re-solves exactly over the collected atoms (alternating Wolfe min-norm
    against the cone projection).  The squared residual is nonincreasing.

    Free weights over points (all sets :class:`Singleton`) and a subspace
    target (only ``free`` and ``zero`` signs) are solved exactly by one
    Wolfe call instead, reporting zero Frank-Wolfe iterations.
    """
    m = len(sets)
    if m == 0:
        raise ValueError("need at least one set")
    fixed = weights is not None
    if fixed:
        wv = np.asarray(weights, dtype=float)
        if wv.shape != (m,) or wv.min() < -1e-12:
            raise ValueError("weights must be a nonnegative vector, one per set")
    elif (all(isinstance(s, Singleton) for s in sets)
          and all(s in (FREE, ZERO) for s in target.signs)):
        return _subspace_min_norm(sets, target, tol)
    n_dim = target.dim

    def lmo(direction):
        """Minimise <direction, x> over the search set.

        Returns the point and, with free weights, the index of its set.
        """
        if fixed:
            total = np.zeros(n_dim)
            for k in range(m):
                if wv[k] > 1e-15:
                    total = total + wv[k] * sets[k].support_point(-direction)
            return total, None
        best = None
        for k in range(m):
            p = sets[k].support_point(-direction)
            val = float(np.dot(direction, p))
            if best is None or val < best[0] - 1e-15:
                best = (val, p, k)
        _, p, k = best
        return p, k

    # initial atom: canonical points
    if fixed:
        parts0 = tuple(wv[k] * sets[k].anchor_point() for k in range(m))
        z = np.sum(parts0, axis=0) if m > 1 else np.array(parts0[0])
        atoms = [(np.asarray(z, dtype=float), None)]
    else:
        atoms = [(np.asarray(sets[0].anchor_point(), dtype=float), 0)]
    z = atoms[0][0].copy()
    lam = np.ones(1)

    history = []
    gap = math.inf
    status = "stalled"
    it = 0
    stall = 0
    f_last = math.inf
    while it < max_iter:
        it += 1
        mpt = target.project(z)
        g = z - mpt
        f = float(g @ g)
        history.append(f)
        if f <= max(1e-22, 0.25 * tol * tol):
            gap = 0.0
            break
        # rounds that no longer move the squared residual cannot help
        if f_last - f <= 1e-15 * max(f, 1e-12):
            stall += 1
            if stall >= 10:
                mpt = target.project(z)
                g = z - mpt
                gap = 2.0 * float(g @ (z - lmo(g)[0]))
                break
        else:
            stall = 0
        f_last = f
        s, source = lmo(g)
        gap = 2.0 * float(g @ (z - s))
        if gap <= max(1e-18, 1e-13 * f):
            break
        atoms.append((np.asarray(s, dtype=float), source))
        pts = np.array([p for p, _ in atoms])
        f_prev = f
        lam = None
        for _ in range(80):
            mpt = target.project(z)
            res = min_norm_point(pts, anchor=mpt, tol=1e-14)
            z = res.point
            lam = res.weights
            mpt = target.project(z)
            f_new = float((z - mpt) @ (z - mpt))
            if f_prev - f_new <= 1e-19 * max(1.0, f_new):
                f_prev = f_new
                break
            f_prev = f_new
        keep = lam > 1e-14
        atoms = [a for a, k in zip(atoms, keep) if k]
        lam = lam[keep]
        if lam.sum() > 0:
            lam = lam / lam.sum()
        if not atoms:  # defensive; cannot normally happen
            atoms = [(z.copy(), source)]
            lam = np.ones(1)

    mpt = target.project(z)
    g = z - mpt
    f = float(g @ g)
    residual = math.sqrt(max(f, 0.0))

    # free weights: each atom's weight goes to the set it came from
    if fixed:
        v_out = wv.copy()
    else:
        v_out = np.zeros(m)
        for (_, k), li in zip(atoms, lam):
            v_out[k] += li

    if residual <= tol:
        status = "zero"
    elif f - gap > tol * tol:
        status = "positive"
    else:
        status = "stalled"
    return FeasibilityResult(
        residual=residual,
        point=z,
        cone_point=mpt,
        weights=v_out,
        status=status,
        iterations=it,
        gap=gap,
        history=tuple(history),
    )


def _subspace_min_norm(sets, target: SignCone, tol: float) -> FeasibilityResult:
    """Distance from the hull of singleton points to a subspace, exactly.

    The distance from a point to the subspace is the norm of its part in
    the pinned (``zero``) coordinates, and that part is linear in the
    point, so the nearest hull point is a min-norm point of the projected
    hull.
    """
    P = np.array([[s.scale * gi for gi in s.g] for s in sets])
    pinned = np.array([s == ZERO for s in target.signs])
    res = min_norm_point(P * pinned)
    z = res.weights @ P
    off = z * pinned
    residual = math.sqrt(float(off @ off))
    return FeasibilityResult(
        residual=residual,
        point=z,
        cone_point=z - off,
        weights=res.weights,
        status="zero" if residual <= tol else "positive",
        iterations=0,
        gap=res.gap,
        history=(),
    )


# ---------------------------------------------------------------------------
# one weight vector feasible for several conic problems at once


def shared_certificate_weights(problems, tol: float = 1e-8, max_iter: int = 20000):
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
    for sets, _ in problems:
        if len(sets) != m:
            raise ValueError("all problems must share the same number of sets")
    n = problems[0][1].dim

    stacked = [
        ProductSet(tuple(sets[k] for sets, _ in problems), n) for k in range(m)
    ]
    signs = []
    for _, M in problems:
        signs.extend(M.signs)
    target = SignCone(tuple(signs))

    r = feasibility_min_norm(stacked, target, tol=tol, max_iter=max_iter)
    res = []
    for j, (_, M) in enumerate(problems):
        zc = r.point[j * n:(j + 1) * n]
        res.append(float(np.linalg.norm(zc - M.project(zc))))
    if max(res) > tol:
        raise ConvergenceError(
            "no shared weight vector reached tolerance "
            f"{tol:g}; per-problem residuals {res}"
        )
    v = np.clip(r.weights, 0.0, None)
    s = v.sum()
    v = v / s if s > 0 else np.full(m, 1.0 / m)
    return v, res
