"""Cubical complexes: unit cubes on the integer lattice glued along faces.

A complex is described by its maximal cells only; the full face lattice is
derived at construction.  Cells are axis-aligned unit cubes ``base + [0,1]^axes``
with integer base vertices, so all face computations are exact integer
arithmetic.  Two lattice unit cubes always meet in a common face of both,
so curvature enters only through :meth:`CubicalComplex.validate`, which
checks the flag condition on vertex links; simple connectivity is reported
as assumed, not checked.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .convex import FREE, NONNEG, NONPOS, ZERO, SignCone

__all__ = [
    "CubeCell",
    "CubicalComplex",
    "LocatedPoint",
    "ValidationReport",
    "ComplexError",
    "LocationError",
    "load_complex",
    "complex_from_dict",
]


class ComplexError(ValueError):
    """Malformed or inconsistent complex description."""


class LocationError(ValueError):
    """A queried point does not belong to the complex."""


@dataclass(frozen=True)
class CubeCell:
    """A unit cube ``{x : base_i <= x_i <= base_i + [i in axes]}``."""

    base: tuple
    axes: tuple
    ident: str = ""

    @property
    def dim(self) -> int:
        return len(self.axes)

    def bounds(self):
        lo = np.array(self.base, dtype=float)
        hi = lo.copy()
        for ax in self.axes:
            hi[ax] += 1.0
        return lo, hi

    def contains(self, point, tol: float = 1e-9) -> bool:
        for i, b in enumerate(self.base):
            x = point[i]
            top = b + (1 if i in self.axes else 0)
            if x < b - tol or x > top + tol:
                return False
        return True

    def vertices(self):
        out = []
        for bits in itertools.product((0, 1), repeat=len(self.axes)):
            v = list(self.base)
            for ax, bit in zip(self.axes, bits):
                v[ax] += bit
            out.append(tuple(v))
        return out

    def faces(self):
        """All faces (including the cell itself) as ``(base, axes)`` pairs."""
        out = []
        k = len(self.axes)
        for keep_mask in range(1 << k):
            kept = tuple(self.axes[i] for i in range(k) if keep_mask >> i & 1)
            dropped = [self.axes[i] for i in range(k) if not keep_mask >> i & 1]
            for bits in itertools.product((0, 1), repeat=len(dropped)):
                base = list(self.base)
                for ax, bit in zip(dropped, bits):
                    base[ax] += bit
                out.append((tuple(base), kept))
        return out


@dataclass(frozen=True)
class LocatedPoint:
    """A point snapped onto the complex plus its containment data."""

    coords: tuple
    containing: tuple      # ids of every lattice cell containing the point
    minimal_cell: str      # id of the unique smallest such cell


@dataclass(frozen=True)
class ValidationReport:
    link_violations: tuple
    simple_connectivity: str = "assumed"

    @property
    def ok(self) -> bool:
        return not self.link_violations

    def to_dict(self):
        return {
            "ok": self.ok,
            "link_violations": [
                {"vertex": list(v), "directions": [list(d) for d in dirs]}
                for v, dirs in self.link_violations
            ],
            "simple_connectivity": self.simple_connectivity,
        }


def _box_of(cell: CubeCell):
    lo = list(cell.base)
    hi = list(cell.base)
    for ax in cell.axes:
        hi[ax] += 1
    return lo, hi


def _intersect_boxes(cell_a: CubeCell, cell_b: CubeCell):
    """Exact integer intersection of two unit boxes; None when empty."""
    lo_a, hi_a = _box_of(cell_a)
    lo_b, hi_b = _box_of(cell_b)
    lo = [max(x, y) for x, y in zip(lo_a, lo_b)]
    hi = [min(x, y) for x, y in zip(hi_a, hi_b)]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    axes = tuple(i for i, (l, h) in enumerate(zip(lo, hi)) if h > l)
    return tuple(lo), axes


def _is_face_of(base, axes, cell: CubeCell) -> bool:
    """Is the box ``(base, axes)`` a face of ``cell``?"""
    for i, b in enumerate(cell.base):
        lo_c, hi_c = b, b + (1 if i in cell.axes else 0)
        lo_f = base[i]
        hi_f = base[i] + (1 if i in axes else 0)
        if i in axes:
            if i not in cell.axes or lo_f != lo_c:
                return False
        else:
            if lo_f != hi_f or lo_f < lo_c or lo_f > hi_c:
                return False
    return True


class CubicalComplex:
    """An immutable cubical complex with a precomputed face lattice.

    Construct via :func:`load_complex` / :func:`complex_from_dict`.  Cell
    identifiers are assigned deterministically by sorting every lattice
    cell by ``(base, axes)``.
    """

    def __init__(self, ambient_dim: int, maximal: list):
        self.ambient_dim = ambient_dim
        seen = set()
        for cell in maximal:
            key = (cell.base, cell.axes)
            if key in seen:
                raise ComplexError(f"duplicate maximal cell base={cell.base} axes={cell.axes}")
            seen.add(key)
        for cell_a in maximal:
            for cell_b in maximal:
                if cell_a is cell_b:
                    continue
                if _is_face_of(cell_a.base, cell_a.axes, cell_b):
                    raise ComplexError(
                        f"cell base={cell_a.base} axes={cell_a.axes} is a face of "
                        f"another maximal cell and cannot itself be maximal"
                    )
        lattice = {}
        for cell in maximal:
            for base, axes in cell.faces():
                lattice.setdefault((base, axes), None)
        ordered = sorted(lattice.keys())
        self.cells = []
        self._index = {}
        for k, (base, axes) in enumerate(ordered):
            ident = f"c{k:03d}"
            cc = CubeCell(base, axes, ident)
            self.cells.append(cc)
            self._index[(base, axes)] = ident
        self._by_id = {c.ident: c for c in self.cells}
        maximal_keys = {(c.base, c.axes) for c in maximal}
        self.maximal_ids = tuple(
            c.ident for c in self.cells if (c.base, c.axes) in maximal_keys
        )
        self._bounds = {c.ident: c.bounds() for c in self.cells}
        self._geo_cache = {}
        self._vertex_paths = None
        # adjacency over maximal cells (shared face of any dimension)
        adj = {i: [] for i in self.maximal_ids}
        for i, j in itertools.combinations(self.maximal_ids, 2):
            f = self.face_between(i, j)
            if f is not None:
                adj[i].append((j, f.ident))
                adj[j].append((i, f.ident))
        self.adjacency = {k: tuple(sorted(v)) for k, v in adj.items()}

    # -- basic lookups ----------------------------------------------------

    def cell(self, ident: str) -> CubeCell:
        return self._by_id[ident]

    def bounds(self, ident: str):
        return self._bounds[ident]

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        link_bad = []
        vertices = sorted({v for c in self.cells for v in c.vertices()})
        cube_keys = {(c.base, c.axes) for c in self.cells}

        def block_at(vertex, directions):
            """The cube spanned at ``vertex`` by signed directions, as a lattice key."""
            base = list(vertex)
            axes = []
            for ax, sign in directions:
                axes.append(ax)
                if sign < 0:
                    base[ax] -= 1
            return (tuple(base), tuple(sorted(axes)))

        for v in vertices:
            dirs = []
            for ax in range(self.ambient_dim):
                for sign in (1, -1):
                    if block_at(v, [(ax, sign)]) in cube_keys:
                        dirs.append((ax, sign))
            pair_ok = {}
            for d1, d2 in itertools.combinations(dirs, 2):
                if d1[0] == d2[0]:
                    continue
                pair_ok[(d1, d2)] = block_at(v, [d1, d2]) in cube_keys
            for r in range(3, len(dirs) + 1):
                for combo in itertools.combinations(dirs, r):
                    axes_used = [d[0] for d in combo]
                    if len(set(axes_used)) != r:
                        continue
                    all_pairs = all(
                        pair_ok.get((d1, d2), pair_ok.get((d2, d1), False))
                        for d1, d2 in itertools.combinations(combo, 2)
                    )
                    if all_pairs and block_at(v, list(combo)) not in cube_keys:
                        link_bad.append((v, combo))
        return ValidationReport(tuple(link_bad))

    # -- point location ----------------------------------------------------

    def snap(self, point) -> tuple:
        out = []
        for x in point:
            r = round(x)
            out.append(float(r) if abs(x - r) <= 1e-9 else float(x))
        return tuple(out)

    def locate(self, point) -> LocatedPoint:
        if isinstance(point, LocatedPoint):
            return point
        p = self.snap(point)
        if len(p) != self.ambient_dim:
            raise LocationError(
                f"point has dimension {len(p)}, complex is {self.ambient_dim}-dimensional"
            )
        containing = []
        best = None
        for c in self.cells:
            lo, hi = self._bounds[c.ident]
            inside = True
            for i in range(self.ambient_dim):
                if p[i] < lo[i] or p[i] > hi[i]:
                    inside = False
                    break
            if inside:
                containing.append(c.ident)
                if best is None or c.dim < best.dim:
                    best = c
        if not containing:
            raise LocationError(f"point {list(p)} lies outside the complex")
        return LocatedPoint(p, tuple(containing), best.ident)

    def maximal_cells_containing(self, point) -> tuple:
        loc = self.locate(point)
        mset = set(self.maximal_ids)
        return tuple(i for i in loc.containing if i in mset)

    # -- cones ---------------------------------------------------------------

    def tangent_cone(self, cell_id: str, point) -> SignCone:
        cell = self._by_id[cell_id]
        p = self.snap(point)
        if not cell.contains(p):
            raise LocationError(f"point {list(p)} is not in cell {cell_id}")
        signs = []
        for i, b in enumerate(cell.base):
            if i not in cell.axes:
                signs.append(ZERO)
            elif p[i] <= b:
                signs.append(NONNEG)
            elif p[i] >= b + 1:
                signs.append(NONPOS)
            else:
                signs.append(FREE)
        return SignCone(tuple(signs))

    def normal_cone(self, cell_id: str, point) -> SignCone:
        return self.tangent_cone(cell_id, point).polar()

    # -- faces -----------------------------------------------------------------

    def face_between(self, id_a: str, id_b: str):
        """The unique common face of two cells, or None when disjoint."""
        inter = _intersect_boxes(self._by_id[id_a], self._by_id[id_b])
        if inter is None:
            return None
        ident = self._index.get(inter)
        if ident is None:
            # unreachable: lattice unit cubes always meet in a common face
            raise ComplexError(
                f"cells {id_a} and {id_b} overlap in a box that is not a common face"
            )
        return self._by_id[ident]

    # -- vertex graph --------------------------------------------------------

    def vertex_distances(self):
        """All-pairs shortest paths over the vertex graph (lazily cached).

        Every vertex pair inside a common maximal cell is joined by its
        straight distance.  The graph traces actual paths in the complex,
        so the induced point bounds are valid geodesic upper bounds.
        """
        if self._vertex_paths is not None:
            return self._vertex_paths
        verts = sorted({v for c in self.cells for v in c.vertices()})
        index = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)

        def relax(u, w, d):
            i, j = index[u], index[w]
            if d < dist[i, j]:
                dist[i, j] = dist[j, i] = d

        for ident in self.maximal_ids:
            vs = self._by_id[ident].vertices()
            for u, w in itertools.combinations(vs, 2):
                relax(u, w, float(np.linalg.norm(np.subtract(u, w))))

        # Floyd-Warshall; vertex counts here are tiny
        for k in range(n):
            dk = dist[k]
            dist = np.minimum(dist, dist[:, k][:, None] + dk[None, :])
        table = {"verts": verts, "index": index, "dist": dist}
        self._vertex_paths = table
        return table


def complex_from_dict(doc) -> CubicalComplex:
    if not isinstance(doc, dict):
        raise ComplexError("complex document must be a JSON object")
    try:
        n = doc["ambient_dim"]
        raw_cells = doc["cells"]
    except KeyError as exc:
        raise ComplexError(f"complex document missing key {exc}") from exc
    if not isinstance(n, int) or n < 1:
        raise ComplexError("ambient_dim must be a positive integer")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ComplexError("cells must be a nonempty list")
    maximal = []
    for k, rc in enumerate(raw_cells):
        try:
            base = rc["base"]
            axes = rc["axes"]
        except (TypeError, KeyError):
            raise ComplexError(f"cell #{k} must be an object with 'base' and 'axes'")
        if len(base) != n:
            raise ComplexError(f"cell #{k}: base has length {len(base)}, expected {n}")
        if any(not isinstance(b, int) for b in base):
            raise ComplexError(f"cell #{k}: base coordinates must be integers")
        if len(set(axes)) != len(axes):
            raise ComplexError(f"cell #{k}: axes must be distinct")
        for ax in axes:
            if not isinstance(ax, int) or ax < 0 or ax >= n:
                raise ComplexError(f"cell #{k}: axis index {ax} out of range for n={n}")
        maximal.append(CubeCell(tuple(base), tuple(sorted(axes))))
    return CubicalComplex(n, maximal)


def load_complex(path) -> CubicalComplex:
    """Load a complex from a JSON file of maximal cells."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return complex_from_dict(doc)
    except ComplexError as exc:
        raise ComplexError(f"{path}: {exc}") from exc
