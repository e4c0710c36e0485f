"""Cubical complexes: unit cubes on the integer lattice glued along faces.

A complex is described by its maximal cells only; the face lattice derived at
construction, each cell's faces listed as ``box_segment_min`` lists a box's, is
the one source of cell relations.  Its key index names each face, and one float
box per cell gives the tangent cones.  Two lattice unit cubes always meet in a
common face of both, so curvature enters only through
:meth:`CubicalComplex.validate`, which checks the flag condition on the links of
the lattice's vertices; simple connectivity is reported as assumed, not checked.
One pass over the lattice, largest faces first, gives the adjacency table: each
maximal cell's neighbours, each with the face the two meet in, which is where
any two maximal cells meet; from it come their connected components.  The owner
table maps each lattice cell to the maximal cells it is a face of, and answers
which maximal cells hold a point: they depend only on its carrier, the cell
holding it in its relative interior, found by one O(n) key.  Points are tuples
of floats; only the ``bounds`` methods hand out numpy arrays, importing numpy on
their first call.  An unknown cell id raises :class:`ComplexError`.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple

from .convex import FREE, NONNEG, NONPOS, ZERO, SignCone, _box_faces

# At most this many distinct faces: a built complex holds 1.64-1.90 KB per face (2-
# to 5-D grids, one 10- or 11-cube), so a refused document would need 1.0-1.1 GB.
_MAX_LATTICE_FACES = 600_000

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


class CubeCell(namedtuple("CubeCell", "base axes ident", defaults=("",))):
    """A unit cube ``{x : base_i <= x_i <= base_i + [i in axes]}`` named ``ident``."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.axes)

    def bounds(self):
        """Fresh ``(lo, hi)`` float arrays of the cube's box."""
        import numpy as np

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

    def faces(self):
        """All faces (including the cell itself) as ``(base, axes)`` pairs."""
        out = []
        for sides in _box_faces(len(self.axes)):
            base = list(self.base)
            kept = []
            for ax, side in zip(self.axes, sides):
                if side > 0:
                    base[ax] += 1
                elif side == 0:
                    kept.append(ax)
            out.append((tuple(base), tuple(kept)))
        return out


class LocatedPoint(namedtuple("LocatedPoint", "coords minimal_cell cx", defaults=(None,))):
    """A point snapped onto the complex ``cx`` that located it, with its carrier
    ``minimal_cell``, the id of the smallest lattice cell holding it.  ``cx``
    takes no part in ``repr``, ``==`` or ``hash``."""

    __slots__ = ()

    def __repr__(self):
        return f"LocatedPoint(coords={self.coords!r}, minimal_cell={self.minimal_cell!r})"

    def __eq__(self, other):
        return self[:2] == other[:2] if other.__class__ is LocatedPoint else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])


class ValidationReport(namedtuple("ValidationReport", "link_violations simple_connectivity",
                                  defaults=("assumed",))):
    __slots__ = ()

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


class CubicalComplex:
    """An immutable cubical complex with a precomputed face lattice.

    Construct via :func:`load_complex` / :func:`complex_from_dict`.  Cell
    identifiers are assigned deterministically by sorting every lattice
    cell by ``(base, axes)``.
    """

    def __init__(self, ambient_dim: int, maximal: list):
        self.ambient_dim = ambient_dim
        big = max(maximal, key=lambda c: c.dim, default=None)   # 3^dim faces of its own
        if big is not None and 3 ** big.dim > _MAX_LATTICE_FACES:   # refused before any is built
            raise ComplexError(f"the {big.dim}-cube base={big.base} axes={big.axes} has "
                               f"{3 ** big.dim:,} faces, over the limit of {_MAX_LATTICE_FACES:,}")
        lattice = {}   # every face -> the (base, axes) of the maximal cells it is a face of
        for cell in maximal:
            for key in cell.faces():
                lattice.setdefault(key, []).append((cell.base, cell.axes))
            if len(lattice) > _MAX_LATTICE_FACES:
                raise ComplexError(f"the face lattice reaches {len(lattice):,} faces at cell "
                                   f"base={cell.base} axes={cell.axes}, over the limit")
        for cell in maximal:
            key = (cell.base, cell.axes)
            owners = lattice[key]
            if owners.count(key) > 1:   # listed twice, so the cell owns itself twice
                raise ComplexError(f"duplicate maximal cell base={cell.base} axes={cell.axes}")
            if len(owners) > 1:
                base, axes = next(k for k in owners if k != key)
                raise ComplexError(
                    f"cell base={cell.base} axes={cell.axes} is a face of the maximal cell "
                    f"base={base} axes={axes} and cannot itself be maximal"
                )
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
        self._owners = {self._index[k]: tuple(map(self._index.__getitem__, sorted(owners)))
                        for k, owners in lattice.items()}
        # one float per distinct integer coordinate of the cells' bases (their boxes'
        # upper corners are bases of faces too), shared by every box and snapped point
        floats = self._floats = {b: float(b) for b in {b for c in self.cells for b in c.base}}
        # one (lo, hi) pair of float tuples per cell, never handed out
        self._boxes = {c.ident: (tuple(map(floats.__getitem__, c.base)),
                                 tuple(floats[b + (i in c.axes)] for i, b in enumerate(c.base)))
                       for c in self.cells}
        self._geo_cache = {}
        # two maximal cells meet in their largest common face, so visiting the
        # faces largest first, the first face two owners share is their meet
        meets = {key: {} for key in maximal_keys}
        for key in sorted(lattice, key=lambda k: -len(k[1])):
            for a, b in itertools.combinations(lattice[key], 2):
                if b not in meets[a]:
                    meets[a][b] = meets[b][a] = self._index[key]
        # sorted keys are in cell order, which id strings lose past c999
        self.adjacency = {
            self._index[a]: tuple((self._index[b], f) for b, f in sorted(meets[a].items()))
            for a in sorted(maximal_keys)
        }
        self._component = {}   # maximal cell id -> label of its connected component
        for root in self.maximal_ids:
            if root in self._component:
                continue
            self._component[root] = root
            stack = [root]
            while stack:
                for nbr, _ in self.adjacency[stack.pop()]:
                    if nbr not in self._component:
                        self._component[nbr] = root
                        stack.append(nbr)

    # -- basic lookups ----------------------------------------------------

    def cell(self, ident: str) -> CubeCell:
        try:
            return self._by_id[ident]
        except (KeyError, TypeError):   # TypeError: an unhashable id
            raise ComplexError(f"no cell {ident!r} in the complex") from None

    def bounds(self, ident: str):
        """Fresh ``(lo, hi)`` float arrays of the cell's box."""
        return self.cell(ident).bounds()

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        link_bad = []

        def spans(vertex, directions):
            """Whether the cube spanned at ``vertex`` by signed directions is a lattice cell."""
            base = list(vertex)
            for ax, sign in directions:
                if sign < 0:
                    base[ax] -= 1
            return (tuple(base), tuple(sorted(ax for ax, _ in directions))) in self._index

        for v in [c.base for c in self.cells if not c.axes]:   # the 0-cells, sorted
            dirs = [(ax, sign) for ax in range(self.ambient_dim) for sign in (1, -1)
                    if spans(v, [(ax, sign)])]
            # combinations keep the order of dirs, so every pair of a combo is a key here
            pair_ok = {pair: spans(v, pair) for pair in itertools.combinations(dirs, 2)
                       if pair[0][0] != pair[1][0]}
            for r in range(3, len(dirs) + 1):
                for combo in itertools.combinations(dirs, r):
                    if (len({ax for ax, _ in combo}) == r
                            and all(map(pair_ok.__getitem__, itertools.combinations(combo, 2)))
                            and not spans(v, combo)):
                        link_bad.append((v, combo))
        return ValidationReport(tuple(link_bad))

    # -- point location ----------------------------------------------------

    def snap(self, point) -> tuple:
        """``point`` as a tuple of floats, each coordinate within 1e-9 of an integer
        made that integer: the complex's own float of it when a cell's base has it."""
        floats = self._floats
        out = []
        try:
            for x in point:
                r = round(x)
                out.append(float(x) if abs(x - r) > 1e-9 else floats[r] if r in floats
                           else float(r))
        except (OverflowError, ValueError):   # an infinity or a NaN
            raise LocationError(f"point {list(point)} has a non-finite coordinate") from None
        except TypeError:
            raise LocationError(f"point {point!r} is not a sequence of real numbers") from None
        return tuple(out)

    def locate(self, point) -> LocatedPoint:
        """The snapped point and its carrier (``minimal_cell``, by :meth:`_cells_at`);
        a point located by another complex is located anew."""
        if isinstance(point, LocatedPoint):
            if point.cx is self:
                return point
            point = point.coords
        return self._locate_snapped(self.snap(point))

    def _locate_snapped(self, p) -> LocatedPoint:
        """:meth:`locate` of a point already snapped, a tuple of floats."""
        self._check_dimension(p)
        carrier = self._cells_at(p)[0]
        if carrier is None:
            raise LocationError(f"point {list(p)} lies outside the complex")
        return LocatedPoint(p, carrier, self)

    def _check_dimension(self, p):
        if len(p) != self.ambient_dim:
            raise LocationError(f"point has dimension {len(p)}, complex is "
                                f"{self.ambient_dim}-dimensional")

    def _cells_at(self, p):
        """``(carrier, its owners)`` of a snapped point ``p``, or ``(None, ())`` outside the
        complex: the carrier floors each coordinate and spans the non-integer ones, in O(n)."""
        base, axes = [], []
        for i, x in enumerate(p):
            k = math.floor(x)
            base.append(k)
            if x != k:
                axes.append(i)
        carrier = self._index.get((tuple(base), tuple(axes)))
        return carrier, self._owners.get(carrier, ())

    def maximal_cells_containing(self, point) -> tuple:
        return self._owners[self.locate(point).minimal_cell]

    # -- cones ---------------------------------------------------------------

    def tangent_cone(self, cell_id: str, point) -> SignCone:
        """The tangent cone of a cell at a point of it; a ``LocatedPoint`` is
        taken as already snapped.  A snapped point is in the cell's integer box
        exactly when it is within 1e-9 of it."""
        lo, hi = self._boxes[self.cell(cell_id).ident]
        p = point.coords if isinstance(point, LocatedPoint) else self.snap(point)
        self._check_dimension(p)
        signs = []
        for x, l, h in zip(p, lo, hi):
            if not l <= x <= h:
                raise LocationError(f"point {list(p)} is not in cell {cell_id}")
            signs.append(ZERO if l == h else NONNEG if x == l else NONPOS if x == h else FREE)
        return SignCone(tuple(signs))


def complex_from_dict(doc) -> CubicalComplex:
    if not isinstance(doc, dict):
        raise ComplexError("complex document must be a JSON object")
    try:
        n = doc["ambient_dim"]
        raw_cells = doc["cells"]
    except KeyError as exc:
        raise ComplexError(f"complex document missing key {exc}") from exc
    if n.__class__ is not int or n < 1:
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
        if not isinstance(base, (list, tuple)) or not isinstance(axes, (list, tuple)):
            raise ComplexError(f"cell #{k}: 'base' and 'axes' must be arrays")
        if len(base) != n:
            raise ComplexError(f"cell #{k}: base has length {len(base)}, expected {n}")
        for b in base:   # so that b and b + 1, a unit box's ends, are exact floats
            if b.__class__ is not int or not -2**53 <= b < 2**53:
                raise ComplexError(f"cell #{k}: base coordinates must be integers in "
                                   f"[-2**53, 2**53 - 1], got {b!r}")
        for ax in axes:
            if ax.__class__ is not int or ax < 0 or ax >= n:
                raise ComplexError(f"cell #{k}: axis index {ax} out of range for n={n}")
        if len(set(axes)) != len(axes):
            raise ComplexError(f"cell #{k}: axes must be distinct")
        maximal.append(CubeCell(tuple(base), tuple(sorted(axes))))
    return CubicalComplex(n, maximal)


def number_array(value):
    """A JSON ``value`` as a tuple of floats, or None unless it is an array of
    numbers: each item exactly an ``int`` or a ``float``, so ``true`` and
    ``false`` are none, nor is an integer too large for a float."""
    if isinstance(value, list) and all(v.__class__ in (int, float) for v in value):
        try:
            return tuple(map(float, value))
        except OverflowError:
            pass
    return None


def read_json(path):
    """The JSON document in the file ``path``; ``ComplexError`` placing a syntax error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_complex(path) -> CubicalComplex:
    """Load a complex from a JSON file of maximal cells."""
    doc = read_json(path)
    try:
        return complex_from_dict(doc)
    except ComplexError as exc:
        raise ComplexError(f"{path}: {exc}") from exc
