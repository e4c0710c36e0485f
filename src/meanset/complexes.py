"""Cubical complexes: unit cubes on the integer lattice glued along faces.

A complex is described by its maximal cells only; the face lattice derived at
construction, each cell's faces listed as ``box_segment_min`` lists a box's, is
the one source of cell relations.  Its key index names each face, and one float
box per cell gives the tangent cones.  Two lattice unit cubes always meet in a
common face of both, so curvature enters only through
:meth:`CubicalComplex.validate`, which checks the flag condition on the links of
the lattice's vertices and tries to prove simple connectivity: by Gromov's link
condition the two together make the complex CAT(0).  The flag test grows the
cells at each vertex by one rule, :meth:`CubicalComplex._spans`, that geodesics use too.
The owner table maps each lattice cell to the maximal cells it is a face of.  It
gives the adjacency table: each maximal cell walks its own faces, largest first,
and meets each owner it has not seen yet in the face at hand, their largest
common face; from the table come the connected components.  The owner table
also answers which maximal cells hold a point: they depend only on its carrier,
the cell holding it in its relative interior, found by one O(n) key.  Points are
tuples of floats; only the ``bounds`` methods hand out numpy arrays, importing
numpy on their first call.  An unknown cell id raises :class:`ComplexError`.
"""

from __future__ import annotations

import functools
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
        try:
            if len(point) != len(self.base):
                raise ValueError(f"point has dimension {len(point)}, "
                                 f"the cell's base {len(self.base)}")
        except TypeError:   # no sized sequence
            raise ValueError(f"point must be a sequence of numbers, got {point!r}") from None
        for i, (b, x) in enumerate(zip(self.base, point)):
            if x < b - tol or x > b + (i in self.axes) + tol:
                return False
        return True

    def faces(self):
        """All faces (including the cell itself) as ``(base, axes)`` pairs, in the order of
        :func:`_box_faces`: largest first, a side left free, at its lower end, at its upper end."""
        out = []
        for up, kept in _face_steps(tuple(self.axes)):
            base = list(self.base)
            for ax in up:
                base[ax] += 1
            out.append((tuple(base), kept))
        return out


@functools.lru_cache(maxsize=256)
def _face_steps(axes: tuple) -> tuple:
    """For each face of a cube along ``axes``, the axes stepping its base up and those left free."""
    return tuple((tuple(ax for ax, side in zip(axes, sides) if side > 0),
                  tuple(ax for ax, side in zip(axes, sides) if side == 0))
                 for sides in _box_faces(len(axes)))


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
                                  defaults=("not proved",))):
    """The minimal violations of the flag condition, ``(vertex, directions)``, as
    :meth:`CubicalComplex._link_violations` orders them, and ``"proved"`` or ``"not
    proved"`` for simple connectivity."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.link_violations

    @property
    def cat0(self) -> bool:
        """Whether the complex is proved CAT(0): flag links and simply connected."""
        return self.ok and self.simple_connectivity == "proved"

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
        if not isinstance(maximal, (list, tuple)):
            raise ComplexError(f"maximal must be a list or tuple of CubeCells, got {maximal!r}")
        for k, cell in enumerate(maximal):
            if not isinstance(cell, CubeCell):
                raise ComplexError(f"cell #{k} must be a CubeCell, got {cell!r}")
            for b in cell.base:   # so that b and b + 1, a unit box's ends, are exact floats
                if b.__class__ is not int or not -2**53 <= b < 2**53:
                    # an integer past 4,096 bits is named by its size, not spelled out
                    got = (f"an integer of {b.bit_length():,} bits"
                           if b.__class__ is int and b.bit_length() > 4096 else repr(b))
                    raise ComplexError(f"cell #{k}: base coordinates must be integers in "
                                       f"[-2**53, 2**53 - 1], got {got}")
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
        self.cells = [CubeCell(*key, f"c{k:03d}") for k, key in enumerate(sorted(lattice))]
        self._index = {(c.base, c.axes): c.ident for c in self.cells}
        self._by_id = {c.ident: c for c in self.cells}
        self._owners = {self._index[k]: tuple(map(self._index.__getitem__, sorted(owners)))
                        for k, owners in lattice.items()}
        self.maximal_ids = tuple(c for c in self._by_id if self._owners[c] == (c,))
        # one float per distinct integer coordinate of the cells' bases (their boxes'
        # upper corners are bases of faces too), shared by every box and snapped point
        floats = self._floats = {b: float(b) for b in {b for c in self.cells for b in c.base}}
        # one (lo, hi) pair of float tuples per cell, never handed out
        self._boxes = {c.ident: (tuple(map(floats.__getitem__, c.base)),
                                 tuple(floats[b + (i in c.axes)] for i, b in enumerate(c.base)))
                       for c in self.cells}
        self._geo_cache = {}
        self._report = None   # validate()'s, made on its first call
        # (first cell, q) -> (v, the geodesic from the vertex v to q) of an earlier search,
        # tried by the next search between them before its heap (geodesics._search)
        self._pivots = {}
        # two maximal cells meet in their largest common face, so walking a cell's
        # faces largest first, the first face it shares with another owner is their meet
        rank = {c: k for k, c in enumerate(self._by_id)}   # id strings lose cell order past c999
        self.adjacency = {}
        for a in self.maximal_ids:
            meets = {}
            for key in self._by_id[a].faces():
                face = self._index[key]
                for b in self._owners[face]:
                    meets.setdefault(b, face)
            del meets[a]
            self.adjacency[a] = tuple(sorted(meets.items(), key=lambda bf: rank[bf[0]]))
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
        """The link violations and the simple-connectivity proof (see
        :meth:`_simply_connected`), made once per complex."""
        if self._report is None:
            self._report = ValidationReport(
                self._link_violations(), "proved" if self._simply_connected() else "not proved")
        return self._report

    def _spans(self, base, along, directions) -> bool:
        """Whether the cell ``(base, along)`` and the signed edge directions ``(axis, sign)``
        lie in one lattice cell: one key lookup, in which a direction whose sign is at most
        0, or ``False``, steps the base down, and a repeated axis matches no cell."""
        base, axes = list(base), list(along)
        for ax, sign in directions:
            axes.append(ax)
            if sign <= 0:
                base[ax] -= 1
        axes.sort()
        return (tuple(base), tuple(axes)) in self._index

    def _link_violations(self) -> tuple:
        """``(vertex, directions)`` of each minimal violation of the flag condition, an
        empty simplex of the flag completion of a vertex's link: three or more signed edge
        directions that span no cell while every set of one fewer does.  Ordered by vertex,
        then by size, then by directions, each by axis and then + before -.

        Each cell at a vertex, from its squares up, grows once by each later direction
        that spans a square with all of its own; the set spans a cell and grows on, or is
        reported when each of its facets is a cell.  A cell less its last direction is a
        cell, so every cell is reached: the work is cells at the vertex times its degree."""
        bad = []
        for v in [c.base for c in self.cells if not c.axes]:   # the 0-cells, sorted
            dirs = [(ax, sign) for ax in range(self.ambient_dim) for sign in (1, -1)
                    if self._spans(v, (), ((ax, sign),))]
            later = [{j for j in range(i + 1, len(dirs)) if self._spans(v, (), (d, dirs[j]))}
                     for i, d in enumerate(dirs)]   # the later directions making a square with d
            # the cells of one size, as indices into dirs, each with its later common neighbours
            level = {(i, j): later[i] & later[j] for i, js in enumerate(later) for j in sorted(js)}
            while level:
                grown = {}
                for cell, common in level.items():
                    for j in sorted(common):
                        new = cell + (j,)
                        if self._spans(v, (), [dirs[i] for i in new]):
                            grown[new] = common & later[j]
                        elif all(new[:m] + new[m + 1:] in level for m in range(len(cell))):
                            bad.append((v, tuple(dirs[i] for i in new)))
                level = grown
        return tuple(bad)

    def _simply_connected(self) -> bool:
        """Whether every connected component is proved simply connected.

        The loops of a cube complex are those of its 2-skeleton.  The edges
        of a spanning forest are null-homotopic; so is an edge of a square
        whose other three edges are.  When that rule, run to its fixed point,
        reaches every edge, every loop is.  The rule is a proof, not a
        decision: it reaches every edge of a simply connected planar complex,
        whose open edges are dual to a tree of its squares, but a complex it
        leaves short of that may still be simply connected.  A loop around a
        hole is never reached."""
        ends = {}   # vertex -> [(neighbour, edge id)]
        sides = {}   # square id -> its four edges
        on = {}   # edge -> the squares it is a side of
        for c in self.cells:
            if c.dim == 1:   # faces(): the edge, then its lower and its upper end
                _, (low, _), (top, _) = c.faces()
                ends.setdefault(low, []).append((top, c.ident))
                ends.setdefault(top, []).append((low, c.ident))
            elif c.dim == 2:   # faces(): the square, then its four edges
                sides[c.ident] = tuple(map(self._index.__getitem__, c.faces()[1:5]))
                for e in sides[c.ident]:
                    on.setdefault(e, []).append(c.ident)
        open_ = {e for links in ends.values() for _, e in links}   # not yet null-homotopic
        seen = set()
        for root in ends:   # a spanning forest, by depth-first search
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                for v, e in ends[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        open_.discard(e)
                        stack.append(v)
        todo = list(sides)
        while todo and open_:
            left = [e for e in sides[todo.pop()] if e in open_]
            if len(left) == 1:
                open_.discard(left[0])
                todo.extend(on[left[0]])
        return not open_

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

    def _snapped(self, point) -> tuple:
        """The coordinates of ``point`` on this complex, by one rule: a ``LocatedPoint``
        this complex made gives its ``coords``, any other point is snapped (a
        ``LocatedPoint`` from its ``coords``)."""
        if isinstance(point, LocatedPoint):
            return point.coords if point.cx is self else self.snap(point.coords)
        return self.snap(point)

    def locate(self, point) -> LocatedPoint:
        """The point at :meth:`_snapped`'s coordinates with its carrier (``minimal_cell``,
        by :meth:`_cells_at`); a ``LocatedPoint`` this complex made is its own location."""
        if isinstance(point, LocatedPoint) and point.cx is self:
            return point
        return self._locate_snapped(self._snapped(point))

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
        """The tangent cone of a cell at a point of it, read at :meth:`_snapped`'s
        coordinates.  A snapped point is in the cell's integer box exactly when
        it is within 1e-9 of it."""
        lo, hi = self._boxes[self.cell(cell_id).ident]
        p = self._snapped(point)
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
