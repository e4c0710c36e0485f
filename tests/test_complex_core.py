"""Cell lattice construction, point location, cones and validation."""

import itertools

import numpy as np
import pytest

from meanset import (
    ComplexError,
    CubeCell,
    CubicalComplex,
    LocationError,
    complex_from_dict,
    load_bundled,
)
from meanset.convex import FREE, NONNEG, NONPOS, ZERO


def _square_grid(bases):
    return complex_from_dict({
        "ambient_dim": 2,
        "cells": [{"base": list(b), "axes": [0, 1]} for b in bases],
    })


def test_face_lattice_is_generated_and_sorted():
    cx = _square_grid([(0, 0)])
    # one square: 4 vertices + 4 edges + the square itself
    assert len(cx.cells) == 9
    idents = [c.ident for c in cx.cells]
    assert idents == sorted(idents)
    keys = [(c.base, c.axes) for c in cx.cells]
    assert keys == sorted(keys)


def test_cell_lookup_and_bounds():
    cx, _ = load_bundled("squares3")
    cell = cx.cell(cx.maximal_ids[0])
    lo, hi = cell.bounds()
    assert np.allclose(hi - lo, 1.0)
    with pytest.raises(KeyError):
        cx.cell("c999")


def test_locate_interior_boundary_vertex():
    cx, _ = load_bundled("squares3")
    inner = cx.locate((0.5, -0.5))
    assert len(inner.containing) == 1
    assert inner.minimal_cell in cx.maximal_ids

    edge = cx.locate((0.5, 0.0))
    edge_cell = cx.cell(edge.minimal_cell)
    assert edge_cell.dim == 1

    vert = cx.locate((0.0, 0.0))
    assert cx.cell(vert.minimal_cell).dim == 0
    assert set(cx.maximal_cells_containing((0.0, 0.0))) == set(cx.maximal_ids)


def test_locate_snaps_float_noise():
    cx, _ = load_bundled("squares3")
    loc = cx.locate((1e-12, -1e-13))
    assert loc.coords == (0.0, 0.0)


def test_locate_rejects_outside_points_and_bad_dim():
    cx, _ = load_bundled("squares3")
    with pytest.raises(LocationError):
        cx.locate((5.0, 5.0))
    with pytest.raises(LocationError):
        cx.locate((0.5, 0.5))   # hole: no cell covers the open first quadrant
    with pytest.raises(LocationError):
        cx.locate((0.5, 0.5, 0.5))


def test_tangent_cone_signs():
    cx, _ = load_bundled("squares3")
    # square [0,1] x [-1,0] seen from its corner at the origin
    sq = next(c for c in cx.cells if c.base == (0, -1) and len(c.axes) == 2)
    tc = cx.tangent_cone(sq.ident, (0.0, 0.0))
    assert tc.signs == (NONNEG, NONPOS)
    tc = cx.tangent_cone(sq.ident, (0.5, -0.5))
    assert tc.signs == (FREE, FREE)
    tc = cx.tangent_cone(sq.ident, (0.5, 0.0))
    assert tc.signs == (FREE, NONPOS)
    with pytest.raises(LocationError):
        cx.tangent_cone(sq.ident, (0.5, 0.5))


def test_normal_cone_is_polar():
    cx, _ = load_bundled("squares3")
    sq = next(c for c in cx.cells if c.base == (0, -1) and len(c.axes) == 2)
    nc = cx.normal_cone(sq.ident, (0.0, 0.0))
    assert nc.signs == (NONPOS, NONNEG)
    # polar pairing: <t, n> <= 0 for sampled members
    rng = np.random.default_rng(2)
    tc = cx.tangent_cone(sq.ident, (0.0, 0.0))
    for _ in range(100):
        t = tc.project(rng.normal(size=2))
        n = nc.project(rng.normal(size=2))
        assert float(t @ n) <= 1e-12


def test_face_between():
    cx, _ = load_bundled("squares3")
    left = next(c.ident for c in cx.cells if c.base == (-1, -1) and len(c.axes) == 2)
    right = next(c.ident for c in cx.cells if c.base == (0, -1) and len(c.axes) == 2)
    top = next(c.ident for c in cx.cells if c.base == (-1, 0) and len(c.axes) == 2)
    shared = cx.face_between(left, right)
    assert shared.dim == 1 and shared.base == (0, -1) and shared.axes == (1,)
    # opposite corner squares meet only at the origin vertex
    corner = cx.face_between(right, top)
    assert corner.dim == 0 and corner.base == (0, 0)


def test_face_between_disjoint_is_none():
    cx = _square_grid([(0, 0), (2, 0)])
    a = next(c.ident for c in cx.cells if c.base == (0, 0) and len(c.axes) == 2)
    b = next(c.ident for c in cx.cells if c.base == (2, 0) and len(c.axes) == 2)
    assert cx.face_between(a, b) is None


def test_validate_accepts_all_bundled(bundles):
    for name, (cx, _) in bundles.items():
        rep = cx.validate()
        assert rep.ok, name
        assert rep.link_violations == (), name


def test_validate_flags_missing_cube_corner():
    # three squares of a cube corner without the solid cube: link of the
    # shared vertex contains an empty triangle
    cx = complex_from_dict({
        "ambient_dim": 3,
        "cells": [
            {"base": [0, 0, 0], "axes": [0, 1]},
            {"base": [0, 0, 0], "axes": [0, 2]},
            {"base": [0, 0, 0], "axes": [1, 2]},
        ],
    })
    rep = cx.validate()
    assert rep.link_violations != ()


def test_complex_from_dict_rejects_malformed():
    with pytest.raises(ComplexError):
        complex_from_dict([1, 2, 3])
    with pytest.raises(ComplexError):
        complex_from_dict({"cells": []})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2, "cells": [{"base": [0], "axes": [0]}]})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2,
                           "cells": [{"base": [0, 0], "axes": [0, 0]}]})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2,
                           "cells": [{"base": [0, 0], "axes": [2]}]})


def test_duplicate_maximal_cells_rejected():
    with pytest.raises(ComplexError):
        complex_from_dict({
            "ambient_dim": 2,
            "cells": [
                {"base": [0, 0], "axes": [0, 1]},
                {"base": [0, 0], "axes": [0, 1]},
            ],
        })


def test_vertex_graph_modes():
    cx, _ = load_bundled("tripod")
    chords = cx.vertex_distances()
    k, l = chords["index"][(1, 0)], chords["index"][(-1, 0)]
    assert chords["dist"][k, l] == pytest.approx(2.0)


def _reference_meet(a, b):
    """Per-axis integer intervals of the intersection of two cells, or None."""
    lo, hi = [], []
    for i in range(len(a.base)):
        low = max(a.base[i], b.base[i])
        high = min(a.base[i] + (i in a.axes), b.base[i] + (i in b.axes))
        if low > high:
            return None
        lo.append(low)
        hi.append(high)
    return lo, hi


def _reference_is_face(lo, hi, cell):
    """Each axis interval is the cell's own or a single endpoint of it."""
    for i, b in enumerate(cell.base):
        own = (b, b + (i in cell.axes))
        if (lo[i], hi[i]) != own and not (lo[i] == hi[i] and lo[i] in own):
            return False
    return True


def _random_unit_complex(rng):
    n = int(rng.integers(2, 4))
    cells = {}
    for _ in range(int(rng.integers(2, 9))):
        base = tuple(int(b) for b in rng.integers(-2, 3, size=n))
        axes = tuple(sorted(int(a) for a in rng.choice(n, size=int(rng.integers(0, n + 1)),
                                                       replace=False)))
        cells[base, axes] = CubeCell(base, axes)
    return CubicalComplex(n, list(cells.values()))


def test_lattice_cells_meet_in_common_faces(bundles):
    """Two cells of a complex of lattice unit cubes always meet in a cell
    that is a face of both, which is why validate() checks only links."""
    rng = np.random.default_rng(8)
    complexes = [cx for cx, _ in bundles.values()]
    while len(complexes) < len(bundles) + 100:
        try:
            complexes.append(_random_unit_complex(rng))
        except ComplexError:  # a drawn cell is a face of another
            continue
    meetings = 0
    for cx in complexes:
        keys = {(c.base, c.axes) for c in cx.cells}
        for a, b in itertools.combinations(cx.cells, 2):
            meet = _reference_meet(a, b)
            if meet is None:
                continue
            lo, hi = meet
            assert _reference_is_face(lo, hi, a) and _reference_is_face(lo, hi, b), (a, b)
            axes = tuple(i for i in range(len(lo)) if hi[i] > lo[i])
            assert (tuple(lo), axes) in keys, (a, b)
            meetings += 1
    assert meetings > 10000


def test_direct_construction_requires_cube_cells():
    cells = [CubeCell((0, 0), (0,))]
    cx = CubicalComplex(2, cells)
    assert len(cx.maximal_ids) == 1
