"""Cell lattice construction, point location, cones and validation."""

import itertools
import math
import signal
import time

import numpy as np
import pytest

from meanset import (
    ComplexError,
    CubeCell,
    CubicalComplex,
    LocatedPoint,
    LocationError,
    complex_from_dict,
    complexes,
    distance,
    geodesic,
    load_bundled,
    recognize,
)
from meanset.convex import FREE, NONNEG, NONPOS, ZERO
from meanset.corpus import BUNDLED
import generators
from oracles import cell_meet, cells_holding


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
    with pytest.raises(ComplexError, match="c999"):
        cx.cell("c999")


def test_locate_interior_boundary_vertex():
    cx, _ = load_bundled("squares3")
    inner = cx.locate((0.5, -0.5))
    assert len(cells_holding(cx, inner.coords)) == 1
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_locate_rejects_non_finite_points(bad):
    cx, _ = load_bundled("tripod")
    with pytest.raises(LocationError, match="non-finite"):
        cx.locate((bad, 0.0))
    with pytest.raises(LocationError, match="non-finite"):
        cx.tangent_cone(cx.maximal_ids[0], (bad, 0.0))


@pytest.mark.parametrize("call", [
    lambda cx, other, A: cx.locate("ab"),
    lambda cx, other, A: cx.locate(None),
    lambda cx, other, A: cx.locate(5),
    lambda cx, other, A: cx.locate((0.5, None)),
    lambda cx, other, A: distance(cx, (0.5, "x"), (0.5, 0.0)),
    lambda cx, other, A: recognize(A, (0.5, 1 + 0j)),
    lambda cx, other, A: geodesic(cx, other.locate((-1.5, 1.5)), (0.5, 0.0)),
], ids=["string", "none", "int", "none-coordinate", "distance", "recognize", "foreign"])
def test_malformed_points_raise_location_errors(call):
    """Points that are no sequence of reals, and a point located in another
    complex that is not in this one, raise a LocationError naming them."""
    cx, A = load_bundled("squares3")
    other, _ = load_bundled("quadrant_window")
    with pytest.raises(LocationError, match=r"point .*(real numbers|outside the complex)"):
        call(cx, other, A)


def test_a_point_of_another_complex_is_located_again():
    squares, _ = load_bundled("squares3")
    window, _ = load_bundled("quadrant_window")
    foreign = squares.locate((0.5, 0.0))
    loc = window.locate(foreign)
    assert loc.cx is window and loc == window.locate((0.5, 0.0))
    assert loc.minimal_cell != foreign.minimal_cell
    assert window.maximal_cells_containing(foreign) == window.maximal_cells_containing(loc)
    assert geodesic(window, foreign, (-1.5, -1.5)) == geodesic(window, (0.5, 0.0), (-1.5, -1.5))
    assert distance(window, foreign, (-1.5, -1.5)) == pytest.approx(2.5, abs=1e-12)


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
    tc = cx.tangent_cone(sq.ident, (0.0, 0.0))
    nc = tc.polar()
    assert nc.signs == (NONPOS, NONNEG)
    # polar pairing: <t, n> <= 0 for sampled members
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = tc.project(rng.normal(size=2))
        n = nc.project(rng.normal(size=2))
        assert float(np.asarray(t) @ np.asarray(n)) <= 1e-12


def test_cones_take_a_located_point():
    cx, _ = load_bundled("squares3")
    loc = cx.locate((0.0, 0.0))
    cells = cx.maximal_cells_containing(loc)
    assert len(cells) == 3
    for cid in cells:
        assert cx.tangent_cone(cid, loc) == cx.tangent_cone(cid, (0.0, 0.0))


@pytest.mark.parametrize("made", ["by-hand", "by-another-complex"])
def test_a_located_point_not_made_here_is_snapped(made):
    """A point becomes coordinates on a complex by one rule: a LocatedPoint
    the complex made gives its own, and any other point is snapped, a
    LocatedPoint made by hand or by another complex from its coords.  So its
    tangent cone and its geodesic are the raw point's, and the geodesic is
    cached under the snapped ends: a second call is a hit."""
    cx, _ = load_bundled("squares3")
    raw = (0.9999999999, -0.5)
    point = (LocatedPoint(raw, "c019") if made == "by-hand"
             else load_bundled("squares3")[0].locate(raw))
    assert cx.tangent_cone("c012", point) == cx.tangent_cone("c012", raw)
    assert cx.tangent_cone("c012", point).signs == (NONPOS, FREE)
    g = geodesic(cx, point, (-0.5, 0.5))
    assert g == geodesic(load_bundled("squares3")[0], raw, (-0.5, 0.5))
    assert list(cx._geo_cache) == [((-0.5, 0.5), (1.0, -0.5))]
    assert geodesic(cx, point, (-0.5, 0.5)) is g


def test_validate_accepts_all_bundled(bundles):
    for name, (cx, _) in bundles.items():
        rep = cx.validate()
        assert rep.ok, name
        assert rep.link_violations == (), name


def _squares(n, holes=()):
    """The n x n grid of unit squares less the squares whose bases are ``holes``."""
    return complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [i, j], "axes": [0, 1]} for i in range(n) for j in range(n)
        if (i, j) not in holes]})


def test_validate_proves_simple_connectivity():
    """Every bundled complex is proved simply connected and so CAT(0).  A
    grid with a hole, with two, or a cycle of four edges is not proved,
    while the surface of a unit cube is proved simply connected but fails
    the link condition: neither is proved CAT(0)."""
    for name in BUNDLED:
        rep = load_bundled(name)[0].validate()
        assert rep.simple_connectivity == "proved" and rep.cat0, name
    assert _squares(5).validate().cat0
    for cx in (_squares(3, {(1, 1)}), _squares(5, {(1, 1), (3, 3)}), complex_from_dict({
            "ambient_dim": 2, "cells": [{"base": [0, 0], "axes": [0]}, {"base": [0, 0], "axes": [1]},
                                        {"base": [1, 0], "axes": [1]}, {"base": [0, 1], "axes": [0]}]})):
        rep = cx.validate()
        assert rep.ok and rep.simple_connectivity == "not proved" and not rep.cat0
    faces = [([0, 0, 0], [0, 1]), ([0, 0, 0], [0, 2]), ([0, 0, 0], [1, 2]),
             ([0, 0, 1], [0, 1]), ([0, 1, 0], [0, 2]), ([1, 0, 0], [1, 2])]
    rep = complex_from_dict({"ambient_dim": 3, "cells": [
        {"base": b, "axes": a} for b, a in faces]}).validate()
    assert rep.simple_connectivity == "proved" and not rep.ok and not rep.cat0


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
    assert rep.link_violations == (((0, 0, 0), ((0, 1), (1, 1), (2, 1))),)


def _count_spans(monkeypatch):
    """A list whose one item counts the calls of ``CubicalComplex._spans`` from now on."""
    calls, spans = [0], CubicalComplex._spans

    def counted(self, *args):
        calls[0] += 1
        return spans(self, *args)

    monkeypatch.setattr(CubicalComplex, "_spans", counted)
    return calls


def _fan(k):
    """A square on every pair of k axes at the origin, and no cube."""
    return {"ambient_dim": k, "cells": [{"base": [0] * k, "axes": list(pair)}
                                        for pair in itertools.combinations(range(k), 2)]}


_SURFACE = {"ambient_dim": 3, "cells": [
    {"base": b, "axes": a} for b, a in [([0, 0, 0], [0, 1]), ([0, 0, 0], [0, 2]), ([0, 0, 0], [1, 2]),
                                        ([0, 0, 1], [0, 1]), ([0, 1, 0], [0, 2]), ([1, 0, 0], [1, 2])]]}


@pytest.mark.parametrize("doc, want, spans", [
    pytest.param({"ambient_dim": 3, "cells": [{"base": [0, 0, 0], "axes": a}
                                              for a in ([0, 1], [0, 2], [1, 2])]},
                 [((0, 0, 0), ((0, 1), (1, 1), (2, 1)))], 58, id="cube-corner"),
    pytest.param(_SURFACE, [
        ((0, 0, 0), ((0, 1), (1, 1), (2, 1))), ((0, 0, 1), ((0, 1), (1, 1), (2, -1))),
        ((0, 1, 0), ((0, 1), (1, -1), (2, 1))), ((0, 1, 1), ((0, 1), (1, -1), (2, -1))),
        ((1, 0, 0), ((0, -1), (1, 1), (2, 1))), ((1, 0, 1), ((0, -1), (1, 1), (2, -1))),
        ((1, 1, 0), ((0, -1), (1, -1), (2, 1))), ((1, 1, 1), ((0, -1), (1, -1), (2, -1)))],
        80, id="cube-surface"),
    pytest.param(_fan(4), [((0,) * 4, tuple((ax, 1) for ax in triple))
                           for triple in itertools.combinations(range(4), 3)], 128, id="fan-4"),
    pytest.param(_fan(18), [((0,) * 18, tuple((ax, 1) for ax in triple))
                            for triple in itertools.combinations(range(18), 3)], 10_068, id="fan-18"),
])
def test_link_violations_are_the_minimal_ones(monkeypatch, doc, want, spans):
    """The report lists each minimal violation of the flag condition, an
    empty triangle here, by vertex, then by size, then by direction order,
    in a pinned count of ``_spans`` lookups.  The pairs of k axes at one
    vertex with no cube give C(k, 3) triples, not the 2^k - 1 - k - C(k, 2)
    sets of three or more directions that span no cell: 4, not 5, for k = 4,
    and 816 for k = 18."""
    calls = _count_spans(monkeypatch)
    rep = complex_from_dict(doc).validate()
    assert list(rep.link_violations) == want
    assert calls[0] == spans
    assert not rep.ok and not rep.cat0


def _tree_space(n, axes, cells):
    """Tree space on n leaves, checked to have ``axes`` splits and ``cells``
    maximal cells of dimension n - 3."""
    doc = generators.tree_space(n)
    assert doc["ambient_dim"] == axes and len(doc["cells"]) == cells
    assert {len(c["axes"]) for c in doc["cells"]} == {n - 3}
    return complex_from_dict(doc)


@pytest.mark.parametrize("n, axes, cells", [(4, 3, 3), (5, 10, 15)])
def test_tree_space_is_proved_cat0(n, axes, cells):
    """Tree space on n leaves has one axis per split and (2n - 5)!! maximal
    cells, and ``validate`` proves it CAT(0)."""
    assert _tree_space(n, axes, cells).validate().cat0


def _ring(signum, frame):
    raise TimeoutError("validate() ran past its alarm")


def test_tree_space_validates_without_scanning_subsets(monkeypatch):
    """Tree space on 6 leaves, 105 cubes on 25 axes, is proved CAT(0).  Its
    origin has 25 edge directions, so a scan of their subsets would take
    2^25 steps.  Growing the cells at each vertex takes a pinned count of
    ``_spans`` lookups; the alarm stops a subset scan."""
    cx = _tree_space(6, 25, 105)
    calls = _count_spans(monkeypatch)
    handler = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(20)
    try:
        rep = cx.validate()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert rep.link_violations == () and rep.cat0
    assert calls[0] == 15_340


def test_complex_from_dict_rejects_malformed():
    with pytest.raises(ComplexError):
        complex_from_dict([1, 2, 3])
    with pytest.raises(ComplexError):
        complex_from_dict({"cells": []})
    with pytest.raises(ComplexError, match="^cells must be a nonempty list$"):
        complex_from_dict({"ambient_dim": 2, "cells": []})
    with pytest.raises(ComplexError, match="^cell #0 must be an object with 'base' and 'axes'$"):
        complex_from_dict({"ambient_dim": 2, "cells": [3]})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2, "cells": [{"base": [0], "axes": [0]}]})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2,
                           "cells": [{"base": [0, 0], "axes": [0, 0]}]})
    with pytest.raises(ComplexError):
        complex_from_dict({"ambient_dim": 2,
                           "cells": [{"base": [0, 0], "axes": [2]}]})
    for cell in ({"base": 5, "axes": [0]}, {"base": [0, 0], "axes": 3},
                 {"base": [0, 0], "axes": [[0]]}):
        with pytest.raises(ComplexError, match="cell #0"):
            complex_from_dict({"ambient_dim": 2, "cells": [cell]})


def test_complex_from_dict_rejects_booleans():
    # JSON true/false are Python ints; they are not lattice coordinates
    for doc in (
        {"ambient_dim": 2, "cells": [{"base": [True, 0], "axes": [0, 1]}]},
        {"ambient_dim": 2, "cells": [{"base": [0, 0], "axes": [True]}]},
        {"ambient_dim": True, "cells": [{"base": [0], "axes": [0]}]},
    ):
        with pytest.raises(ComplexError):
            complex_from_dict(doc)


def test_base_coordinates_must_fit_a_float():
    """Each complex keeps one float per lattice coordinate, so a base
    coordinate outside [-2**53, 2**53 - 1] is refused, naming its cell and
    value: 10**400 would overflow a float, and the edge at 2**60 would be a
    box of one point.  The ends of that range still build unit boxes."""
    for b in (10**400, 2**60, -2**53 - 1, 2**53):
        with pytest.raises(ComplexError, match=rf"cell #1: base coordinates must be integers.*{b}"):
            complex_from_dict({"ambient_dim": 2, "cells": [{"base": [0, 0], "axes": [0]},
                                                           {"base": [0, b], "axes": [1]}]})
    for b in (2**53 - 1, -2**53):
        cx = complex_from_dict({"ambient_dim": 2, "cells": [{"base": [b, 0], "axes": [0, 1]}]})
        lo, hi = cx.bounds(cx.maximal_ids[0])
        assert (hi - lo).tolist() == [1.0, 1.0] and lo.tolist() == [float(b), 0.0]


def test_direct_construction_checks_the_base_range():
    """The range is checked where every complex is built, so a complex made
    without a document refuses the same bases, and a base too long to print
    is named by its size: a 5,000-digit integer, which ``repr`` refuses."""
    for b in (2**60, 10**400):
        with pytest.raises(ComplexError, match=rf"cell #0: base coordinates must be integers.*{b}"):
            CubicalComplex(1, [CubeCell((b,), (0,))])
    huge = 10**5000
    for build in (lambda: CubicalComplex(1, [CubeCell((0,), ()), CubeCell((huge,), (0,))]),
                  lambda: complex_from_dict({"ambient_dim": 1, "cells": [
                      {"base": [0], "axes": []}, {"base": [huge], "axes": [0]}]})):
        with pytest.raises(ComplexError) as err:
            build()
        assert str(err.value) == ("cell #1: base coordinates must be integers in "
                                  "[-2**53, 2**53 - 1], got an integer of 16,610 bits")


def test_face_of_another_maximal_cell_is_rejected():
    with pytest.raises(ComplexError, match="is a face of the maximal cell"):
        complex_from_dict({"ambient_dim": 2, "cells": [
            {"base": [0, 0], "axes": [0]},
            {"base": [0, 0], "axes": [0, 1]},
        ]})


def test_duplicate_maximal_cells_rejected():
    """A cell listed twice is named as a duplicate, also when it is a face of
    another cell too."""
    with pytest.raises(ComplexError, match=r"duplicate maximal cell base=\(0, 0\) axes=\(0, 1\)"):
        complex_from_dict({
            "ambient_dim": 2,
            "cells": [
                {"base": [0, 0], "axes": [0, 1]},
                {"base": [0, 0], "axes": [0, 1]},
            ],
        })
    with pytest.raises(ComplexError, match=r"duplicate maximal cell base=\(0, 0\) axes=\(0,\)"):
        complex_from_dict({"ambient_dim": 2, "cells": [
            {"base": [0, 0], "axes": [0]},
            {"base": [0, 0], "axes": [0]},
            {"base": [0, 0], "axes": [0, 1]},
        ]})


def test_huge_face_lattice_is_refused_before_it_is_built():
    """A k-cube has 3^k faces; a one-cell 20-cube would need 3.5e9 of them."""
    t0 = time.perf_counter()
    with pytest.raises(ComplexError, match="20-cube"):
        complex_from_dict({"ambient_dim": 20,
                           "cells": [{"base": [0] * 20, "axes": list(range(20))}]})
    assert time.perf_counter() - t0 < 1.0
    cube = complex_from_dict({"ambient_dim": 3, "cells": [{"base": [0] * 3, "axes": [0, 1, 2]}]})
    assert len(cube.cells) == 27


def test_face_limit_counts_distinct_faces(monkeypatch):
    """Grid squares share faces: a k x k grid has (2k + 1)^2 distinct faces,
    not the 9k^2 its cells count.  The limit bounds the distinct ones."""
    monkeypatch.setattr(complexes, "_MAX_LATTICE_FACES", 100)

    def grid(k):
        return {"ambient_dim": 2, "cells": [{"base": [i, j], "axes": [0, 1]}
                                            for i in range(k) for j in range(k)]}
    assert len(complex_from_dict(grid(4)).cells) == 81   # 144 counted
    with pytest.raises(ComplexError, match="reaches 10[1-9] faces"):
        complex_from_dict(grid(5))                       # 121 distinct
    with pytest.raises(ComplexError, match="5-cube .* 243 faces"):
        complex_from_dict({"ambient_dim": 5, "cells": [{"base": [0] * 5, "axes": list(range(5))}]})


def test_lattice_floats_hold_the_distinct_coordinates_only():
    """Cells at base 0 and at base 10**9 give one float per distinct integer
    coordinate of their faces' bases, none for the gap between them.  Snapping
    hands out those floats; an integer outside them gets a float of its own."""
    cx = complex_from_dict({"ambient_dim": 1, "cells": [{"base": [0], "axes": [0]},
                                                        {"base": [10**9], "axes": [0]}]})
    assert sorted(cx._floats) == [0, 1, 10**9, 10**9 + 1]
    assert all(type(f) is float and f == k for k, f in cx._floats.items())
    assert cx.snap((0.9999999999,))[0] is cx._floats[1]
    assert cx.snap((-1e-12,))[0] is cx._floats[0]
    assert cx.snap((1e9,))[0] is cx._floats[10**9]
    assert cx.snap((5.0,)) == (5.0,) and 5 not in cx._floats


def test_vertex_graph_modes():
    cx, _ = load_bundled("tripod")
    assert distance(cx, (1, 0), (-1, 0)) == 2.0


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


def _reference_adjacency(cx):
    """Every other maximal cell a maximal cell meets, with the face they
    meet in, by testing all pairs; neighbours in cell order."""
    ident = {(c.base, c.axes): c.ident for c in cx.cells}
    maximal = [cx.cell(i) for i in cx.maximal_ids]
    adjacency = {}
    for a in maximal:
        row = []
        for b in maximal:
            meet = None if b is a else cell_meet(a, b)
            if meet is not None:
                lo, hi = meet
                axes = tuple(i for i in range(len(lo)) if hi[i] > lo[i])
                row.append((b.ident, ident[tuple(lo), axes]))
        adjacency[a.ident] = tuple(row)
    return adjacency


def test_lattice_cells_meet_in_common_faces(bundles):
    """Two cells of a complex of lattice unit cubes always meet in a cell
    that is a face of both, which is why validate() checks only links, and
    the adjacency built from the face lattice lists exactly those meetings
    between maximal cells, in cell order (past c999 too), also in tree space
    for n = 5 and 6, where each maximal cell meets every other."""
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
            meet = cell_meet(a, b)
            if meet is None:
                continue
            lo, hi = meet
            assert _reference_is_face(lo, hi, a) and _reference_is_face(lo, hi, b), (a, b)
            axes = tuple(i for i in range(len(lo)) if hi[i] > lo[i])
            assert (tuple(lo), axes) in keys, (a, b)
            meetings += 1
    assert meetings > 10000
    big = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [i, j], "axes": [0, 1]} for i in range(20) for j in range(20)]})
    assert len(big.cells) > 1000
    # in tree space every two maximal cells meet, at least at the origin
    trees = [complex_from_dict(generators.tree_space(n)) for n in (5, 6)]
    for cx in trees:
        assert all(len(row) == len(cx.maximal_ids) - 1 for row in cx.adjacency.values())
    for cx in complexes + [big] + trees:
        assert cx.adjacency == _reference_adjacency(cx)
        assert list(cx.adjacency) == list(cx.maximal_ids)


def test_direct_construction_requires_cube_cells():
    cells = [CubeCell((0, 0), (0,))]
    cx = CubicalComplex(2, cells)
    assert len(cx.maximal_ids) == 1


# ---------------------------------------------------------------------------
# hashed point location against a scan of every cell


def _scan_locate(cx, boxes, point):
    """``(containing, minimal_cell)`` by testing every lattice cell in turn,
    ``boxes`` being ``(cell, lo, hi)`` in cell order; None when no cell
    holds the point."""
    p = cx.snap(point)
    containing, best = [], None
    for c, lo, hi in boxes:
        if all(l <= x <= h for l, x, h in zip(lo, p, hi)):
            containing.append(c.ident)
            if best is None or c.dim < best.dim:
                best = c
    return (tuple(containing), best.ident) if containing else None


def _probe_points(cx, rng, count):
    """Uniform points of a box one unit wider than the complex, of random
    lattice cells, and either kind with some coordinates rounded."""
    verts = np.array([c.base for c in cx.cells if not c.axes], dtype=float)
    lo, hi = verts.min(axis=0) - 1.0, verts.max(axis=0) + 1.0
    out = []
    for i in range(count):
        if i % 2:
            clo, chi = cx.cells[int(rng.integers(len(cx.cells)))].bounds()
            pt = clo + (chi - clo) * rng.random(len(lo))
        else:
            pt = lo + (hi - lo) * rng.random(len(lo))
        if i % 4 >= 2:
            pt = np.where(rng.random(len(lo)) < 0.5, np.round(pt), pt)
        out.append(tuple(float(x) for x in pt))
    return out


def test_locate_matches_a_scan_of_every_cell(bundles):
    rng = np.random.default_rng(31)
    big = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [i, j], "axes": [0, 1]} for i in range(20) for j in range(20)]})
    assert len(big.cells) > 1000
    complexes = [cx for cx, _ in bundles.values()] + [big]
    complexes += [complex_from_dict({"ambient_dim": 3, "cells": [
        {"base": list(b), "axes": [0, 1, 2]} for b in itertools.product(range(3), repeat=3)]})]
    while len(complexes) < len(bundles) + 22:
        try:
            complexes.append(_random_unit_complex(rng))
        except ComplexError:  # a drawn cell is a face of another
            continue
    for cx in complexes:
        boxes = [(c, *(b.tolist() for b in c.bounds())) for c in cx.cells]
        points = _probe_points(cx, rng, 200)
        if cx is big:   # ids c999 and c1000 sort apart as strings
            points += [base for c in big.cells[990:1010] for base, axes in c.faces() if not axes]
        for pt in points:
            want = _scan_locate(cx, boxes, pt)
            if want is None:
                with pytest.raises(LocationError, match="outside the complex"):
                    cx.locate(pt)
                continue
            loc = cx.locate(pt)
            assert loc.minimal_cell == want[1], pt
            assert cx.maximal_cells_containing(pt) == tuple(
                c for c in want[0] if c in cx.maximal_ids), pt
            assert cx.locate(pt) == loc
