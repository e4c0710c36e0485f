"""Geodesic solver checked against closed forms and metric axioms."""

import heapq
import itertools
import math
import random
import sys

import numpy as np
import pytest

from meanset import (CubicalComplex, GeodesicError, complex_from_dict, distance, geodesic,
                     load_bundled, midpoint, point_along, recognize, run_heatmap, to_csv,
                     verify_certificate)
from meanset import geodesics
from meanset.complexes import LocationError, read_json
from meanset.convex import box_segment_min
from meanset.corpus import BUNDLED, data_path
from meanset.recognition import random_point
from generators import INTERVAL, STAIRCASE, l_shape, product
from oracles import (array_certified_gap, chain_oracle, dense_newton_step, link_slack,
                     polyomino_distance, reference_walk)

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)


def _random_point(cx, rng):
    ids = cx.maximal_ids
    cell = cx.cell(ids[int(rng.integers(len(ids)))])
    lo, hi = cell.bounds()
    return tuple(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# exact values


def test_single_cube_is_euclidean():
    cx, _ = load_bundled("cube_square")
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = tuple(rng.uniform(0.0, 1.0, size=3))
        q = tuple(rng.uniform(0.0, 1.0, size=3))
        assert distance(cx, p, q) == pytest.approx(
            float(np.linalg.norm(np.subtract(p, q))), abs=1e-12)


def test_bundled_closed_forms(bundles):
    cx3, _ = bundles["squares3"]
    assert distance(cx3, (1, 0), (-1, 0)) == pytest.approx(2.0, abs=1e-12)
    assert distance(cx3, (1, 0), (0, 1)) == pytest.approx(2.0, abs=1e-12)
    assert distance(cx3, (-1, 0), (0, 1)) == pytest.approx(R2, abs=1e-12)

    cx5, _ = bundles["squares5"]
    assert distance(cx5, (1, -1, 0), (-1, 1, 0)) == pytest.approx(2 * R2, abs=1e-12)
    assert distance(cx5, (1, -1, 0), (0, 0, 1)) == pytest.approx(math.sqrt(5), abs=1e-12)
    assert distance(cx5, (-1, 1, 0), (0, 0, 1)) == pytest.approx(math.sqrt(5), abs=1e-12)

    cxq, _ = bundles["quadrant_window"]
    assert distance(cxq, (0, 1), (R3, 0)) == pytest.approx(1 + R3, abs=1e-12)


def test_cube_square_bent_geodesic(bundles):
    cx, _ = bundles["cube_square"]
    g = geodesic(cx, (-1.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert g.length == pytest.approx((1 + R2) * math.sqrt(4 - 2 * R2), abs=1e-10)
    assert len(g.breakpoints) == 3
    assert np.allclose(g.breakpoints[1], (0.0, R2 - 1.0, 0.0), atol=1e-8)


def test_cube_square_crossing_formula(bundles):
    """Geodesics from the cube interior to the far square corner cross the
    shared edge at height y / (1 + hypot(x, z))."""
    cx, _ = bundles["cube_square"]
    rng = np.random.default_rng(19)
    for _ in range(20):
        c = rng.uniform(0.05, 0.95, size=3)
        g = geodesic(cx, tuple(c), (-1.0, 0.0, 0.0))
        cross = [p for p in g.breakpoints[1:-1]
                 if abs(p[0]) <= 1e-9 and abs(p[2]) <= 1e-9]
        assert len(cross) == 1
        want = c[1] / (1.0 + math.hypot(c[0], c[2]))
        assert cross[0][1] == pytest.approx(want, abs=1e-9)


def test_quadrant_geodesic_bends_at_window_corner(bundles):
    cx, _ = bundles["quadrant_window"]
    g = geodesic(cx, (0.0, 1.0), (R3, 0.0))
    assert any(np.allclose(p, (0.0, 0.0), atol=1e-9) for p in g.breakpoints)


BENT = ((-0.5, 1.5), (1.5, -0.5))   # bends at the window corner of quadrant_window


def test_chain_length_finds_its_own_gates():
    """Given only the cells of a bent geodesic, ``chain_length`` finds the
    gates between them and returns the geodesic's length and breakpoints;
    two consecutive cells that share no face raise, as do an empty chain,
    one naming a cell the complex lacks, and one whose first cell does not
    hold p or whose last does not hold q."""
    cx, _ = load_bundled("quadrant_window")
    g = geodesic(cx, *BENT)
    assert len(g.cells) >= 3
    val, pts = geodesics.chain_length(cx, *BENT, g.cells)
    assert val == pytest.approx(g.length, abs=1e-12)
    assert np.allclose(pts, g.breakpoints, atol=1e-12)
    first, last = g.cells[0], g.cells[-1]
    assert first not in dict(cx.adjacency[last])
    with pytest.raises(GeodesicError, match="share no face"):
        geodesics.chain_length(cx, *BENT, (first, last))
    with pytest.raises(GeodesicError, match="empty chain"):
        geodesics.chain_length(cx, *BENT, ())
    with pytest.raises(GeodesicError, match=r"\('c999',\).*unknown cell 'c999'"):
        geodesics.chain_length(cx, (0.5, -0.5), (-0.5, 0.5), ["c999"])
    # square c002 holds neither (0.5, -0.5) nor (-0.5, 0.5)
    with pytest.raises(GeodesicError, match=r"\('c002',\).*c002 does not hold \(0\.5, -0\.5\)"):
        geodesics.chain_length(cx, (0.5, -0.5), (-0.5, 0.5), ["c002"])
    assert g.cells[-2] not in cx.maximal_cells_containing(BENT[1])
    with pytest.raises(GeodesicError, match=f"{g.cells[-2]} does not hold"):
        geodesics.chain_length(cx, *BENT, g.cells[:-1])


def test_chain_length_refuses_a_cell_that_is_not_maximal():
    """A chain names maximal cells, as the search's adjacency table does: the
    edge between the two squares of a straight chain is refused, though the
    squares meet in it."""
    cx, _ = load_bundled("squares3")
    p, q = (-0.5, -0.5), (0.5, -0.5)
    left, right = cx.maximal_cells_containing(p)[0], cx.maximal_cells_containing(q)[0]
    edge = dict(cx.adjacency[left])[right]
    assert geodesics.chain_length(cx, p, q, (left, right))[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(GeodesicError, match=f"cell '{edge}' is not maximal"):
        geodesics.chain_length(cx, p, q, (left, edge, right))


@pytest.mark.parametrize("name, p, q, cells, gate", [
    ("squares3", (-0.5, 0.8), (0.8, -0.5), ("c006", "c012"), None),   # through the vertex (0, 0)
    ("cube_square", (-0.5, 0.5, 0.0), (0.5, 0.25, 0.75), ("c002", "c009"), "c011"),   # an edge
])
def test_two_cell_chains_are_scored_by_their_gate_bound(monkeypatch, name, p, q, cells, gate):
    """A bent geodesic across two cells is scored by the search's own gate
    bound, ``box_segment_min(p, q, gate)``, which is exact for two convex
    boxes meeting in that gate: no ``chain_length`` call.  On squares3 the
    gate is the vertex (0, 0), so the length is |p| + |q|; on cube_square it
    is the edge c011, and the middle breakpoint is the bound's minimiser."""
    calls = [0]
    real = geodesics.chain_length

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(geodesics, "chain_length", counted)
    cx, _ = load_bundled(name)
    g = geodesic(cx, p, q)
    assert g.cells == cells and calls[0] == 0
    if gate is None:
        assert g.breakpoints[1] == (0.0, 0.0)
        assert g.length == pytest.approx(math.hypot(*p) + math.hypot(*q), abs=1e-15)
    else:
        val, x = box_segment_min(p, q, *cx._boxes[gate])
        assert g.breakpoints[1] == x and g.length == pytest.approx(val, abs=1e-15)


def test_a_search_with_no_scored_chain_raises(monkeypatch):
    """When no chain of three or more cells gets a length below infinity, here
    a NaN from every ``chain_length`` call on L4 between cells that share no
    face, the search ends with a GeodesicError, never a bare unpacking error."""
    monkeypatch.setattr(geodesics, "chain_length", lambda *args: (math.nan, []))
    cx = complex_from_dict(l_shape(4))
    with pytest.raises(GeodesicError, match=r"^no cell chain joins \(0.5, 3.5\) and \(3.5, 1.5\) "
                       "in one connected component; the complex is inconsistent$"):
        geodesic(cx, (0.5, 3.5), (3.5, 1.5))


def test_bounds_hands_out_copies():
    """Writing into the arrays ``bounds`` returns leaves the complex and
    its geodesics as they were."""
    cx, _ = load_bundled("quadrant_window")
    for c in cx.cells:
        lo, hi = cx.bounds(c.ident)
        lo[:] = lo - 0.3
        hi[:] = hi + 0.3
    want = geodesic(load_bundled("quadrant_window")[0], *BENT)
    got = geodesic(cx, *BENT)
    assert got.breakpoints == want.breakpoints
    assert got.length == want.length
    assert cx.bounds(cx.cells[0].ident)[0].tolist() == list(cx.cells[0].bounds()[0])


# ---------------------------------------------------------------------------
# metric axioms, fuzzed


@pytest.mark.parametrize("name", ["tripod", "squares3", "squares5", "quadrant_window"])
def test_symmetry_and_identity(bundles, name):
    cx, _ = bundles[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(15):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        dpq = distance(cx, p, q)
        assert dpq == pytest.approx(distance(cx, q, p), abs=1e-9)
        assert distance(cx, p, p) == pytest.approx(0.0, abs=1e-12)
        assert dpq >= float(np.linalg.norm(np.subtract(p, q))) - 1e-9


@pytest.mark.parametrize("name", ["squares3", "squares5"])
def test_triangle_inequality(bundles, name):
    cx, _ = bundles[name]
    rng = np.random.default_rng(len(name))
    for _ in range(20):
        p, q, r = (_random_point(cx, rng) for _ in range(3))
        assert distance(cx, p, r) <= distance(cx, p, q) + distance(cx, q, r) + 1e-9


def test_geodesic_breakpoint_consistency(bundles):
    """Length equals the polyline length and every breakpoint is in the complex."""
    for name, (cx, _) in bundles.items():
        rng = np.random.default_rng(101)
        for _ in range(8):
            p = _random_point(cx, rng)
            q = _random_point(cx, rng)
            g = geodesic(cx, p, q)
            pts = [np.asarray(b) for b in g.breakpoints]
            poly = sum(float(np.linalg.norm(u - v)) for u, v in zip(pts, pts[1:]))
            assert g.length == pytest.approx(poly, abs=1e-9)
            for b in g.breakpoints:
                cx.locate(b)   # raises if outside


def test_point_along_and_midpoint(bundles):
    cx, _ = bundles["squares3"]
    p, q = (1.0, 0.0), (-1.0, -1.0)
    g = geodesic(cx, p, q)
    assert point_along(g, 0.0) == pytest.approx(p)
    assert point_along(g, 1.0) == pytest.approx(q)
    m = midpoint(cx, p, q)
    assert distance(cx, p, m) == pytest.approx(g.length / 2, abs=1e-9)
    assert distance(cx, m, q) == pytest.approx(g.length / 2, abs=1e-9)
    # parameterization is by arclength fraction
    for s in (0.25, 0.7):
        x = point_along(g, s)
        assert distance(cx, p, x) == pytest.approx(s * g.length, abs=1e-9)
    for s in (-0.1, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fraction"):
            point_along(g, s)
    # a stated length past the breakpoints' own ends the walk at the last breakpoint
    long = geodesics.Geodesic(((0.0, 0.0), (1.0, 0.0)), ("c000",), 2.0)
    assert point_along(long, 0.25) == (0.5, 0.0) and point_along(long, 0.75) == (1.0, 0.0)


def test_geodesic_deterministic(bundles):
    cx, _ = bundles["squares5"]
    a = geodesic(cx, (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0))
    b = geodesic(cx, (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0))
    assert a == b


def test_cache_holds_one_entry_per_pair():
    cx, _ = load_bundled("squares3")
    p, q = (0.9, -0.2), (-0.2, 0.9)   # bent through the origin
    g = geodesic(cx, p, q)
    h = geodesic(cx, q, p)
    assert len(cx._geo_cache) == 1
    assert h.breakpoints == g.breakpoints[::-1] and h.cells == g.cells[::-1]
    assert h.length == g.length
    assert geodesic(cx, p, q) is g


def test_cached_geodesics_share_their_keys_and_lattice_floats(monkeypatch):
    """A bent squares3 pair is searched, a straight one walked; each cached
    geodesic starts and ends on the very tuples of its key, and every integer
    coordinate of the cache and of the cell boxes is the complex's one float
    of that integer."""
    cx, _ = load_bundled("squares3")
    searches = []
    real = geodesics.vertex_upper_bound
    monkeypatch.setattr(geodesics, "vertex_upper_bound",
                        lambda *args: searches.append(args) or real(*args))
    distance(cx, (0.9, -0.2), (-0.2, 0.9))   # bent through the origin
    distance(cx, (0.5, -0.5), (-0.5, -0.25))   # straight across the edge x = 0
    assert len(searches) == 1 and len(cx._geo_cache) == 2
    coords = []
    for key, g in cx._geo_cache.items():
        assert sorted(map(id, key)) == sorted(map(id, (g.breakpoints[0], g.breakpoints[-1])))
        coords += [x for point in g.breakpoints for x in point]
    coords += [x for lo, hi in cx._boxes.values() for x in lo + hi]
    lattice = [x for x in coords if x == round(x)]
    assert 0.0 in lattice and all(x is cx._floats[round(x)] for x in lattice)


def test_threads_share_a_full_cache_safely(monkeypatch):
    """Four heat-map threads that evict from one cache of 8 entries, switching
    every microsecond, raise nothing, leave at most 8 entries and write the
    CSV that one thread writes."""
    monkeypatch.setattr(geodesics, "_CACHE_SIZE", 8)
    cx, A = load_bundled("squares3")
    csv1 = to_csv(run_heatmap(A, 300, 28, 0.1, threads=1), cx.ambient_dim)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        csv4 = to_csv(run_heatmap(A, 300, 28, 0.1, threads=4), cx.ambient_dim)
    finally:
        sys.setswitchinterval(interval)
    assert csv4 == csv1
    assert len(cx._geo_cache) <= 8


def test_recognize_again_after_eviction_repeats_its_answer(monkeypatch):
    """With room for 8 geodesics, ``recognize`` at 20 other squares3 points
    drops every pair of the first point; asked again, it solves them anew
    and answers the same, repr for repr.  No insert grows the cache past 8."""
    monkeypatch.setattr(geodesics, "_CACHE_SIZE", 8)

    class Capped(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            assert len(self) <= 8

    cx, A = load_bundled("squares3")
    cx._geo_cache = Capped()
    rng = random.Random(28)
    x = random_point(cx, rng)[1]
    first = repr(recognize(A, x))
    for _ in range(20):
        recognize(A, random_point(cx, rng)[1])
    assert not any(a == cx.snap(x) or b == cx.snap(x) for a, b in cx._geo_cache)
    assert repr(recognize(A, x)) == first
    assert len(cx._geo_cache) == 8


@pytest.mark.parametrize("name, p, q", [
    ("squares3", (0.9, -0.2), (-0.2, 0.9)),            # bent through the origin
    ("squares3", (1e-12, -0.5), (-1.0, -1.0 - 1e-13)),  # straight, ends snapped
    ("cube_square", (0.2, 0.3, 0.4), (1.0, 0.5, 0.0)),
])
def test_warm_distance_locates_nothing(monkeypatch, name, p, q):
    """A pair already solved, given again as tuples either way round, is
    read from the cache before either end is located."""
    cx, _ = load_bundled(name)
    cold = distance(cx, p, q)
    calls = []
    real = CubicalComplex.locate

    def locate(self, point):
        calls.append(point)
        return real(self, point)

    monkeypatch.setattr(CubicalComplex, "locate", locate)
    assert distance(cx, p, q) == cold and distance(cx, q, p) == cold
    assert calls == []


@pytest.mark.parametrize("p, q", [
    ((0.2, 0.3, 0.4), (0.7, 0.6, 0.9)),   # in one cell: the walk meets no exit point
    ((0.2, 0.3, 0.4), (2.7, 1.6, 0.9)),   # straight across cells
])
def test_cold_distance_snaps_each_end_once(monkeypatch, p, q):
    """A cold distance snaps each end once, for the cache read; the walk on
    the miss reuses the snapped coordinates."""
    cx = _grid(3, 3, 3)
    calls = []
    real = CubicalComplex.snap

    def snap(self, point):
        calls.append(tuple(point))
        return real(self, point)

    monkeypatch.setattr(CubicalComplex, "snap", snap)
    distance(cx, p, q)
    assert calls.count(p) == 1 and calls.count(q) == 1


def test_geodesic_requires_points_inside():
    cx, _ = load_bundled("tripod")
    with pytest.raises(Exception):
        geodesic(cx, (5.0, 5.0), (0.0, 0.0))


@pytest.mark.parametrize("p, q, message", [
    ((3.0, 3.0), (0.5, 0.5), "point [3.0, 3.0] lies outside the complex"),
    ((0.5, 0.5), (3.5, 3.5), "point [3.5, 3.5] lies outside the complex"),
    ((5, 0.5), (6, 0.5), "point [5.0, 0.5] lies outside the complex"),
    ((0.5, 0.5, 0.5), (0.5, 0.5), "point has dimension 3, complex is 2-dimensional"),
    ((0.5, 0.5), (2.5, 2.5, 1), "point has dimension 3, complex is 2-dimensional"),
    ("located", (3.5, 0.5, 1), "point has dimension 3, complex is 2-dimensional"),
    ("located", (2.5, 2.5), "point [2.5, 2.5] lies outside the complex"),
    ((2.5, 2.5), "located", "point [2.5, 2.5] lies outside the complex"),
])
def test_a_failed_walk_locates_the_ends(p, q, message):
    """Raw ends are located only when the walk between them fails, or when
    one is of the wrong dimension or a LocatedPoint; an end outside the
    complex then raises what locating it raises, p before q."""
    cx = complex_from_dict(l_shape(4))
    here = cx.locate((0.5, 1.5))
    p, q = (here if x == "located" else x for x in (p, q))
    with pytest.raises(LocationError) as err:
        geodesic(cx, p, q)
    assert str(err.value) == message


@pytest.mark.parametrize("p, q, located", [
    ((0.5, 0.5), (3.5, 1.5), 0),   # straight: the walk proves both ends lie in the complex
    ((0.5, 3.5), (3.5, 0.5), 0),   # straight through the reflex vertex (2, 2)
    ((0.5, 3.5), (3.5, 1.5), 2),   # bent at the reflex vertex: both ends located for the search
])
def test_raw_ends_are_located_only_for_the_search(monkeypatch, p, q, located):
    """Ends given as coordinates are located, p first, only when the walk
    between them fails and the search needs their carriers."""
    cx = complex_from_dict(l_shape(4))
    calls, real = [], cx._locate_snapped
    monkeypatch.setattr(cx, "_locate_snapped", lambda x: calls.append(x) or real(x))
    g = geodesic(cx, p, q)
    assert calls == [cx.snap(p), cx.snap(q)][:located]
    assert (g.length > math.dist(p, q) + 1e-12) == bool(located)


def test_a_pivot_walks_to_its_vertex_unlocated(monkeypatch):
    """A search answered by a pivot locates its two ends and not the
    pivot's vertex: the walk to it runs on coordinates."""
    q = (R3, 0.0)
    cx, _ = load_bundled("quadrant_window")
    geodesic(cx, (-1.6, 1.97), q)
    assert [v for v, _ in cx._pivots.values()] == [(0.0, 0.0)]
    calls, real = [], cx._locate_snapped
    monkeypatch.setattr(cx, "_locate_snapped", lambda x: calls.append(x) or real(x))
    walks, walk = [], geodesics._walk
    monkeypatch.setattr(geodesics, "_walk", lambda cx, a, b: walks.append(b) or walk(cx, a, b))
    geodesic(cx, (-1.64, 1.31), q)
    assert calls == [(-1.64, 1.31), q]
    assert walks == [q, (0.0, 0.0)]


def test_midpoint_matches_cn_inequality(bundles):
    """Midpoints satisfy the comparison (semi-parallelogram) bound."""
    cx, _ = bundles["squares5"]
    rng = np.random.default_rng(77)
    for _ in range(25):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        r = _random_point(cx, rng)
        m = midpoint(cx, q, r)
        lhs = distance(cx, p, m) ** 2
        rhs = (0.5 * distance(cx, p, q) ** 2 + 0.5 * distance(cx, p, r) ** 2
               - 0.25 * distance(cx, q, r) ** 2)
        assert lhs <= rhs + 1e-7


def test_disjoint_components_raise(monkeypatch):
    """Points of different components are refused before any chain is
    bounded or evaluated, however large the components are."""
    def searched(*args):
        raise AssertionError("a chain search ran")

    monkeypatch.setattr(geodesics, "chain_length", searched)
    monkeypatch.setattr(geodesics, "box_segment_min", searched)
    pair = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [0, 0], "axes": [0, 1]},
        {"base": [2, 0], "axes": [0, 1]},
    ]})
    grids = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [x + dx, y], "axes": [0, 1]} for dx in (0, 7) for x in range(6) for y in range(6)
    ]})
    for cx, p, q in ((pair, (0.5, 0.5), (2.5, 0.5)), (grids, (0.5, 5.5), (12.5, 0.5))):
        assert cx.validate().ok
        with pytest.raises(GeodesicError, match="different connected components"):
            distance(cx, p, q)


# ---------------------------------------------------------------------------
# long chains and tied chains on full grids, where |p - q| is exact


def _grid(*sizes):
    axes = list(range(len(sizes)))
    return complex_from_dict({"ambient_dim": len(sizes), "cells": [
        {"base": list(base), "axes": axes}
        for base in itertools.product(*(range(s) for s in sizes))
    ]})


@pytest.fixture
def chain_budget(monkeypatch):
    """Fail as soon as one search evaluates more than two chains."""
    real = geodesics.chain_length
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        assert count[0] <= 2, "more than two chains evaluated"
        return real(*args, **kwargs)

    monkeypatch.setattr(geodesics, "chain_length", counted)
    return count


@pytest.mark.parametrize("sizes, p, q", [
    ((9, 1), (0.2, 0.1), (8.7, 0.9)),                    # 9-square strip
    ((10, 10), (0.0, 0.0), (10.0, 10.0)),                # corner to corner
    ((3, 3, 3), (0.1, 0.1, 0.1), (2.9, 2.9, 2.9)),       # cube diagonal
    # through 13 vertices, where the chain search alone pushes 298,087 tied chains
    ((14, 14), (0.0, 0.0), (14.0, 14.0)),
])
def test_grid_geodesic_is_straight_with_few_chains(chain_budget, monkeypatch, sizes, p, q):
    pushes = [0]
    real_push = heapq.heappush

    def push(*args):
        pushes[0] += 1
        return real_push(*args)

    monkeypatch.setattr(heapq, "heappush", push)
    cx = _grid(*sizes)
    assert distance(cx, p, q) == pytest.approx(math.dist(p, q), abs=1e-9)
    assert (chain_budget[0], pushes[0]) == (0, 0)   # walked, not searched


def test_random_square_grid_pairs_are_straight():
    cx = _grid(8, 8)
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = tuple(8.0 * rng.random(2))
        q = tuple(8.0 * rng.random(2))
        assert distance(cx, p, q) == pytest.approx(math.dist(p, q), abs=1e-9), (p, q)


# ---------------------------------------------------------------------------
# the result does not depend on the direction of the search


def _corpus_point(cx, rng, snapped):
    """Uniform point of a random maximal cell, optionally rounded onto one of
    its faces or vertices."""
    lo, hi = cx.cell(cx.maximal_ids[int(rng.integers(len(cx.maximal_ids)))]).bounds()
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pt = lo + (hi - lo) * rng.random(len(lo))
    if snapped:
        free = [i for i in range(len(lo)) if hi[i] > lo[i]]
        for i in rng.choice(free, size=int(rng.integers(1, len(free) + 1)), replace=False):
            pt[i] = hi[i] if rng.random() < 0.5 else lo[i]
    return tuple(float(x) for x in pt)


@pytest.mark.parametrize("name", BUNDLED)
def test_geodesic_is_direction_independent(name):
    # separate complexes, so the reverse query is solved, not read from the cache
    fwd, _ = load_bundled(name)
    bwd, _ = load_bundled(name)
    rng = np.random.default_rng([61, len(name)])
    seen = set()
    for i in range(60):
        p = _corpus_point(fwd, rng, snapped=i % 2 == 1)
        q = _corpus_point(fwd, rng, snapped=i % 4 >= 2)
        if frozenset((p, q)) in seen:
            continue
        seen.add(frozenset((p, q)))
        g = geodesic(fwd, p, q)
        h = geodesic(bwd, q, p)
        assert g.length == pytest.approx(h.length, abs=1e-9), (p, q)
        for s in (0.25, 0.5, 0.75):
            assert np.allclose(point_along(g, s), point_along(h, 1.0 - s), rtol=0, atol=1e-8), (p, q, s)


@pytest.mark.parametrize("name", ["quadrant_window", "L6"])
def test_polyomino_distances_match_visibility_oracle(name):
    """Distances in flat L shapes, where geodesics across the missing
    quadrant bend at its corner, against the visibility-graph oracle."""
    cx = load_bundled(name)[0] if name in BUNDLED else complex_from_dict(l_shape(6))
    squares = [cx.cell(i).base for i in cx.maximal_ids]
    rng = np.random.default_rng([83, len(name)])
    bent = 0
    for i in range(300):
        p = _corpus_point(cx, rng, snapped=i % 2 == 1)
        q = _corpus_point(cx, rng, snapped=i % 4 >= 2)
        want = polyomino_distance(squares, p, q)
        assert distance(cx, p, q) == pytest.approx(want, rel=0, abs=1e-9), (p, q)
        bent += want > math.dist(p, q) + 1e-9
    assert bent >= 20


# ---------------------------------------------------------------------------
# every chain solve of a search, against an independent solver


def test_chain_solves_match_slsqp_oracle(monkeypatch):
    """Chains of two or more gates met by real searches, a third of the
    points snapped onto faces so that breakpoints merge: ``chain_length``
    is within 1e-10 of SLSQP or below it, with every breakpoint in its gate.
    Straight geodesics are walked and never reach ``chain_length``, so
    pairs are drawn on the complexes with bent geodesics until 300 distinct
    chains are met."""
    real = geodesics.chain_length
    seen = {}

    def recorded(cx, p, q, chain):
        out = real(cx, p, q, chain)
        bounds = [cx._boxes[dict(cx.adjacency[c])[d]] for c, d in zip(chain, chain[1:])]
        if len(bounds) >= 2:
            seen[(p, q, tuple(chain))] = (bounds, out)
        return out

    monkeypatch.setattr(geodesics, "chain_length", recorded)
    rng = np.random.default_rng(2024)
    complexes = [load_bundled(name)[0] for name in BUNDLED]
    complexes += [_grid(8, 8), _grid(3, 3, 3), complex_from_dict(STAIRCASE)]
    for cx in complexes:
        for i in range(150):
            distance(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
    bent = [complexes[BUNDLED.index("squares5")], complexes[BUNDLED.index("quadrant_window")],
            complexes[-1]]
    for i in range(3000):
        if len(seen) >= 300:
            break
        cx = bent[i % 3]
        distance(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
    assert len(seen) >= 300
    for (p, q, chain), (bounds, (val, pts)) in seen.items():
        assert val <= chain_oracle(p, q, bounds) + 1e-10, (p, q, chain)
        for x, (lo, hi) in zip(pts[1:-1], bounds):
            assert (np.asarray(lo) <= x).all() and (np.asarray(x) <= hi).all(), (p, q, chain, x)


def _is_vertex(lo, hi):
    return all(l == h for l, h in zip(lo, hi))


def test_vertex_gates_split_the_chain(monkeypatch):
    """Chains met by real searches that cross a gate which is one vertex,
    drawn until 50 of them have two or more gates.  Each is within 1e-10 of SLSQP or below it, its value is the length of
    its breakpoints, and every breakpoint lies in its gate.  Cut at its
    vertex gates, a chain whose pieces have at most one gate each is a sum
    of closed forms: a segment or ``box_segment_min`` per piece, with no
    Newton step."""
    real = geodesics.chain_length
    seen = {}

    def recorded(cx, p, q, chain):
        bounds = [cx._boxes[dict(cx.adjacency[c])[d]] for c, d in zip(chain, chain[1:])]
        if any(_is_vertex(lo, hi) for lo, hi in bounds):
            seen.setdefault((p, q, tuple(chain)), (cx, bounds))
        return real(cx, p, q, chain)

    monkeypatch.setattr(geodesics, "chain_length", recorded)
    rng = np.random.default_rng(2025)
    complexes = [load_bundled(name)[0] for name in BUNDLED] + [complex_from_dict(STAIRCASE)]
    for i in range(6000):
        if sum(len(bounds) >= 2 for _, bounds in seen.values()) >= 50:
            break
        cx = complexes[i % len(complexes)]
        distance(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
    assert sum(len(bounds) >= 2 for _, bounds in seen.values()) >= 50

    steps = [0]
    real_step = geodesics._newton_step

    def counted(*args):
        steps[0] += 1
        return real_step(*args)

    monkeypatch.setattr(geodesics, "_newton_step", counted)
    closed = 0
    for (p, q, chain), (cx, bounds) in seen.items():
        steps[0] = 0
        val, pts = real(cx, p, q, chain)
        assert len(pts) == len(bounds) + 2 and pts[0] == p and pts[-1] == q
        assert val <= chain_oracle(p, q, bounds) + 1e-10, (p, q, chain)
        assert val == pytest.approx(sum(map(math.dist, pts, pts[1:])), abs=1e-12)
        for x, (lo, hi) in zip(pts[1:-1], bounds):
            assert (np.asarray(lo) <= x).all() and (np.asarray(x) <= hi).all(), (p, q, chain, x)
        # the pieces between vertex gates, by hand
        ends, pieces = [p], [[]]
        for lo, hi in bounds:
            if _is_vertex(lo, hi):
                ends.append(tuple(lo))
                pieces.append([])
            else:
                pieces[-1].append((lo, hi))
        ends.append(q)
        if all(len(gates) <= 1 for gates in pieces):
            closed += 1
            want = 0.0
            for a, b, gates in zip(ends, ends[1:], pieces):
                want += box_segment_min(a, b, *gates[0])[0] if gates else math.dist(a, b)
            assert val == want, (p, q, chain)
            assert steps[0] == 0, (p, q, chain)
    assert closed > 0


def _pieces(bounds):
    """The gates of ``bounds`` between its vertex gates, one list per piece."""
    pieces = [[]]
    for lo, hi in bounds:
        if _is_vertex(lo, hi):
            pieces.append([])
        else:
            pieces[-1].append((lo, hi))
    return pieces


def test_pieces_of_three_gates_match_slsqp_oracle(monkeypatch):
    """The corpora cut their chains into pieces of at most two gates.  On the
    L-shaped polyomino ``l_shape(8)`` and the staircase, pairs are drawn
    until the chains met by real searches hold 50 pieces of three or more
    gates that are not vertices.  Each such chain is within 1e-10 of SLSQP
    or below it, with every breakpoint in its gate."""
    real = geodesics.chain_length
    seen, count = {}, [0]

    def recorded(cx, p, q, chain):
        out = real(cx, p, q, chain)
        bounds = [cx._boxes[dict(cx.adjacency[c])[d]] for c, d in zip(chain, chain[1:])]
        long = sum(len(piece) >= 3 for piece in _pieces(bounds))
        if long and count[0] < 50 and (p, q, tuple(chain)) not in seen:
            seen[(p, q, tuple(chain))] = (bounds, out)
            count[0] += long
        return out

    monkeypatch.setattr(geodesics, "chain_length", recorded)
    rng = np.random.default_rng(2026)
    complexes = [complex_from_dict(l_shape(8)), complex_from_dict(STAIRCASE)]
    for i in range(4000):
        if count[0] >= 50:
            break
        cx = complexes[i % 2]
        distance(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
    assert count[0] >= 50
    assert {len(bounds[0][0]) for bounds, _ in seen.values()} == {2, 3}   # both complexes
    for (p, q, chain), (bounds, (val, pts)) in seen.items():
        assert val <= chain_oracle(p, q, bounds) + 1e-10, (p, q, chain)
        for x, (lo, hi) in zip(pts[1:-1], bounds):
            assert (np.asarray(lo) <= x).all() and (np.asarray(x) <= hi).all(), (p, q, chain, x)


def test_newton_step_matches_dense_solve():
    """One banded Newton step against ``oracles.dense_newton_step``, which
    builds the whole Hessian and solves it densely, on seeded random chains
    of 3-12 points in R^1-R^4, then on chains of 3-40 points, half of them
    with one to three middle points pinned whole, as a vertex gate is, so
    that the band has gaps.  The ends are points, every gate of two or more
    axes has at least one axis pinned, as a face of a cell does, some
    coordinates start at a bound, and eps is 1e-3, 1e-9 or 0.  The steps
    and decrements agree to 1e-9 relative."""
    rng = np.random.default_rng(13)
    moved = gaps = 0
    for trial in range(400):
        N, n = int(rng.integers(3, 13 if trial < 300 else 41)), int(rng.integers(1, 5))
        eps = (1e-3, 1e-9, 0.0)[trial % 3]
        lo = rng.uniform(-2.0, 0.0, (N, n))
        hi = lo + rng.uniform(0.5, 2.0, (N, n))
        if n > 1:
            pinned = rng.random((N, n)) < 0.3
            pinned[np.arange(N), rng.integers(n, size=N)] = True
            hi[pinned] = lo[pinned]
        if trial >= 300 and trial % 2:
            rows = rng.integers(1, N - 1, size=int(rng.integers(1, 4)))
            hi[rows] = lo[rows]
        lo[[0, -1]] = hi[[0, -1]]
        P0 = rng.uniform(lo, hi)
        held = rng.random((N, n)) < 0.25
        P0[held] = np.where(rng.random((N, n)) < 0.5, lo, hi)[held]
        gaps += (lo[1:-1] == hi[1:-1]).all(axis=1).any()
        dense = P0.copy()
        want = dense_newton_step(dense, lo, hi, eps)
        P = P0.tolist()
        got = geodesics._newton_step(P, lo.tolist(), hi.tolist(), eps)
        step = dense - P0
        scale = np.abs(step).max()
        assert np.abs(np.array(P) - P0 - step).max() <= 1e-9 * scale, (trial, N, n, eps)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), (trial, N, n, eps)
        moved += scale > 0.0
    assert moved >= 350 and gaps >= 150, (moved, gaps)


def test_newton_step_refuses_a_zero_length_segment():
    """Unsmoothed (eps = 0), two coincident points leave a segment of length
    0, where the Hessian is undefined: the step returns 0 and moves nothing."""
    P = [[0.0, 0.0], [1.0, 0.5], [1.0, 0.5], [2.0, 0.0]]
    lo = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    hi = [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
    assert geodesics._newton_step(P, lo, hi, 0.0) == 0.0
    assert P == [[0.0, 0.0], [1.0, 0.5], [1.0, 0.5], [2.0, 0.0]]


def test_newton_step_pins_a_coordinate_whose_pivot_is_lost():
    """Unsmoothed, two free points 8.5e-13 apart: the short segment's block,
    of order 1e12, swamps the 1e-12 shift, and the last pivot of the band
    Cholesky rounds below zero.  That coordinate stays put and the others
    take their Newton step, which passes the Armijo test and shortens the
    path; the dense solve's step, of that lost pivot's size, passes no
    Armijo trial and moves nothing."""
    P = [[0.0, 0.0], [0.293, 1.397], [0.2930000000006, 1.3970000000006], [2.0, 3.0]]
    lo = [[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [2.0, 3.0]]
    hi = [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [2.0, 3.0]]
    dense = np.array(P)
    assert dense_newton_step(dense, np.array(lo), np.array(hi), 0.0) == 0.0
    assert dense.tolist() == P
    Q = [x[:] for x in P]
    assert geodesics._newton_step(Q, lo, hi, 0.0) > 0.0
    assert Q[2][1] == P[2][1] and Q[1] != P[1]
    length = geodesics._certified_gap(P, lo, hi)[1]
    assert geodesics._certified_gap(Q, lo, hi)[1] < length - 0.1


def test_certified_gap_matches_array_form():
    """``_certified_gap`` against ``oracles.array_certified_gap`` on seeded
    random chains of 3-8 points on integer boxes, about a third of them with
    runs of coincident points: gap and value agree to 1e-12."""
    rng = np.random.default_rng(5)
    runs = 0
    for _ in range(600):
        N, n = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        lo = rng.integers(-2, 1, (N, n)).astype(float)
        hi = lo + rng.integers(0, 2, (N, n))
        lo[[0, -1]] = hi[[0, -1]] = rng.uniform(-2.0, 2.0, (2, n))
        P = np.clip(rng.uniform(-2.0, 2.0, (N, n)), lo, hi)
        for j in range(1, N - 1):   # coincide with the point before where the boxes allow
            x = np.clip(P[j - 1], lo[j], hi[j])
            if rng.random() < 0.5 and (x == P[j - 1]).all():
                P[j] = x
        runs += (np.diff(P, axis=0) == 0.0).all(axis=1).any()
        got = geodesics._certified_gap(P.tolist(), lo.tolist(), hi.tolist())
        assert got == pytest.approx(array_certified_gap(P, lo, hi), rel=0.0, abs=1e-12)
    assert runs >= 150


def test_staircase_chain_solves_do_pinned_work(monkeypatch):
    """200 seeded pairs between the end cubes of the staircase, whose
    geodesics wrap its reflex edges so that breakpoints meet and are
    merged: the chain solves, their Newton steps and merges, and the most
    steps of one solve, as exact counts.  The arithmetic is on Python floats,
    so the counts repeat exactly."""
    counts = {"solves": 0, "steps": 0, "merges": 0, "most": 0}
    real_length, real_step, real_merged = (geodesics.chain_length, geodesics._newton_step,
                                           geodesics._merged)

    def length(*args):
        before = counts["steps"]
        out = real_length(*args)
        counts["solves"] += 1
        counts["most"] = max(counts["most"], counts["steps"] - before)
        return out

    def step(*args):
        counts["steps"] += 1
        return real_step(*args)

    def merged(*args):
        counts["merges"] += 1
        return real_merged(*args)

    monkeypatch.setattr(geodesics, "chain_length", length)
    monkeypatch.setattr(geodesics, "_newton_step", step)
    monkeypatch.setattr(geodesics, "_merged", merged)
    cx = complex_from_dict(STAIRCASE)
    first, last = (np.array(c["base"], dtype=float) for c in (STAIRCASE["cells"][0],
                                                              STAIRCASE["cells"][-1]))
    rng = np.random.default_rng(37)
    for _ in range(200):
        distance(cx, tuple(first + rng.random(3)), tuple(last + rng.random(3)))
    assert counts == {"solves": 368, "steps": 1636, "merges": 142, "most": 24}


TRIPOD2 = product(read_json(data_path("tripod.json")), read_json(data_path("tripod.json")))


@pytest.mark.parametrize("p, q, legs, steps", [
    ((-0.35226347930982893, 0.0, 0.0, 0.07917297656620303),
     (0.0, 0.9871734505760956, -0.07505417312765261, 0.0),
     ((0.35226347930982893, 0.9871734505760956), (0.07917297656620303, 0.07505417312765261)),
     21),
    ((0.0, 0.034919230721618844, 0.0, 0.3546734263760599),
     (0.05492915278634669, 0.0, -0.3629927628144517, 0.0),
     ((0.034919230721618844, 0.05492915278634669), (0.3546734263760599, 0.3629927628144517)),
     33),
], ids=["merge-converges", "merge-stops-certified"])
def test_tripod_squared_merges_end_within_their_budget(monkeypatch, p, q, legs, steps):
    """tripod², the product of the bundled tripod with itself in R^4: each
    pair joins two legs of each factor, so its distance is the hypotenuse
    of the two factors' sums of leg lengths.  The first pair's exact-Newton
    merges converge within their budget of 10 steps per glued point.  In
    the second, exact Newton would step on after its glued chains certify,
    each step still moving a coordinate by more than 1e-15; the merges stop
    at the first certified chain, well inside that budget, and the path has
    its closed form.  Distances to 1e-12 and the Newton steps exactly; a
    run past 1000 steps fails at once."""
    taken = [0]
    real = geodesics._newton_step

    def counted(*args):
        taken[0] += 1
        assert taken[0] <= 1000, "exact Newton does not stop"
        return real(*args)

    monkeypatch.setattr(geodesics, "_newton_step", counted)
    cx = complex_from_dict(TRIPOD2)
    want = math.hypot(*(a + b for a, b in legs))
    assert distance(cx, p, q) == pytest.approx(want, rel=0.0, abs=1e-12)
    assert taken[0] == steps


def test_l4_prism_pair_wrapping_the_reflex_edge_is_answered(newton_steps):
    """On the prism L4 x [0, 2], a pair whose geodesic wraps the reflex edge
    x = y = 2: the exact-Newton merge of one five-cell chain meets a pivot
    lost to rounding, where two breakpoints lie 4.6e-9 apart, too far to be
    glued.  With that coordinate pinned the chain's certified gap is 3e-9,
    within the 1e-9 (1 + length) limit, so it raises nothing and the search
    goes on to the geodesic: the product oracle's distance to 1e-12, in
    exactly 68 Newton steps."""
    cx = complex_from_dict(product(l_shape(4), INTERVAL))
    p = (1.8405135663385623, 3.260967715314865, 0.25445350720977467)
    q = (3.8059391492418815, 1.2037183310229684, 1.8267694073610903)
    squares = [tuple(c["base"]) for c in l_shape(4)["cells"]]
    want = math.hypot(polyomino_distance(squares, p[:2], q[:2]), q[2] - p[2])
    assert distance(cx, p, q) == pytest.approx(want, rel=0.0, abs=1e-12)
    assert newton_steps[0] == 68


def test_chain_length_raises_on_a_piece_it_cannot_certify():
    """The public ``chain_length`` on a losing chain of the L4 x [0, 2]
    family (pair 1110) that its solver does not certify: the piece from p to
    q keeps a certified gap of 6e-05, above the 1e-9 (1 + length) limit, and
    the call raises ``GeodesicError`` naming the chain, the piece, the gap
    and the length."""
    cx = complex_from_dict(product(l_shape(4), INTERVAL))
    p, q = (0.5, 4.0, 1.5), (3.7212807376350643, 1.7219101921571127, 0.7067785011336642)
    chain = ("c071", "c153", "c161", "c141", "c211", "c273")
    ends = f"from {p} to {q}"
    with pytest.raises(GeodesicError) as exc:
        geodesics.chain_length(cx, p, q, chain)
    assert str(exc.value) == (f"chain {chain} {ends}: certified gap 6e-05 of the piece {ends} "
                              "exceeds 1e-9 (1 + length 4.42970237811)")


# ---------------------------------------------------------------------------
# pieces that start on their unfolded straight line


@pytest.fixture
def newton_steps(monkeypatch):
    """The count of Newton steps taken, in a one-item list, read as it grows."""
    steps = [0]
    real = geodesics._newton_step

    def counted(*args):
        steps[0] += 1
        return real(*args)

    monkeypatch.setattr(geodesics, "_newton_step", counted)
    return steps


def test_corpus_pieces_certify_on_their_unfolded_line(monkeypatch, newton_steps):
    """Seeded searches on the five corpora, a third of the points snapped
    onto faces: every piece of two or more gates, all of them on squares5 and
    quadrant_window, returns its unfolded start with no Newton step, and
    agrees with SLSQP.  On quadrant_window some chains wrap the window's
    corner, where the straight line is pulled tight."""
    real_piece, real_unfolded = geodesics._solve_piece, geodesics._unfolded
    met, lines = {}, []

    def piece(a, b, bounds, cells):
        before = newton_steps[0]
        out = real_piece(a, b, bounds, cells)
        if len(bounds) >= 2:
            assert newton_steps[0] == before, (a, b, bounds)
            assert out[2][1:-1] == lines[-1], (a, b, bounds)
            met[name] = met.get(name, 0) + 1
            assert out[0] <= chain_oracle(a, b, bounds) + 1e-10, (a, b, bounds)
        return out

    def unfolded(*args):
        lines.append(real_unfolded(*args))
        return lines[-1]

    monkeypatch.setattr(geodesics, "_solve_piece", piece)
    monkeypatch.setattr(geodesics, "_unfolded", unfolded)
    rng = np.random.default_rng(2626)
    for name in BUNDLED:
        cx = load_bundled(name)[0]
        for i in range(300):
            distance(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
    assert met["squares5"] >= 20 and met["quadrant_window"] >= 20, met
    assert newton_steps[0] == 0


def test_cold_certificate_check_takes_no_newton_step(newton_steps):
    """The membership certificate at the squares5 point (0, 0, 0.3326),
    checked on a cold cache, holds without one Newton step."""
    _, A = load_bundled("squares5")
    x = (0.0, 0.0, 0.3326)
    cert = recognize(A, x).certificate
    A.cx._geo_cache.clear()
    assert verify_certificate(A, x, cert).ok
    assert newton_steps[0] == 0


def test_unfolded_squares5_chain_has_its_closed_form(newton_steps):
    """squares5's chain c002 (the square x in [-1, 0], y in [0, 1]), c003
    (x in [-1, 0], z in [0, 1]) and c014 (y in [-1, 0], z in [0, 1]) unfolds
    into three squares of the plane of c002, with c003 below it and c014 to
    the right of c003.  From (-0.9, 0.2, 0) to (0, -0.2, 0.9), at
    (0.2, -0.9) in that frame, the line crosses the two gates at
    (-0.7, 0, 0) and (0, 0, 0.7): length 1.1 sqrt(2), as SLSQP finds, with
    no Newton step.  Ends on the first gate's line, where the line runs
    along the gate, get no unfolded start, and the path through the origin
    is found from the usual starts."""
    cx, _ = load_bundled("squares5")
    chain, a, b = ("c002", "c003", "c014"), (-0.9, 0.2, 0.0), (0.0, -0.2, 0.9)
    gates = [cx._boxes[dict(cx.adjacency[c])[d]] for c, d in zip(chain, chain[1:])]
    val, pts = geodesics.chain_length(cx, a, b, chain)
    assert val == pytest.approx(1.1 * R2, abs=1e-15)
    assert pts[1] == pytest.approx((-0.7, 0.0, 0.0), abs=1e-15)
    assert pts[2] == pytest.approx((0.0, 0.0, 0.7), abs=1e-15)
    assert val == pytest.approx(chain_oracle(a, b, gates), abs=1e-10)
    assert distance(cx, a, b) == val and newton_steps[0] == 0
    cells = [cx._boxes[c] for c in chain]
    a, b = (-0.5, 0.0, 0.0), (0.0, -0.5, 0.0)
    assert geodesics._unfolded(a, b, cells, gates) is None
    assert geodesics.chain_length(cx, a, b, chain)[0] == pytest.approx(1.0, abs=1e-12)


STAIR_ENDS = ((0.5, -0.5, 0.5), (-0.5, 1.5, 1.5))   # first and last cube of the staircase


def test_uncertified_unfolded_start_falls_back(newton_steps):
    """Through the staircase's five cubes, whose faces leave every frame as
    it is, the geodesic wraps the reflex edge x = y = 0: the string is
    pulled tight onto points of the gates' edges that are not the bends, so
    its start does not certify, and Newton's method runs from the usual
    starts to SLSQP's length."""
    cx = complex_from_dict(STAIRCASE)
    chain = ("c057", "c003", "c015", "c023", "c039")
    gates = [cx._boxes[dict(cx.adjacency[c])[d]] for c, d in zip(chain, chain[1:])]
    line = geodesics._unfolded(*STAIR_ENDS, [cx._boxes[c] for c in chain], gates)
    assert line == [(0.0, 0.0, 1.0)] * 3 + [(-1 / 3, 1.0, 4 / 3)]
    val, pts = geodesics.chain_length(cx, *STAIR_ENDS, chain)
    assert pts[1:-1] != line and newton_steps[0] > 0
    assert val == pytest.approx(chain_oracle(*STAIR_ENDS, gates), abs=1e-10)


def test_non_facet_chains_get_no_unfolded_start(monkeypatch):
    """On cube_square the cube c009 and the square c002 meet in the edge
    c011, a facet of the square but not of the cube, and in the staircase
    the cubes c057 and c015 meet in an edge: no unfolding, so a three-gate
    chain through that edge is solved from the usual starts alone."""
    cx, _ = load_bundled("cube_square")
    assert dict(cx.adjacency["c009"])["c002"] == "c011"
    cells, gates = [cx._boxes["c009"], cx._boxes["c002"]], [cx._boxes["c011"]]
    assert geodesics._unfolded((0.5, 0.5, 0.5), (-0.5, 0.5, 0.0), cells, gates) is None
    assert geodesics._unfolded((-0.5, 0.5, 0.0), (0.5, 0.5, 0.5), cells[::-1], gates) is None
    cx = complex_from_dict(STAIRCASE)
    real, lines = geodesics._unfolded, []

    def unfolded(*args):
        lines.append(real(*args))
        return lines[-1]

    monkeypatch.setattr(geodesics, "_unfolded", unfolded)
    val, _ = geodesics.chain_length(cx, *STAIR_ENDS, ("c057", "c015", "c023", "c039"))
    assert lines == [None]
    assert val == pytest.approx(geodesic(cx, *STAIR_ENDS).length, abs=1e-12)


# ---------------------------------------------------------------------------
# the straight-segment walk against the chain search


@pytest.mark.parametrize("name", BUNDLED + ("staircase",))
def test_walk_is_sound_and_complete(name):
    """Where the walk answers, its path is the straight segment, cell by
    cell; where it declines, the search finds a bent geodesic."""
    cx = complex_from_dict(STAIRCASE) if name == "staircase" else load_bundled(name)[0]
    rng = np.random.default_rng([83, len(name)])
    walked = 0
    for i in range(1000):
        p_loc = cx.locate(_corpus_point(cx, rng, snapped=i % 2 == 1))
        q_loc = cx.locate(_corpus_point(cx, rng, snapped=i % 4 >= 2))
        direct = math.dist(p_loc.coords, q_loc.coords)
        g = geodesics._walk(cx, p_loc.coords, q_loc.coords)
        if g is None:
            searched = geodesics._search(cx, p_loc.coords, q_loc.coords)
            assert searched.length > direct + 1e-12, (p_loc, q_loc)
            continue
        walked += 1
        assert g.length == pytest.approx(direct, abs=1e-12), (p_loc, q_loc)
        for cell, a, b in zip(g.cells, g.breakpoints, g.breakpoints[1:]):
            assert cx.cell(cell).contains(a, tol=0.0) and cx.cell(cell).contains(b, tol=0.0)
    assert walked > 0


@pytest.mark.parametrize("name", BUNDLED + ("staircase", "grid3x3x3", "grid8x8", "L8"))
def test_walk_matches_face_box_reference(name):
    """The walk that locates each exit point takes the steps of the walk
    that tests every neighbour's shared face: the same breakpoints, cells
    and length to the last bit, or None on both sides."""
    docs = {"staircase": STAIRCASE, "L8": l_shape(8)}
    if name in BUNDLED:
        cx = load_bundled(name)[0]
    else:
        cx = complex_from_dict(docs[name]) if name in docs else _grid(*(
            (3, 3, 3) if name == "grid3x3x3" else (8, 8)))
    rng = np.random.default_rng([89, len(name)])
    walked = declined = 0
    for i in range(300):
        p_loc = cx.locate(_corpus_point(cx, rng, snapped=i % 2 == 1))
        q_loc = cx.locate(_corpus_point(cx, rng, snapped=i % 4 >= 2))
        g = geodesics._walk(cx, p_loc.coords, q_loc.coords)
        assert repr(g) == repr(reference_walk(cx, p_loc, q_loc)), (p_loc, q_loc)
        walked += g is not None
        declined += g is None
    assert walked > 0
    assert declined > 0 or name.startswith("grid")


def _lattice_points(cx):
    """The vertices of ``cx``, the midpoint of each of its cells, and the
    points a third and two thirds of the way along each cell's diagonal."""
    pts = set()
    for c in cx.cells:
        for f in ((0.0,) if not c.axes else (1 / 3, 0.5, 2 / 3)):
            pts.add(tuple(b + f * (i in c.axes) for i, b in enumerate(c.base)))
    return sorted(pts)


@pytest.mark.parametrize("name", BUNDLED + ("grid3x3x3", "L6"))
def test_walk_matches_face_box_reference_on_lattice_ends(name):
    """On ends at vertices, cell midpoints and thirds, where crossings tie
    and segments run in lattice hyperplanes, the lattice walk matches the
    face-box walk bit for bit, or both decline."""
    if name in BUNDLED:
        cx = load_bundled(name)[0]
    else:
        cx = _grid(3, 3, 3) if name == "grid3x3x3" else complex_from_dict(l_shape(6))
    pts = _lattice_points(cx)
    rng = np.random.default_rng([97, len(name)])
    walked = declined = 0
    for i, j in rng.integers(len(pts), size=(2000, 2)):
        p_loc, q_loc = cx.locate(pts[i]), cx.locate(pts[j])
        g = geodesics._walk(cx, p_loc.coords, q_loc.coords)
        assert repr(g) == repr(reference_walk(cx, p_loc, q_loc)), (p_loc, q_loc)
        walked += g is not None
        declined += g is None
    assert walked > 0
    assert declined > 0 or name == "grid3x3x3"


@pytest.mark.parametrize("sizes, p, q, lookups, snaps", [
    ((10, 10), (0.0, 0.0), (10.0, 10.0), 10, 9),           # corner to corner, 9 vertices
    ((3, 3, 3), (0.1, 0.1, 0.1), (2.9, 2.9, 2.9), 3, 2),   # cube diagonal, 2 vertices
])
def test_walk_work_counts_are_pinned(monkeypatch, sizes, p, q, lookups, snaps):
    """A walk through lattice vertices looks up the key of each piece once,
    the crossings tied at each vertex moving both or all axes in one step,
    and snaps each exit point once."""
    counts = {"lookups": 0, "snaps": 0}
    cx = _grid(*sizes)
    a, b = cx.snap(p), cx.snap(q)
    real_snap = cx.snap

    class CountingIndex(dict):
        def get(self, key, default=None):
            counts["lookups"] += 1
            return super().get(key, default)

    def snap(point):
        counts["snaps"] += 1
        return real_snap(point)

    monkeypatch.setattr(cx, "_index", CountingIndex(cx._index))
    monkeypatch.setattr(cx, "snap", snap)
    g = geodesics._walk(cx, a, b)
    assert g.length == pytest.approx(math.dist(p, q), abs=1e-12)
    assert len(g.cells) == lookups
    assert counts == {"lookups": lookups, "snaps": snaps}


# ---------------------------------------------------------------------------
# the link test at a path's breakpoints, against an independent oracle


def test_geodesics_pass_the_link_test(tool):
    """Seeded geodesics on the five corpora (60 pairs each, a third of the
    ends rounded onto faces) and the first 30 pairs of each generated
    family: each passes the oracle's link test (slack at least -1e-7), and
    ``_link_slack``, taken at every breakpoint between the ends, agrees
    with the oracle's worst slack to 1e-9."""
    cases = []
    for name in BUNDLED:
        cx, _ = load_bundled(name)
        rng = np.random.default_rng([71, len(name)])
        cases += [(cx, _corpus_point(cx, rng, i % 3 == 0), _corpus_point(cx, rng, i % 3 == 1))
                  for i in range(60)]
    for total, seed, doc, ends, _ in tool.families().values():
        cx = complex_from_dict(doc)
        cases += [(cx, p, q) for p, q in tool.pairs(cx, 30, seed, ends)]
    bent = 0
    for cx, p, q in cases:
        g = geodesic(cx, p, q)
        want, b = link_slack(cx, g), g.breakpoints
        got = min((geodesics._link_slack(cx, b[j], b[j - 1], b[j + 1])
                   for j in range(1, len(b) - 1)), default=0.0)
        assert want >= -1e-7, (p, q, want)
        assert got == pytest.approx(want, abs=1e-9), (p, q)
        bent += len(g.breakpoints) > 2
    assert bent >= 150


@pytest.mark.parametrize("prev, nxt, want", [
    ((0.2, 0.0), (0.5, 0.5), -math.sqrt(2.0)),   # in along the edge, out into a square
    ((0.2, 0.0), (0.9, 0.0), 0.0),   # straight along the edge
    ((0.5, -0.5), (0.9, 0.0), -math.sqrt(2.0)),   # in from a square, out along the edge
])
def test_link_slack_with_one_side_along_the_carrier(prev, nxt, want):
    """On two unit squares either side of the edge [0, 1] x {0}, a path
    through (0.5, 0) that reaches or leaves it along the edge has no normal
    part on that side, so only the tangent test applies: the slack is minus
    the distance between the two sides' unit vectors, as the oracle gives."""
    cx = complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [0, 0], "axes": [0, 1]}, {"base": [0, -1], "axes": [0, 1]}]})
    x = (0.5, 0.0)
    cells = [cx.maximal_cells_containing([(a + b) / 2.0 for a, b in zip(*seg)])[0]
             for seg in ((prev, x), (x, nxt))]
    g = geodesics.Geodesic((prev, x, nxt), tuple(cells), math.dist(prev, x) + math.dist(x, nxt))
    got = geodesics._link_slack(cx, x, prev, nxt)
    assert got == pytest.approx(want, abs=1e-12)
    assert link_slack(cx, g) == pytest.approx(got, abs=1e-9)


def _random_chain(cx, p, q, rng, cap=10):
    """A random simple chain of at least three maximal cells from one holding
    ``p`` to one holding ``q``, of at most ``cap`` cells, or None."""
    starts, ends = cx.maximal_cells_containing(p), set(cx.maximal_cells_containing(q))
    for _ in range(100):
        chain = [rng.choice(starts)]
        while chain[-1] not in ends and len(chain) < cap:
            steps = [c for c, _ in cx.adjacency[chain[-1]] if c not in chain]
            if not steps:
                break
            chain.append(rng.choice(steps))
        if chain[-1] in ends and len(chain) >= 3:
            return chain
    return None


@pytest.mark.parametrize("name", ["L8", "L4xI", "tripod2"])
def test_non_optimal_chains_fail_the_link_test(tool, name):
    """Random simple chains between the family's first 60 pairs, solved by
    ``chain_length``: each one longer than the geodesic by more than 1e-9
    fails both the oracle's test and ``_link_slack``, taken at every
    breakpoint between the ends, and each other one passes both."""
    total, seed, doc, ends, _ = tool.families()[name]
    cx = complex_from_dict(doc)
    rng = random.Random(11)
    longer = 0
    for p, q in tool.pairs(cx, 60, seed, ends):
        chain = _random_chain(cx, p, q, rng)
        if chain is None:
            continue
        val, pts = geodesics.chain_length(cx, p, q, chain)
        g = geodesics._assemble(chain, [cx.snap(p), *map(cx.snap, pts[1:-1]), cx.snap(q)])
        b = g.breakpoints
        slack = min((geodesics._link_slack(cx, b[j], b[j - 1], b[j + 1])
                     for j in range(1, len(b) - 1)), default=0.0)
        worse = val > distance(cx, p, q) + 1e-9
        assert (link_slack(cx, g) < -1e-7, slack < -1e-7) == (worse, worse), (p, q, chain)
        longer += worse
    assert longer >= 45


# ---------------------------------------------------------------------------
# the heap behind the warm start, and the guard that keeps warm starts to CAT(0)


@pytest.fixture
def pushes(monkeypatch):
    """The number of ``heapq.heappush`` calls so far, as a one-item list."""
    count = [0]
    real = heapq.heappush

    def counted(heap, item):
        count[0] += 1
        return real(heap, item)

    monkeypatch.setattr(geodesics.heapq, "heappush", counted)
    return count


@pytest.mark.parametrize("first, then, cold", [
    pytest.param((-1.7, 0.83), (-1.93, 0.84), 28, id="first0-then0-28-0"),
    pytest.param((-1.6, 1.97), (-1.64, 1.31), 103, id="first1-then1-103-103"),
])
def test_hinted_search_takes_its_pinned_pushes(pushes, first, then, cold):
    """Around the reflex vertex of quadrant_window, a search to q = (sqrt 3,
    0) takes ``cold`` heap pushes on a fresh complex.  After a search from
    ``first``, which starts in the same cell and stores a pivot, it takes
    as many once that pivot is emptied: the pivot is the one warm start.
    Both results equal the fresh complex's geodesic."""
    q = (R3, 0.0)
    fresh, _ = load_bundled("quadrant_window")
    want = geodesic(fresh, then, q)
    assert pushes[0] == cold
    cx, _ = load_bundled("quadrant_window")
    g = geodesic(cx, first, q)
    assert list(cx._pivots) == [(g.cells[0], q)] and g.cells[0] == want.cells[0]
    cx._pivots.clear()
    pushes[0] = 0
    assert geodesic(cx, then, q) == want
    assert pushes[0] == cold


def _annulus():
    """The 3x3 square annulus: [0, 3]^2 less the open unit square at its centre."""
    return complex_from_dict({"ambient_dim": 2, "cells": [
        {"base": [i, j], "axes": [0, 1]} for i in range(3) for j in range(3) if (i, j) != (1, 1)]})


def test_hints_are_kept_only_on_complexes_proved_cat0():
    """On the annulus a path round the far side of the hole passes the link
    test, so a pivot could return it.  ``validate`` proves no simple
    connectivity there, so none is stored, and the distance from
    (2.9, 2.4) to (0.5, 0.5) after a search from (2.4, 2.9), whose winner
    goes round the other side through the vertex (1, 2), is that of a fresh
    complex, round (2, 1)."""
    cx, fresh = _annulus(), _annulus()
    assert cx.validate().ok and not cx.validate().cat0
    assert cx.validate().simple_connectivity == "not proved"
    g = geodesic(cx, (2.4, 2.9), (0.5, 0.5))
    assert len(g.cells) > 2 and (1.0, 2.0) in g.breakpoints and cx._pivots == {}
    want = distance(fresh, (2.9, 2.4), (0.5, 0.5))
    assert distance(cx, (2.9, 2.4), (0.5, 0.5)) == want
    assert want == pytest.approx(math.dist((2.9, 2.4), (2, 1)) + math.dist((2, 1), (0.5, 0.5)))


# ---------------------------------------------------------------------------
# pivots: an earlier geodesic's tail from its first vertex, joined to a walk


def test_a_pivot_answers_the_two_sided_pair_with_no_push(pushes, monkeypatch):
    """A pair whose paths pass the reflex vertex on its two sides: after
    (-1.6, 1.97), the search from (-1.64, 1.31) to (sqrt 3, 0)
    walks to the origin, the first search's pivot, passes the link test
    there and joins that search's tail, with no heap push and no
    ``chain_length`` call.  The answer equals the fresh complex's geodesic,
    and the first search's pivot stays."""
    q = (R3, 0.0)
    fresh, _ = load_bundled("quadrant_window")
    want = geodesic(fresh, (-1.64, 1.31), q)
    cx, _ = load_bundled("quadrant_window")
    g = geodesic(cx, (-1.6, 1.97), q)
    pivots = dict(cx._pivots)
    tail = geodesics._assemble(g.cells[3:], g.breakpoints[3:])
    assert g.breakpoints[3] == (0.0, 0.0) and pivots == {(g.cells[0], q): ((0.0, 0.0), tail)}
    pushes[0] = 0
    solves, real = [], geodesics.chain_length
    monkeypatch.setattr(geodesics, "chain_length", lambda *a: solves.append(a) or real(*a))
    assert geodesic(cx, (-1.64, 1.31), q) == want
    assert pushes[0] == 0 and solves == []
    assert cx._pivots == pivots


def test_a_pivot_that_fails_the_link_test_is_dropped(monkeypatch):
    """The path from (-1.41, 1.41) to (sqrt 3, 0) runs through the vertex
    (-1, 1) before it bends at the origin, so (-1, 1) is its pivot.  From
    (-1.17, 1.71), in the same start cell, the walk to (-1, 1) and that
    pivot's tail turn by less than pi there: the link test fails, the pivot
    is dropped and the heap answers as on a fresh complex.  With the heap's
    winner kept out, the table is left empty."""
    q = (R3, 0.0)
    cx, _ = load_bundled("quadrant_window")
    geodesic(cx, (-1.41, 1.41), q)
    assert [v for v, _ in cx._pivots.values()] == [(-1.0, 1.0)]
    slacks, real = [], geodesics._link_slack
    monkeypatch.setattr(geodesics, "_link_slack",
                        lambda cx, x, *a: slacks.append((x, real(cx, x, *a))) or slacks[-1][1])
    monkeypatch.setattr(geodesics, "_store", lambda table, key, value: None)
    fresh, _ = load_bundled("quadrant_window")
    assert geodesic(cx, (-1.17, 1.71), q) == geodesic(fresh, (-1.17, 1.71), q)
    assert slacks[0][0] == (-1.0, 1.0) and slacks[0][1] < -1e-7
    assert cx._pivots == {}


def test_a_pivot_at_the_start_point_is_dropped():
    """A search that starts at its pivot's vertex has no walk to join: the
    pivot (-1, 1) of the path from (-1.41, 1.41) to (sqrt 3, 0) is dropped by
    the search from (-1, 1), which the heap answers as on a fresh complex,
    leaving its own pivot, the origin."""
    q = (R3, 0.0)
    cx, _ = load_bundled("quadrant_window")
    fresh, _ = load_bundled("quadrant_window")
    geodesic(cx, (-1.41, 1.41), q)
    assert [v for v, _ in cx._pivots.values()] == [(-1.0, 1.0)]
    g = geodesic(cx, (-1.0, 1.0), q)
    assert g == geodesic(fresh, (-1.0, 1.0), q)
    tail = geodesics._assemble(g.cells[1:], g.breakpoints[1:])
    assert cx._pivots == {(g.cells[0], q): ((0.0, 0.0), tail)}


def test_a_cube_square_pivot_at_a_gate_end_is_dropped(monkeypatch):
    """On cube_square every bent geodesic crosses the gate edge {0} x [0, 1]
    x {0}, so its pivot is an end of that edge, and only a query end on the
    face y = 1 or y = 0 bends there.  The path from (-0.5, 1, 0) to r = (1,
    1, 1) stores the pivot (0, 1, 0); the search from (-0.5, 0.5, 0), in
    the same start cell, fails the link test there, drops it and answers as
    on a fresh complex, bending inside the edge at (0, 0.6306..., 0)."""
    q = (1.0, 1.0, 1.0)
    cx, _ = load_bundled("cube_square")
    g = geodesic(cx, (-0.5, 1.0, 0.0), q)
    assert g.breakpoints[1] == (0.0, 1.0, 0.0)
    assert [v for v, _ in cx._pivots.values()] == [(0.0, 1.0, 0.0)]
    slacks, real = [], geodesics._link_slack
    monkeypatch.setattr(geodesics, "_link_slack",
                        lambda cx, x, *a: slacks.append((x, real(cx, x, *a))) or slacks[-1][1])
    fresh, _ = load_bundled("cube_square")
    g = geodesic(cx, (-0.5, 0.5, 0.0), q)
    assert g == geodesic(fresh, (-0.5, 0.5, 0.0), q)
    assert slacks[0][0] == (0.0, 1.0, 0.0) and slacks[0][1] < -1e-7
    assert g.cells[0] == "c002" and cx._pivots == {}
    (x, y, z), = g.breakpoints[1:-1]
    assert (x, z) == (0.0, 0.0) and y == pytest.approx(0.6306019374818707, abs=1e-12)


def test_pivot_table_never_exceeds_the_cache_size(monkeypatch):
    """With room for 4 pivots, 12 quadrant_window searches to different
    ends, each bent at the origin, keep at most 4, the last 4 stored: the
    oldest goes first."""
    monkeypatch.setattr(geodesics, "_CACHE_SIZE", 4)
    cx, _ = load_bundled("quadrant_window")
    stored = []
    for k in range(12):
        q = (1.0 + k / 12.0, -0.5)
        g = geodesic(cx, (-0.5, 1.5), q)
        assert (0.0, 0.0) in g.breakpoints and len(cx._pivots) <= 4
        stored.append((g.cells[0], q))
    assert list(cx._pivots) == stored[-4:]


def test_threads_share_a_full_pivot_table_safely(monkeypatch):
    """Four quadrant_window heat-map threads that store, use, drop and evict
    pivots in one table of 4 entries, switching every microsecond, raise
    nothing, leave at most 4 pivots and write the CSV that one thread
    writes."""
    monkeypatch.setattr(geodesics, "_CACHE_SIZE", 4)
    cx, A = load_bundled("quadrant_window")
    csv1 = to_csv(run_heatmap(A, 40, 31, 0.1, threads=1), cx.ambient_dim)
    cx._geo_cache.clear()
    cx._pivots.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        csv4 = to_csv(run_heatmap(A, 40, 31, 0.1, threads=4), cx.ambient_dim)
    finally:
        sys.setswitchinterval(interval)
    assert csv4 == csv1
    assert 0 < len(cx._pivots) <= 4


@pytest.mark.parametrize("name", BUNDLED)
def test_pivot_answers_equal_the_heap_answers(name):
    """Seeded corpus points (a third rounded onto faces) to every point of
    ``A``, on one complex that keeps its pivots: each search that a pivot
    answers gives the same breakpoints and length, compared with ``==``, as
    the heap on a fresh complex with empty tables.  Pivots answer at least
    20 searches on each corpus but cube_square, where the few pivots tried
    at these points all fail the link test."""
    cx, A = load_bundled(name)
    fresh, _ = load_bundled(name)
    rng = np.random.default_rng([37, len(name)])
    answered = 0
    for i in range(40):
        x = cx.locate(_corpus_point(cx, rng, i % 3 == 0))
        for a in A.points.values():
            cx._geo_cache.clear()
            starts = cx._owners[x.minimal_cell]
            key = next((k for s in starts if (k := (s, a.coords)) in cx._pivots), None)
            pivot = cx._pivots.get(key)
            g = geodesic(cx, x, a)
            if pivot is None or cx._pivots.get(key) is not pivot:   # none, or dropped
                continue
            fresh._pivots.clear()
            want = geodesics._search(fresh, x.coords, a.coords)
            assert (g.breakpoints, g.length) == (want.breakpoints, want.length), (x, a)
            answered += 1
    assert answered >= (0 if name == "cube_square" else 20), answered

