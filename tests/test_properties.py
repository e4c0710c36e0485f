"""Property checks of straight geodesics on generated full grids.

An n x m (or n x m x k) grid of unit cells fills a box, which is convex, so
the geodesic between any two of its points is the straight segment: its
length is ``|p - q|`` and the walk carries it cell by cell.  Coordinates
are drawn either as lattice integers or as arbitrary floats of the box, so
segments run along faces and through vertices as well as across cells.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from meanset import complex_from_dict, distance
from meanset import geodesics

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _grid(sizes):
    axes = list(range(len(sizes)))
    return complex_from_dict({"ambient_dim": len(sizes), "cells": [
        {"base": list(base), "axes": axes}
        for base in itertools.product(*(range(s) for s in sizes))
    ]})


@st.composite
def grid_pairs(draw):
    """``(sizes, p, q)``: a grid of 2 or 3 axes of 1-4 cells each and two
    points of its box."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))

    def point():
        return tuple(draw(st.one_of(st.integers(0, s).map(float),
                                    st.floats(0.0, float(s), allow_nan=False)))
                     for s in sizes)

    return sizes, point(), point()


@PROPERTY
@given(grid_pairs())
def test_grid_distance_is_euclidean(case):
    sizes, p, q = case
    assert math.isclose(distance(_grid(sizes), p, q), math.dist(p, q), rel_tol=0.0, abs_tol=1e-9)


@PROPERTY
@given(grid_pairs())
def test_grid_distance_is_symmetric(case):
    # separate complexes, so the reverse query is solved, not read from the cache
    sizes, p, q = case
    there, back = distance(_grid(sizes), p, q), distance(_grid(sizes), q, p)
    assert math.isclose(there, back, rel_tol=0.0, abs_tol=1e-12)


@PROPERTY
@given(grid_pairs())
def test_walked_breakpoints_lie_in_their_cells(case):
    sizes, p, q = case
    cx = _grid(sizes)
    g = geodesics._walk(cx, cx.locate(p), cx.locate(q))
    assert g is not None
    for cell, a, b in zip(g.cells, g.breakpoints, g.breakpoints[1:]):
        assert cx.cell(cell).contains(a, tol=0.0) and cx.cell(cell).contains(b, tol=0.0)
