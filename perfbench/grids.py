"""Generated grid complexes and their straight-line distance oracle.

An n x m grid of unit squares (or an n x m x k grid of unit cubes) fills a
box of R^2 (R^3).  The box is convex, so the geodesic between two of its
points is the straight segment and ``|p - q|`` is the exact distance.  The
oracle shares no code with the geodesic solver it checks.
"""

from __future__ import annotations

import itertools
import math


def grid_document(*sizes: int) -> dict:
    """The ``complex_from_dict`` document of a full grid of unit cubes.

    ``grid_document(8, 8)`` gives 64 squares; ``grid_document(3, 3, 3)``
    gives 27 cubes.  Every cell spans all axes.
    """
    if not sizes or any(not isinstance(s, int) or s < 1 for s in sizes):
        raise ValueError("grid sizes must be positive integers")
    axes = list(range(len(sizes)))
    cells = [
        {"base": list(base), "axes": axes}
        for base in itertools.product(*(range(s) for s in sizes))
    ]
    return {"ambient_dim": len(sizes), "cells": cells}


def uniform_point(rng, sizes) -> tuple:
    """A uniform point of the grid's box ``[0, sizes[0]] x ...``."""
    return tuple(float(s * rng.random()) for s in sizes)


def straight_distance(p, q) -> float:
    """Exact geodesic distance inside a full grid: the Euclidean length."""
    return math.dist(p, q)
