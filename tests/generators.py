"""Generated complexes larger or stranger than the bundled five, as
``complex_from_dict`` documents."""


def l_shape(k: int) -> dict:
    """A k x k grid of unit squares with corner (0, 0), minus the squares
    whose coordinates are both at least k // 2: an L whose geodesics bend
    at the reflex vertex (k // 2, k // 2).  ``quadrant_window`` is the case
    k = 4, moved by (-2, -2).
    """
    h = k // 2
    return {"ambient_dim": 2, "cells": [{"base": [x, y], "axes": [0, 1]}
                                        for x in range(k) for y in range(k) if x < h or y < h]}


# five cubes winding around two reflex edges, one along z and one along x;
# geodesics that wrap an edge cross two gates at one point of it
STAIRCASE = {"ambient_dim": 3, "cells": [
    {"base": b, "axes": [0, 1, 2]}
    for b in ([0, -1, 0], [-1, -1, 0], [-1, 0, 0], [-1, 0, 1], [-1, 1, 1])
]}

# the interval [0, 2] as two unit segments
INTERVAL = {"ambient_dim": 1, "cells": [{"base": [0], "axes": [0]}, {"base": [1], "axes": [0]}]}


def product(doc1: dict, doc2: dict) -> dict:
    """The product of two complexes, each given as ``complex_from_dict``
    reads it: its cells are the products of a cell of each, the second
    factor's axes shifted past the first's.  With the l2 metric distances
    combine as ``sqrt(d1^2 + d2^2)``, and a product of CAT(0) complexes is
    CAT(0) (Bridson and Haefliger, Part II, Ch. 1)."""
    n = doc1["ambient_dim"]
    return {"ambient_dim": n + doc2["ambient_dim"],
            "cells": [{"base": c["base"] + e["base"], "axes": c["axes"] + [n + i for i in e["axes"]]}
                      for c in doc1["cells"] for e in doc2["cells"]]}
