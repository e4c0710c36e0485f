"""Generated complexes larger or stranger than the bundled five, as
``complex_from_dict`` documents."""

import itertools


def l_shape(k: int) -> dict:
    """A k x k grid of unit squares with corner (0, 0), minus the squares
    whose coordinates are both at least k // 2: an L whose geodesics bend
    at the reflex vertex (k // 2, k // 2).  ``quadrant_window`` is the case
    k = 4, moved by (-2, -2).
    """
    h = k // 2
    return {"ambient_dim": 2, "cells": [{"base": [x, y], "axes": [0, 1]}
                                        for x in range(k) for y in range(k) if x < h or y < h]}


def grid(*sizes: int) -> dict:
    """A full grid of unit cubes with corner at the origin, ``sizes[i]`` along
    axis i: a box of R^n, convex, so every geodesic is straight and the
    distance is ``|p - q|``."""
    axes = list(range(len(sizes)))
    return {"ambient_dim": len(sizes), "cells": [
        {"base": list(base), "axes": axes} for base in itertools.product(*map(range, sizes))]}


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


def tree_space(n: int) -> dict:
    """The space of phylogenetic trees on n leaves (Billera, Holmes and
    Vogtmann, *Adv. Appl. Math.* 27, 2001), its edge lengths cut at 1.  One
    axis per split, a set S of leaves with 2 <= |S| <= n / 2, of S and its
    complement at |S| = n / 2 the one that holds leaf 0.  Two splits are
    compatible when S & T, S - T, T - S or the leaves outside both is empty.
    One cell at base 0 per maximal compatible set, a binary tree's n - 3
    splits: (2n - 5)!! cells, 15, 105 and 945 for n = 5, 6 and 7."""
    leaves = frozenset(range(n))
    splits = [frozenset(s) for r in range(2, n // 2 + 1)
              for s in itertools.combinations(range(n), r) if 2 * r < n or 0 in s]

    def compatible(s, t):
        return not (s & t and s - t and t - s and leaves - s - t)

    cells = [()]
    for _ in range(n - 3):   # the compatible sets of n - 3 splits, grown in axis order
        cells = [c + (j,) for c in cells for j in range(c[-1] + 1 if c else 0, len(splits))
                 if all(compatible(splits[i], splits[j]) for i in c)]
    return {"ambient_dim": len(splits),
            "cells": [{"base": [0] * len(splits), "axes": list(c)} for c in cells]}


def subdivide(doc: dict, k: int = 2) -> dict:
    """The cubical subdivision of a complex given as ``complex_from_dict``
    reads it: each cell with base b becomes the k^dim cells with bases
    k b + e, e in {0, ..., k - 1} on the cell's axes and 0 off them.  It is
    the same metric space scaled by k, so every answer at x has a twin at
    k x, and ``distance(sub, k p, k q) == k * distance(cx, p, q)``."""
    cells = []
    for c in doc["cells"]:
        for e in itertools.product(range(k), repeat=len(c["axes"])):
            base = [k * b for b in c["base"]]
            for ax, step in zip(c["axes"], e):
                base[ax] += step
            cells.append({"base": base, "axes": list(c["axes"])})
    return {"ambient_dim": doc["ambient_dim"], "cells": cells}
