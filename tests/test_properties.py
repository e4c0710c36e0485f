"""Property checks of geodesics and certificates on generated and bundled complexes.

An n x m (or n x m x k) grid of unit cells fills a box, which is convex, so
the geodesic between any two of its points is the straight segment: its
length is ``|p - q|`` and the walk carries it cell by cell.  Coordinates
are drawn either as lattice integers or as arbitrary floats of the box, so
segments run along faces and through vertices as well as across cells.

On the L-shapes of ``generators.l_shape`` geodesics bend at the reflex
vertex, so ``distance`` there comes from the chain search; it must be a
CAT(0) metric (symmetric, with the triangle and CN midpoint inequalities)
and agree with ``oracles.polyomino_distance``.  L4 and L6 are drawn; a bent
pair on L8 takes up to 0.7 s and one on L10 minutes, so larger L-shapes wait
for a search that is not exponential around the bend.

Every certificate ``recognize`` hands out at seeded points of the five
corpora must pass ``verify_certificate``, and a non-member's certified
lower bound must be its smallest stored margin.  A lattice symmetry (signed
axis permutation, integer shift, shuffled cells) applied to a corpus and
its point set changes no decision, deficit or distance, and so does the
subdivision that scales tripod, squares3 and quadrant_window by 2.

The typed-error sweep gives each argument of 17 public entries its valid
value or a malformed one: every call answers with no NaN or raises one of
the package's typed errors or a ValueError.
"""

import copy
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from generators import grid, l_shape, subdivide
from meanset import (
    CertificateError,
    ComplexError,
    ConvergenceError,
    GeodesicError,
    LocationError,
    PointSetA,
    box_segment_min,
    certified_lower_bound,
    complex_from_dict,
    distance,
    geodesic,
    load_bundled,
    mean_deficit,
    midpoint,
    min_norm_point,
    point_along,
    recognize,
    run_heatmap,
    segment_probes,
    to_csv,
    verify_certificate,
)
from meanset import geodesics
from meanset.complexes import read_json
from meanset.corpus import BUNDLED, data_path, expected
from meanset.recognition import random_point
from oracles import polyomino_distance

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _grid(sizes):
    return complex_from_dict(grid(*sizes))


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
    g = geodesics._walk(cx, cx.snap(p), cx.snap(q))
    assert g is not None
    for cell, a, b in zip(g.cells, g.breakpoints, g.breakpoints[1:]):
        assert cx.cell(cell).contains(a, tol=0.0) and cx.cell(cell).contains(b, tol=0.0)


@st.composite
def l_shape_points(draw):
    """``(k, squares, points)``: an L-shape of side 4 or 6, its squares' lower-left
    corners and three points of it, each in a drawn square with coordinates
    that are lattice integers or arbitrary floats of the square."""
    k = draw(st.sampled_from((4, 6)))
    squares = [tuple(c["base"]) for c in l_shape(k)["cells"]]

    def point():
        corner = draw(st.sampled_from(squares))
        return tuple(float(c) + draw(st.one_of(st.integers(0, 1).map(float),
                                               st.floats(0.0, 1.0, allow_nan=False)))
                     for c in corner)

    return k, squares, (point(), point(), point())


def _l_distance(k, p, q):
    # a new complex per query, so that no answer is read from the geodesic cache
    return distance(complex_from_dict(l_shape(k)), p, q)


@PROPERTY
@given(l_shape_points())
def test_l_shape_distance_matches_the_polyomino_oracle(case):
    k, squares, (p, q, _) = case
    want = polyomino_distance(squares, p, q)
    assert math.isclose(_l_distance(k, p, q), want, rel_tol=0.0, abs_tol=1e-9)


@PROPERTY
@given(l_shape_points())
def test_l_shape_distance_is_symmetric(case):
    k, _, (p, q, _) = case
    assert math.isclose(_l_distance(k, p, q), _l_distance(k, q, p), rel_tol=0.0, abs_tol=1e-9)


@PROPERTY
@given(l_shape_points())
def test_l_shape_distance_obeys_the_triangle_inequality(case):
    k, _, (p, q, r) = case
    assert _l_distance(k, p, r) <= _l_distance(k, p, q) + _l_distance(k, q, r) + 1e-9


@PROPERTY
@given(l_shape_points())
def test_l_shape_midpoints_obey_the_cn_inequality(case):
    """Bruhat-Tits: d(r, m)^2 <= (d(r, p)^2 + d(r, q)^2) / 2 - d(p, q)^2 / 4 for
    the midpoint m of p and q, the inequality that makes the space CAT(0)."""
    k, _, (p, q, r) = case
    cx = complex_from_dict(l_shape(k))
    m = midpoint(cx, p, q)
    bound = (distance(cx, r, p) ** 2 + distance(cx, r, q) ** 2) / 2 - distance(cx, p, q) ** 2 / 4
    assert distance(cx, r, m) ** 2 <= bound + 1e-9


def _corpus_points(cx, rng, count):
    """Uniform points of the maximal cells; every fourth has a nonempty random
    subset of its free coordinates rounded, onto a face or a vertex."""
    out = []
    for i in range(count):
        cid, pt = random_point(cx, rng)
        if i % 4 == 3:
            lo, hi = cx._boxes[cid]
            free = [j for j in range(len(pt)) if hi[j] > lo[j]]
            snapped = rng.sample(free, 1 + int(rng.random() * len(free)))
            pt = tuple(float(round(x)) if j in snapped else x for j, x in enumerate(pt))
        out.append(pt)
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_certificates_re_verify(name):
    cx, A = load_bundled(name)
    kinds = set()
    for x in _corpus_points(cx, random.Random(f"certificates:{name}"), 40):
        cert = recognize(A, x).certificate
        kinds.add(cert.kind)
        report = verify_certificate(A, x, cert, samples=8)
        assert report.ok, (name, x, report.failures)
        if cert.kind != "membership":
            assert certified_lower_bound(A, x, cert) == min(cert.margins.values()), (name, x)
    assert "non-membership" in kinds


def _signed_permutation(doc, points, rng):
    """The document ``doc`` and the ``points`` under one seeded lattice
    symmetry: x -> y with ``y[perm[i]] = sign[i] x[i] + shift[perm[i]]``, an
    integer shift of at most 3 a coordinate, and the cells in shuffled order."""
    n = doc["ambient_dim"]
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    shift = [rng.randint(-3, 3) for _ in range(n)]
    cells = []
    for c in doc["cells"]:
        base = [0] * n
        for i, b in enumerate(c["base"]):
            base[perm[i]] = sign[i] * b + shift[perm[i]] - (sign[i] < 0 and i in c["axes"])
        cells.append({"base": base, "axes": sorted(perm[i] for i in c["axes"])})
    rng.shuffle(cells)

    def image(x):
        y = [0.0] * n
        for i, xi in enumerate(x):
            y[perm[i]] = sign[i] * xi + shift[perm[i]]
        return tuple(y)

    return {"ambient_dim": n, "cells": cells}, {l: image(x) for l, x in points.items()}, image


@pytest.mark.parametrize("name", BUNDLED)
def test_lattice_symmetries_keep_every_answer(name):
    """A signed axis permutation with an integer shift is an isometry of the
    lattice, and cell order is no part of a complex: at 20 seeded points (every
    fourth on a face or a vertex), ``recognize`` decides the same on the moved
    complex and point set, and deficits and distances agree to 1e-12."""
    cx, A = load_bundled(name)
    rng = random.Random(f"symmetry:{name}")
    doc, points, image = _signed_permutation(read_json(data_path(f"{name}.json")),
                                             {l: A.coords(l) for l in A.labels}, rng)
    moved = PointSetA(complex_from_dict(doc), points)
    for x in _corpus_points(cx, rng, 20):
        want, got = recognize(A, x), recognize(moved, image(x))
        assert got.decision == want.decision, (name, x)
        assert math.isclose(got.deficit, want.deficit, rel_tol=0.0, abs_tol=1e-12), (name, x)
        there, here = A.distances_from(x), moved.distances_from(image(x))
        for l in A.labels:
            assert math.isclose(here[l], there[l], rel_tol=0.0, abs_tol=1e-12), (name, x, l)



@pytest.mark.parametrize("name", ["tripod", "squares3", "quadrant_window"])
def test_subdivision_is_the_complex_scaled_by_two(name):
    """The cubical subdivision (``generators.subdivide``) is the same space
    scaled by 2: every frozen member and non-member, doubled, keeps its
    decision there, and at 20 seeded pairs ``distance(sub, 2p, 2q)`` is
    ``2 distance(cx, p, q)`` to 1e-12 relative.  squares5 and cube_square
    take about a second each on their subdivisions, so they wait for a
    search whose cost does not grow with the cells along a path."""
    cx, A = load_bundled(name)
    sub = complex_from_dict(subdivide(read_json(data_path(f"{name}.json"))))
    twice = PointSetA(sub, {l: [2.0 * v for v in A.coords(l)] for l in A.labels})
    for kind, decision in (("members", "member"), ("non_members", "non-member")):
        for x in expected(name)[kind]:
            assert recognize(twice, [2.0 * v for v in x]).decision == decision, (name, x)
    rng = random.Random(f"subdivision:{name}")
    for _ in range(20):
        p, q = random_point(cx, rng)[1], random_point(cx, rng)[1]
        want = 2.0 * distance(cx, p, q)
        got = distance(sub, [2.0 * v for v in p], [2.0 * v for v in q])
        assert abs(got - want) <= 1e-12 * want, (name, p, q, got, want)


# every argument of the sweep below is its valid value or one of these
MENU = (None, True, "x", math.nan, math.inf, -1, 2.5, [], [[0.0]], (0.5, 0.0, 0.0), {})
TYPED = (ComplexError, LocationError, GeodesicError, CertificateError, ConvergenceError,
         ValueError)


@pytest.fixture(scope="module")
def entries():
    """Public entries with valid arguments on squares3, by name."""
    cx, A = load_bundled("squares3")
    inside, outside, p, q = (0.5, 0.0), (0.5, -0.5), (0.9, -0.2), (-0.2, 0.9)
    g = geodesic(cx, p, q)
    return {
        "recognize": (recognize, A, inside, 1e-8),
        "mean_deficit": (mean_deficit, A, outside),
        "verify_certificate": (verify_certificate, A, inside, recognize(A, inside).certificate,
                               3, 7, 1e-7),
        "certified_lower_bound": (certified_lower_bound, A, outside,
                                  recognize(A, outside).certificate),
        "run_heatmap": (run_heatmap, A, 2, 1, 0.1, 1),
        "segment_probes": (segment_probes, A, inside, outside, 2, 0.1),
        "to_csv": (to_csv, run_heatmap(A, 2, 1, 0.1), 2),
        "distance": (distance, cx, p, q),
        "geodesic": (geodesic, cx, p, q),
        "midpoint": (midpoint, cx, p, q),
        "point_along": (point_along, g, 0.5),
        "chain_length": (geodesics.chain_length, cx, p, q, g.cells),
        "box_segment_min": (box_segment_min, (0.0, 0.0), (2.0, 1.0), (1.0, 0.0), (1.0, 1.0)),
        "min_norm_point": (min_norm_point, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]]),
        "complex_from_dict": (complex_from_dict, read_json(data_path("squares3.json"))),
        "PointSetA": (PointSetA, cx, {"a": inside, "b": outside}),
        "PointSetA.from_coords": (PointSetA.from_coords, cx, [inside, outside], ["a", "b"]),
    }


def _floats(obj, seen):
    """Every float reachable from ``obj`` through containers and attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _floats(k, seen)
            yield from _floats(v, seen)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _floats(v, seen)
    elif hasattr(obj, "__dict__"):
        yield from _floats(vars(obj), seen)


@pytest.mark.parametrize("name", ["recognize", "mean_deficit", "verify_certificate",
                                  "certified_lower_bound", "run_heatmap", "segment_probes",
                                  "to_csv", "distance", "geodesic", "midpoint", "point_along",
                                  "chain_length", "box_segment_min", "min_norm_point",
                                  "complex_from_dict", "PointSetA", "PointSetA.from_coords"])
@PROPERTY
@given(data=st.data())
def test_every_argument_gets_an_answer_or_a_typed_error(entries, name, data):
    """Each argument is its valid value or a value of ``MENU``: the call
    answers, with no NaN anywhere in the answer, or raises one of the
    package's typed errors or a ValueError, never a bare TypeError,
    AttributeError, KeyError or IndexError."""
    call, *valid = entries[name]
    args = [data.draw(st.one_of(st.just(v), st.sampled_from(MENU).map(copy.deepcopy)),
                      label=f"argument {i}") for i, v in enumerate(valid)]
    try:
        out = call(*args)
    except TYPED:
        return
    if isinstance(out, str):
        assert "nan" not in out
    assert not any(map(math.isnan, _floats(out, set())))
