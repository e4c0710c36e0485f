"""Every bundled example must reproduce its frozen expected results.

The expectations live in ``meanset/data/*_expected.json`` and pin distances,
membership decisions, deficit values, certificate weights, and geodesic
breakpoints that were computed once and written down.  A regression in any
numeric kernel shows up here first.
"""

import numpy as np
import pytest

from meanset import (
    certified_lower_bound,
    distance,
    geodesic,
    mean_deficit,
    recognize,
    test_function_line_search as line_search,
)
from meanset import ComplexError, load_bundled, load_complex
from meanset.corpus import BUNDLED, expected, load_point_set

ALL = sorted(BUNDLED)


@pytest.mark.parametrize("name", ALL)
def test_bundled_complex_validates(bundles, name):
    cx, _ = bundles[name]
    rep = cx.validate()
    assert rep.ok, rep.link_violations


@pytest.mark.parametrize("name", ALL)
def test_frozen_pairwise_distances(bundles, name):
    cx, A = bundles[name]
    for row in expected(name)["distances"]:
        got = distance(cx, A.coords(row["from"]), A.coords(row["to"]))
        assert got == pytest.approx(row["value"], abs=1e-9), row


@pytest.mark.parametrize("name", ALL)
def test_frozen_members(bundles, name):
    _, A = bundles[name]
    for p in expected(name)["members"]:
        r = recognize(A, tuple(p))
        assert r.decision == "member", p
        assert r.certificate.kind == "membership"
        w = r.certificate.weights
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_frozen_non_members(bundles, name):
    _, A = bundles[name]
    for p in expected(name)["non_members"]:
        r = recognize(A, tuple(p))
        assert r.decision == "non-member", p
        assert r.certificate.kind == "non-membership"
        assert certified_lower_bound(A, tuple(p), r.certificate) > 0.0
        d_here = A.distances_from(tuple(p))
        d_wit = A.distances_from(r.certificate.witness)
        for lbl in A.labels:
            assert d_wit[lbl] < d_here[lbl], p


@pytest.mark.parametrize("name", [n for n in ALL if "deficit_probes" in expected(n)])
def test_frozen_deficit_values(bundles, name):
    _, A = bundles[name]
    for row in expected(name)["deficit_probes"]:
        got = mean_deficit(A, tuple(row["at"])).value
        assert got == pytest.approx(row["value"], abs=1e-7), row


@pytest.mark.parametrize("name", [n for n in ALL if "weight_probes" in expected(n)])
def test_frozen_certificate_weights(bundles, name):
    _, A = bundles[name]
    for row in expected(name)["weight_probes"]:
        w = recognize(A, tuple(row["at"])).certificate.weights
        for lbl, val in row["weights"].items():
            assert w[lbl] == pytest.approx(val, abs=1e-7), row


@pytest.mark.parametrize("name", [n for n in ALL if "geodesic_probes" in expected(n)])
def test_frozen_geodesic_breakpoints(bundles, name):
    cx, A = bundles[name]
    for row in expected(name)["geodesic_probes"]:
        g = geodesic(cx, A.coords(row["from"]), A.coords(row["to"]))
        assert g.length == pytest.approx(row["length"], abs=1e-9)
        interior = [list(b) for b in g.breakpoints[1:-1]]
        want = row["interior_breakpoints"]
        assert len(interior) == len(want)
        for got_b, want_b in zip(interior, want):
            assert np.allclose(got_b, want_b, atol=1e-7), row


@pytest.mark.parametrize("name", [n for n in ALL if "point_distances" in expected(n)])
def test_frozen_point_to_set_distances(bundles, name):
    cx, A = bundles[name]
    for row in expected(name)["point_distances"]:
        got = distance(cx, tuple(row["at"]), A.coords(row["to"]))
        assert got == pytest.approx(row["value"], abs=1e-9), row


@pytest.mark.parametrize("name", [n for n in ALL if "line_search" in expected(n)])
def test_frozen_line_search(bundles, name):
    cx, A = bundles[name]
    spec = expected(name)["line_search"]
    seg = geodesic(cx, tuple(spec["segment"][0]), tuple(spec["segment"][1]))
    frac, val = line_search(A, tuple(spec["base_point"]), seg)
    assert frac * seg.length == pytest.approx(spec["arclength_minimizer"], abs=1e-6)
    assert val == pytest.approx(spec["value"], abs=1e-6)


@pytest.mark.parametrize("kind, text, match", [
    ("complex", '{"ambient_dim": 2,\n "cells": [}', "invalid JSON at line 2 column 12"),
    ("set", '{"points": {"a": [0.5, 0.5],}}', "invalid JSON at line 1 column 29"),
    ("set", '{"pts": {"a": [0.5, 0.5]}}', "needs a 'points' object"),
    ("set", "[[0.5, 0.5]]", "needs a 'points' object"),
    ("set", '{"points": {}}', "'points' must be a nonempty object"),
    ("set", '{"points": [[0.5, 0.5]]}', "'points' must be a nonempty object"),
])
def test_malformed_files_raise_complex_errors(tmp_path, kind, text, match):
    """A file that is no JSON names the line and column of the fault; a point
    set file needs a nonempty ``points`` object."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ComplexError, match=match):
        if kind == "complex":
            load_complex(path)
        else:
            load_point_set(load_bundled("tripod")[0], path)
