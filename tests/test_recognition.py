"""Interior recognition, deficits, test function and certificate checks."""

import math
import random

import numpy as np
import pytest

from meanset import (
    CertificateError,
    ComplexError,
    CubeCell,
    CubicalComplex,
    LocationError,
    MembershipCertificate,
    NonMembershipCertificate,
    PointSetA,
    certified_lower_bound,
    complex_from_dict,
    directional_derivative,
    distance,
    geodesic,
    load_bundled,
    mean_deficit,
    midpoint,
    min_norm_point,
    recognize,
    recognize_general,
    recognize_interior,
    run_heatmap,
    segment_probes,
    solve_PC,
    to_csv,
    verify_certificate,
    weighted_objective,
)
from meanset import GeodesicError, feasibility_min_norm, point_along, recognition
from meanset.boundary import build_model, build_models, conic_residual
from meanset.convex import FREE, ZERO, ConeBall, SignCone, Singleton, WeightedSum, box_segment_min
from meanset.corpus import expected
from meanset.geodesics import Geodesic, chain_length, vertex_upper_bound
from meanset.heatmap import HeatMapSample
from meanset import test_function as objective_gap
from meanset import test_function_line_search as objective_line_search
from oracles import hull_to_cone_nnls

R3 = math.sqrt(3.0)


def _unit_cube(n):
    return complex_from_dict({
        "ambient_dim": n,
        "cells": [{"base": [0] * n, "axes": list(range(n))}],
    })


# ---------------------------------------------------------------------------
# Euclidean oracle: one cube, deficit = distance to the hull


def test_single_cube_deficit_equals_hull_distance():
    rng = np.random.default_rng(13)
    for trial in range(80):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        cx = _unit_cube(n)
        pts = rng.uniform(0.0, 1.0, size=(m, n))
        xbar = rng.uniform(0.02, 0.98, size=n)
        if min(np.linalg.norm(pts - xbar, axis=1)) <= 1e-6:
            continue
        if m > 1 and min(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(m) for j in range(i + 1, m)
        ) <= 1e-6:
            continue
        A = PointSetA.from_coords(cx, [tuple(p) for p in pts])
        report = mean_deficit(A, tuple(xbar))
        # scipy's NNLS, which shares no code with the Wolfe solver behind the deficit
        want = hull_to_cone_nnls(pts - xbar, ("zero",) * n)[1]
        assert report.value == pytest.approx(want, abs=1e-8), trial
        decision = recognize(A, tuple(xbar)).decision
        assert decision == ("member" if want <= 1e-8 else "non-member")


def test_single_cube_member_weights_reproduce_query():
    # hull membership with interior query: certificate weights recombine to it
    cx = _unit_cube(2)
    A = PointSetA.from_coords(cx, [(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
    assert len(A) == 3 and A.labels == ("a0", "a1", "a2")
    xbar = (0.5, 0.4)
    r = recognize(A, xbar)
    assert r.decision == "member"
    w = r.certificate.weights
    mix = sum(np.asarray(A.coords(l)) * w[l] for l in A.labels)
    assert np.allclose(mix, xbar, atol=1e-8)
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)


def test_recognize_at_a_set_point_short_circuits():
    cx, A = load_bundled("tripod")
    r = recognize(A, (1.0, 0.0))
    assert r.decision == "member"
    assert r.certificate.weights == {"a": 1.0, "b": 0.0}
    with pytest.raises(CertificateError):
        recognize_interior(A, (1.0, 0.0))


# ---------------------------------------------------------------------------
# test function and line search


def test_objective_gap_hand_values(bundles):
    cx, A = bundles["quadrant_window"]
    xbar = (0.0, -1.0)
    # at (t, 0) both squared distances are computable by hand
    for t in (0.2, 0.9, 1.5):
        want = 0.5 * max((1 + t) ** 2 - 4.0, (R3 - t) ** 2 - 4.0)
        assert objective_gap(A, xbar, (t, 0.0)) == pytest.approx(want, abs=1e-10)
    # the query point itself always evaluates to zero
    assert objective_gap(A, xbar, xbar) == pytest.approx(0.0, abs=1e-12)


def test_line_search_on_quadrant(bundles):
    cx, A = bundles["quadrant_window"]
    seg = geodesic(cx, (0.0, 0.0), (R3, 0.0))
    frac, val = objective_line_search(A, (0.0, -1.0), seg)
    t_star = 1.0 / (1.0 + R3)
    assert frac * seg.length == pytest.approx(t_star, abs=1e-6)
    assert val == pytest.approx(0.5 * ((1 + t_star) ** 2 - 4.0), abs=1e-6)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_line_search_rejects_bad_tolerance(bundles, tol):
    """The bisection runs while its bracket exceeds ``tol``: a tolerance of
    at most 0 never ends it, and a NaN or infinite one ends it at once."""
    cx, A = bundles["quadrant_window"]
    seg = geodesic(cx, (0.0, 0.0), (R3, 0.0))
    with pytest.raises(ValueError):
        objective_line_search(A, (0.0, -1.0), seg, tol=tol)


def test_line_search_endpoint_minimum(bundles):
    # minimizing toward the set pulls the search to the segment start
    cx, A = bundles["tripod"]
    seg = geodesic(cx, (0.0, 0.0), (0.0, 1.0))
    frac, _ = objective_line_search(A, (0.5, 0.0), seg)
    assert frac == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("tol, calls", [(1e-8, 43), (1e-17, 86), (1e-300, 120), (5e-324, 120)])
def test_line_search_ends_at_float_resolution(monkeypatch, bundles, tol, calls):
    """On squares3, from (0.5, -0.5) toward (-0.5, 0.5), the minimum sits at
    the start.  A tolerance finer than float resolution there ends the
    search when its bracket, one ulp wide near s = 4.07e-9, stops shrinking,
    after exactly 120 calls of the test function; coarser ones end by the
    tolerance, as before.  A run past 1000 calls fails at once."""
    cx, A = bundles["squares3"]
    g = geodesic(cx, (0.5, -0.5), (-0.5, 0.5))
    made = [0]
    real = recognition.test_function

    def counted(*args):
        made[0] += 1
        assert made[0] <= 1000, "the line search does not stop"
        return real(*args)

    monkeypatch.setattr(recognition, "test_function", counted)
    assert objective_line_search(A, (0.5, -0.5), g, tol=tol) == (0.0, 0.0)
    assert made[0] == calls


# ---------------------------------------------------------------------------
# certificates


def test_membership_certificates_verify(bundles):
    for name, probe in [("tripod", (0.5, 0.0)), ("squares3", (-0.25, 0.25)),
                        ("quadrant_window", (0.5, 0.0))]:
        cx, A = bundles[name]
        r = recognize(A, probe)
        assert r.decision == "member", name
        rep = verify_certificate(A, probe, r.certificate, samples=150)
        assert rep.ok, (name, rep.failures)


def test_non_membership_certificates_verify(bundles):
    for name, probe in [("tripod", (0.0, 0.6)), ("squares3", (0.5, -0.5)),
                        ("squares5", (0.25, 0.25, 0.0))]:
        cx, A = bundles[name]
        r = recognize(A, probe)
        assert r.decision == "non-member", name
        cert = r.certificate
        assert isinstance(cert, NonMembershipCertificate)
        assert min(cert.margins.values()) > 0.0
        # margins are honest: recompute strict decrease at the witness
        d_bar = A.distances_from(probe)
        d_wit = A.distances_from(cert.witness)
        for lbl in A.labels:
            assert d_wit[lbl] < d_bar[lbl]
        rep = verify_certificate(A, probe, cert)
        assert rep.ok
        assert certified_lower_bound(A, probe, cert) > 0.0


def test_certified_lower_bound_rejects_wrong_kind(bundles):
    cx, A = bundles["tripod"]
    cert = MembershipCertificate({"a": 0.75, "b": 0.25}, 0.0)
    with pytest.raises(CertificateError):
        certified_lower_bound(A, (0.5, 0.0), cert)


def test_verify_rejects_forged_weights(bundles):
    cx, A = bundles["tripod"]
    forged = MembershipCertificate({"a": 0.05, "b": 0.95}, 0.0)
    rep = verify_certificate(A, (0.5, 0.0), forged, samples=200)
    assert not rep.ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", None])
def test_verify_rejects_non_finite_weights(bundles, bad):
    """Weights with a NaN, an infinity or a value that is no number are no
    probability vector: the report fails at once, and the objective refuses
    them.  NaN weights once passed at a non-member, since every comparison
    with them is false; a string or None escaped as a bare TypeError."""
    cx, A = bundles["squares3"]
    x = (0.9, -0.9)
    assert mean_deficit(A, x).value == pytest.approx(0.9, abs=1e-9)
    forged = MembershipCertificate(dict.fromkeys(A.labels, bad), 0.0)
    rep = verify_certificate(A, x, forged, samples=8)
    assert not rep.ok
    assert rep.failures == (("weights", "not a probability vector"),)
    with pytest.raises(ValueError, match="weights must be finite"):
        weighted_objective(A, forged.weights, x)


def _model(cx, A, label):
    """``build_model`` at (0.5, 0) of squares3, in the first maximal cell holding it."""
    loc = cx.locate((0.5, 0.0))
    return build_model(A, loc, cx.maximal_cells_containing(loc)[0], label)


@pytest.mark.parametrize("call, error, match", [
    (lambda cx, A: cx.cell("c999"), ComplexError, "c999"),
    (lambda cx, A: cx.cell(["c000"]), ComplexError, "c000"),
    (lambda cx, A: cx.tangent_cone("c999", (0.5, 0.0)), ComplexError, "c999"),
    (lambda cx, A: cx.bounds("c999"), ComplexError, "c999"),
    (lambda cx, A: solve_PC(A, (0.5, 0.0), "c999"), ComplexError, "c999"),
    (lambda cx, A: conic_residual(A, (0.5, 0.0), "c999", {"a": 1.0}), ComplexError, "c999"),
    (lambda cx, A: conic_residual(A, (0.5, 0.0), "c999", {}), ComplexError, "c999"),
    (lambda cx, A: recognize(A, (0.5, 0.0), "1e-8"), ValueError, "tolerance"),
    (lambda cx, A: recognize(A, (0.5, 0.0), None), ValueError, "tolerance"),
    (lambda cx, A: run_heatmap(A, 2, 1, "0.1"), ValueError, "tolerance"),
    (lambda cx, A: segment_probes(A, (0.5,), (0.5, -0.5), 2, 0.1), ValueError, "dimension"),
    (lambda cx, A: weighted_objective(A, {"a": 1.0}, (0.5, 0.0), p="2"), ValueError, "exponent"),
    (lambda cx, A: verify_certificate(A, (0.5, 0.0), {"a": 1.0}), CertificateError, "dict"),
    (lambda cx, A: certified_lower_bound(A, (0.5, -0.5), NonMembershipCertificate(
        (0.5, -0.25), {"a": 0.1, "b": 0.0, "c": 0.1})), CertificateError, "margins"),
    (lambda cx, A: certified_lower_bound(A, (0.5, -0.5), NonMembershipCertificate(
        (0.5, -0.25), {"a": 0.1, "b": "x", "c": 0.1})), CertificateError, "margins"),
    (lambda cx, A: certified_lower_bound(A, (0.5, -0.5), NonMembershipCertificate(
        (0.5, -0.5), {"a": 100.0, "b": 100.0, "c": 100.0})), CertificateError, "not strictly"),
    (lambda cx, A: certified_lower_bound(A, (0.5, -0.5), NonMembershipCertificate(
        (0.5, -0.25), [0.1, 0.1, 0.1])), CertificateError, "margins"),
    (lambda cx, A: point_along(geodesic(cx, (0.5, 0.0), (-0.5, 0.5)), "0.5"),
     ValueError, "fraction"),
    (lambda cx, A: point_along(geodesic(cx, (0.5, 0.0), (-0.5, 0.5)), None),
     ValueError, "fraction"),
    (lambda cx, A: PointSetA(cx, [(0.5, 0.0)]), ValueError, "labelled points"),
    (lambda cx, A: weighted_objective(A, [1, 0, 0], (0.5, 0.0)), ValueError, "weights"),
    (lambda cx, A: verify_certificate(A, (0.5, 0.0), MembershipCertificate([1, 0, 0], 0.0)),
     CertificateError, "weights"),
    (lambda cx, A: chain_length(cx, (0.5, 0.0), (0.5, 0.5), 5), GeodesicError, "chain"),
    (lambda cx, A: chain_length(cx, (0.5, 0.0), (0.5, 0.5), [cx.maximal_ids[0], ["c000"]]),
     GeodesicError, "chain"),
    (lambda cx, A: feasibility_min_norm([Singleton((0.5, 0.0))], SignCone((FREE, FREE)),
                                        tol="x"), ValueError, "tol"),
    (lambda cx, A: run_heatmap(A, 2, 1, 0.1, threads="2"), ValueError, "threads"),
    (lambda cx, A: run_heatmap(A, 2, 1, 0.1, threads=0), ValueError, "threads"),
    (lambda cx, A: run_heatmap(A, 2, 1, 0.1, threads=-3), ValueError, "threads"),
    (lambda cx, A: objective_line_search(A, (0.5, 0.0), "g"), ValueError, "g must be"),
    (lambda cx, A: cx.tangent_cone("c002", (-0.5,)), LocationError, "dimension 1, .* 2-dim"),
    (lambda cx, A: cx.tangent_cone("c002", (-0.5, -0.5, 7.0)), LocationError, "dimension 3"),
    (lambda cx, A: load_bundled("nope"), ValueError, "'nope'; have tripod, squares3"),
    (lambda cx, A: expected("nope"), ValueError, "'nope'; have tripod, squares3"),
    (lambda cx, A: conic_residual(A, (0.5, 0.0), cx.maximal_cells_containing((0.5, 0.0))[0],
                                  [1, 0, 0]), ValueError, "weights must be a dict"),
    (lambda cx, A: recognize("A", (0.5, 0.0)), ValueError, "A must be a PointSetA, got 'A'"),
    (lambda cx, A: mean_deficit(None, (0.5, 0.0)), ValueError, "A must be a PointSetA, got None"),
    (lambda cx, A: run_heatmap("A", 2, 1, 0.1), ValueError, "A must be a PointSetA"),
    (lambda cx, A: verify_certificate("A", (0.5, 0.0), MembershipCertificate({"a": 1.0}, 0.0)),
     ValueError, "A must be a PointSetA"),
    (lambda cx, A: certified_lower_bound("A", (0.5, -0.5), NonMembershipCertificate(
        (0.5, -0.25), {"a": 0.1, "b": 0.1, "c": 0.1})), ValueError, "A must be a PointSetA"),
    (lambda cx, A: weighted_objective("A", {"a": 1.0}, (0.5, 0.0)), ValueError,
     "A must be a PointSetA"),
    (lambda cx, A: segment_probes(cx, (0.5, 0.0), (0.5, -0.5), 2, 0.1), ValueError,
     "A must be a PointSetA, got <meanset.complexes.CubicalComplex"),
    (lambda cx, A: recognize_interior("A", (0.5, -0.5)), ValueError, "A must be a PointSetA"),
    (lambda cx, A: objective_gap("A", (0.5, 0.0), (0.5, -0.5)), ValueError,
     "A must be a PointSetA"),
    (lambda cx, A: solve_PC("A", (0.5, 0.0), cx.maximal_cells_containing((0.5, 0.0))[0]),
     ValueError, "A must be a PointSetA"),
    (lambda cx, A: conic_residual("A", (0.5, 0.0), cx.maximal_cells_containing((0.5, 0.0))[0],
                                  {"a": 1.0}), ValueError, "A must be a PointSetA"),
    (lambda cx, A: to_csv([1], 2), ValueError, "rows must be HeatMapSample records, got 1"),
    (lambda cx, A: segment_probes(A, None, (0.0, 0.0), 3, 0.1), ValueError,
     r"p and q must be sequences of numbers, got None and \(0.0, 0.0\)"),
    (lambda cx, A: point_along(None, 0.5), ValueError, "g must be a Geodesic, got None"),
    (lambda cx, A: directional_derivative(None, (1.0, 0.0)), ValueError,
     "model must be a DirectionalDerivativeModel, got None"),
    (lambda cx, A: to_csv([], "x"), ValueError, "ambient_dim must be an integer"),
    (lambda cx, A: box_segment_min(None, (0.0,), (0.0,), (1.0,)), ValueError,
     "a must be a sequence of numbers, got None"),
    (lambda cx, A: box_segment_min((0.0,), (1.0,), [[0]], (1.0,)), ValueError,
     r"lo must be a sequence of numbers, got \[\[0\]\]"),
    (lambda cx, A: box_segment_min((math.nan,), (1.0,), (0.0,), (1.0,)), ValueError,
     r"a must be finite, got \[nan\]"),
    (lambda cx, A: box_segment_min((0.0,), (math.inf,), (0.0,), (1.0,)), ValueError,
     r"b must be finite, got \[inf\]"),
    (lambda cx, A: box_segment_min((0.0,), (1.0,), (0.0,), (math.nan,)), ValueError,
     r"hi must be finite, got \[nan\]"),
    (lambda cx, A: box_segment_min((2.0,), (3.0,), (1.0,), (0.0,)), ValueError,
     r"lo must be at most hi on every axis, got \[1.0\] and \[0.0\]"),
    (lambda cx, A: to_csv([HeatMapSample("c000", (0.5, 0.25), 0.1, True)], 1), ValueError,
     "row HeatMapSample.* has 2 coordinates, not 1"),
    (lambda cx, A: to_csv([HeatMapSample("c000", (0.5, 0.25), 0.1, True)], 3), ValueError,
     "row HeatMapSample.* has 2 coordinates, not 3"),
    (lambda cx, A: min_norm_point(None), ValueError,
     "points must be rows of numbers, got None"),
    (lambda cx, A: min_norm_point([[1.0], ["x"]]), ValueError,
     r"points must be rows of numbers, got \[\[1.0\], \['x'\]\]"),
    (lambda cx, A: min_norm_point([[1.0]], rays=5), ValueError,
     "rays must be rows of numbers, got 5"),
    (lambda cx, A: box_segment_min((), (), (), ()), ValueError,
     "a, b, lo and hi must have at least one coordinate"),
    (lambda cx, A: to_csv([HeatMapSample("c000", None, 0.1, True)], 1), ValueError,
     "row HeatMapSample.* needs a point of numbers and a numeric deficit"),
    (lambda cx, A: to_csv([HeatMapSample("c000", (0.5, 0.25), "0.1", True)], 2), ValueError,
     "row HeatMapSample.* needs a point of numbers and a numeric deficit"),
    (lambda cx, A: segment_probes(A, (0.0, 0.0), (1.0, "x"), 2, 0.1), ValueError,
     r"p and q must be sequences of numbers, got \(0.0, 0.0\) and \(1.0, 'x'\)"),
    (lambda cx, A: run_heatmap(A, True, 1, 0.1), ValueError,
     "the sample count must be an integer of at least 1, got True"),
    (lambda cx, A: run_heatmap(A, 2, True, 0.1), ValueError, "seed must be an integer"),
    (lambda cx, A: segment_probes(A, (0.5, 0.0), (0.5, -0.5), True, 0.1), ValueError,
     "count must be an integer of at least 0, got True"),
    (lambda cx, A: verify_certificate(A, (0.5, 0.0), MembershipCertificate({"a": 1.0}, 0.0),
                                      samples=True), ValueError, "samples must be an integer"),
    (lambda cx, A: to_csv([], True), ValueError, "ambient_dim must be an integer"),
    (lambda cx, A: to_csv(None, 2), ValueError, "samples must be an iterable of rows, got None"),
    (lambda cx, A: to_csv(2.5, 2), ValueError, "samples must be an iterable of rows, got 2.5"),
    (lambda cx, A: distance("x", (0.5, 0.0), (0.5, -0.5)), ValueError,
     "cx must be a CubicalComplex, got 'x'"),
    (lambda cx, A: geodesic(None, (0.5, 0.0), (0.5, -0.5)), ValueError,
     "cx must be a CubicalComplex, got None"),
    (lambda cx, A: midpoint({}, (0.5, 0.0), (0.5, -0.5)), ValueError,
     r"cx must be a CubicalComplex, got \{\}"),
    (lambda cx, A: PointSetA.from_coords(cx, None), ValueError,
     "coords must be a sequence of points, got None"),
    (lambda cx, A: PointSetA.from_coords(cx, [(0.5, 0.0)], 1), ValueError,
     "labels must be a sequence of hashable labels, got 1"),
    (lambda cx, A: PointSetA.from_coords(cx, [(0.5, 0.0)], [["a"]]), ValueError,
     r"labels must be a sequence of hashable labels, got \[\['a'\]\]"),
    (lambda cx, A: PointSetA(None, {"a": (0.5, 0.0)}), ValueError,
     "cx must be a CubicalComplex, got None"),
    (lambda cx, A: chain_length(None, (0.5, 0.0), (0.5, 0.5), ["c000"]), ValueError,
     "cx must be a CubicalComplex, got None"),
    (lambda cx, A: chain_length(cx, True, (0.5, 0.5), []), ValueError,
     r"p and q must be sequences of numbers, got True and \(0.5, 0.5\)"),
    (lambda cx, A: recognize(A, (0.5, 0.0), True), ValueError,
     "tolerance must be finite and nonnegative, got True"),
    (lambda cx, A: verify_certificate(A, (0.5, 0.0), MembershipCertificate({"a": 1.0}, 0.0),
                                      tol=True), ValueError, "tolerance must be finite"),
    (lambda cx, A: objective_line_search(A, (0.5, 0.0), geodesic(cx, (0.5, 0.0), (-0.5, 0.5)),
                                         tol=True), ValueError, "tolerance must be finite"),
    (lambda cx, A: run_heatmap(A, 3, 1, True), ValueError,
     "tolerance must be finite and nonnegative, got True"),
    (lambda cx, A: segment_probes(A, (0.5, 0.0), (0.5, -0.5), 2, False), ValueError,
     "tolerance must be finite and nonnegative, got False"),
    (lambda cx, A: point_along(geodesic(cx, (0.5, 0.0), (-0.5, 0.5)), True), ValueError,
     "fraction must lie in"),
    (lambda cx, A: weighted_objective(A, {"a": 1.0}, (0.5, 0.0), p=True), ValueError,
     "exponent must be finite"),
    (lambda cx, A: weighted_objective(A, {"a": True}, (0.5, 0.0)), ValueError,
     "weights must be finite real numbers"),
    (lambda cx, A: feasibility_min_norm(None, SignCone((FREE, FREE))), ValueError,
     "sets must be a sequence of model sets, got None"),
    (lambda cx, A: feasibility_min_norm(["x"], SignCone((FREE, FREE))), ValueError,
     r"sets must be a sequence of model sets, got \['x'\]"),
    (lambda cx, A: feasibility_min_norm([Singleton((0.5, 0.0))], None), ValueError,
     "target must be a SignCone, got None"),
    (lambda cx, A: directional_derivative(_model(cx, A, "a"), None), ValueError,
     "u must be a sequence of finite numbers, got None"),
    (lambda cx, A: SignCone(None), ValueError,
     "signs must be a sequence of sign constraints, got None"),
    (lambda cx, A: Singleton(None), ValueError, "g must be finite and in the unit ball, got None"),
    (lambda cx, A: ConeBall(None, None), ValueError, "u must be a finite unit vector, got None"),
    (lambda cx, A: _model(cx, A, None), ValueError, "label must be a label of A, got None"),
    (lambda cx, A: recognition.random_point(None, random.Random(0)), ValueError,
     "cx must be a CubicalComplex, got None"),
    (lambda cx, A: recognition.random_point(cx, None), ValueError,
     r"rng must have a random\(\) method, got None"),
    (lambda cx, A: directional_derivative(_model(cx, A, "a"), ["x", "y"]), ValueError,
     r"u must be a sequence of finite numbers, got \['x', 'y'\]"),
    (lambda cx, A: SignCone((FREE,)).project((1.0, 2.0)), ValueError,
     "v must have the cone's dimension 1"),
    (lambda cx, A: PointSetA.from_coords(cx, [(0.5, 0.0)], labels=["a", "b"]), ValueError,
     "labels and coordinates must align"),
    (lambda cx, A: build_model(A, cx.locate((1.0, 0.0)), "c012", "a"), CertificateError,
     "derivative model undefined at a set point"),
    (lambda cx, A: solve_PC(A, (0.0, 0.0), "c014"), ComplexError,
     r"no conic problem at \[0.0, 0.0\] in cell c014: it is not maximal"),
    (lambda cx, A: conic_residual(A, (0.0, 0.0), "c014", {"a": 1.0}), ComplexError,
     r"no conic problem at \[0.0, 0.0\] in cell c014"),
    (lambda cx, A: build_models(A, cx.locate((0.0, 0.0)), "c014"), ComplexError,
     r"no conic problem at \[0.0, 0.0\] in cell c014"),
    (lambda cx, A: build_model(A, cx.locate((0.0, 0.0)), "c014", "a"), ComplexError,
     r"no conic problem at \[0.0, 0.0\] in cell c014"),
    (lambda cx, A: conic_residual(A, (0.0, 0.0), "c002", dict.fromkeys("abc", math.nan)),
     ValueError, "weights must be finite and nonnegative with a positive sum"),
    (lambda cx, A: conic_residual(A, (0.0, 0.0), "c002", dict.fromkeys("abc", -1.0)),
     ValueError, "weights must be finite and nonnegative with a positive sum"),
    (lambda cx, A: conic_residual(A, (0.0, 0.0), "c002", {"a": 0.0}),
     ValueError, "weights must be finite and nonnegative with a positive sum"),
    (lambda cx, A: directional_derivative(build_model(A, cx.locate((0.5, -0.5)), "c012", "a"),
                                          (1.0,)), ValueError, "v must have the cone's dimension 2"),
    (lambda cx, A: directional_derivative(build_model(A, cx.locate((0.5, -0.5)), "c012", "a"),
                                          (1.0, 0.0, 5.0)), ValueError,
     "v must have the cone's dimension 2"),
    (lambda cx, A: directional_derivative(_model(cx, A, "a"), (v for v in (1.0, 0.0))),
     ValueError, "u must be a sequence of finite numbers, got <generator"),
    (lambda cx, A: CubeCell((0, 0), (0,)).contains((0.5, 0.0, 99.0)), ValueError,
     "point has dimension 3, the cell's base 2"),
    (lambda cx, A: CubeCell((0, 0), (0,)).contains((0.5,)), ValueError,
     "point has dimension 1, the cell's base 2"),
    (lambda cx, A: CubeCell((0, 0), (0,)).contains(iter([0.5, 0.0])), ValueError,
     "point must be a sequence of numbers, got <list_iterator"),
    (lambda cx, A: SignCone((FREE,)).contains(None), ValueError,
     "v must be a sequence of numbers, got None"),
    (lambda cx, A: SignCone((FREE,)).project(None), ValueError,
     "v must be a sequence of numbers, got None"),
    (lambda cx, A: Singleton((1.0, 0.0), scale="x"), ValueError,
     "scale must be finite, got 'x'"),
    (lambda cx, A: ConeBall((1.0, 0.0), SignCone((FREE, FREE)), scale="x"), ValueError,
     "scale must be finite, got 'x'"),
    (lambda cx, A: WeightedSum((Singleton((1.0,)),), None), ValueError,
     "weights must be a finite nonnegative vector, one per set, got None"),
    (lambda cx, A: Geodesic(None, (), 0.0), ValueError,
     r"breakpoints and cells must be sequences, got None and \(\)"),
    (lambda cx, A: CubicalComplex(2, None), ComplexError,
     "maximal must be a list or tuple of CubeCells, got None"),
    (lambda cx, A: CubicalComplex(2, [(0, 0)]), ComplexError,
     r"cell #0 must be a CubeCell, got \(0, 0\)"),
    (lambda cx, A: vertex_upper_bound(None, (0.5, 0.0), (0.5, 0.0)), ValueError,
     "cx must be a CubicalComplex, got None"),
    (lambda cx, A: PointSetA.from_coords(cx, [(0.5, 0.0), (0.5, -0.5)], labels=["a", "a"]),
     ValueError, "labels must be distinct; 'a' is repeated"),
    (lambda cx, A: CubicalComplex(None, [CubeCell((0,), (0,))]), ComplexError,
     "^ambient_dim must be a positive integer$"),
    (lambda cx, A: CubicalComplex(3, [CubeCell((0,), (0,))]), ComplexError,
     "cell #0: base has length 1, expected 3"),
    (lambda cx, A: CubicalComplex(1, [CubeCell((0,), (5,))]), ComplexError,
     "cell #0: axis index 5 out of range for n=1"),
    (lambda cx, A: CubicalComplex(1, [CubeCell(None, (0,))]), ComplexError,
     r"cell #0: base and axes must be tuples, got \(None, \(0,\)\)"),
    (lambda cx, A: CubicalComplex(2, [CubeCell((0, 0), (0, 0))]), ComplexError,
     "cell #0: axes must be distinct"),
    (lambda cx, A: SignCone((ZERO,)).contains(("x",)), ValueError,
     r"v must be a sequence of numbers, got \('x',\)"),
    (lambda cx, A: SignCone((ZERO,)).contains((0.0,), None), ValueError,
     "tol must be a real number, got None"),
    (lambda cx, A: CubeCell((0,), (0,)).contains(("x",)), ValueError,
     r"point must be a sequence of numbers, got \('x',\)"),
    (lambda cx, A: CubeCell((0,), (0,)).contains((0.5,), None), ValueError,
     "tol must be a real number, got None"),
    (lambda cx, A: WeightedSum(None, (1.0,)), ValueError,
     "sets must be a sequence of model sets, got None"),
], ids=["cell", "unhashable-id", "tangent-cone", "bounds", "solve-pc", "conic-residual",
        "conic-residual-no-weight", "string-tol", "none-tol", "heatmap-tol",
        "segment-dimensions", "string-exponent", "not-a-certificate", "zero-margin",
        "string-margin", "forged-margin", "list-margins", "string-fraction", "none-fraction",
        "list-points", "list-weights", "list-certificate-weights", "int-chain",
        "unhashable-chain-cell", "string-feasibility-tol", "string-threads", "zero-threads",
        "negative-threads", "string-geodesic", "short-cone-point", "long-cone-point",
        "unknown-corpus", "unknown-expected", "list-residual-weights", "string-set-recognize",
        "none-set-deficit", "string-set-heatmap", "string-set-verify", "string-set-lower-bound",
        "string-set-objective", "complex-set-probes", "string-set-interior",
        "string-set-test-function", "string-set-solve-pc", "string-set-conic-residual",
        "int-csv-row", "none-probe-end", "none-geodesic", "none-derivative-model",
        "string-csv-dimension", "none-box-end", "nested-box-bound", "nan-box-end",
        "inf-box-end", "nan-box-bound", "empty-box", "short-csv-dimension",
        "long-csv-dimension", "none-points", "string-point-row", "int-rays",
        "zero-dimensional-box", "none-csv-point", "string-csv-deficit", "string-probe-end",
        "bool-sample-count", "bool-seed", "bool-probe-count", "bool-verify-samples",
        "bool-csv-dimension", "none-csv-rows", "float-csv-rows", "string-complex-distance",
        "none-complex-geodesic", "dict-complex-midpoint", "none-coords", "int-labels",
        "unhashable-labels", "none-set-complex", "none-chain-complex", "bool-chain-end",
        "bool-tol-recognize", "bool-tol-verify", "bool-tol-line-search", "bool-heatmap-threshold",
        "bool-probe-threshold", "bool-fraction", "bool-exponent", "bool-weight",
        "none-feasibility-sets", "string-feasibility-set", "none-feasibility-target",
        "none-derivative-direction", "none-signs", "none-singleton", "none-cone-ball",
        "none-model-label", "none-random-point-complex", "none-random-point-rng",
        "string-derivative-direction", "long-projected-vector", "misaligned-labels",
        "model-at-set-point", "solve-pc-at-a-face", "conic-residual-at-a-face",
        "models-at-a-face", "model-at-a-face", "nan-residual-weights",
        "negative-residual-weights", "zero-residual-weights", "short-derivative-direction",
        "long-derivative-direction", "generator-derivative-direction", "long-cell-point",
        "short-cell-point", "iterator-cell-point", "none-cone-vector", "none-projected-vector",
        "string-singleton-scale", "string-cone-ball-scale", "none-sum-weights",
        "none-geodesic-breakpoints", "none-maximal-cells", "tuple-maximal-cell",
        "none-bound-complex", "repeated-labels", "none-ambient-dim", "short-cell-base",
        "out-of-range-cell-axis", "none-cell-base", "repeated-cell-axis",
        "string-cone-item", "none-cone-tol", "string-cell-item", "none-cell-tol",
        "none-sum-sets"])
def test_bad_ids_and_arguments_raise_typed_errors(bundles, call, error, match):
    """An unknown cell id, or a cell that is not maximal where a conic
    problem needs one, is a ComplexError naming it, a tolerance or an
    exponent that is no real number, a probe segment of mismatched ends or an
    unknown corpus name, an ``A`` that is no ``PointSetA`` or a CSV row that
    is no ``HeatMapSample``, a probe end, geodesic or derivative model of
    the wrong type, a CSV dimension that is no integer or differs from a
    row's point, a CSV row whose point is no sequence of numbers or whose
    deficit is no number, points or rays of ``min_norm_point`` that are no
    rows of numbers, or ends or bounds of ``box_segment_min`` that are
    no numbers, not finite, of no coordinate or an empty box (``lo > hi``),
    a probe end holding a string, a boolean count, seed or CSV dimension,
    CSV rows that are not iterable, a ``cx`` of ``distance``, ``geodesic``,
    ``midpoint``, ``PointSetA`` or ``chain_length`` that is no complex,
    ``from_coords`` coordinates that are not iterable or labels that are no
    sequence of hashable labels, chain ends that are no numbers, or a
    tolerance, threshold, fraction, exponent or weight of ``True`` or
    ``False`` (a boolean is no real number), ``feasibility_min_norm`` sets
    that are no sequence of model sets or a target that is no sign cone, a
    derivative direction, sign pattern, ``Singleton`` point or ``ConeBall``
    vector that is no sequence of numbers, a model's label that is not one
    of ``A``, a ``random_point`` complex that is no complex or ``rng``
    with no ``random`` method, a vector projected onto a sign cone of
    another dimension, a derivative direction that is a generator or of
    another dimension than its model's cone, a point of another dimension than a cube cell's base,
    ``from_coords`` labels that do not align with the coordinates or repeat
    a label, ``conic_residual`` weights that are not finite and
    nonnegative with a positive sum, a cube cell point or sign-cone vector
    that is no sequence of numbers, a model set's scale that is no number,
    ``WeightedSum`` weights or ``Geodesic`` breakpoints that are no
    sequence, or a ``vertex_upper_bound`` complex that is no complex a
    ValueError, a cube cell point or sign-cone vector holding an item that
    is no number, or a ``tol`` of theirs that is no real number, a ValueError
    naming it, ``WeightedSum`` sets that are no sequence a ValueError,
    maximal cells of a ``CubicalComplex`` that are no list of cube cells, an
    ``ambient_dim`` that is no positive integer, or a cell whose base and
    axes are no tuples, whose base has another length or whose axes are not
    distinct integers below it a ComplexError, a point of the wrong dimension a
    LocationError, and an object that is no certificate, a margin that is
    not a positive number or a derivative model at a set point a
    CertificateError, never a bare KeyError, TypeError, IndexError or
    AttributeError.  Margins are recomputed: a forged witness certifies no
    bound."""
    cx, A = bundles["squares3"]
    with pytest.raises(error, match=match):
        call(cx, A)


def test_faults_inside_model_sets_are_not_blamed_on_the_arguments(bundles, monkeypatch):
    """The argument checks of ``feasibility_min_norm`` and
    ``directional_derivative`` look at the arguments only: a fault raised
    inside a model set's own code reaches the caller as it was raised."""
    cx, A = bundles["squares3"]
    model = _model(cx, A, "a")

    def fault(*args):
        raise TypeError("fault inside the model set")

    monkeypatch.setattr(Singleton, "anchor_point", fault)
    with pytest.raises(TypeError, match="fault inside the model set"):
        feasibility_min_norm([Singleton((0.5, 0.0))], SignCone((FREE, FREE)))
    monkeypatch.setattr(type(model.subdiff), "support", fault)
    with pytest.raises(TypeError, match="fault inside the model set"):
        directional_derivative(model, (0.0, 0.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
def test_verify_rejects_bad_tolerance(bundles, tol):
    """No residual exceeds a NaN or infinite tolerance, so either would
    pass the forged certificate of a non-member."""
    cx, A = bundles["squares3"]
    forged = MembershipCertificate({"a": 1.0, "b": 0.0, "c": 0.0}, 0.0)
    assert not verify_certificate(A, (0.5, -0.5), forged, samples=20).ok
    with pytest.raises(ValueError):
        verify_certificate(A, (0.5, -0.5), forged, samples=20, tol=tol)


@pytest.mark.parametrize("seed", [1.5, "1", -1, None])
@pytest.mark.parametrize("draw", [
    lambda A, seed: run_heatmap(A, 2, seed, 0.1),
    lambda A, seed: verify_certificate(A, (0.5, 0.0), recognize(A, (0.5, 0.0)).certificate,
                                       samples=2, seed=seed),
], ids=["heatmap", "verify"])
def test_seeds_must_be_nonnegative_integers(bundles, draw, seed):
    """A seed that is no nonnegative integer is a ValueError naming it; a
    seed of None once drew from the operating system's entropy, so the
    report could not be reproduced."""
    cx, A = bundles["squares3"]
    with pytest.raises(ValueError, match="seed must be an integer"):
        draw(A, seed)


def test_verify_rejects_a_witness_that_is_not_closer(bundles):
    """A forged non-membership certificate whose witness is the query point
    itself fails once per set point."""
    cx, A = bundles["squares3"]
    x = (0.5, -0.5)
    forged = NonMembershipCertificate(x, dict.fromkeys(A.labels, 1.0))
    rep = verify_certificate(A, x, forged)
    assert not rep.ok
    assert [f[0] for f in rep.failures] == list(A.labels)
    assert all("witness not strictly closer" in f[1] for f in rep.failures)


def test_verify_rejects_negative_samples(bundles):
    """A sample count that is negative or not an integer is a ValueError
    naming ``samples``."""
    cx, A = bundles["squares3"]
    cert = recognize(A, (0.5, 0.0)).certificate
    for samples in (-3, 2.5, math.nan):
        with pytest.raises(ValueError, match="samples must be an integer"):
            verify_certificate(A, (0.5, 0.0), cert, samples=samples)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("decide", [recognize, recognize_general, recognize_interior])
def test_decisions_reject_bad_tolerance(bundles, decide, tol):
    cx, A = bundles["squares3"]
    with pytest.raises(ValueError, match="tolerance"):
        decide(A, (0.25, -0.1), tol=tol)


def test_weighted_objective():
    cx, A = load_bundled("tripod")
    val = weighted_objective(A, {"a": 0.75, "b": 0.25}, (0.5, 0.0))
    assert val == pytest.approx(0.75 * 0.25 + 0.25 * 2.25, abs=1e-12)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            weighted_objective(A, {"a": 1.0}, (0.5, 0.0), p=p)


def test_recognize_interior_matches_recognize(bundles):
    """At relative-interior points of maximal cells the interior entry
    gives the decision, deficit and certificate of ``recognize``."""
    rng = np.random.default_rng(31)
    kinds = set()
    for name, (cx, A) in bundles.items():
        for _ in range(8):
            cell = cx.cell(cx.maximal_ids[int(rng.integers(len(cx.maximal_ids)))])
            lo, hi = cell.bounds()
            x = tuple(lo + (hi - lo) * rng.uniform(0.05, 0.95, size=cx.ambient_dim))
            assert cx.locate(x).minimal_cell == cell.ident
            report, cert = recognize_interior(A, x)
            want = recognize(A, x)
            assert cert.kind == want.certificate.kind, (name, x)
            assert report.value == want.deficit, (name, x)
            assert cert == want.certificate, (name, x)
            kinds.add(cert.kind)
    assert kinds == {"membership", "non-membership"}


def test_deficit_direction_is_unit_at_nonmembers(bundles):
    cx, A = bundles["squares3"]
    rep = mean_deficit(A, (0.5, -0.5))
    assert rep.value > 0.1
    assert np.linalg.norm(rep.direction) == pytest.approx(1.0, abs=1e-9)


def test_point_set_construction_errors():
    cx = _unit_cube(2)
    with pytest.raises(ValueError):
        PointSetA(cx, {})
    with pytest.raises(ValueError):
        PointSetA(cx, {"a": (0.5, 0.5), "b": (0.5, 0.5)})
    with pytest.raises(ValueError):
        PointSetA.from_coords(cx, [(0.5, 0.5)], labels=["a", "b"])
