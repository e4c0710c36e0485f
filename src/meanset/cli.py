"""Command-line interface: validate, measure, recognize, sample.

Every subcommand prints JSON to standard output except ``heatmap``, which
emits CSV.  Exit codes: 0 success, 2 validation violations, 1 any error.
Complex and point-set arguments accept file paths or bundled corpus names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus, geodesics, heatmap, recognition
from .complexes import ComplexError, LocationError, load_complex, number_array
from .convex import ConvergenceError
from .recognition import CertificateError


def _resolve(arg: str, suffix: str) -> str:
    if os.path.exists(arg):
        return arg
    name = arg[:-5] if arg.endswith(".json") else arg
    if name.endswith(suffix.replace(".json", "")):
        candidate = f"{name}.json"
    else:
        candidate = f"{name}{suffix}"
    try:
        return corpus.data_path(candidate)
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file or bundled entry: {arg!r}")


def _load_complex(arg):
    return load_complex(_resolve(arg, ".json"))


def _load_set(cx, arg):
    return corpus.load_point_set(cx, _resolve(arg, "_points.json"))


def _parse_point(text: str):
    try:
        point = number_array(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"point {text!r} is not a JSON array: {exc.msg}")
    if point is None:
        raise ValueError(f"point {text!r} must be a JSON array of numbers")
    return point


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_validate(args) -> int:
    cx = _load_complex(args.complex)
    report = cx.validate()
    _emit(report.to_dict())
    return 0 if report.ok else 2


def cmd_distance(args) -> int:
    cx = _load_complex(args.complex)
    d = geodesics.distance(cx, _parse_point(args.frm), _parse_point(args.to))
    _emit({"distance": d})
    return 0


def cmd_geodesic(args) -> int:
    cx = _load_complex(args.complex)
    g = geodesics.geodesic(cx, _parse_point(args.frm), _parse_point(args.to))
    _emit({
        "length": g.length,
        "breakpoints": [list(b) for b in g.breakpoints],
        "cells": list(g.cells),
    })
    return 0


def cmd_recognize(args) -> int:
    cx = _load_complex(args.complex)
    A = _load_set(cx, args.set)
    result = recognition.recognize(A, _parse_point(args.at), tol=args.tol)
    _emit(result.to_dict())
    return 0


def cmd_deficit(args) -> int:
    cx = _load_complex(args.complex)
    A = _load_set(cx, args.set)
    report = recognition.mean_deficit(A, _parse_point(args.at))
    _emit(report.to_dict())
    return 0


def cmd_heatmap(args) -> int:
    cx = _load_complex(args.complex)
    A = _load_set(cx, args.set)
    rows = heatmap.run_heatmap(A, args.samples, args.seed, args.tol)
    if args.segment:
        p = _parse_point(args.segment[0])
        q = _parse_point(args.segment[1])
        k = int(args.segment[2])
        rows += heatmap.segment_probes(A, p, q, k, args.tol)
    text = heatmap.to_csv(rows, cx.ambient_dim)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        light = sum(1 for r in rows if r.decision) / len(rows)
        _emit({"rows": len(rows), "light_fraction": light, "out": args.out})
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meanset",
        description="certified mean-set membership in CAT(0) cubical complexes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--complex", required=True,
                       help="complex JSON file or bundled name")
        return p

    add("validate", cmd_validate, "check the vertex-link condition")

    for name, fn, help_ in (
        ("distance", cmd_distance, "geodesic distance between two points"),
        ("geodesic", cmd_geodesic, "geodesic polyline between two points"),
    ):
        p = add(name, fn, help_)
        p.add_argument("--from", dest="frm", required=True, metavar="POINT",
                       help='JSON array, e.g. "[1,0]"')
        p.add_argument("--to", required=True, metavar="POINT")

    for name, fn, help_ in (
        ("recognize", cmd_recognize, "certified mean-set membership decision"),
        ("deficit", cmd_deficit, "mean-deficit value with per-cell breakdown"),
    ):
        p = add(name, fn, help_)
        p.add_argument("--set", required=True, help="point-set JSON file or bundled name")
        p.add_argument("--at", required=True, metavar="POINT")
        if name == "recognize":
            p.add_argument("--tol", type=float, default=1e-8)

    p = add("heatmap", cmd_heatmap, "Monte-Carlo deficit samples as CSV")
    p.add_argument("--set", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.1,
                   help="light/dark deficit threshold (default 0.1)")
    p.add_argument("--segment", nargs=3, metavar=("P", "Q", "K"),
                   help="append K evenly spaced probe rows on the segment [P, Q]")
    p.add_argument("--out", help="write CSV here and print a JSON summary")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ComplexError, LocationError, CertificateError, ConvergenceError,
            geodesics.GeodesicError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
