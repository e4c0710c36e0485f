"""Bundled example complexes with their point sets and frozen expectations."""

from __future__ import annotations

from importlib import resources

from .complexes import ComplexError, CubicalComplex, load_complex, number_array, read_json
from .recognition import PointSetA

BUNDLED = ("tripod", "squares3", "squares5", "cube_square", "quadrant_window")

__all__ = ["BUNDLED", "data_path", "load_point_set", "load_bundled", "expected"]


def data_path(filename: str):
    """Filesystem path of a bundled data file."""
    p = resources.files("meanset").joinpath("data", filename)
    if not p.is_file():
        raise FileNotFoundError(f"no bundled data file named {filename!r}")
    return str(p)


def load_point_set(cx: CubicalComplex, path) -> PointSetA:
    """Read a labelled point set ``{"points": {label: coords}}`` from JSON."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ComplexError(f"{path}: point set document needs a 'points' object")
    pts = doc["points"]
    if not isinstance(pts, dict) or not pts:
        raise ComplexError(f"{path}: 'points' must be a nonempty object")
    coords = [number_array(v) for v in pts.values()]
    for label, point in zip(pts, coords):
        if point is None:
            raise ComplexError(f"{path}: point {label!r} must be an array of numbers")
    return PointSetA.from_coords(cx, coords, labels=list(pts.keys()))


def _entry(name: str) -> str:
    """``name`` if it is a bundled corpus entry, else ``ValueError`` listing them."""
    if name not in BUNDLED:
        raise ValueError(f"unknown corpus entry {name!r}; have {', '.join(BUNDLED)}")
    return name


def load_bundled(name: str):
    """The bundled complex and point set for one corpus entry."""
    _entry(name)
    cx = load_complex(data_path(f"{name}.json"))
    A = load_point_set(cx, data_path(f"{name}_points.json"))
    return cx, A


def expected(name: str) -> dict:
    """Frozen expected results for one corpus entry."""
    return read_json(data_path(f"{_entry(name)}_expected.json"))
