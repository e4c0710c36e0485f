"""Certified mean-set membership in CAT(0) cubical complexes.

Decide whether a query point is a weighted barycenter of a finite point
set, with machine-checkable certificates either way, and evaluate the
mean-deficit landscape that quantifies how far a point is from being one.
"""

from .complexes import (
    ComplexError,
    CubeCell,
    CubicalComplex,
    LocatedPoint,
    LocationError,
    ValidationReport,
    complex_from_dict,
    load_complex,
)
from .convex import ConvergenceError, box_segment_min, feasibility_min_norm, min_norm_point
from .geodesics import Geodesic, GeodesicError, distance, geodesic, midpoint, point_along
from .recognition import (
    CertificateError,
    DeficitReport,
    MembershipCertificate,
    NonMembershipCertificate,
    PointSetA,
    RecognitionResult,
    certified_lower_bound,
    mean_deficit,
    recognize,
    recognize_interior,
    test_function,
    test_function_line_search,
    verify_certificate,
    weighted_objective,
)
from .boundary import (
    directional_derivative,
    general_deficit,
    recognize_general,
    solve_PC,
)
from .corpus import BUNDLED, load_bundled
from .heatmap import HeatMapSample, run_heatmap, segment_probes, to_csv

__version__ = "0.1.0"

__all__ = [
    "BUNDLED",
    "CertificateError",
    "ComplexError",
    "ConvergenceError",
    "CubeCell",
    "CubicalComplex",
    "DeficitReport",
    "Geodesic",
    "GeodesicError",
    "HeatMapSample",
    "LocatedPoint",
    "LocationError",
    "MembershipCertificate",
    "NonMembershipCertificate",
    "PointSetA",
    "RecognitionResult",
    "ValidationReport",
    "box_segment_min",
    "certified_lower_bound",
    "complex_from_dict",
    "directional_derivative",
    "distance",
    "feasibility_min_norm",
    "general_deficit",
    "geodesic",
    "load_bundled",
    "load_complex",
    "mean_deficit",
    "midpoint",
    "min_norm_point",
    "point_along",
    "recognize",
    "recognize_general",
    "recognize_interior",
    "run_heatmap",
    "segment_probes",
    "solve_PC",
    "test_function",
    "test_function_line_search",
    "to_csv",
    "verify_certificate",
    "weighted_objective",
]
