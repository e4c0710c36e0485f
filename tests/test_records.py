"""Every record type is an immutable value: fields cannot be set, equal
fields give equal records, the repr names every field, and the checks on
construction raise ``ValueError`` naming what is wrong."""

import math

import pytest

from meanset import geodesic, load_bundled, recognize
from meanset.boundary import DirectionalDerivativeModel, PCOutcome
from meanset.complexes import CubeCell, LocatedPoint, ValidationReport
from meanset.convex import (
    FREE,
    NONNEG,
    ConeBall,
    FeasibilityResult,
    MinNormResult,
    ProductSet,
    SignCone,
    Singleton,
    WeightedSum,
)
from meanset.geodesics import Geodesic
from meanset.heatmap import HeatMapSample
from meanset.recognition import (
    DeficitReport,
    MembershipCertificate,
    NonMembershipCertificate,
    RecognitionResult,
    VerificationReport,
)


def _fields():
    """Per record type, a function giving fresh field values, equal on every call."""
    cone = lambda: SignCone((FREE, NONNEG))   # noqa: E731
    return {
        SignCone: lambda: ((FREE, NONNEG),),
        MinNormResult: lambda: ((0.5, 0.0), (0.25, 0.75), 1e-14),
        Singleton: lambda: ((0.6, 0.8), 2.0),
        ConeBall: lambda: ((0.0, 1.0), cone(), 1.5),
        ProductSet: lambda: ((Singleton((1.0, 0.0)), Singleton((0.0, 1.0))), 2),
        WeightedSum: lambda: ((Singleton((1.0, 0.0)),), (1.0,)),
        FeasibilityResult: lambda: (0.0, (0.0, 0.0), (0.0, 0.0), (1.0,), "zero", 3, 0.0),
        CubeCell: lambda: ((0, 1), (0,), "c001"),
        LocatedPoint: lambda: ((0.5, 0.0), "c015", None),
        ValidationReport: lambda: ((), "assumed"),
        Geodesic: lambda: (((0.5, 0.0), (-0.5, 0.0)), ("c012",), 1.0),
        MembershipCertificate: lambda: ({"a": 0.75, "b": 0.25}, 0.0),
        NonMembershipCertificate: lambda: ((0.5, -0.25), {"a": 0.1, "b": 0.2}),
        DeficitReport: lambda: (0.5, {"c012": 0.5}, None, (1.0, 0.0)),
        RecognitionResult: lambda: ("member", MembershipCertificate({"a": 1.0}, 0.0),
                                    {"c012": (True, 0.0)}, 0.0),
        VerificationReport: lambda: (True, 8, (), {"c012": 0.0}),
        DirectionalDerivativeModel: lambda: ("a", "c012", 1.0, (0.0, 0.0),
                                             Singleton((-1.0, 0.0)), cone()),
        PCOutcome: lambda: ("c012", False, 0.5, (0.5, 0.5), (1.0, 0.0)),
        HeatMapSample: lambda: ("c012", (0.5, 0.0), 0.0, True),
    }


FIELDS = _fields()


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_records_are_immutable_values(record):
    """Setting a field or a new attribute raises AttributeError; records built
    from equal fields are equal, hash alike when every field is hashable, and
    unpack by position."""
    a, b = record(*FIELDS[record]()), record(*FIELDS[record]())
    assert a == b and not a != b
    assert repr(a) == repr(b)
    assert tuple(a) == FIELDS[record]()
    try:
        hash(FIELDS[record]())
    except TypeError:   # a dict field: neither record hashes
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)


def test_located_point_ignores_its_complex(bundles):
    """Located by two copies of one complex, a point gives equal records with
    one hash and one repr, as a point given by coordinates alone does."""
    cx, _ = bundles["squares3"]
    other, _ = load_bundled("squares3")
    a, b = cx.locate((0.5, 0.0)), other.locate((0.5, 0.0))
    assert a.cx is cx and b.cx is other
    plain = LocatedPoint((0.5, 0.0), "c015")
    assert a == b == plain and not a != b
    assert hash(a) == hash(b) == hash(plain)
    assert repr(a) == repr(b) == repr(plain) == (
        "LocatedPoint(coords=(0.5, 0.0), minimal_cell='c015')")
    assert a != cx.locate((0.5, -0.5))


def test_pinned_reprs(bundles):
    """The repr names every field, in the format these records always had."""
    cx, A = bundles["squares3"]
    assert repr(geodesic(cx, (0.5, 0.0), (-0.5, 0.5))) == (
        "Geodesic(breakpoints=((0.5, 0.0), (0.0, 0.0), (-0.5, 0.5)), cells=('c012', 'c006'), "
        "length=1.2071067811865475)")
    assert repr(recognize(A, (0.5, 0.0))) == (
        "RecognitionResult(decision='member', certificate=MembershipCertificate("
        "weights={'a': 0.75, 'b': 0.25, 'c': 0.0}, deficit=0.0), "
        "per_cell={'c012': (True, 0.0)}, deficit=0.0)")


@pytest.mark.parametrize("build, match", [
    (lambda: SignCone((FREE, "up")), "unknown sign constraint 'up'"),
    (lambda: Singleton((0.8, 0.8)), r"g must be finite and in the unit ball, got \(0.8, 0.8\)"),
    (lambda: Singleton((math.nan,)), "g must be finite and in the unit ball"),
    (lambda: Singleton((1.0,), math.inf), "scale must be finite, got inf"),
    (lambda: ConeBall((0.5, 0.0), SignCone((FREE, FREE))), "u must be a finite unit vector"),
    (lambda: ConeBall((1.0,), SignCone((FREE, FREE))), "u has dimension 1, the cone 2"),
    (lambda: ConeBall((1.0, 0.0), "x"), "cone must be a SignCone, got 'x'"),
    (lambda: ConeBall((1.0,), SignCone((FREE,)), math.nan), "scale must be finite, got nan"),
    (lambda: WeightedSum((Singleton((1.0,)),), (-0.5,)), "weights must be a finite nonnegative"),
    (lambda: WeightedSum((Singleton((1.0,)),), (0.5, 0.5)), "one per set"),
    (lambda: WeightedSum((Singleton((1.0,)),), (math.nan,)), "weights must be a finite"),
    (lambda: Geodesic(((0.0,), (1.0,)), ("c0", "c1"), 1.0), "need exactly one cell per segment"),
], ids=["sign", "singleton-g", "singleton-nan", "singleton-scale", "coneball-u",
        "coneball-dimension", "coneball-cone", "coneball-scale", "weighted-sum-negative",
        "weighted-sum-count", "weighted-sum-nan", "geodesic-cells"])
def test_construction_checks_raise_value_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build, match", [
    (lambda: Singleton((1.0,))._replace(scale=math.nan), "scale must be finite, got nan"),
    (lambda: SignCone._make([("up",)]), "unknown sign constraint 'up'"),
    (lambda: Geodesic(((0.0,), (1.0,)), ("c",), 1.0)._replace(cells=()),
     "need exactly one cell per segment"),
    (lambda: ConeBall((1.0,), SignCone((FREE,)))._replace(u=(0.5,)),
     "u must be a finite unit vector"),
    (lambda: WeightedSum._make([(Singleton((1.0,)),), (-0.5,)]),
     "weights must be a finite nonnegative"),
], ids=["singleton-replace", "sign-make", "geodesic-replace", "coneball-replace",
        "weighted-sum-make"])
def test_make_and_replace_run_the_construction_checks(build, match):
    """``_make``, and ``_replace`` through it, build a checked record by its
    constructor, so they raise as the constructor does."""
    with pytest.raises(ValueError, match=match):
        build()


def test_deficit_report_to_dict_keeps_weights_or_direction():
    """A zero deficit's report carries its weights, a positive one's its direction."""
    zero = DeficitReport(0.0, {"c012": 0.0}, {"a": 0.75, "b": 0.25})
    assert zero.to_dict() == {"value": 0.0, "per_cell": {"c012": 0.0},
                              "weights": {"a": 0.75, "b": 0.25}}
    assert DeficitReport(0.5, {"c012": 0.5}, None, (1.0, 0.0)).to_dict() == {
        "value": 0.5, "per_cell": {"c012": 0.5}, "direction": [1.0, 0.0]}


def test_make_and_replace_build_checked_records():
    assert Singleton((1.0,))._replace(scale=2.0) == Singleton((1.0,), 2.0)
    assert SignCone._make([(FREE,)]) == SignCone((FREE,))
    g = Geodesic._make((((0.0,), (1.0,)), ("c",), 1.0))
    assert type(g) is Geodesic and g._replace(length=2.0).length == 2.0


def test_records_compare_as_tuples(bundles):
    """Records keep tuple equality: a record equals the plain tuple of its
    fields and a record of another type with equal fields.  A LocatedPoint
    equals the 3-tuple ``(coords, minimal_cell, cx)``, by the reflected tuple
    comparison, but not ``(coords, minimal_cell)``."""
    cert = MembershipCertificate({"a": 1.0}, 0.0)
    assert cert == ({"a": 1.0}, 0.0) and ({"a": 1.0}, 0.0) == cert
    assert cert == NonMembershipCertificate({"a": 1.0}, 0.0)
    assert Singleton((1.0,), 2.0) == ((1.0,), 2.0)
    assert hash(Singleton((1.0,), 2.0)) == hash(((1.0,), 2.0))
    cx, _ = bundles["squares3"]
    x = cx.locate((0.5, 0.0))
    assert x == ((0.5, 0.0), "c015", cx) and not x != ((0.5, 0.0), "c015", cx)
    assert x != ((0.5, 0.0), "c015", None)
    assert x != ((0.5, 0.0), "c015") and not x == ((0.5, 0.0), "c015")
