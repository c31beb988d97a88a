"""The public record types: value equality and hashing, immutability,
defaults, keyword construction, repr, pickling and the validation errors."""

import pickle
from fractions import Fraction

import pytest

from boxkit.bounds import BoundValue, ParityTally
from boxkit.formats import PartitionDocument
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    BoxFlags,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    VerificationReport,
)
from boxkit.graphq import CliquePropertyReport, TwoColoredGraph
from boxkit.search import CoverInstance, SearchBudget, SearchResult

A22 = Ambient((2, 2))
HALVES = (DiscreteBox.of([1], [1, 2]), DiscreteBox.of([2], [1, 2]))
FAMILY = BoxFamily(A22, HALVES)
LABELS = (PiercingVector((1, 2)), PiercingVector((2, 1)))

# type -> (fields in order, {omitted defaults: their values}, [(bad fields, error)])
CASES = {
    Ambient: (
        {"sides": (2, 3)},
        {},
        [
            ({"sides": ()}, "ambient must have dimension >= 1"),
            ({"sides": (1, 3)}, "every side must be >= 2, got (1, 3)"),
            ({"sides": (True, 3)}, "sides must be integers, got True"),
        ],
    ),
    DiscreteBox: (
        {"factors": ((1, 2), (3,))},
        {},
        [
            ({"factors": ((),)}, "empty factor"),
            ({"factors": ((1, 1),)}, "duplicate elements in factor (1, 1)"),
            ({"factors": ((0, 1),)}, "coordinates must be >= 1, got (0, 1)"),
        ],
    ),
    BoxFlags: ({"proper": True, "odd": False, "brick": True}, {}, []),
    BoxFamily: (
        {"ambient": A22, "boxes": HALVES},
        {},
        [
            ({"ambient": A22, "boxes": (DiscreteBox.of([3], [1]),)}, "factor (3,) exceeds side 2"),
            (
                {"ambient": A22, "boxes": (DiscreteBox.of([1]),)},
                "box dimension 1 != ambient dimension 2",
            ),
        ],
    ),
    VerificationReport: (
        {
            "is_partition": False,
            "cover_multiplicity_min": 0,
            "cover_multiplicity_max": 2,
            "all_proper": True,
            "all_odd": True,
            "all_brick": False,
            "piercing_number": 1,
            "per_axis_piercing": (1, 2),
            "multiplicity_ok": False,
            "first_violation": (1, 1),
        },
        {"multiplicity_ok": True, "first_violation": None},
        [],
    ),
    PiercingVector: (
        {"labels": (1, 3)},
        {},
        [
            ({"labels": (0, 1)}, "labels must be >= 1, got (0, 1)"),
            ({"labels": (1.0,)}, "labels must be integers, got 1.0"),
        ],
    ),
    IntermediatePartition: (
        {"ambient": A22, "parts": tuple(zip(HALVES, LABELS))},
        {},
        [
            (
                {"ambient": A22, "parts": ((HALVES[0], PiercingVector((1,))),)},
                "label/dimension mismatch",
            ),
            (
                {"ambient": A22, "parts": ((HALVES[0], LABELS[0]),)},
                "parts of an intermediate partition must tile the ambient; first bad point (2, 1)",
            ),
        ],
    ),
    CoverInstance: (
        {"ambient": A22, "candidates": HALVES, "multiplicity": 2, "mode": "at_least"},
        {"multiplicity": 1, "mode": "exact"},
        [
            (
                {"ambient": A22, "candidates": HALVES, "multiplicity": 0},
                "multiplicity must be >= 1",
            ),
            ({"ambient": A22, "candidates": HALVES, "mode": "most"}, "unknown mode 'most'"),
        ],
    ),
    SearchBudget: (
        {"max_nodes": 5, "wall_seconds": 1.5, "seed": 7},
        {"max_nodes": 10_000_000, "wall_seconds": 60.0, "seed": 0},
        [
            ({"max_nodes": 0}, "budget fields must be positive"),
            ({"wall_seconds": float("nan")}, "budget fields must be positive"),
        ],
    ),
    SearchResult: (
        {
            "best": FAMILY,
            "best_size": 2,
            "proven_optimal": True,
            "nodes": 3,
            "elapsed": 0.25,
            "stop_reason": "exhausted",
        },
        {},
        [],
    ),
    ParityTally: (
        {"total_selectors": 4, "odd_hits": 2},
        {},
        [({"total_selectors": 1, "odd_hits": 2}, "odd_hits out of range")],
    ),
    BoundValue: (
        {"name": "x", "value": Fraction(3, 2)},
        {},
        [
            ({"name": "x", "value": 0}, "bound x must be finite positive"),
            ({"name": "y", "value": float("inf")}, "bound y must be finite positive"),
        ],
    ),
    TwoColoredGraph: (
        {"vertex_count": 3, "colored_edges": (frozenset({(0, 1)}), frozenset({(1, 2)}))},
        {},
        [
            ({"vertex_count": 0, "colored_edges": ()}, "graph needs at least one vertex"),
            (
                {"vertex_count": 2, "colored_edges": (frozenset({(0, 2)}),)},
                "edge (0, 2) out of range",
            ),
            (
                {"vertex_count": 2, "colored_edges": (frozenset({(0, 1)}), frozenset({(1, 0)}))},
                "edge (0, 1) colored twice",
            ),
        ],
    ),
    CliquePropertyReport: (
        {"holds": False, "witnesses": (((0, 1),),), "failing_vertex": 2, "failing_color": 0},
        {},
        [],
    ),
    PartitionDocument: (
        {"ambient": A22, "boxes": HALVES, "labels": LABELS, "meta": (("name", "halves"),)},
        {"labels": None, "meta": ()},
        [
            (
                {"ambient": A22, "boxes": HALVES, "labels": LABELS[:1]},
                "labels must match boxes one-to-one",
            ),
            ({"ambient": Ambient((2,)), "boxes": HALVES}, "box dimension 2 != ambient dimension 1"),
        ],
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    fields, defaults, errors = CASES[cls]
    rec = cls(*fields.values())
    same = cls(**fields)
    assert rec == same and hash(rec) == hash(same)
    assert tuple(getattr(rec, name) for name in fields) == tuple(fields.values())
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert pickle.loads(pickle.dumps(rec)) == rec

    # equal fields under another type, or as a plain tuple, are not equal
    lookalike = type("Lookalike", (cls,), {})(**fields)
    assert [getattr(lookalike, name) for name in fields] == list(fields.values())
    assert rec != lookalike and lookalike != rec
    assert rec != tuple(fields.values())

    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    assert rec == same

    required = {k: v for k, v in fields.items() if k not in defaults}
    built = cls(**required)
    assert {k: getattr(built, k) for k in defaults} == defaults

    for bad, message in errors:
        with pytest.raises(GeometryError) as exc:
            cls(**bad)
        assert str(exc.value) == message
