"""Verification on the quotient grid against a dense check.

``geometry`` checks a family on one cell per class of interchangeable
coordinates, with every tensor packed into one Python int.  The reference
below shares none of that code: it adds each box's weight into a dense
object-dtype numpy array, in the original coordinates, through ``np.ix_``
of its factors, so its sums are exact Python ints too.  Every report,
piercing vector, weighted piercing answer and tiling error must match it,
also with the split between walked and packed axes forced to each value.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import geometry
from boxkit.constructions import lift, product, quadrant_construction
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    VerificationReport,
    piercing_number,
    verify_cover,
    weighted_piercing_ok,
)

# -- the dense reference -----------------------------------------------------


def _dense(sides, boxes, weights=None, skip=None):
    """The tensor over every axis but ``skip`` whose cell sums the weights (1
    by default) of the boxes whose projection holds it."""
    keep = [a for a in range(len(sides)) if a != skip]
    out = np.zeros([sides[a] for a in keep], dtype=object)
    for b, w in zip(boxes, itertools.repeat(1) if weights is None else weights):
        out[np.ix_(*[[c - 1 for c in b.factors[a]] for a in keep])] += w
    return out


def _dense_first_point(bad):
    return tuple(int(c) + 1 for c in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _dense_line_minima(sides, boxes, weights=None):
    columns = [None] * len(sides) if weights is None else list(zip(*weights))
    return tuple(_dense(sides, boxes, w, i).min() for i, w in enumerate(columns))


def dense_verify_cover(family, multiplicity=1, mode="exact"):
    sides, boxes = family.ambient.sides, family.boxes
    cover = _dense(sides, boxes)
    cmin, cmax = cover.min(), cover.max()
    bad = (cover != multiplicity if mode == "exact" else cover < multiplicity).astype(bool)
    ok = not bad.any()
    factors = [(f, n) for b in boxes for f, n in zip(b.factors, sides)]
    per_axis = _dense_line_minima(sides, boxes)
    return VerificationReport(
        is_partition=(cmin == 1 and cmax == 1),
        cover_multiplicity_min=cmin,
        cover_multiplicity_max=cmax,
        all_proper=all(len(f) != n for f, n in factors),
        all_odd=all(len(f) % 2 == 1 for f, _ in factors),
        all_brick=all(f[-1] - f[0] + 1 == len(f) for f, _ in factors),
        piercing_number=min(per_axis),
        per_axis_piercing=per_axis,
        multiplicity_ok=ok,
        first_violation=None if ok else _dense_first_point(bad),
    )


def dense_piercing_number(family):
    per_axis = _dense_line_minima(family.ambient.sides, family.boxes)
    return min(per_axis), per_axis


def dense_weighted_piercing_ok(ambient, boxes, labels, k):
    return min(_dense_line_minima(ambient.sides, boxes, labels)) >= k


def dense_tiling_error(ambient, boxes):
    """The tiling message of an intermediate partition, or None."""
    bad = (_dense(ambient.sides, boxes) != 1).astype(bool)
    if not bad.any():
        return None
    return (
        "parts of an intermediate partition must tile the ambient; "
        f"first bad point {_dense_first_point(bad)}"
    )


def forced_split(s):
    """``_split`` made to walk the first ``s`` axes of every tensor (all of
    them when it has fewer) and pack the rest."""
    return mock.patch.object(geometry, "_split", lambda q, axes: min(s, len(axes)))


# -- families ----------------------------------------------------------------


def _boxes(draw, sides, max_boxes):
    return tuple(
        DiscreteBox(f)
        for f in draw(
            st.lists(
                st.tuples(*(st.sets(st.integers(1, n), min_size=1) for n in sides)),
                max_size=max_boxes,
            )
        )
    )


@st.composite
def any_families(draw):
    """Arbitrary boxes: overlaps, gaps and non-bricks; sides 2-6, 1-4 axes."""
    sides = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=4)))
    return BoxFamily(Ambient(sides), _boxes(draw, sides, 8))


@st.composite
def cubes(draw, n, max_dim):
    d = draw(st.integers(1, max_dim))
    return BoxFamily(Ambient.cube(n, d), _boxes(draw, (n,) * d, 5))


@st.composite
def refined_partitions(draw):
    """Partitions into general boxes: cut a part in two along one axis by an
    arbitrary (not necessarily contiguous) split of its factor."""
    sides = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    parts = [tuple(tuple(range(1, n + 1)) for n in sides)]
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(parts) - 1))
        axis = draw(st.integers(0, len(sides) - 1))
        f = parts[i][axis]
        if len(f) < 2:
            continue
        left = draw(st.sets(st.sampled_from(f), min_size=1, max_size=len(f) - 1))
        right = tuple(c for c in f if c not in left)
        parts[i : i + 1] = [
            parts[i][:axis] + (tuple(sorted(left)),) + parts[i][axis + 1 :],
            parts[i][:axis] + (right,) + parts[i][axis + 1 :],
        ]
    return BoxFamily(Ambient(tuple(sides)), tuple(map(DiscreteBox, parts)))


@st.composite
def lifted(draw):
    n = draw(st.integers(2, 4))
    return lift(draw(cubes(n, 3)), draw(st.integers(n, 6)))


@st.composite
def products(draw):
    n = draw(st.integers(2, 4))
    return product(draw(cubes(n, 2)), draw(cubes(n, 2)))


families = st.one_of(any_families(), refined_partitions(), lifted(), products())
# every axis packed, or every axis walked cell by cell; the ids keep the names
# of the two kernels these forced splits replaced, so that the test ids stay
# the same
EVERY, NONE = 0, 99
SPLITS, SPLIT_IDS = [EVERY, NONE], ["masks", "arrays"]


# -- differential tests ------------------------------------------------------


@given(families)
@settings(max_examples=300, deadline=None)
def test_reports_match_the_dense_check(fam):
    for t, mode in itertools.product((1, 2, 3), ("exact", "at_least")):
        assert verify_cover(fam, t, mode) == dense_verify_cover(fam, t, mode)
    assert piercing_number(fam) == dense_piercing_number(fam)


@given(families, st.data())
@settings(max_examples=200, deadline=None)
def test_intermediate_partitions_match_the_dense_check(fam, data):
    """The tiling error text, and on a tiling the weighted piercing answer,
    from labels up to 9."""
    d = fam.ambient.dim
    labels = [data.draw(st.tuples(*[st.integers(1, 9)] * d)) for _ in fam.boxes]
    parts = tuple(zip(fam.boxes, map(PiercingVector, labels)))
    want = dense_tiling_error(fam.ambient, fam.boxes)
    try:
        ip = IntermediatePartition(fam.ambient, parts)
    except GeometryError as exc:
        assert str(exc) == want
        return
    assert want is None
    for k in range(1, 9 * d + 2):
        assert weighted_piercing_ok(ip, k) == dense_weighted_piercing_ok(
            fam.ambient, fam.boxes, labels, k
        )


@given(families, st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_every_split_matches_the_dense_check(fam, s):
    """Every split point, from every axis packed (s = 0) to every axis
    walked (s = d), gives the dense check's reports."""
    with forced_split(s):
        for t, mode in itertools.product((1, 2), ("exact", "at_least")):
            assert verify_cover(fam, t, mode) == dense_verify_cover(fam, t, mode)
        assert piercing_number(fam) == dense_piercing_number(fam)


@given(refined_partitions(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_wide_labels_match_the_dense_check(fam, s, data):
    """Labels up to 2^100 need fields of up to 13 bytes, past a machine
    word; at every split point the answer matches the dense check just
    below, at and above the least line sum."""
    d = fam.ambient.dim
    labels = [data.draw(st.tuples(*[st.integers(1, 2**100)] * d)) for _ in fam.boxes]
    ip = IntermediatePartition(fam.ambient, tuple(zip(fam.boxes, map(PiercingVector, labels))))
    least = min(_dense_line_minima(fam.ambient.sides, fam.boxes, labels))
    with forced_split(s):
        assert [weighted_piercing_ok(ip, k) for k in (least - 1, least, least + 1)] == [
            True, True, False
        ]


@pytest.mark.parametrize("label", [2**62, 10**30], ids=["2^62", "10^30"])
def test_wide_labels_sum_exactly(label):
    """Every part of the quadrant partition of [16]^4 (4,096 quotient cells)
    labeled ``label``: every line meets 4 parts, so its sum is exactly 4
    labels, with numpy loaded as it is here.  An int64 tensor wrapped at
    2^62 and could not hold 10^30 at all."""
    fam = quadrant_construction(4, 4)
    ip = IntermediatePartition(fam.ambient, tuple((b, PiercingVector((label,) * 4)) for b in fam.boxes))
    assert weighted_piercing_ok(ip, 4) is True
    assert weighted_piercing_ok(ip, 4 * label) is True
    assert weighted_piercing_ok(ip, 4 * label + 1) is False


@pytest.mark.parametrize("split", SPLITS, ids=SPLIT_IDS)
@pytest.mark.parametrize(
    "fam",
    [
        BoxFamily(Ambient((3, 4)), ()),
        BoxFamily(Ambient((3, 4)), (DiscreteBox.of([1, 3], [2, 3, 4]),) * 300),
        BoxFamily(Ambient((3,)), (DiscreteBox.of([1, 2, 3]),) * 300),
    ],
    ids=["empty", "300-repeats", "300-repeats-1d"],
)
def test_edge_families_match_the_dense_check(fam, split):
    """No boxes at all (every sum 0), and one box 300 times, whose 300
    copies share one number; targets below, at and above 300, which need
    fields of two bytes."""
    with forced_split(split):
        for t, mode in itertools.product((1, 299, 300, 301, 512), ("exact", "at_least")):
            assert verify_cover(fam, t, mode) == dense_verify_cover(fam, t, mode)
        assert piercing_number(fam) == dense_piercing_number(fam)
    if fam.boxes and fam.ambient.dim == 2:
        rep = verify_cover(fam, 300)
        assert (rep.cover_multiplicity_min, rep.cover_multiplicity_max) == (0, 300)
        assert rep.first_violation == (1, 1)
        assert rep.per_axis_piercing == (0, 0)


@pytest.mark.parametrize("copies", [127, 128, 200, 255, 256])
def test_counts_past_seven_bits_keep_a_guard_bit(copies):
    """Counts of 128-256 over a cell with no box: the at-least test adds
    2^(width - 1) - target to every field, which must not carry into the
    next field, so each field keeps a spare top bit."""
    fam = BoxFamily(Ambient((3,)), (DiscreteBox.of([1, 2]),) * copies)
    for t, mode in itertools.product((1, copies, copies + 1), ("exact", "at_least")):
        assert verify_cover(fam, t, mode) == dense_verify_cover(fam, t, mode)
    assert verify_cover(fam, 1, "at_least").first_violation == (3,)


@pytest.mark.parametrize("split", SPLITS, ids=SPLIT_IDS)
def test_repeated_parts_match_the_dense_check(split):
    """A tiling of [2] x [3] whose least line sums are 151 (axis 0) and 255
    (axis 1), from labels of up to nine bits; doubled, it tiles nothing."""
    boxes = (DiscreteBox.of([1], [1, 2, 3]), DiscreteBox.of([2], [1, 2]), DiscreteBox.of([2], [3]))
    labels = [(150, 255), (300, 7), (1, 511)]
    amb = Ambient((2, 3))
    with forced_split(split):
        ip = IntermediatePartition(amb, tuple(zip(boxes, map(PiercingVector, labels))))
        targets = (150, 151, 152, 255, 256, 512)
        got = [weighted_piercing_ok(ip, k) for k in targets]
        assert got == [dense_weighted_piercing_ok(amb, boxes, labels, k) for k in targets]
        assert got == [True, True, False, False, False, False]
        with pytest.raises(GeometryError) as exc:
            IntermediatePartition(amb, tuple(zip(boxes * 2, map(PiercingVector, labels * 2))))
    assert str(exc.value) == dense_tiling_error(amb, boxes * 2)


@pytest.mark.parametrize(
    "n, sides, least",
    [
        (2, (2, 3), ([1, 2], [1, 5, 1001])),
        (3, (3, 3), ([1, 2, 3], [1, 5, 1001])),
        (7, (3, 3), ([1, 2, 7], [1, 5, 1001])),
    ],
)
def test_classes_are_numbered_by_their_smallest_coordinate(n, sides, least):
    """On [n] x [10^9], boxes {1} x [1000] and {n} x {5}: axis 1 has the
    classes [1000] minus 5, {5} and the coordinates in no box, found without
    touching the 10^9 coordinates."""
    boxes = (DiscreteBox.of([1], range(1, 1001)), DiscreteBox.of([n], [5]))
    q = geometry._quotient(boxes, (n, 10**9))
    assert q.sides == sides
    assert q.least == least
