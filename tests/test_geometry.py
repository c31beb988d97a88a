import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxkit import geometry
from boxkit.formats import PartitionDocument
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    boxes_disjoint,
    classify_box,
    piercing_number,
    verify_cover,
    weighted_piercing_ok,
)
from boxkit.search import CoverInstance


def box(*factors):
    return DiscreteBox.of(*factors)


class TestAmbient:
    def test_cube(self):
        a = Ambient.cube(5, 3)
        assert a.sides == (5, 5, 5)
        assert a.dim == 3
        assert a.volume == 125

    def test_rejects_small_sides(self):
        with pytest.raises(GeometryError):
            Ambient((5, 1))
        with pytest.raises(GeometryError):
            Ambient(())


class TestDiscreteBox:
    def test_factors_sorted_and_validated(self):
        b = box([3, 1], [2])
        assert b.factors == ((1, 3), (2,))
        assert b.cardinality == 2
        assert b.contains((3, 2))
        assert not b.contains((2, 2))

    def test_rejects_bad_factors(self):
        with pytest.raises(GeometryError):
            box([], [1])
        with pytest.raises(GeometryError):
            box([0], [1])
        with pytest.raises(GeometryError):
            DiscreteBox(((1, 1),))

    def test_boxes_share_canonical_factors(self):
        canon = box([1, 2]).factors[0]
        assert box([2, 1], [3]).factors[0] is canon
        assert DiscreteBox(((np.int64(2), np.int8(1)),)).factors[0] is canon
        assert DiscreteBox((canon,)).factors[0] is canon

    def test_validate_in(self):
        b = box([1, 5])
        b.validate_in(Ambient.cube(5, 1))
        with pytest.raises(GeometryError):
            b.validate_in(Ambient.cube(4, 1))
        with pytest.raises(GeometryError):
            b.validate_in(Ambient.cube(5, 2))


class TestClassify:
    def test_flags(self):
        amb = Ambient.cube(5, 2)
        f = classify_box(box([1, 3, 5], [2]), amb)
        assert f.proper and f.odd and not f.brick
        f = classify_box(box([1, 2, 3, 4, 5], [1, 2]), amb)
        assert not f.proper and not f.odd and f.brick

    def test_full_side_improper(self):
        amb = Ambient.cube(3, 1)
        assert not classify_box(box([1, 2, 3]), amb).proper


class TestDisjoint:
    def test_disjoint_on_one_axis_suffices(self):
        assert boxes_disjoint(box([1], [1, 2]), box([2], [1, 2]))
        assert not boxes_disjoint(box([1, 2], [1]), box([2, 3], [1, 2]))

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            boxes_disjoint(box([1]), box([1], [1]))


class TestVerifyCover:
    def test_simple_partition(self):
        amb = Ambient.cube(2, 2)
        fam = BoxFamily(
            amb, (box([1], [1, 2]), box([2], [1]), box([2], [2]))
        )
        rep = verify_cover(fam)
        assert rep.is_partition
        assert rep.cover_multiplicity_min == rep.cover_multiplicity_max == 1
        assert rep.first_violation is None

    def test_gap_reported(self):
        amb = Ambient.cube(2, 2)
        fam = BoxFamily(amb, (box([1], [1, 2]), box([2], [2])))
        rep = verify_cover(fam)
        assert not rep.is_partition
        assert rep.first_violation == (2, 1)

    def test_overlap_reported(self):
        amb = Ambient.cube(2, 1)
        fam = BoxFamily(amb, (box([1, 2]), box([2])))
        rep = verify_cover(fam)
        assert not rep.multiplicity_ok
        assert rep.cover_multiplicity_max == 2

    def test_double_cover_modes(self):
        amb = Ambient.cube(2, 1)
        fam = BoxFamily(amb, (box([1, 2]), box([1, 2])))
        assert verify_cover(fam, 2, "exact").multiplicity_ok
        assert verify_cover(fam, 2, "at_least").multiplicity_ok
        assert not verify_cover(fam, 3, "at_least").multiplicity_ok

    def test_empty_family(self):
        rep = verify_cover(BoxFamily(Ambient.cube(3, 2), ()))
        assert not rep.is_partition
        assert rep.cover_multiplicity_max == 0

    def test_bad_arguments(self):
        fam = BoxFamily(Ambient.cube(2, 1), (box([1, 2]),))
        with pytest.raises(GeometryError):
            verify_cover(fam, 0)
        with pytest.raises(GeometryError):
            verify_cover(fam, 1, "sometimes")


class TestPiercing:
    def test_slabs(self):
        amb = Ambient.cube(3, 2)
        fam = BoxFamily(
            amb, tuple(box([i], [1, 2, 3]) for i in (1, 2, 3))
        )
        overall, per_axis = piercing_number(fam)
        assert per_axis == (3, 1)
        assert overall == 1

    def test_singletons(self):
        amb = Ambient.cube(2, 2)
        fam = BoxFamily(
            amb, tuple(box([x], [y]) for x in (1, 2) for y in (1, 2))
        )
        assert piercing_number(fam) == (2, (2, 2))


class TestIntermediatePartition:
    def test_requires_exact_tiling(self):
        amb = Ambient.cube(2, 1)
        with pytest.raises(GeometryError):
            IntermediatePartition(
                amb, ((box([1]), PiercingVector((1,))),)
            )

    def test_labels_positive_and_dimensioned(self):
        amb = Ambient.cube(2, 1)
        with pytest.raises(GeometryError):
            PiercingVector((0,))
        with pytest.raises(GeometryError):
            IntermediatePartition(
                amb,
                (
                    (box([1]), PiercingVector((1, 1))),
                    (box([2]), PiercingVector((1, 1))),
                ),
            )


# -- coordinates and the intern table -----------------------------------------

_NON_INTEGERS = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.builds(np.float64, st.integers(1, 9)),
    st.builds(np.bool_, st.booleans()),
)


@given(
    st.lists(st.integers(1, 9), max_size=4, unique=True),
    _NON_INTEGERS,
    st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_non_integer_coordinates_refused(cells, bad, at):
    cells.insert(at, bad)
    with pytest.raises(GeometryError, match="coordinates must be integers"):
        DiscreteBox((tuple(cells),))


@given(
    st.sets(st.integers(1, 9), min_size=1),
    st.sampled_from([int, np.int8, np.int64, np.uint16]),
)
@settings(max_examples=60, deadline=None)
def test_integer_coordinates_stored_as_int(cells, kind):
    factor = DiscreteBox((tuple(map(kind, cells)),)).factors[0]
    assert factor == tuple(sorted(cells))
    assert all(type(c) is int for c in factor)


@given(
    st.lists(st.integers(2, 9), max_size=3),
    _NON_INTEGERS,
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_non_integer_sides_and_labels_refused(values, bad, at):
    values.insert(at, bad)
    with pytest.raises(GeometryError, match="sides must be integers"):
        Ambient(tuple(values))
    with pytest.raises(GeometryError, match="labels must be integers"):
        PiercingVector(tuple(values))


@given(st.sets(st.integers(1, 9), min_size=1), st.data())
@settings(max_examples=100, deadline=None)
def test_fast_path_never_admits_an_equal_tuple_of_other_types(cells, data):
    """An interned factor and a tuple equal to it, with an equal hash, that
    holds a float or a bool: the table returns the interned object, which is
    not the tuple passed, so the tuple takes the full checks."""
    canon = DiscreteBox((tuple(cells),)).factors[0]
    i = data.draw(st.integers(0, len(canon) - 1))
    c = canon[i]
    other = data.draw(st.sampled_from([float(c), np.float64(c)] + [True] * (c == 1)))
    spelled = canon[:i] + (other,) + canon[i + 1 :]
    assert spelled == canon and hash(spelled) == hash(canon)
    with pytest.raises(GeometryError, match="coordinates must be integers"):
        DiscreteBox((spelled,))
    assert DiscreteBox((canon,)).factors[0] is canon


def _normalize_factor_by_the_full_path(factor):
    """The checks every tuple not interned by identity used to take: the
    canonical tuple, or the text of the error."""
    try:
        cells = tuple(factor)
        if not all(type(c) is int for c in cells):
            cells = tuple(map(geometry._integer, cells))
        cells = tuple(sorted(cells))
        if not cells:
            raise GeometryError("empty factor")
        if len(set(cells)) != len(cells):
            raise GeometryError(f"duplicate elements in factor {cells}")
        if cells[0] < 1:
            raise GeometryError(f"coordinates must be >= 1, got {cells}")
    except GeometryError as exc:
        return str(exc)
    return geometry._CANON.get(cells, cells)


@given(st.sets(st.integers(1, 9), min_size=1), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_equal_tuples_get_the_full_path_result(cells, interned, data):
    """A tuple equal to a factor, each coordinate spelled as a fresh int, a
    bool, a float or a numpy integer, interned or not: the result or error
    of the full checks.  Exact ints get the interned tuple itself."""
    canon = tuple(sorted(cells))
    if interned:
        canon = DiscreteBox((canon,)).factors[0]
    spellings = [lambda c: int(str(c)), float, np.int64, lambda c: c == 1 or c]
    spelled = tuple(data.draw(st.sampled_from(spellings))(c) for c in canon)
    want = _normalize_factor_by_the_full_path(spelled)
    try:
        got = geometry._normalize_factor(spelled)
    except GeometryError as exc:
        assert str(exc) == want
        return
    assert got == want and all(type(c) is int for c in got)
    if interned and not isinstance(want, str):
        assert got is canon


# -- column validation -------------------------------------------------------

def _validate_each(boxes, ambient):
    """The per-box loop the column check replaces: None, or the error's text."""
    try:
        for b in boxes:
            b.validate_in(ambient)
    except GeometryError as exc:
        return str(exc)
    return None


@st.composite
def boxes_near_an_ambient(draw):
    """An ambient of 1 to 9 axes and up to 6 boxes that mostly fit it: a box
    may have 0 to 10 axes, and about one factor in eight may pass its side."""
    sides = draw(st.lists(st.integers(2, 5), min_size=1, max_size=9))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        dim = draw(st.one_of(st.just(len(sides)), st.integers(0, 10)))
        factors = []
        for i in range(dim):
            n = sides[i] if i < len(sides) else 5
            top = n + (draw(st.integers(0, 7)) == 0)
            factors.append(draw(st.sets(st.integers(1, top), min_size=1, max_size=3)))
        boxes.append(DiscreteBox(tuple(factors)))
    return Ambient(tuple(sides)), tuple(boxes)


@given(boxes_near_an_ambient())
@example((Ambient((3,)), ()))  # empty family
@example((Ambient((5,) * 9), ()))
@example((Ambient((3, 3)), (box([1], [1]), box([4]))))  # short box, bad factor
@example((Ambient((3, 3)), (box([1], [1]), box([1], [1], [9]))))  # zip drops axis 3
@example((Ambient((3, 3)), (box([3], [1, 3]), box([1], [2, 4]))))  # bad on axis 2 only
@example((Ambient((4,)), (box([1, 4]), box([5]))))  # 1-D
@example((Ambient((5,) * 9), (box(*[[5]] * 9), box(*[[1]] * 8, [6]))))  # 9-D
@settings(max_examples=300, deadline=None)
def test_column_validation_matches_the_per_box_loop(case):
    """Same accept or reject decision, and the same message, as validate_in
    run box by box."""
    ambient, boxes = case
    want = _validate_each(boxes, ambient)
    try:
        geometry._validate_boxes(boxes, ambient)
    except GeometryError as exc:
        assert str(exc) == want
    else:
        assert want is None


@given(boxes_near_an_ambient())
@example((Ambient((3, 3)), (box([1], [1]), box([1], [1], [9]))))  # zip drops axis 3
@settings(max_examples=200, deadline=None)
def test_axis_maxima_match_a_per_box_scan(case):
    """The column maxima behind both the family check and a listing's
    inferred sides: None on any dimension mismatch, else the largest
    coordinate per axis, 0 with no boxes."""
    ambient, boxes = case
    dim = ambient.dim
    if any(b.dim != dim for b in boxes):
        want = None
    else:
        want = tuple(max((b.factors[i][-1] for b in boxes), default=0) for i in range(dim))
    assert geometry._axis_maxima(boxes, dim) == want


def _naive_maxima(boxes, dim):
    """The largest coordinate on each axis, box by box and cell by cell."""
    if any(b.dim != dim for b in boxes):
        return None
    return tuple(max((max(b.factors[i]) for b in boxes), default=0) for i in range(dim))


@pytest.mark.parametrize(
    "boxes, dim, want",
    [
        ((), 1, (0,)),  # empty family
        ((), 9, (0,) * 9),
        ((box([2, 4], [1], [3]),), 3, (4, 1, 3)),  # single box
        ((box([1], [5]),), 2, (1, 5)),
        ((box([1], [1]), box([2], [2], [2])), 2, None),  # mixed dimensions
        ((box([1], [1], [1]), box([2], [2])), 3, None),
        ((box([1], [1]), box([2], [2])), 3, None),  # one dimension, not dim
        ((box([3]), box([1, 2]), box([5])), 1, (5,)),  # maximum in the last box
        ((box([1, 3], [2]), box([1, 3], [4]), box([2], [2])), 2, (3, 4)),  # shared factors
    ],
)
def test_axis_maxima_match_a_naive_maximum(boxes, dim, want):
    assert _naive_maxima(boxes, dim) == want
    assert geometry._axis_maxima(boxes, dim) == want


def test_every_family_type_names_its_first_bad_box():
    amb = Ambient((3, 3))
    boxes = (box([1], [2]), box([1], [4]), box([1]))
    with pytest.raises(GeometryError, match=r"^factor \(4,\) exceeds side 3$"):
        BoxFamily(amb, boxes)
    with pytest.raises(GeometryError, match=r"^factor \(4,\) exceeds side 3$"):
        PartitionDocument(amb, boxes)
    with pytest.raises(GeometryError, match=r"^factor \(4,\) exceeds side 3$"):
        CoverInstance(amb, boxes)
    with pytest.raises(GeometryError, match="^box dimension 1 != ambient dimension 2$"):
        BoxFamily(amb, boxes[::2])
    # an intermediate partition reports its first bad part, box or labels
    good, bad = PiercingVector((1, 1)), PiercingVector((1,))
    with pytest.raises(GeometryError, match="^label/dimension mismatch$"):
        IntermediatePartition(amb, ((boxes[0], bad), (boxes[1], good)))
    with pytest.raises(GeometryError, match=r"^factor \(4,\) exceeds side 3$"):
        IntermediatePartition(amb, ((boxes[1], good), (boxes[0], bad)))
    with pytest.raises(GeometryError, match=r"^factor \(4,\) exceeds side 3$"):
        IntermediatePartition(amb, ((boxes[0], good), (boxes[1], good)))


# -- properties -------------------------------------------------------------

@st.composite
def grid_families(draw):
    """Random brick partitions from per-axis interval splits."""
    d = draw(st.integers(1, 3))
    sides, pieces = [], []
    for _ in range(d):
        cuts = draw(
            st.lists(st.integers(1, 3), min_size=1, max_size=3)
        )
        n = sum(cuts)
        sides.append(max(n, 2))
        segs, start = [], 1
        for c in cuts:
            segs.append(tuple(range(start, start + c)))
            start += c
        if n < 2:  # pad the single cell to fill the legal ambient
            segs[-1] = (1, 2)
        pieces.append(segs)
    amb = Ambient(tuple(sides))
    import itertools

    boxes = tuple(
        DiscreteBox(c) for c in itertools.product(*pieces)
    )
    return BoxFamily(amb, boxes)


@given(grid_families())
@settings(max_examples=60, deadline=None)
def test_grid_split_is_partition(fam):
    rep = verify_cover(fam)
    assert rep.is_partition
    assert rep.all_brick


@given(grid_families())
@settings(max_examples=60, deadline=None)
def test_pairwise_disjointness_matches_tensor(fam):
    import itertools

    for b1, b2 in itertools.combinations(fam.boxes, 2):
        assert boxes_disjoint(b1, b2)


@given(grid_families(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_dropping_a_box_breaks_the_partition(fam, rng):
    if len(fam.boxes) < 2:
        return
    keep = list(fam.boxes)
    keep.pop(rng.randrange(len(keep)))
    assert not verify_cover(BoxFamily(fam.ambient, tuple(keep))).is_partition


# -- differential tests against a point-membership oracle ---------------------


def _points(ambient):
    """All ambient points in row-major order."""
    return itertools.product(*(range(1, n + 1) for n in ambient.sides))


def _oracle_multiplicity(fam):
    return {p: sum(b.contains(p) for b in fam.boxes) for p in _points(fam.ambient)}


def _oracle_line_sums(fam, axis, weights):
    """Per axis-``axis`` line: summed weight of the boxes the line meets."""
    sums = {}
    for p in _points(fam.ambient):
        if p[axis] != 1:
            continue
        line = [p[:axis] + (c,) + p[axis + 1 :] for c in range(1, fam.ambient.sides[axis] + 1)]
        sums[p] = sum(w for b, w in zip(fam.boxes, weights) if any(b.contains(q) for q in line))
    return sums


@st.composite
def random_families(draw):
    """Small families of arbitrary boxes: overlaps, gaps and non-bricks."""
    sides = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    boxes = draw(
        st.lists(
            st.tuples(*(st.sets(st.integers(1, n), min_size=1) for n in sides)),
            max_size=8,
        )
    )
    return BoxFamily(Ambient(tuple(sides)), tuple(DiscreteBox(b) for b in boxes))


@given(random_families(), st.data())
@settings(max_examples=150, deadline=None)
def test_flat_cells_match_contains(fam, data):
    """``_flat_cells`` against ``DiscreteBox.contains``: over every axis but
    ``skip``, each box's list is the sorted row-major indices of the cells
    of its projection, for repeated boxes and the empty family too."""
    sides, boxes = fam.ambient.sides, fam.boxes
    if boxes:
        boxes += tuple(data.draw(st.lists(st.sampled_from(boxes), max_size=4)))
    skip = data.draw(st.sampled_from([None, *range(len(sides))]))
    keep = [a for a in range(len(sides)) if a != skip]
    axes = map(geometry._distinct, geometry._columns(boxes, len(sides)))
    keys, cells = geometry._flat_cells(*zip(*axes), sides, skip)
    points = list(itertools.product(*(range(1, sides[a] + 1) for a in keep)))
    assert len(keys) == len(boxes)
    for b, key in zip(boxes, keys):
        shadow = DiscreteBox(b.factors[a] for a in keep)
        assert cells[key] == [p for p, pt in enumerate(points) if shadow.contains(pt)]


@st.composite
def random_partitions(draw):
    """Partitions into general boxes: repeatedly cut one part in two along an
    axis by an arbitrary (not necessarily contiguous) split of its factor."""
    sides = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    parts = [tuple(tuple(range(1, n + 1)) for n in sides)]
    for _ in range(draw(st.integers(0, 8))):
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
    return BoxFamily(Ambient(tuple(sides)), tuple(DiscreteBox(p) for p in parts))


@given(random_families())
@settings(max_examples=150, deadline=None)
def test_verify_cover_matches_oracle(fam):
    mult = _oracle_multiplicity(fam)
    reports = {
        (t, mode): verify_cover(fam, t, mode)
        for t in (1, 2, 3)
        for mode in ("exact", "at_least")
    }
    overall, per_axis = piercing_number(fam)
    flags = [classify_box(b, fam.ambient) for b in fam.boxes]
    for (t, mode), rep in reports.items():
        bad = [p for p, m in mult.items() if (m != t if mode == "exact" else m < t)]
        assert rep.cover_multiplicity_min == min(mult.values())
        assert rep.cover_multiplicity_max == max(mult.values())
        assert rep.is_partition == all(m == 1 for m in mult.values())
        assert rep.multiplicity_ok == (not bad)
        assert rep.first_violation == (bad[0] if bad else None)
        assert rep.all_proper == all(f.proper for f in flags)
        assert rep.all_odd == all(f.odd for f in flags)
        assert rep.all_brick == all(f.brick for f in flags)
        assert rep.per_axis_piercing == per_axis
    expected = tuple(
        min(_oracle_line_sums(fam, i, [1] * len(fam)).values())
        for i in range(fam.ambient.dim)
    )
    assert per_axis == expected
    assert overall == min(expected)


@given(random_partitions(), st.data())
@settings(max_examples=100, deadline=None)
def test_weighted_piercing_matches_oracle(fam, data):
    d = fam.ambient.dim
    labels = [data.draw(st.tuples(*[st.integers(1, 3)] * d)) for _ in fam.boxes]
    k = data.draw(st.integers(1, 8))
    ip = IntermediatePartition(fam.ambient, tuple(zip(fam.boxes, map(PiercingVector, labels))))
    got = weighted_piercing_ok(ip, k)
    expected = all(
        min(_oracle_line_sums(fam, i, [a[i] for a in labels]).values()) >= k
        for i in range(d)
    )
    assert got == expected


@given(random_families())
@settings(max_examples=60, deadline=None)
def test_intermediate_partition_names_first_bad_point(fam):
    bad = [p for p, m in _oracle_multiplicity(fam).items() if m != 1]
    parts = tuple((b, PiercingVector((1,) * fam.ambient.dim)) for b in fam.boxes)
    if not bad:
        assert len(IntermediatePartition(fam.ambient, parts)) == len(fam)
        return
    with pytest.raises(GeometryError, match=f"first bad point {re.escape(str(bad[0]))}"):
        IntermediatePartition(fam.ambient, parts)


def test_boxes_spanning_several_batches():
    """One box over all of [24]^3 plus 24 slabs, each 552 cells: the slabs
    share the full box's factors on two axes, so its packed rows and theirs
    add up in the same rows."""
    n = 24
    amb = Ambient.cube(n, 3)
    full = DiscreteBox.of(range(1, n + 1), range(1, n + 1), range(1, n + 1))
    slabs = [DiscreteBox.of([x], range(1, n + 1), range(2, n + 1)) for x in range(1, n + 1)]
    fam = BoxFamily(amb, (full, *slabs))
    rep = verify_cover(fam, 2, "exact")
    assert (rep.cover_multiplicity_min, rep.cover_multiplicity_max) == (1, 2)
    assert rep.first_violation == (1, 1, 1)
    # lines in the z=1 layer miss every slab; z-lines meet the full box and one slab
    assert rep.per_axis_piercing == (1, 1, 2)


def test_quotient_box_spanning_several_batches():
    """The full box of [24]^3 and the 24 unit slabs on each axis: every
    coordinate is a class of its own, so the quotient keeps all 24^3 cells,
    and every cell is covered by the full box and one slab per axis."""
    n = 24
    amb = Ambient.cube(n, 3)
    side = range(1, n + 1)
    slabs = [
        box(*[[x] if j == axis else side for j in range(3)])
        for axis in range(3)
        for x in side
    ]
    fam = BoxFamily(amb, (box(side, side, side), *slabs))
    q = geometry._quotient(fam.boxes, amb.sides)
    assert math.prod(q.sides) == n**3
    rep = verify_cover(fam, 4, "exact")
    assert rep.multiplicity_ok and rep.first_violation is None
    assert (rep.cover_multiplicity_min, rep.cover_multiplicity_max) == (4, 4)
    # a line meets the full box, its own axis's n slabs and one slab per other axis
    assert rep.per_axis_piercing == (n + 3,) * 3
    assert not rep.all_proper and not rep.is_partition


def _diagonal(n, d, count):
    """Boxes {i} x ... x {i} for i <= count in [n]^d: count + 1 classes per
    axis, the singletons and the coordinates in no box."""
    return BoxFamily(Ambient.cube(n, d), tuple(box(*[[i]] * d) for i in range(1, count + 1)))


def test_tensor_cell_limit():
    """Quotient or line tensors over the cell limit are refused, not
    allocated: 601 classes per axis give 601^4 cells to cover and 601^3 per
    line tensor, both past 2^27."""
    fam = _diagonal(100_000, 4, 600)
    with mock.patch.object(geometry, "_split", side_effect=AssertionError):
        with pytest.raises(GeometryError, match="cell limit"):
            verify_cover(fam)
        with pytest.raises(GeometryError, match="cell limit"):
            piercing_number(fam)


def test_one_box_in_a_huge_ambient_verifies():
    """One cell of [10^5]^3 has a quotient of 2 x 2 x 2 cells, so it is
    checked exactly instead of refused."""
    fam = BoxFamily(Ambient.cube(100_000, 3), (box([1], [1], [1]),))
    rep = verify_cover(fam)
    assert not rep.is_partition and not rep.multiplicity_ok
    assert (rep.cover_multiplicity_min, rep.cover_multiplicity_max) == (0, 1)
    assert rep.first_violation == (1, 1, 2)
    assert rep.per_axis_piercing == (0, 0, 0) and rep.piercing_number == 0
    assert piercing_number(fam) == (0, (0, 0, 0))


def test_cell_check_stops_once_past_the_limit():
    """The shape is read only up to the side that passes the limit, so many
    axes cost nothing after that."""
    def shape():
        yield 1 << 20
        yield 1 << 20
        raise AssertionError("read past the side that passed the limit")

    with pytest.raises(GeometryError, match="cell limit"):
        geometry._check_cells(shape(), "a tensor")
    assert geometry._check_cells([3, 4, 5], "a tensor") == 60


@pytest.mark.parametrize(
    "check, sides, message",
    [
        (verify_cover, (3, 3), "a tensor over 2 axes exceeds the 8-cell limit"),
        (piercing_number, (2, 3, 3), "a tensor over 2 axes exceeds the 8-cell limit"),
    ],
    ids=["verify_cover", "piercing_number"],
)
def test_oversized_ambient_refused_before_the_factor_arrays(
    monkeypatch, check, sides, message
):
    """The first tensor's cell count, over the quotient, is checked before
    the boxes are numbered and any tensor is built, with the message the
    tensor itself would raise.  The boxes {1}^d and {2}^d leave three classes on
    every axis of side 3, so that tensor has 9 cells."""
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 8)
    fam = BoxFamily(Ambient(sides), (box(*[[1]] * len(sides)), box(*[[2]] * len(sides))))
    with mock.patch.object(geometry, "_numbered", side_effect=AssertionError):
        with pytest.raises(GeometryError) as exc:
            check(fam)
    assert str(exc.value) == message
