"""Verification on the quotient grid against the dense check it replaced.

``geometry`` checks a family on one cell per class of interchangeable
coordinates.  The reference below is the dense check kept as a test-only
copy: it scatters every ambient cell, in the original coordinates, through
the same ``_factor_csr``/``_scatter_sum`` helpers.  Every report, piercing
vector, weighted piercing answer and tiling error must match it.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import geometry
from boxkit.constructions import lift, product
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    VerificationReport,
    _factor_csr,
    _scatter_sum,
    piercing_number,
    verify_cover,
    weighted_piercing_ok,
)

# -- the dense reference -----------------------------------------------------


def _dense_first_point(bad):
    return tuple(int(c) + 1 for c in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _dense_line_minima(csr, sides, weights=None):
    w = np.ones_like(csr[2]) if weights is None else weights
    return tuple(int(_scatter_sum(csr, sides, i, w[:, i]).min()) for i in range(len(sides)))


def dense_verify_cover(family, multiplicity=1, mode="exact"):
    sides = family.ambient.sides
    csr = _factor_csr(family.boxes, family.ambient.dim)
    cover = _scatter_sum(csr, sides)
    cmin, cmax = int(cover.min()), int(cover.max())
    bad = cover != multiplicity if mode == "exact" else cover < multiplicity
    ok = not bool(bad.any())
    vals, starts, lens = csr
    brick = all(
        bool((v[s + n - 1] - v[s] + 1 == n).all()) for v, s, n in zip(vals, starts.T, lens.T)
    )
    per_axis = _dense_line_minima(csr, sides)
    return VerificationReport(
        is_partition=(cmin == 1 and cmax == 1),
        cover_multiplicity_min=cmin,
        cover_multiplicity_max=cmax,
        all_proper=bool((lens != np.array(sides)).all()),
        all_odd=bool((lens % 2 == 1).all()),
        all_brick=brick,
        piercing_number=min(per_axis),
        per_axis_piercing=per_axis,
        multiplicity_ok=ok,
        first_violation=None if ok else _dense_first_point(bad),
    )


def dense_piercing_number(family):
    per_axis = _dense_line_minima(
        _factor_csr(family.boxes, family.ambient.dim), family.ambient.sides
    )
    return min(per_axis), per_axis


def dense_weighted_piercing_ok(ambient, boxes, labels, k):
    csr = _factor_csr(boxes, ambient.dim)
    w = np.array(labels, dtype=np.int64).reshape(len(boxes), ambient.dim)
    return min(_dense_line_minima(csr, ambient.sides, w)) >= k


def dense_tiling_error(ambient, boxes):
    """The tiling message of an intermediate partition, or None."""
    bad = _scatter_sum(_factor_csr(boxes, ambient.dim), ambient.sides) != 1
    if not bad.any():
        return None
    return (
        "parts of an intermediate partition must tile the ambient; "
        f"first bad point {_dense_first_point(bad)}"
    )


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
# 1 and 3 put almost every box in a batch of its own, bigger than the budget
batch_budgets = st.sampled_from([1, 3, geometry._BATCH_CELLS])


# -- differential tests ------------------------------------------------------


@given(families, batch_budgets)
@settings(max_examples=300, deadline=None)
def test_reports_match_the_dense_check(fam, budget):
    with mock.patch.object(geometry, "_BATCH_CELLS", budget):
        for t, mode in itertools.product((1, 2, 3), ("exact", "at_least")):
            assert verify_cover(fam, t, mode) == dense_verify_cover(fam, t, mode)
        assert piercing_number(fam) == dense_piercing_number(fam)


@given(families, st.data())
@settings(max_examples=200, deadline=None)
def test_intermediate_partitions_match_the_dense_check(fam, data):
    """The tiling error text, and on a tiling the weighted piercing answer."""
    d = fam.ambient.dim
    labels = [data.draw(st.tuples(*[st.integers(1, 3)] * d)) for _ in fam.boxes]
    parts = tuple(zip(fam.boxes, map(PiercingVector, labels)))
    want = dense_tiling_error(fam.ambient, fam.boxes)
    try:
        ip = IntermediatePartition(fam.ambient, parts)
    except GeometryError as exc:
        assert str(exc) == want
        return
    assert want is None
    for k in range(1, 3 * d + 2):
        assert weighted_piercing_ok(ip, k) == dense_weighted_piercing_ok(
            fam.ambient, fam.boxes, labels, k
        )


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
