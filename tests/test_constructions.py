from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import constructions, geometry
from boxkit.constructions import (
    APPENDIX_25_LISTING,
    _build,
    _plan,
    _r,
    grid_partition,
    intermediate_library,
    lift,
    partition_25,
    predicted_size,
    product,
    quadrant_construction,
    realize,
    stack_lemma,
    trivial_odd_partition,
)
from boxkit.formats import PartitionDocument, write_partition_text
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    classify_box,
    piercing_number,
    verify_cover,
    weighted_piercing_ok,
)


def label_multiset(ip):
    return Counter(tuple(sorted(vec.labels)) for _, vec in ip.parts)


class TestBasicPartitions:
    def test_trivial_odd(self):
        fam = trivial_odd_partition(5, 3)
        rep = verify_cover(fam)
        assert len(fam) == 27
        assert rep.is_partition and rep.all_odd and rep.all_proper
        assert rep.all_brick

    def test_trivial_rejects_even_or_tiny_n(self):
        with pytest.raises(GeometryError):
            trivial_odd_partition(4, 2)
        with pytest.raises(GeometryError):
            trivial_odd_partition(1, 2)

    def test_grid(self):
        fam = grid_partition(2, 3)
        rep = verify_cover(fam)
        assert len(fam) == 9
        assert rep.is_partition and rep.all_brick
        assert rep.piercing_number == 3

    def test_grid_uneven_side(self):
        fam = grid_partition(2, 3, n=7)
        assert verify_cover(fam).piercing_number == 3


class TestPartition25:
    def test_verifies(self):
        fam = partition_25()
        rep = verify_cover(fam)
        assert len(fam) == 25
        assert fam.ambient.sides == (5, 5, 5)
        assert rep.is_partition and rep.all_odd and rep.all_proper

    def test_byte_identical_serialization(self):
        text = write_partition_text(PartitionDocument.from_family(partition_25()))
        assert text == APPENDIX_25_LISTING


class TestComposition:
    def test_product_sizes_multiply(self):
        p = product(trivial_odd_partition(3, 1), trivial_odd_partition(3, 2))
        rep = verify_cover(p)
        assert len(p) == 27
        assert p.ambient.sides == (3, 3, 3)
        assert rep.is_partition and rep.all_odd

    def test_product_needs_common_side(self):
        with pytest.raises(GeometryError):
            product(trivial_odd_partition(3, 1), trivial_odd_partition(5, 1))

    def test_lift_preserves_size_and_oddness(self):
        lifted = lift(partition_25(), 7)
        rep = verify_cover(lifted)
        assert len(lifted) == 25
        assert lifted.ambient.sides == (7, 7, 7)
        assert rep.is_partition and rep.all_odd and rep.all_proper

    def test_lift_parity_flip(self):
        lifted = lift(trivial_odd_partition(3, 2), 4)
        assert not verify_cover(lifted).all_odd

    def test_lift_down_is_an_error(self):
        with pytest.raises(GeometryError):
            lift(partition_25(), 3)


class TestQuadrant:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_2d_size_and_piercing(self, k):
        fam = quadrant_construction(2, k)
        rep = verify_cover(fam)
        assert len(fam) == 4 * (k - 1)
        assert rep.is_partition and rep.all_brick
        assert rep.piercing_number == k

    def test_1d_is_slabs(self):
        fam = quadrant_construction(1, 4)
        assert len(fam) == 4
        assert verify_cover(fam).piercing_number == 4

    def test_3d(self):
        fam = quadrant_construction(3, 4)
        rep = verify_cover(fam)
        assert len(fam) <= 48
        assert rep.is_partition and rep.all_brick
        assert rep.piercing_number >= 4


class TestLibrary:
    @pytest.mark.parametrize("name,parts,dim", [
        ("fig3", 5, 2), ("fig4", 10, 3), ("fig5", 12, 3),
        ("fig6", 22, 4), ("fig8", 15, 3),
    ])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_shape_and_weighted_piercing(self, name, parts, dim, k):
        ip = intermediate_library(name, k)
        assert len(ip) == parts
        assert ip.ambient.dim == dim
        assert weighted_piercing_ok(ip, k)

    def test_fig8_contains_non_bricks(self):
        ip = intermediate_library("fig8", 3)
        fam = ip.family()
        assert any(
            not classify_box(b, fam.ambient).brick for b in fam.boxes
        )

    def test_unknown_name(self):
        with pytest.raises(GeometryError):
            intermediate_library("fig7", 3)

    def test_needs_k_at_least_3(self):
        with pytest.raises(GeometryError):
            intermediate_library("fig3", 2)


class TestStackLemma:
    def test_fig3_coefficients(self):
        k = 5
        out = intermediate_library("fig4", k)
        assert len(out) == 10
        assert out.ambient.dim == 3
        assert label_multiset(out) == {
            (1, k - 1, k - 1): 2,
            (1, 1, k - 1): 6,
            (1, 1, k - 2): 2,
        }
        assert weighted_piercing_ok(out, k)

    def test_fig5_coefficients(self):
        k = 4
        out = stack_lemma(
            intermediate_library("fig5", k),
            ("high", "high", "low"),
            ("high", "high", "high"),
            k,
        )
        assert label_multiset(out) == {
            (1, 1, k - 1, k - 1): 8,
            (1, 1, k - 2, k - 1): 5,
            (1, 1, 1, k - 1): 8,
            (1, 1, 1, k - 2): 3,
        }
        assert weighted_piercing_ok(out, k)

    def test_identical_corners_rejected(self):
        with pytest.raises(GeometryError):
            stack_lemma(
                intermediate_library("fig3", 3),
                ("low", "low"),
                ("low", "low"),
                3,
            )

    def test_non_brick_parts_rejected(self):
        with pytest.raises(GeometryError, match="brick"):
            stack_lemma(
                intermediate_library("fig8", 3),
                ("low", "low", "low"),
                ("high", "low", "low"),
                3,
            )


class TestRealize:
    def test_fig6_k3(self):
        ip = intermediate_library("fig6", 3)
        assert predicted_size(ip, 3) == 61
        fam = realize(ip, 3)
        rep = verify_cover(fam)
        assert len(fam) == 61
        assert rep.is_partition and rep.all_brick
        assert rep.piercing_number >= 3

    def test_fig8_k3(self):
        ip = intermediate_library("fig8", 3)
        assert predicted_size(ip, 3) == 24
        fam = realize(ip, 3)
        rep = verify_cover(fam)
        assert len(fam) == 24
        assert rep.is_partition
        assert not rep.all_brick
        assert rep.piercing_number >= 3

    def test_tail_dims_extend_the_cube(self):
        ip = intermediate_library("fig3", 3)
        fam = realize(ip, 3, tail_dims=1)
        rep = verify_cover(fam)
        assert fam.ambient.dim == 3
        assert len(fam) == predicted_size(ip, 3, 1)
        assert rep.is_partition
        assert rep.piercing_number >= 3

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_realized_size_always_matches_prediction(self, name, k):
        ip = intermediate_library(name, k)
        fam = realize(ip, k)
        rep = verify_cover(fam)
        assert len(fam) == predicted_size(ip, k)
        assert rep.is_partition
        assert rep.piercing_number >= k

    def test_insufficient_labels_rejected(self):
        from boxkit.geometry import (
            Ambient,
            DiscreteBox,
            IntermediatePartition,
            PiercingVector,
        )

        ip = IntermediatePartition(
            Ambient.cube(2, 1),
            (
                (DiscreteBox.of([1]), PiercingVector((1,))),
                (DiscreteBox.of([2]), PiercingVector((1,))),
            ),
        )
        with pytest.raises(GeometryError):
            realize(ip, 3)


def _factor_cells(fam):
    return sum(len(f) for b in fam.boxes for f in b.factors)


class TestCellLimit:
    """A construction counts the factor cells of the family it would build,
    exactly or as an upper bound, and refuses one past the cell limit before
    building any factor: the builders are gone when it is refused."""

    @pytest.mark.parametrize(
        "build, bound, builders",
        [
            # 3^2 boxes whose pieces split each side: d * 3^(d-1) * n, exact
            (lambda: trivial_odd_partition(5, 2), 30, ["_r", "_slab_grid"]),
            (lambda: grid_partition(2, 3, 10), 60, ["_r", "_slab_grid"]),
            # 8 boxes on [4]^2: at most 8 * (4 + 4)
            (lambda: quadrant_construction(2, 3), 64, ["_build", "DiscreteBox"]),
            # 8 boxes of 2 factors on [6]^2, and 24 boxes of 3 on [6]^3
            (lambda: realize(intermediate_library("fig3", 3), 3), 96, ["_build"]),
            (lambda: realize(intermediate_library("fig3", 3), 3, 1), 432, ["_build"]),
        ],
        ids=["trivial", "grid", "quadrant", "realize", "realize-tail"],
    )
    def test_refused_before_building(self, build, bound, builders, monkeypatch):
        monkeypatch.setattr(geometry, "_CELL_LIMIT", bound)
        assert _factor_cells(build()) <= bound
        monkeypatch.setattr(geometry, "_CELL_LIMIT", bound - 1)
        for name in builders:
            monkeypatch.setattr(constructions, name, None)
        with pytest.raises(GeometryError, match=f"^the box factors of .* {bound - 1}-cell limit"):
            build()

    def test_lift_refused_before_building(self, monkeypatch):
        # 9 boxes on [3]^2 lifted to [5]^2: {3} grows to {3,4,5}, 30 cells exactly
        fam = trivial_odd_partition(3, 2)
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 30)
        assert _factor_cells(lift(fam, 5)) == 30
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 29)
        monkeypatch.setattr(constructions, "_normalize_factor", None)
        monkeypatch.setattr(constructions, "DiscreteBox", None)
        with pytest.raises(GeometryError, match="^the box factors of a lifted family"):
            lift(fam, 5)

    def test_product_refused_before_building(self, monkeypatch):
        # 25 x 25 boxes of 3 + 3 axes: 3,750 cells of boxes times axes
        p25 = partition_25()
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 3750)
        assert len(product(p25, p25)) == 625
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 3749)
        monkeypatch.setattr(constructions, "_unchecked_boxes", None)
        with pytest.raises(GeometryError, match="^the boxes of a product exceeds the 3749-cell"):
            product(p25, p25)

    def test_product_bound_admits_p25_fourth_power_only(self, monkeypatch):
        """p25^3 squared, 15,625^2 boxes of 18 axes, is refused; p25^4,
        390,625 boxes of 12, passes the check and reaches the builder."""
        p25 = partition_25()
        square = product(p25, p25)
        cube = product(square, p25)
        with pytest.raises(GeometryError, match="^the boxes of a product exceeds"):
            product(cube, cube)

        def builder(boxes, count):
            raise LookupError(count)

        monkeypatch.setattr(constructions, "_unchecked_boxes", builder)
        with pytest.raises(LookupError, match="^390625$"):
            product(square, square)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: grid_partition(2, 2, 10**12),
            lambda: trivial_odd_partition(3, 10**12),
            lambda: quadrant_construction(10**6, 2),
            lambda: realize(intermediate_library("fig6", 4), 4, 10**9),
            lambda: predicted_size(intermediate_library("fig6", 4), 4, 10**9),
            lambda: lift(partition_25(), 10**12),
        ],
        ids=["grid", "trivial", "quadrant", "realize", "predicted_size", "lift"],
    )
    def test_unbounded_arguments_refused(self, build):
        with pytest.raises(GeometryError, match="cell limit"):
            build()


@given(st.integers(3, 6), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_quadrant_always_verified(k, d):
    fam = quadrant_construction(d, k)
    rep = verify_cover(fam)
    assert rep.is_partition and rep.all_brick
    assert rep.piercing_number >= k


@given(st.sampled_from(["fig3", "fig4", "fig5", "fig6", "fig8"]), st.integers(3, 6))
@settings(max_examples=25, deadline=None)
def test_library_weighted_piercing_invariant(name, k):
    assert weighted_piercing_ok(intermediate_library(name, k), k)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_build_fills_exactly_its_planned_room(labels):
    """_build into a box of exactly the planned cells makes the planned number
    of pieces, which tile the box and meet every label along their axis."""
    labels = tuple(labels)
    size, need = _plan(labels)
    pieces = list(_build(tuple(_r(1, n) for n in need), labels))
    assert len(pieces) == size
    # an axis labeled 1 needs one cell and is never split; the rest is the
    # partition proper (an ambient side must be at least 2)
    axes = [a for a, n in enumerate(need) if n > 1]
    assert axes == [a for a, x in enumerate(labels) if x > 1]
    if not axes:
        assert size == 1
        return
    fam = BoxFamily(
        Ambient(tuple(need[a] for a in axes)),
        tuple(DiscreteBox(tuple(p[a] for a in axes)) for p in pieces),
    )
    assert verify_cover(fam).is_partition
    _, per_axis = piercing_number(fam)
    assert all(got >= labels[a] for got, a in zip(per_axis, axes))


@pytest.mark.parametrize(
    "call, raises",
    [
        (lambda ip: quadrant_construction(3, 3), False),
        (lambda ip: quadrant_construction(1, 1), True),
        (lambda ip: predicted_size(ip, 4), False),
        (lambda ip: predicted_size(ip, 4, -1), True),
        (lambda ip: realize(ip, 4), False),
        (lambda ip: realize(ip, 4, -1), True),
    ],
    ids=["quadrant", "quadrant-raises", "predicted", "predicted-raises", "realize", "realize-raises"],
)
def test_plan_memo_lasts_one_call(call, raises):
    """``_plan`` keeps no state once a public call returns or raises: a
    long-lived process would otherwise hold every state it ever planned."""
    ip = intermediate_library("fig6", 4)
    _plan((3, 3, 3))
    assert _plan.cache_info().currsize > 0
    if raises:
        with pytest.raises(GeometryError):
            call(ip)
    else:
        call(ip)
    assert _plan.cache_info().currsize == 0
