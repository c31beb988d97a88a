import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import geometry
from boxkit.constructions import (
    grid_partition,
    partition_25,
    quadrant_construction,
    trivial_odd_partition,
)
from boxkit.formats import PartitionDocument
from boxkit.geometry import Ambient, BoxFamily, DiscreteBox, GeometryError
from boxkit.render import _RECT_BYTES, render


def doc_of(fam):
    return PartitionDocument.from_family(fam)


class TestAscii:
    def test_1d_row(self):
        out = render(doc_of(trivial_odd_partition(5, 1)))
        assert out == "1 2 2 2 3\n"

    def test_2d_rows_top_down(self):
        out = render(doc_of(grid_partition(2, 2)))
        # box ids are column-major from the construction; y decreases downward
        assert out == "2 4\n1 3\n"

    def test_uncovered_cells_dotted(self):
        fam = BoxFamily(Ambient.cube(2, 2), (DiscreteBox.of([1], [1, 2]),))
        assert render(doc_of(fam)) == "1 .\n1 .\n"

    def test_3d_layers(self):
        out = render(doc_of(grid_partition(3, 2)))
        assert out.startswith("layer z=1\n")
        assert "\n\nlayer z=2\n" in out

    def test_cell_limit(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 8)
        with pytest.raises(GeometryError, match="cell limit"):
            render(doc_of(grid_partition(2, 3)))

    @pytest.mark.parametrize("boxes, width", [(9, 1), (10, 2)])
    def test_limit_counts_bytes(self, monkeypatch, boxes, width):
        # one label of the widest id plus a separator per cell
        ambient = Ambient((boxes, 2))
        fam = BoxFamily(ambient, tuple(DiscreteBox.of([x], [1, 2]) for x in range(1, boxes + 1)))
        size = ambient.volume * (width + 1)
        monkeypatch.setattr(geometry, "_CELL_LIMIT", size)
        assert len(render(doc_of(fam))) == size
        monkeypatch.setattr(geometry, "_CELL_LIMIT", size - 1)
        with pytest.raises(GeometryError, match="cell limit"):
            render(doc_of(fam))

    def test_4d_rejected(self):
        with pytest.raises(GeometryError):
            render(doc_of(grid_partition(4, 2)))


def one_d():
    """Twelve singletons listed right to left: two-digit labels."""
    return PartitionDocument(Ambient((12,)), tuple(DiscreteBox.of([x]) for x in range(12, 0, -1)))


def overlapping():
    """Boxes that overlap, and cells no box holds, over [4] x [3] x [2]."""
    boxes = (
        DiscreteBox.of([1, 2], [1, 2], [1]),
        DiscreteBox.of([2, 3], [2, 3], [1, 2]),
        DiscreteBox.of([1, 4], [3], [2]),
        DiscreteBox.of([1, 2, 3, 4], [1], [2]),
    )
    return PartitionDocument(Ambient((4, 3, 2)), boxes)


# sha256 of each picture as the array-based renderer drew it
@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: doc_of(partition_25()), "f40563ecb5e5a8cfb3af5b278b25edca3778480528a967f3c6c86ae314da1200"),
        (lambda: doc_of(quadrant_construction(2, 5)), "31bfdeac2cc09a2281f3197223b91807abeec379a3bb20ee8b3c1b4833411ce1"),
        (one_d, "dc9093774a1bb0b9bfe52942b2b40eb4e765e390137eadd421be1783a1566632"),
        (overlapping, "e10333c360b885bf7a5f76660b883bf79fac88984ddc581ffe6f0a05c18a1637"),
    ],
    ids=["p25", "q25", "1d", "overlap"],
)
def test_ascii_pinned_bytes(make, digest):
    assert hashlib.sha256(render(make()).encode()).hexdigest() == digest


def oracle_ascii(doc):
    """The picture drawn point by point: each cell names the first box that
    contains it, or "." for none."""
    sides = doc.ambient.sides
    width = len(str(len(doc.boxes)))

    def label(pt):
        i = next((i for i, b in enumerate(doc.boxes, 1) if b.contains(pt)), 0)
        return (str(i) if i else ".").rjust(width)

    def layer(z):  # rows top down: y decreasing
        return "\n".join(
            " ".join(label((x, y, *z)) for x in range(1, sides[0] + 1))
            for y in range(sides[1], 0, -1)
        )

    if len(sides) == 1:
        return " ".join(label((x,)) for x in range(1, sides[0] + 1)) + "\n"
    if len(sides) == 2:
        return layer(()) + "\n"
    return "\n\n".join(f"layer z={z}\n" + layer((z,)) for z in range(1, sides[2] + 1)) + "\n"


@st.composite
def documents(draw):
    """Arbitrary boxes over [2..4]^d, d <= 3: overlapping, missing cells, or
    none at all, and up to twelve of them, so labels reach two digits."""
    sides = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    factor = lambda n: st.sets(st.integers(1, n), min_size=1, max_size=n)
    boxes = draw(st.lists(st.tuples(*map(factor, sides)), max_size=12))
    return PartitionDocument(Ambient(sides), tuple(DiscreteBox.of(*b) for b in boxes))


@given(documents())
@settings(max_examples=150, deadline=None)
def test_ascii_matches_contains(doc):
    assert render(doc) == oracle_ascii(doc)


class TestSvg:
    def test_one_rect_per_brick(self):
        out = render(doc_of(grid_partition(2, 3)), "svg")
        assert out.count("<rect") == 9
        assert out.count("<text") == 9
        assert out.startswith("<svg ")

    def test_non_brick_becomes_unit_tiles(self):
        fam = BoxFamily(
            Ambient.cube(3, 2),
            (
                DiscreteBox.of([1, 3], [1, 2, 3]),
                DiscreteBox.of([2], [1, 2, 3]),
            ),
        )
        out = render(doc_of(fam), "svg")
        assert out.count("<rect") == 6 + 1

    def test_unit_tiles_limited(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 5)
        fam = BoxFamily(Ambient.cube(3, 2), (DiscreteBox.of([1, 3], [1, 2, 3]),))
        with pytest.raises(GeometryError, match="cell limit"):
            render(doc_of(fam), "svg")

    def test_limit_counts_every_rectangle(self, monkeypatch):
        # 9 bricks, one rectangle each, and no unit tiles
        fam = grid_partition(2, 3)
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 9 * _RECT_BYTES)
        assert render(doc_of(fam), "svg").count("<rect") == 9
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 9 * _RECT_BYTES - 1)
        with pytest.raises(GeometryError, match="cell limit"):
            render(doc_of(fam), "svg")

    def test_rectangle_bytes_are_a_lower_bound(self):
        fam = BoxFamily(Ambient.cube(3, 2), (DiscreteBox.of([1, 3], [1, 2, 3]),))
        out = render(doc_of(fam), "svg")
        assert len(out) > out.count("<rect") * _RECT_BYTES

    def test_only_2d(self):
        with pytest.raises(GeometryError):
            render(doc_of(trivial_odd_partition(3, 1)), "svg")

    def test_unknown_format(self):
        with pytest.raises(GeometryError):
            render(doc_of(grid_partition(2, 2)), "png")
