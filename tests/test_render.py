import pytest

from boxkit import geometry
from boxkit.constructions import grid_partition, trivial_odd_partition
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
