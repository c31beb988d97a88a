"""Plain-text and SVG pictures of low-dimensional partitions.

ASCII output prints the 1-based box id of every cell: a single row in 1D, a
grid in 2D, and one grid per last-axis layer in 3D (the layered style used
for hand-listings of 3D partitions).  SVG output (2D only) draws one
rectangle per brick and falls back to unit tiles for non-brick boxes.  A
picture whose estimated text in bytes (a label and a separator per cell for
ASCII, ``_RECT_BYTES`` per drawn rectangle for SVG) passes geometry's cell
limit raises GeometryError before anything is allocated.
"""

from __future__ import annotations

from .formats import PartitionDocument
from .geometry import GeometryError, _check_cells, _columns, _distinct, _flat_cells, _is_interval

__all__ = ["render"]

_CELL = 24  # svg pixels per lattice cell
_RECT_BYTES = 160  # svg text per drawn rectangle and its label, at least


def _id_grid(doc: PartitionDocument) -> list[int]:
    """Id of the first box covering each cell (0 for uncovered cells), per
    ambient cell in row-major order."""
    sides = doc.ambient.sides
    keys, cells = _flat_cells(*zip(*map(_distinct, _columns(doc.boxes, len(sides)))), sides)
    grid = [0] * doc.ambient.volume
    # the last box first, so that the first box over a cell writes it last
    for i in range(len(keys), 0, -1):
        for p in cells[keys[i - 1]]:
            grid[p] = i
    return grid


def _ascii(doc: PartitionDocument) -> str:
    dim = doc.ambient.dim
    if dim > 3:
        raise GeometryError("ascii rendering supports dimensions 1-3")
    width = len(str(len(doc.boxes)))
    _check_cells([*doc.ambient.sides, width + 1], f"the text of a picture over {dim} axes")
    labels = [(str(i) if i else ".").rjust(width) for i in range(len(doc.boxes) + 1)]
    cells = [labels[i] for i in _id_grid(doc)]
    if dim == 1:
        return " ".join(cells) + "\n"
    _, ny, nz = (*doc.ambient.sides, 1)[:3]

    def grid2d(z: int) -> str:  # rows top down: y decreasing; x runs with stride ny * nz
        return "\n".join(" ".join(cells[y * nz + z :: ny * nz]) for y in range(ny - 1, -1, -1))

    if dim == 2:
        return grid2d(0) + "\n"
    return "\n\n".join(f"layer z={z + 1}\n" + grid2d(z) for z in range(nz)) + "\n"


def _svg(doc: PartitionDocument) -> str:
    if doc.ambient.dim != 2:
        raise GeometryError("svg rendering supports dimension 2 only")
    nx, ny = doc.ambient.sides
    w, h = nx * _CELL, ny * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]

    def rect(x0, y0, cols, rows, label):
        x, y = (x0 - 1) * _CELL, (ny - y0 - rows + 1) * _CELL
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cols * _CELL}" height="{rows * _CELL}" '
            'fill="none" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x + cols * _CELL / 2}" y="{y + rows * _CELL / 2}" '
            'text-anchor="middle" dominant-baseline="middle" '
            f'font-size="10">{label}</text>'
        )

    bricks = [all(map(_is_interval, box.factors)) for box in doc.boxes]
    rects = sum(1 if brick else b.cardinality for b, brick in zip(doc.boxes, bricks))
    _check_cells([rects, _RECT_BYTES], "the text of a picture over 2 axes")
    for i, (box, brick) in enumerate(zip(doc.boxes, bricks), start=1):
        fx, fy = box.factors
        if brick:
            rect(fx[0], fy[0], len(fx), len(fy), i)
        else:
            for x in fx:
                for y in fy:
                    rect(x, y, 1, 1, i)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(doc: PartitionDocument, format: str = "ascii") -> str:
    if format == "ascii":
        return _ascii(doc)
    if format == "svg":
        return _svg(doc)
    raise GeometryError(f"unknown render format {format!r}")
