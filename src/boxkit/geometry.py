"""Core geometry of discrete cubes and axis-aligned sub-boxes.

A d-dimensional ambient cube is a product [n_1] x ... x [n_d] of integer
ranges (1-based).  A sub-box is a product of per-axis subsets; a brick is a
sub-box whose factors are all contiguous intervals.  This module holds the
immutable domain types plus the verification predicates everything else in
the package relies on:

* ``classify_box``      -- proper / odd / brick flags for a single box
* ``boxes_disjoint``    -- product-set disjointness test
* ``verify_cover``      -- exact point-by-point multiplicity check
* ``piercing_number``   -- per-axis minimum of distinct boxes met by a line
* ``weighted_piercing_ok`` -- label-sum piercing test for labeled partitions

Verification stays exhaustive, on the quotient grid.  On each axis two
coordinates are interchangeable when every box factor holds both or neither:
interchangeable points lie in the same boxes, and the lines through them
meet the same boxes.  ``_quotient`` finds these classes exactly, by
partition refinement over each axis's distinct factors, then scatters every
box's classes into a dense tensor with one cell per class (or per class of
the lines of one axis) and checks every entry.  A bad point is reported at
the smallest coordinate of its classes, the first bad point in row-major
order.  So the cost grows with the total cardinality of the boxes on the
quotient plus the quotient volume, and the class step with the total size
of the distinct factors, never with a side.  The properness, oddness and
brick flags come from the original factors.  Quotient tensors above
``_CELL_LIMIT`` cells raise GeometryError instead of being allocated.  All
types are frozen dataclasses, safe to share across threads.

Coordinates, ambient sides and piercing labels are Python ints: numpy
integers are stored as ``int``, and a bool, float or string raises
GeometryError.  Each distinct factor is sorted and checked once and then
interned, so boxes built from equal factors share one canonical tuple; a
tuple of exact ints equal to an interned one is replaced by it unchecked.

Only the functions that build or read an array import numpy, inside their
bodies, so code that builds boxes, families and documents but no array
never loads it.

Trust rule: ``DiscreteBox._canonical`` builds a box with no check at all.
Only code that holds canonical factors calls it -- each factor either came
out of ``_normalize_factor`` or was taken off an existing box, and both are
sorted, duplicate-free tuples of ints >= 1 -- so its boxes equal the ones
the public constructor would build.  ``product``, ``lift``, candidate
enumeration and both parsers build their boxes this way.  A family, a
document and a cover instance check their boxes against the ambient by axis
columns (``_validate_boxes``): one dimension test per box, then one maximum
per axis (``_axis_maxima``, which also gives a listing's inferred sides,
so a listing without a header is not checked again); on a failure the
per-box ``validate_in`` runs and raises the same error it always did.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Literal, NamedTuple, Sequence, get_args

__all__ = [
    "Ambient",
    "DiscreteBox",
    "BoxFlags",
    "BoxFamily",
    "VerificationReport",
    "PiercingVector",
    "IntermediatePartition",
    "CornerSpec",
    "GeometryError",
    "classify_box",
    "boxes_disjoint",
    "verify_cover",
    "piercing_number",
    "weighted_piercing_ok",
]


class GeometryError(ValueError):
    """Structural error: invalid box, dimension mismatch, bad coordinates."""


@dataclass(frozen=True)
class Ambient:
    """Ambient cube [n_1] x ... x [n_d]; coordinates are 1-based."""

    sides: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple(_integer(n, "sides") for n in self.sides))
        if len(self.sides) < 1:
            raise GeometryError("ambient must have dimension >= 1")
        if any(n < 2 for n in self.sides):
            raise GeometryError(f"every side must be >= 2, got {self.sides}")

    @staticmethod
    def cube(n: int, d: int) -> "Ambient":
        return Ambient((n,) * d)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> int:
        return math.prod(self.sides)


# Canonical factor -> the one tuple object every box shares for it.  A tuple
# found here by identity, or equal to an entry and made only of exact ints,
# is that entry, which was checked when it went in, so it skips the checks;
# an equal tuple of other objects, such as (True, 2), (1.0, 2) or
# (np.int64(1), 2) for (1, 2), takes the full path.  The table is cleared
# when it passes _INTERN_LIMIT entries; nothing depends on a hit.
_CANON: dict[tuple[int, ...], tuple[int, ...]] = {}
_INTERN_LIMIT = 1 << 16


def _integer(value, what: str = "coordinates") -> int:
    # no numpy integer exists before numpy is imported, so this imports nothing
    np = sys.modules.get("numpy")
    kinds = (int, np.integer) if np else int
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise GeometryError(f"{what} must be integers, got {value!r}")
    return int(value)


def _normalize_factor(factor: Iterable[int]) -> tuple[int, ...]:
    if type(factor) is tuple:
        canon = _CANON.get(factor)
        if canon is factor or canon is not None and set(map(type, factor)) == {int}:
            return canon
    cells = tuple(factor)
    if not all(type(c) is int for c in cells):
        cells = tuple(map(_integer, cells))
    cells = tuple(sorted(cells))
    if not cells:
        raise GeometryError("empty factor")
    if len(set(cells)) != len(cells):
        raise GeometryError(f"duplicate elements in factor {cells}")
    if cells[0] < 1:
        raise GeometryError(f"coordinates must be >= 1, got {cells}")
    if len(_CANON) >= _INTERN_LIMIT:
        _CANON.clear()
    return _CANON.setdefault(cells, cells)


@dataclass(frozen=True)
class DiscreteBox:
    """Product of per-axis coordinate sets; factors are sorted tuples."""

    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(map(_normalize_factor, self.factors)))

    @staticmethod
    def _canonical(factors: tuple[tuple[int, ...], ...]) -> "DiscreteBox":
        """The box over ``factors`` with no check: every factor must be a
        canonical tuple, one returned by ``_normalize_factor`` or taken off
        an existing box."""
        box = object.__new__(DiscreteBox)
        object.__setattr__(box, "factors", factors)
        return box

    @staticmethod
    def of(*factors: Iterable[int]) -> "DiscreteBox":
        return DiscreteBox(tuple(tuple(f) for f in factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def cardinality(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def contains(self, point: Sequence[int]) -> bool:
        if len(point) != self.dim:
            raise GeometryError("point/box dimension mismatch")
        return all(c in f for c, f in zip(point, self.factors))

    def validate_in(self, ambient: Ambient) -> None:
        if self.dim != ambient.dim:
            raise GeometryError(
                f"box dimension {self.dim} != ambient dimension {ambient.dim}"
            )
        for f, n in zip(self.factors, ambient.sides):
            if f[-1] > n:
                raise GeometryError(f"factor {f} exceeds side {n}")


_last = itemgetter(-1)


def _axis_maxima(boxes: Sequence[DiscreteBox], dim: int) -> tuple[int, ...] | None:
    """The largest coordinate on each axis (0 for no boxes), by axis columns,
    or None when some box has not ``dim`` axes."""
    rows = [b.factors for b in boxes]
    # zip(*rows) stops at the shortest box, so the dimensions come first
    if any(len(f) != dim for f in rows):
        return None
    if not rows:
        return (0,) * dim
    return tuple(max(map(_last, column)) for column in zip(*rows))


def _validate_boxes(boxes: Sequence[DiscreteBox], ambient: Ambient) -> None:
    """``validate_in`` for every box, from ``_axis_maxima``.  A failure re-runs
    the per-box check, which raises the error of the first bad box."""
    maxima = _axis_maxima(boxes, ambient.dim)
    if maxima is not None and all(m <= n for m, n in zip(maxima, ambient.sides)):
        return
    for b in boxes:
        b.validate_in(ambient)


def _is_interval(cells: tuple[int, ...]) -> bool:
    return cells[-1] - cells[0] + 1 == len(cells)


@dataclass(frozen=True)
class BoxFlags:
    """Properness, oddness and brickness of one box inside its ambient."""

    proper: bool
    odd: bool
    brick: bool


@dataclass(frozen=True)
class BoxFamily:
    """An ordered list of boxes over a common ambient.

    No disjointness or covering is assumed; families are *verified*, never
    trusted, so overlapping families (covers of higher multiplicity) are
    representable too.
    """

    ambient: Ambient
    boxes: tuple[DiscreteBox, ...]

    def __post_init__(self) -> None:
        _validate_boxes(self.boxes, self.ambient)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class VerificationReport:
    is_partition: bool
    cover_multiplicity_min: int
    cover_multiplicity_max: int
    all_proper: bool
    all_odd: bool
    all_brick: bool
    piercing_number: int
    per_axis_piercing: tuple[int, ...]
    multiplicity_ok: bool = True
    first_violation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PiercingVector:
    """Per-axis piercing targets attached to one part of a labeled partition."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(_integer(a, "labels") for a in self.labels))
        if any(a < 1 for a in self.labels):
            raise GeometryError(f"labels must be >= 1, got {self.labels}")


@dataclass(frozen=True)
class IntermediatePartition:
    """A partition whose parts carry piercing vectors.

    The parts must tile the ambient exactly once.  A valid labeling makes the
    label sums along every axis line reach the target k; that is checked by
    ``weighted_piercing_ok``, not assumed here.  Parts are usually bricks but
    may be general boxes (some constructions deliberately use non-bricks).
    """

    ambient: Ambient
    parts: tuple[tuple[DiscreteBox, PiercingVector], ...]

    def __post_init__(self) -> None:
        for box, vec in self.parts:
            box.validate_in(self.ambient)
            if len(vec.labels) != self.ambient.dim:
                raise GeometryError("label/dimension mismatch")
        q = _quotient([box for box, _ in self.parts], self.ambient.sides)
        bad = _scatter_sum(q.csr, q.sides) != 1
        if bad.any():
            raise GeometryError(
                "parts of an intermediate partition must tile the ambient; "
                f"first bad point {_first_point(bad, q.least)}"
            )

    def family(self) -> BoxFamily:
        return BoxFamily(self.ambient, tuple(box for box, _ in self.parts))

    def __len__(self) -> int:
        return len(self.parts)


# Corner of the cube: one of "low"/"high" per axis.
CornerSpec = tuple[Literal["low", "high"], ...]
# How a cover meets its multiplicity: at every point exactly, or at least.
Mode = Literal["exact", "at_least"]


def classify_box(box: DiscreteBox, ambient: Ambient) -> BoxFlags:
    """Flags per the standard definitions: proper means no factor is a full
    side, odd means every factor has odd size, brick means every factor is a
    contiguous interval."""
    box.validate_in(ambient)
    proper = all(len(f) != n for f, n in zip(box.factors, ambient.sides))
    odd = all(len(f) % 2 == 1 for f in box.factors)
    brick = all(_is_interval(f) for f in box.factors)
    return BoxFlags(proper=proper, odd=odd, brick=brick)


def boxes_disjoint(b1: DiscreteBox, b2: DiscreteBox) -> bool:
    """Two product sets are disjoint iff the factors are disjoint on some axis."""
    if b1.dim != b2.dim:
        raise GeometryError("dimension mismatch")
    return any(set(f1).isdisjoint(f2) for f1, f2 in zip(b1.factors, b2.factors))


# Largest dense tensor (in cells) the checks below allocate; a bigger
# ambient or line tensor raises GeometryError instead.
_CELL_LIMIT = 1 << 27
# Most cells in one incidence batch, a run of whole boxes; a bigger box goes alone.
_BATCH_CELLS = 1 << 13


def _check_cells(shape: Iterable[int], what: str) -> int:
    """Cell count of ``what``, a tensor or picture of the given shape; raises
    as soon as the running product passes the limit."""
    cells = 1
    for n in shape:
        cells *= n
        if cells > _CELL_LIMIT:
            raise GeometryError(f"{what} exceeds the {_CELL_LIMIT}-cell limit")
    return cells


def _distinct(column: Sequence[tuple[int, ...]]):
    """The distinct factors of one axis in first-seen order, and for each box
    the number of its factor among them."""
    import numpy as np

    number = {f: i for i, f in enumerate(dict.fromkeys(column))}
    return list(number), np.fromiter(map(number.__getitem__, column), np.int64, len(column))


def _csr(axes):
    """Per-axis CSR arrays from (runs, run of each box) per axis: ``vals[j]``
    holds axis j's runs 0-based back to back, and box b's run starts at
    ``starts[b, j]`` and has length ``lens[b, j]``; boxes share runs."""
    import numpy as np

    vals, starts, lens = [], [], []
    for runs, which in axes:
        n = np.fromiter(map(len, runs), np.int64, len(runs))
        vals.append(np.fromiter(itertools.chain.from_iterable(runs), np.int64) - 1)
        starts.append((n.cumsum() - n)[which])
        lens.append(n[which])
    return vals, np.stack(starts, axis=1), np.stack(lens, axis=1)


def _columns(boxes: Sequence[DiscreteBox], dim: int) -> list:
    """Per axis, the factor of every box, in box order."""
    return list(zip(*(b.factors for b in boxes))) if boxes else [()] * dim


def _factor_csr(boxes: Sequence[DiscreteBox], dim: int):
    """The ``_csr`` of the boxes' factors, in the original coordinates."""
    return _csr(map(_distinct, _columns(boxes, dim)))


def _axis_classes(factors: Sequence[tuple[int, ...]], n: int):
    """The classes of the coordinates 1..n of one axis, where two coordinates
    are in one class when every factor holds both or neither.

    Returns each factor's classes (1-based ids, numbered by the smallest
    coordinate of the class) and each class's smallest coordinate.  This is
    partition refinement (Paige & Tarjan, SIAM J. Comput. 1987): each factor
    moves its cells of every class into a new class of their own, and the
    coordinates in no factor stay in class 0, so the cost is the total size
    of the factors, never n."""
    cls: dict[int, int] = {}  # coordinate -> class, for the coordinates held
    fresh = itertools.count(1)
    for f in factors:
        moved: dict[int, int] = {}  # class -> the class its cells in f move to
        for c in f:
            k = cls.get(c, 0)
            cls[c] = moved.get(k) or moved.setdefault(k, next(fresh))
    held = sorted(cls)
    least: dict[int, int] = {}  # class -> its smallest coordinate
    for c in held:
        least.setdefault(cls[c], c)
    if len(held) < n:  # the least coordinate in no factor
        least[0] = next((i for i, c in enumerate(held, 1) if i != c), len(held) + 1)
    order = sorted(least, key=least.__getitem__)
    number = dict(zip(order, range(1, len(order) + 1)))
    return [tuple({number[cls[c]] for c in f}) for f in factors], [least[k] for k in order]


class _Quotient(NamedTuple):
    """A family on its quotient grid: per axis, one cell per class."""

    csr: tuple  # ``_csr`` of the boxes' classes
    sides: tuple[int, ...]  # the number of classes per axis
    least: tuple[list[int], ...]  # per axis, the smallest coordinate of each class
    factors: tuple[list[tuple[int, ...]], ...]  # per axis, the distinct factors


def _quotient(boxes: Sequence[DiscreteBox], sides: Sequence[int], skip: int | None = None):
    """The boxes on the quotient grid of ``_axis_classes``.  Equivalent points
    lie in the same boxes, and the lines through them meet the same boxes,
    so coverage, multiplicity and line sums on one cell per class are exact
    for the whole ambient.  The tensor over every axis but ``skip`` is
    bounded by ``_check_cells`` one axis at a time, so an oversized quotient
    is refused as soon as the classes found pass the limit, before the
    classes of the remaining axes and before any tensor."""
    columns = _columns(boxes, len(sides))
    axes = [j for j in range(len(sides)) if j != skip]
    found = {}

    def classes(j):
        factors, which = _distinct(columns[j])
        runs, least = _axis_classes(factors, sides[j])
        found[j] = factors, which, runs, least
        return len(least)

    _check_cells(map(classes, axes), f"a tensor over {len(axes)} axes")
    if skip is not None:
        classes(skip)
    factors, which, runs, least = zip(*(found[j] for j in range(len(sides))))
    csr = _csr(zip(runs, which))
    return _Quotient(csr, tuple(map(len, least)), least, factors)


def _incidence(csr, sides: Sequence[int], axes: Sequence[int]):
    """Every cell of every box over ``axes``: yields batches of (row-major
    flat index into the tensor of shape ``sides[axes]``, number of the box
    owning the cell), in box order.  A batch is a run of whole boxes: the
    most consecutive boxes with at most ``_BATCH_CELLS`` cells in all, or one
    bigger box on its own."""
    import numpy as np

    vals, starts, lens = csr
    # ahead[b]: the cells of the boxes before box b
    ahead = np.concatenate(([0], lens[:, axes].prod(axis=1).cumsum()))
    i = 0
    while True:
        # boxes i..j-1: the most that fit the budget, and one at least if any
        j = int(np.searchsorted(ahead, ahead[i] + _BATCH_CELLS, "right")) - 1
        j = min(max(j, i + 1), len(lens))
        flat, owner = np.zeros(j - i, dtype=np.int64), np.arange(i, j)
        for a in axes:
            # each entry becomes one entry per coordinate of its box's axis-a factor
            n = lens[owner, a]
            run = starts[owner, a] - n.cumsum() + n
            pos = np.arange(int(n.sum())) + run.repeat(n)
            flat, owner = (flat * sides[a]).repeat(n) + vals[a][pos], owner.repeat(n)
        yield flat, owner
        if j == len(lens):
            return
        i = j


def _scatter_sum(csr, sides: Sequence[int], skip: int | None = None, weights=None):
    """Weighted line sums: the tensor over every axis but ``skip`` whose cell
    c sums the weights (1 by default) of the boxes whose projection contains
    c, i.e. that the axis-``skip`` line through c meets.  With no axis
    skipped this is the coverage tensor."""
    import numpy as np

    axes = [j for j in range(len(sides)) if j != skip]
    shape = tuple(sides[a] for a in axes)
    size = _check_cells(shape, f"a tensor over {len(shape)} axes")
    out = np.zeros(size, dtype=np.int64)
    for flat, owner in _incidence(csr, sides, axes):
        np.add.at(out, flat, 1 if weights is None else weights[owner])
    return out.reshape(shape)


def _first_point(bad, least: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The first bad ambient point in row-major order: the smallest
    coordinates of the classes of the first True cell of ``bad``, a boolean
    array over the quotient."""
    import numpy as np

    cell = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return tuple(m[int(i)] for m, i in zip(least, cell))


def _check_demand(multiplicity: int, mode: Mode) -> None:
    """Refuse a multiplicity below 1 or a mode outside ``Mode``."""
    if multiplicity < 1:
        raise GeometryError("multiplicity must be >= 1")
    if mode not in get_args(Mode):
        raise GeometryError(f"unknown mode {mode!r}")


def verify_cover(
    family: BoxFamily, multiplicity: int = 1, mode: Mode = "exact"
) -> VerificationReport:
    """Check that every ambient point is covered exactly (or at least)
    ``multiplicity`` times.  With multiplicity 1 and mode "exact" this is the
    partition predicate."""
    _check_demand(multiplicity, mode)
    sides = family.ambient.sides
    q = _quotient(family.boxes, sides)
    cover = _scatter_sum(q.csr, q.sides)
    cmin = int(cover.min())
    cmax = int(cover.max())
    if mode == "exact":
        bad = cover != multiplicity
    else:
        bad = cover < multiplicity
    ok = not bool(bad.any())

    per_axis = _line_minima(q.csr, q.sides)
    return VerificationReport(
        is_partition=(cmin == 1 and cmax == 1),
        cover_multiplicity_min=cmin,
        cover_multiplicity_max=cmax,
        # the flags read the original factors, each distinct one once
        all_proper=all(len(f) != n for fs, n in zip(q.factors, sides) for f in fs),
        all_odd=all(len(f) % 2 == 1 for fs in q.factors for f in fs),
        all_brick=all(_is_interval(f) for fs in q.factors for f in fs),
        piercing_number=min(per_axis),
        per_axis_piercing=per_axis,
        multiplicity_ok=ok,
        first_violation=None if ok else _first_point(bad, q.least),
    )


def _line_minima(csr, sides: Sequence[int], weights=None) -> tuple[int, ...]:
    """Per axis i, the least weighted line sum over all axis-i lines; the
    weight of box b on axis i is ``weights[b, i]``, or 1 by default."""
    columns = [None] * len(sides) if weights is None else weights.T
    return tuple(int(_scatter_sum(csr, sides, i, w).min()) for i, w in enumerate(columns))


def piercing_number(family: BoxFamily) -> tuple[int, tuple[int, ...]]:
    """Minimum, over all axis-parallel lines, of the number of distinct boxes
    the line meets; reported overall and per axis."""
    q = _quotient(family.boxes, family.ambient.sides, skip=0)
    per_axis = _line_minima(q.csr, q.sides)
    return min(per_axis), per_axis


def weighted_piercing_ok(ip: IntermediatePartition, k: int) -> bool:
    """True iff along every axis-j line the labels a_{.,j} of the parts the
    line crosses sum to at least k."""
    import numpy as np

    q = _quotient([box for box, _ in ip.parts], ip.ambient.sides, skip=0)
    labels = np.array([vec.labels for _, vec in ip.parts], dtype=np.int64)
    labels = labels.reshape(len(ip.parts), ip.ambient.dim)
    return min(_line_minima(q.csr, q.sides, labels)) >= k
