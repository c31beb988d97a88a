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
partition refinement over each axis's distinct factors, and ``_sums`` adds
every box's classes into a tensor with one cell per class (or per class of
the lines of one axis) and checks every entry.  A bad point is reported at
the smallest coordinate of its classes, the first bad point in row-major
order.  So the cost grows with the total cardinality of the boxes on the
quotient plus the quotient volume, and the class step with the total size
of the distinct factors, never with a side.  The properness, oddness and
brick flags come from the original factors.  Quotient tensors above
``_CELL_LIMIT`` cells raise GeometryError instead of being allocated.  All
public types are immutable ``_Record`` classes with ``__slots__``, compared
and hashed by value, safe to share across threads; they are plain classes,
not dataclasses, because importing ``dataclasses`` (and with it ``inspect``)
and generating each class's methods cost every command's start.  The calls
that build a whole family (``product``, candidate enumeration and both
parsers) pause Python's cyclic garbage collector through ``_gc_paused``;
the pause holds for the whole process, other threads included, until the
call returns or raises.

Coordinates, ambient sides and piercing labels are Python ints: numpy
integers are stored as ``int``, and a bool, float or string raises
GeometryError.  Each distinct factor is sorted and checked once and then
interned, so boxes built from equal factors share one canonical tuple; a
tuple of exact ints equal to an interned one is replaced by it unchecked.

``_sums`` is the one place that picks how a tensor is summed, by the cell
count of the quotient grid and whether numpy is loaded.  Up to
``_COUNT_CELLS`` (1,024) cells, or ``_COLD_COUNT_CELLS`` (4,096) while numpy
is not loaded, each box is a list of flat cell indices (``_flat_cells``),
and its weight is added into a plain list of counts, one per cell, from
which the least and greatest sum and the first bad cell follow
(``_count_sums``); above it the numpy kernel (``_scatter_sum`` over the
``_incidence`` batches) fills an int64 tensor.  Both are exhaustive on
the quotient grid and give the same answers.  The counts win on tiny
grids and lose as the cells grow, but up to 4,096 cells they lose less
than importing numpy costs.  Only the numpy kernel imports numpy, inside
its functions: code that builds boxes, families and documents, or
verifies a family with a small quotient grid (the 25-box partition, the
quadrant partition of [16]^4, a search result), never loads it.
``_flat_cells`` is the one routine that turns boxes into cell lists, from
each axis's distinct factors: the count kernel calls it on the quotient
grid, the ASCII picture and the export of a sparse search pool on the
ambient.  The searches work from per-axis masks.

Trust rule: a record is checked once, where its values come in.
``_unchecked_boxes`` builds a whole family's boxes with no check at all,
and with no Python call per box: it makes the bare objects with
``map(object.__new__, ...)`` and fills their one slot with the slot's own
setter.  Only code that holds canonical factors calls it -- each factor
either came out of ``_normalize_factor`` or was taken off an existing box,
and both are sorted, duplicate-free tuples of ints >= 1 -- so its boxes
equal the ones the public constructor would build.  ``product``, ``lift``,
the grids (products of one-axis families), the quadrant recursion,
``realize``, candidate enumeration and both parsers build their boxes this
way.  The public constructors of a family, a document and a cover instance
check their boxes against the ambient by axis columns
(``_validate_boxes``): one dimension test over the boxes, then one maximum
per axis (``_axis_maxima``); on a failure the per-box ``validate_in`` runs
and raises the same error it always did.  ``_Record._trusted`` builds a
record with no check, from fields that were checked already: the families
of ``product``, ``lift``, the grids, the quadrant recursion and
``realize``, whose boxes fit their ambients by construction, the family of
a document or of an intermediate partition, a document made from a family,
a search result drawn from a checked instance, the CLI's cover instance
over an enumerated pool.  The parsers bound a document by its distinct
factors instead of its boxes (see ``formats``).  Every per-axis column
(``_columns``: for the maxima, the quotient grid and the search pools) is
a strided slice ``flat[a::dim]`` of one flattened list of the boxes'
factors, and the maxima read only each axis's distinct factors.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import sys
from collections import deque
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Literal, Sequence, get_args

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


class _Record:
    """Base of the immutable records: equality and hash over the fields
    named in ``__slots__``, in that order, a repr naming them, and no
    assignment or deletion: ``__init__``, or ``_trusted``, sets the fields
    once, through ``_set``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """The record of ``values``, one per field, built with no check: each
        must be a value the public constructor has already accepted."""
        record = object.__new__(cls)
        record._set(*values)
        return record

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ambient(_Record):
    """Ambient cube [n_1] x ... x [n_d]; coordinates are 1-based."""

    __slots__ = ("sides",)

    def __init__(self, sides: tuple[int, ...]) -> None:
        sides = tuple(_integer(n, "sides") for n in sides)
        if len(sides) < 1:
            raise GeometryError("ambient must have dimension >= 1")
        if any(n < 2 for n in sides):
            raise GeometryError(f"every side must be >= 2, got {sides}")
        self._set(sides)

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


class DiscreteBox(_Record):
    """Product of per-axis coordinate sets; factors are sorted tuples."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Iterable[int]]) -> None:
        self._set(tuple(map(_normalize_factor, factors)))

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


_factors = attrgetter("factors")
_last = itemgetter(-1)


def _unchecked_boxes(rows: Iterable[tuple], n: int) -> tuple[DiscreteBox, ...]:
    """The boxes over the first ``n`` of ``rows``, built with no check and no
    Python call per box; ``rows`` must yield at least ``n`` rows, and every
    factor in them must be a canonical tuple, one returned by
    ``_normalize_factor`` or taken off an existing box."""
    boxes = tuple(map(object.__new__, itertools.repeat(DiscreteBox, n)))
    # the slot's own setter, which DiscreteBox.__setattr__ does not guard
    deque(map(DiscreteBox.factors.__set__, boxes, rows), 0)
    return boxes


def _columns(boxes: Sequence[DiscreteBox], dim: int) -> Iterator[list]:
    """Per axis, the factor of every box, in box order, each a strided slice
    of one flattened factor list; every box must have ``dim`` axes."""
    flat = list(itertools.chain.from_iterable(map(_factors, boxes)))
    return (flat[a::dim] for a in range(dim))


def _axis_maxima(boxes: Sequence[DiscreteBox], dim: int) -> tuple[int, ...] | None:
    """The largest coordinate on each axis (0 for no boxes), by axis columns,
    or None when some box has not ``dim`` axes.  Each axis reads the last
    coordinate of its distinct factors only."""
    if set(map(len, map(_factors, boxes))) - {dim}:
        return None
    return tuple(max(map(_last, set(column)), default=0) for column in _columns(boxes, dim))


def _validate_boxes(boxes: Sequence[DiscreteBox], ambient: Ambient) -> None:
    """``validate_in`` for every box, from ``_axis_maxima``.  A failure re-runs
    the per-box check, which raises the error of the first bad box."""
    maxima = _axis_maxima(boxes, ambient.dim)
    if maxima is not None and all(m <= n for m, n in zip(maxima, ambient.sides)):
        return
    for b in boxes:
        b.validate_in(ambient)


def _gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused, for a call that
    builds a whole family (no cycles, a container per box and factor); the
    collector's earlier state comes back on every exit."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _is_interval(cells: tuple[int, ...]) -> bool:
    return cells[-1] - cells[0] + 1 == len(cells)


class BoxFlags(_Record):
    """Properness, oddness and brickness of one box inside its ambient."""

    __slots__ = ("proper", "odd", "brick")

    def __init__(self, proper: bool, odd: bool, brick: bool) -> None:
        self._set(proper, odd, brick)


class BoxFamily(_Record):
    """An ordered list of boxes over a common ambient.

    No disjointness or covering is assumed; families are *verified*, never
    trusted, so overlapping families (covers of higher multiplicity) are
    representable too.
    """

    __slots__ = ("ambient", "boxes")

    def __init__(self, ambient: Ambient, boxes: tuple[DiscreteBox, ...]) -> None:
        _validate_boxes(boxes, ambient)
        self._set(ambient, boxes)

    def __len__(self) -> int:
        return len(self.boxes)


class VerificationReport(_Record):
    __slots__ = (
        "is_partition", "cover_multiplicity_min", "cover_multiplicity_max", "all_proper",
        "all_odd", "all_brick", "piercing_number", "per_axis_piercing", "multiplicity_ok",
        "first_violation",
    )

    def __init__(
        self,
        is_partition: bool,
        cover_multiplicity_min: int,
        cover_multiplicity_max: int,
        all_proper: bool,
        all_odd: bool,
        all_brick: bool,
        piercing_number: int,
        per_axis_piercing: tuple[int, ...],
        multiplicity_ok: bool = True,
        first_violation: tuple[int, ...] | None = None,
    ) -> None:
        self._set(
            is_partition, cover_multiplicity_min, cover_multiplicity_max, all_proper, all_odd,
            all_brick, piercing_number, per_axis_piercing, multiplicity_ok, first_violation,
        )


class PiercingVector(_Record):
    """Per-axis piercing targets attached to one part of a labeled partition."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[int, ...]) -> None:
        labels = tuple(_integer(a, "labels") for a in labels)
        if any(a < 1 for a in labels):
            raise GeometryError(f"labels must be >= 1, got {labels}")
        self._set(labels)


class IntermediatePartition(_Record):
    """A partition whose parts carry piercing vectors.

    The parts must tile the ambient exactly once.  A valid labeling makes the
    label sums along every axis line reach the target k; that is checked by
    ``weighted_piercing_ok``, not assumed here.  Parts are usually bricks but
    may be general boxes (some constructions deliberately use non-bricks).
    """

    __slots__ = ("ambient", "parts")

    def __init__(
        self, ambient: Ambient, parts: tuple[tuple[DiscreteBox, PiercingVector], ...]
    ) -> None:
        for box, vec in parts:
            box.validate_in(ambient)
            if len(vec.labels) != ambient.dim:
                raise GeometryError("label/dimension mismatch")
        q = _quotient([box for box, _ in parts], ambient.sides)
        first = _sums(q, target=1)[2]
        if first is not None:
            raise GeometryError(
                "parts of an intermediate partition must tile the ambient; "
                f"first bad point {_first_point(first, q)}"
            )
        self._set(ambient, parts)

    def family(self) -> BoxFamily:
        # every part was checked against the ambient when this was built
        return BoxFamily._trusted(self.ambient, tuple(box for box, _ in self.parts))

    def __len__(self) -> int:
        return len(self.parts)


# Corner of the cube: one of "low"/"high" per axis.
CornerSpec = tuple[Literal["low", "high"], ...]
# How a cover meets its multiplicity: at every point exactly, or at least.
Mode = Literal["exact", "at_least"]
# Which boxes a candidate pool holds: every factor odd-sized or not, and a
# box or a brick, every factor proper.
Predicate = Literal["odd_proper_box", "proper_box", "odd_proper_brick", "proper_brick"]


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
# Most cells in a quotient grid whose tensors ``_sums`` adds up on a plain
# list of counts once numpy is loaded; a bigger grid goes to numpy.  The
# counts win on tiny grids and lose as the cells grow (one ``verify_cover``,
# counts against numpy, 2-core Xeon: 0.21 against 0.25 ms at 125 cells, 1.9
# against 0.63 ms at 4,096, 15 against 4.5 ms at 15,625).  The grid, not each
# tensor, decides: once a family's cover tensor needs numpy, its four line
# tensors of 512 cells take 0.46 ms together there against 1.05 ms on counts.
_COUNT_CELLS = 1 << 10
# The same bound while numpy is not loaded: importing it costs 0.1-0.15 s, so
# up to 4,096 cells the counts, at most 1-2 ms slower per check, still win.
# Past it the gap grows (15,625 cells: 15 against 4.5 ms), so bigger grids
# load numpy.
_COLD_COUNT_CELLS = 1 << 12


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
    number = {f: i for i, f in enumerate(dict.fromkeys(column))}
    return list(number), list(map(number.__getitem__, column))


def _csr(axes):
    """Per-axis CSR arrays from (runs, run of each box) per axis: ``vals[j]``
    holds axis j's runs 0-based back to back, and box b's run starts at
    ``starts[b, j]`` and has length ``lens[b, j]``; boxes share runs."""
    import numpy as np

    vals, starts, lens = [], [], []
    for runs, which in axes:
        n = np.fromiter(map(len, runs), np.int64, len(runs))
        which = np.fromiter(which, np.int64, len(which))
        vals.append(np.fromiter(itertools.chain.from_iterable(runs), np.int64) - 1)
        starts.append((n.cumsum() - n)[which])
        lens.append(n[which])
    return vals, np.stack(starts, axis=1), np.stack(lens, axis=1)


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


class _Quotient:
    """A family on its quotient grid: per axis, one cell per class."""

    def __init__(self, runs, which, sides, least, factors) -> None:
        self.runs = runs  # per axis, each distinct factor's classes
        self.which = which  # per axis, each box's number among the distinct factors
        self.sides = sides  # the number of classes per axis
        self.least = least  # per axis, the smallest coordinate of each class
        self.factors = factors  # per axis, the distinct factors

    @functools.cached_property
    def csr(self):
        """``_csr`` of the boxes' classes, built on the array kernel's first use."""
        return _csr(zip(self.runs, self.which))


def _quotient(boxes: Sequence[DiscreteBox], sides: Sequence[int]):
    """The boxes on the quotient grid of ``_axis_classes``.  Equivalent points
    lie in the same boxes, and the lines through them meet the same boxes,
    so coverage, multiplicity and line sums on one cell per class are exact
    for the whole ambient.  The classes of every axis are found in one pass,
    whose cost is the total size of the distinct factors; no tensor is
    allocated here, and ``_sums`` bounds each one before it is."""
    factors, which = zip(*map(_distinct, _columns(boxes, len(sides))))
    runs, least = zip(*map(_axis_classes, factors, sides))
    return _Quotient(runs, which, tuple(map(len, least)), least, factors)


def _sums(
    q: _Quotient,
    skip: int | None = None,
    weights=None,
    target: int | None = None,
    mode: Mode = "exact",
):
    """(least, greatest, first bad cell) of the tensor over every axis but
    ``skip`` whose cell c sums ``weights[b]`` (1 by default) over the boxes b
    whose projection contains c, i.e. that the axis-``skip`` line through c
    meets; with no axis skipped this is the coverage tensor.  A cell is bad
    when its sum is not ``target`` (mode "exact") or is below it
    ("at_least"); the first bad cell is its row-major flat index, or None
    when no cell is bad or no target is given.

    The one place that picks a kernel, by the quotient grid's cell count,
    so that every tensor of one check goes to the same kernel: up to
    ``_COUNT_CELLS`` cells, or ``_COLD_COUNT_CELLS`` while numpy is not
    loaded, the sums are a list of Python ints (``_count_sums``), above it a
    numpy tensor (``_scatter_sum``).  Both are exact and give the same
    answers.  The tensor's shape is bounded by ``_check_cells`` before
    either kernel allocates it."""
    shape = [n for j, n in enumerate(q.sides) if j != skip]
    _check_cells(shape, f"a tensor over {len(shape)} axes")
    limit = _COUNT_CELLS if "numpy" in sys.modules else _COLD_COUNT_CELLS
    if math.prod(q.sides) <= limit:
        counts = _count_sums(q, skip, weights)
        first = None
        if target is not None:
            bad = map(target.__ne__ if mode == "exact" else target.__gt__, counts)
            first = next(itertools.compress(itertools.count(), bad), None)
        return min(counts), max(counts), first
    import numpy as np

    if weights is not None:
        weights = np.fromiter(weights, np.int64, len(q.which[0]))
    out = _scatter_sum(q.csr, q.sides, skip, weights).ravel()
    first = None
    if target is not None:
        bad = out != target if mode == "exact" else out < target
        first = int(np.argmax(bad)) if bad.any() else None
    return int(out.min()), int(out.max()), first


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


def _flat_cells(runs, which, sides: Sequence[int], skip: int | None = None):
    """Every box's cells over every axis but ``skip``, as row-major flat
    indices in increasing order: ``runs[a]`` holds the distinct factors of
    axis a (coordinates or classes, 1-based) and ``which[a]`` each box's
    number among them.  Returns (keys, cells), box b's list being
    ``cells[keys[b]]``.  The lists are built from the last axis to the
    first by offsetting copies of the lists of the axes after, so boxes
    with equal factors on those axes share one list."""
    keys, cells, stride = [0] * len(which[0]), [[0]], 1
    for a in reversed(range(len(sides))):
        if a == skip:
            continue
        number: dict[tuple[int, int], int] = {}
        keys = [number.setdefault(k, len(number)) for k in zip(which[a], keys)]
        cells = [[i + (c - 1) * stride for c in runs[a][f] for i in cells[k]] for f, k in number]
        stride *= sides[a]
    return keys, cells


def _count_sums(q: _Quotient, skip: int | None, weights) -> list[int]:
    """The tensor of ``_sums`` as a list of counts, one per cell in row-major
    order, from each box's cells (``_flat_cells``); boxes with one list add
    their weights before the list is added once."""
    keys, cells = _flat_cells(q.runs, q.which, q.sides, skip)
    totals = [0] * len(cells)
    for key, w in zip(keys, itertools.repeat(1) if weights is None else weights):
        totals[key] += w
    counts = [0] * math.prod(n for j, n in enumerate(q.sides) if j != skip)
    for flat, w in zip(cells, totals):
        for i in flat:
            counts[i] += w
    return counts


def _first_point(flat: int, q: _Quotient) -> tuple[int, ...]:
    """The first bad ambient point in row-major order: the smallest
    coordinates of the classes of the quotient cell with row-major index
    ``flat``."""
    cell = []
    for n in reversed(q.sides):
        flat, i = divmod(flat, n)
        cell.append(i)
    return tuple(m[i] for m, i in zip(q.least, reversed(cell)))


def _bitmasks(rows, width: int) -> list[int]:
    """One int per row with bit i set for each index i in the row (all
    below ``width``), read from a bytearray of binary digits, so that the
    cost is the rows' total length plus one width per row (summing
    ``1 << i`` would be quadratic in the width)."""
    masks = []
    for row in rows:
        digits = bytearray(b"0") * (width + 1)  # one more: never empty
        for i in row:
            digits[i] = 49  # "1"
        masks.append(int(digits[::-1], 2))
    return masks


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
    cmin, cmax, first = _sums(q, target=multiplicity, mode=mode)
    ok = first is None
    per_axis = _line_minima(q)
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
        first_violation=None if ok else _first_point(first, q),
    )


def _line_minima(q: _Quotient, weights=None) -> tuple[int, ...]:
    """Per axis i, the least weighted line sum over all axis-i lines; the
    weight of box b on axis i is ``weights[b][i]``, or 1 by default."""
    columns = [None] * len(q.sides) if weights is None else zip(*weights)
    return tuple(_sums(q, i, w)[0] for i, w in enumerate(columns))


def piercing_number(family: BoxFamily) -> tuple[int, tuple[int, ...]]:
    """Minimum, over all axis-parallel lines, of the number of distinct boxes
    the line meets; reported overall and per axis."""
    q = _quotient(family.boxes, family.ambient.sides)
    per_axis = _line_minima(q)
    return min(per_axis), per_axis


def weighted_piercing_ok(ip: IntermediatePartition, k: int) -> bool:
    """True iff along every axis-j line the labels a_{.,j} of the parts the
    line crosses sum to at least k."""
    q = _quotient([box for box, _ in ip.parts], ip.ambient.sides)
    return min(_line_minima(q, [vec.labels for _, vec in ip.parts])) >= k
