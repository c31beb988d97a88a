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
interchangeable points lie in the same boxes and lines.  ``_quotient``
finds these classes by partition refinement, and ``_sums``, the one
kernel, adds every box's classes into a tensor with one cell per class (or
per line of one axis) and checks every entry; a bad point is reported at
the smallest coordinate of its classes.  A tensor is one Python int of
whole-byte fields, wide enough for every sum, so labels of any size sum
exactly: some axes are walked cell by cell and a box's cells on the rest
are a carry-free product of per-axis spreads.  The boxes' numbering over a
tuple of axes (``_numbered``) is kept per quotient and shared by its
tensors; ``_flat_cells`` gives the cell lists of the ASCII picture and of
a sparse search pool.  Tensors above ``_CELL_LIMIT`` cells raise
GeometryError instead of being allocated.

All public types are immutable ``_Record`` classes with ``__slots__``,
compared and hashed by value, safe to share across threads; they are plain
classes, not dataclasses, whose import (with ``inspect``) would cost every
command's start.  ``_sums`` and the calls that build a whole family
(``product``, candidate enumeration, both parsers) pause the cyclic garbage
collector through ``_gc_paused``, for the whole process until they return.
Coordinates, ambient sides and piercing labels are Python ints: the integer
scalars of an array library that ``_integer`` accepts are stored as
``int``, and a bool, float or string raises GeometryError.  Each distinct
factor is sorted, checked and interned once, so equal factors share one
canonical tuple.

Trust rule: a record is checked once, where its values come in.
``_unchecked_boxes`` builds a family's boxes with no check and no Python
call per box, for code that holds canonical factors only (from
``_normalize_factor`` or off an existing box): ``product``, ``lift``, the
grids, the quadrant recursion, ``realize``, candidate enumeration and both
parsers.  The public constructors of a family, a document and a cover
instance check their boxes by one maximum per axis (``_validate_boxes``),
re-running the per-box ``validate_in`` on a failure for its error.
``_Record._trusted`` builds a record from fields already checked (the
families of the constructions, of a document or of an intermediate
partition, a document of a family, a search result's family, the CLI's
instance, the graphs of ``partition_to_graph`` and ``fig9_graph``).
Every per-axis column (``_columns``) is a strided slice of one flat list.
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
    once, through ``_set``.  The default ``__init__`` binds the fields, in
    order or by name, with no check, falling back on ``_defaults``; a record
    that checks its values has an ``__init__`` of its own."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        bound = {**self._defaults, **dict(zip(names, args)), **kwargs}
        repeated = not kwargs.keys().isdisjoint(names[: len(args)])
        if repeated or len(args) > len(names) or bound.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}, each once")
        self._set(*map(bound.__getitem__, names))

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
    """Properness, oddness and brickness of one box inside its ambient:
    ``proper``, ``odd`` and ``brick``, each a bool."""

    __slots__ = ("proper", "odd", "brick")


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
    """What ``verify_cover`` found.  Bools: ``is_partition``, ``all_proper``,
    ``all_odd``, ``all_brick`` and ``multiplicity_ok`` (True by default).
    Ints: ``cover_multiplicity_min``, ``cover_multiplicity_max`` (a point's
    least and greatest multiplicity) and ``piercing_number``.  Int tuples:
    ``per_axis_piercing`` (one per axis) and ``first_violation`` (the first
    bad point, or None by default)."""

    __slots__ = (
        "is_partition", "cover_multiplicity_min", "cover_multiplicity_max", "all_proper",
        "all_odd", "all_brick", "piercing_number", "per_axis_piercing", "multiplicity_ok",
        "first_violation",
    )
    _defaults = {"multiplicity_ok": True, "first_violation": None}


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
# In ``_split``'s cost model, a Python step costs as much as adding this many bytes.
_STEP_BYTES = 128


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


def _axis_classes(factors: Sequence[tuple[int, ...]], n: int):
    """The classes of the coordinates 1..n of one axis (two coordinates share
    one when every factor holds both or neither): each factor's classes,
    1-based and numbered by smallest coordinate, and each class's smallest
    coordinate.  Partition refinement (Paige & Tarjan, SIAM J. Comput. 1987):
    each factor moves its cells of every class into a new class, and the
    cost is the total size of the factors, never n."""
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
        self.numbered, self.packed = {}, {}  # ``_numbered``'s and ``_packed``'s memos
        self.order = _order(which, runs)  # the axes in the order ``_sums`` lays them out


def _quotient(boxes: Sequence[DiscreteBox], sides: Sequence[int]):
    """The boxes on the quotient grid of ``_axis_classes``: equivalent points
    lie in the same boxes and lines, so sums on one cell per class are exact."""
    factors, which = zip(*map(_distinct, _columns(boxes, len(sides))))
    runs, least = zip(*map(_axis_classes, factors, sides))
    return _Quotient(runs, which, tuple(map(len, least)), least, factors)


def _order(which, runs) -> tuple[int, ...]:
    """The axes as a chain from the one with the fewest distinct factors, each
    next one pairing with the last in the fewest distinct ways over at most
    64 evenly spaced boxes: axes that vary together (those of one factor of
    a product) sit side by side and share their factor tuples."""
    step = len(which[0]) // 64 + 1
    left = sorted(range(len(runs)), key=lambda a: len(runs[a]))
    chain = [left.pop(0)]
    while left:
        last = which[chain[-1]][::step]
        chain.append(min(left, key=lambda a: len(set(zip(last, which[a][::step])))))
        left.remove(chain[-1])
    return tuple(chain)


def _numbered(which, axes: tuple[int, ...], memo: dict):
    """The boxes numbered by their factors over ``axes``, one axis at a time
    (``which[a]``: each box's number among axis a's distinct factors).
    Returns (keys, pairs): box b's number, and in number order the distinct
    (number over ``axes[:-1]``, factor number on ``axes[-1]``).  Each prefix
    is numbered once in ``memo``, and shared by every tensor starting with it."""
    for t in range(1, len(axes) + 1):
        if axes[:t] not in memo:
            keys = memo[axes[: t - 1]][0] if t > 1 else [0] * len(which[0])
            number: dict[tuple[int, int], int] = {}
            grown = [number.setdefault(k, len(number)) for k in zip(keys, which[axes[t - 1]])]
            memo[axes[:t]] = grown, list(number)
    return memo[axes] if axes else ([0] * len(which[0]), [])


def _cells(runs, sides: Sequence[int], axes: tuple[int, ...], memo: dict) -> list[list[int]]:
    """Per number of ``_numbered`` over ``axes`` (in ``memo``), its cells as
    row-major indices, increasing if the runs are (``runs[a]``: axis a's
    distinct factors, 1-based); numbers sharing a prefix share its list."""
    cells = [[0]]
    for t, a in enumerate(axes, 1):
        cells = [[i * sides[a] + c - 1 for i in cells[k] for c in runs[a][f]] for k, f in memo[axes[:t]][1]]
    return cells


def _flat_cells(runs, which, sides: Sequence[int]):
    """(keys, cells): box b's row-major cells are ``cells[keys[b]]``, from
    each axis's distinct factors ``runs[a]``."""
    axes, memo = tuple(range(len(sides))), {}
    return _numbered(which, axes, memo)[0], _cells(runs, sides, axes, memo)


def _packed(q: _Quotient, axes: tuple[int, ...], width: int):
    """Every box's cells over ``axes`` as one int of ``width``-bit fields,
    row-major, 1 in each: the carry-free product over the axes of its
    factors' spreads (``2^(width * stride * (c - 1))`` summed over classes
    c).  Returns (keys, ints), box b's int being ``ints[keys[b]]``."""
    keys, ints, stride, back = [0] * len(q.which[0]), [1], width, axes[::-1]
    for t, a in enumerate(back, 1):
        keys, pairs = _numbered(q.which, back[:t], q.numbered)
        if (back[:t], width) not in q.packed:  # shared by tensors ending with these axes
            power = [0] + [1 << c * stride for c in range(q.sides[a])]  # class c at c - 1
            spreads = [sum(map(power.__getitem__, run)) for run in q.runs[a]]
            q.packed[back[:t], width] = [spreads[f] * ints[k] for k, f in pairs]
        ints = q.packed[back[:t], width]
        stride *= q.sides[a]
    return keys, ints


def _scatter(cells: list[list[int]], values, size: int) -> list[int]:
    """The ``size`` sums of ``values[n]`` over the lists ``cells[n]`` holding each cell."""
    rows = [0] * size
    for flat, v in zip(cells, values):
        for i in flat:
            rows[i] += v
    return rows


def _split(q: _Quotient, axes: tuple[int, ...]) -> int:
    """How many leading ``axes`` ``_sums`` walks cell by cell, packing the
    rest: one more while the estimated cost falls, where each box and each
    cell of each distinct factor tuple walked costs a step plus the add of
    a packed row (``_STEP_BYTES`` bytes a step), and each row a step."""
    shape = [q.sides[a] for a in axes]
    cells, boxes = math.prod(shape), len(q.which[0])
    s, cost, incidence = 0, (1 + boxes) * (1 + cells / _STEP_BYTES), [1]
    for a in axes:
        pairs = _numbered(q.which, axes[: s + 1], q.numbered)[1]
        lengths = [*map(len, q.runs[a])]
        wider = [incidence[k] * lengths[f] for k, f in pairs]  # walked cells per number
        rows = math.prod(shape[: s + 1])
        estimate = (sum(wider) + boxes) * (1 + cells / rows / _STEP_BYTES) + rows
        if estimate >= cost:
            break
        s, cost, incidence = s + 1, estimate, wider
    return s


@_gc_paused
def _sums(
    q: _Quotient,
    skip: int | None = None,
    weights=None,
    target: int | None = None,
    mode: Mode = "exact",
    natural: bool = False,
):
    """(least, greatest, first bad cell) of the tensor over every axis but
    ``skip`` whose cell c sums ``weights[b]`` (1 by default) over the boxes b
    whose projection holds c, i.e. that the axis-``skip`` line through c
    meets; with no axis skipped, the coverage tensor.  A cell is bad when
    its sum is not ``target`` (mode "exact") or is below it ("at_least");
    the first bad cell is its row-major index, None if none or no target.
    The tensor is one int of fields, a field per cell, axes in ``q.order``.
    Boxes with one factor tuple on the walked axes (``_split``) add their
    weighted packed ints (``_packed``), and each sum goes onto the rows of
    their cells.  The field width (whole bytes, a spare top bit) comes first
    from the total weight over each walked cell.  The rows are joined by
    ``int.to_bytes``; the least and greatest field are read off the bytes,
    and the first bad cell is the lowest set bit of ``T ^ target * ONES``
    (exact) or of the clear guard bits of ``T + (2^(width - 1) - target) *
    ONES``, after a rerun in the ``natural`` order if the layout is not."""
    axes = tuple(j for j in (range(len(q.sides)) if natural else q.order) if j != skip)
    shape = [q.sides[j] for j in axes]
    cells = _check_cells(shape, f"a tensor over {len(shape)} axes")
    s = _split(q, axes)
    keys, pairs = _numbered(q.which, axes[:s], q.numbered)
    weight = [0] * max(len(pairs), 1)  # per number over the walked axes
    for k, w in zip(keys, itertools.repeat(1) if weights is None else weights):
        weight[k] += w
    acells = _cells(q.runs, q.sides, axes[:s], q.numbered)
    rows = _scatter(acells, weight, math.prod(shape[:s]))
    top = max(max(rows), target or 0)
    size = -(-(top.bit_length() + 1) // 8)  # bytes per field, with a spare top bit
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    width = 8 * size
    if s < len(axes):
        packed, ints = _packed(q, axes[s:], width)
        sums = [0] * len(weight)
        for k, i, w in zip(keys, packed, itertools.repeat(1) if weights is None else weights):
            sums[k] += w * ints[i]
        rows = _scatter(acells, sums, len(rows))
    if size * cells == len(rows):  # a byte per row
        raw = bytes(rows)
    else:
        length = itertools.repeat(size * cells // len(rows))
        raw = b"".join(map(int.to_bytes, rows, length, itertools.repeat("little")))
    if size == 1:  # one ``in`` per value tried, each a scan at C speed
        least = next(v for v in range(top + 1) if v in raw)
        greatest = next(v for v in range(top, -1, -1) if v in raw)
    else:
        if size <= 8 and sys.byteorder == "little":
            fields = memoryview(raw).cast("HIQ"[size.bit_length() - 2])
        else:
            fields = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
        least, greatest = min(fields), max(fields)
    if target is None or (least >= target if mode == "at_least" else least == greatest == target):
        return least, greatest, None
    if axes != tuple(sorted(axes)):
        return _sums(q, skip, weights, target, mode, natural=True)
    tensor = int.from_bytes(raw, "little")
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * cells, "little")
    half = 1 << width - 1
    if mode == "exact":
        bad = tensor ^ target * ones
    else:  # a field's guard bit stays clear where it is below target
        bad = half * ones & ~(tensor + (half - target) * ones)
    return least, greatest, ((bad & -bad).bit_length() - 1) // width


def _first_point(flat: int, q: _Quotient) -> tuple[int, ...]:
    """The first bad ambient point in row-major order: the smallest
    coordinates of the classes of the quotient cell with index ``flat``."""
    cell = []
    for n in reversed(q.sides):
        flat, i = divmod(flat, n)
        cell.append(i)
    return tuple(m[i] for m, i in zip(q.least, reversed(cell)))


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
