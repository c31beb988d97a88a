"""Text formats for partition documents.

Two serializations are supported:

* a plain listing format, one line per box::

      Ambient = 5 x 5 x 5
      Box(1) = {1,2,3} x {1,2,3} x {1}
      Box(2) = ...

  The ``Ambient`` header is optional; without it the ambient is inferred as
  the per-axis maximum coordinate.  The writer only emits the header when
  inference would not reproduce the ambient, so listings over a fully
  inhabited ambient round-trip byte-for-byte.

* a canonical structured (JSON) format carrying ambient, boxes, optional
  per-box labels and free-form metadata.

Both directions are exact: ``parse(write(doc)) == doc``.  Each call handles
every distinct factor once: the parsers read each factor spelling once and
both writers spell each factor once, so a family that repeats a few
factors over many boxes costs little more than its line count.  The JSON
writer joins those spellings into exactly the bytes ``json.dumps`` with
separators ``(",", ":")`` gives for the whole document.

Whole documents are built, written and read by columns, with C-level
pipelines (``map``, ``itertools.chain.from_iterable``, and
``zip(*[iter(flat)] * dim)`` to cut a flat factor list into boxes) in place
of a Python loop per box.  The writers spell the flattened factors and
join them; the listing writer decides on the header by a scan that stops,
on each axis, at the first factor ending at its side.  Each format has one
reader.  The listing parser reads the stripped lines, the ``Box`` matches,
the ids, the split factor spellings and the factors each as one column
(``_read_columns``).  A fault is located from its own column: the first
line that is no box, the first id too long for ``int()``, the first
repeated id, the first spelling the per-spelling memo lacks, the first box
of another dimension; the earliest line wins, and its number counts the
blank lines.  The JSON parser reads the box list as one flattened column of
factors in box order (``_json_boxes``), so its first bad box or factor
raises what a box-by-box read would; a box of the wrong length goes to the
public constructor, which names the first bad box.

A document is bounded by its distinct factors, which the per-spelling memo
holds, not by its boxes: ``top`` is the largest coordinate of any of them.
With a header, or in JSON, a document whose boxes have the ambient's
dimension and whose ``top`` passes no side fits its ambient; any other gets
the public constructor's column check, which raises the error of its first
bad box (``_parsed_document``).  Without a header, when every axis has a
factor ending at ``top`` (``_ends_at``, the scan the writer's header test
makes), every side is ``max(2, top)``; otherwise the sides are the per-axis
maxima (``_inferred_sides``).  Either way the sides hold every box.

Both parsers run with Python's cyclic garbage collector paused
(``geometry._gc_paused``): a big document makes a container per box and
factor, none of them in a cycle, and the collector would pass over them
hundreds of times while they are built (``json.loads`` alone took 1.7
times as long with it on, on the 15,625-box p25^3).  The collector's
earlier state, on or off, is restored when the parser returns or raises.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import itemgetter

from .geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    PiercingVector,
    _Record,
    _axis_maxima,
    _factors,
    _gc_paused,
    _last,
    _normalize_factor,
    _unchecked_boxes,
    _validate_boxes,
)

__all__ = [
    "PartitionDocument",
    "ParseError",
    "parse_partition_text",
    "write_partition_text",
    "parse_partition_structured",
    "write_partition_structured",
]


class ParseError(ValueError):
    """Malformed partition text; message carries the offending line number."""


class PartitionDocument(_Record):
    """A box family with stable 1-based ids, optional labels and metadata."""

    __slots__ = ("ambient", "boxes", "labels", "meta")

    def __init__(
        self,
        ambient: Ambient,
        boxes: tuple[DiscreteBox, ...],
        labels: tuple[PiercingVector, ...] | None = None,
        meta: tuple[tuple[str, str], ...] = (),
    ) -> None:
        _validate_boxes(boxes, ambient)
        _check_labels(labels, len(boxes), ambient.dim)
        self._set(ambient, boxes, labels, meta)

    def family(self) -> BoxFamily:
        # the boxes were checked against the ambient when this was built
        return BoxFamily._trusted(self.ambient, self.boxes)

    @staticmethod
    def from_family(family: BoxFamily, labels=None, meta=()) -> "PartitionDocument":
        _check_labels(labels, len(family), family.ambient.dim)
        # a family's boxes were checked against its ambient when it was built
        return PartitionDocument._trusted(family.ambient, family.boxes, labels, tuple(meta))


def _check_labels(labels, n: int, dim: int) -> None:
    """Refuse labels (None: no labels) that are not one vector of ``dim``
    labels for each of ``n`` boxes."""
    if labels is not None and len(labels) != n:
        raise GeometryError("labels must match boxes one-to-one")
    if labels is not None and any(len(v.labels) != dim for v in labels):
        raise GeometryError("label/dimension mismatch")


def _parsed_document(
    ambient: Ambient, boxes: tuple[DiscreteBox, ...], top: int | None, labels=None, meta=()
) -> PartitionDocument:
    """The document of parsed ``boxes``, no coordinate of which passes
    ``top`` (None: not known).  When the boxes have the ambient's dimension
    and ``top`` passes no side, every box fits, and only the labels are
    checked; otherwise the public constructor checks every box and raises
    the error of the first bad one."""
    if top is None or top > min(ambient.sides) or boxes[0].dim != ambient.dim:
        return PartitionDocument(ambient, boxes, labels, meta)
    _check_labels(labels, len(boxes), ambient.dim)
    return PartitionDocument._trusted(ambient, boxes, labels, meta)


_BOX_RE = re.compile(r"^Box\(\s*(\d+)\s*\)\s*=\s*(.*)$")
_FACTOR_RE = re.compile(r"^\{([0-9,\s]*)\}$")
_AMBIENT_RE = re.compile(r"^Ambient\s*=\s*(.*)$")


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed once per distinct key."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _parse_factor(text: str) -> tuple[int, ...]:
    """The factor a ``{...}`` spelling names; ParseError, with no line
    number, when it names none."""
    m = _FACTOR_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed factor {text.strip()!r}")
    items = [s.strip() for s in m.group(1).split(",")]
    if items == [""]:
        raise ParseError("empty factor")
    try:
        cells = [int(s) for s in items]
    except ValueError:
        raise ParseError(f"non-integer coordinate in {text.strip()!r}")
    if any(c < 1 for c in cells):
        raise ParseError("coordinates must be positive")
    if len(set(cells)) != len(cells):
        raise ParseError(f"duplicate element in factor {text.strip()!r}")
    return _normalize_factor(cells)


def _inferred_sides(boxes, dim: int) -> tuple[int, ...]:
    """Per-axis maximum coordinate, raised to 2 so the ambient is legal; every
    box must have ``dim`` axes."""
    return tuple(max(2, m) for m in _axis_maxima(boxes, dim))


def _header_sides(m: re.Match) -> tuple[int, ...]:
    """The sides an ``Ambient`` header's match names; ValueError when one is
    not an integer."""
    return tuple(int(s.strip()) for s in m.group(1).split("x"))


def _read_columns(text: str) -> tuple[tuple[int, ...] | None, tuple[DiscreteBox, ...], int]:
    """The header's sides (None without one), the boxes in id order and the
    largest coordinate of any factor, read off the distinct factors, of the
    listing ``text``, read a column at a time with no Python call per line.

    A listing with a fault raises the ParseError of its first fault in line
    order.  Each column names its own first fault: a line that is no box (a
    malformed line, a second header, a malformed header), an id too long
    for ``int()``, a repeated id, a bad factor spelling, a box of another
    dimension.  The earliest line wins; on one line the faults rank in that
    order.  Only then are no boxes at all, or ids that are not 1..n, faults."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    matches = list(map(_BOX_RE.match, lines))
    faults = []  # (index among the non-blank lines, rank on the line, message)
    sides, at = None, range(len(lines))  # at[j]: the index of box j's line
    if None in matches:  # a header, at most one, on any line
        i = matches.index(None)
        header = _AMBIENT_RE.match(lines[i])
        if header is None:
            faults.append((i, 0, f"malformed line {lines[i]!r}"))
        else:
            try:
                sides = _header_sides(header)
            except ValueError:
                faults.append((i, 0, "malformed Ambient header"))
        if None in matches[i + 1 :]:
            k = matches.index(None, i + 1)
            again = "duplicate Ambient header" if _AMBIENT_RE.match(lines[k]) else None
            faults.append((k, 0, again or f"malformed line {lines[k]!r}"))
        at = list(itertools.compress(itertools.count(), matches))
        matches = list(filter(None, matches))
    n = len(matches)
    order = list(range(1, n + 1))
    ids = []
    try:
        # extend keeps the ids read before the one int() refuses
        ids.extend(map(int, map(re.Match.group, matches, itertools.repeat(1))))
    except ValueError:  # more digits than int() converts
        faults.append((at[len(ids)], 1, "box id too long"))
    if ids != order and len(set(ids)) < len(ids):
        first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # each id's first box
        j = next(j for j, b in enumerate(ids) if first[b] != j)
        faults.append((at[j], 2, f"duplicate id {ids[j]}"))
    specs = list(map(re.Match.group, matches, itertools.repeat(2)))
    del matches  # each holds its whole line: free them before the factors are built
    # a spec splits into one more factor than it has separators
    dims = list(map(str.count, specs, itertools.repeat(" x ")))
    parts = itertools.chain.from_iterable(map(str.split, specs, itertools.repeat(" x ")))
    factor = _Memo(_parse_factor)
    try:
        factors = list(map(factor.__getitem__, parts))
    except ParseError as exc:
        # the bad spelling is the first one the memo lacks
        split = map(str.split, specs, itertools.repeat(" x "))
        j = next(j for j, row in enumerate(split) if not all(map(factor.__contains__, row)))
        faults.append((at[j], 3, str(exc)))
    if len(set(dims)) > 1:
        j = next(j for j, d in enumerate(dims) if d != dims[0])
        faults.append((at[j], 4, "inconsistent dimension"))
    if faults:
        index, _, message = min(faults)
        # a line's number counts the blank lines before it
        numbers = itertools.compress(itertools.count(1), map(str.strip, text.splitlines()))
        raise ParseError(f"line {next(itertools.islice(numbers, index, None))}: {message}")
    if n == 0:
        raise ParseError("no boxes found")
    rows = zip(*[iter(factors)] * (dims[0] + 1))
    if ids != order:
        missing = set(order).difference(ids)
        if missing:
            raise ParseError(f"ids must be contiguous from 1: id {min(missing)} is missing")
        rows = map(dict(zip(ids, rows)).__getitem__, order)
    # factors from _normalize_factor
    return sides, _unchecked_boxes(rows, n), max(map(_last, factor.values()))


@_gc_paused
def parse_partition_text(text: str) -> PartitionDocument:
    """Parse the listing format; boxes are returned in id order.  A listing
    is read a column at a time, and one with a fault raises the error of
    its first fault in line order, naming its line."""
    sides, boxes, top = _read_columns(text)
    dim = boxes[0].dim
    if sides is not None:
        return _parsed_document(Ambient(sides), boxes, top)
    if all(_ends_at(boxes, a, top) for a in range(dim)):
        # every axis reaches the largest coordinate, so it is every axis's maximum
        sides = (max(2, top),) * dim
    else:
        sides = _inferred_sides(boxes, dim)
    # the sides are the boxes' own maxima, so every box fits them
    return PartitionDocument._trusted(Ambient(sides), boxes, None, ())


def _ends_at(boxes, a: int, n: int) -> bool:
    """Whether some box's axis-``a`` factor ends at ``n``, by a scan that
    stops at the first one that does."""
    return n in map(_last, map(itemgetter(a), map(_factors, boxes)))


def _needs_header(doc: PartitionDocument) -> bool:
    """Whether the inferred sides (``_inferred_sides``) differ from the
    ambient's.  Every box fits the ambient, so they differ exactly when some
    axis with a side above 2 has no factor ending at that side."""
    return not all(n == 2 or _ends_at(doc.boxes, a, n) for a, n in enumerate(doc.ambient.sides))


def _spelled(doc: PartitionDocument, open_: str, close: str):
    """Every factor of every box, in order, spelled as its ascending
    coordinates between ``open_`` and ``close``, each distinct one once;
    grouped per box, a tuple of ``dim`` spellings each."""
    spell = _Memo(lambda f: open_ + ",".join(map(str, f)) + close).__getitem__
    flat = map(spell, itertools.chain.from_iterable(map(_factors, doc.boxes)))
    return zip(*[flat] * doc.ambient.dim)


def write_partition_text(doc: PartitionDocument) -> str:
    """Emit the listing format; ascending elements, single spaces, one box
    per line.  The Ambient header appears only when inference would differ."""
    head = []
    if _needs_header(doc):
        head.append("Ambient = " + " x ".join(str(n) for n in doc.ambient.sides))
    rows = map(" x ".join, _spelled(doc, "{", "}"))
    lines = map("Box({}) = {}".format, itertools.count(1), rows)
    return "\n".join(itertools.chain(head, lines)) + "\n"


def write_partition_structured(doc: PartitionDocument) -> str:
    """Emit the JSON format: the bytes of ``json.dumps`` with separators
    ``(",", ":")`` over ambient, boxes (factor lists), labels and meta, with
    each distinct factor spelled once."""
    import json  # here, not at the top: the text commands never load it

    dumps = functools.partial(json.dumps, separators=(",", ":"))
    # a factor holds ints only, each written as json writes an int
    boxes = "],[".join(map(",".join, _spelled(doc, "[", "]")))
    boxes = f"[{boxes}]" if doc.boxes else ""
    labels = None if doc.labels is None else [v.labels for v in doc.labels]
    return (
        f'{{"ambient":{dumps(doc.ambient.sides)},"boxes":[{boxes}],'
        f'"labels":{dumps(labels)},"meta":{dumps(dict(doc.meta))}}}\n'
    )


def _reject(token: str):
    raise ValueError(f"non-integer number {token}")


def _json_boxes(rows, dim: int) -> tuple[tuple[DiscreteBox, ...], int | None]:
    """The boxes of the JSON ``boxes`` field and the largest coordinate of
    any factor, read off the distinct factors, or None for it when some box
    has not ``dim`` factors.  The factors are read as one flattened column,
    in box order, each distinct one checked once, so the first bad box or
    factor raises the error a box-by-box read gives.  Boxes of ``dim``
    factors are cut from the column in C; any others are cut by their own
    lengths, and the public constructor names the first bad box."""
    factor = _Memo(_normalize_factor)
    flat = list(map(factor.__getitem__, map(tuple, itertools.chain.from_iterable(rows))))
    lengths = list(map(len, rows))
    if set(lengths) != {dim}:
        cut = map(itertools.islice, itertools.repeat(iter(flat)), lengths)
        return _unchecked_boxes(map(tuple, cut), len(lengths)), None
    # factors from _normalize_factor
    boxes = _unchecked_boxes(zip(*[iter(flat)] * dim), len(lengths))
    return boxes, max(map(_last, factor.values()))


@_gc_paused
def parse_partition_structured(text: str) -> PartitionDocument:
    """Parse the JSON format; bad JSON or a missing or ill-typed field raises ParseError."""
    import json

    try:
        obj = json.loads(text, parse_float=_reject, parse_constant=_reject)
    except RecursionError:
        raise ParseError("JSON document nested too deeply")
    except ValueError as exc:  # bad syntax, a non-integer or an overlong number
        raise ParseError(f"malformed JSON ({exc})")
    try:
        # json reads true/false as bools, which pass for the ints 1 and 0;
        # the text test spares the scan on documents without them
        if "true" in text or "false" in text:
            numbers = itertools.chain(
                obj["ambient"],
                *(itertools.chain(*b) for b in obj["boxes"]),
                *(obj.get("labels") or ()),
            )
            if any(isinstance(c, bool) for c in numbers):
                raise ParseError("boolean where an integer is expected")
        ambient = Ambient(tuple(obj["ambient"]))
        boxes, top = _json_boxes(obj["boxes"], ambient.dim)
        labels = None
        if obj.get("labels") is not None:
            labels = tuple(PiercingVector(tuple(v)) for v in obj["labels"])
        meta = tuple(sorted(obj.get("meta", {}).items()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed partition document ({type(exc).__name__}: {exc})")
    return _parsed_document(ambient, boxes, top, labels, meta)
