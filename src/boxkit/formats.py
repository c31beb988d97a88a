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
on each axis, at the first factor ending at its side.  The listing parser
reads the stripped lines, the ``Box`` matches, the ids, the split factor
spellings and the factors each as one column (``_read_columns``); only a
listing with a fault is walked line by line (``_read_lines``), which raises
the error of the first fault in line order, naming its line.  The JSON
parser flattens the box list into one column of factors
(``_json_columns``); a list it cannot read so, or any error, is read again
box by box (``_json_rows``), which raises the error of the first bad box.
So every message is the one the walks give, and they stay the references
the tests compare the column readers against.

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
        if labels is not None and len(labels) != len(boxes):
            raise GeometryError("labels must match boxes one-to-one")
        if labels is not None and any(len(v.labels) != ambient.dim for v in labels):
            raise GeometryError("label/dimension mismatch")
        self._set(ambient, boxes, labels, meta)

    @staticmethod
    def _unchecked(ambient: Ambient, boxes: tuple[DiscreteBox, ...]) -> "PartitionDocument":
        """The document with no labels and no metadata, built with no check:
        every box must already fit ``ambient``."""
        doc = object.__new__(PartitionDocument)
        doc._set(ambient, boxes, None, ())
        return doc

    def family(self) -> BoxFamily:
        return BoxFamily(self.ambient, self.boxes)

    @staticmethod
    def from_family(family: BoxFamily, labels=None, meta=()) -> "PartitionDocument":
        return PartitionDocument(family.ambient, family.boxes, labels, tuple(meta))


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


def _parse_factor(text: str, lineno: int) -> tuple[int, ...]:
    m = _FACTOR_RE.match(text.strip())
    if not m:
        raise ParseError(f"line {lineno}: malformed factor {text.strip()!r}")
    items = [s.strip() for s in m.group(1).split(",")]
    if items == [""]:
        raise ParseError(f"line {lineno}: empty factor")
    try:
        cells = [int(s) for s in items]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer coordinate in {text.strip()!r}")
    if any(c < 1 for c in cells):
        raise ParseError(f"line {lineno}: coordinates must be positive")
    if len(set(cells)) != len(cells):
        raise ParseError(f"line {lineno}: duplicate element in factor {text.strip()!r}")
    return _normalize_factor(cells)


def _inferred_sides(boxes, dim: int) -> tuple[int, ...]:
    """Per-axis maximum coordinate, raised to 2 so the ambient is legal; every
    box must have ``dim`` axes."""
    return tuple(max(2, m) for m in _axis_maxima(boxes, dim))


def _header_sides(m: re.Match) -> tuple[int, ...]:
    """The sides an ``Ambient`` header's match names; ValueError when one is
    not an integer."""
    return tuple(int(s.strip()) for s in m.group(1).split("x"))


def _read_lines(lines: list[str]) -> tuple[tuple[int, ...] | None, tuple[DiscreteBox, ...]]:
    """The header's sides (None without one) and the boxes in id order of a
    listing's ``lines``, read one line at a time; the first fault in line
    order raises ParseError naming its line."""
    ambient_sides: tuple[int, ...] | None = None
    entries: dict[int, tuple[tuple[int, ...], ...]] = {}
    dim: int | None = None
    # one parse per distinct factor spelling; a miss happens on the line being
    # read, so the late-bound lineno names it
    factor = _Memo(lambda part: _parse_factor(part, lineno))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        m = _AMBIENT_RE.match(line)
        if m:
            if ambient_sides is not None:
                raise ParseError(f"line {lineno}: duplicate Ambient header")
            try:
                ambient_sides = _header_sides(m)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed Ambient header")
            continue
        m = _BOX_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        try:
            box_id = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"line {lineno}: box id too long")
        if box_id in entries:
            raise ParseError(f"line {lineno}: duplicate id {box_id}")
        factors = tuple(map(factor.__getitem__, m.group(2).split(" x ")))
        if dim is None:
            dim = len(factors)
        elif len(factors) != dim:
            raise ParseError(f"line {lineno}: inconsistent dimension")
        entries[box_id] = factors

    if not entries:
        raise ParseError("no boxes found")
    ids = sorted(entries)
    if ids != list(range(1, len(ids) + 1)):
        raise ParseError(f"ids must be contiguous from 1, got {ids}")
    # factors from _normalize_factor
    return ambient_sides, _unchecked_boxes(map(entries.__getitem__, ids), len(ids))


def _read_columns(
    lines: list[str],
) -> tuple[tuple[int, ...] | None, tuple[DiscreteBox, ...]] | None:
    """What ``_read_lines`` returns for the same ``lines``, read a column at
    a time with no Python call per line, or None when some line is at fault
    (a malformed line, header or factor, an id that is too long, repeated
    or missing, or two dimensions): ``_read_lines`` then raises the error
    of the first fault in line order."""
    lines = list(filter(None, map(str.strip, lines)))
    matches = list(map(_BOX_RE.match, lines))
    sides = None
    if None in matches:  # a header, at most one, on any line
        i = matches.index(None)
        header = _AMBIENT_RE.match(lines[i])
        del matches[i]
        if header is None or None in matches:
            return None
        try:
            sides = _header_sides(header)
        except ValueError:
            return None
    n = len(matches)
    try:
        ids = list(map(int, map(re.Match.group, matches, itertools.repeat(1))))
    except ValueError:  # more digits than int() converts
        return None
    specs = list(map(re.Match.group, matches, itertools.repeat(2)))
    del matches  # each holds its whole line: free them before the factors are built
    # a spec splits into one more factor than it has separators
    dims = set(map(str.count, specs, itertools.repeat(" x ")))
    if n == 0 or len(dims) != 1:
        return None
    dim = dims.pop() + 1
    parts = itertools.chain.from_iterable(map(str.split, specs, itertools.repeat(" x ")))
    try:
        # the walk names the line of a bad spelling
        factors = list(map(_Memo(lambda part: _parse_factor(part, 0)).__getitem__, parts))
    except ParseError:
        return None
    rows = zip(*[iter(factors)] * dim)
    if ids != list(range(1, n + 1)):
        if sorted(ids) != list(range(1, n + 1)):
            return None
        rows = map(dict(zip(ids, rows)).__getitem__, range(1, n + 1))
    # factors from _normalize_factor
    return sides, _unchecked_boxes(rows, n)


@_gc_paused
def parse_partition_text(text: str) -> PartitionDocument:
    """Parse the listing format; boxes are returned in id order.  A listing
    is read a column at a time; only one with a fault is walked line by
    line, to name the fault's line."""
    read = _read_columns(text.splitlines())
    sides, boxes = _read_lines(text.splitlines()) if read is None else read
    if sides is None:
        # the sides are the boxes' own maxima, so every box fits them
        ambient = Ambient(_inferred_sides(boxes, boxes[0].dim))
        return PartitionDocument._unchecked(ambient, boxes)
    return PartitionDocument(Ambient(sides), boxes)


def _needs_header(doc: PartitionDocument) -> bool:
    """Whether the inferred sides (``_inferred_sides``) differ from the
    ambient's.  Every box fits the ambient, so they differ exactly when some
    axis with a side above 2 has no factor ending at that side; each axis's
    scan stops at the first factor that does."""
    return not all(
        n == 2 or n in map(_last, map(itemgetter(a), map(_factors, doc.boxes)))
        for a, n in enumerate(doc.ambient.sides)
    )


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


def _json_columns(rows, dim: int) -> tuple[DiscreteBox, ...] | None:
    """The boxes of the JSON ``boxes`` field, read as one flattened column
    of factors, each distinct one checked once; or None when the field is
    not a list of ``dim`` factors a box, or any factor fails: ``_json_rows``
    then raises the error of the first bad box."""
    factor = _Memo(_normalize_factor).__getitem__
    try:
        if set(map(len, rows)) != {dim}:
            return None
        flat = map(factor, map(tuple, itertools.chain.from_iterable(rows)))
        # factors from _normalize_factor
        return _unchecked_boxes(zip(*[flat] * dim), len(rows))
    except (TypeError, ValueError):
        return None


def _json_rows(rows) -> tuple[DiscreteBox, ...]:
    """The boxes of the JSON ``boxes`` field, read box by box, each distinct
    factor checked once."""
    factor = _Memo(_normalize_factor).__getitem__
    factor_rows = [tuple(map(factor, map(tuple, b))) for b in rows]
    # factors from _normalize_factor
    return _unchecked_boxes(factor_rows, len(factor_rows))


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
        boxes = _json_columns(obj["boxes"], ambient.dim)
        if boxes is None:
            boxes = _json_rows(obj["boxes"])
        labels = None
        if obj.get("labels") is not None:
            labels = tuple(PiercingVector(tuple(v)) for v in obj["labels"])
        meta = tuple(sorted(obj.get("meta", {}).items()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed partition document ({type(exc).__name__}: {exc})")
    return PartitionDocument(ambient, boxes, labels, meta)
