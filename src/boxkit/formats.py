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
every distinct factor once: the parsers read each factor spelling once (a
bad one still raises ParseError naming its first line) and both writers
spell each factor once, so a family that repeats a few factors over many
boxes costs little more than its line count.  The JSON writer joins those
spellings into exactly the bytes ``json.dumps`` with separators
``(",", ":")`` gives for the whole document.

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

from .geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    PiercingVector,
    _Record,
    _axis_maxima,
    _gc_paused,
    _normalize_factor,
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


@_gc_paused
def parse_partition_text(text: str) -> PartitionDocument:
    """Parse the listing format; boxes are returned in id order."""
    ambient_sides: tuple[int, ...] | None = None
    entries: dict[int, DiscreteBox] = {}
    dim: int | None = None
    # one parse per distinct factor spelling; a miss happens on the line being
    # read, so the late-bound lineno names it
    factor = _Memo(lambda part: _parse_factor(part, lineno))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _AMBIENT_RE.match(line)
        if m:
            if ambient_sides is not None:
                raise ParseError(f"line {lineno}: duplicate Ambient header")
            try:
                ambient_sides = tuple(
                    int(s.strip()) for s in m.group(1).split("x")
                )
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
        entries[box_id] = DiscreteBox._canonical(factors)  # factors from _normalize_factor

    if not entries:
        raise ParseError("no boxes found")
    ids = sorted(entries)
    if ids != list(range(1, len(ids) + 1)):
        raise ParseError(f"ids must be contiguous from 1, got {ids}")
    boxes = tuple(entries[i] for i in ids)

    if ambient_sides is None:
        assert dim is not None
        # the sides are the boxes' own maxima, so every box fits them
        return PartitionDocument._unchecked(Ambient(_inferred_sides(boxes, dim)), boxes)
    return PartitionDocument(Ambient(ambient_sides), boxes)


def write_partition_text(doc: PartitionDocument) -> str:
    """Emit the listing format; ascending elements, single spaces, one box
    per line.  The Ambient header appears only when inference would differ."""
    lines = []
    if _inferred_sides(doc.boxes, doc.ambient.dim) != doc.ambient.sides:
        lines.append("Ambient = " + " x ".join(str(n) for n in doc.ambient.sides))
    spell = _Memo(lambda f: "{" + ",".join(map(str, f)) + "}").__getitem__
    for i, box in enumerate(doc.boxes, start=1):
        lines.append(f"Box({i}) = {' x '.join(map(spell, box.factors))}")
    return "\n".join(lines) + "\n"


def write_partition_structured(doc: PartitionDocument) -> str:
    """Emit the JSON format: the bytes of ``json.dumps`` with separators
    ``(",", ":")`` over ambient, boxes (factor lists), labels and meta, with
    each distinct factor spelled once."""
    import json  # here, not at the top: the text commands never load it

    dumps = functools.partial(json.dumps, separators=(",", ":"))
    # a factor holds ints only, each written as json writes an int
    spell = _Memo(lambda f: "[" + ",".join(map(str, f)) + "]").__getitem__
    boxes = ",".join(["[" + ",".join(map(spell, b.factors)) + "]" for b in doc.boxes])
    labels = None if doc.labels is None else [v.labels for v in doc.labels]
    return (
        f'{{"ambient":{dumps(doc.ambient.sides)},"boxes":[{boxes}],'
        f'"labels":{dumps(labels)},"meta":{dumps(dict(doc.meta))}}}\n'
    )


def _reject(token: str):
    raise ValueError(f"non-integer number {token}")


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
        factor = _Memo(_normalize_factor).__getitem__
        # factors from _normalize_factor
        canonical = DiscreteBox._canonical
        boxes = tuple(canonical(tuple(map(factor, map(tuple, b)))) for b in obj["boxes"])
        labels = None
        if obj.get("labels") is not None:
            labels = tuple(PiercingVector(tuple(v)) for v in obj["labels"])
        meta = tuple(sorted(obj.get("meta", {}).items()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed partition document ({type(exc).__name__}: {exc})")
    return PartitionDocument(ambient, boxes, labels, meta)
