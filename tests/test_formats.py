import gc
import hashlib
import json
import pickle
from typing import get_args
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import constructions, formats, geometry
from boxkit.cli import main
from boxkit.constructions import (
    intermediate_library,
    lift,
    partition_25,
    product,
    realize,
)

from boxkit.formats import (
    ParseError,
    PartitionDocument,
    parse_partition_structured,
    parse_partition_text,
    write_partition_structured,
    write_partition_text,
)
from boxkit.geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    PiercingVector,
    verify_cover,
)
from boxkit.search import Predicate, enumerate_candidates


class TestParseText:
    def test_basic(self):
        doc = parse_partition_text(
            "Box(1) = {1,2} x {1}\nBox(2) = {1,2} x {2}\n"
        )
        assert doc.ambient.sides == (2, 2)
        assert doc.boxes == (
            DiscreteBox.of([1, 2], [1]),
            DiscreteBox.of([1, 2], [2]),
        )

    def test_header(self):
        doc = parse_partition_text("Ambient = 4 x 2\nBox(1) = {1}  x  {2}\n")
        assert doc.ambient.sides == (4, 2)

    def test_inference_clamps_to_legal_side(self):
        doc = parse_partition_text("Box(1) = {1}\n")
        assert doc.ambient.sides == (2,)

    def test_inferred_sides_read_the_boxes_once(self):
        """A listing without a header takes one per-axis maximum pass, and
        its document equals the checked one."""
        maxima = mock.Mock(wraps=geometry._axis_maxima)
        with mock.patch.object(geometry, "_axis_maxima", maxima), mock.patch(
            "boxkit.formats._axis_maxima", maxima
        ):
            doc = parse_partition_text("Box(1) = {1,3} x {2}\nBox(2) = {2} x {1}\n")
        assert maxima.call_count == 1
        assert doc == PartitionDocument(Ambient((3, 2)), doc.boxes)
        assert (doc.labels, doc.meta) == (None, ())

    def test_id_order_independent_of_line_order(self):
        doc = parse_partition_text("Box(2) = {2}\nBox(1) = {1}\n")
        assert doc.boxes[0] == DiscreteBox.of([1])

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("Box(1) = {1,1}", "duplicate element"),
            ("Box(1) = {1}\nBox(1) = {2}", "duplicate id"),
            ("Box(2) = {1}", "contiguous"),
            ("Box(1) = {0}", "positive"),
            ("Box(1) = {}", "empty factor"),
            ("Box(1) = 1,2", "malformed"),
            ("nonsense", "malformed"),
            ("", "no boxes"),
            ("Box(1) = {1}\nBox(2) = {1} x {2}", "dimension"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_partition_text(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_partition_text("Box(1) = {1}\nBox(2) = {1,1}\n")

    def test_repeated_bad_factor_names_its_first_line(self):
        with pytest.raises(ParseError, match="line 2: duplicate element"):
            parse_partition_text("Box(1) = {1}\nBox(2) = {1,1}\nBox(3) = {1,1}\n")

    def test_overlong_box_id(self):
        """An id past int()'s digit limit is a ParseError naming its line."""
        text = "Box(1) = {1}\nBox(" + "9" * 5000 + ") = {2}\n"
        with pytest.raises(ParseError, match="^line 2: box id too long$"):
            parse_partition_text(text)


class TestWriteText:
    def test_header_only_when_needed(self):
        doc = PartitionDocument(
            Ambient((3,)), (DiscreteBox.of([1]), DiscreteBox.of([2, 3]))
        )
        assert "Ambient" not in write_partition_text(doc)
        padded = PartitionDocument(Ambient((4,)), doc.boxes)
        assert write_partition_text(padded).startswith("Ambient = 4\n")

    def test_exact_grammar(self):
        doc = PartitionDocument(
            Ambient((3, 2)), (DiscreteBox.of([3, 1], [2]),)
        )
        assert write_partition_text(doc) == "Box(1) = {1,3} x {2}\n"


@st.composite
def documents(draw):
    d = draw(st.integers(1, 3))
    sides = tuple(draw(st.integers(2, 6)) for _ in range(d))
    n_boxes = draw(st.integers(1, 6))
    boxes = []
    for _ in range(n_boxes):
        factors = tuple(
            tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(1, n), min_size=1, max_size=n
                        )
                    )
                )
            )
            for n in sides
        )
        boxes.append(DiscreteBox(factors))
    labels = None
    if draw(st.booleans()):
        labels = tuple(
            PiercingVector(
                tuple(draw(st.integers(1, 4)) for _ in range(d))
            )
            for _ in boxes
        )
    meta = tuple(
        sorted(
            draw(
                st.dictionaries(
                    st.text(
                        alphabet="abcdefgk", min_size=1, max_size=5
                    ),
                    st.text(alphabet="xyz123", max_size=5),
                    max_size=2,
                )
            ).items()
        )
    )
    return PartitionDocument(Ambient(sides), tuple(boxes), labels, meta)


@given(documents())
@settings(max_examples=150, deadline=None)
def test_text_round_trip(doc):
    bare = PartitionDocument(doc.ambient, doc.boxes)
    assert parse_partition_text(write_partition_text(bare)) == bare


@given(documents())
@settings(max_examples=150, deadline=None)
def test_structured_round_trip(doc):
    assert parse_partition_structured(write_partition_structured(doc)) == doc


@pytest.mark.parametrize(
    "doc",
    [
        '{"ambient": [2, 2], "boxes": [[[true, 2], [1, 2]]]}',
        '{"ambient": [2, false], "boxes": []}',
        '{"ambient": [2, 2], "boxes": [[[1, 2], [1, 2]]], "labels": [[1, true]]}',
    ],
)
def test_json_booleans_rejected(doc):
    with pytest.raises(ParseError, match="boolean"):
        parse_partition_structured(doc)


def test_json_true_in_meta_allowed():
    doc = parse_partition_structured(
        '{"ambient": [2], "boxes": [[[1, 2]]], "meta": {"proven": "true"}}'
    )
    assert doc.meta == (("proven", "true"),)


def test_labels_must_match_boxes():
    with pytest.raises(Exception):
        PartitionDocument(
            Ambient((2,)),
            (DiscreteBox.of([1]),),
            (PiercingVector((1,)), PiercingVector((1,))),
        )


@pytest.mark.parametrize("dim", [1, 3])
def test_labels_must_match_the_dimension(dim):
    """Each label vector has one entry per axis, as in an intermediate
    partition."""
    with pytest.raises(GeometryError, match="label/dimension mismatch"):
        PartitionDocument(
            Ambient((2, 2)), (DiscreteBox.of([1, 2], [1, 2]),), (PiercingVector((1,) * dim),)
        )


@pytest.mark.parametrize("kind", [int, np.int8, np.int64, np.uint16])
def test_numpy_sides_and_labels_round_trip(kind):
    """Sides and labels given as numpy integers are stored and written as
    plain ints, so both parsers read back the document that was built."""
    doc = PartitionDocument(
        Ambient((kind(3), kind(4))),
        (DiscreteBox.of([1, 2], [1, 2, 3]),),
        (PiercingVector((kind(1), kind(2))),),
    )
    assert all(type(n) is int for n in doc.ambient.sides + doc.labels[0].labels)
    bare = PartitionDocument(doc.ambient, doc.boxes)
    assert write_partition_text(bare).startswith("Ambient = 3 x 4\n")
    assert parse_partition_text(write_partition_text(bare)) == bare
    assert '"labels":[[1,2]]' in write_partition_structured(doc)
    assert parse_partition_structured(write_partition_structured(doc)) == doc


@pytest.mark.parametrize("cut", [1, 12, 29, 30, 45])
def test_truncated_json_is_parse_error(cut):
    text = '{"ambient": [2,2], "boxes": [[[1,2],[1,2]]], "labels": null}'
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_partition_structured(text[:cut])


# the characters both formats are written in, plus a few that neither uses
_SYNTAX = '{}[](),:=x \n0123456789-+."Boxambientlsrufe_#'


@pytest.mark.parametrize(
    "parse, write",
    [
        (parse_partition_text, write_partition_text),
        (parse_partition_structured, write_partition_structured),
    ],
    ids=["text", "json"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_round_trip_or_raise(parse, write, data, tmp_path_factory):
    """A valid document with a few spans replaced, or cut short, either
    parses to a document that round-trips or is refused with ParseError or
    GeometryError; ``boxkit verify`` exits 2 on the refused ones."""
    text = write(data.draw(documents()))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + data.draw(st.text(_SYNTAX, max_size=3)) + text[j:]
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    try:
        doc = parse(text)
    except (ParseError, GeometryError):
        # the CLI reads a file as JSON iff it starts with "{"
        if text.lstrip().startswith("{") == (parse is parse_partition_structured):
            path = tmp_path_factory.getbasetemp() / "mutated.txt"
            path.write_text(text, encoding="utf-8")
            assert main(["verify", str(path)]) == 2
        return
    assert parse(write(doc)) == doc


# sha256 of the listing and JSON bytes of the 25-box partition cubed
# (15,625 boxes on [5]^9); the writers' output is a stable format
P25_CUBED_SHA256 = {
    "text": "5383cdbc41a653e056be59004ee4a6c1a3fdb760a655a35367103e94081a1361",
    "json": "4f44bf5e74cfe170195cc333aaff4b6b7e6a3cfa17a50429325e56fe7e2dd29c",
}


def test_p25_cubed_bytes_pinned():
    p25 = partition_25()
    doc = PartitionDocument.from_family(product(product(p25, p25), p25))
    text, js = write_partition_text(doc), write_partition_structured(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == P25_CUBED_SHA256["text"]
    assert hashlib.sha256(js.encode()).hexdigest() == P25_CUBED_SHA256["json"]
    assert parse_partition_text(text).boxes == doc.boxes
    assert parse_partition_structured(js) == doc


def _build_write_parse_verify():
    """Families from product, lift, realize and enumeration, each written,
    parsed back and verified."""
    p25 = partition_25()
    families = [
        product(p25, p25),
        lift(p25, 7),
        realize(intermediate_library("fig6", 3), 3),
    ]
    out = [enumerate_candidates(Ambient((3, 3)), "proper_box")]
    for fam in families:
        doc = PartitionDocument.from_family(fam)
        text, js = write_partition_text(doc), write_partition_structured(doc)
        loaded = parse_partition_text(text)
        out.append((doc, text, js, loaded, parse_partition_structured(js)))
        out.append(verify_cover(loaded.family()))
    return out


def test_intern_limit_changes_no_result(monkeypatch):
    """With the intern table cleared every few factors, every result is the
    same: nothing depends on a hit."""
    before = _build_write_parse_verify()
    monkeypatch.setattr(geometry, "_INTERN_LIMIT", 4)
    geometry._CANON.clear()
    assert _build_write_parse_verify() == before
    assert len(geometry._CANON) <= 4


def _rows(n, d):
    """Up to four boxes' factors over [n]^d, as unsorted lists."""
    factor = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    return st.lists(st.tuples(*[factor] * d), min_size=1, max_size=4)


@pytest.mark.parametrize("limit", [geometry._INTERN_LIMIT, 4])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_unchecked_boxes_equal_checked_ones(limit, data):
    """Every box built without checks (the bulk builder itself, product,
    lift, candidate enumeration, both parsers) equals, hashes like and holds
    the same factors as the box the public constructor builds from fresh
    lists of its coordinates, with the intern table left whole the very same
    factor objects; it refuses assignment and deletion, and pickles."""
    n = data.draw(st.integers(2, 4), "n")
    d1, d2 = data.draw(st.integers(1, 2), "d1"), data.draw(st.integers(1, 2), "d2")
    rows1, rows2 = data.draw(_rows(n, d1), "rows1"), data.draw(_rows(n, d2), "rows2")
    m = data.draw(st.integers(n, n + 2), "m")
    predicate = data.draw(st.sampled_from(get_args(Predicate)), "predicate")
    with mock.patch.object(geometry, "_INTERN_LIMIT", limit):
        geometry._CANON.clear()
        f1 = BoxFamily(Ambient.cube(n, d1), tuple(map(DiscreteBox, rows1)))
        f2 = BoxFamily(Ambient.cube(n, d2), tuple(map(DiscreteBox, rows2)))
        doc = PartitionDocument.from_family(f1)
        rows = [tuple(map(geometry._normalize_factor, r)) for r in rows1]
        built = {
            "_unchecked_boxes": geometry._unchecked_boxes(iter(rows), len(rows)),
            "product": product(f1, f2).boxes,
            "lift": lift(f1, m).boxes,
            "enumerate_candidates": enumerate_candidates(f1.ambient, predicate),
            "parse_partition_text": parse_partition_text(write_partition_text(doc)).boxes,
            "parse_partition_structured": parse_partition_structured(
                write_partition_structured(doc)
            ).boxes,
        }
        for caller, boxes in built.items():
            for b in boxes:
                ref = DiscreteBox(tuple(map(list, b.factors)))
                assert b == ref and hash(b) == hash(ref), caller
                assert type(b.factors) is tuple and len(b.factors) == len(ref.factors)
                for f, g in zip(b.factors, ref.factors):
                    assert type(f) is tuple and f == g, caller
                    assert all(type(c) is int for c in f), caller
                    assert f is g or limit == 4, caller
                with pytest.raises(AttributeError):
                    b.factors = ref.factors
                with pytest.raises(AttributeError):
                    del b.factors
                copy = pickle.loads(pickle.dumps(b))
                assert copy == b and hash(copy) == hash(b), caller


# metadata text: any character, plus the ones json must escape or may not
# write as they are
_META_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\n\x1f\x7fé\u2028€😀')),
    max_size=8,
)


@st.composite
def wide_documents(draw):
    """Documents of 1-9 axes, with or without labels, and metadata that
    json must escape."""
    d = draw(st.integers(1, 9))
    sides = tuple(draw(st.integers(2, 4)) for _ in range(d))
    factor = lambda n: st.sets(st.integers(1, n), min_size=1, max_size=n)
    rows = draw(st.lists(st.tuples(*map(factor, sides)), min_size=1, max_size=6))
    boxes = tuple(DiscreteBox.of(*r) for r in rows)
    labels = None
    if draw(st.booleans()):
        vector = st.tuples(*[st.integers(1, 5)] * d)
        labels = tuple(PiercingVector(draw(vector)) for _ in boxes)
    meta = tuple(sorted(draw(st.dictionaries(_META_TEXT, _META_TEXT, max_size=3)).items()))
    return PartitionDocument(Ambient(sides), boxes, labels, meta)


@given(wide_documents())
@settings(max_examples=200, deadline=None)
def test_structured_writer_is_json_dumps(doc):
    """The writer's bytes are those of ``json.dumps`` over the whole
    document, so spelling each factor once changes no byte."""
    obj = {
        "ambient": list(doc.ambient.sides),
        "boxes": [b.factors for b in doc.boxes],
        "labels": None if doc.labels is None else [v.labels for v in doc.labels],
        "meta": dict(doc.meta),
    }
    assert write_partition_structured(doc) == json.dumps(obj, separators=(",", ":")) + "\n"


def _recording(seen, fn):
    """``fn``, noting whether the collector was on at each call."""

    def call(*args):
        seen.append(gc.isenabled())
        return fn(*args)

    return call


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_bulk_builders_restore_the_collector(enabled, monkeypatch):
    """Both parsers and ``product`` build their family with the collector
    paused, and leave it as they found it, whether they return or raise."""
    p25 = partition_25()
    doc = PartitionDocument.from_family(p25)
    text, js = write_partition_text(doc), write_partition_structured(doc)
    p25_on_7 = lift(p25, 7)
    seen = []
    monkeypatch.setattr(formats, "_parse_factor", _recording(seen, formats._parse_factor))
    monkeypatch.setattr(formats, "_normalize_factor", _recording(seen, formats._normalize_factor))
    monkeypatch.setattr(constructions, "BoxFamily", _recording(seen, BoxFamily))
    calls = [
        (parse_partition_text, (text,), None),
        (parse_partition_text, ("Box(1) = {1}\nBox 2 = {2}\n",), ParseError),
        (parse_partition_structured, (js,), None),
        (parse_partition_structured, (js[:-9],), ParseError),
        (product, (p25, p25), None),
        (product, (p25, p25_on_7), GeometryError),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for fn, args, error in calls:
            if error is None:
                fn(*args)
            else:
                with pytest.raises(error):
                    fn(*args)
            assert gc.isenabled() is enabled, (fn.__name__, error)
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


# ---------------------------------------------------------------------------
# the column readers against the readers that go one line or one box at a time


def _outcome(parse, text):
    """The document ``parse`` reads from ``text``, or its error's type and message."""
    try:
        return parse(text)
    except (ParseError, GeometryError) as exc:
        return type(exc), str(exc)


def _assert_columns_read_like_lines(parse, text):
    """``parse`` gives the same document, or the same error, as with its
    column reader switched off, so that every listing is walked line by
    line and every JSON box list read box by box; and a text it reads
    falls back to that walk only when the document has a fault."""
    with mock.patch.object(formats, "_read_columns", return_value=None), mock.patch.object(
        formats, "_json_columns", return_value=None
    ):
        want = _outcome(parse, text)
    lines = mock.Mock(wraps=formats._read_lines)
    boxes = mock.Mock(wraps=formats._json_rows)
    with mock.patch.object(formats, "_read_lines", lines), mock.patch.object(
        formats, "_json_rows", boxes
    ):
        assert _outcome(parse, text) == want
    if isinstance(want, PartitionDocument) and want.boxes:
        assert not lines.called and not boxes.called


# every line break str.splitlines splits at
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def listings(draw):
    """The listing of a document, its ids shuffled, repeated, past the last
    one, padded with zeros or past int()'s digit limit, with up to two
    headers (its own sides, others or malformed ones) and blank lines on any
    line, indented lines, and any line break ``str.splitlines`` splits at."""
    doc = draw(documents())
    listing = write_partition_text(PartitionDocument(doc.ambient, doc.boxes))
    specs = [line.split(" = ", 1)[1] for line in listing.splitlines() if line.startswith("Box(")]
    ids = [str(k) for k in range(1, len(specs) + 1)]
    i = draw(st.integers(0, len(ids) - 1))
    edit = draw(st.sampled_from(["none", "shuffle", "repeat", "past", "zeros", "long"]))
    if edit == "shuffle":
        ids = draw(st.permutations(ids))
    elif edit == "repeat":
        ids[i] = draw(st.sampled_from(ids))
    elif edit == "past":
        ids[i] = str(len(ids) + draw(st.integers(1, 3)))
    elif edit == "zeros":
        ids[i] = "0" * draw(st.integers(1, 2)) + ids[i]
    elif edit == "long":
        ids[i] = "9" * 5000
    lines = [f"Box({k}) = {spec}" for k, spec in zip(ids, specs)]
    sides = st.lists(st.integers(1, 7), min_size=1, max_size=4)
    header = st.one_of(
        st.just(" x ".join(map(str, doc.ambient.sides))),
        sides.map(lambda s: " x ".join(map(str, s))),
        st.sampled_from(["", "3 x", "x 4", "2 x y"]),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), "Ambient = " + draw(header))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    indent = st.sampled_from(["", "", " ", "\t "])
    return "".join(draw(indent) + line + draw(st.sampled_from(_BREAKS)) for line in lines)


@given(listings())
@settings(max_examples=300, deadline=None)
def test_text_columns_read_like_the_line_walk(text):
    _assert_columns_read_like_lines(parse_partition_text, text)


# JSON values to put where a box, a factor or the box list belongs
_JSON_VALUES = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.none(),
    st.text("ab1", max_size=2),
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=2),
    st.just({"a": [1]}),
)


@st.composite
def json_documents(draw):
    """The JSON of a document with a coordinate or label turned into a
    boolean, a box given a factor more or one less, or a box, a factor or
    the box list replaced by another JSON value."""
    obj = json.loads(write_partition_structured(draw(documents())))
    boxes = obj["boxes"]
    i = draw(st.integers(0, len(boxes) - 1))
    j = draw(st.integers(0, len(boxes[i]) - 1))
    edit = draw(st.sampled_from(["none", "bool", "label", "more", "less", "box", "factor", "boxes"]))
    if edit == "bool":
        boxes[i][j][0] = draw(st.booleans())
    elif edit == "label" and obj["labels"] is not None:
        obj["labels"][i][0] = draw(st.booleans())
    elif edit == "more":
        boxes[i].append(draw(st.sampled_from(boxes[i])))
    elif edit == "less":
        del boxes[i][j]
    elif edit == "box":
        boxes[i] = draw(_JSON_VALUES)
    elif edit == "factor":
        boxes[i][j] = draw(_JSON_VALUES)
    elif edit == "boxes":
        obj["boxes"] = draw(_JSON_VALUES)
    return json.dumps(obj)


@given(json_documents())
@settings(max_examples=300, deadline=None)
def test_json_columns_read_like_the_box_walk(text):
    _assert_columns_read_like_lines(parse_partition_structured, text)


@pytest.mark.parametrize(
    "parse, write",
    [
        (parse_partition_text, write_partition_text),
        (parse_partition_structured, write_partition_structured),
    ],
    ids=["text", "json"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_read_alike_by_columns_and_by_lines(parse, write, data):
    """The mutations of ``test_mutated_documents_round_trip_or_raise``."""
    text = write(data.draw(documents()))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + data.draw(st.text(_SYNTAX, max_size=3)) + text[j:]
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    _assert_columns_read_like_lines(parse, text)


@st.composite
def padded_documents(draw):
    """Documents over sides of 2 to 6, 2 among them often, whose boxes may
    leave the top of any axis empty: each axis's coordinates are drawn up
    to a bound at or below its side.  Some have no boxes."""
    sides = tuple(draw(st.lists(st.sampled_from([2, 2, 3, 4, 6]), min_size=1, max_size=4)))
    tops = [draw(st.integers(1, n)) for n in sides]
    factors = [st.sets(st.integers(1, top), min_size=1) for top in tops]
    rows = draw(st.lists(st.tuples(*factors), max_size=5))
    return PartitionDocument(Ambient(sides), tuple(DiscreteBox.of(*r) for r in rows))


@given(padded_documents())
@settings(max_examples=200, deadline=None)
def test_header_written_exactly_when_inference_differs(doc):
    """The writer's early-exit decision agrees with the inferred sides."""
    want = formats._inferred_sides(doc.boxes, doc.ambient.dim) != doc.ambient.sides
    assert formats._needs_header(doc) is want
    text = write_partition_text(doc)
    assert text.startswith("Ambient = ") is want
    if doc.boxes:
        assert parse_partition_text(text) == doc
