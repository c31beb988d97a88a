import gc
import hashlib
import itertools
import json
import pickle
import re
from typing import get_args
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxkit import cli, formats, geometry, search
from boxkit.cli import main
from boxkit.constructions import (
    grid_partition,
    intermediate_library,
    lift,
    partition_25,
    predicted_size,
    product,
    quadrant_construction,
    realize,
    trivial_odd_partition,
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
from boxkit.search import (
    CoverInstance,
    Predicate,
    SearchBudget,
    enumerate_candidates,
    solve_cover,
)


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

    @pytest.mark.parametrize("first, n", [(2, 2000), (10**3999, 100)], ids=["2", "4000-digit"])
    def test_contiguity_error_is_short(self, first, n):
        """Ids that are not 1..n name the smallest missing one, not every
        id: 2,000 boxes numbered from 2, or 100 from a 4,000-digit id."""
        text = "".join(f"Box({k}) = {{1}}\n" for k in range(first, first + n))
        with pytest.raises(ParseError) as info:
            parse_partition_text(text)
        assert str(info.value) == "ids must be contiguous from 1: id 1 is missing"

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


def _mutated(data, text, edits=st.integers(1, 4)):
    """``text`` with ``edits`` spans of up to three characters replaced by
    up to three of ``_SYNTAX``, then, half the time, cut short."""
    for _ in range(data.draw(edits)):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + data.draw(st.text(_SYNTAX, max_size=3)) + text[j:]
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    return text


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
    text = _mutated(data, write(data.draw(documents())))
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


# every command that reads a document, with its options; the file goes last
_READERS = [
    ["verify"],
    ["verify", "--piercing", "2"],
    ["render", "--format", "ascii"],
    ["render", "--format", "svg"],
    ["graph", "--k", "2", "--from-partition"],
]


@pytest.mark.parametrize(
    "write", [write_partition_text, write_partition_structured], ids=["text", "json"]
)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_documents_exit_with_a_code(write, data, tmp_path_factory):
    """A document with none to three spans replaced, or cut short, read by
    every command that reads one, in process: each exits 0-3 and raises
    nothing."""
    text = _mutated(data, write(data.draw(documents())), st.integers(0, 3))
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text, encoding="utf-8")
    for argv in _READERS:
        assert main([*argv, str(path)]) in (0, 1, 2, 3), argv


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


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_parsed_documents_equal_checked_ones(data):
    """Both parsers, with and without a header, give the document the public
    constructor builds, or raise its error, over ambients that need not be
    cubes, boxes whose factors may pass a side, headers of the wrong
    dimension and labels of the wrong count or length: a document bounded
    by its largest coordinate is checked once, and one that is not gets
    every check."""
    d = data.draw(st.integers(1, 3), "d")
    sides = tuple(data.draw(st.lists(st.integers(2, 5), min_size=d, max_size=d + 1), "sides"))
    factor = st.lists(st.integers(1, max(sides) + 1), min_size=1, max_size=3, unique=True)
    rows = data.draw(st.lists(st.tuples(*[factor] * d), min_size=1, max_size=5), "rows")
    vector = st.integers(d, d + 1).flatmap(lambda w: st.tuples(*[st.integers(1, 3)] * w))
    count = st.sampled_from([len(rows), len(rows) + 1])
    label_lists = count.flatmap(lambda c: st.lists(vector, min_size=c, max_size=c))
    labels = data.draw(st.none() | label_lists, "labels")
    boxes = tuple(map(DiscreteBox, rows))
    listing = "".join(
        f"Box({i}) = " + " x ".join("{" + ",".join(map(str, f)) + "}" for f in row) + "\n"
        for i, row in enumerate(rows, 1)
    )
    header = "Ambient = " + " x ".join(map(str, sides)) + "\n"
    checked = _outcome(lambda b: PartitionDocument(Ambient(sides), b), boxes)
    assert _outcome(parse_partition_text, header + listing) == checked
    inferred = tuple(max(2, *(max(r[a]) for r in rows)) for a in range(d))
    assert parse_partition_text(listing) == PartitionDocument(Ambient(inferred), boxes)
    vectors = None if labels is None else tuple(map(PiercingVector, labels))
    js = json.dumps({"ambient": sides, "boxes": rows, "labels": labels, "meta": {}})
    checked = _outcome(lambda b: PartitionDocument(Ambient(sides), b, vectors), boxes)
    assert _outcome(parse_partition_structured, js) == checked


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_trusted_families_equal_checked_ones(data):
    """``product``, ``lift``, a document's family and a document made from a
    family equal the records the public constructors build from the same
    boxes; labels given with a family are still checked."""
    n = data.draw(st.integers(2, 4), "n")
    d1, d2 = data.draw(st.integers(1, 2), "d1"), data.draw(st.integers(1, 2), "d2")
    rows1, rows2 = data.draw(_rows(n, d1), "rows1"), data.draw(_rows(n, d2), "rows2")
    m = data.draw(st.integers(n, n + 2), "m")
    f1 = BoxFamily(Ambient.cube(n, d1), tuple(map(DiscreteBox, rows1)))
    f2 = BoxFamily(Ambient.cube(n, d2), tuple(map(DiscreteBox, rows2)))
    joined = tuple(DiscreteBox(b.factors + c.factors) for b in f1.boxes for c in f2.boxes)
    assert product(f1, f2) == BoxFamily(Ambient.cube(n, d1 + d2), joined)
    tail = tuple(range(n + 1, m + 1))
    grown = tuple(DiscreteBox(f + tail if f[-1] == n else f for f in b.factors) for b in f1.boxes)
    assert lift(f1, m) == BoxFamily(Ambient.cube(m, d1), grown)
    doc = PartitionDocument(f1.ambient, f1.boxes)
    assert doc.family() == f1 and PartitionDocument.from_family(f1) == doc
    count = data.draw(st.sampled_from([len(f1), len(f1) + 1]), "count")
    width = data.draw(st.sampled_from([d1, d1 + 1]), "width")
    labels = (PiercingVector((1,) * width),) * count
    meta = (("k", "v"),)
    checked = _outcome(lambda f: PartitionDocument(f.ambient, f.boxes, labels, meta), f1)
    assert _outcome(lambda f: PartitionDocument.from_family(f, labels, list(meta)), f1) == checked


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_constructed_families_equal_checked_ones(data):
    """The grids, the quadrant recursion and ``realize`` build trusted
    families equal to the checked ones, with equal factors one object
    across the family, and ``realize`` makes ``predicted_size`` boxes."""
    kind = data.draw(st.sampled_from(["trivial", "grid", "quadrant", "realize"]), "kind")
    if kind == "trivial":
        n, d = data.draw(st.sampled_from([3, 5, 7, 9]), "n"), data.draw(st.integers(1, 4), "d")
        fam = trivial_odd_partition(n, d)
    elif kind == "grid":
        d, k = data.draw(st.integers(1, 4), "d"), data.draw(st.integers(2, 4), "k")
        fam = grid_partition(d, k, data.draw(st.integers(k, 9), "n"))
    elif kind == "quadrant":
        d, k = data.draw(st.integers(1, 4), "d"), data.draw(st.integers(2, 5), "k")
        fam = quadrant_construction(d, k)
    else:
        name = data.draw(st.sampled_from(["fig3", "fig4", "fig5", "fig6", "fig8"]), "name")
        k, tail = data.draw(st.integers(3, 5), "k"), data.draw(st.integers(0, 1), "tail")
        ip = intermediate_library(name, k)
        fam = realize(ip, k, tail)
        assert len(fam) == predicted_size(ip, k, tail)
    assert fam == BoxFamily(fam.ambient, tuple(DiscreteBox(b.factors) for b in fam.boxes))
    factors = [f for b in fam.boxes for f in b.factors]
    assert len(set(map(id, factors))) == len(set(factors))


def test_trusted_records_of_checked_parts():
    """The family of an intermediate partition, a search result and the
    CLI's cover instance over an enumerated pool equal the checked records;
    the CLI still refuses a multiplicity below 1."""
    for name in ("fig3", "fig4", "fig5", "fig6", "fig8"):
        ip = intermediate_library(name, 3)
        assert ip.family() == BoxFamily(ip.ambient, tuple(box for box, _ in ip.parts))
    ambient = Ambient((3, 4))
    pool = tuple(enumerate_candidates(ambient, "proper_box"))
    parser = cli._build_parser()
    argv = ["search", "--ambient", "3,4", "--candidates", "proper-box", "--t"]
    instance = cli._make_instance(parser.parse_args(argv + ["2"]))
    assert instance == CoverInstance(ambient, pool, 2, "exact")
    best = solve_cover(instance, SearchBudget(max_nodes=100_000)).best
    assert best == BoxFamily(ambient, best.boxes)
    with pytest.raises(GeometryError, match="^multiplicity must be >= 1$"):
        cli._make_instance(parser.parse_args(argv + ["0"]))


def test_built_and_parsed_families_take_no_whole_family_pass():
    """``product(p25^2, p25)``, the document made from it and its parses as
    a listing (no header: every axis reaches 5) and as JSON take no per-axis
    maximum pass over their 15,625 boxes; each is bounded by its parts or
    its distinct factors."""
    p25 = partition_25()
    p25x2 = product(p25, p25)
    maxima = mock.Mock(wraps=geometry._axis_maxima)
    with mock.patch.object(geometry, "_axis_maxima", maxima), mock.patch(
        "boxkit.formats._axis_maxima", maxima
    ):
        p25x3 = product(p25x2, p25)
        doc = PartitionDocument.from_family(p25x3)
        text, js = write_partition_text(doc), write_partition_structured(doc)
        loaded = parse_partition_text(text), parse_partition_structured(js)
        family = loaded[0].family()
    assert maxima.call_count == 0
    assert not text.startswith("Ambient") and loaded == (doc, doc) and family == p25x3
    assert p25x3.ambient.sides == (5,) * 9 and len(p25x3) == 15_625


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
    """Both parsers, ``product`` and candidate enumeration build their
    family with the collector paused, and leave it as they found it, whether
    they return or raise."""
    p25 = partition_25()
    doc = PartitionDocument.from_family(p25)
    text, js = write_partition_text(doc), write_partition_structured(doc)
    p25_on_7 = lift(p25, 7)
    seen = []
    monkeypatch.setattr(formats, "_parse_factor", _recording(seen, formats._parse_factor))
    monkeypatch.setattr(formats, "_normalize_factor", _recording(seen, formats._normalize_factor))
    monkeypatch.setattr(search, "_normalize_factor", _recording(seen, search._normalize_factor))
    trusted = _recording(seen, geometry._Record._trusted.__func__)
    monkeypatch.setattr(geometry._Record, "_trusted", classmethod(trusted))
    calls = [
        (parse_partition_text, (text,), None),
        (parse_partition_text, ("Box(1) = {1}\nBox 2 = {2}\n",), ParseError),
        (parse_partition_structured, (js,), None),
        (parse_partition_structured, (js[:-9],), ParseError),
        (product, (p25, p25), None),
        (product, (p25, p25_on_7), GeometryError),
        (enumerate_candidates, (Ambient((4, 4)), "proper_box"), None),
        (enumerate_candidates, (Ambient((4, 4)), "no_such_box"), GeometryError),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for fn, args, error in calls:
            if error is None:
                built = len(seen)
                fn(*args)
                assert len(seen) > built, fn.__name__
            else:
                with pytest.raises(error):
                    fn(*args)
            assert gc.isenabled() is enabled, (fn.__name__, error)
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


# ---------------------------------------------------------------------------
# the column readers against a reference that reads one line or one box at a
# time, with the messages, line numbers and checks of the first parsers

_REF_BOX = re.compile(r"^Box\(\s*(\d+)\s*\)\s*=\s*(.*)$")
_REF_FACTOR = re.compile(r"^\{([0-9,\s]*)\}$")
_REF_AMBIENT = re.compile(r"^Ambient\s*=\s*(.*)$")


def _walk_factor(text, lineno):
    m = _REF_FACTOR.match(text.strip())
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
    return cells


def _walk_text(text):
    """The listing read line by line: the first fault in line order raises,
    naming its line (blank lines count); the document gets every check."""
    sides, entries, dim = None, {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _REF_AMBIENT.match(line)
        if m:
            if sides is not None:
                raise ParseError(f"line {lineno}: duplicate Ambient header")
            try:
                sides = tuple(int(s.strip()) for s in m.group(1).split("x"))
            except ValueError:
                raise ParseError(f"line {lineno}: malformed Ambient header")
            continue
        m = _REF_BOX.match(line)
        if not m:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        try:
            box_id = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"line {lineno}: box id too long")
        if box_id in entries:
            raise ParseError(f"line {lineno}: duplicate id {box_id}")
        row = [_walk_factor(part, lineno) for part in m.group(2).split(" x ")]
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise ParseError(f"line {lineno}: inconsistent dimension")
        entries[box_id] = DiscreteBox(row)
    if not entries:
        raise ParseError("no boxes found")
    missing = [k for k in range(1, len(entries) + 1) if k not in entries]
    if missing:
        raise ParseError(f"ids must be contiguous from 1: id {missing[0]} is missing")
    boxes = tuple(entries[k] for k in range(1, len(entries) + 1))
    if sides is None:
        sides = tuple(max(2, *(b.factors[a][-1] for b in boxes)) for a in range(dim))
    return PartitionDocument(Ambient(sides), boxes)


def _walk_json(text):
    """The JSON document with its boxes read one at a time, each distinct
    factor checked once: the first bad box or factor raises; the document
    gets every check."""
    try:
        obj = json.loads(text, parse_float=formats._reject, parse_constant=formats._reject)
    except RecursionError:
        raise ParseError("JSON document nested too deeply")
    except ValueError as exc:
        raise ParseError(f"malformed JSON ({exc})")
    try:
        if "true" in text or "false" in text:
            numbers = itertools.chain(
                obj["ambient"],
                *(itertools.chain(*b) for b in obj["boxes"]),
                *(obj.get("labels") or ()),
            )
            if any(isinstance(c, bool) for c in numbers):
                raise ParseError("boolean where an integer is expected")
        ambient = Ambient(tuple(obj["ambient"]))
        seen, boxes = {}, []
        for b in obj["boxes"]:
            row = []
            for f in b:
                key = tuple(f)
                if key not in seen:
                    seen[key] = geometry._normalize_factor(key)
                row.append(seen[key])
            boxes.append(DiscreteBox(row))
        labels = None
        if obj.get("labels") is not None:
            labels = tuple(PiercingVector(tuple(v)) for v in obj["labels"])
        meta = tuple(sorted(obj.get("meta", {}).items()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed partition document ({type(exc).__name__}: {exc})")
    return PartitionDocument(ambient, tuple(boxes), labels, meta)


def _outcome(parse, text):
    """The document ``parse`` reads from ``text``, or its error's type and message."""
    try:
        return parse(text)
    except (ParseError, GeometryError) as exc:
        return type(exc), str(exc)


_WALKS = {parse_partition_text: _walk_text, parse_partition_structured: _walk_json}


def _assert_columns_read_like_lines(parse, text):
    """``parse`` gives the same document, or the same error, as the walk
    over the same format."""
    assert _outcome(parse, text) == _outcome(_WALKS[parse], text)


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
# a repeated id on the third line, after a blank one, before a bad factor
# and a box of another dimension
@example("Box(1) = {1} x {2}\n\nBox(1) = {2} x {1}\nBox(3) = {1,1} x {2}\nBox(4) = {1}\n")
# a bad factor on a line that also has another dimension
@example("Box(1) = {1} x {2}\nBox(2) = {0}\n")
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
# a short box before a bad factor
@example('{"ambient":[3,3],"boxes":[[[1],[2]],[[1]],[[0],[1]]],"labels":null,"meta":{}}')
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
    text = _mutated(data, write(data.draw(documents())))
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
