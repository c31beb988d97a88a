"""Start-up: ``import boxkit`` loads no submodule, each command loads only
the modules it uses and neither ``dataclasses`` nor ``inspect``, and no
command or call imports numpy, whatever the size of the tensors it sums.

Each check runs in a fresh interpreter, since the test modules import numpy
themselves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxkit
from boxkit.constructions import partition_25, quadrant_construction
from boxkit.formats import PartitionDocument, write_partition_text


def _fresh(code: str, *args: str) -> dict:
    """The JSON that ``code`` prints, run in a fresh interpreter that imports
    boxkit from the sources under test."""
    src = str(Path(boxkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout

steps = {}

def step(name, fn, *args):
    with redirect_stdout(io.StringIO()):
        result = fn(*args)
    steps[name] = "numpy" in sys.modules
    return result

import boxkit, boxkit.cli
steps["import"] = "numpy" in sys.modules
from boxkit.cli import main
from boxkit.constructions import (
    intermediate_library,
    partition_25,
    product,
    quadrant_construction,
    realize,
)
from boxkit.formats import (
    PartitionDocument,
    parse_partition_structured,
    parse_partition_text,
    write_partition_structured,
    write_partition_text,
)
from boxkit.geometry import verify_cover

p25 = step("partition_25", partition_25)
q44 = step("quadrant_construction", quadrant_construction, 4, 4)
step("product", product, p25, p25)
q25 = quadrant_construction(2, 5)
doc = PartitionDocument.from_family(q25)
text = step("write_text", write_partition_text, doc)
step("parse_text", parse_partition_text, text)
step("parse_json", parse_partition_structured, step("write_json", write_partition_structured, doc))
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(text)
codes = [
    step("bounds_table", main, ["bounds", "--d-max", "3", "--k-max", "4", "--csv"]),
    step("bounds_root", main, ["bounds", "--root", "0,13,9"]),
    step("graph_fig9", main, ["graph", "--fig9", "8", "--check"]),
    step("render_svg", main, ["render", sys.argv[1], "--format", "svg"]),
]
step("verify_cover_p25", verify_cover, p25)
q44_report = step("verify_cover_q44", verify_cover, q44)
fig6k4 = step("realize", realize, step("intermediate_library", intermediate_library, "fig6", 4), 4)
report = step("verify_cover", verify_cover, fig6k4)
partitions = [q44_report.is_partition, report.is_partition]
print(json.dumps({"steps": steps, "codes": codes, "partitions": partitions}))
"""


def test_numpy_loads_only_with_the_incidence_kernel(tmp_path):
    """No step loads numpy, since no incidence kernel is left that would:
    not the 125 quotient cells of p25, not the 4,096 of the quadrant
    partition of [16]^4, and not the 20,160 of the realized fig6 partition
    of [32]^4."""
    out = _fresh(SCRIPT, str(tmp_path / "q25.txt"))
    assert out["codes"] == [0, 0, 0, 0]
    assert out["partitions"] == [True, True]
    steps = out["steps"]
    assert steps == dict.fromkeys(steps, False)


def test_parity_count_loads_no_numpy():
    """``parity_count`` counts on Python-int masks: numpy stays unloaded."""
    code = (
        "import json, sys\n"
        "from boxkit.bounds import parity_count\n"
        "t = parity_count(20, [1, 2])\n"
        "print(json.dumps([t.total_selectors, t.odd_hits, 'numpy' in sys.modules]))"
    )
    assert _fresh(code) == [2**19, 2**18, False]


LOADED = """
import io, json, sys
from contextlib import redirect_stdout
from boxkit.cli import main
with redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
heavy = ("numpy", "dataclasses", "inspect")
loaded = [m for m in sys.modules if m in heavy or m.startswith("boxkit.")]
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["bounds", "--root", "0,13,9"], ["bounds"]),
        (["bounds", "--d-max", "3", "--k-max", "4", "--csv"], ["bounds"]),
        (["graph", "--fig9", "8", "--check"], ["bounds", "graphq"]),
        (["render", "{p25}"], ["formats", "render"]),
        (["render", "{p25}", "--format", "ascii"], ["formats", "render"]),
        (["export", "--ambient", "4,4", "--candidates", "proper-box", "--format", "cnf"], ["search"]),
        (["export", "--ambient", "4,4", "--candidates", "proper-box", "--format", "lp"], ["search"]),
        (["construct", "p25"], ["constructions", "formats"]),
        (["construct", "realize", "--fig", "fig4", "--k", "3"], ["constructions", "formats"]),
        (["construct", "quadrant", "--d", "4", "--k", "4"], ["constructions", "formats"]),
        (["verify", "{p25}", "--piercing", "3"], ["formats"]),
        (["search", "--ambient", "5,5", "--candidates", "odd-proper-brick"], ["search"]),
        (["graph", "--from-partition", "{q25}", "--k", "5"], ["bounds", "formats", "graphq"]),
    ],
    ids=[
        "bounds-root", "bounds-table", "graph-fig9", "render", "render-ascii", "export-cnf",
        "export-lp", "construct-p25", "construct-realize", "construct-quadrant", "verify-p25",
        "search-bb",
        "graph-partition",
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    """The exact boxkit modules a command loads besides the CLI and
    geometry; no numpy, which no module imports; and no ``dataclasses`` or
    ``inspect``, which cost every command a few milliseconds to import."""
    files = {}
    for name, fam in [("p25", partition_25()), ("q25", quadrant_construction(2, 5))]:
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(write_partition_text(PartitionDocument.from_family(fam)))
    out = _fresh(LOADED, json.dumps([a.format(**files) for a in argv]))
    assert out["code"] == 0
    assert out["loaded"] == sorted(f"boxkit.{m}" for m in ["cli", "geometry", *modules])


JSONLESS = """
import io, sys
from contextlib import redirect_stdout
from boxkit.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print('{"code": %d, "json": %s}' % (code, str("json" in sys.modules).lower()))
"""


@pytest.mark.parametrize(
    "argv, json_loaded",
    [
        (["construct", "p25"], False),
        (["construct", "quadrant", "--d", "4", "--k", "4"], False),
        (["verify", "{p25}", "--piercing", "3"], False),
        (["render", "{p25}"], False),
        (["graph", "--from-partition", "{q25}", "--k", "5"], False),
        (["search", "--ambient", "5,5", "--candidates", "odd-proper-brick", "--out", "{found}"], False),
        (["export", "--ambient", "4,4", "--candidates", "proper-box", "--format", "lp"], False),
        (["construct", "p25", "--format", "json"], True),
    ],
    ids=["construct-p25", "construct-quadrant", "verify-p25", "render", "graph-partition",
         "search-out", "export-lp", "construct-json"],
)
def test_only_json_documents_import_json(tmp_path, argv, json_loaded):
    """``formats`` imports ``json`` inside its JSON reader and writer, so a
    command that reads and writes only text never loads it."""
    files = {"found": tmp_path / "found.txt"}
    for name, fam in [("p25", partition_25()), ("q25", quadrant_construction(2, 5))]:
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(write_partition_text(PartitionDocument.from_family(fam)))
    out = _fresh(JSONLESS, *[a.format(**files) for a in argv])
    assert out == {"code": 0, "json": json_loaded}


def test_import_loads_no_submodule():
    code = "import json, sys, boxkit; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('boxkit.', 'numpy')))))"
    assert _fresh(code) == []


def test_every_public_name_resolves():
    """Each name of ``__all__`` is its submodule's object of that name, and
    the names are exactly those the submodules export."""
    exported = set()
    for module in set(boxkit._SUBMODULE.values()):
        exported |= set(importlib.import_module(f"boxkit.{module}").__all__)
    assert set(boxkit.__all__) == exported
    for name in boxkit.__all__:
        module = importlib.import_module(f"boxkit.{boxkit._SUBMODULE[name]}")
        assert getattr(boxkit, name) is getattr(module, name)
    # the submodule of the same name, imported above, does not take the name
    assert callable(boxkit.render)
    with pytest.raises(AttributeError):
        boxkit.no_such_name


def test_names_resolve_in_a_fresh_interpreter():
    """Every name resolves on first use, and ``boxkit.render`` is the function
    even when the submodule ``boxkit.render`` was imported first."""
    code = (
        "import json, boxkit.render\n"
        "ok = [n for n in boxkit.__all__ if getattr(boxkit, n) is not None]\n"
        "print(json.dumps([len(ok), callable(boxkit.render)]))"
    )
    assert _fresh(code) == [len(boxkit.__all__), True]
