"""Start-up: commands and calls that build or read no array never import
numpy; the incidence kernel imports it on first use.

Each check runs in a fresh interpreter, since the test modules import numpy
themselves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import boxkit

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
from boxkit.constructions import partition_25, product, quadrant_construction
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
report = step("verify_cover", verify_cover, q44)
print(json.dumps({"steps": steps, "codes": codes, "partition": report.is_partition}))
"""


def test_numpy_loads_only_with_the_incidence_kernel(tmp_path):
    src = str(Path(boxkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "q25.txt")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["partition"]
    steps = out["steps"]
    assert steps.pop("verify_cover") is True
    assert steps == dict.fromkeys(steps, False)
