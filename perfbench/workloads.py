"""The four workloads: inputs made from the seed, one pass each, and gates.

Each ``*_inputs(seed, work)`` function is the set-up of its workload.  Each
``*_pass(inputs, timer)`` function runs the workload once as a closed loop
with one caller: the next request starts only when the previous one ended.
Every call into boxkit goes through ``timer.call``; the correctness gates
run between those calls, outside the timed spans, and a failed gate fails
its request.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from boxkit import (
    Ambient,
    BoxFamily,
    CoverInstance,
    DiscreteBox,
    PartitionDocument,
    SearchBudget,
    anneal_cover,
    clique_property_check,
    enumerate_candidates,
    export_model,
    fig9_graph,
    growth_root,
    intermediate_library,
    kp_trivial_bounds,
    lower_odd_basic,
    lower_odd_proper,
    parse_partition_structured,
    parse_partition_text,
    partition_25,
    partition_to_graph,
    piercing_number,
    predicted_size,
    product,
    quadrant_construction,
    realize,
    render,
    solve_cover,
    verify_cover,
    weighted_piercing_ok,
    write_partition_structured,
    write_partition_text,
)
from boxkit.cli import main as cli_main

from tracing import Timer

WORKLOADS = ("verify", "exact", "anneal", "cli")
SRC = Path(__file__).resolve().parent.parent / "src"

# Every timed call is kept well under a second, so that a run repeats it
# many times and its best time misses the neighbours' load; see run.py.

# verify: every family is saved and loaded; p25x3 is not verified, because
# verify_cover takes minutes on its 15,625 boxes over [5]^9.  fig6k4 (122
# bricks on [32]^4) keeps fig6k5's regime of few boxes over a big volume at
# a fifth of its 4 s verify_cover.
FAMILIES = ("fig6k4", "p25x2", "quad4k4", "p25x3")
VERIFIED = ("fig6k4", "p25x2", "quad4k4")

# exact: name -> (ambient sides, candidate predicate, multiplicity t, optimum).
# t=1 and t>1, boxes and bricks, 2-D and 3-D; each proof takes 1k-10k nodes
# and at most about 0.3 s.
EXACT = {
    "opb5x5": ((5, 5), "odd_proper_brick", 1, 9),
    "opb3x9": ((3, 9), "odd_proper_brick", 1, 9),
    "pbr2x3x4": ((2, 3, 4), "proper_brick", 1, 8),
    "pbr3x5t2": ((3, 5), "proper_brick", 2, 8),
    "pbx3x3t3": ((3, 3), "proper_box", 3, 9),
}
EXACT_BUDGET = SearchBudget(max_nodes=10_000_000, wall_seconds=60.0)

# anneal: the 2-fold exact cover of [3]^3 by proper boxes, in the CLI's pool
# order.  The step budget binds long before the wall clock.  A pass runs
# anneal seeds 0-3 for 100,000 steps each (about 0.3 s), and each must reach
# a cover no larger than it reached at the baseline.  Other pool orders and
# seeds end at other sizes, and in a survey at 1,000,000 steps about 1 run
# in 50 found no cover at all, so the benchmark seed does not move this
# workload.
ANNEAL_SIZES = {0: 20, 1: 18, 2: 15, 3: 18}  # anneal seed -> largest size that passes
ANNEAL_SIDES = (3, 3, 3)
ANNEAL_T = 2
ANNEAL_STEPS = 100_000
ANNEAL_WALL = 60.0

# cli: name -> (arguments, a line stdout must hold).  {p25}, {q25} and
# {found} are files in the run's work directory; None means the expected
# line is computed from the library at set-up.
CLI_COMMANDS = {
    "construct_p25": (["construct", "p25"], None),
    "verify_p25": (["verify", "{p25}", "--piercing", "3"], "piercing: 3 per-axis [3, 3, 3]"),
    "construct_quadrant": (["construct", "quadrant", "--d", "4", "--k", "4"], None),
    "render_svg": (["render", "{q25}", "--format", "svg"], "</svg>"),
    "render_ascii": (["render", "{p25}"], "layer z=5"),
    "search_bb": (
        ["search", "--ambient", "5,5", "--candidates", "odd-proper-brick", "--out", "{found}"],
        "best size 9 (optimal proven: True; nodes 1711)",
    ),
    "bounds_table": (
        ["bounds", "--d-max", "3", "--k-max", "4", "--csv"],
        "d,k,n,odd_basic,odd_proper,brick_lo,brick_hi,box_lo,box_hi",
    ),
    "bounds_root": (["bounds", "--root", "0,13,9"], "3.911627843"),
    "graph_fig9": (["graph", "--fig9", "8", "--check"], "clique property holds for k=8"),
    "graph_partition": (
        ["graph", "--from-partition", "{q25}", "--k", "5"],
        "clique property holds for k=5",
    ),
    "export_cnf": (
        ["export", "--ambient", "4,4", "--candidates", "proper-box", "--format", "cnf"],
        "p cnf 196 18832",
    ),
    "export_lp": (
        ["export", "--ambient", "7,7", "--candidates", "proper-box", "--format", "lp"],
        "End",
    ),
}
CLI_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass(frozen=True)
class Symmetry:
    """A symmetry of the ambient plus a shuffle of the box order.

    New axis i takes old axis ``perm[i]``; axes are only permuted among
    equal sides, so the ambient is unchanged.  A flipped axis maps x to
    n + 1 - x, which keeps bricks bricks.
    """

    perm: tuple[int, ...]
    flip: tuple[bool, ...]
    order_seed: int

    @staticmethod
    def make(seed: int, key: str, sides: tuple[int, ...]) -> "Symmetry | None":
        """Seed 0 is the identity and keeps the library's box order."""
        if seed == 0:
            return None
        rng = random.Random(f"{seed}:{key}")
        perm = list(range(len(sides)))
        for n in set(sides):
            axes = [i for i, s in enumerate(sides) if s == n]
            moved = axes[:]
            rng.shuffle(moved)
            for a, b in zip(axes, moved):
                perm[a] = b
        flip = tuple(rng.random() < 0.5 for _ in sides)
        return Symmetry(tuple(perm), flip, rng.randrange(2**32))

    def apply(self, boxes, sides: tuple[int, ...]) -> list[DiscreteBox]:
        out = [
            DiscreteBox(
                tuple(
                    tuple(sides[i] + 1 - c for c in box.factors[p]) if f else box.factors[p]
                    for i, (p, f) in enumerate(zip(self.perm, self.flip))
                )
            )
            for box in boxes
        ]
        random.Random(self.order_seed).shuffle(out)
        return out


def transform(sym: Symmetry | None, boxes, sides) -> list[DiscreteBox]:
    return list(boxes) if sym is None else sym.apply(boxes, sides)


# Set-up returns a list of input variants; each round of a run makes one pass
# over every variant, and a request's time is its best over the rounds.
# exact solves four pool orders per instance, so that one order's lucky or
# unlucky tree moves a run's figures less.
EXACT_VARIANTS = 4


def verify_inputs(seed: int, work: Path) -> list[dict[str, Symmetry | None]]:
    sides = {"fig6k4": (32,) * 4, "p25x2": (5,) * 6, "quad4k4": (8,) * 4, "p25x3": (5,) * 9}
    return [{f: Symmetry.make(seed, f"verify:{f}", sides[f]) for f in FAMILIES}]


def exact_inputs(seed: int, work: Path) -> list[dict[str, tuple]]:
    """Per variant, instance name -> (spec, symmetry).  The spec carries the
    claimed optimum, which the gate holds the proof to."""
    return [
        {name: (spec, Symmetry.make(seed, f"exact:{name}:{i}", spec[0])) for name, spec in EXACT.items()}
        for i in range(EXACT_VARIANTS)
    ]


def anneal_inputs(seed: int, work: Path) -> list[dict[int, int]]:
    """The same anneal seeds for every benchmark seed; see ANNEAL_SIZES."""
    return [ANNEAL_SIZES]


@dataclass(frozen=True)
class CliInputs:
    commands: dict[str, tuple[list[str], str]]  # name -> (argv, expected line)
    docs: dict[str, PartitionDocument]  # the partitions behind the input files
    env: dict[str, str]
    work: Path


def cli_inputs(seed: int, work: Path) -> list[CliInputs]:
    """Writes the p25 and quadrant (d=2, k=5) input files, moved by a seeded
    symmetry, and the expected output line of every command."""
    docs = {}
    for key, fam in (("p25", partition_25()), ("q25", quadrant_construction(2, 5))):
        sides = fam.ambient.sides
        sym = Symmetry.make(seed, f"cli:{key}", sides)
        docs[key] = PartitionDocument(fam.ambient, tuple(transform(sym, fam.boxes, sides)))
        (work / f"{key}.txt").write_text(write_partition_text(docs[key]), encoding="utf-8")
    files = {key: str(work / f"{key}.txt") for key in docs} | {"found": str(work / "found.txt")}
    last_line = {
        "construct_p25": _last_line(partition_25()),
        "construct_quadrant": _last_line(quadrant_construction(4, 4)),
    }
    commands = {
        name: ([a.format(**files) for a in args], expect or last_line[name])
        for name, (args, expect) in CLI_COMMANDS.items()
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [CliInputs(commands, docs, env, work)]


def _last_line(family: BoxFamily) -> str:
    return write_partition_text(PartitionDocument.from_family(family)).splitlines()[-1]


INPUTS = {"verify": verify_inputs, "exact": exact_inputs, "anneal": anneal_inputs, "cli": cli_inputs}

# ---------------------------------------------------------------------------
# gates


def oracle_violation(family: BoxFamily, t: int) -> tuple[int, ...] | None:
    """First point not covered exactly t times, by naive point membership."""
    for pt in itertools.product(*(range(1, n + 1) for n in family.ambient.sides)):
        if sum(box.contains(pt) for box in family.boxes) != t:
            return pt
    return None


def gate_family(req, name: str, family: BoxFamily, report, pierce, expected_size: int | None) -> None:
    req.check(report.is_partition, "not a partition")
    req.check(pierce[0] == report.piercing_number, "piercing_number disagrees with verify_cover")
    if name == "fig6k4":
        req.check(len(family) == expected_size == 122, f"{len(family)} boxes, predicted {expected_size}")
        req.check(report.piercing_number >= 4, f"piercing {report.piercing_number} < 4")
    elif name == "p25x2":
        req.check(report.all_odd and report.all_proper, "not odd and proper")
        req.check(report.piercing_number == 3, f"piercing {report.piercing_number} != 3")
    elif name == "quad4k4":
        req.check(report.piercing_number >= 4, f"piercing {report.piercing_number} < 4")


def gate_round_trip(req, doc: PartitionDocument, text: str, from_text, from_json) -> None:
    req.check(from_text.boxes == doc.boxes and from_text.ambient == doc.ambient, "text loads back different")
    req.check(write_partition_text(from_text) == text, "text round-trip is not byte-identical")
    req.check(from_json == doc, "JSON loads back different")


def gate_search(req, result, instance: CoverInstance, max_size: int) -> None:
    """The result exists, is at most ``max_size`` boxes, is drawn from the
    pool without repeats, and covers every point exactly t times."""
    if result.best is None:
        req.check(False, "no cover found")
        return
    boxes = result.best.boxes
    req.check(len(boxes) == result.best_size <= max_size, f"size {result.best_size} > {max_size}")
    req.check(len(set(boxes)) == len(boxes), "a candidate is used twice")
    req.check(set(boxes) <= set(instance.candidates), "a box outside the candidate pool")
    bad = oracle_violation(result.best, instance.multiplicity)
    req.check(bad is None, f"oracle: point {bad} not covered {instance.multiplicity} times")


# ---------------------------------------------------------------------------
# passes


def _save_load(req, t: Timer, name: str, family: BoxFamily, sym, verify: bool, expected_size=None) -> None:
    """Save one family as text and JSON, load both back, and verify the
    family loaded from text."""
    sides = family.ambient.sides
    doc = PartitionDocument(family.ambient, tuple(transform(sym, family.boxes, sides)))
    text = t.call("formats.write_text", name, write_partition_text, doc)
    js = t.call("formats.write_json", name, write_partition_structured, doc)
    from_text = t.call("formats.parse_text", name, parse_partition_text, text)
    from_json = t.call("formats.parse_json", name, parse_partition_structured, js)
    t.count("formats.text_bytes", len(text.encode()))
    t.count("formats.json_bytes", len(js.encode()))
    t.count(f"geometry.boxes.{name}", len(doc.boxes))
    t.count(f"geometry.box_cells.{name}", sum(b.cardinality for b in doc.boxes))
    t.count(f"geometry.ambient_cells.{name}", doc.ambient.volume)
    gate_round_trip(req, doc, text, from_text, from_json)
    if verify:
        loaded = from_text.family()
        report = t.call("geometry.verify_cover", name, verify_cover, loaded)
        pierce = t.call("geometry.piercing_number", name, piercing_number, loaded)
        gate_family(req, name, loaded, report, pierce, expected_size)


def verify_pass(syms: dict, t: Timer) -> None:
    with t.request("fig6k4") as req:
        ip = t.call("constructions.intermediate_library", "fig6k4", intermediate_library, "fig6", 4)
        labels_ok = t.call("geometry.weighted_piercing_ok", "fig6k4", weighted_piercing_ok, ip, 4)
        fig6k4 = t.call("constructions.realize", "fig6k4", realize, ip, 4)
        req.check(labels_ok, "labels miss the piercing target 4")
        _save_load(req, t, "fig6k4", fig6k4, syms["fig6k4"], True, predicted_size(ip, 4))
    with t.request("p25x2") as req:
        p25 = t.call("constructions.partition_25", "p25x2", partition_25)
        p25x2 = t.call("constructions.product", "p25x2", product, p25, p25)
        _save_load(req, t, "p25x2", p25x2, syms["p25x2"], True)
    with t.request("quad4k4") as req:
        quad = t.call("constructions.quadrant_construction", "quad4k4", quadrant_construction, 4, 4)
        _save_load(req, t, "quad4k4", quad, syms["quad4k4"], True)
    with t.request("p25x3") as req:
        p25x3 = t.call("constructions.product", "p25x3", product, p25x2, p25)
        _save_load(req, t, "p25x3", p25x3, syms["p25x3"], False)


def exact_pass(instances: dict, t: Timer) -> None:
    for name, ((sides, predicate, mult, optimum), sym) in instances.items():
        with t.request(name) as req:
            ambient = Ambient(sides)
            pool = t.call("search.enumerate_candidates", name, enumerate_candidates, ambient, predicate)
            instance = CoverInstance(ambient, tuple(transform(sym, pool, sides)), mult, "exact")
            result = t.call("search.solve_cover", name, solve_cover, instance, EXACT_BUDGET)
            t.count("search.candidates", len(pool))
            t.count(f"search.nodes.{name}", result.nodes)
            t.count("search.proven", int(result.proven_optimal))
            req.check(result.proven_optimal, "not proven optimal")
            req.check(result.best_size == optimum, f"proved {result.best_size}, claimed {optimum}")
            gate_search(req, result, instance, optimum)


def anneal_pass(sizes: dict[int, int], t: Timer) -> None:
    for seed, max_size in sizes.items():
        name = f"anneal{seed}"
        with t.request(name) as req:
            ambient = Ambient(ANNEAL_SIDES)
            pool = t.call("search.enumerate_candidates", name, enumerate_candidates, ambient, "proper_box")
            instance = CoverInstance(ambient, tuple(pool), ANNEAL_T, "exact")
            budget = SearchBudget(max_nodes=ANNEAL_STEPS, wall_seconds=ANNEAL_WALL, seed=seed)
            result = t.call("search.anneal_cover", name, anneal_cover, instance, budget)
            t.count("search.candidates", len(pool))
            t.count("search.steps", result.nodes)
            t.count("search.best_size", result.best_size)
            req.check(result.nodes == ANNEAL_STEPS, f"stopped on the wall clock after {result.nodes} steps")
            gate_search(req, result, instance, max_size)


def run_child(argv: list[str], env: dict, out_path: Path) -> tuple[int, float]:
    """Run one process to completion, stdout to ``out_path``; return its
    exit code and its peak resident set in MB."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(
            argv, env=env, cwd=out_path.parent, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        killer = threading.Timer(CLI_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def cli_pass(inp: CliInputs, t: Timer) -> None:
    found = inp.work / "found.txt"
    for name, (argv, expect) in inp.commands.items():
        with t.request(name) as req:
            found.unlink(missing_ok=True)
            out_path = inp.work / f"{name}.out"
            command = [sys.executable, "-m", "boxkit.cli", *argv]
            code, rss = t.call("cli.run", name, run_child, command, inp.env, out_path)
            t.peak("cli.peak_rss_mb", rss)
            req.check(code == 0, f"exit code {code}")
            stdout = out_path.read_text(encoding="utf-8").splitlines()
            req.check(expect in stdout, f"stdout lacks {expect!r}")
            if name == "search_bb":
                _check_found(req, found)


def _check_found(req, path: Path) -> None:
    family = parse_partition_text(path.read_text(encoding="utf-8")).family()
    req.check(len(family) == 9, f"search wrote {len(family)} boxes")
    bad = oracle_violation(family, 1)
    req.check(bad is None, f"oracle: point {bad} not covered once")


def _main_in_process(argv: list[str]) -> tuple[int, list[str]]:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = cli_main(argv)
    return code, out.getvalue().splitlines()


def bounds_table(d_max: int, k_max: int) -> list[tuple]:
    """The bound values behind ``boxkit bounds --d-max D --k-max K``."""
    return [
        (lower_odd_basic(d), lower_odd_proper(n, d), kp_trivial_bounds(d, k, "brick"), kp_trivial_bounds(d, k, "box"))
        for d in range(1, d_max + 1)
        for k in range(2, k_max + 1)
        for n in (3, 5, 7)
    ]


def cli_layers(inp: CliInputs, t: Timer) -> None:
    """In-process counterparts of the cli mix, run only when tracing: the
    interpreter and import start-up, ``main(argv)`` per command after
    import, and direct calls into the layers only the cli mix reaches."""
    probe = inp.work / "probe.out"
    with t.request("python_start") as req:
        for _ in range(3):
            code, _ = t.call("cli.python_start", "bare", run_child, [sys.executable, "-c", "pass"], inp.env, probe)
            req.check(code == 0, f"exit code {code}")
    with t.request("import") as req:
        for _ in range(3):
            argv = [sys.executable, "-c", "import boxkit"]
            code, _ = t.call("cli.import", "boxkit", run_child, argv, inp.env, probe)
            req.check(code == 0, f"exit code {code}")
    for name, (argv, expect) in inp.commands.items():
        with t.request(f"main.{name}") as req:
            code, stdout = t.call("cli.main", name, _main_in_process, argv)
            req.check(code == 0 and expect in stdout, f"exit code {code}, or stdout lacks {expect!r}")
    with t.request("graphq") as req:
        graph = t.call("graphq.partition_to_graph", "q25", partition_to_graph, inp.docs["q25"].family())
        report = t.call("graphq.clique_property_check", "q25", clique_property_check, graph, 5)
        fig9 = t.call("graphq.fig9_graph", "fig9", fig9_graph, 8)
        report9 = t.call("graphq.clique_property_check", "fig9", clique_property_check, fig9, 8)
        req.check(report.holds and report9.holds, "clique property fails")
    with t.request("render") as req:
        ascii_text = t.call("render.ascii", "p25", render, inp.docs["p25"], "ascii")
        svg = t.call("render.svg", "q25", render, inp.docs["q25"], "svg")
        req.check("layer z=5" in ascii_text.splitlines(), "ascii lacks layer z=5")
        req.check(svg.count("<rect") == 16 and svg.endswith("</svg>\n"), "svg is not 16 rectangles")
    with t.request("bounds") as req:
        rows = t.call("bounds.table", "table", bounds_table, 3, 4)
        root = t.call("bounds.growth_root", "0,13,9", growth_root, [0, 13, 9])
        req.check(len(rows) == 27 and f"{root:.9f}" == "3.911627843", f"{len(rows)} rows, root {root}")
    with t.request("export") as req:
        for name, sides, fmt, first in (
            ("export_cnf", (4, 4), "cnf", "p cnf 196 18832"),
            ("export_lp", (7, 7), "lp", "Minimize"),
        ):
            ambient = Ambient(sides)
            pool = t.call("search.enumerate_candidates", name, enumerate_candidates, ambient, "proper_box")
            text = t.call("search.export_model", name, export_model, CoverInstance(ambient, tuple(pool)), fmt)
            t.count("search.candidates", len(pool))
            t.count("search.export_bytes", len(text.encode()))
            req.check(text.split("\n", 1)[0] == first, f"{name} does not start with {first!r}")


PASSES = {"verify": verify_pass, "exact": exact_pass, "anneal": anneal_pass, "cli": cli_pass}
# The calls each workload exists to time; their summed time is core_s.
CORE = {
    "verify": "geometry.verify_cover",
    "exact": "search.solve_cover",
    "anneal": "search.anneal_cover",
    "cli": "cli.run",
}
