"""The boxkit benchmark.

    python3 perfbench/run.py --workload {verify,exact,anneal,cli} --seed N \
        --seconds S --trace {0,1}

Runs from a source checkout: boxkit is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is not there.  The
load is one single-threaded caller in a closed loop.

With ``--trace 0`` the workload repeats rounds (one pass over each of its
input variants) for as many whole rounds as fit in ``--seconds``, at least
three, and reports the end-to-end metrics of BENCHMARK.json: each call's
best time over the rounds, summed over a pass, or per request for the
median and the slowest quarter of requests; set-up time as the median of
five fresh set-ups; and the share of requests whose gates held.  Every
time is scaled by the host speed, measured by a probe timed beside the
workload; see README.md.  With ``--trace 1`` the run is one untraced pass
of the named workload and one traced pass of every workload, plus
in-process counterparts of the cli mix; it reports the per-layer metrics,
derived from the spans, and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracing import Timer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 5
LAYERS = ("formats", "constructions", "geometry", "search", "graphq", "render", "bounds", "cli")
MIN_ROUNDS = 3
# The probe: a fixed piece of pure-Python work timed beside the workload,
# about as long as a typical timed call, so that the neighbours' bursts
# slow its best time as they slow the calls'.  PROBE_NOMINAL is its best
# time on the 2-core Xeon the baseline was recorded on, in a quiet spell.
PROBE_STEPS = 400_000
PROBE_NOMINAL = 0.060
PROBE_REPEATS = 2
TIMES = ("setup_s", "wall_s", "core_s", "p50_s", "tail_s")


def best_of(rounds: list[list], core_call: str) -> tuple[dict, dict]:
    """Per request tag, its best latency and its best time in ``core_call``,
    averaged over the input variants.

    ``rounds[r][v]`` is the Timer of input variant ``v`` in round ``r``.  A
    request's best latency in one variant is the sum, over the calls it
    makes, of each call's least time in any round, so that only repeats of
    the same work are compared.  Other tenants of a shared host only ever
    add time, and a call well under a second often runs between their
    bursts, so the least of many repeats of a short call is the steadiest
    estimate of its cost.  Averaging over the variants (pool orders, on
    exact) keeps one lucky or unlucky search tree from setting the figure.
    """
    best: dict[tuple[int, str, str], float] = {}
    for passes in rounds:
        for v, t in enumerate(passes):
            for r in t.requests:
                for name, took in r.calls.items():
                    key = (v, r.tag, name)
                    best[key] = min(best.get(key, took), took)
    variants = len(rounds[0])
    latency: dict[str, float] = defaultdict(float)
    core: dict[str, float] = defaultdict(float)
    for (_, tag, name), took in best.items():
        latency[tag] += took / variants
        if name == core_call:
            core[tag] += took / variants
    return dict(latency), dict(core)


def tail(latencies) -> float:
    """The mean of the slowest quarter of the requests, at least one: the
    slowest request alone is one noisy best-of figure."""
    slow = sorted(latencies, reverse=True)[: max(1, math.ceil(len(latencies) / 4))]
    return sum(slow) / len(slow)


def probe() -> list[int]:
    counts = [0] * 64
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 63] += 1
    return counts


def probe_best() -> float:
    """The least time of PROBE_REPEATS probes."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - start)
    return best


def timed_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports boxkit, makes the
    workload's inputs and exits."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def untraced_run(w, workload: str, seed: int, seconds: float, work: Path):
    probes = [probe_best()]
    setups = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    inputs = w.INPUTS[workload](seed, work)
    rounds = []
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + longest <= deadline:
        begun = time.perf_counter()
        probes.append(probe_best())
        passes = []
        for inp in inputs:
            t = Timer(record=False)
            w.PASSES[workload](inp, t)
            passes.append(t)
        rounds.append(passes)
        longest = max(longest, time.perf_counter() - begun)

    latency, core = best_of(rounds, w.CORE[workload])
    requests = [r for passes in rounds for t in passes for r in t.requests]
    failed = sum(1 for r in requests if r.failures)
    if workload == "cli":
        rss = max(t.peaks["cli.peak_rss_mb"] for passes in rounds for t in passes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency.values()),
        "core_s": sum(core.values()),
        "p50_s": statistics.median(latency.values()),
        "tail_s": tail(latency.values()),
        "peak_rss_mb": rss,
        "ok_ratio": (len(requests) - failed) / len(requests),
    }
    host = PROBE_NOMINAL / min(probes)
    best = f"best of {len(rounds)} rounds" + (f", mean of {len(inputs)} variants" if len(inputs) > 1 else "")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh set-ups",
        "wall_s": f"{best}, per call, summed over one pass",
        "core_s": f"{best}, per call, summed over one pass",
        "p50_s": f"median of {len(latency)} requests, {best} each",
        "tail_s": f"slowest quarter of {len(latency)} requests, {best} each",
        "ok_ratio": f"fail_ratio {failed / len(requests):.6g} over {len(requests)} requests",
    }
    for name in TIMES:
        notes[name] += f"; {values[name]:.6g} s as timed, x {host:.4f} host speed"
        values[name] *= host
    return values, notes, requests


def traced_run(w, workload: str, seed: int, work: Path):
    inputs = {}
    for name in w.WORKLOADS:
        (work / name).mkdir()
        inputs[name] = w.INPUTS[name](seed, work / name)[0]

    untraced = Timer(record=False)
    start = time.perf_counter()
    w.PASSES[workload](inputs[workload], untraced)
    untraced_wall = time.perf_counter() - start

    t = Timer(record=True)
    traced_wall = {}
    for name in w.WORKLOADS:
        start = time.perf_counter()
        w.PASSES[name](inputs[name], t)
        traced_wall[name] = time.perf_counter() - start
    w.cli_layers(inputs["cli"], t)

    values = layer_metrics(w, t)
    values["trace.overhead_s"] = traced_wall[workload] - untraced_wall
    (WORK / f"spans-{workload}.jsonl").write_text(
        "".join(json.dumps(vars(s)) + "\n" for s in t.spans), encoding="utf-8"
    )
    notes = {"trace.overhead_s": f"traced {workload} pass minus untraced pass"}
    return values, notes, untraced.requests + t.requests


def layer_metrics(w, t) -> dict[str, float]:
    spans, counts = t.spans, t.counts

    def took(name: str, tag: str | None = None) -> float:
        return sum(s.end - s.start for s in spans if s.name == name and tag in (None, s.tag))

    def median_took(name: str) -> float:
        return statistics.median(s.end - s.start for s in spans if s.name == name)

    v: dict[str, float] = {}
    for f in w.VERIFIED:
        v[f"geometry.verify_cover_s.{f}"] = took("geometry.verify_cover", f)
        v[f"geometry.piercing_number_s.{f}"] = took("geometry.piercing_number", f)
    v["geometry.weighted_piercing_ok_s"] = took("geometry.weighted_piercing_ok")
    for f in w.FAMILIES:
        for count in ("boxes", "box_cells", "ambient_cells"):
            v[f"geometry.{count}.{f}"] = counts[f"geometry.{count}.{f}"]
        for op in ("write_text", "parse_text", "write_json", "parse_json"):
            v[f"formats.{op}_s.{f}"] = took(f"formats.{op}", f)
    for f in w.VERIFIED:
        v[f"geometry.ns_per_box_cell.{f}"] = 1e9 * v[f"geometry.verify_cover_s.{f}"] / counts[f"geometry.box_cells.{f}"]
    v["formats.text_bytes"] = counts["formats.text_bytes"]
    v["formats.json_bytes"] = counts["formats.json_bytes"]
    for op in ("realize", "intermediate_library", "product", "quadrant_construction"):
        v[f"constructions.{op}_s"] = took(f"constructions.{op}")

    v["search.enumerate_s"] = took("search.enumerate_candidates")
    v["search.candidates"] = counts["search.candidates"]
    for name in w.EXACT:
        v[f"search.solve_s.{name}"] = took("search.solve_cover", name)
        v[f"search.nodes.{name}"] = counts[f"search.nodes.{name}"]
    nodes = sum(counts[f"search.nodes.{name}"] for name in w.EXACT)
    v["search.nodes_per_s"] = nodes / took("search.solve_cover")
    v["search.proven"] = counts["search.proven"] / len(w.EXACT)
    v["search.anneal_s"] = took("search.anneal_cover")
    v["search.steps"] = counts["search.steps"]
    v["search.steps_per_s"] = counts["search.steps"] / v["search.anneal_s"]
    v["search.best_size"] = counts["search.best_size"]
    v["search.export_s"] = took("search.export_model")
    v["search.export_bytes"] = counts["search.export_bytes"]

    v["graphq.partition_to_graph_s"] = took("graphq.partition_to_graph")
    v["graphq.clique_property_check_s"] = took("graphq.clique_property_check")
    v["render.ascii_s"] = took("render.ascii")
    v["render.svg_s"] = took("render.svg")
    v["bounds.table_s"] = took("bounds.table")
    v["bounds.growth_root_s"] = took("bounds.growth_root")

    v["cli.python_start_s"] = median_took("cli.python_start")
    v["cli.import_s"] = median_took("cli.import") - v["cli.python_start_s"]
    for name in w.CLI_COMMANDS:
        v[f"cli.main_s.{name}"] = took("cli.main", name)

    own = self_times(spans)
    for layer in LAYERS:
        v[f"{layer}.self_s"] = own[layer]
    return v


def result_line(values: dict, spec: list[dict], requests) -> dict:
    """The result object; refuses metrics that differ from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    failed = sum(1 for r in requests if r.failures)
    return {
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "exact", "anneal", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "boxkit" / "__init__.py").is_file():
        print(f"perfbench: no boxkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads as w

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_only:
            w.INPUTS[args.workload](args.seed, work)
            return 0
        if args.trace:
            values, notes, requests = traced_run(w, args.workload, args.seed, work)
            result = result_line(values, spec["per_layer"], requests)
        else:
            values, notes, requests = untraced_run(w, args.workload, args.seed, args.seconds, work)
            result = result_line(values, spec["end_to_end"], requests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in [f for r in requests for f in r.failures][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
