"""Self-test of the benchmark: python3 -m pytest perfbench

Planted faults must count as failed requests, the printed metric names
must match BENCHMARK.json, and a directory without the boxkit sources must
make the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as w  # noqa: E402
from boxkit import BoxFamily, intermediate_library, piercing_number, realize, verify_cover  # noqa: E402
from tracing import Span, Timer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_family_missing_a_box_fails():
    ip = intermediate_library("fig6", 4)
    full = realize(ip, 4)
    t = Timer(record=False)
    for family in (full, BoxFamily(full.ambient, full.boxes[1:])):
        with t.request("fig6k4") as req:
            w.gate_family(req, "fig6k4", family, verify_cover(family), piercing_number(family), 122)
    assert [bool(r.failures) for r in t.requests] == [False, True]


def test_wrong_claimed_optimum_fails():
    t = Timer(record=False)
    for optimum in (9, 8):
        w.exact_pass({"opb5x5": (((5, 5), "odd_proper_brick", 1, optimum), None)}, t)
    assert [bool(r.failures) for r in t.requests] == [False, True]
    assert "claimed 8" in t.requests[1].failures[0]


def test_exception_in_a_request_fails_it():
    t = Timer(record=False)
    with t.request("broken"):
        t.call("geometry.verify_cover", "broken", verify_cover, None)
    with t.request("next"):
        pass
    assert [bool(r.failures) for r in t.requests] == [True, False]


def test_oracle_finds_uncovered_point():
    family = realize(intermediate_library("fig3", 3), 3)
    assert w.oracle_violation(family, 1) is None
    assert w.oracle_violation(BoxFamily(family.ambient, family.boxes[:-1]), 1) is not None


def test_self_time_subtracts_children():
    spans = [
        Span("request", "a", 0.0, 10.0, None),
        Span("geometry.verify_cover", "a", 1.0, 4.0, 0),
        Span("formats.parse_text", "a", 5.0, 6.0, 0),
    ]
    own = self_times(spans)
    assert own["request"] == pytest.approx(6.0)
    assert own["geometry"] == pytest.approx(3.0)
    assert own["formats"] == pytest.approx(1.0)


def test_best_of_takes_each_calls_best_and_averages_the_variants():
    def timer(*requests):
        t = Timer(record=False)
        for tag, enumerate_s, solve_s in requests:
            with t.request(tag) as req:
                req.calls["search.enumerate_candidates"] = enumerate_s
                req.calls["search.solve_cover"] = solve_s
        return t

    rounds = [
        [timer(("a", 1.0, 2.0), ("b", 0.5, 0.5)), timer(("a", 5.0, 4.0))],
        [timer(("a", 0.5, 3.0), ("b", 1.0, 3.0)), timer(("a", 6.0, 5.0))],
    ]
    latency, core = run.best_of(rounds, "search.solve_cover")
    assert latency == {"a": (2.5 + 9.0) / 2, "b": 1.0 / 2}
    assert core == {"a": (2.0 + 4.0) / 2, "b": 0.5 / 2}


def test_tail_is_the_mean_of_the_slowest_quarter():
    assert run.tail([float(i) for i in range(1, 13)]) == pytest.approx(11.0)
    assert run.tail([1.0, 4.0, 2.0]) == 4.0


def test_symmetry_keeps_the_ambient_and_seed_zero_is_identity():
    family = realize(intermediate_library("fig6", 4), 4)
    sides = family.ambient.sides
    assert w.Symmetry.make(0, "x", sides) is None
    moved = w.transform(w.Symmetry.make(7, "x", sides), family.boxes, sides)
    assert verify_cover(BoxFamily(family.ambient, tuple(moved))).is_partition
    assert sorted(map(str, moved)) != sorted(map(str, family.boxes))


def _result(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = _result("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_sources():
    run.WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _result("--workload", "verify", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
