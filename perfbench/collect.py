"""Repeat the benchmark over seeds and summarize each metric.

    python3 perfbench/collect.py --workloads verify exact --seeds 1-10 \
        [--trace 1] [--record LABEL]

Runs ``run.py`` once per workload and seed, one run at a time, and prints per
metric the median, quartiles and sample count, and the spread: the distance
between the quartiles as a share of the median.  A spread at or above a third
of the metric's bound is flagged.  ``--record`` appends the summary, with the
machine it ran on, to ``perfbench/trajectory.json``; later performance
changes quote their before/after numbers from that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["verify", "exact", "anneal", "cli"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            wall = result["metrics"].get("wall_s")
            wall_note = f", wall_s {wall['value']:.4g}" if wall else ""
            print(f"# {workload} seed {seed}: {time.perf_counter() - start:.1f} s{wall_note}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            results.append(result)
        summary[workload] = summarize(results)
        print(f"{workload}  (failed {sum(r['failed'] for r in results)} "
              f"of {sum(r['attempted'] for r in results)} requests)")
        for name, s in summary[workload].items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("nan")
            bound = bounds[name]
            flag = "  SPREAD >= bound/3" if bound is not None and not spread < bound / 3 else ""
            print(f"  {name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:.3f}{flag}")

    if args.record:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        entries.append({
            "label": args.record,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": machine(),
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "seeds": [args.seeds[0], args.seeds[-1]],
            "workloads": summary,
        })
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
