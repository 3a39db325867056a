#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train,serve_exact_hot --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 11-12 --trace

For every workload and end-to-end metric it prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from BENCHMARK.json; a spread
at or above a third of its bound is flagged. ``--trace`` also makes one
traced run per seed and reports the tracing overhead: the traced run's
throughput and p50 latency against the untraced median. Every run must be
correct with no failed operation; the exit code is 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    healthy = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, False) for seed in args.seeds]
        traced = (
            [run_once(workload, seed, seconds, True) for seed in args.seeds]
            if args.trace else []
        )
        for result in runs + traced:
            if not result["correct"] or result["failed"]:
                healthy = False
                print(f"{workload}: incorrect or failed run: {result}")
        print(f"\n{workload} ({len(runs)} seeds, {seconds} s)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {name:16s} {values[0]:12.4f}")
                continue
            mid, q1, q3, share = spread(values)
            flag = "" if share < bound / 3 else "  <-- spread >= bound/3"
            print(
                f"  {name:16s} median {mid:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                f"  spread {share:6.3f}  bound {bound}{flag}"
            )
        for name in ("throughput", "latency_p50_ms"):
            if traced:
                traced_mid = statistics.median(
                    r["metrics"][f"trace.{name}"]["value"] for r in traced
                )
                untraced_mid = statistics.median(r["metrics"][name]["value"] for r in runs)
                print(
                    f"  tracing overhead on {name}: traced {traced_mid:.4f} vs "
                    f"untraced {untraced_mid:.4f} ({traced_mid / untraced_mid - 1:+.1%})"
                )
        sys.stdout.flush()
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
