"""Steadiness set and reference figures for the benchmark's README.

    python3 perfbench/report.py [--first-seed 1]

For each workload it makes RUNS untraced runs of run.py, seeds first-seed,
first-seed + 1, ..., then TRACED traced runs, each for BENCHMARK.json's
run_seconds, and prints in markdown:
  - per end-to-end metric: median, first and third quartile (as
    statistics.quantiles(values, n=4) gives them) and (Q3 - Q1) / median,
    and the same for the sum over commands of each command's fastest round,
    an estimator wall_s does not use;
  - wall_s of every run in run order, to show drift within the set;
  - the share of failed operations;
  - CPU time per workload, cold start per command, grid points per second;
  - the tracing overhead (traced minus untraced wall_s, medians), and
    whether the traced counts repeat exactly across the traced runs;
  - the probe of weight-grid at 1 thread, against its 2-thread wall.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RUNS = 10
TRACED = 2
# (m, n) points averaged over by each workload's results
GRID_POINTS = {
    "liouville-sweep": sum(n * n for n in run.SWEEP_NS),  # one weighted mean per n
    "weight-grid": 2 * 4000**2 + 2 * 4000**2,  # grid + Riemann means; two Folner elements
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = next(
        json.loads(line[len("detail: "):])
        for line in proc.stderr.splitlines()
        if line.startswith("detail: ")
    )
    return result, detail


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + RUNS)

    print(f"{RUNS} runs per workload, seeds {seeds.start}..{seeds.stop - 1}, "
          f"--seconds {seconds}\n")
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|")
    summary: dict[str, dict] = {}
    walls_in_order: dict[str, list[float]] = {}
    for workload in run.WORKLOADS:
        results, details = zip(*(bench(workload, s, seconds, 0) for s in seeds))
        for metric in run.END_TO_END_UNITS:
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in results])
            print(f"| {workload} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.1%} |")
        q1, med, q3 = quartiles([sum(map(min, zip(*d["round_walls_s"]))) for d in details])
        print(f"| {workload} | (fastest round per command) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{(q3 - q1) / med:.1%} |")
        walls_in_order[workload] = [r["metrics"]["wall_s"]["value"] for r in results]
        traced = [bench(workload, s, seconds, 1) for s in seeds[:TRACED]]
        per_command = [
            {key: statistics.median(d["per_command"][i][key] for d in details)
             for key in ("wall_s", "cpu_s")}
            for i in range(len(run.WORKLOADS[workload]))
        ]
        counts = [
            {m: r["metrics"][m]["value"] for m, u in run.PER_LAYER_UNITS.items() if u == "count"}
            for r, _ in traced
        ]
        summary[workload] = {
            "failed": f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}",
            "correct": all(r["correct"] for r in results + tuple(r for r, _ in traced)),
            "wall_s": statistics.median(r["metrics"]["wall_s"]["value"] for r in results),
            "cpu_s": sum(c["cpu_s"] for c in per_command),
            "per_command": per_command,
            "setup_per_command_s": [
                statistics.median(d["setup_per_command_s"][i] for d in details)
                for i in range(len(run.WORKLOADS[workload]))
            ],
            "traced_wall_s": statistics.median(
                r["metrics"]["trace.wall_s"]["value"] for r, _ in traced
            ),
            "counts_repeat": all(c == counts[0] for c in counts)
            and all(d["counts_repeat"] for _, d in traced),
        }

    print()
    for workload, walls in walls_in_order.items():
        print(f"- {workload} wall_s in run order: {', '.join(f'{w:.2f}' for w in walls)}")
    print("\n| workload | failed/attempted | correct | wall_s | CPU s | traced wall_s | "
          "tracing overhead | counts repeat | grid points/s |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, s in summary.items():
        overhead = (f"{s['traced_wall_s'] - s['wall_s']:+.3f} s "
                    f"({(s['traced_wall_s'] - s['wall_s']) / s['wall_s']:+.1%})")
        rate = (f"{GRID_POINTS[workload] / s['wall_s'] / 1e6:.2f}M"
                if workload in GRID_POINTS else "-")
        print(f"| {workload} | {s['failed']} | {s['correct']} | {s['wall_s']:.3f} | "
              f"{s['cpu_s']:.2f} | {s['traced_wall_s']:.3f} | {overhead} | {s['counts_repeat']} | {rate} |")

    print("\n| workload | command | wall s | CPU s | cold start s |")
    print("|---|---|---|---|---|")
    for workload, s in summary.items():
        for cmd, c, cold in zip(run.WORKLOADS[workload], s["per_command"], s["setup_per_command_s"]):
            print(f"| {workload} | `{' '.join(cmd)}` | {c['wall_s']:.3f} | {c['cpu_s']:.2f} | "
                  f"{cold:.3f} |")

    probe = run.WORKLOADS["weight-grid"][1]
    one_thread = [a for a in probe if a not in ("--threads", "2")] + ["--threads", "1"]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        runner = run.Runner(Path(tmp))
        walls = [runner.run(cmd).wall_s for _ in range(3) for cmd in (one_thread, probe)]
    print(f"\nprobe-nonneg n=4000, median of 3: 1 thread {statistics.median(walls[0::2]):.3f} s, "
          f"2 threads {statistics.median(walls[1::2]):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
