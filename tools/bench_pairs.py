"""Paired benchmark runs of a parent tree and a change tree.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S

Each pair runs the benchmark command of BENCHMARK.json (`perfbench/run.py`)
once in each tree, with `--workload W --seed S --trace 0` and the
benchmark's `run_seconds`, from that tree's own directory; the side that
goes first alternates from pair to pair.  Each run's end-to-end metrics,
operation counts and per-command peak RSS (from run.py's `detail:` line)
are printed as it finishes.  Then, per metric, each side's median and
quartiles, the share of pairs the change won (ties count for neither side),
and whether the medians differ by more than the parent's interquartile
range.

Nothing is written into either tree but run.py's own scratch directory
under `perfbench/.work`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric of better ("lower" or "higher"), over (parent, change)
    metric dicts of the same pair: each side's quartiles, the pairs the
    change won, and whether its median is better than the parent's by more
    than the parent's interquartile range."""
    out = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p[metric] for p, _ in pairs]
        change = [c[metric] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        out[metric] = {
            "parent": (p1, pm, p3),
            "change": (c1, cm, c3),
            "wins": wins,
            "pairs": len(pairs),
            "share": wins / len(pairs),
            "beyond_spread": sign * (cm - pm) > p3 - p1,
        }
    return out


def run(tree: Path, command: list[str], args: list[str]) -> dict:
    """One benchmark run in tree: its result object, with the detail line's
    per-command peak RSS added as `rss_mb`."""
    proc = subprocess.run([*command, *args], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark failed in {tree} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next((json.loads(line[len("detail: "):]) for line in proc.stderr.splitlines()
                   if line.startswith("detail: ")), {})
    result["rss_mb"] = [round(c["rss_mb"], 2) for c in detail.get("per_command", [])]
    return result


def describe(label: str, result: dict) -> str:
    metrics = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
    return (f"{label}: {metrics} failed={result['failed']}/{result['attempted']} "
            f"correct={result['correct']} rss_mb per command={result['rss_mb']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    command = [sys.executable if word in ("python", "python3") else word for word in bench["command"]]
    run_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        results = {}
        for label, tree in sides if i % 2 == 0 else sides[::-1]:
            results[label] = run(tree, command, run_args)
            print(describe(f"pair {i + 1} {label}", results[label]), flush=True)
        pairs.append(tuple({m: v["value"] for m, v in results[side]["metrics"].items()}
                           for side in ("parent", "change")))

    print(f"\n{args.workload}, seed {args.seed}, {len(pairs)} pairs (first quartile / median / third quartile):")
    for metric, s in summarize(pairs, better).items():
        fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)
        print(f"  {metric}: parent {fmt(s['parent'])}; change {fmt(s['change'])}; "
              f"change won {s['wins']}/{s['pairs']} ({s['share']:.0%}); "
              f"median gap beyond the parent's quartile spread: {'yes' if s['beyond_spread'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
