"""Wall time and peak RSS of a qpairs command, run in a child process.

    python3 tools/peak_rss.py [--repeat N] [--] ARGV...

Each run starts a small helper process, which starts `qpairs ARGV` as its
own child, times it and waits for it with os.wait4.  The helper stays
small because a child's ru_maxrss counts the memory of the process it was
forked from.  qpairs is imported from the `src` of the tree this script
sits in; to measure another tree, run its copy of the script.  Per run, one
line: wall time, peak RSS in MB, exit code, and the first 12 hex digits of
the sha256 of the command's stdout.  Put `--` before an ARGV that starts
with an option, such as `--format csv ...`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs qpairs with the argv it is given in a child and prints one JSON line:
# the child's wall time, peak RSS in kB, exit code and stdout sha256.
_HELPER = """
import hashlib, json, os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen([sys.executable, "-c", "import sys; from qpairs.cli import main; sys.exit(main())",
                          *sys.argv[1:]], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for block in iter(lambda: child.stdout.read(1 << 16), b""):
    digest.update(block)
_, status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "peak_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status),
                  "stdout_sha256": digest.hexdigest()}))
"""


def measure(argv: list[str]) -> dict:
    """One run of `qpairs argv`: its wall time in s, peak RSS in MB, exit
    code and stdout sha256."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HELPER, *argv], env=env, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    run = json.loads(out)
    return {"wall_s": run["wall_s"], "peak_rss_mb": run["peak_kb"] / 1024, "exit": run["exit"],
            "stdout_sha256": run["stdout_sha256"]}


def describe(run: dict) -> str:
    """One printed line per run."""
    return (f"wall_s={run['wall_s']:.3f} peak_rss_mb={run['peak_rss_mb']:.1f} exit={run['exit']} "
            f"stdout_sha256={run['stdout_sha256'][:12]}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs, one after another (default 1)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the qpairs command line")
    args = parser.parse_args(argv)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    if args.repeat < 1 or not args.argv:
        parser.error("need --repeat >= 1 and a qpairs command line")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for i in range(args.repeat):
        print(f"run {i + 1}: {describe(measure(args.argv))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
