"""The benchmark's traced run (`perfbench/tracing.py`) on small versions of
each workload's commands.

tracing.py wraps layer functions by module attribute name, so a renamed or
removed function breaks `perfbench/run.py --trace 1`; these runs catch that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FORMS = ["p1=[1,0,2]", "p2=[0,2,0]"]

# the workloads' commands at small sizes; the probe takes delta = 0.3, as at
# delta = 0.05 the weight of these forms vanishes below n of about 500
COMMANDS = {
    "liouville-sweep": ["--format", "csv", "sweep", "--sub", "ldelta", "--axis", "n",
                        "--values", "100,200", "f=liouville", *FORMS, "delta=0.3"],
    "weights": ["weights", "--p1", "[1,0,2]", "--p2", "[0,2,0]", "--delta", "0.3", "--n", "200"],
    "probe-nonneg": ["probe-nonneg", "f=arch:2.0", *FORMS, "delta=0.3", "k=2", "n=200",
                     "--threads", "2"],
    "distance": ["distance", "--f", "liouville", "--profile", "1e3,1e4"],
    "distance form": ["distance", "--f", "liouville", "--form", "[1,0,1]", "--profile", "1e3,1e4"],
    "ring regular": ["ring", "regular", "--d", "1", "--element", "2+1*tau", "--c-bound", "3",
                     "--box", "20"],
    "verify-coloring": ["verify-coloring", "3", "5", "30", "--coloring", "dyadic:6",
                        "--bound", "200"],
}


def _traced(args, tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(trace.read_text())


@pytest.mark.parametrize("name", COMMANDS)
def test_traced_workload_commands_run(name, tmp_path):
    summary = _traced(COMMANDS[name], tmp_path)
    assert summary["cli.emit"]["calls"] == 1
    if name == "weights":
        assert summary["averaging.mu_estimate"]["calls"] == 1
        assert summary["averaging.weight_grid"]["calls"] > 0
    if name == "liouville-sweep":
        assert summary["experiments.weighted_pair_average"]["calls"] == 2
        assert summary["_grid.striped_complex_mean"]["calls"] > 0
