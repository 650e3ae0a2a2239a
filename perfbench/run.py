"""Benchmark of the qpairs CLI on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of a workload runs in its own process, started the way a user
runs it (`qpairs ARG...`, here `python3 -c` on `qpairs.cli.main` with `src`
on PYTHONPATH).  One round runs the workload's commands in order; rounds
repeat until S seconds have passed, and at least three times.  Reported
values are medians over rounds.

With --trace 0 the end-to-end metrics are reported:
  wall_s       spawn to exit of each command, summed over the round's commands
  peak_rss_mb  largest peak RSS of any one command (os.wait4 on that child)
  setup_s      cold start of each command, `qpairs SUB --help`: the fastest
               start per subcommand, summed over the commands.  Five starts
               come before the rounds and one more after each round, so the
               samples are spread over the run.  A start takes 0.3 s, shorter
               than the machine's slow spells (other tenants only ever add
               time), so the fastest start is the steady estimate
With --trace 1 the commands run under perfbench/tracing.py and the per-layer
metrics are reported instead.

The commands are fixed; the seed picks the extra, untimed spot-check calls
at smaller sizes.  Every output is checked outside the timed region; an
operation (one command in one round) fails when it exits nonzero, when its
output fails a check, or when its bytes differ from those of the first round
in which the command exited 0; that round's output is the one checked.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
ENTRY = "import sys; from qpairs.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
PROCESS_TIMEOUT_S = 150.0

FORMS = ("p1=[1,0,2]", "p2=[0,2,0]")
SWEEP_NS = (500, 1000, 2000, 4000)
PROFILE = ("1e3", "1e4", "1e5", "1e6", "3e6", "1e7")
FORM_PROFILE = ("1e4", "1e5", "1e6")
COLORING_BOUND = 10000

WORKLOADS: dict[str, list[list[str]]] = {
    "liouville-sweep": [
        ["--format", "csv", "sweep", "--sub", "ldelta", "--axis", "n",
         "--values", ",".join(map(str, SWEEP_NS)), "f=liouville", *FORMS, "delta=0.3"],
    ],
    "weight-grid": [
        ["weights", "--p1", "[1,0,2]", "--p2", "[0,2,0]", "--delta", "0.3", "--n", "4000"],
        ["probe-nonneg", "f=arch:2.0", *FORMS, "delta=0.05", "k=2", "n=4000", "--threads", "2"],
    ],
    "exact-arith": [
        ["distance", "--f", "liouville", "--profile", ",".join(PROFILE)],
        ["distance", "--f", "liouville", "--form", "[1,0,1]", "--profile", ",".join(FORM_PROFILE)],
        ["ring", "regular", "--d", "1", "--element", "2+1*tau", "--c-bound", "3", "--box", "300"],
        ["verify-coloring", "3", "5", "30", "--coloring", "dyadic:6",
         "--bound", str(COLORING_BOUND)],
    ],
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stdout: bytes
    trace: dict = field(default_factory=dict)


class Runner:
    """Starts one command per process and reaps it with os.wait4."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, args: list[str], traced: bool = False) -> Proc:
        out_path, err_path, trace_path = (self.tmp / n for n in ("out", "err", "trace.json"))
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = Proc(
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            code=proc.returncode,
            stdout=out_path.read_bytes(),
        )
        if proc.returncode != 0:
            sys.stderr.write(f"exit {proc.returncode}: qpairs {' '.join(args)}\n")
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        if traced and trace_path.exists():
            result.trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return result


def subcommand(args: list[str]) -> str:
    """The subcommand of an argv: the first token that is not a global flag."""
    i = 0
    while args[i].startswith("--"):
        i += 2
    return args[i]


def sample_setup(runner: Runner, samples: dict[str, list[float]]) -> None:
    """One cold start `qpairs SUB --help` of each subcommand in samples."""
    for sub, walls in samples.items():
        walls.append(runner.run([sub, "--help"]).wall_s)


# --------------------------------------------------------------------------
# checks: one function per command of a workload, called on the first
# round's output; each returns a list of problems (empty when right)
# --------------------------------------------------------------------------


def _spot(runner: Runner, args: list[str]) -> tuple[str, list[str]]:
    proc = runner.run(args)
    if proc.code != 0:
        return "", [f"spot call exited {proc.code}: qpairs {' '.join(args)}"]
    return proc.stdout.decode(), []


def sweep_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    problems = checks.check_sweep(text, SWEEP_NS, {500: checks.weighted_liouville_average(500, 0.3)})
    n = rng.randrange(100, 401)
    spot, bad = _spot(runner, ["ldelta", "f=liouville", *FORMS, "delta=0.3", f"n={n}"])
    return problems + (bad or checks.check_ldelta(spot, checks.weighted_liouville_average(n, 0.3)))


def weights_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    problems = checks.check_weights(text, 4000, None)
    n = rng.randrange(400, 701)
    spot, bad = _spot(runner, ["weights", "--p1", "[1,0,2]", "--p2", "[0,2,0]",
                               "--delta", "0.3", "--n", str(n)])
    return problems + (bad or checks.check_weights(spot, n, checks.mean_weight(n, 0.3)))


def probe_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    problems = checks.check_probe(text, None)
    # with delta = 0.05 the weight is zero on [n]^2 below n = 392: P1/P2 >= sqrt 2
    # keeps the phase outside the bump until n/m reaches e^(2 pi (1 - delta))
    n = rng.randrange(400, 701)
    args = ["probe-nonneg", "f=arch:2.0", *FORMS, "delta=0.05", "k=2", f"n={n}"]
    one, bad1 = _spot(runner, [*args, "--threads", "1"])
    two, bad2 = _spot(runner, [*args, "--threads", "2"])
    if bad1 or bad2:
        return problems + bad1 + bad2
    if one != two:
        problems.append(f"probe n={n}: output differs between 1 and 2 threads")
    return problems + checks.check_probe(one, checks.archimedean_probe(n, 0.05, 2.0, 2))


def plain_profile_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    problems = checks.check_profile(
        text, PROFILE, checks.distance_profile([float(y) for y in PROFILE], False)
    )
    y = rng.randrange(10**3, 10**6)
    spot, bad = _spot(runner, ["distance", "--f", "liouville", "--y", str(y)])
    return problems + (bad or checks.check_distance(spot, checks.distance_profile([y], False)[0]))


def form_profile_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    return checks.check_profile(
        text, FORM_PROFILE, checks.distance_profile([float(y) for y in FORM_PROFILE], True)
    )


def ring_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    problems = checks.check_regular(text, checks.gaussian_regular(2, 1, 3, 300))
    a, b = rng.randrange(1, 6), rng.randrange(1, 6)
    c, box = rng.randrange(1, 4), rng.randrange(20, 81)
    spot, bad = _spot(runner, ["ring", "regular", "--d", "1", "--element", f"{a}+{b}*tau",
                               "--c-bound", str(c), "--box", str(box)])
    return problems + (bad or checks.check_regular(spot, checks.gaussian_regular(a, b, c, box)))


def coloring_problems(runner: Runner, text: str, rng: random.Random) -> list[str]:
    return checks.check_coloring(text, checks.solutions_3_5_30(COLORING_BOUND), 6)


CHECKS = {
    "liouville-sweep": [sweep_problems],
    "weight-grid": [weights_problems, probe_problems],
    "exact-arith": [plain_profile_problems, form_profile_problems, ring_problems,
                    coloring_problems],
}


def output_problems(
    workload: str, runner: Runner, first: list[Proc | None], seed: int
) -> list[list[str]]:
    """Problems with each command's output in the first round in which it
    exited 0.  A command with no such round is not checked: its exit codes
    already fail it."""
    rng = random.Random(seed)
    problems = []
    for check, proc in zip(CHECKS[workload], first):
        if proc is None:
            problems.append([])
            continue
        try:
            problems.append(check(runner, proc.stdout.decode(), rng))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append([f"unreadable output: {exc!r}"])
    return problems


# --------------------------------------------------------------------------
# per-layer metrics from the traced rounds
# --------------------------------------------------------------------------

# (metric, unit, span name, field): fields are summed over the round's
# commands, except amount_max and peak_bytes, which take the maximum.  Times
# are self times, except for the two entry points whose work is all in
# wrapped children (mu_estimate, weighted_pair_average) and the stripes.
SPAN_METRICS = [
    ("multfunc.prime_value_table_s", "s", "multfunc.prime_value_table", "self_s"),
    ("multfunc.prime_value_table_calls", "count", "multfunc.prime_value_table", "calls"),
    ("multfunc.value_table_bound", "count", "multfunc.prime_value_table", "amount_max"),
    ("multfunc.prime_value_table_peak_mb", "MB", "multfunc.prime_value_table", "peak_bytes"),
    ("averaging.weight_grid_s", "s", "averaging.weight_grid", "self_s"),
    ("averaging.weight_grid_points", "count", "averaging.weight_grid", "amount_sum"),
    ("averaging.mu_estimate_s", "s", "averaging.mu_estimate", "total_s"),
    ("averaging.mu_estimate_peak_mb", "MB", "averaging.mu_estimate", "peak_bytes"),
    ("multfunc.evaluate_many_s", "s", "multfunc.evaluate_many", "self_s"),
    ("multfunc.evaluate_many_values", "count", "multfunc.evaluate_many", "amount_sum"),
    ("quadforms.grid_values_s", "s", "quadforms.grid_values", "self_s"),
    ("quadforms.grid_values_points", "count", "quadforms.grid_values", "amount_sum"),
    ("grid.striped_mean_s", "s", "_grid.striped_complex_mean", "self_s"),
    ("grid.stripes", "count", "_grid.stripe", "calls"),
    ("grid.stripe_busy_s", "s", "_grid.stripe", "total_s"),
    ("experiments.weighted_pair_average_s", "s", "experiments.weighted_pair_average", "total_s"),
    ("experiments.weighted_pair_average_calls", "count", "experiments.weighted_pair_average", "calls"),
    ("arith.sieve_primes_s", "s", "arith.sieve_primes", "self_s"),
    ("arith.sieve_primes_calls", "count", "arith.sieve_primes", "calls"),
    ("arith.primes_returned", "count", "arith.sieve_primes", "amount_sum"),
    ("multfunc.distance_s", "s", "multfunc.distance", "self_s"),
    ("multfunc.distance_form_s", "s", "multfunc.distance_form", "self_s"),
    ("quadforms.local_root_count_fast_s", "s", "quadforms.local_root_count_fast", "self_s"),
    ("quadforms.local_root_count_fast_calls", "count", "quadforms.local_root_count_fast", "calls"),
    ("quadrings.is_regular_s", "s", "quadrings.is_regular", "self_s"),
    ("quadrings.lattice_points", "count", "quadrings.is_regular", "amount_sum"),
    ("regularity.verify_no_monochromatic_s", "s", "regularity.verify_no_monochromatic", "self_s"),
    ("regularity.solutions", "count", "regularity.verify_no_monochromatic", "amount_sum"),
    ("cli.resolve_spec_s", "s", "cli.resolve_spec", "self_s"),
    ("cli.emit_s", "s", "cli.emit", "self_s"),
]
OTHER_METRICS = [
    ("grid.parallel_efficiency", "ratio"),  # stripe busy time / (threads x striped-mean span)
    ("cli.emit_bytes", "count"),  # bytes the commands wrote to standard output
    ("trace.wall_s", "s"),  # wall_s of the traced round: minus wall_s, the tracing overhead
]
PER_LAYER_UNITS = {m: u for m, u, _, _ in SPAN_METRICS} | dict(OTHER_METRICS)


def layer_metrics(procs: list[Proc]) -> dict[str, float]:
    def field_total(span: str, key: str) -> float:
        values = [p.trace.get(span, {}).get(key, 0) for p in procs]
        return max(values) if key in ("amount_max", "peak_bytes") else sum(values)

    out: dict[str, float] = {}
    for metric, unit, span, key in SPAN_METRICS:
        value = field_total(span, key)
        out[metric] = value / 2**20 if unit == "MB" else value
    capacity = field_total("_grid.striped_complex_mean", "amount_x_s")
    out["grid.parallel_efficiency"] = out["grid.stripe_busy_s"] / capacity if capacity else 0.0
    out["cli.emit_bytes"] = sum(len(p.stdout) for p in procs)
    out["trace.wall_s"] = sum(p.wall_s for p in procs)
    return out


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running command is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qpairs" / "cli.py").is_file():
        print(f"error: no qpairs sources under {SRC}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    traced = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(tmp)
        detail: dict = {"workload": args.workload, "seed": args.seed, "traced": traced}
        subs = [subcommand(cmd) for cmd in commands]
        # cold starts per subcommand; commands with the same one share them
        setup_samples: dict[str, list[float]] = {sub: [] for sub in subs}
        if not traced:
            runner.run([subs[0], "--help"])  # warm the file cache and bytecode
            for _ in range(SETUP_SAMPLES):
                sample_setup(runner, setup_samples)

        # the round clock counts rounds only, not the cold starts between them
        rounds: list[list[Proc]] = []
        measured = 0.0
        while len(rounds) < MIN_ROUNDS or measured < args.seconds:
            started = time.perf_counter()
            rounds.append([runner.run(cmd, traced) for cmd in commands])
            measured += time.perf_counter() - started
            if not traced:
                sample_setup(runner, setup_samples)

        succeeded = [[r[i] for r in rounds if r[i].code == 0] for i in range(len(commands))]
        first_ok = [procs[0] if procs else None for procs in succeeded]
        problems = output_problems(args.workload, runner, first_ok, args.seed)
        for i, procs in enumerate(succeeded):
            # reruns must give the first successful round's bytes
            problems[i] += checks.check_reruns([p.stdout for p in procs])
        attempted = len(rounds) * len(commands)
        failed = sum(1 for r in rounds for i, p in enumerate(r) if p.code != 0 or problems[i])
        correct = not any(problems)

        if traced:
            per_round = [layer_metrics(r) for r in rounds]
            values = {m: statistics.median(r[m] for r in per_round) for m in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
            detail["counts_repeat"] = all(
                r[m] == per_round[0][m]
                for r in per_round
                for m, u in PER_LAYER_UNITS.items()
                if u == "count"
            )
        else:
            detail["setup_samples_s"] = setup_samples
            detail["setup_per_command_s"] = [min(setup_samples[sub]) for sub in subs]
            setup_s = sum(detail["setup_per_command_s"])
            values = {
                "wall_s": statistics.median(sum(p.wall_s for p in r) for r in rounds),
                "peak_rss_mb": statistics.median(max(p.rss_mb for p in r) for r in rounds),
                "setup_s": setup_s,
            }
            units = END_TO_END_UNITS
        detail |= {
            "rounds": len(rounds),
            "round_walls_s": [[p.wall_s for p in r] for r in rounds],
            "per_command": [
                {
                    "args": cmd,
                    "wall_s": statistics.median(r[i].wall_s for r in rounds),
                    "cpu_s": statistics.median(r[i].cpu_s for r in rounds),
                    "rss_mb": statistics.median(r[i].rss_mb for r in rounds),
                    "problems": problems[i],
                }
                for i, cmd in enumerate(commands)
            ],
        }
        print("detail: " + json.dumps(detail), file=sys.stderr)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
