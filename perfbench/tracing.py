"""Per-layer timing of one qpairs CLI command, from outside the program.

Run as

    python3 perfbench/tracing.py TRACE.json ARG...

with `src` on PYTHONPATH.  It imports the CLI, replaces the layers' public
functions by timing wrappers, runs `qpairs ARG...` in this process and writes
a summary of the spans to TRACE.json.  The program itself is unchanged: the
wrappers are installed on every name a caller looks up, which covers both the
defining module and each module that imported the function by name (for
example `qpairs.experiments.evaluate_many` besides
`qpairs.multfunc.evaluate_many`), and the per-stripe `row_block_sum` passed to
`_grid.striped_complex_mean` is wrapped as it is passed.

A span is (name, start, end, parent, amount, peak bytes).  Spans in stripe
worker threads name the striped mean that started them as their parent.  A
span's self time is its duration minus the part of it that its child spans
cover; overlapping children (parallel stripes) are counted once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import tracemalloc


class Tracer:
    def __init__(self) -> None:
        # list.append is atomic, so worker threads record without a lock
        self.spans: list[list] = []
        self._local = threading.local()

    def open(self, name: str, parent: list | None = None) -> tuple[list, list | None]:
        """Start a span; its parent is the thread's open span unless given."""
        prev = getattr(self._local, "span", None)
        span = [name, time.perf_counter(), None, prev if parent is None else parent, 0, 0]
        self.spans.append(span)
        self._local.span = span
        return span, prev

    def close(self, opened: tuple[list, list | None], amount=0, peak=0) -> None:
        span, prev = opened
        span[2] = time.perf_counter()
        span[4] = amount
        span[5] = peak
        self._local.span = prev

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, amount sum/max, peak
        bytes, and the sum of amount x duration (threads x span for stripes)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(id(span[3]), []).append((span[1], span[2]))
        out: dict[str, dict] = {}
        for span in self.spans:
            name, t0, t1, _, amount, peak = span
            covered = 0.0
            reach = t0
            for c0, c1 in sorted(children.get(id(span), ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            agg = out.setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount_sum": 0,
                 "amount_max": 0, "peak_bytes": 0, "amount_x_s": 0.0},
            )
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered
            agg["amount_sum"] += amount
            agg["amount_max"] = max(agg["amount_max"], amount)
            agg["peak_bytes"] = max(agg["peak_bytes"], peak)
            agg["amount_x_s"] += amount * (t1 - t0)
        return out


def _size(result) -> int:
    return int(getattr(result, "size", 0))


def _lattice_points(args, kwargs, result) -> int:
    """Points of the box is_regular scans.  A scan that meets a counterexample
    stops early, so for a non-regular element this bounds the points visited."""
    box = args[2] if len(args) > 2 else kwargs["n_max"]
    return (2 * box + 1) ** 2 - 1


# layer -> [(public function, amount recorded per call as a function of
# (args, kwargs, result), whether to record the call's peak allocation)]
WRAPPED = {
    "arith": [("sieve_primes", lambda a, k, r: len(r), False)],
    "multfunc": [
        ("prime_value_table", lambda a, k, r: int(a[1] if len(a) > 1 else k["bound"]), True),
        ("evaluate_many", lambda a, k, r: _size(r), False),
        ("distance", None, False),
        ("distance_form", None, False),
    ],
    "quadforms": [
        ("local_root_count_fast", None, False),
        ("BinaryQuadraticForm.grid_values", lambda a, k, r: _size(r), False),
    ],
    "averaging": [
        ("weight_grid", lambda a, k, r: _size(r), False),
        ("mu_estimate", None, True),
    ],
    "experiments": [("weighted_pair_average", None, False)],
    "quadrings": [("is_regular", _lattice_points, False)],
    "regularity": [("verify_no_monochromatic", lambda a, k, r: r.solution_count, False)],
    "cli": [("resolve_spec", None, False), ("emit", None, False)],
}


def _builds_table(args, kwargs) -> bool:
    """prime_value_table(f, bound) builds a table only for a Liouville f;
    for a closed form such as arch it returns at once."""
    f = args[0] if args else kwargs["f"]
    return f.hint is not None and f.hint.kind == "liouville"


# span name -> predicate on (args, kwargs): other calls run unrecorded
RECORDED_WHEN = {"multfunc.prime_value_table": _builds_table}


def _wrap(tracer: Tracer, name: str, fn, amount_of, track_memory: bool):
    recorded = RECORDED_WHEN.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorded is not None and not recorded(args, kwargs):
            return fn(*args, **kwargs)
        measure = track_memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        opened = tracer.open(name)
        amount = 0
        try:
            result = fn(*args, **kwargs)
            if amount_of is not None:
                amount = amount_of(args, kwargs, result)
            return result
        finally:
            peak = tracemalloc.get_traced_memory()[1] if measure else 0
            if measure:
                tracemalloc.stop()
            tracer.close(opened, amount, peak)

    return wrapper


def _wrap_striped(tracer: Tracer, fn):
    """striped_complex_mean(row_block_sum, n, threads): one span for the call
    (amount = threads) and one per stripe, parented across threads."""

    @functools.wraps(fn)
    def wrapper(row_block_sum, n, threads=1):
        opened = tracer.open("_grid.striped_complex_mean")

        def stripe(ms):
            inner = tracer.open("_grid.stripe", parent=opened[0])
            try:
                return row_block_sum(ms)
            finally:
                tracer.close(inner, len(ms))

        try:
            return fn(stripe, n, threads)
        finally:
            tracer.close(opened, threads)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED under each name that refers to it."""
    import importlib

    modules = {name: importlib.import_module(f"qpairs.{name}") for name in (*WRAPPED, "_grid")}
    wrappers = {}  # id of the original function -> its wrapper; wrappers keep originals alive
    for layer, entries in WRAPPED.items():
        module = modules[layer]
        for attr, amount_of, track_memory in entries:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            wrappers[id(original)] = _wrap(tracer, f"{layer}.{fn_name}", original, amount_of, track_memory)
            setattr(owner, fn_name, wrappers[id(original)])
    striped = modules["_grid"].striped_complex_mean
    wrappers[id(striped)] = _wrap_striped(tracer, striped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "qpairs" or mod_name.startswith("qpairs."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from qpairs import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
