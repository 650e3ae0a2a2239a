"""Each output check passes on the program's real output and fails on a
wrong value.  Run with `python3 -m pytest perfbench/test_checks.py`.

Real outputs come from the CLI at small sizes, in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from qpairs.cli import main  # noqa: E402

FORMS = ["p1=[1,0,2]", "p2=[0,2,0]"]


def cli(*args: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(args)) == 0
    return buf.getvalue()


def with_field(text: str, key: str, value) -> str:
    rows = checks.json_rows(text)
    rows[0][key] = value
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"


def test_sweep():
    text = cli("--format", "csv", "sweep", "--sub", "ldelta", "--axis", "n",
               "--values", "100,150", "f=liouville", *FORMS, "delta=0.3")
    want = {100: checks.weighted_liouville_average(100, 0.3)}
    assert checks.check_sweep(text, (100, 150), want) == []
    assert checks.check_sweep(text, (100, 150), {100: want[100] + 1e-9})
    assert checks.check_sweep(text, (100, 200), want)
    value = text.splitlines()[2].split(",")[2]
    assert checks.check_sweep(text.replace(value, "1.5+0.0j"), (100, 150), want)
    assert checks.check_sweep(text.replace(value, value[:-4] + "0.5j"), (100, 150), want)


def test_ldelta():
    text = cli("ldelta", "f=liouville", *FORMS, "delta=0.3", "n=120")
    want = checks.weighted_liouville_average(120, 0.3)
    assert checks.check_ldelta(text, want) == []
    assert checks.check_ldelta(text, want + 1e-9)
    assert checks.check_ldelta(with_field(text, "value", {"re": 1.5, "im": 0.0}), 1.5)


def test_weights():
    text = cli("weights", "--p1", "[1,0,2]", "--p2", "[0,2,0]", "--delta", "0.3", "--n", "400")
    grid, riemann = checks.mean_weight(400, 0.3)
    assert checks.check_weights(text, 400, (grid, riemann)) == []
    assert checks.check_weights(text, 400, (grid + 1e-9, riemann))
    assert checks.check_weights(text, 400, (grid, riemann - 1e-9))
    row = checks.json_rows(text)[0]
    assert checks.check_weights(with_field(text, "agreement", 0.0), 400, None)
    shifted = with_field(with_field(text, "grid", 1.2), "agreement", abs(1.2 - row["riemann"]))
    assert checks.check_weights(shifted, 400, None)
    far = row["riemann"] + 0.1
    assert checks.check_weights(
        with_field(with_field(text, "grid", far), "agreement", 0.1), 400, None
    )


def test_probe_recomputed_and_thread_independent():
    args = ["probe-nonneg", "f=arch:2.0", *FORMS, "delta=0.05", "k=2", "n=420"]
    one = cli(*args, "--threads", "1")
    assert cli(*args, "--threads", "2") == one
    want = checks.archimedean_probe(420, 0.05, 2.0, 2)
    assert checks.check_probe(one, want) == []
    assert checks.check_probe(one, want + 1e-6)
    assert checks.check_probe(with_field(one, "value", 1.5), None)


@pytest.mark.parametrize("form", [None, "[1,0,1]"])
def test_profile(form):
    ys = ("1e3", "1e4", "2e4")
    extra = ["--form", form] if form else []
    text = cli("distance", "--f", "liouville", *extra, "--profile", ",".join(ys))
    want = checks.distance_profile([float(y) for y in ys], form is not None)
    other = checks.distance_profile([float(y) for y in ys], form is None)
    assert checks.check_profile(text, ys, want) == []
    assert checks.check_profile(text, ys, other)
    assert checks.check_profile(text, ys, [want[0], want[1] * (1 + 1e-9), want[2]])
    assert checks.check_profile(text, ("1e3", "1e4", "3e4"), want)


def test_distance():
    text = cli("distance", "--f", "liouville", "--y", "5000")
    (want,) = checks.distance_profile([5000], False)
    assert checks.check_distance(text, want) == []
    assert checks.check_distance(text, checks.distance_profile([4999], False)[0] * (1 + 1e-9))


@pytest.mark.parametrize("a,b,c,box", [(2, 1, 3, 40), (2, 1, 1, 40), (1, 3, 2, 30), (3, 2, 1, 25)])
def test_regular(a, b, c, box):
    text = cli("ring", "regular", "--d", "1", "--element", f"{a}+{b}*tau",
               "--c-bound", str(c), "--box", str(box))
    want = checks.gaussian_regular(a, b, c, box)
    assert checks.check_regular(text, want) == []
    assert checks.check_regular(text, not want)


def test_regular_brute_force_sees_both_outcomes():
    assert checks.gaussian_regular(2, 1, 3, 40) is True
    assert checks.gaussian_regular(2, 1, 1, 40) is False


def test_coloring():
    text = cli("verify-coloring", "3", "5", "30", "--coloring", "dyadic:6", "--bound", "2000")
    sols = checks.solutions_3_5_30(2000)
    assert checks.check_coloring(text, sols, 6) == []
    assert checks.check_coloring(text, sols[1:], 6)
    assert checks.check_coloring(with_field(text, "monochromatic", 1), sols, 6)
    # with one color every pair of distinct solutions is monochromatic
    assert checks.check_coloring(text, sols, 0)


def test_solution_recount_matches_definition():
    sols = checks.solutions_3_5_30(300)
    x, y = np.meshgrid(np.arange(1, 301), np.arange(1, 301), indexing="ij")
    s = 3 * x * x + 5 * y * y
    z = np.rint(np.sqrt(s / 30)).astype(np.int64)
    brute = np.argwhere((s % 30 == 0) & (30 * z * z == s)) + 1
    assert sorted(map(tuple, sols.tolist())) == sorted(map(tuple, brute.tolist()))


def test_liouville_table_matches_factorization():
    lam = checks.liouville_table(2000)
    for n in range(1, 2001):
        omega, m, p = 0, n, 2
        while m > 1:
            while m % p == 0:
                m //= p
                omega += 1
            p += 1
        assert lam[n] == (-1) ** omega


def test_csv_complex():
    assert checks.parse_csv_complex("-0.25+0.0j") == complex(-0.25, 0.0)
    assert checks.parse_csv_complex("1e+16+-2.5e-05j") == complex(1e16, -2.5e-05)


def test_reruns():
    assert checks.check_reruns([b"a", b"a", b"a"]) == []
    assert checks.check_reruns([b"a", b"a", b"b"])
