import cmath
import csv
import json
import math
import subprocess
import sys

import pytest

from qpairs.cli import COMMANDS, main, parse_kv_text, resolve_spec
from qpairs.errors import DomainError
from update_corpus import readme_examples


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_verdict_json(capsys):
    code, out, _ = run_cli(["classify", "1", "2", "6", "--pair", "xy"], capsys)
    assert code == 0
    row = json.loads(out)
    assert row["status"] == "NOT_PR"
    assert row["witness_coloring"] == "two-adic"


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "1", "1", "3", "--prime-limit", "0"],
        ["obstruct", "--split", "-1", "2", "--prime-limit", "0"],
        ["obstruct", "1", "1", "3", "--prime-limit", "0"],
        ["obstruct", "1", "1", "3", "--prime-limit", "-5"],
        # decided before any prime walk: two-adic verdict, PR verdict, square target
        ["classify", "1", "2", "6", "--prime-limit", "0"],
        ["classify", "1", "1", "1", "--prime-limit", "-3"],
        ["obstruct", "1", "1", "1", "--prime-limit", "0"],
    ],
)
def test_nonpositive_prime_limit_is_usage_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert "prime limit must be positive" in err


@pytest.mark.parametrize("args", [["obstruct", "--split", "-1", "2"], ["obstruct", "1", "1", "3"]])
def test_prime_limit_one_is_exhausted_search(args, capsys):
    code, out, _ = run_cli([*args, "--prime-limit", "1"], capsys)
    assert code == 0 and json.loads(out)["prime"] is None


def test_classify_golden_rows(capsys):
    for triple, status in ((["1", "2", "1"], "PR_UNCONDITIONAL"),
                           (["1", "17", "34"], "UNKNOWN")):
        code, out, _ = run_cli(["classify", *triple], capsys)
        assert code == 0 and json.loads(out)["status"] == status


def test_malformed_input_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "qpairs.cli", "omega", "--form", "[1,0"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_help_builds_no_liouville_table():
    """A cold `ldelta --help` builds neither the sieve's wheel nor the
    Liouville table: a start pays for no sieve."""
    code = (
        "from qpairs import multfunc\n"
        "from qpairs.cli import main\n"
        "try:\n    main(['ldelta', '--help'])\nexcept SystemExit:\n    pass\n"
        "print(multfunc._wheel is None, multfunc._liouville_table is None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "True True"


def test_folner_closed_form(capsys):
    code, out, _ = run_cli(["folner", "--k", "3", "--f", "liouville"], capsys)
    assert code == 0
    row = json.loads(out)
    assert row["mean_re"] == pytest.approx(1 / 9, abs=1e-12)
    assert row["box_size"] == 9


def test_solve(capsys):
    code, out, _ = run_cli(["solve", "1", "1", "2", "--k", "1", "--m", "2", "--n", "1"], capsys)
    row = json.loads(out)
    assert (row["x"], row["y"], row["z"]) == (-2, 14, 10)
    assert row["check"] is True


def test_verify_coloring(capsys):
    code, out, _ = run_cli(
        ["verify-coloring", "1", "2", "6", "--coloring", "two-adic", "--bound", "500"],
        capsys,
    )
    row = json.loads(out)
    assert code == 0 and row["monochromatic"] == 0 and row["solutions"] >= 1


def test_ring_and_distance(capsys):
    code, out, _ = run_cli(["ring", "unit", "--d", "-2"], capsys)
    assert json.loads(out) == {
        "m": 1, "n": 1, "norm": -1, "quantity": "fundamental_unit",
        "run_id": json.loads(out)["run_id"],
    }
    code, out, _ = run_cli(["distance", "--f", "liouville", "--y", "10"], capsys)
    assert json.loads(out)["value"] == pytest.approx(1.533747356112131)


def test_experiment_kv_and_unknown_key(capsys, tmp_path):
    args = ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]", "delta=0.3",
            "q=1", "a=1", "b=0", "n=200"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["abs"] == 1.0
    code, _, err = run_cli(args + ["bogus=3"], capsys)
    assert code == 2 and "unknown keys" in err


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.txt"
    cfg.write_text("f = principal\np1 = [1,0,2]\np2 = [0,2,0]\n# comment\nn = 150\n")
    code, out, _ = run_cli(["ldelta", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["abs"] == 1.0


def test_config_file_missing(capsys, tmp_path):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli(["ldelta", "--config", str(missing)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read --config {missing}")


def test_out_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "absent" / "x.json"
    code, out, err = run_cli(["obstruct", "1", "1", "3", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}")
    assert not target.parent.exists()


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--out", None, "ldelta", "f=liouville", "p1=[1,0,2]", "p2=[0,2,0]",
            "delta=0.3", "q=1", "a=1", "b=0", "n=300"]
    for path in (out1, out2):
        args[1] = str(path)
        assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rows_and_empty_values(capsys):
    code, out, _ = run_cli(
        ["--format", "csv", "sweep", "--sub", "ldelta", "--axis", "n",
         "--values", "150,200,250,300", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[1].split(",")[-1] == "150"
    code, _, _ = run_cli(
        ["sweep", "--sub", "ldelta", "--axis", "n", "--values", " ", "f=principal",
         "p1=[1,0,2]", "p2=[0,2,0]"],
        capsys,
    )
    assert code == 2
    code, _, _ = run_cli(
        ["sweep", "--sub", "ldelta", "--axis", "zzz", "--values", "100",
         "f=principal", "p1=[1,0,2]", "p2=[0,2,0]"],
        capsys,
    )
    assert code == 2


def test_resource_cap_exit_3(capsys):
    code, _, err = run_cli(
        ["--cap-n", "100", "verify-coloring", "1", "2", "6",
         "--coloring", "two-adic", "--bound", "2000"],
        capsys,
    )
    assert code == 3


@pytest.mark.parametrize("args", [
    ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]", "n=200"],
    ["weights", "--p1", "[1,0,2]", "--p2", "[0,2,0]", "--delta", "0.3", "--n", "200"],
    ["concentrate", "form=[1,0,1]", "f=principal", "q=6", "k=3", "n=200"],
    ["correlate", "factors=liouville@[1,0]", "form=[1,0,1]", "n=200"],
    ["tk", "form=[1,0,1]", "q=210", "k=10", "n=200", "h_primes=13"],
    ["divstat", "--form", "[1,0,1]", "--primes", "5", "--n", "200"],
])
def test_grid_cap_exit_3(args, capsys):
    code, out, err = run_cli(["--cap-n", "100", *args], capsys)
    assert code == 3 and out == ""
    assert "exceeds cap 100" in err


@pytest.mark.parametrize("args", [
    ["ldelta", "f=liouville", "p1=[1,0,2]", "p2=[0,2,0]", "q=1000000000", "n=10"],
    ["concentrate", "form=[1,0,1]", "f=liouville", "q=10000000000", "k=2", "n=10"],
    ["levelset", "f=liouville", "arc=0.3", "p1=[3000000000000000000,0,1]", "p2=[1,2,-1]"],
])
def test_liouville_past_int64_exit_3(args, capsys):
    """λ on a lattice whose values pass the 2^62 guard needs a table past
    the value cap: refused before any allocation, not an OverflowError."""
    code, out, err = run_cli(args, capsys)
    assert code == 3 and out == ""
    assert "value sieve" in err and "exceeds cap" in err


def test_weights_past_int64_exact(capsys):
    """P1 = 10^13 m^2 + n^2 passes 2^63 at n = 1000: on Python ints the grid
    mean meets the Riemann sum, where wrapped int64 values missed it by 0.018."""
    code, out, _ = run_cli(["weights", "--p1", "[10000000000000,0,1]", "--p2", "[0,2,0]",
                            "--delta", "0.3", "--n", "1000"], capsys)
    assert code == 0 and json.loads(out)["agreement"] <= 8 / 1000


def test_levelset_past_int64(capsys):
    """Form values past 2^63 are searched on Python ints, not refused with an
    OverflowError; the hit's values and f at k * value check by hand."""
    code, out, _ = run_cli(["levelset", "f=arch:0.7", "arc=0.3",
                            "p1=[3000000000000000000,0,1]", "p2=[1,2,-1]"], capsys)
    row = json.loads(out)
    assert code == 0 and row["found"]
    k, m, n = row["k"], row["m"], row["n"]
    assert (row["value1"], row["value2"]) == (3 * 10**18 * m * m + n * n, m * m + 2 * m * n - n * n)
    for value, got in ((row["value1"], row["f_at_k1"]), (row["value2"], row["f_at_k2"])):
        want = cmath.exp(0.7j * math.log(k * value))
        assert got["re"] == pytest.approx(want.real, abs=1e-12)
        assert got["im"] == pytest.approx(want.imag, abs=1e-12)
        assert abs(cmath.phase(want)) < 0.3


BIG_Q = 9261000000  # 2^6 3^3 5^6 7^3: P(Qm+1, Qn) passes 2^62 at every n


def test_divstat_big_lattice_matches_brute_force(capsys):
    n = 60
    code, out, _ = run_cli(["divstat", "--form", "[1,0,1]", "--primes", "13,17",
                            "--q", str(BIG_Q), "--a", "1", "--n", str(n)], capsys)
    assert code == 0
    values = [(BIG_Q * m + 1) ** 2 + (BIG_Q * k) ** 2
              for m in range(1, n + 1) for k in range(1, n + 1)]
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["p"], r["q"]) for r in rows] == [(13, 13), (13, 17), (17, 17)]
    for r in rows:
        hits = sum(all(v % p == 0 and v % (p * p) for p in {r["p"], r["q"]}) for v in values)
        assert r["exact"] == hits / n**2
    assert 0 < rows[0]["exact"] < 1


def test_tk_big_lattice_matches_brute_force(capsys):
    n, primes = 60, (13, 17, 29, 37, 41)
    code, out, _ = run_cli(["tk", "form=[1,0,1]", f"q={BIG_Q}", "k=10", f"n={n}",
                            "h_primes=" + ",".join(map(str, primes))], capsys)
    assert code == 0
    row = json.loads(out)
    mean = row["predicted_mean"]["re"]
    dev = []
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            v = (BIG_Q * m + 1) ** 2 + (BIG_Q * k) ** 2
            dev.append((sum(v % p == 0 and v % (p * p) != 0 for p in primes) - mean) ** 2)
    assert row["variance"] == pytest.approx(math.fsum(dev) / n**2, rel=1e-12)


@pytest.mark.parametrize("d", ["-1000000006", "-1000000009"])
def test_unprintable_unit_exit_3(d, capsys):
    """Units of tens of thousands of digits, past Python's limit on decimal
    conversion, for both the sqrt(|d|) and the (1 + sqrt(|d|))/2 expansion."""
    code, out, err = run_cli(["ring", "unit", "--d", d], capsys)
    assert code == 3 and out == ""
    assert "cannot print the result" in err


def test_run_id_stability():
    values1, canon1, rid1 = resolve_spec("ldelta",
                                         {"f": "liouville", "p1": "[1,0,2]",
                                          "p2": "[0,2,0]", "n": "100"})
    _, _, rid2 = resolve_spec("ldelta",
                              {"n": "100", "p2": "[0,2,0]", "p1": "[1,0,2]",
                               "f": "liouville"})
    assert rid1 == rid2  # order-insensitive canonicalization
    _, _, rid3 = resolve_spec("ldelta",
                              {"f": "liouville", "p1": "[1,0,2]",
                               "p2": "[0,2,0]", "n": "101"})
    assert rid1 != rid3
    # equivalent literals share an id; a different value gets another one
    base = {"f": "principal", "p1": "[1,0,2]", "p2": "[0,2,0]", "n": "150"}
    for key, plain, same, different in (("n", "150", "0150", "151"),
                                        ("p1", "[1,0,2]", "[1, 0,2]", "[1,0,3]"),
                                        ("delta", "0.3", ".30", "0.31"),
                                        ("f", "arch:2.0", "arch:2", "arch:2.5")):
        ref = resolve_spec("ldelta", {**base, key: plain})[2]
        assert resolve_spec("ldelta", {**base, key: same})[2] == ref, key
        assert resolve_spec("ldelta", {**base, key: different})[2] != ref, key
    # ldelta's mode is one of two choices; their ids are pinned
    assert resolve_spec("ldelta", base)[2] == "75e3858ce4b19749"
    assert resolve_spec("ldelta", {**base, "mode": "weighted"})[2] == "75e3858ce4b19749"
    assert resolve_spec("ldelta", {**base, "mode": "pair"})[2] == "60d1cf0f768c1d10"


def _ids(text, args):
    """The run ids of the rows a command printed in its --format."""
    if "--format" in args and args[args.index("--format") + 1] == "csv":
        return [row["run_id"] for row in csv.DictReader(text.splitlines())]
    return [json.loads(line)["run_id"] for line in text.splitlines()]


def _run_ids(args, capsys, out_path=None):
    """The run ids of a command's rows, from stdout or from its --out file."""
    assert main(args) == 0
    return _ids(out_path.read_text() if out_path else capsys.readouterr().out, args)


def test_run_id_ignores_output_options(capsys, tmp_path):
    query = ["classify", "1", "2", "6"]
    (want,) = _run_ids(query, capsys)
    for extra in (["--threads", "2"], ["--format", "csv"], ["--cap-n", "500"]):
        assert _run_ids([*query, *extra], capsys) == [want], extra
    out = tmp_path / "out.json"
    assert _run_ids([*query, "--out", str(out)], capsys, out) == [want]
    assert _run_ids([*query, "--pair", "xz"], capsys) != [want]
    assert _run_ids(["classify", "1", "2", "7"], capsys) != [want]
    ids = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        ids += _run_ids(["distance", "--f", "liouville", "--y", "100", "--out", str(out)],
                        capsys, out)
    assert ids[0] == ids[1]


@pytest.mark.parametrize("repeated, once", [
    (["divstat", "--form", "[1,0,1]", "--primes", "5,5", "--n", "50"],
     ["divstat", "--form", "[1,0,1]", "--primes", "5", "--n", "50"]),
    (["tk", "form=[1,0,1]", "q=210", "k=10", "n=50", "h_primes=13,13"],
     ["tk", "form=[1,0,1]", "q=210", "k=10", "n=50", "h_primes=13"]),
    (["obstruct", "--split", "2,2", "3,7,3"], ["obstruct", "--split", "2", "3,7"]),
])
def test_repeated_integers_share_the_run_id(repeated, once, capsys):
    """A list of integers is read as a set: a repeat moves neither the rows
    nor the run id."""
    assert main(repeated) == 0
    got = capsys.readouterr().out
    assert main(once) == 0
    assert got == capsys.readouterr().out


@pytest.mark.parametrize("args, given", [
    (["distance", "--f", "liouville", "--y", "10", "--profile", "100"], "--y and --profile"),
    (["divstat", "--form", "[1,0,1]", "--primes", "5", "--bound-l", "10"],
     "--primes and --bound-l"),
    (["omega", "--form", "[1,0,1]", "--hensel", "5,2,2", "--partner", "[1,0,2]"],
     "--hensel and --partner"),
    (["omega", "--form", "[1,0,1]", "--congruence-pair", "[1,0,2]", "--fast"],
     "--congruence-pair and --fast"),
    (["omega", "--form", "[1,0,1]", "--hensel", "5,2,2", "--partner", "[1,0,2]",
      "--congruence-pair", "[1,0,2]", "--fast"],
     "--hensel and --partner and --congruence-pair and --fast"),
    (["sweep", "--sub", "distance", "--axis", "x", "--values", "1,2", "f=liouville", "y=10",
      "profile=100"], "--y and --profile"),
])
def test_two_modes_exit_2(args, given, capsys):
    """Parameters that each pick a mode exclude each other: a second one
    would be ignored, yet enter the run id."""
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {given} exclude each other\n"


def test_sweep_rows_match_direct_runs(capsys):
    code, out, _ = run_cli(
        ["sweep", "--sub", "verify-coloring", "--axis", "bound", "--values", "200,500",
         "a=3", "b=5", "c=30", "coloring=dyadic:6"],
        capsys,
    )
    assert code == 0
    swept = [json.loads(line) for line in out.splitlines()]
    for row, bound in zip(swept, ("200", "500"), strict=True):
        code, out, _ = run_cli(
            ["verify-coloring", "3", "5", "30", "--coloring", "dyadic:6", "--bound", bound],
            capsys,
        )
        assert code == 0
        assert row == {**json.loads(out), "axis": "bound", "axis_value": bound}


@pytest.mark.parametrize("args", [
    ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]", "n=abc"],
    ["concentrate", "form=[1,0,1]", "f=liouville", "chi=4", "q=6", "k=3", "n=100"],
    ["tk", "form=[1,0,1]", "q=210", "k=10", "n=100", "h_primes=13,x"],
    ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]", "n=150", "mode=wighted"],
    ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]", "n=0"],
    ["divstat", "--form", "[1,0,1]", "--primes", "5,13", "--n", "0"],
    ["verify-coloring", "1", "1", "2", "--coloring", "rado:9", "--bound", "200"],
    ["ring", "norm", "--d", "-1", "--element", "1-1*tau"],
    ["ring", "unit", "--d", "-1"],
    ["ring", "count-ideals", "--d", "-1", "--k", "6"],
    ["tk", "form=[1,0,1]", "q=210", "k=0", "n=100", "h_primes=13"],
    ["tk", "form=[1,0,1]", "q=210", "k=-3", "n=100", "h_primes=13"],
    ["distance", "--f", "liouville", "--y", "nan"],
    ["distance", "--f", "liouville", "--profile", "1e3,nan"],
    ["distance", "--f", "liouville", "--x", "nan", "--y", "100"],
    ["distance", "--f", "liouville", "--y", "inf"],
    # NaN fails every bound: |f| <= 1 and |h(p)| <= 1 must refuse it
    ["ldelta", "f=prime-patch:10:100:nan", "p1=[1,0,2]", "p2=[0,2,0]", "delta=0.05", "n=500"],
    ["tk", "form=[1,0,1]", "q=210", "k=10", "n=100", "h_primes=13", "h_value=nan"],
    # the support of h holds primes only: 13**2, 13*17 and 5**2 are refused
    *(["tk", "form=[1,0,1]", "q=210", "k=10", "n=300", f"h_primes={p}"] for p in ("169", "221", "25")),
    # t * ln n must be finite: ln n < 710 for every float n
    *(["ldelta", f"f={f}", "p1=[1,0,2]", "p2=[0,2,0]", "delta=0.3", "n=200"]
      for f in ("arch:nan", "arch:inf", "arch:-inf", "twisted:7:2:nan", "arch:1e308")),
    # the residue count is taken at primes only
    *(["omega", "--form", "[1,0,1]", "--modulus", m, "--fast"] for m in ("9", "21", "1", "4")),
    # and so is a Hensel lift
    *(["omega", "--form", form, "--hensel", h]
      for form, h in (("[1,0,-4]", "6,2,2"), ("[1,0,-4]", "0,0,2"), ("[1,0,-1]", "15,4,2"))),
    # the twist's t, as f's
    ["concentrate", "form=[1,0,1]", "f=liouville", "t=inf", "q=6", "k=3", "n=200"],
    # the regularity constant C must be finite
    ["ring", "regular", "--d", "1", "--element", "2+1*tau", "--c-bound", "nan", "--box", "30"],
    ["ring", "associate", "--d", "-2", "--element", "2+1*tau", "--c-bound", "inf", "--box", "30"],
    # exact divisibility is counted at primes only
    *(["divstat", "--form", "[1,0,1]", "--primes", p, "--n", "50"] for p in ("0", "1", "4", "5,9")),
    # a character index outside [0, phi(q))
    ["distance", "--f", "char:5:-1", "--y", "100"],
    ["concentrate", "form=[1,0,1]", "f=liouville", "chi=5:4", "q=30", "k=3", "n=100"],
    # a named function or coloring with a field more or less
    *(["distance", "--f", f, "--y", "100"]
      for f in ("liouville:junk", "principal:7", "arch:2.0:zzz", "char:4:1:junk", "char:4",
                "twisted:4:1:0.5:x", "prime-patch:10:100:-1:9")),
    *(["verify-coloring", "3", "5", "30", "--coloring", c, "--bound", "200"]
      for c in ("rado:5:junk", "two-adic:9", "dyadic:3:1", "rado")),
])
def test_malformed_value_exit_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("args, row", [
    (["omega", "--form", "[1,0,-4]", "--modulus", "7", "--fast"],
     {"quantity": "local_root_count", "count": 2, "method": "residue"}),
    (["omega", "--form", "[1,0,1]", "--modulus", "13", "--fast"],
     {"quantity": "local_root_count", "count": 2, "method": "residue"}),
    (["omega", "--form", "[1,1,2]", "--partner", "[1,1,1]", "--modulus", "1"],
     {"quantity": "partner_prime_sets", "set1": [], "set2": []}),
])
def test_omega_rows(args, row, capsys):
    code, out, _ = run_cli(args, capsys)
    got = json.loads(out)
    del got["run_id"]
    assert code == 0 and got == row


def test_coefficient_overflow_exit_3(capsys):
    code, out, err = run_cli(
        ["verify-coloring", "2305843009213693952", "1", "1", "--coloring", "two-adic",
         "--bound", "10"],
        capsys,
    )
    assert code == 3 and out == ""
    assert "overflows int64" in err


def _raise_on_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("primes, pairs", [
    ("2", [(2, 2)]),
    ("5,5", [(5, 5)]),
    ("5,13,5", [(5, 5), (5, 13), (13, 13)]),
    ("2,5", [(2, 2), (2, 5), (5, 5)]),
])
def test_divstat_rows_are_json_once_per_pair(primes, pairs, capsys):
    """A prime outside the predicted regime gives null, not NaN, and a
    repeated prime adds no row."""
    code, out, _ = run_cli(["divstat", "--form", "[1,0,1]", "--primes", primes, "--n", "50"],
                           capsys)
    rows = [json.loads(line, parse_constant=_raise_on_constant) for line in out.splitlines()]
    assert code == 0 and [(r["p"], r["q"]) for r in rows] == pairs
    for r in rows:
        assert (r["predicted"] is None) == (r["abs_err"] is None) == (2 in (r["p"], r["q"]))


def test_divstat_csv_leaves_null_cells_empty(capsys):
    code, out, _ = run_cli(
        ["--format", "csv", "divstat", "--form", "[1,0,1]", "--primes", "2,5", "--n", "50"], capsys
    )
    rows = list(csv.DictReader(out.splitlines()))
    assert code == 0 and [(r["predicted"], r["abs_err"]) for r in rows[:2]] == [("", "")] * 2
    assert float(rows[2]["abs_err"]) == abs(float(rows[2]["exact"]) - float(rows[2]["predicted"]))


def test_readme_examples_resolve(capsys, monkeypatch):
    """Every README CLI example parses and resolves through COMMANDS; the
    handlers are stubbed, so nothing is computed."""
    called = []

    def stub(values, threads):
        called.append(values)
        return [{"quantity": "stub"}]

    for name, cmd in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, name, cmd._replace(handler=stub))
    examples = readme_examples()
    assert len(examples) == 21  # 20 single lines and the two-line sweep
    for args in examples:
        code, out, err = run_cli(args, capsys)
        assert code == 0, (args, err)
        assert all(len(rid) == 16 for rid in _ids(out, args))
    assert len(called) == 20 + 4  # the sweep runs four points


def test_parse_kv_text_rejects_garbage():
    assert parse_kv_text("a = 1\n\n# note\nb=2") == {"a": "1", "b": "2"}
    with pytest.raises(DomainError):
        parse_kv_text("not a pair")


def test_dyadic_witness_round_trip(capsys):
    code, out, _ = run_cli(["classify", "3", "5", "30"], capsys)
    row = json.loads(out)
    assert row["witness_coloring"] == "dyadic:6"
    code, out, _ = run_cli(
        ["verify-coloring", "3", "5", "30", "--coloring", row["witness_coloring"],
         "--bound", "500"],
        capsys,
    )
    assert json.loads(out)["monochromatic"] == 0
