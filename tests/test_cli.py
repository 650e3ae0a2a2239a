import csv
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qpairs.cli import COMMANDS, main, parse_kv_text, resolve_spec
from qpairs.errors import DomainError


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
])
def test_grid_cap_exit_3(args, capsys):
    code, out, err = run_cli(["--cap-n", "100", *args], capsys)
    assert code == 3 and out == ""
    assert "exceeds cap 100" in err


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
])
def test_malformed_value_exit_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")


def test_coefficient_overflow_exit_3(capsys):
    code, out, err = run_cli(
        ["verify-coloring", "2305843009213693952", "1", "1", "--coloring", "two-adic",
         "--bound", "10"],
        capsys,
    )
    assert code == 3 and out == ""
    assert "overflows int64" in err


def _readme_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qpairs ")]


def test_readme_examples_resolve(capsys, monkeypatch):
    """Every README CLI example parses and resolves through COMMANDS; the
    handlers are stubbed, so nothing is computed."""
    called = []

    def stub(values, threads):
        called.append(values)
        return [{"quantity": "stub"}]

    for name, cmd in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, name, cmd._replace(handler=stub))
    examples = _readme_examples()
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
