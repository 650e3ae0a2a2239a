"""tools/peak_rss.py: its arguments, and its lines on a fast command."""

import contextlib
import hashlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from qpairs import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
_spec = importlib.util.spec_from_file_location("peak_rss", _PATH)
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)

_LINE = re.compile(r"run (\d+): wall_s=(\d+\.\d{3}) peak_rss_mb=(\d+\.\d) exit=(-?\d+) stdout_sha256=([0-9a-f]{12})")


def test_arguments():
    args = peak_rss.parse_args(["--repeat", "3", "classify", "3", "5", "7", "--pair", "xy"])
    assert (args.repeat, args.argv) == (3, ["classify", "3", "5", "7", "--pair", "xy"])
    args = peak_rss.parse_args(["--", "--format", "csv", "classify", "3", "5", "7"])
    assert (args.repeat, args.argv) == (1, ["--format", "csv", "classify", "3", "5", "7"])
    for bad in ([], ["--repeat", "0", "classify", "3", "5", "7"], ["--repeat", "2"]):
        with pytest.raises(SystemExit):
            peak_rss.parse_args(bad)


def test_describe():
    run = {"wall_s": 0.25049, "peak_rss_mb": 37.26, "exit": 3, "stdout_sha256": "ab" * 32}
    assert peak_rss.describe(run) == "wall_s=0.250 peak_rss_mb=37.3 exit=3 stdout_sha256=abababababab"


def test_runs_of_a_fast_command(capsys):
    """Two runs of classify 3 5 7, each its own line, with the exit code and
    the stdout hash of the same command run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", "3", "5", "7"])
    assert peak_rss.main(["--repeat", "2", "classify", "3", "5", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, 1):
        run, wall, rss, exit_code, sha = _LINE.fullmatch(line).groups()
        assert (int(run), int(exit_code), sha) == (i, code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:12])
        assert float(wall) > 0 and 1 < float(rss) < 1000
