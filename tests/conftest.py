import faulthandler
import os
import sys

import pytest
from hypothesis import settings

# A test still running after this many seconds ends the run with the
# traceback of every thread and a nonzero exit, so a hang fails instead of
# stalling the suite; the slowest test takes about 4 s.
HANG_LIMIT_S = 120
_hang_report = pytest.StashKey[int]()


def pytest_configure(config):
    # stderr as it is outside the capture of each test's output
    config.stash[_hang_report] = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def _fail_on_hang(pytestconfig):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=pytestconfig.stash[_hang_report])
    yield
    faulthandler.cancel_dump_traceback_later()


# Oracle tests compare fast paths with slow reference loops whose time per
# example swings with the machine's load, so they take no per-example
# deadline: @settings(settings.get_profile("oracle"), ...).
settings.register_profile("oracle", deadline=None)

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"{outcome:6s} {name}")
