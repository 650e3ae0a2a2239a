import pytest
from hypothesis import settings

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
