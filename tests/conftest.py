"""Shared test fixtures and the acceptance-criteria reporter.

Each acceptance test records a single PASS/FAIL/SKIP line; the lines are
printed together in the terminal summary so the whole gate can be read at
a glance.
"""

import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so a tier-1 result repeats
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

_RESULTS: list[tuple[str, str, str]] = []


def _record(name: str, status: str, detail: str = "") -> None:
    _RESULTS.append((name, status, detail))


@pytest.fixture
def criterion():
    """Returns check(name, ok, detail): records the verdict, then asserts."""

    def check(name: str, ok: bool, detail: str = "") -> None:
        _record(name, "PASS" if ok else "FAIL", detail)
        assert ok, f"{name}: {detail}"

    return check


@pytest.fixture
def criterion_skip():
    def skip(name: str, reason: str) -> None:
        _record(name, "SKIP", reason)
        pytest.skip(reason)

    return skip


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in _RESULTS:
        line = f"{status:4s} {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
