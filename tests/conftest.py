"""Shared pytest wiring.

The acceptance tests record one PASS/FAIL line per criterion.  Output capture
would hide those lines for passing tests, so they are replayed in the terminal
summary, after capture has ended.
"""

import sys

import pytest


@pytest.fixture
def interval_builds(monkeypatch):
    """Every DyadicInterval built while the test runs, in order."""
    from ratiocert import numerics

    built = []
    original = numerics.DyadicInterval.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(numerics.DyadicInterval, "__post_init__", counting)
    return built


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "ACCEPTANCE_LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
