"""Shared pytest plumbing: acceptance-criterion result lines and call counting."""

import pytest

_criterion_lines = []


def record_criterion(num, description, passed, elapsed, budget):
    _criterion_lines.append(
        (num, f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] "
              f"{description} ({elapsed:.1f}s, budget {budget:.0f}s)")
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(owner, name)` replaces `owner.name` (a module function
    or a class's method) for the test by a wrapper that calls through, and
    returns the list to which each call appends its `(args, kwargs)`."""

    def install(owner, name):
        calls = []
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
