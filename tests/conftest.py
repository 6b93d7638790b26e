"""Shared fixtures plus the acceptance-criterion result reporter."""

from __future__ import annotations

import contextlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOY_DIR = REPO_ROOT / "data" / "toy"

_RESULTS: dict[int, str] = {}


@contextlib.contextmanager
def criterion(number: int, name: str):
    """Record one pass/fail/skip line per acceptance criterion."""
    try:
        yield
    except pytest.skip.Exception:
        _RESULTS[number] = f"criterion {number} ({name}): SKIP"
        raise
    except BaseException:
        _RESULTS[number] = f"criterion {number} ({name}): FAIL"
        raise
    _RESULTS[number] = f"criterion {number} ({name}): PASS"


# The one test that may skip: criterion 9 sends only when a live endpoint is set.
MAY_SKIP = "test_acceptance.py::test_criterion_9_live_backend_smoke"


def _unexpected_skips(config) -> list[str]:
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    skipped = reporter.stats.get("skipped", []) if reporter is not None else []
    return [report.nodeid for report in skipped if not report.nodeid.endswith(MAY_SKIP)]


def pytest_sessionfinish(session, exitstatus):
    """A run that would pass fails when a test other than MAY_SKIP skipped."""
    if exitstatus == pytest.ExitCode.OK and _unexpected_skips(session.config):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    skips = _unexpected_skips(config)
    if skips:
        terminalreporter.section("unexpected skips")
        for nodeid in skips:
            terminalreporter.write_line(f"{nodeid}: skipped; only {MAY_SKIP} may skip")
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        terminalreporter.write_line(_RESULTS[number])


@pytest.fixture(scope="session")
def toy_files() -> dict[str, Path]:
    return {
        "users": TOY_DIR / "users.jsonl",
        "items": TOY_DIR / "items.jsonl",
        "reviews": TOY_DIR / "reviews.jsonl",
    }
