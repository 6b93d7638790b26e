"""Shared fixtures plus the acceptance-criterion result reporter."""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Callable

import pytest

from recteacher.cli import main
from recteacher.gateway import ChatReply, Origin
from recteacher.oracle import OracleBackend

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


def toy_chain(d: Path, *, verbalize: bool, limit: int | None = None) -> dict[str, Path]:
    """Run ingest, build-graph, verbalize (when `verbalize`) and make-instances on the toy corpus.

    Every artifact goes under `d`; `limit` is make-instances' `--limit`. Returns the
    paths by name; `cache` is written only when `verbalize` is set.
    """
    paths = {"corpus": d / "corpus", "graph": d / "graph.jsonl", "cache": d / "cache.jsonl",
             "instances": d / "instances.jsonl"}
    corpus, graph = str(paths["corpus"]), str(paths["graph"])
    steps = [
        ["ingest", "--users", str(TOY_DIR / "users.jsonl"), "--items", str(TOY_DIR / "items.jsonl"),
         "--reviews", str(TOY_DIR / "reviews.jsonl"), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph,
         "--out", str(paths["cache"])] if verbalize else None,
        ["make-instances", "--corpus", corpus, *(["--limit", str(limit)] if limit else []),
         "--out", str(paths["instances"])],
    ]
    for argv in filter(None, steps):
        assert main(argv) == 0, argv
    return paths


def no_send(origin: Origin) -> AssertionError:
    """The reply of a send that should not happen: the error it raises."""
    return AssertionError(f"no send expected, got one from {origin}")


def steer_oracle(monkeypatch, reply: Callable[[Origin], str | BaseException | None] = no_send,
                 ) -> list[Origin]:
    """Make `--backend mock` reply by origin, and return the origins sent, in send order.

    `reply(origin)` answers each send: a string is the reply, an exception is
    raised, and None leaves the oracle's own reply. Without `reply` every
    send fails with "no send expected".
    """
    sent: list[Origin] = []

    class SteeredOracle(OracleBackend):
        def send(self, request):
            sent.append(request.origin)
            answer = reply(request.origin)
            if answer is None:
                return super().send(request)
            if isinstance(answer, BaseException):
                raise answer
            return ChatReply(content=answer)

    monkeypatch.setattr("recteacher.cli.OracleBackend", SteeredOracle)
    return sent
