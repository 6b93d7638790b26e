"""A session that can fill misses prefetches its user's UserCF evidence as it starts.

Above one gateway slot the fill runs beside the history abstraction and the
plan, at the session's own rank, and the agents' tool calls find it done or
join it. The sends are the same, only earlier, so every artifact is the same
as a serial run's. Replies and holds are keyed on `request.origin`.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
import hashlib
import json
import logging
import random
import sys
import threading
import time

import pytest

import recteacher.cli
from recteacher.abstract import SUMMARIZER
from recteacher.cli import main
from recteacher.errors import GatewayError
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.oracle import OracleBackend
from recteacher.tags import ToolCall
from recteacher.teacher import (
    Phase,
    PhaseRecord,
    SessionLog,
    SubtaskKind,
    TeacherContext,
    ToolRunner,
    execute_subtask,
    session_evidence_call,
)
from recteacher.verbalize import Evidence, EvidenceCache

from test_teacher import idle_gateway
from test_toy_digests import DIGESTS

WAIT_S = 10.0  # every hold gives up after this, so a broken prefetch fails a test, never hangs

# The toy run's on-demand sends at --parallel 1, one "role subject send turn"
# line each, as the serial run sent them before sessions prefetched.
SERIAL_ON_DEMAND_SENDS = 387
SERIAL_ON_DEMAND_SHA256 = "0644343ff08db30af31b59cb053f78048633ae1f100d2369131e7a852c722566"
# The toy run's sends on a warm cache, on-demand or not, at any --parallel.
WARM_SENDS = 357


@pytest.fixture(scope="module")
def toy(toy_files, tmp_path_factory):
    d = tmp_path_factory.mktemp("prefetch")
    corpus, graph = str(d / "corpus"), str(d / "graph.jsonl")
    steps = [
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph,
         "--out", str(d / "cache.jsonl")],
        ["make-instances", "--corpus", corpus, "--scenario", "Classic",
         "--out", str(d / "instances.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return d


class RecordingOracle(OracleBackend):
    """The oracle, recording each send's origin and counting the sends in flight."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.origins = []
        self.in_flight = 0

    def send(self, request):
        with self._lock:
            self.origins.append(request.origin)
            self.in_flight += 1
        try:
            self.before(request)
            return super().send(request)
        finally:
            with self._lock:
                self.in_flight -= 1

    def before(self, request):
        """Called on each send before the reply; subclasses hold or fail sends here."""


def run_teacher(toy, tmp_path, monkeypatch, oracle=RecordingOracle, *, cache=None,
                instances=None, parallel="2"):
    """run-teacher with on-demand fills on the toy instances; returns the oracle it used."""
    made = []

    def make(**kwargs):
        made.append(oracle(**kwargs))
        return made[-1]

    monkeypatch.setattr(recteacher.cli, "OracleBackend", make)
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(toy / "corpus"),
                 "--graph", str(toy / "graph.jsonl"),
                 "--cache", str(cache or tmp_path / "cache.jsonl"),
                 "--instances", str(instances or toy / "instances.jsonl"),
                 "--out", str(tmp_path / "sessions.jsonl"), "--parallel", parallel]) == 0
    (backend,) = made
    return backend


def one_instance(toy, tmp_path, user):
    path = tmp_path / f"{user}.jsonl"
    for line in (toy / "instances.jsonl").read_text(encoding="utf-8").splitlines():
        if json.loads(line)["user"] == user:
            path.write_text(line + "\n", encoding="utf-8")
            return path
    raise AssertionError(f"no toy instance for {user}")


def is_evidence_of(origin, user):
    key = session_evidence_call(user)
    return origin.role == key.name and origin.subject == user


def origin_line(origin):
    role = origin.role
    if isinstance(role, tuple):
        role = f"{role[0].value}/{role[1].value}"
    elif isinstance(role, Phase):
        role = role.value
    return f"{role} {origin.subject} {origin.send} {origin.turn}"


def prefetch_counts(caplog):
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("evidence prefetches: ")]
    return line


# ------------------------------------------------------------------ the prefetch

@pytest.mark.parametrize("user", ["u001", "u010"])  # u010's history needs no summary
def test_a_session_sends_its_user_evidence_before_its_first_reply(toy, tmp_path, monkeypatch,
                                                                  user):
    arrived, held = threading.Event(), []

    class HoldingOracle(RecordingOracle):
        def before(self, request):
            origin = request.origin
            if is_evidence_of(origin, user):
                arrived.set()
            elif origin.role in (SUMMARIZER, Phase.PLAN) and not held:
                held.append(arrived.wait(timeout=WAIT_S))

    backend = run_teacher(toy, tmp_path, monkeypatch, HoldingOracle,
                          instances=one_instance(toy, tmp_path, user))
    assert held == [True]
    assert sum(is_evidence_of(origin, user) for origin in backend.origins) == 1


def test_one_slot_keeps_the_serial_send_order(toy, tmp_path, monkeypatch, caplog):
    with caplog.at_level(logging.INFO, logger="recteacher"):
        backend = run_teacher(toy, tmp_path, monkeypatch, parallel="1")
    lines = [origin_line(origin) for origin in backend.origins]
    assert len(lines) == SERIAL_ON_DEMAND_SENDS
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SERIAL_ON_DEMAND_SHA256
    # the first session asks for its evidence only in its first agent's tool round
    first = lines[:lines.index("plan u001 0 0") + 4]
    assert first[-3:] == ["user_profile u001 0 0", "UserCF u001 0 0", "user_profile u001 1 0"]
    assert prefetch_counts(caplog) == "evidence prefetches: 0 started, 0 named by no session, 0 failed"


@pytest.mark.parametrize("parallel", ["1", "2", "4"])
def test_a_warm_cache_starts_no_prefetch(toy, tmp_path, monkeypatch, caplog, parallel):
    cache = tmp_path / "warm.jsonl"
    cache.write_bytes((toy / "cache.jsonl").read_bytes())
    with caplog.at_level(logging.INFO, logger="recteacher"):
        backend = run_teacher(toy, tmp_path, monkeypatch, cache=cache, parallel=parallel)
    assert backend.sends == WARM_SENDS
    assert cache.read_bytes() == (toy / "cache.jsonl").read_bytes()
    assert prefetch_counts(caplog) == "evidence prefetches: 0 started, 0 named by no session, 0 failed"


def test_on_demand_sends_are_the_same_at_one_and_four_slots(toy, tmp_path, monkeypatch, caplog):
    runs = {}
    for parallel in ("1", "4"):
        (tmp_path / parallel).mkdir()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="recteacher"):
            runs[parallel] = run_teacher(toy, tmp_path / parallel, monkeypatch, parallel=parallel)
        for name in ("sessions.jsonl", "cache.jsonl"):
            digest = hashlib.sha256((tmp_path / parallel / name).read_bytes()).hexdigest()
            assert digest == DIGESTS[f"od_{name}"], (parallel, name)
    assert runs["1"].sends == runs["4"].sends == SERIAL_ON_DEMAND_SENDS
    assert sorted(map(origin_line, runs["1"].origins)) == sorted(map(origin_line, runs["4"].origins))
    sessions = len((toy / "instances.jsonl").read_text(encoding="utf-8").splitlines())
    assert prefetch_counts(caplog) == (f"evidence prefetches: {sessions} started, "
                                       "0 named by no session, 0 failed")


# ------------------------------------------------------------------ robustness

def test_an_unnamed_prefetch_is_never_written_and_never_outlives_the_run(toy, tmp_path,
                                                                         monkeypatch, caplog):
    class ItemOracle(RecordingOracle):
        """Agents call ItemCF on one item only; the prefetched UserCF evidence comes late."""

        def _subtask(self, kind, user, send):
            if send == 0:
                call = json.dumps({"name": "ItemCF", "arguments": {"item_id": "i001"}})
                return f"Pulling item evidence first.\n<tool_call>{call}</tool_call>"
            return super()._subtask(kind, user, send)

        def before(self, request):
            if request.origin.role == "UserCF":
                time.sleep(0.2)  # longer than the rest of the session

    users = ["u001", "u002", "u010"]
    instances = tmp_path / "three.jsonl"
    instances.write_text("".join(one_instance(toy, tmp_path, user).read_text(encoding="utf-8")
                                 for user in users), encoding="utf-8")
    serial = tmp_path / "serial"
    serial.mkdir()
    run_teacher(toy, serial, monkeypatch, ItemOracle, instances=instances, parallel="1")
    with caplog.at_level(logging.INFO, logger="recteacher"):
        backend = run_teacher(toy, tmp_path, monkeypatch, ItemOracle, instances=instances)
    assert backend.in_flight == 0  # main joined every prefetch before it returned
    assert sorted(origin.subject for origin in backend.origins if origin.role == "UserCF") == users
    for name in ("sessions.jsonl", "cache.jsonl"):
        assert (tmp_path / name).read_bytes() == (serial / name).read_bytes(), name
    cached = [json.loads(line) for line in
              (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(entry["tool"], entry["anchor"]) for entry in cached] == [("ItemCF", "i001")]
    assert prefetch_counts(caplog) == "evidence prefetches: 3 started, 3 named by no session, 0 failed"


class FailingPrefetchOracle(RecordingOracle):
    """Fails the first send of the session user's evidence; the others are answered."""

    user = "u001"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.failed = threading.Event()
        self.evidence_sends = 0

    def before(self, request):
        if not is_evidence_of(request.origin, self.user):
            return
        with self._lock:
            self.evidence_sends += 1
            first = self.evidence_sends == 1
        if first:
            self.hold_failure()
            self.failed.set()
            raise GatewayError("server_error", "injected prefetch failure")

    def hold_failure(self):
        """Called before the first evidence send fails."""


def check_failed_prefetch(toy, tmp_path, monkeypatch, caplog, oracle):
    clean = tmp_path / "clean"
    clean.mkdir()
    instances = one_instance(toy, tmp_path, oracle.user)
    run_teacher(toy, clean, monkeypatch, instances=instances)
    with caplog.at_level(logging.INFO, logger="recteacher"):
        backend = run_teacher(toy, tmp_path, monkeypatch, oracle, instances=instances)
    for name in ("sessions.jsonl", "cache.jsonl"):
        assert (tmp_path / name).read_bytes() == (clean / name).read_bytes(), name
    assert backend.evidence_sends == 2  # the failed prefetch, then the agents' own fill
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warning.startswith(f"user {oracle.user}: prefetch of UserCF({oracle.user}) failed: ")
    assert "injected prefetch failure" in warning
    assert prefetch_counts(caplog) == "evidence prefetches: 1 started, 0 named by no session, 1 failed"
    return backend


def test_a_prefetch_that_fails_before_an_agent_asks_fails_no_session(toy, tmp_path, monkeypatch,
                                                                     caplog):
    plan_held = []

    class FailsFirst(FailingPrefetchOracle):
        def before(self, request):
            if request.origin.role is Phase.PLAN:
                plan_held.append(self.failed.wait(timeout=WAIT_S))
            super().before(request)

    check_failed_prefetch(toy, tmp_path, monkeypatch, caplog, FailsFirst)
    assert plan_held == [True]


def test_a_prefetch_that_fails_after_an_agent_joined_it_fails_no_session(toy, tmp_path,
                                                                         monkeypatch, caplog):
    joined = threading.Event()
    key_lock = ToolRunner._key_lock

    class SignallingLock:
        """A key's lock that says when a caller other than a prefetch waits for it."""

        def __init__(self, lock):
            self._lock = lock

        def locked(self):
            return self._lock.locked()

        def __enter__(self):
            if not threading.current_thread().name.startswith("prefetch-"):
                joined.set()
            return self._lock.__enter__()

        def __exit__(self, *exc_info):
            return self._lock.__exit__(*exc_info)

    class FailsLate(FailingPrefetchOracle):
        def hold_failure(self):
            assert joined.wait(timeout=WAIT_S), "no agent joined the prefetch"

    monkeypatch.setattr(ToolRunner, "_key_lock", lambda self, key: SignallingLock(key_lock(self, key)))
    check_failed_prefetch(toy, tmp_path, monkeypatch, caplog, FailsLate)
    assert joined.is_set()


# ------------------------------------------------------------------ ToolRunner

def test_a_tool_call_fills_through_the_asking_sessions_handle():
    sent_through = []

    def fill(key, gateway):
        sent_through.append((key.anchor, gateway))
        return Evidence(key, f"about {key.anchor}", (), 0)

    def agent(request, _index):
        if request.origin.send == 0:
            call = json.dumps({"name": "UserCF", "arguments": {"user_id": "B"}})
            return f"<tool_call>{call}</tool_call>"
        return '<JSON>["done"]</JSON>'

    runner = ToolRunner(EvidenceCache(), fill)
    root = Gateway(ScriptBackend([agent] * 2), GatewayConfig(max_parallel=2), sleep=lambda s: None)
    session = root.for_session(0)
    with runner.prefetch("A", session):
        pass
    context = TeacherContext(user="B", candidates=("c",), prompt="prompt")
    record = execute_subtask(SubtaskKind.USER_PROFILE, context, runner, session)
    assert record.tool_events == ((session_evidence_call("B"), "about B"),)
    with runner.prefetch("A", session), runner.prefetch("B", session):  # filled: nothing starts
        pass
    assert sent_through == [("A", session), ("B", session)]
    assert (runner.prefetches_started, runner.prefetches_unnamed) == (1, 1)
    runner.persist(SessionLog(user="A", candidates=("c",), final_ranking=("c",), phases=(
        PhaseRecord(Phase.USER_PROFILE, tool_events=((session_evidence_call("A"), "about A"),)),)))
    assert runner.prefetches_unnamed == 0


def test_a_key_being_filled_starts_no_prefetch():
    entered, release, fills = threading.Event(), threading.Event(), []

    def fill(key, _gateway):
        fills.append(key.anchor)
        entered.set()
        assert release.wait(timeout=WAIT_S)
        return Evidence(key, f"about {key.anchor}", (), 0)

    runner = ToolRunner(EvidenceCache(), fill)
    session = Gateway(ScriptBackend([]), GatewayConfig(max_parallel=2),
                      sleep=lambda s: None).for_session(0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        agent = pool.submit(runner.run, session_evidence_call("A"), session)
        assert entered.wait(timeout=WAIT_S)
        with runner.prefetch("A", session):  # the agent's fill of the key is in flight
            release.set()
        assert agent.result(timeout=WAIT_S) == "about A"
    assert runner.prefetches_started == 0
    assert fills == ["A"]


def test_a_failed_fill_reaches_only_the_caller_that_sent_it():
    anchors = [f"i{n}" for n in range(16)]
    attempts, lock = Counter(), threading.Lock()

    def fill(key, _gateway):
        with lock:
            attempts[key.anchor] += 1
            first = attempts[key.anchor] == 1
        time.sleep(0.001)  # let other callers join the fill in flight
        if first:
            raise GatewayError("server_error", "the first fill of each key fails")
        return Evidence(key, f"about {key.anchor}", (), 0)

    runner = ToolRunner(EvidenceCache(), fill)
    gateway = idle_gateway()

    def worker(seed):
        order = list(anchors)
        random.Random(seed).shuffle(order)
        failures, texts = 0, {}
        for anchor in order:
            try:
                texts[anchor] = runner.run(ToolCall("ItemCF", anchor), gateway)
            except GatewayError:
                failures += 1
        return failures, texts

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=30)
                       for future in [pool.submit(worker, seed) for seed in range(8)]]
    finally:
        sys.setswitchinterval(previous)
    # each key's failed send failed its own caller only; a caller that waited on it filled again
    assert sum(failures for failures, _ in results) == len(anchors)
    assert attempts == {anchor: 2 for anchor in anchors}
    for _, texts in results:
        assert all(text == f"about {anchor}" for anchor, text in texts.items())
