"""Instrumentation the benchmark installs around the program, from outside.

Nothing under `src/` is edited. Each probe replaces a name where its caller
looks it up (for example `recteacher.cli.build_graph`, or the class attribute
`OracleBackend.send`); `install` returns the patches, whose `restore` puts
the originals back.

Two kinds of probe:
- `MockLLM` wraps `OracleBackend.send` in every run. It injects a fixed
  latency inside the gateway slot, so the delay counts toward `max_parallel`,
  and logs each send's interval and the session it belongs to.
- `Tracer` records a span at each layer boundary (name, start, end, parent
  span, session id, extra) in memory. Only the traced run installs it.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import recteacher.cli
import recteacher.corpus
import recteacher.gateway
import recteacher.oracle
import recteacher.prompts
import recteacher.rewards
import recteacher.teacher
import recteacher.trajectory
import recteacher.verbalize

clock = time.perf_counter

# A send belongs to the session of the user named in its first user message:
# instance prompts carry "(Value: <uid>)", abstraction and UserCF-evidence
# prompts carry a "user_id: <uid>" line.
_INSTANCE_USER = re.compile(r"\(Value: (\S+)\)")
_USER_LINE = re.compile(r"^user_id: ([^\s|]+)", re.MULTILINE)


def session_user(request: Any) -> str | None:
    """User id a chat request is about, or None (ItemCF evidence names none)."""
    for message in request.messages:
        if message["role"] == "user":
            text = message["content"]
            match = _INSTANCE_USER.search(text) or _USER_LINE.search(text)
            return match.group(1) if match else None
    return None


class _Patches:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Send:
    user: str | None
    start: float
    end: float
    chars: int


@dataclass
class MockLLM:
    """Latency injection and a send log around the oracle backend.

    `latency_s` is read on every send, so the harness can set it for the timed
    part only.
    """

    latency_s: float = 0.0
    sends: list[Send] = field(default_factory=list)
    local: threading.local = field(default_factory=threading.local)

    def install(self) -> _Patches:
        patches = _Patches()
        original = recteacher.oracle.OracleBackend.send
        mock = self
        log = self.sends.append
        local = self.local

        @functools.wraps(original)
        def send(backend, request):
            start = clock()
            # per-thread count and first start let the traced Gateway.complete
            # measure its slot wait and retries
            local.sends = getattr(local, "sends", 0) + 1
            if getattr(local, "first_send", None) is None:
                local.first_send = start
            if mock.latency_s:
                time.sleep(mock.latency_s)
            reply = original(backend, request)
            chars = sum(len(m["content"]) for m in request.messages)
            log(Send(session_user(request), start, clock(), chars))
            return reply

        patches.set(recteacher.oracle.OracleBackend, "send", send)
        return patches


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    session: str | None
    extra: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module or class, attribute, span name) for plain call-through probes.
_PROBES: tuple[tuple[Any, str, str], ...] = (
    (recteacher.cli, "load_corpus", "corpus.load_corpus"),
    (recteacher.cli, "save_corpus", "corpus.save_corpus"),
    (recteacher.cli, "build_graph", "graph.build_graph"),
    (recteacher.cli, "load_graph", "graph.load_graph"),
    (recteacher.cli, "save_graph", "graph.save_graph"),
    (recteacher.verbalize, "item_cf_neighbors", "graph.item_cf_neighbors"),
    (recteacher.verbalize, "neighbor_item_pool", "graph.neighbor_item_pool"),
    (recteacher.cli, "warm_cache", "verbalize.warm_cache"),
    (recteacher.verbalize, "verbalize_item", "verbalize.verbalize_item"),
    (recteacher.verbalize, "verbalize_user", "verbalize.verbalize_user"),
    (recteacher.teacher, "verbalize_item", "verbalize.verbalize_item"),
    (recteacher.teacher, "verbalize_user", "verbalize.verbalize_user"),
    (recteacher.verbalize.EvidenceCache, "put", "verbalize.cache_put"),
    (recteacher.teacher, "abstract", "abstract.abstract"),
    (recteacher.teacher, "plan", "teacher.plan"),
    (recteacher.teacher, "execute_subtask", "teacher.execute_subtask"),
    (recteacher.teacher, "reflect", "teacher.reflect"),
    (recteacher.teacher, "rank", "teacher.rank"),
    (recteacher.cli, "serialize", "trajectory.serialize"),
    (recteacher.trajectory, "parse", "trajectory.parse"),
    (recteacher.rewards, "parse", "trajectory.parse"),
    (recteacher.cli, "top1_hit", "trajectory.top1_hit"),
    (recteacher.cli, "export_sft", "trajectory.export_sft"),
    (recteacher.cli, "composite_reward", "rewards.composite_reward"),
    (recteacher.cli, "compose_rl_set", "rewards.compose_rl_set"),
    (recteacher.cli, "build_instance", "evaluate.build_instance"),
    (recteacher.cli, "evaluate", "evaluate.evaluate"),
) + tuple(
    (recteacher.prompts, name, f"prompts.{name}")
    for name in (
        "planner_system", "subtask_system", "reflector_system", "ranker_system",
        "student_system", "history_summary_system", "history_summary_user",
        "item_evidence_system", "user_evidence_system", "evidence_user",
        "render_item_line", "render_user_line", "render_instance_prompt",
    )
)


class Tracer:
    """In-memory spans at the layer boundaries; `install` turns them on."""

    def __init__(self, mock: MockLLM) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._mock_local = mock.local

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; extra(args, result) adds detail.

        A call that raises records extra = ("error", exception type name).
        """
        ids, local, stack_of, record = self._ids, self._local, self._stack, self.spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            stack = stack_of()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stack.pop()
                record(Span(span_id, name, start, clock(), parent,
                            getattr(local, "session", None), ("error", type(exc).__name__)))
                raise
            end = clock()
            stack.pop()
            record(Span(span_id, name, start, end, parent, getattr(local, "session", None),
                        extra(args, result) if extra is not None else None))
            return result

        return wrapper

    def install(self) -> _Patches:
        patches = _Patches()
        for owner, attr, name in _PROBES:
            patches.set(owner, attr, self.span(name, owner.__dict__[attr]))
        self._install_special(patches)
        return patches

    def _install_special(self, patches: _Patches) -> None:
        local, mock_local = self._local, self._mock_local

        # corpus records per ingest call, for records/s
        def ingest_records(_args, corpus):
            return len(corpus.users) + len(corpus.items) + corpus.interaction_count()

        for owner in (recteacher.cli, recteacher.corpus):
            patches.set(owner, "ingest", self.span("corpus.ingest", owner.__dict__["ingest"],
                                                   ingest_records))

        # scenario filter, named by scenario
        original_match = recteacher.cli.matches_scenario
        by_scenario = {
            scenario: self.span(f"evaluate.matches_scenario.{scenario.value}", original_match)
            for scenario in recteacher.cli.Scenario
        }

        def matches(corpus, user, scenario, *rest, **kwargs):
            return by_scenario[scenario](corpus, user, scenario, *rest, **kwargs)

        patches.set(recteacher.cli, "matches_scenario", matches)

        # a session starts at build_context and ends with run_teacher
        build_context = self.span("teacher.build_context", recteacher.cli.build_context)
        run_teacher = self.span("teacher.run_teacher", recteacher.cli.run_teacher)

        def session_build_context(instance, *args, **kwargs):
            local.session = instance.user
            return build_context(instance, *args, **kwargs)

        def session_run_teacher(*args, **kwargs):
            try:
                return run_teacher(*args, **kwargs)
            finally:
                local.session = None

        patches.set(recteacher.cli, "build_context", session_build_context)
        patches.set(recteacher.cli, "run_teacher", session_run_teacher)

        # gateway: slot wait (entry to first backend send) and retries per call
        original_complete = recteacher.gateway.Gateway.complete

        def complete_with_wait(gateway, request):
            mock_local.first_send = None
            mock_local.sends = 0
            entered = clock()
            try:
                return original_complete(gateway, request)
            finally:
                first = mock_local.first_send
                local.last_complete = (first - entered if first is not None else 0.0,
                                       mock_local.sends)

        def complete_extra(_args, _result):
            return local.last_complete

        patches.set(recteacher.gateway.Gateway, "complete",
                    self.span("gateway.complete", complete_with_wait, complete_extra))

        # evidence cache load is a classmethod
        load = recteacher.verbalize.EvidenceCache.__dict__["load"].__func__
        patches.set(recteacher.verbalize.EvidenceCache, "load",
                    classmethod(self.span("verbalize.cache_load", load)))

        # tool calls: the result text tells a fallback from a hit or a fill
        fallback = recteacher.teacher.MISS_FALLBACK
        patches.set(recteacher.teacher.ToolRunner, "run",
                    self.span("teacher.tool_run", recteacher.teacher.ToolRunner.run,
                              lambda _args, text: text == fallback))
