"""Multi-agent teacher orchestration: plan, execute, reflect, correct, rank.

One session walks a fixed workflow over the gateway and yields a SessionLog
whose phases carry everything the trajectory codec needs to replay the text;
`run_teacher` says how its agents share the gateway's slots. Every agent's
record comes out of one turn (`_turn`): ask, answer tool calls, decode the
last reply by its role's contract, re-ask once where `REASK` allows it, and
record the payload with the thinking of the answered rounds and of the
accepted reply. A role's contract (`DECODERS`, read through `decode_payload`)
says what its <JSON> payload must decode to; the format reward reads the same one.
Recorded thinking carries no tag of the trajectory grammar (`GRAMMAR_TAG`).
`plan`, `reflect` and `rank` return the turn's (record, value) pair and
`execute_subtask` its record; a failed turn raises SessionError naming its phase.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from enum import Enum
import itertools
import json
import logging
import re
import threading
from typing import Any, Callable, Iterator, Mapping, Sequence

from .abstract import DEFAULT_WINDOW_M, abstract
from .corpus import Catalog
from .errors import PipelineError, ReplyParseError, SessionError, UnknownId
from .evaluate import EvalInstance
from .gateway import Gateway, Origin, chat_request
from . import prompts
from .tags import (
    JSON_TAG,
    TOOL_CALL_TAG,
    TOOL_RESPONSE_TAG,
    ToolCall,
    decode_tool_calls,
    encode_tool_response,
    strip_tagged,
    tagged_bodies,
)
from .verbalize import Evidence, EvidenceCache

# Unused here, but perfbench/probes.py looks both names up on this module.
from .verbalize import verbalize_item, verbalize_user  # noqa: F401

logger = logging.getLogger(__name__)

# Evidence text served for a tool call on an anchor the graph does not know
# (a made-up id, or a catalogue item nobody read): nothing is sent, and the
# agent reads this instead.
MISS_FALLBACK = "no cached collaborative evidence available"

# The bound on one agent turn's tool loop (`_turn`). Fixed, so every
# trajectory of a run is built the same way.
DEFAULT_MAX_TOOL_ROUNDS = 3


class Phase(Enum):
    PLAN = "plan"
    USER_PROFILE = "user_profile"
    HISTORICAL = "historical_analysis"
    RECENT = "recent_analysis"
    DIVERGENCE = "interest_divergence"
    REFLECTION = "reflection"
    RECOMMEND = "recommend"


# The four analysis agents, in the order a full plan names them, and the wire
# name the planner, the reflector and the agents' outputs call each by.
AGENT_NAMES: Mapping[Phase, str] = {
    Phase.USER_PROFILE: "User_Profile_Summary",
    Phase.HISTORICAL: "Historical_Interest_Analysis",
    Phase.RECENT: "Recent_Interest_Analysis",
    Phase.DIVERGENCE: "Interest_Divergence_Reasoning",
}


def phase_name(phase: Phase, turn: int) -> str:
    """What a session record and a SessionError call a pass: an analysis agent's turn 1 is its correction."""
    return "correction" if turn and phase in AGENT_NAMES else phase.value


SECTION_TAGS = tuple(phase.value for phase in Phase)
BLOCK_TAGS = (TOOL_CALL_TAG, TOOL_RESPONSE_TAG, JSON_TAG)

# Any opener or closer of the trajectory grammar. The codec parses with it, and
# recorded thinking carries none, so no reply's prose can break its trajectory.
GRAMMAR_TAG = re.compile("</?(?:" + "|".join(SECTION_TAGS + BLOCK_TAGS) + ")>")


@dataclass(frozen=True)
class PhaseRecord:
    """One agent's accepted turn; its (phase, turn) is the origin role and turn of every send it made.

    `turn` is 1 on a role's pass after a failing verdict: an analysis agent's
    correction, or the ranker that ranks corrections too.
    """

    phase: Phase
    thinking: str = ""
    tool_events: tuple[tuple[ToolCall, str], ...] = ()
    payload: str = ""
    turn: int = 0


@dataclass(frozen=True)
class SessionLog:
    candidates: tuple[str, ...]
    phases: tuple[PhaseRecord, ...]
    final_ranking: tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.final_ranking) != sorted(self.candidates):
            raise ValueError("final_ranking must be a permutation of candidates")


@dataclass(frozen=True)
class TeacherConfig:
    """The teacher's settings: none. Its protocol and prompts are fixed in code."""


@dataclass(frozen=True)
class TeacherContext:
    """Everything a session needs, resolved before the first gateway call."""

    user: str
    candidates: tuple[str, ...]
    prompt: str


def session_evidence_call(user: str) -> ToolCall:
    """The one tool call an instance alone fixes: UserCF on its user, which every oracle agent makes.

    It is what `ToolRunner.prefetch` starts before the session's agents ask.
    """
    return ToolCall("UserCF", user)


class ToolRunner:
    """Executes UserCF/ItemCF calls against the evidence cache, where each call is its own key.

    A miss is filled by `fill`, a (ToolCall, Gateway) -> Evidence callable
    over the graph, through the gateway of the caller that missed (its
    session's handle); an anchor the graph does not know gets `MISS_FALLBACK`.
    A runner with no fill serves its cache alone, and a miss raises
    PipelineError; run-teacher always gives one. Sessions may share one runner
    across threads. Each key has one lock, and only the caller holding it
    fills, after finding no fill of the key: concurrent misses send once, and
    a failed fill leaves no entry, so the next waiter fills the key itself and
    a failure reaches only the caller whose send failed. The runner keeps its
    fills in a memory-only cache of its own, which serves every session at
    once; a fill reaches `cache`, and its file, only through `persist`, and
    only once a persisted session names its key.
    """

    def __init__(self, cache: EvidenceCache,
                 fill: Callable[[ToolCall, Gateway], Evidence] | None = None) -> None:
        self.cache = cache
        self.fill = fill
        self._fills = EvidenceCache()
        self._lock = threading.Lock()
        self._key_locks: dict[ToolCall, threading.Lock] = {}
        self.prefetches_started = 0
        self.prefetches_failed = 0
        self._unnamed: set[ToolCall] = set()  # prefetched keys no persisted session named

    @property
    def prefetches_unnamed(self) -> int:
        return len(self._unnamed)

    def run(self, call: ToolCall, gateway: Gateway) -> str:
        """The evidence text for `call`; a miss is filled through `gateway`.

        An anchor the graph lacks (UnknownId) sends nothing and reads MISS_FALLBACK.
        """
        found = self.cache.lookup(call)
        if found is not None:
            return found.text
        if self.fill is None:
            raise PipelineError(f"no cached {call.name} evidence for {call.anchor!r}, and no graph to fill it")
        try:
            return self._fill(call, gateway).text
        except UnknownId:
            return MISS_FALLBACK

    @contextmanager
    def prefetch(self, user: str, gateway: Gateway) -> Iterator[None]:
        """Fill `user`'s session evidence (`session_evidence_call`) on a thread of its own while the body runs.

        Only above one slot of `gateway`, the session's handle, does it start:
        at one slot the agent that asks fills the key in the serial order. Nor
        does it start when the key is cached, filled or being filled (its lock
        is held). The fill is an ordinary `run` through `gateway`, and the
        thread is joined on exit, so no send outlives the session. A failed
        prefetch is logged at warning and counted, never raised: an agent that
        asks for the key fills it itself.
        """
        call = session_evidence_call(user)
        with self._lock:
            start = gateway.config.max_parallel > 1 and not (
                self.cache.lookup(call) or self._fills.lookup(call) or self._key_lock(call).locked())
            if start:
                self.prefetches_started += 1
                self._unnamed.add(call)
        if not start:
            yield
            return

        def fetch() -> None:
            try:
                self.run(call, gateway)
            except Exception as exc:
                with self._lock:
                    self.prefetches_failed += 1
                logger.warning("user %s: prefetch of %s(%s) failed: %s", user, call.name,
                               call.anchor, exc)

        thread = threading.Thread(target=fetch, name=f"prefetch-{user}")
        thread.start()
        try:
            yield
        finally:
            thread.join()

    def persist(self, log: SessionLog) -> None:
        """Put the session's on-demand fills in the cache, and so its file, in tool-call order.

        Keys this runner did not fill, and keys the cache already holds, are
        skipped; persisting sessions in instance order therefore appends
        exactly what running them one after another would. A prefetch no
        session names is never written.
        """
        with self._lock:
            for record in log.phases:
                for call, _result in record.tool_events:
                    self._unnamed.discard(call)
                    evidence = self._fills.lookup(call)
                    if evidence is not None and self.cache.lookup(call) is None:
                        self.cache.put(evidence)

    def _key_lock(self, key: ToolCall) -> threading.Lock:
        """The one lock of `key`; the caller holds `_lock`."""
        return self._key_locks.setdefault(key, threading.Lock())

    def _fill(self, key: ToolCall, gateway: Gateway) -> Evidence:
        with self._lock:
            key_lock = self._key_lock(key)
        with key_lock:
            evidence = self._fills.lookup(key)
            if evidence is None:
                evidence = self.fill(key, gateway)
                self._fills.put(evidence)
            return evidence


def build_context(
    instance: EvalInstance,
    catalog: Catalog,
    gateway: Gateway,
) -> TeacherContext:
    """Abstract the instance history and render the shared instance prompt.

    A failed abstraction raises SessionError with phase "abstract".
    """
    attributes = catalog.users[instance.user]
    try:
        hybrid = abstract(
            list(instance.history),
            DEFAULT_WINDOW_M,
            gateway,
            render=lambda i: prompts.render_interaction(i, catalog.items),
            user_block=prompts.render_user_line(instance.user, attributes),
        )
    except Exception as exc:
        raise SessionError("abstract", exc) from exc
    recent_lines = [prompts.render_interaction(i, catalog.items) for i in hybrid.recent_raw]
    candidate_lines, item_keys = prompts.item_lines(instance.candidates, catalog.items)
    for interaction in hybrid.recent_raw:
        item_keys.update(catalog.items[interaction.item].attributes)
    prompt = prompts.render_instance_prompt(
        user=instance.user,
        user_attributes=attributes,
        long_term_summary=hybrid.long_term_summary,
        recent_lines=recent_lines,
        candidate_lines=candidate_lines,
        item_keys=sorted(item_keys),
    )
    return TeacherContext(user=instance.user, candidates=tuple(instance.candidates), prompt=prompt)


def _thinking(content: str) -> str:
    """Free text outside every block envelope, with every other grammar tag dropped."""
    for tag in (JSON_TAG, TOOL_CALL_TAG, TOOL_RESPONSE_TAG):
        content = strip_tagged(content, tag)
    while True:  # a dropped tag may join the text around it into another
        content, dropped = GRAMMAR_TAG.subn("", content)
        if not dropped:
            return content.strip()


def _agent(name: Any) -> Phase:
    """The agent whose wire name is `name`; any other value, unhashable too, raises ReplyParseError."""
    for phase, agent_name in AGENT_NAMES.items():
        if name == agent_name:
            return phase
    raise ReplyParseError(f"unknown agent name {name!r}")


def _plan_agents(names: Any) -> tuple[Phase, ...]:
    if not isinstance(names, list) or not names:
        raise ReplyParseError("payload must be a non-empty list of agent names")
    agents = tuple(_agent(name) for name in names)
    if len(set(agents)) != len(agents):
        raise ReplyParseError("duplicate agent names")
    return agents


def _conclusions(conclusions: Any) -> tuple[str, ...]:
    if not (isinstance(conclusions, list) and conclusions
            and all(isinstance(entry, str) and entry for entry in conclusions)):
        raise ReplyParseError("payload must be a non-empty list of non-empty strings")
    return tuple(conclusions)


def _verdict(verdict: Any) -> dict[Phase, str]:
    """Each agent a reflection verdict flags, in flag order, with its first suggestion; empty for a pass."""
    if not isinstance(verdict, dict):
        raise ReplyParseError("payload must be an object")
    correct = verdict.get("correct")
    if correct not in ("yes", "no"):
        raise ReplyParseError(f'"correct" must be "yes" or "no", got {correct!r}')
    raw_problems = verdict.get("problematic_agent")
    if correct == "yes":
        if raw_problems:
            raise ReplyParseError("passing verdict cannot flag agents")
        return {}
    if not isinstance(raw_problems, list) or not raw_problems:
        raise ReplyParseError("failing verdict needs a non-empty problematic_agent list")
    problems: dict[Phase, str] = {}
    for entry in raw_problems:
        if not isinstance(entry, dict):
            raise ReplyParseError(f"problem entry is not an object: {entry!r}")
        phase = _agent(entry.get("agent_name"))
        suggestion = entry.get("suggestion")
        if not isinstance(suggestion, str) or not suggestion:
            raise ReplyParseError(f"{AGENT_NAMES[phase]}: missing suggestion")
        problems.setdefault(phase, suggestion)
    return problems


def _ranking(ranking: Any) -> list[str]:
    if not isinstance(ranking, list):
        raise ReplyParseError("payload is not a list")
    if not ranking:
        raise ReplyParseError("payload is an empty list")
    return [str(item) for item in ranking]


# Each role's reply contract: what its last <JSON> payload must decode to.
DECODERS: Mapping[Phase, Callable[[Any], Any]] = {
    Phase.PLAN: _plan_agents,
    **{phase: _conclusions for phase in AGENT_NAMES},
    Phase.REFLECTION: _verdict,
    Phase.RECOMMEND: _ranking,
}
# The roles whose rejected reply earns exactly one re-ask.
REASK = frozenset({Phase.PLAN, Phase.RECOMMEND})


def decode_payload(payload: str | None, phase: Phase) -> Any:
    """The value of a `phase` reply's last <JSON> payload; a missing or rejected one raises ReplyParseError."""
    if payload is None:
        raise ReplyParseError("no <JSON> payload")
    try:
        decoded = json.loads(payload)
    except ValueError as exc:
        raise ReplyParseError(f"payload is not JSON: {exc}") from exc
    return DECODERS[phase](decoded)


def _answer(content: str, phase: Phase, context: TeacherContext) -> tuple[str, Any]:
    """A reply's last <JSON> payload and its decoded value; a ranking must name a candidate."""
    payload = (tagged_bodies(content, JSON_TAG) or [None])[-1]
    value = decode_payload(payload, phase)
    if phase is Phase.RECOMMEND and set(value).isdisjoint(context.candidates):
        raise ReplyParseError("payload names no candidate")
    return payload, value


_REASK_TEXT = (
    "Your previous reply could not be parsed: {reason}. "
    "Reply again following the output requirements exactly."
)


def _turn(
    phase: Phase,
    context: TeacherContext,
    system: str,
    user_text: str,
    gateway: Gateway,
    tools: ToolRunner | None = None,
    turn: int = 0,
) -> tuple[PhaseRecord, Any]:
    """One agent turn: one loop of sends, counted from 0, until a reply is accepted.

    A reply with tool calls has them answered, and the loop sends again, while
    fewer than `DEFAULT_MAX_TOOL_ROUNDS - 1` rounds have been answered (no round
    without tools) and the turn has not re-asked. Any other reply is decoded by
    `phase`'s contract (`decode_payload`), and a ranking must name a candidate;
    for a phase in `REASK`, the first rejected reply earns one more send that
    names the reason. The record's thinking is that of the answered tool
    rounds and of the accepted reply: a rejected reply's thinking goes with
    its payload. Any failure, a gateway or tool error included, raises
    SessionError naming the pass (`phase_name`). Every send's origin is
    `Origin(phase, user, send, turn)`, with the loop's send counter, and the
    record keeps `phase` and `turn`, so it names the origin of its sends.
    """
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user_text}]
    rounds = DEFAULT_MAX_TOOL_ROUNDS if tools is not None else 1
    origin = Origin(phase, context.user, turn=turn)
    thinking: list[str] = []
    events: list[tuple[ToolCall, str]] = []
    reasked = False
    try:
        for send in itertools.count():
            content = gateway.complete(chat_request(messages, replace(origin, send=send))).content
            blocks = tagged_bodies(content, TOOL_CALL_TAG)
            # before a re-ask, every earlier send was an answered round
            if blocks and not reasked and send < rounds - 1:
                thinking.append(_thinking(content))
                calls = [call for block in blocks for call in decode_tool_calls(block)]
                messages.append({"role": "assistant", "content": content})
                for call in calls:
                    result = tools.run(call, gateway)
                    events.append((call, result))
                    messages.append({"role": "tool", "content": f"<{TOOL_RESPONSE_TAG}>"
                                     f"{encode_tool_response(result)}</{TOOL_RESPONSE_TAG}>"})
                continue
            try:
                payload, value = _answer(content, phase, context)
                break
            except ReplyParseError as exc:
                if phase not in REASK or reasked:
                    raise
                reasked = True
                messages.append({"role": "assistant", "content": content})
                messages.append({"role": "user", "content": _REASK_TEXT.format(reason=exc)})
    except Exception as exc:
        raise SessionError(phase_name(phase, turn), exc) from exc
    thinking.append(_thinking(content))
    record = PhaseRecord(phase=phase, thinking="\n".join(part for part in thinking if part),
                         tool_events=tuple(events), payload=payload, turn=turn)
    return record, value


def plan(context: TeacherContext, gateway: Gateway) -> tuple[PhaseRecord, tuple[Phase, ...]]:
    """One planning call for the agents to run, in plan order; a malformed reply earns exactly one re-ask."""
    return _turn(Phase.PLAN, context, prompts.planner_system(), context.prompt, gateway)


def execute_subtask(
    phase: Phase,
    context: TeacherContext,
    tools: ToolRunner,
    gateway: Gateway,
    suggestion: str | None = None,
) -> PhaseRecord:
    """Run the analysis agent `phase` with its tool loop, on the system prompt of its tag.

    A non-None suggestion marks a correction pass: it is appended to the
    prompt, and the pass is the agent's turn 1.
    """
    user_text = context.prompt
    if suggestion is not None:
        user_text = f"{user_text}\n# Correction Suggestion\n{suggestion}"
    record, _ = _turn(phase, context, prompts.subtask_system(phase.value),
                      user_text, gateway, tools, turn=int(suggestion is not None))
    return record


def _outputs_block(records: Sequence[PhaseRecord]) -> str:
    lines = ["# Preceding Agent Outputs"]
    for record in records:
        label = AGENT_NAMES[record.phase]
        if record.turn:
            label += " (corrected)"
        lines.append(f"## {label}")
        lines.append(f"<{JSON_TAG}>{record.payload}</{JSON_TAG}>")
    return "\n".join(lines)


def reflect(
    context: TeacherContext,
    outputs: Sequence[PhaseRecord],
    gateway: Gateway,
) -> tuple[PhaseRecord, dict[Phase, str]]:
    """Single verification call; strictly decoded, no re-ask. Its value is the verdict's flags (`_verdict`)."""
    return _turn(Phase.REFLECTION, context, prompts.reflector_system(),
                 f"{context.prompt}\n{_outputs_block(outputs)}", gateway)


def repair_ranking(raw: Sequence[str], candidates: Sequence[str]) -> list[str]:
    """Drop foreign ids, dedupe keeping first, append missing in candidate order."""
    allowed = set(candidates)
    seen: set[str] = set()
    repaired: list[str] = []
    for item in raw:
        if item in allowed and item not in seen:
            seen.add(item)
            repaired.append(item)
    repaired.extend(item for item in candidates if item not in seen)
    return repaired


def rank(
    context: TeacherContext,
    outputs: Sequence[PhaseRecord],
    gateway: Gateway,
    tools: ToolRunner | None = None,
    turn: int = 0,
) -> tuple[PhaseRecord, list[str]]:
    """Final ranking call; tool loop optional, one re-ask, then repair.

    `turn` is 1 when `outputs` include corrections, so the ranker a failing
    verdict discards and the one that replaces it never share an origin.
    """
    record, ranking = _turn(Phase.RECOMMEND, context, prompts.ranker_system(),
                            f"{context.prompt}\n{_outputs_block(outputs)}", gateway, tools,
                            turn=turn)
    return record, repair_ranking(ranking, context.candidates)


def run_teacher(
    context: TeacherContext,
    config: TeacherConfig,
    gateway: Gateway,
    tools: ToolRunner,
) -> SessionLog:
    """One full teacher session over a prepared context.

    The teacher has no settings: `config` is a TeacherConfig, which declares
    no field.

    At one gateway slot every agent runs on the calling thread, one at a time
    in plan order: nothing starts early, the sends keep the serial order, and
    a failed agent is the session's last send. Above one slot one pool, a
    worker per agent and one for the ranker, runs the session's passes. Every
    agent of a pass is submitted at once (the gateway's slots bound the sends
    in flight, and a freed slot goes to the earliest-started session); their
    records keep plan order. The agents of a pass read only the instance
    prompt, never each other's output, so running them side by side records
    what a serial run does; a pass raises its first failure in plan order.
    The ranker also starts beside the reflector, on the agents' outputs. A
    verdict that flags no agent keeps its record. After a failing verdict it
    is discarded, its failure included, and never recorded; each flagged
    agent reruns with its suggestion, in flag order and never waiting on it,
    and the ranker reruns on the outputs and corrections, as at one slot. The
    session waits for a discarded ranker before it ends, so no send outlives
    it, and logs a warning naming the user if it failed.
    """
    plan_record, agents = plan(context, gateway)
    parallel = gateway.config.max_parallel > 1
    with ThreadPoolExecutor(len(AGENT_NAMES) + 1) if parallel else nullcontext() as pool:
        each = pool.map if parallel else map
        outputs = list(each(lambda phase: execute_subtask(phase, context, tools, gateway),
                            agents))
        early_rank = pool.submit(rank, context, outputs, gateway, tools) if parallel else None
        reflection, problems = reflect(context, outputs, gateway)
        if early_rank is not None and not problems:
            corrections, (recommend, ranking) = [], early_rank.result()
        else:
            corrections = list(each(
                lambda phase, suggestion: execute_subtask(phase, context, tools, gateway,
                                                          suggestion=suggestion),
                problems, problems.values(),
            ))
            recommend, ranking = rank(context, outputs + corrections, gateway, tools,
                                      turn=1 if problems else 0)
    discarded_failure = early_rank.exception() if early_rank is not None and problems else None
    if discarded_failure is not None:
        logger.warning("user %s: discarded early ranker failed: %s", context.user,
                       discarded_failure)
    return SessionLog(
        candidates=context.candidates,
        phases=(plan_record, *outputs, reflection, *corrections, recommend),
        final_ranking=tuple(ranking),
    )
