"""Multi-agent teacher orchestration: plan, execute, reflect, correct, rank.

One session walks a fixed workflow over the gateway and yields a SessionLog
whose phases carry everything the trajectory codec needs to replay the text.
The analysis agents of one pass run side by side; their records keep plan order.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
import json
import logging
from pathlib import Path
import threading
from typing import Callable, Mapping, Sequence, TypeVar

from .abstract import DEFAULT_WINDOW_M, HybridHistory, abstract, render_interaction
from .corpus import Corpus
from .errors import (
    PlanParseError,
    RankParseError,
    ReflectionParseError,
    SessionError,
    SubtaskParseError,
    ToolArgumentError,
    ToolParseError,
)
from .evaluate import EvalInstance
from .gateway import (
    DEFAULT_TEMPERATURE,
    DEFAULT_TOP_P,
    ChatRequest,
    Gateway,
    chat_request,
)
from .graph import DEFAULT_NEIGHBOR_K, InteractionGraph
from . import prompts
from .tags import (
    JSON_TAG,
    TOOL_ARG_KEY,
    TOOL_CALL_TAG,
    TOOL_RESPONSE_TAG,
    ToolCall,
    decode_tool_calls,
    encode_tool_response,
    extract_all_tagged,
    extract_last_json_payload,
    strip_tagged,
)
from .util import ordered_map
from .verbalize import CacheMiss, Evidence, EvidenceCache, EvidenceKey, verbalize_key

# Unused here, but perfbench/probes.py looks both names up on this module.
from .verbalize import verbalize_item, verbalize_user  # noqa: F401

logger = logging.getLogger(__name__)

# Evidence text served when a tool call misses the cache and on-demand
# verbalization is off (or the anchor is absent from the graph).
MISS_FALLBACK = "no cached collaborative evidence available"

DEFAULT_MAX_TOOL_ROUNDS = 3

T = TypeVar("T")


class SubtaskKind(Enum):
    """The four analysis agents, by their wire names."""

    USER_PROFILE = "User_Profile_Summary"
    HISTORICAL = "Historical_Interest_Analysis"
    RECENT = "Recent_Interest_Analysis"
    DIVERGENCE = "Interest_Divergence_Reasoning"


class Phase(Enum):
    PLAN = "plan"
    USER_PROFILE = "user_profile"
    HISTORICAL = "historical_analysis"
    RECENT = "recent_analysis"
    DIVERGENCE = "interest_divergence"
    REFLECTION = "reflection"
    CORRECTION = "correction"
    RECOMMEND = "recommend"


# A subtask kind's phase shares its member name; the phase value is its serialization tag.
KIND_PHASE: Mapping[SubtaskKind, Phase] = {kind: Phase[kind.name] for kind in SubtaskKind}
KIND_TAG: Mapping[SubtaskKind, str] = {kind: phase.value for kind, phase in KIND_PHASE.items()}


@dataclass(frozen=True)
class PhaseRecord:
    phase: Phase
    thinking: str = ""
    tool_events: tuple[tuple[ToolCall, str], ...] = ()
    payload: str = ""
    # set on subtask executions and corrections; None elsewhere
    kind: SubtaskKind | None = None


@dataclass(frozen=True)
class Plan:
    kinds: tuple[SubtaskKind, ...]
    record: PhaseRecord


@dataclass(frozen=True)
class Problem:
    kind: SubtaskKind
    suggestion: str


@dataclass(frozen=True)
class ReflectionVerdict:
    correct: bool
    problems: tuple[Problem, ...]
    record: PhaseRecord

    def __post_init__(self) -> None:
        if self.correct and self.problems:
            raise ValueError("passing verdict cannot carry problems")
        if not self.correct and not self.problems:
            raise ValueError("failing verdict needs at least one problem")


@dataclass(frozen=True)
class SessionLog:
    user: str
    candidates: tuple[str, ...]
    phases: tuple[PhaseRecord, ...]
    final_ranking: tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.final_ranking) != sorted(self.candidates):
            raise ValueError("final_ranking must be a permutation of candidates")


@dataclass(frozen=True)
class TeacherConfig:
    domain: str = prompts.DEFAULT_DOMAIN
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tool_rounds: int = DEFAULT_MAX_TOOL_ROUNDS
    ranker_tools: bool = True
    window_m: int = DEFAULT_WINDOW_M
    templates_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.max_tool_rounds < 1:
            raise ValueError("max_tool_rounds must be >= 1")
        if self.window_m < 1:
            raise ValueError("window_m must be >= 1")


@dataclass(frozen=True)
class TeacherContext:
    """Everything a session needs, resolved before the first gateway call."""

    user: str
    user_attributes: Mapping[str, str]
    candidates: tuple[str, ...]
    hybrid: HybridHistory
    prompt: str
    ground_truth: str | None = None


class ToolRunner:
    """Executes UserCF/ItemCF calls against the evidence cache.

    Unknown anchors never raise: a miss falls back to on-demand verbalization
    when enabled and possible, else to a fixed sentence. Sessions may share
    one runner across threads: concurrent misses on a key wait for a single
    fill, which every session is served from memory at once and which reaches
    the cache file only through `persist`.
    """

    def __init__(
        self,
        cache: EvidenceCache,
        graph: InteractionGraph | None = None,
        corpus: Corpus | None = None,
        gateway: Gateway | None = None,
        on_demand: bool = False,
        k: int = DEFAULT_NEIGHBOR_K,
        domain: str = prompts.DEFAULT_DOMAIN,
        templates_dir: Path | None = None,
        created_at: int = 0,
    ) -> None:
        self.cache = cache
        self.graph = graph
        self.corpus = corpus
        self.gateway = gateway
        self.on_demand = on_demand
        self.k = k
        self.domain = domain
        self.templates_dir = templates_dir
        self.created_at = created_at
        self._lock = threading.Lock()
        self._pending: dict[EvidenceKey, Future] = {}

    def run(self, call: ToolCall) -> str:
        key = _evidence_key(call)
        found = self.cache.lookup(key)
        if not isinstance(found, CacheMiss):
            return found.text
        if self.on_demand and self._can_verbalize(key):
            return self._fill(key).text
        return MISS_FALLBACK

    def persist(self, log: SessionLog) -> None:
        """Append the session's on-demand fills to the cache file, in tool-call order.

        Keys already on file, and keys answered with the fallback sentence,
        are skipped; persisting sessions in instance order therefore appends
        exactly what running them one after another would.
        """
        self.cache.write_held(
            _evidence_key(call) for record in log.phases for call, _result in record.tool_events
        )

    def _fill(self, key: EvidenceKey) -> Evidence:
        # The filler puts the entry in the cache before it leaves _pending,
        # so a key is never in neither and is verbalized at most once.
        with self._lock:
            found = self.cache.lookup(key)
            if not isinstance(found, CacheMiss):
                return found
            flight = self._pending.get(key)
            filler = flight is None
            if filler:
                flight = self._pending[key] = Future()
        if not filler:
            return flight.result()
        try:
            assert self.graph is not None and self.corpus is not None and self.gateway is not None
            evidence = verbalize_key(
                self.graph, self.corpus, key, self.gateway,
                k=self.k, domain=self.domain, templates_dir=self.templates_dir,
                created_at=self.created_at,
            )
            self.cache.put(evidence, hold=True)
            flight.set_result(evidence)
            return evidence
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._lock:
                del self._pending[key]

    def _can_verbalize(self, key: EvidenceKey) -> bool:
        if self.graph is None or self.corpus is None or self.gateway is None:
            return False
        adj = self.graph.item_adj if key.tool == "ItemCF" else self.graph.user_adj
        return key.anchor in adj


def _evidence_key(call: ToolCall) -> EvidenceKey:
    expected = TOOL_ARG_KEY.get(call.name)
    if expected is None:
        raise ToolParseError(f"unknown tool name {call.name!r}")
    if set(call.arguments) != {expected}:
        raise ToolArgumentError(
            f"{call.name} takes exactly one argument {expected!r}, got {sorted(call.arguments)}"
        )
    return EvidenceKey(tool=call.name, anchor=call.arguments[expected])


def guard(phase_name: str, func, *args, **kwargs):
    """Call func; any exception it raises aborts the session as a SessionError."""
    try:
        return func(*args, **kwargs)
    except Exception as exc:
        raise SessionError(phase_name, exc) from exc


def build_context(
    instance: EvalInstance,
    corpus: Corpus,
    gateway: Gateway,
    config: TeacherConfig = TeacherConfig(),
) -> TeacherContext:
    """Abstract the instance history and render the shared instance prompt.

    A failed abstraction raises SessionError with phase "abstract".
    """
    user_meta = corpus.users.get(instance.user)
    attributes = user_meta.attributes if user_meta is not None else {}
    hybrid = guard(
        "abstract",
        abstract,
        list(instance.history),
        config.window_m,
        gateway,
        render=lambda i: render_interaction(i, corpus.items),
        domain=config.domain,
        templates_dir=config.templates_dir,
        user_block=prompts.render_user_line(instance.user, attributes),
    )
    item_keys: set[str] = set()
    recent_lines = []
    for interaction in hybrid.recent_raw:
        meta = corpus.items.get(interaction.item)
        if meta is not None:
            item_keys.update(meta.attributes)
        recent_lines.append(render_interaction(interaction, corpus.items))
    candidate_lines = []
    for candidate in instance.candidates:
        meta = corpus.items.get(candidate)
        title = meta.title if meta is not None else "(unknown)"
        attrs = meta.attributes if meta is not None else {}
        item_keys.update(attrs)
        candidate_lines.append(prompts.render_item_line(candidate, title, attrs))
    prompt = prompts.render_instance_prompt(
        user=instance.user,
        user_attributes=attributes,
        long_term_summary=hybrid.long_term_summary,
        recent_lines=recent_lines,
        candidate_lines=candidate_lines,
        item_keys=sorted(item_keys),
    )
    return TeacherContext(
        user=instance.user,
        user_attributes=attributes,
        candidates=tuple(instance.candidates),
        hybrid=hybrid,
        prompt=prompt,
        ground_truth=instance.ground_truth,
    )


def _thinking(content: str) -> str:
    """Free text outside every structural envelope."""
    stripped = content
    for tag in (JSON_TAG, TOOL_CALL_TAG, TOOL_RESPONSE_TAG):
        stripped = strip_tagged(stripped, tag)
    return stripped.strip()


def _request(messages: Sequence[dict], config: TeacherConfig) -> ChatRequest:
    return chat_request(messages, temperature=config.temperature, top_p=config.top_p)


def _tool_loop(
    messages: list[dict],
    rounds: int,
    gateway: Gateway,
    config: TeacherConfig,
    tools: ToolRunner | None,
) -> tuple[str, list[str], list[tuple[ToolCall, str]]]:
    """Ask up to `rounds` times, answering each reply's tool calls, until a reply makes none.

    Tool calls in the last round's reply go unanswered. Returns the last reply,
    the non-empty thinking text of every reply, and the (call, result) events.
    `messages` is extended in place.
    """
    thinking_parts: list[str] = []
    events: list[tuple[ToolCall, str]] = []
    content = ""
    for round_index in range(rounds):
        content = gateway.complete(_request(messages, config)).content
        part = _thinking(content)
        if part:
            thinking_parts.append(part)
        blocks = extract_all_tagged(content, TOOL_CALL_TAG)
        if not blocks or round_index == rounds - 1:
            break
        calls = [call for block in blocks for call in decode_tool_calls(block)]
        messages.append({"role": "assistant", "content": content})
        assert tools is not None
        for call in calls:
            result = tools.run(call)
            events.append((call, result))
            messages.append({
                "role": "tool",
                "content": f"<{TOOL_RESPONSE_TAG}>{encode_tool_response(result)}</{TOOL_RESPONSE_TAG}>",
            })
    return content, thinking_parts, events


_REASK_TEXT = (
    "Your previous reply could not be parsed: {reason}. "
    "Reply again following the output requirements exactly."
)


def plan(context: TeacherContext, gateway: Gateway, config: TeacherConfig = TeacherConfig()) -> Plan:
    """One planning call; a malformed reply earns exactly one re-ask."""
    messages = [
        {"role": "system", "content": prompts.planner_system(config.domain, config.templates_dir)},
        {"role": "user", "content": context.prompt},
    ]
    last_reason = ""
    for attempt in range(2):
        reply = gateway.complete(_request(messages, config))
        content = reply.content
        try:
            kinds, payload = _parse_plan(content)
        except PlanParseError as exc:
            last_reason = str(exc)
            messages.append({"role": "assistant", "content": content})
            messages.append({"role": "user", "content": _REASK_TEXT.format(reason=last_reason)})
            continue
        record = PhaseRecord(phase=Phase.PLAN, thinking=_thinking(content), payload=payload)
        return Plan(kinds=kinds, record=record)
    raise PlanParseError(last_reason)


def _parse_plan(content: str) -> tuple[tuple[SubtaskKind, ...], str]:
    payload = extract_last_json_payload(content)
    if payload is None:
        raise PlanParseError("no <JSON> payload")
    try:
        names = json.loads(payload)
    except ValueError as exc:
        raise PlanParseError(f"payload is not JSON: {exc}") from exc
    if not isinstance(names, list) or not names:
        raise PlanParseError("payload must be a non-empty list of agent names")
    kinds = []
    for name in names:
        try:
            kinds.append(SubtaskKind(name))
        except ValueError:
            raise PlanParseError(f"unknown agent name {name!r}") from None
    if len(set(kinds)) != len(kinds):
        raise PlanParseError("duplicate agent names")
    return tuple(kinds), payload


def execute_subtask(
    kind: SubtaskKind,
    context: TeacherContext,
    tools: ToolRunner,
    gateway: Gateway,
    config: TeacherConfig = TeacherConfig(),
    suggestion: str | None = None,
) -> PhaseRecord:
    """Run one analysis agent with its tool loop.

    A non-None suggestion marks a correction pass: it is appended to the
    prompt and the resulting record carries phase=CORRECTION.
    """
    user_text = context.prompt
    if suggestion is not None:
        user_text = f"{user_text}\n# Correction Suggestion\n{suggestion}"
    messages = [
        {"role": "system", "content": prompts.subtask_system(kind.value, config.domain, config.templates_dir)},
        {"role": "user", "content": user_text},
    ]
    content, thinking_parts, events = _tool_loop(messages, config.max_tool_rounds, gateway, config, tools)
    payload = extract_last_json_payload(content)
    if payload is None:
        raise SubtaskParseError(f"{kind.value}: no <JSON> payload after tool loop")
    phase = Phase.CORRECTION if suggestion is not None else KIND_PHASE[kind]
    return PhaseRecord(
        phase=phase,
        thinking="\n".join(thinking_parts),
        tool_events=tuple(events),
        payload=payload,
        kind=kind,
    )


def _outputs_block(records: Sequence[PhaseRecord]) -> str:
    lines = ["# Preceding Agent Outputs"]
    for record in records:
        if record.kind is None:
            continue
        label = record.kind.value
        if record.phase is Phase.CORRECTION:
            label += " (corrected)"
        lines.append(f"## {label}")
        lines.append(f"<{JSON_TAG}>{record.payload}</{JSON_TAG}>")
    return "\n".join(lines)


def reflect(
    context: TeacherContext,
    outputs: Sequence[PhaseRecord],
    gateway: Gateway,
    config: TeacherConfig = TeacherConfig(),
) -> ReflectionVerdict:
    """Single verification call; strictly parsed, no re-ask."""
    messages = [
        {"role": "system", "content": prompts.reflector_system(config.domain, config.templates_dir)},
        {"role": "user", "content": f"{context.prompt}\n{_outputs_block(outputs)}"},
    ]
    reply = gateway.complete(_request(messages, config))
    content = reply.content
    payload = extract_last_json_payload(content)
    if payload is None:
        raise ReflectionParseError("no <JSON> payload")
    try:
        verdict = json.loads(payload)
    except ValueError as exc:
        raise ReflectionParseError(f"payload is not JSON: {exc}") from exc
    if not isinstance(verdict, dict):
        raise ReflectionParseError("payload must be an object")
    correct = verdict.get("correct")
    if correct not in ("yes", "no"):
        raise ReflectionParseError(f'"correct" must be "yes" or "no", got {correct!r}')
    record = PhaseRecord(phase=Phase.REFLECTION, thinking=_thinking(content), payload=payload)
    if correct == "yes":
        if verdict.get("problematic_agent"):
            raise ReflectionParseError("passing verdict cannot flag agents")
        return ReflectionVerdict(correct=True, problems=(), record=record)
    raw_problems = verdict.get("problematic_agent")
    if not isinstance(raw_problems, list) or not raw_problems:
        raise ReflectionParseError("failing verdict needs a non-empty problematic_agent list")
    problems: list[Problem] = []
    seen: set[SubtaskKind] = set()
    for entry in raw_problems:
        if not isinstance(entry, dict):
            raise ReflectionParseError(f"problem entry is not an object: {entry!r}")
        try:
            kind = SubtaskKind(entry.get("agent_name"))
        except ValueError:
            raise ReflectionParseError(f"unknown agent name {entry.get('agent_name')!r}") from None
        suggestion = entry.get("suggestion")
        if not isinstance(suggestion, str) or not suggestion:
            raise ReflectionParseError(f"{kind.value}: missing suggestion")
        if kind in seen:
            continue  # one correction per kind
        seen.add(kind)
        problems.append(Problem(kind=kind, suggestion=suggestion))
    return ReflectionVerdict(correct=False, problems=tuple(problems), record=record)


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
    config: TeacherConfig = TeacherConfig(),
    tools: ToolRunner | None = None,
) -> tuple[list[str], PhaseRecord]:
    """Final ranking call; tool loop optional, one re-ask, then repair."""
    messages = [
        {"role": "system", "content": prompts.ranker_system(config.domain, config.templates_dir)},
        {"role": "user", "content": f"{context.prompt}\n{_outputs_block(outputs)}"},
    ]
    rounds = config.max_tool_rounds if (config.ranker_tools and tools is not None) else 1
    content, thinking_parts, events = _tool_loop(messages, rounds, gateway, config, tools)

    last_reason = ""
    for attempt in range(2):
        payload = extract_last_json_payload(content)
        ids = None
        if payload is None:
            last_reason = "no <JSON> payload"
        else:
            try:
                decoded = json.loads(payload)
            except ValueError as exc:
                decoded = None
                last_reason = f"payload is not JSON: {exc}"
            if isinstance(decoded, list):
                ids = [str(x) for x in decoded]
            elif decoded is not None:
                last_reason = "payload is not a list"
        if ids is not None:
            ranking = repair_ranking(ids, context.candidates)
            record = PhaseRecord(
                phase=Phase.RECOMMEND,
                thinking="\n".join(thinking_parts),
                tool_events=tuple(events),
                payload=payload if payload is not None else "",
            )
            return ranking, record
        if attempt == 0:
            messages.append({"role": "assistant", "content": content})
            messages.append({"role": "user", "content": _REASK_TEXT.format(reason=last_reason)})
            reply = gateway.complete(_request(messages, config))
            content = reply.content
            part = _thinking(content)
            if part:
                thinking_parts.append(part)
    raise RankParseError(last_reason)


def _fan_out(
    func: Callable[[T], PhaseRecord], items: Sequence[T], gateway: Gateway
) -> list[PhaseRecord]:
    """func over items, up to the gateway's in-flight bound at once; records in item order.

    The agents of one pass read only the shared instance prompt, never each
    other's output, so running them concurrently leaves every record as a
    serial run makes it. The first failure in item order is raised.
    """
    return list(ordered_map(func, items, min(len(items), gateway.config.max_parallel)))


def run_teacher(
    context: TeacherContext,
    config: TeacherConfig,
    gateway: Gateway,
    tools: ToolRunner,
) -> SessionLog:
    """One full teacher session over a prepared context."""
    phases: list[PhaseRecord] = []
    plan_result = guard(Phase.PLAN.value, plan, context, gateway, config)
    phases.append(plan_result.record)

    outputs = _fan_out(
        lambda kind: guard(KIND_TAG[kind], execute_subtask, kind, context, tools, gateway, config),
        plan_result.kinds,
        gateway,
    )
    phases.extend(outputs)

    verdict = guard(Phase.REFLECTION.value, reflect, context, outputs, gateway, config)
    phases.append(verdict.record)

    if not verdict.correct:
        corrections = _fan_out(
            lambda problem: guard(
                Phase.CORRECTION.value,
                execute_subtask,
                problem.kind, context, tools, gateway, config,
                suggestion=problem.suggestion,
            ),
            verdict.problems,
            gateway,
        )
        outputs.extend(corrections)
        phases.extend(corrections)

    ranking, record = guard(Phase.RECOMMEND.value, rank, context, outputs, gateway, config, tools)
    phases.append(record)

    return SessionLog(
        user=context.user,
        candidates=context.candidates,
        phases=tuple(phases),
        final_ranking=tuple(ranking),
    )
