"""Serialized chain-of-thought codec and the top-1 outcome filter.

SessionLogs flatten into tagged linear text; the strict parser walks the tag
grammar back out. Block bodies (tool_call, tool_response, JSON) are raw until
their literal closing tag, so payload text never needs escaping.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import logging
from pathlib import Path
import re
from typing import Mapping, Sequence

from .errors import EmptyInput, PipelineError, TagError
from .tags import (
    JSON_TAG,
    TOOL_CALL_TAG,
    TOOL_RESPONSE_TAG,
    ToolCall,
    decode_tool_calls,
    decode_tool_response,
    encode_tool_call,
    encode_tool_response,
)
from .teacher import KIND_TAG, Phase, SessionLog
from . import prompts
from .util import write_jsonl_atomic

logger = logging.getLogger(__name__)

# A correction is serialized under its subtask's tag, so it has no section of its own.
SECTION_TAGS = tuple(phase.value for phase in Phase if phase is not Phase.CORRECTION)

# Sections whose bodies may carry tool_call/tool_response blocks.
TOOL_SECTIONS = (*KIND_TAG.values(), Phase.RECOMMEND.value)

_BLOCK_TAGS = (TOOL_CALL_TAG, TOOL_RESPONSE_TAG, JSON_TAG)

_TOKEN = re.compile(
    "</?(?:" + "|".join(SECTION_TAGS + _BLOCK_TAGS) + ")>"
)

# Numbered ranking entries: "1. id" lines or "1. a, 2. b" runs.
_NUMBERED = re.compile(r"\d+\.[ \t]*([^,\n]+)")
_NUMBERED_LINE = re.compile(r"\s*\d+\.")


@dataclass(frozen=True)
class ParsedSection:
    tag: str
    body: str
    thinking: str
    tool_calls: tuple[str, ...]
    tool_responses: tuple[str, ...]
    payloads: tuple[str, ...]

    @property
    def payload(self) -> str | None:
        return self.payloads[-1] if self.payloads else None

    @property
    def tool_events(self) -> tuple[tuple[ToolCall, str], ...]:
        calls = [c for body in self.tool_calls for c in decode_tool_calls(body)]
        responses = [decode_tool_response(body) for body in self.tool_responses]
        return tuple(zip(calls, responses))


@dataclass(frozen=True)
class ParsedTrajectory:
    sections: tuple[ParsedSection, ...]
    ranking: tuple[str, ...]


def serialize(log: SessionLog) -> str:
    """Flatten a SessionLog into tagged text, phases in session order."""
    sections = []
    for record in log.phases:
        if record.phase is Phase.CORRECTION:
            assert record.kind is not None
            tag = KIND_TAG[record.kind]
        else:
            tag = record.phase.value
        lines = [f"<{tag}>"]
        if record.thinking:
            lines.append(record.thinking)
        for call, response in record.tool_events:
            lines.append(f"<{TOOL_CALL_TAG}>{encode_tool_call(call)}</{TOOL_CALL_TAG}>")
            lines.append(f"<{TOOL_RESPONSE_TAG}>{encode_tool_response(response)}</{TOOL_RESPONSE_TAG}>")
        if record.phase is Phase.RECOMMEND:
            lines.extend(f"{i}. {item}" for i, item in enumerate(log.final_ranking, start=1))
        elif record.payload:
            lines.append(f"<{JSON_TAG}>{record.payload}</{JSON_TAG}>")
        lines.append(f"</{tag}>")
        sections.append("\n".join(lines))
    return "\n".join(sections)


def _section_thinking(body: str, block_spans: Sequence[tuple[int, int]]) -> str:
    """Text before the first block, minus the one newline serialize adds each side."""
    end = block_spans[0][0] if block_spans else len(body)
    head = body[:end]
    if head.startswith("\n"):
        head = head[1:]
    if head.endswith("\n"):
        head = head[:-1]
    return head


def _trailing_numbered_run(lines: Sequence[str]) -> tuple[int, int]:
    """(start, end) of the numbered lines that close the text, after trailing blank lines."""
    end = len(lines)
    while end > 0 and not lines[end - 1].strip():
        end -= 1
    start = end
    while start > 0 and _NUMBERED_LINE.match(lines[start - 1]):
        start -= 1
    return start, end


def _strip_trailing_ranking(thinking: str) -> str:
    """Drop the trailing numbered-list run (the ranking is not thinking text)."""
    lines = thinking.split("\n")
    start, _end = _trailing_numbered_run(lines)
    while start > 0 and not lines[start - 1].strip():
        start -= 1
    return "\n".join(lines[:start])


def _finish_section(tag: str, body: str) -> ParsedSection:
    """Split a section body into blocks; text before the first block is thinking.

    The caller's grammar walk has already rejected structural violations, so
    every token left in the body opens a well-formed block.
    """
    calls: list[str] = []
    responses: list[str] = []
    payloads: list[str] = []
    spans: list[tuple[int, int]] = []
    pos = 0
    while True:
        match = _TOKEN.search(body, pos)
        if match is None:
            break
        name = match.group(0).strip("</>")
        closer = f"</{name}>"
        end = body.find(closer, match.end())
        inner = body[match.end():end]
        if name == TOOL_CALL_TAG:
            calls.append(inner)
        elif name == TOOL_RESPONSE_TAG:
            responses.append(inner)
        else:
            payloads.append(inner)
        spans.append((match.start(), end + len(closer)))
        pos = end + len(closer)
    thinking = _section_thinking(body, spans)
    if tag == "recommend" and not spans:
        thinking = _strip_trailing_ranking(thinking)
    return ParsedSection(
        tag=tag,
        body=body,
        thinking=thinking,
        tool_calls=tuple(calls),
        tool_responses=tuple(responses),
        payloads=tuple(payloads),
    )


def _extract_ranking(section: ParsedSection) -> tuple[str, ...]:
    """Ranking from the last JSON array payload, else trailing numbered entries."""
    if section.payloads:
        try:
            decoded = json.loads(section.payloads[-1])
        except ValueError:
            decoded = None
        if isinstance(decoded, list) and decoded:
            return tuple(str(x) for x in decoded)
    # strip block spans so ids inside tool payloads are not counted
    text = section.body
    for tag in _BLOCK_TAGS:
        pattern = re.compile(f"<{tag}>.*?</{tag}>", re.DOTALL)
        text = pattern.sub("", text)
    # only the trailing run of numbered lines counts, so numbered prose in
    # the thinking text above the list stays out of the ranking
    lines = text.split("\n")
    start, end = _trailing_numbered_run(lines)
    entries = [
        entry.strip()
        for line in lines[start:end]
        for entry in _NUMBERED.findall(line)
    ]
    return tuple(entry for entry in entries if entry)


def parse(text: str) -> ParsedTrajectory:
    """Strict grammar walk; every violation maps to one TagError kind."""
    sections: list[ParsedSection] = []
    seen_recommend = False
    pos = 0
    while True:
        match = _TOKEN.search(text, pos)
        if match is None:
            tail = text[pos:]
            if tail.strip():
                raise TagError("unknown", f"stray top-level text {tail.strip()[:40]!r}")
            break
        gap = text[pos:match.start()]
        if gap.strip():
            raise TagError("unknown", f"stray top-level text {gap.strip()[:40]!r}")
        token = match.group(0)
        name = token.strip("</>")
        if token.startswith("</"):
            raise TagError("misnested", f"closer {token} without an open section")
        if name not in SECTION_TAGS:
            raise TagError("misnested", f"<{name}> at top level")
        if name == "recommend" and seen_recommend:
            raise TagError("duplicate_recommend")
        if seen_recommend:
            raise TagError("misnested", f"<{name}> after <recommend>")
        closer = f"</{name}>"
        # scan for the section closer, skipping over raw block bodies
        scan = match.end()
        body_end = -1
        while True:
            inner = _TOKEN.search(text, scan)
            if inner is None:
                raise TagError("unclosed", f"<{name}>")
            inner_token = inner.group(0)
            inner_name = inner_token.strip("</>")
            if inner_token == closer:
                body_end = inner.start()
                break
            if inner_name in _BLOCK_TAGS and not inner_token.startswith("</"):
                if inner_name in (TOOL_CALL_TAG, TOOL_RESPONSE_TAG) and name not in TOOL_SECTIONS:
                    raise TagError("misnested", f"<{inner_name}> not allowed inside <{name}>")
                block_close = text.find(f"</{inner_name}>", inner.end())
                if block_close == -1:
                    raise TagError("unclosed", f"<{inner_name}> inside <{name}>")
                scan = block_close + len(inner_name) + 3
                continue
            if inner_name in SECTION_TAGS and not inner_token.startswith("</"):
                raise TagError("misnested", f"<{inner_name}> opened inside <{name}>")
            raise TagError("misnested", f"stray {inner_token} inside <{name}>")
        body = text[match.end():body_end]
        sections.append(_finish_section(name, body))
        if name == "recommend":
            seen_recommend = True
        pos = body_end + len(closer)
    if not sections:
        raise TagError("missing_recommend", "empty trajectory")
    if not seen_recommend:
        raise TagError("missing_recommend")
    ranking = _extract_ranking(sections[-1])
    if not ranking:
        raise TagError("missing_recommend", "recommend section carries no ranking")
    return ParsedTrajectory(sections=tuple(sections), ranking=ranking)


def top1_hit(text: str, ground_truth: str) -> bool | None:
    """True/False for parsable trajectories, None for unparsable ones."""
    try:
        parsed = parse(text)
    except TagError:
        return None
    return parsed.ranking[0] == ground_truth


def outcome_filter(pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Keep trajectories whose top-1 item equals the ground truth."""
    kept: list[str] = []
    unparsable = 0
    for text, ground_truth in pairs:
        verdict = top1_hit(text, ground_truth)
        if verdict is None:
            unparsable += 1
        elif verdict:
            kept.append(text)
    if unparsable:
        logger.warning("outcome_filter dropped %d unparsable trajectories", unparsable)
    return kept


def export_sft(
    trajectories: Mapping[str, str],
    instance_prompts: Mapping[str, str],
    out: Path,
    system_text: str | None = None,
    templates_dir: Path | None = None,
) -> int:
    """Write one {system, user, assistant} record per session id, sorted by id."""
    if not trajectories:
        raise EmptyInput("no trajectories to export")
    if system_text is None:
        system_text = prompts.student_system(templates_dir)
    records = []
    for session_id in sorted(trajectories):
        if session_id not in instance_prompts:
            raise PipelineError(f"no instance prompt for session {session_id!r}")
        records.append({
            "system": system_text,
            "user": instance_prompts[session_id],
            "assistant": trajectories[session_id],
        })
    return write_jsonl_atomic(out, records)
