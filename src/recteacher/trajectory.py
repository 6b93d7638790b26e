"""Serialized chain-of-thought codec and the top-1 outcome filter.

SessionLogs flatten into tagged linear text; the strict parser walks the tag
grammar back out. Block bodies (tool_call, tool_response, JSON) are raw until
their literal closing tag; both tool blocks write `</` as the JSON escape
`<\\/`, so an anchor or evidence holding a closing tag stays inside. One walk over
each section validates it and collects its blocks, its thinking (the text
before the first block) and its text outside every block, where the ranking
scan looks for the closing numbered list; serialize sets a numbered last line
of ranker thinking off from that list with a blank line.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging
from pathlib import Path
import re
from typing import Mapping, Sequence

from .errors import InsufficientInput, ReplyParseError, TagError
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
from .teacher import AGENT_NAMES, BLOCK_TAGS, GRAMMAR_TAG, SECTION_TAGS, Phase, SessionLog, decode_payload
from . import prompts
from .util import write_jsonl_atomic

logger = logging.getLogger(__name__)

_RECOMMEND = Phase.RECOMMEND.value

# Sections whose bodies may carry tool_call/tool_response blocks.
TOOL_SECTIONS = (*(phase.value for phase in AGENT_NAMES), _RECOMMEND)

# Numbered ranking entries: "1. id" lines or "1. a, 2. b" runs.
_NUMBERED = re.compile(r"\d+\.[ \t]*([^,\n]+)")
_NUMBERED_LINE = re.compile(r"\s*\d+\.")


@dataclass(frozen=True)
class ParsedSection:
    tag: str
    body: str  # the section's text outside every block
    thinking: str
    tool_calls: tuple[str, ...]
    tool_responses: tuple[str, ...]
    payload: str | None  # the last <JSON> body, if any

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
        tag = record.phase.value
        lines = [f"<{tag}>"]
        if record.thinking:
            lines.append(record.thinking)
        for call, response in record.tool_events:
            lines.append(f"<{TOOL_CALL_TAG}>{encode_tool_call(call)}</{TOOL_CALL_TAG}>")
            lines.append(f"<{TOOL_RESPONSE_TAG}>{encode_tool_response(response)}</{TOOL_RESPONSE_TAG}>")
        if record.phase is Phase.RECOMMEND:
            if not record.tool_events and _NUMBERED_LINE.match(record.thinking.rsplit("\n", 1)[-1]):
                lines.append("")  # a numbered last line of thinking must not join the ranking
            lines.extend(f"{i}. {item}" for i, item in enumerate(log.final_ranking, start=1))
        elif record.payload:
            lines.append(f"<{JSON_TAG}>{record.payload}</{JSON_TAG}>")
        lines.append(f"</{tag}>")
        sections.append("\n".join(lines))
    return "\n".join(sections)


def _split_ranking(text: str) -> tuple[str, list[str]]:
    """(text before, lines of) the numbered run that closes the text, blank lines aside."""
    lines = text.split("\n")
    end = len(lines)
    while end > 0 and not lines[end - 1].strip():
        end -= 1
    start = end
    while start > 0 and _NUMBERED_LINE.match(lines[start - 1]):
        start -= 1
    head = start
    while head > 0 and not lines[head - 1].strip():
        head -= 1
    return "\n".join(lines[:head]), lines[start:end]


def _section(text: str, name: str, pos: int) -> tuple[ParsedSection, int]:
    """Walk one section from just past its opener; return it and the index past its closer.

    Block bodies are collected as they are skipped, together with the text
    outside every block. The text before the first block is the thinking,
    minus the one newline serialize adds each side; in a recommend section
    without blocks the closing numbered run is the ranking, not thinking.
    """
    closer = f"</{name}>"
    blocks: dict[str, list[str]] = {tag: [] for tag in BLOCK_TAGS}
    outside: list[str] = []
    while True:
        token = GRAMMAR_TAG.search(text, pos)
        if token is None:
            raise TagError("unclosed", f"<{name}>")
        outside.append(text[pos:token.start()])
        tag = token.group(0)
        inner = tag.strip("</>")
        if tag == closer:
            break
        if inner in BLOCK_TAGS and not tag.startswith("</"):
            if inner != JSON_TAG and name not in TOOL_SECTIONS:
                raise TagError("misnested", f"<{inner}> not allowed inside <{name}>")
            block_close = text.find(f"</{inner}>", token.end())
            if block_close == -1:
                raise TagError("unclosed", f"<{inner}> inside <{name}>")
            blocks[inner].append(text[token.end():block_close])
            pos = block_close + len(inner) + 3
            continue
        if inner in SECTION_TAGS and not tag.startswith("</"):
            raise TagError("misnested", f"<{inner}> opened inside <{name}>")
        raise TagError("misnested", f"stray {tag} inside <{name}>")
    thinking = outside[0]
    if name == _RECOMMEND and len(outside) == 1:
        thinking, _run = _split_ranking(thinking)
    section = ParsedSection(
        tag=name,
        body="".join(outside),
        thinking=thinking.removeprefix("\n").removesuffix("\n"),
        tool_calls=tuple(blocks[TOOL_CALL_TAG]),
        tool_responses=tuple(blocks[TOOL_RESPONSE_TAG]),
        payload=(blocks[JSON_TAG] or [None])[-1],
    )
    return section, token.end()


def _extract_ranking(section: ParsedSection) -> tuple[str, ...]:
    """Ranking from the last payload if the ranker's contract accepts it, else
    from the closing numbered run.

    Only the run that closes the text outside the blocks counts: ids inside
    tool payloads and numbered prose in the thinking stay out of the ranking.
    """
    try:
        return tuple(decode_payload(section.payload, Phase.RECOMMEND))
    except ReplyParseError:  # no payload, or one the ranker's contract rejects
        pass
    _head, run = _split_ranking(section.body)
    entries = [entry.strip() for line in run for entry in _NUMBERED.findall(line)]
    return tuple(entry for entry in entries if entry)


def parse(text: str) -> ParsedTrajectory:
    """Strict grammar walk; every violation maps to one TagError kind."""
    sections: list[ParsedSection] = []
    pos = 0
    while True:
        match = GRAMMAR_TAG.search(text, pos)
        gap = text[pos:match.start() if match else len(text)].strip()
        if gap:
            raise TagError("unknown", f"stray top-level text {gap[:40]!r}")
        if match is None:
            break
        token = match.group(0)
        name = token.strip("</>")
        if token.startswith("</"):
            raise TagError("misnested", f"closer {token} without an open section")
        if name not in SECTION_TAGS:
            raise TagError("misnested", f"<{name}> at top level")
        if sections and sections[-1].tag == _RECOMMEND:
            if name == _RECOMMEND:
                raise TagError("duplicate_recommend")
            raise TagError("misnested", f"<{name}> after <{_RECOMMEND}>")
        section, pos = _section(text, name, match.end())
        sections.append(section)
    if not sections:
        raise TagError("missing_recommend", "empty trajectory")
    if sections[-1].tag != _RECOMMEND:
        raise TagError("missing_recommend")
    ranking = _extract_ranking(sections[-1])
    if not ranking:
        raise TagError("missing_recommend", f"{_RECOMMEND} section carries no ranking")
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


def export_sft(records: Mapping[str, tuple[str, str]], out: Path) -> int:
    """Write one {system, user, assistant} record per id of {id: (prompt, trajectory)}, sorted by id.

    Every record's system turn is the packaged student prompt.
    """
    if not records:
        raise InsufficientInput("no trajectories to export")
    system = prompts.student_system()
    return write_jsonl_atomic(out, [
        {"system": system, "user": prompt, "assistant": trajectory}
        for _session_id, (prompt, trajectory) in sorted(records.items())
    ])
