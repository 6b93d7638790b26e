"""Angle-tag envelopes in LLM replies, and the tool-call codec.

Every reply is read through one scan (`envelopes`): bodies between a tag pair
are raw text and the closing tag is found literally. A reply that lacks the
envelope its caller asked for, or holds a malformed tool call, raises
ReplyParseError. Tool-call bodies are decoded here and only here, and both
tool blocks are encoded by one rule (`_encode_body`) that escapes `</`.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import re
from typing import Any, Iterator

from .errors import ReplyParseError

ANSWER_TAG = "Answer"
SUMMARY_TAG = "SUMMARY"
JSON_TAG = "JSON"
TOOL_CALL_TAG = "tool_call"
TOOL_RESPONSE_TAG = "tool_response"

TOOL_ARG_KEY = {"UserCF": "user_id", "ItemCF": "item_id"}
RECOGNIZED_TOOLS = tuple(TOOL_ARG_KEY)


def envelopes(text: str, tag: str) -> Iterator[tuple[int, int]]:
    """(start, end) of the body of every well-formed <tag>...</tag> envelope, in order.

    The scan stops at the first opener with no closer after it.
    """
    open_mark, close_mark = f"<{tag}>", f"</{tag}>"
    pos = 0
    while (start := text.find(open_mark, pos)) != -1:
        start += len(open_mark)
        end = text.find(close_mark, start)
        if end == -1:
            return
        yield start, end
        pos = end + len(close_mark)


def tagged_bodies(text: str, tag: str) -> list[str]:
    """Bodies of every well-formed <tag>...</tag> envelope, in order."""
    return [text[start:end] for start, end in envelopes(text, tag)]


def reply_body(text: str, tag: str, what: str) -> str:
    """Stripped body of the first <tag> envelope; ReplyParseError naming `what` when absent or blank."""
    span = next(envelopes(text, tag), None)
    body = text[span[0]:span[1]].strip() if span is not None else ""
    if not body:
        raise ReplyParseError(f"{what}: reply has no non-blank <{tag}> envelope")
    return body


def strip_tagged(text: str, tag: str) -> str:
    """Remove every well-formed <tag>...</tag> envelope from the text."""
    opener, closer = len(f"<{tag}>"), len(f"</{tag}>")
    out = []
    pos = 0
    for start, end in envelopes(text, tag):
        out.append(text[pos:start - opener])
        pos = end + closer
    out.append(text[pos:])
    return "".join(out)


_DECODER = json.JSONDecoder()
_WS = re.compile(r"\s*")


def decode_json_stream(raw: str) -> list[Any]:
    """Decode one or more concatenated JSON values from raw text.

    Raises ValueError when any non-whitespace content fails to decode.
    """
    values = []
    pos = _WS.match(raw).end()
    while pos < len(raw):
        value, pos = _DECODER.raw_decode(raw, pos)
        values.append(value)
        pos = _WS.match(raw, pos).end()
    return values


@dataclass(frozen=True)
class ToolCall:
    """A recognized CF tool applied to one anchor id; also the evidence-cache key.

    An unknown name raises ReplyParseError. On the wire its `arguments` are
    `{user_id|item_id: anchor}`, and `decode_tool_call` builds a call only
    from exactly that argument set, so every ToolCall in the pipeline is a
    valid one.
    """

    name: str
    anchor: str

    def __post_init__(self) -> None:
        if self.name not in RECOGNIZED_TOOLS:
            raise ReplyParseError(f"unknown tool name {self.name!r}")

    @property
    def arguments(self) -> dict[str, str]:
        return {TOOL_ARG_KEY[self.name]: self.anchor}


def decode_tool_call(value: Any) -> ToolCall:
    """Validate one decoded tool-call object into a ToolCall.

    Accepts `arguments` as an object or as a string-encoded JSON object, whose
    values must be ids (strings or integers). Every failure, a recognized
    tool given any other argument set than its one id included, raises
    ReplyParseError.
    """
    if not isinstance(value, dict):
        raise ReplyParseError(f"tool call is not an object: {value!r}")
    arguments = value.get("arguments")
    if isinstance(arguments, str):
        try:
            arguments = json.loads(arguments)
        except ValueError as exc:
            raise ReplyParseError(f"arguments not decodable: {arguments!r}") from exc
    if not isinstance(arguments, dict):
        raise ReplyParseError(f"arguments is not an object: {arguments!r}")
    cleaned: dict[str, str] = {}
    for key, raw in arguments.items():
        if not isinstance(raw, (str, int)) or isinstance(raw, bool):
            raise ReplyParseError(f"argument {key!r} is not an id: {raw!r}")
        cleaned[str(key)] = str(raw)
    name = value.get("name")
    expected = TOOL_ARG_KEY[name] if name in RECOGNIZED_TOOLS else None  # ToolCall rejects the rest
    if expected is not None and set(cleaned) != {expected}:
        raise ReplyParseError(f"{name} takes exactly one argument {expected!r}, got {sorted(cleaned)}")
    return ToolCall(name, cleaned.get(expected))


def decode_tool_calls(body: str) -> list[ToolCall]:
    """All tool calls in one <tool_call> block body (may hold several objects)."""
    try:
        values = decode_json_stream(body)
    except ValueError as exc:
        raise ReplyParseError(f"undecodable tool_call body: {body!r}") from exc
    if not values:
        raise ReplyParseError("empty tool_call body")
    return [decode_tool_call(value) for value in values]


def _encode_body(value: dict[str, Any]) -> str:
    """Sorted JSON for a tool block body; `</` is written `<\\/`, so the body holds no closing tag."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False).replace("</", "<\\/")


def encode_tool_call(call: ToolCall) -> str:
    """A tool_call body for `call`; an anchor holding `</` is escaped as `_encode_body` does."""
    return _encode_body({"name": call.name, "arguments": call.arguments})


def encode_tool_response(result: str) -> str:
    """A tool_response body holding `result`, escaped as `_encode_body` does."""
    return _encode_body({"result": result})


def decode_tool_response(body: str) -> str:
    """The `result` string of a tool_response body; raw body when not that shape."""
    try:
        value = json.loads(body)
    except ValueError:
        return body
    if isinstance(value, dict) and isinstance(value.get("result"), str):
        return value["result"]
    return body
