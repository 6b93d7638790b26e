"""Low-level helpers for the angle-tag envelopes used across the pipeline.

Bodies between a tag pair are raw text: the closing tag is found literally,
so envelope contents never need escaping.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import re
from typing import Any, Mapping

from .errors import ToolArgumentError, ToolParseError

ANSWER_TAG = "Answer"
SUMMARY_TAG = "SUMMARY"
JSON_TAG = "JSON"
TOOL_CALL_TAG = "tool_call"
TOOL_RESPONSE_TAG = "tool_response"

TOOL_ARG_KEY = {"UserCF": "user_id", "ItemCF": "item_id"}
RECOGNIZED_TOOLS = tuple(TOOL_ARG_KEY)


def extract_tagged(text: str, tag: str) -> str | None:
    """Body of the first <tag>...</tag> envelope, or None when absent."""
    open_mark, close_mark = f"<{tag}>", f"</{tag}>"
    start = text.find(open_mark)
    if start == -1:
        return None
    start += len(open_mark)
    end = text.find(close_mark, start)
    if end == -1:
        return None
    return text[start:end]


def extract_all_tagged(text: str, tag: str) -> list[str]:
    """Bodies of every well-formed <tag>...</tag> envelope, in order."""
    open_mark, close_mark = f"<{tag}>", f"</{tag}>"
    bodies = []
    pos = 0
    while True:
        start = text.find(open_mark, pos)
        if start == -1:
            return bodies
        start += len(open_mark)
        end = text.find(close_mark, start)
        if end == -1:
            return bodies
        bodies.append(text[start:end])
        pos = end + len(close_mark)


def extract_last_json_payload(text: str) -> str | None:
    """Body of the last <JSON>...</JSON> envelope, or None."""
    bodies = extract_all_tagged(text, JSON_TAG)
    return bodies[-1] if bodies else None


def strip_tagged(text: str, tag: str) -> str:
    """Remove every well-formed <tag>...</tag> envelope from the text."""
    open_mark, close_mark = f"<{tag}>", f"</{tag}>"
    out = []
    pos = 0
    while True:
        start = text.find(open_mark, pos)
        if start == -1:
            out.append(text[pos:])
            return "".join(out)
        end = text.find(close_mark, start + len(open_mark))
        if end == -1:
            out.append(text[pos:])
            return "".join(out)
        out.append(text[pos:start])
        pos = end + len(close_mark)


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
    """A call of a recognized tool with exactly its one id argument.

    An unknown name raises ToolParseError, any other argument set
    ToolArgumentError, so every ToolCall in the pipeline is a valid one.
    """

    name: str
    arguments: Mapping[str, str]

    def __post_init__(self) -> None:
        if self.name not in RECOGNIZED_TOOLS:
            raise ToolParseError(f"unknown tool name {self.name!r}")
        expected = TOOL_ARG_KEY[self.name]
        if set(self.arguments) != {expected}:
            raise ToolArgumentError(
                f"{self.name} takes exactly one argument {expected!r}, got {sorted(self.arguments)}"
            )


def decode_tool_call(value: Any) -> ToolCall:
    """Validate one decoded tool-call object into a ToolCall.

    Accepts `arguments` as an object or as a string-encoded JSON object, whose
    values must be ids (strings or integers). The name and the argument key
    are checked by ToolCall itself; every failure is a ToolParseError.
    """
    if not isinstance(value, dict):
        raise ToolParseError(f"tool call is not an object: {value!r}")
    arguments = value.get("arguments")
    if isinstance(arguments, str):
        try:
            arguments = json.loads(arguments)
        except ValueError as exc:
            raise ToolParseError(f"arguments not decodable: {arguments!r}") from exc
    if not isinstance(arguments, dict):
        raise ToolParseError(f"arguments is not an object: {arguments!r}")
    cleaned: dict[str, str] = {}
    for key, raw in arguments.items():
        if not isinstance(raw, (str, int)) or isinstance(raw, bool):
            raise ToolParseError(f"argument {key!r} is not an id: {raw!r}")
        cleaned[str(key)] = str(raw)
    return ToolCall(name=value.get("name"), arguments=cleaned)


def decode_tool_calls(body: str) -> list[ToolCall]:
    """All tool calls in one <tool_call> block body (may hold several objects)."""
    try:
        values = decode_json_stream(body)
    except ValueError as exc:
        raise ToolParseError(f"undecodable tool_call body: {body!r}") from exc
    if not values:
        raise ToolParseError("empty tool_call body")
    return [decode_tool_call(value) for value in values]


def encode_tool_call(call: ToolCall) -> str:
    return json.dumps(
        {"name": call.name, "arguments": dict(call.arguments)},
        sort_keys=True, ensure_ascii=False,
    )


def encode_tool_response(result: str) -> str:
    return json.dumps({"result": result}, sort_keys=True, ensure_ascii=False)


def decode_tool_response(body: str) -> str:
    """The `result` string of a tool_response body; raw body when not that shape."""
    try:
        value = json.loads(body)
    except ValueError:
        return body
    if isinstance(value, dict) and isinstance(value.get("result"), str):
        return value["result"]
    return body
