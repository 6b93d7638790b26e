"""Angle-tag envelopes and the tool-call codec."""

from __future__ import annotations

import pytest

from recteacher.errors import ReplyParseError, ToolArgumentError, ToolParseError
from recteacher.tags import (
    ToolCall,
    decode_json_stream,
    decode_tool_call,
    decode_tool_calls,
    decode_tool_response,
    encode_tool_call,
    encode_tool_response,
    reply_body,
    strip_tagged,
    tagged_bodies,
)


def test_reply_body_basics():
    assert reply_body("a <Answer> body </Answer> b <Answer>late</Answer>", "Answer", "x") == "body"
    # bodies are raw: inner angle text survives
    assert reply_body("<Answer>x < y</Answer>", "Answer", "x") == "x < y"
    for text in ("no tags here", "<Answer>unclosed", "<Answer>  </Answer>"):
        with pytest.raises(ReplyParseError, match="evidence for 'i1'.*<Answer>"):
            reply_body(text, "Answer", "evidence for 'i1'")


def test_tagged_bodies_order():
    text = "<JSON>1</JSON> mid <JSON>2</JSON> <JSON>open"
    assert tagged_bodies(text, "JSON") == ["1", "2"]
    assert tagged_bodies("nothing", "JSON") == []


def test_strip_tagged():
    text = "keep <tool_call>x</tool_call> this <tool_call>y</tool_call> tail"
    assert strip_tagged(text, "tool_call") == "keep  this  tail"
    assert strip_tagged("<tool_call>open", "tool_call") == "<tool_call>open"


def test_decode_json_stream():
    assert decode_json_stream('{"a": 1} [2] "x"') == [{"a": 1}, [2], "x"]
    assert decode_json_stream("  ") == []
    with pytest.raises(ValueError):
        decode_json_stream('{"a": 1} garbage')


def test_decode_tool_call_accepts_object_and_string_arguments():
    call = decode_tool_call({"name": "UserCF", "arguments": {"user_id": "u1"}})
    assert call == ToolCall("UserCF", "u1")
    call = decode_tool_call({"name": "ItemCF", "arguments": '{"item_id": "i9"}'})
    assert call.arguments == {"item_id": "i9"}
    # integer ids coerce to strings
    call = decode_tool_call({"name": "ItemCF", "arguments": {"item_id": 42}})
    assert call.arguments == {"item_id": "42"}


def test_decode_tool_call_rejections():
    bad = [
        "not a dict",
        {"name": "Unknown", "arguments": {}},
        {"name": "UserCF", "arguments": "not json"},
        {"name": "UserCF", "arguments": ["list"]},
        {"name": "UserCF", "arguments": {"user_id": True}},
        {"name": "UserCF", "arguments": {"user_id": None}},
        {"arguments": {"user_id": "u1"}},
    ]
    for value in bad:
        with pytest.raises(ToolParseError):
            decode_tool_call(value)


def test_decode_tool_call_argument_validation():
    with pytest.raises(ToolArgumentError, match=r"UserCF takes exactly one argument 'user_id', got \['item_id'\]"):
        decode_tool_call({"name": "UserCF", "arguments": {"item_id": "x"}})
    with pytest.raises(ToolArgumentError,
                       match=r"ItemCF takes exactly one argument 'item_id', got \['item_id', 'k'\]"):
        decode_tool_call({"name": "ItemCF", "arguments": {"item_id": "x", "k": "3"}})
    with pytest.raises(ToolParseError, match="unknown tool name 'MatrixFactorization'"):
        decode_tool_call({"name": "MatrixFactorization", "arguments": {"user_id": "x"}})
    with pytest.raises(ToolParseError, match="unknown tool name 'MatrixFactorization'"):
        ToolCall("MatrixFactorization", "x")


def test_decode_tool_calls_stream():
    body = '{"name": "UserCF", "arguments": {"user_id": "u1"}}\n{"name": "ItemCF", "arguments": {"item_id": "i2"}}'
    calls = decode_tool_calls(body)
    assert [c.name for c in calls] == ["UserCF", "ItemCF"]
    with pytest.raises(ToolParseError):
        decode_tool_calls("")
    with pytest.raises(ToolParseError):
        decode_tool_calls("{broken")


def test_encode_decode_round_trip():
    call = ToolCall("UserCF", "u7")
    encoded = encode_tool_call(call)
    assert decode_tool_calls(encoded) == [call]
    response = encode_tool_response('line one\n"quoted"')
    assert decode_tool_response(response) == 'line one\n"quoted"'


def test_decode_tool_response_fallback():
    assert decode_tool_response("plain text") == "plain text"
    assert decode_tool_response('{"result": 5}') == '{"result": 5}'
    assert decode_tool_response('{"other": "x"}') == '{"other": "x"}'
