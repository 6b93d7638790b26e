"""Sliding-window history summarization."""

from __future__ import annotations

import math
import random

import pytest

from recteacher.abstract import HybridHistory, abstract, chunk
from recteacher.corpus import Interaction, ItemMeta
from recteacher.errors import InsufficientInput, ReplyParseError
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.prompts import render_interaction


def interactions(n):
    return [Interaction(user="u", item=f"i{k}", timestamp=1000 + k) for k in range(n)]


def scripted_gateway(*replies):
    backend = ScriptBackend(list(replies))
    return backend, Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)


def summary_reply(text):
    return f"Condensing the segment.\n<SUMMARY>\n{text}\n</SUMMARY>"


def test_chunk_sizes():
    history = interactions(7)
    parts = chunk(history, 3)
    assert [len(p) for p in parts] == [3, 3, 1]
    assert parts[0][0].item == "i0" and parts[-1][0].item == "i6"
    assert [len(p) for p in chunk(history, 7)] == [7]
    assert [len(p) for p in chunk(history, 100)] == [7]
    assert [len(p) for p in chunk(history, 1)] == [1] * 7
    assert chunk([], 3) == []


def test_chunk_rejects_bad_window():
    with pytest.raises(ValueError):
        chunk(interactions(3), 0)


def test_render_interaction_full_and_sparse():
    items = {"i1": ItemMeta(title="The Quiet Harbor"), "i9": ItemMeta(title="Ninth")}
    full = Interaction(user="u", item="i1", timestamp=0, rating=4.0, review_text="great stuff")
    line = render_interaction(full, items)
    assert line == ('Review time: 1970-01-01-12AM item_id: i1 title: The Quiet Harbor '
                    'rating: 4 user review text: "great stuff"')
    sparse = Interaction(user="u", item="i9", timestamp=0)
    assert render_interaction(sparse, items) == "Review time: 1970-01-01-12AM item_id: i9 title: Ninth"


def test_render_interaction_caps_review_excerpt():
    items = {"i1": ItemMeta(title="T")}
    noisy = Interaction(user="u", item="i1", timestamp=0, review_text="x" * 1000)
    line = render_interaction(noisy, items)
    assert line.endswith('"' + "x" * 300 + '"')
    assert "x" * 301 not in line


def test_abstract_empty_history():
    _, gateway = scripted_gateway()
    with pytest.raises(InsufficientInput):
        abstract([], 3, gateway, render=lambda x: x.item)


def test_abstract_single_chunk_is_free():
    backend, gateway = scripted_gateway()
    history = interactions(4)
    result = abstract(history, 10, gateway, render=lambda x: x.item)
    assert result == HybridHistory(long_term_summary="", recent_raw=tuple(history))
    assert backend.sends == 0


def test_abstract_call_count_formula():
    rng = random.Random(11)
    for m in (1, 3, 10):
        for n in (1, 2, 3, 9, 10, 11, 20, 23, rng.randrange(1, 60)):
            expected = max(0, math.ceil(n / m) - 1)
            backend, gateway = scripted_gateway(*[summary_reply(f"s{i}") for i in range(expected)])
            result = abstract(interactions(n), m, gateway, render=lambda x: x.item)
            assert backend.sends == expected, (n, m)
            final = n % m or m
            assert [x.item for x in result.recent_raw] == [f"i{k}" for k in range(n - final, n)]


def test_abstract_chains_previous_summary():
    backend, gateway = scripted_gateway(summary_reply("first pass"), summary_reply("second pass"))
    result = abstract(interactions(7), 3, gateway, render=lambda x: x.item, user_block="user_id: u")
    assert result.long_term_summary == "second pass"
    assert [x.item for x in result.recent_raw] == ["i6"]

    first, second = backend.requests
    assert "(no previous summary)" in first.messages[1]["content"]
    assert "1. i0" in first.messages[1]["content"] and "3. i2" in first.messages[1]["content"]
    assert "first pass" in second.messages[1]["content"]
    assert "1. i3" in second.messages[1]["content"] and "3. i5" in second.messages[1]["content"]
    assert "user_id: u" in first.messages[1]["content"]
    for request in backend.requests:
        assert "You are a long behavioral sequence summary agent" in request.messages[0]["content"]


def test_abstract_missing_summary_tags():
    _, gateway = scripted_gateway("no envelope")
    with pytest.raises(ReplyParseError):
        abstract(interactions(5), 2, gateway, render=lambda x: x.item)
    _, gateway = scripted_gateway("<SUMMARY>  </SUMMARY>")
    with pytest.raises(ReplyParseError):
        abstract(interactions(5), 2, gateway, render=lambda x: x.item)
