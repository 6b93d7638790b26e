"""Evidence cache behavior and CF-neighborhood verbalization."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import hashlib
import threading
import time

import pytest

from recteacher.corpus import Catalog, ItemMeta
from recteacher.errors import MalformedRecord, ReplyParseError, UnknownId
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.tags import ToolCall
from recteacher.util import read_jsonl
from recteacher.verbalize import (
    FALLBACK_NO_NEIGHBORS,
    Evidence,
    EvidenceCache,
    all_keys,
    verbalize_item,
    verbalize_user,
    warm_cache,
)

from cfref import make_graph

# A:{x,y} B:{x,z} C:{y,z} plus isolated pair (D, w) with no shared signal.
GRAPH = make_graph({
    "A": {"x", "y"},
    "B": {"x", "z"},
    "C": {"y", "z"},
    "D": {"w"},
})

CATALOG = Catalog(
    users={u: {"age": "30"} for u in "ABCD"},
    items={
        i: ItemMeta(title=f"Title {i.upper()}", attributes={"genre": "sf"})
        for i in "xyzw"
    },
)


def answer(text):
    return f"Grouping the items.\n<Answer>\n{text}\n</Answer>"


def scripted_gateway(*replies, max_parallel=1):
    backend = ScriptBackend(list(replies))
    gateway = Gateway(backend, GatewayConfig(max_parallel=max_parallel), sleep=lambda s: None)
    return backend, gateway


def test_cache_put_lookup_len_keys():
    cache = EvidenceCache()
    key = ToolCall("ItemCF", "x")
    assert cache.lookup(key) is None
    evidence = Evidence(key=key, text="t", source_neighbors=("y",), created_at=7)
    cache.put(evidence)
    assert len(cache) == 1
    assert cache.lookup(key) is evidence
    assert cache.lookup(ToolCall("UserCF", "x")) is None  # the key is the (tool, anchor) pair


def test_cache_persistence_round_trip(tmp_path):
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    first = Evidence(ToolCall("ItemCF", "x"), "about x", ("y", "z"), 3)
    second = Evidence(ToolCall("UserCF", "A"), "about A", ("z",), 4)
    cache.put(first)
    cache.put(second)

    loaded = EvidenceCache.load(path)
    assert len(loaded) == 2
    got = loaded.lookup(first.key)
    assert got == first
    assert loaded.lookup(second.key) == second
    assert loaded.path == path


def test_a_put_after_a_last_line_without_its_newline_keeps_both_entries(tmp_path):
    path = tmp_path / "evidence.jsonl"
    path.write_text('{"tool": "ItemCF", "anchor": "x", "text": "about x"}', encoding="utf-8")
    cache = EvidenceCache.load(path)
    second = Evidence(ToolCall("UserCF", "A"), "about A", ("z",), 0)
    cache.put(second)
    loaded = EvidenceCache.load(path)
    assert len(loaded) == 2
    assert loaded.lookup(ToolCall("ItemCF", "x")).text == "about x"
    assert loaded.lookup(second.key) == second


def test_cache_load_refuses_a_repeated_key(tmp_path):
    # one repeated-id rule for every keyed record: the repeat, not the last line, is what counts
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    key = ToolCall("ItemCF", "x")
    cache.put(Evidence(key, "stale", (), 1))
    cache.put(Evidence(ToolCall("UserCF", "x"), "same anchor, other tool", (), 1))
    cache.put(Evidence(key, "fresh", ("y",), 2))
    with pytest.raises(MalformedRecord) as excinfo:
        EvidenceCache.load(path)
    assert (excinfo.value.source, excinfo.value.line) == (str(path), 3)
    assert excinfo.value.reason.startswith("duplicate evidence key ")
    assert "ItemCF" in excinfo.value.reason and "'x'" in excinfo.value.reason


@pytest.mark.parametrize("line, reason", [
    ('["ItemCF", "x", "text"]', "not a JSON object"),
    ('{"anchor": "x", "text": "t"}', "missing 'tool'"),
    ('{"tool": "ItemCF", "text": "t"}', "missing 'anchor'"),
    ('{"tool": "ItemCF", "anchor": "x"}', "missing 'text'"),
    ('{"tool": "Foo", "anchor": "x", "text": "t"}', "unknown tool 'Foo'"),
    ('{"tool": 7, "anchor": "x", "text": "t"}', "unknown tool 7"),
    ('{"tool": ["ItemCF"], "anchor": "x", "text": "t"}', "unknown tool ['ItemCF']"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "created_at": "soon"}', "created_at"),
    ('{"tool": "ItemCF", "anchor": null, "text": "t", "neighbors": [null, 3]}', "invalid anchor"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "neighbors": [null, 3]}', "invalid neighbor"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "neighbors": "ab"}', "neighbors must be a list"),
    ('{"tool": "ItemCF", "anchor": "x", "text": null}', "text must be a string"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "created_at": "7"}', "created_at"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "created_at": true}', "created_at"),
], ids=["not-object", "no-tool", "no-anchor", "no-text", "unknown-tool", "int-tool",
        "list-tool", "bad-created-at", "null-anchor", "null-neighbor", "neighbors-string",
        "null-text", "string-created-at", "bool-created-at"])
def test_cache_load_names_the_malformed_line(tmp_path, line, reason):
    path = tmp_path / "evidence.jsonl"
    good = '{"tool": "UserCF", "anchor": "A", "text": "fine"}'
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        EvidenceCache.load(path)
    assert excinfo.value.line == 2
    assert excinfo.value.source == str(path)
    assert reason in excinfo.value.reason


def test_cache_load_binds_a_missing_file_as_an_empty_cache(tmp_path):
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache.load(path)
    assert len(cache) == 0
    assert not path.exists()
    evidence = Evidence(ToolCall("ItemCF", "x"), "about x", ("y",), 0)
    cache.put(evidence)
    assert EvidenceCache.load(path).lookup(evidence.key) == evidence


def test_verbalize_item_happy_path():
    backend, gateway = scripted_gateway(answer("readers of x also like y and z"))
    evidence = verbalize_item(GRAPH, CATALOG.items, "x", gateway)
    assert evidence.key == ToolCall("ItemCF", "x")
    assert evidence.text == "readers of x also like y and z"
    assert evidence.source_neighbors == ("y", "z")
    assert evidence.created_at == 0
    assert backend.sends == 1

    request = backend.requests[0]
    system = request.messages[0]["content"]
    user = request.messages[1]["content"]
    assert 'denoted as the "collaborative items"' in system
    assert "# Target item" in user
    assert "item_id: x | title: Title X | genre: sf" in user
    assert "# Collaborative items" in user
    assert "1. item_id: y" in user and "2. item_id: z" in user
    assert "> genre (Item attribute)" in user


def test_verbalize_item_no_neighbors_skips_gateway():
    backend, gateway = scripted_gateway()
    evidence = verbalize_item(GRAPH, CATALOG.items, "w", gateway)
    assert evidence.text == FALLBACK_NO_NEIGHBORS
    assert evidence.source_neighbors == ()
    assert evidence.created_at == 0
    assert backend.sends == 0


def test_verbalize_item_missing_answer_tags():
    _, gateway = scripted_gateway("no envelope here")
    with pytest.raises(ReplyParseError):
        verbalize_item(GRAPH, CATALOG.items, "x", gateway)
    _, gateway = scripted_gateway("<Answer>   </Answer>")
    with pytest.raises(ReplyParseError):
        verbalize_item(GRAPH, CATALOG.items, "x", gateway)


def test_verbalize_item_unknown_anchor():
    _, gateway = scripted_gateway()
    with pytest.raises(UnknownId):
        verbalize_item(GRAPH, CATALOG.items, "missing", gateway)


def test_verbalize_user_happy_path():
    backend, gateway = scripted_gateway(answer("A would enjoy z"))
    evidence = verbalize_user(GRAPH, CATALOG.users, CATALOG.items, "A", gateway)
    assert evidence.key == ToolCall("UserCF", "A")
    assert evidence.text == "A would enjoy z"
    assert evidence.source_neighbors == ("z",)

    request = backend.requests[0]
    system = request.messages[0]["content"]
    user = request.messages[1]["content"]
    assert 'denoted as the "preference items"' in system
    assert "# Target user" in user
    assert "user_id: A | age: 30" in user
    assert "# Preference items" in user
    assert "1. item_id: z" in user


def test_verbalize_user_no_pool_and_unknown():
    backend, gateway = scripted_gateway()
    evidence = verbalize_user(GRAPH, CATALOG.users, CATALOG.items, "D", gateway)
    assert evidence.text == FALLBACK_NO_NEIGHBORS
    assert backend.sends == 0
    with pytest.raises(UnknownId):
        verbalize_user(GRAPH, CATALOG.users, CATALOG.items, "nobody", gateway)


def test_all_keys_sorted_items_then_users():
    keys = all_keys(GRAPH)
    assert keys == [
        ToolCall("ItemCF", "w"), ToolCall("ItemCF", "x"),
        ToolCall("ItemCF", "y"), ToolCall("ItemCF", "z"),
        ToolCall("UserCF", "A"), ToolCall("UserCF", "B"),
        ToolCall("UserCF", "C"), ToolCall("UserCF", "D"),
    ]


def test_warm_cache_full_and_persists_in_key_order(tmp_path):
    # 8 keys total; w and D have no neighbors so only 6 gateway calls.
    backend, gateway = scripted_gateway(*[answer(f"evidence {i}") for i in range(6)])
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    assert warm_cache(GRAPH, CATALOG, gateway, cache) == []
    assert len(cache) == 8
    assert backend.sends == 6
    records = [record for _, record in read_jsonl(path)]
    assert [record["anchor"] for record in records] == ["w", "x", "y", "z", "A", "B", "C", "D"]
    assert {record["created_at"] for record in records} == {0}


def test_warm_cache_only_missing_is_a_noop():
    backend, gateway = scripted_gateway(*[answer("e")] * 6)
    cache = EvidenceCache()
    warm_cache(GRAPH, CATALOG, gateway, cache)
    assert backend.sends == 6
    assert warm_cache(GRAPH, CATALOG, gateway, cache) == []
    assert len(cache) == 8
    assert backend.sends == 6


def test_warm_cache_on_a_complete_cache_starts_no_thread(monkeypatch):
    backend, gateway = scripted_gateway(*[answer("e")] * 6, max_parallel=3)
    cache = EvidenceCache()
    warm_cache(GRAPH, CATALOG, gateway, cache)
    assert backend.sends == 6
    starts: list[threading.Thread] = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (starts.append(thread), start(thread)))
    assert warm_cache(GRAPH, CATALOG, gateway, cache) == []
    assert starts == []
    assert backend.sends == 6


def test_warm_cache_puts_in_key_order_when_calls_finish_out_of_order(tmp_path):
    z_answered = threading.Event()
    answered: list[str] = []

    def reply(request, index):
        user_text = request.messages[1]["content"]
        anchor = next((a for a in "xyz" if f"# Target item\nitem_id: {a} " in user_text), "user")
        if anchor in ("x", "y"):
            assert z_answered.wait(5)  # the calls for x and y finish after the one for z
        answered.append(anchor)
        if anchor == "z":
            z_answered.set()
        return answer(f"about {anchor}")

    backend, gateway = scripted_gateway(*[reply] * 6, max_parallel=3)
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    assert warm_cache(GRAPH, CATALOG, gateway, cache) == []
    assert answered[0] == "z"
    records = [record for _, record in read_jsonl(path)]
    assert [record["anchor"] for record in records] == ["w", "x", "y", "z", "A", "B", "C", "D"]
    for anchor in "xyz":
        assert cache.lookup(ToolCall("ItemCF", anchor)).text == f"about {anchor}"


@pytest.mark.parametrize("width", [2, 3, 8])
def test_warm_cache_writes_the_same_file_at_any_width(tmp_path, width):
    # each reply is keyed by the request it answers, and calls finish out of order
    def reply(request, index):
        time.sleep(0.001 * (index % 3))
        digest = hashlib.sha256(request.messages[1]["content"].encode()).hexdigest()
        return answer(f"evidence {digest[:16]}")

    paths = []
    for parallel in (1, width):
        _, gateway = scripted_gateway(*[reply] * 6, max_parallel=parallel)
        path = tmp_path / f"width-{parallel}.jsonl"
        assert warm_cache(GRAPH, CATALOG, gateway, EvidenceCache(path)) == []
        paths.append(path)
    serial, wide = paths
    assert serial.read_bytes() == wide.read_bytes()
    assert len(serial.read_text(encoding="utf-8").splitlines()) == 8


@pytest.mark.parametrize("slots, workers", [(1, 1), (2, 3), (4, 5)])
def test_warm_cache_runs_one_caller_more_than_its_slots_above_one_slot(monkeypatch, slots, workers):
    widths = []
    init = ThreadPoolExecutor.__init__

    def counting_init(pool, max_workers=None, *args, **kwargs):
        widths.append(max_workers)
        init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
    _, gateway = scripted_gateway(*[answer("e")] * 6, max_parallel=slots)
    assert warm_cache(GRAPH, CATALOG, gateway, EvidenceCache()) == []
    assert widths == [workers]


def test_at_two_slots_a_third_caller_waits_while_both_sends_are_in_flight():
    # the first two sends return only once a third caller is in `complete`, so its request
    # was rendered while no slot was free; a pool of two callers times out here instead
    third_entered = threading.Event()
    lock = threading.Lock()
    entered = in_flight = peak = 0
    waits = []

    def reply(request, index):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        if index < 2:
            waits.append(third_entered.wait(5))
        with lock:
            in_flight -= 1
        return answer("e")

    _, gateway = scripted_gateway(*[reply] * 6, max_parallel=2)
    complete = gateway.complete

    def counting_complete(request):
        nonlocal entered
        with lock:
            entered += 1
            if entered == 3:
                third_entered.set()
        return complete(request)

    gateway.complete = counting_complete
    assert warm_cache(GRAPH, CATALOG, gateway, EvidenceCache()) == []
    assert waits == [True, True]
    assert peak == 2


def test_warm_cache_partial_precache():
    backend, gateway = scripted_gateway(*[answer("e")] * 5)
    cache = EvidenceCache()
    cache.put(Evidence(ToolCall("ItemCF", "x"), "already", ("y", "z"), 0))
    warm_cache(GRAPH, CATALOG, gateway, cache)
    assert backend.sends == 5
    assert cache.lookup(ToolCall("ItemCF", "x")).text == "already"


def test_warm_cache_returns_failed_keys():
    # Second scripted reply has no envelope; max_parallel=1 keys it to ItemCF y.
    backend, gateway = scripted_gateway(
        answer("x text"), "broken reply", *[answer("e")] * 4,
    )
    cache = EvidenceCache()
    failures = warm_cache(GRAPH, CATALOG, gateway, cache)
    assert [key for key, _ in failures] == [ToolCall("ItemCF", "y")]
    assert all(isinstance(exc, ReplyParseError) for _, exc in failures)
    # Every other key still landed despite the failure.
    assert len(cache) == 7
    assert cache.lookup(ToolCall("ItemCF", "y")) is None
    assert backend.sends == 6


def test_warm_cache_side_by_side_keeps_key_order(tmp_path):
    # Replies are keyed by the anchor a request names, not by send order, so
    # the outcome is fixed at any width; the key of ItemCF y gets no envelope.
    def reply(request, index):
        user_text = request.messages[1]["content"]
        return "broken reply" if "# Target item\nitem_id: y " in user_text else answer("e")

    backend, gateway = scripted_gateway(*[reply] * 6, max_parallel=3)
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    failures = warm_cache(GRAPH, CATALOG, gateway, cache)
    assert [key for key, _ in failures] == [ToolCall("ItemCF", "y")]
    assert backend.sends == 6
    anchors = [record["anchor"] for _, record in read_jsonl(path)]
    assert anchors == ["w", "x", "z", "A", "B", "C", "D"]
