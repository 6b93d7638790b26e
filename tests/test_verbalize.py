"""Evidence cache behavior and CF-neighborhood verbalization."""

from __future__ import annotations

import pytest

from recteacher.corpus import Corpus, ItemMeta, UserMeta
from recteacher.errors import MalformedRecord, MissingAnswerTags, UnknownItem, UnknownUser
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.util import read_jsonl
from recteacher.verbalize import (
    FALLBACK_NO_NEIGHBORS,
    CacheMiss,
    Evidence,
    EvidenceCache,
    EvidenceKey,
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

CORPUS = Corpus(
    users={u: UserMeta(user=u, attributes={"age": "30"}) for u in "ABCD"},
    items={
        i: ItemMeta(item=i, title=f"Title {i.upper()}", attributes={"genre": "sf"})
        for i in "xyzw"
    },
    sequences={},
)


def answer(text):
    return f"Grouping the items.\n<Answer>\n{text}\n</Answer>"


def scripted_gateway(*replies, max_parallel=1):
    backend = ScriptBackend(list(replies))
    gateway = Gateway(backend, GatewayConfig(max_parallel=max_parallel), sleep=lambda s: None)
    return backend, gateway


def test_evidence_key_rejects_unknown_tool():
    with pytest.raises(ValueError):
        EvidenceKey(tool="MatrixFactorization", anchor="x")


def test_cache_put_lookup_len_keys():
    cache = EvidenceCache()
    key = EvidenceKey("ItemCF", "x")
    assert isinstance(cache.lookup(key), CacheMiss)
    assert cache.lookup(key).key == key
    evidence = Evidence(key=key, text="t", source_neighbors=("y",), created_at=7)
    cache.put(evidence)
    assert len(cache) == 1
    assert cache.keys() == [key]
    assert cache.lookup(key) is evidence


def test_cache_persistence_round_trip(tmp_path):
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    first = Evidence(EvidenceKey("ItemCF", "x"), "about x", ("y", "z"), 3)
    second = Evidence(EvidenceKey("UserCF", "A"), "about A", ("z",), 4)
    cache.put(first)
    cache.put(second)

    loaded = EvidenceCache.load(path)
    assert len(loaded) == 2
    got = loaded.lookup(first.key)
    assert got == first
    assert loaded.lookup(second.key) == second
    assert loaded.path == path


def test_cache_load_last_record_wins(tmp_path):
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    key = EvidenceKey("ItemCF", "x")
    cache.put(Evidence(key, "stale", (), 1))
    cache.put(Evidence(key, "fresh", ("y",), 2))
    loaded = EvidenceCache.load(path)
    assert len(loaded) == 1
    assert loaded.lookup(key).text == "fresh"
    assert loaded.lookup(key).created_at == 2


@pytest.mark.parametrize("line, reason", [
    ('["ItemCF", "x", "text"]', "not a JSON object"),
    ('{"anchor": "x", "text": "t"}', "missing tool"),
    ('{"tool": "ItemCF", "text": "t"}', "missing anchor"),
    ('{"tool": "ItemCF", "anchor": "x"}', "missing text"),
    ('{"tool": "Foo", "anchor": "x", "text": "t"}', "unknown tool 'Foo'"),
    ('{"tool": "ItemCF", "anchor": "x", "text": "t", "created_at": "soon"}', "created_at"),
], ids=["not-object", "no-tool", "no-anchor", "no-text", "unknown-tool", "bad-created-at"])
def test_cache_load_names_the_malformed_line(tmp_path, line, reason):
    path = tmp_path / "evidence.jsonl"
    good = '{"tool": "UserCF", "anchor": "A", "text": "fine"}'
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        EvidenceCache.load(path)
    assert excinfo.value.line == 2
    assert excinfo.value.source == str(path)
    assert reason in excinfo.value.reason


def test_cache_held_entries_reach_the_file_when_named(tmp_path):
    path = tmp_path / "evidence.jsonl"
    cache = EvidenceCache(path)
    x = Evidence(EvidenceKey("ItemCF", "x"), "about x", ("y",), 0)
    a = Evidence(EvidenceKey("UserCF", "A"), "about A", ("z",), 0)
    cache.put(x, hold=True)
    cache.put(a, hold=True)
    assert cache.lookup(x.key) is x  # served before it is written
    assert not path.exists()

    written = Evidence(EvidenceKey("ItemCF", "w"), "about w", (), 0)
    cache.put(written)
    # unknown and already-written keys are skipped; each held key is written once
    cache.write_held([a.key, EvidenceKey("ItemCF", "nowhere"), written.key, a.key, x.key])
    cache.write_held([x.key])
    assert [record["anchor"] for _, record in read_jsonl(path)] == ["w", "A", "x"]
    assert EvidenceCache.load(path).lookup(a.key) == a


def test_verbalize_item_happy_path():
    backend, gateway = scripted_gateway(answer("readers of x also like y and z"))
    evidence = verbalize_item(GRAPH, CORPUS.items, "x", gateway, created_at=9)
    assert evidence.key == EvidenceKey("ItemCF", "x")
    assert evidence.text == "readers of x also like y and z"
    assert evidence.source_neighbors == ("y", "z")
    assert evidence.created_at == 9
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
    evidence = verbalize_item(GRAPH, CORPUS.items, "w", gateway, created_at=5)
    assert evidence.text == FALLBACK_NO_NEIGHBORS
    assert evidence.source_neighbors == ()
    assert evidence.created_at == 5
    assert backend.sends == 0


def test_verbalize_item_missing_answer_tags():
    _, gateway = scripted_gateway("no envelope here")
    with pytest.raises(MissingAnswerTags):
        verbalize_item(GRAPH, CORPUS.items, "x", gateway)
    _, gateway = scripted_gateway("<Answer>   </Answer>")
    with pytest.raises(MissingAnswerTags):
        verbalize_item(GRAPH, CORPUS.items, "x", gateway)


def test_verbalize_item_unknown_anchor():
    _, gateway = scripted_gateway()
    with pytest.raises(UnknownItem):
        verbalize_item(GRAPH, CORPUS.items, "missing", gateway)


def test_verbalize_user_happy_path():
    backend, gateway = scripted_gateway(answer("A would enjoy z"))
    evidence = verbalize_user(GRAPH, CORPUS.users, CORPUS.items, "A", gateway)
    assert evidence.key == EvidenceKey("UserCF", "A")
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
    evidence = verbalize_user(GRAPH, CORPUS.users, CORPUS.items, "D", gateway)
    assert evidence.text == FALLBACK_NO_NEIGHBORS
    assert backend.sends == 0
    with pytest.raises(UnknownUser):
        verbalize_user(GRAPH, CORPUS.users, CORPUS.items, "nobody", gateway)


def test_all_keys_sorted_items_then_users():
    keys = all_keys(GRAPH)
    assert keys == [
        EvidenceKey("ItemCF", "w"), EvidenceKey("ItemCF", "x"),
        EvidenceKey("ItemCF", "y"), EvidenceKey("ItemCF", "z"),
        EvidenceKey("UserCF", "A"), EvidenceKey("UserCF", "B"),
        EvidenceKey("UserCF", "C"), EvidenceKey("UserCF", "D"),
    ]


def test_warm_cache_full_and_persists_in_key_order(tmp_path):
    # 8 keys total; w and D have no neighbors so only 6 gateway calls.
    backend, gateway = scripted_gateway(*[answer(f"evidence {i}") for i in range(6)])
    path = tmp_path / "evidence.jsonl"
    cache = warm_cache(GRAPH, CORPUS, gateway, cache=EvidenceCache(path), created_at=1)
    assert len(cache) == 8
    assert backend.sends == 6
    anchors = [record["anchor"] for _, record in read_jsonl(path)]
    assert anchors == ["w", "x", "y", "z", "A", "B", "C", "D"]


def test_warm_cache_only_missing_is_a_noop():
    backend, gateway = scripted_gateway(*[answer("e")] * 6)
    cache = warm_cache(GRAPH, CORPUS, gateway)
    assert backend.sends == 6
    again = warm_cache(GRAPH, CORPUS, gateway, cache=cache)
    assert again is cache
    assert backend.sends == 6


def test_warm_cache_partial_precache():
    backend, gateway = scripted_gateway(*[answer("e")] * 5)
    cache = EvidenceCache()
    cache.put(Evidence(EvidenceKey("ItemCF", "x"), "already", ("y", "z"), 0))
    warm_cache(GRAPH, CORPUS, gateway, cache=cache)
    assert backend.sends == 5
    assert cache.lookup(EvidenceKey("ItemCF", "x")).text == "already"


def test_warm_cache_subset_of_keys():
    backend, gateway = scripted_gateway(answer("only x"))
    cache = warm_cache(GRAPH, CORPUS, gateway, keys=[EvidenceKey("ItemCF", "x")])
    assert len(cache) == 1
    assert backend.sends == 1


def test_warm_cache_failure_routed_to_on_error():
    # Second scripted reply has no envelope; max_parallel=1 keys it to ItemCF y.
    backend, gateway = scripted_gateway(
        answer("x text"), "broken reply", *[answer("e")] * 4,
    )
    failures = []
    cache = warm_cache(
        GRAPH, CORPUS, gateway,
        on_error=lambda key, exc: failures.append((key, exc)),
    )
    assert [key for key, _ in failures] == [EvidenceKey("ItemCF", "y")]
    assert all(isinstance(exc, MissingAnswerTags) for _, exc in failures)
    # Every other key still landed despite the failure.
    assert len(cache) == 7
    assert isinstance(cache.lookup(EvidenceKey("ItemCF", "y")), CacheMiss)
    assert backend.sends == 6
