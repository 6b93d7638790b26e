"""Bipartite graph construction and neighbor queries against brute force."""

from __future__ import annotations

import random

import pytest

from cfref import brute_item_neighbors, brute_pool, brute_user_neighbors, make_graph, random_graph
from recteacher.corpus import Corpus, ItemMeta, Interaction
from recteacher.errors import EmptyCorpus, MalformedRecord, UnknownItem, UnknownUser
from recteacher.graph import (
    build_graph,
    item_cf_neighbors,
    load_graph,
    neighbor_item_pool,
    save_graph,
    user_cf_neighbors,
)

# Hand-checked fixture: x is read by A and B; A also reads y, B also reads z.
TRIANGLE = {"A": {"x", "y"}, "B": {"x", "z"}, "C": {"y", "z"}}


def test_item_neighbors_hand_checked():
    graph = make_graph(TRIANGLE)
    # y and z each share exactly one reader with x; tie breaks by id
    assert item_cf_neighbors(graph, "x", k=5) == [("y", 1), ("z", 1)]
    assert item_cf_neighbors(graph, "x", k=1) == [("y", 1)]


def test_user_neighbors_hand_checked():
    graph = make_graph(TRIANGLE)
    assert user_cf_neighbors(graph, "A", k=5) == [("B", 1), ("C", 1)]


def test_neighbor_item_pool_hand_checked():
    graph = make_graph(TRIANGLE)
    # B contributes z, C contributes z; y is already A's own
    assert neighbor_item_pool(graph, "A", k_users=5) == ["z"]


def test_ties_at_the_kth_place_break_by_id():
    # w shares two readers with x; v, y and z tie at one for the second place.
    # A's neighbors: B shares two items; C and D tie at one for the second place.
    graph = make_graph({"A": {"x", "w", "z"}, "B": {"x", "w", "y"}, "C": {"x", "v"}, "D": {"w", "u"}})
    assert item_cf_neighbors(graph, "x", k=2) == [("w", 2), ("v", 1)]
    assert user_cf_neighbors(graph, "A", k=2) == [("B", 2), ("C", 1)]
    assert neighbor_item_pool(graph, "A", k_users=2) == ["v", "y"]  # D's u is past the cut
    assert item_cf_neighbors(graph, "x", k=2) == brute_item_neighbors(graph, "x", 2)
    assert user_cf_neighbors(graph, "A", k=2) == brute_user_neighbors(graph, "A", 2)
    assert neighbor_item_pool(graph, "A", k_users=2) == brute_pool(graph, "A", 2)


def test_anchor_excluded_and_zero_overlap_dropped():
    graph = make_graph({"A": {"x"}, "B": {"y"}})
    assert item_cf_neighbors(graph, "x", k=5) == []
    assert user_cf_neighbors(graph, "A", k=5) == []


def test_unknown_anchor_raises():
    graph = make_graph(TRIANGLE)
    with pytest.raises(UnknownItem):
        item_cf_neighbors(graph, "nope", k=1)
    with pytest.raises(UnknownUser):
        user_cf_neighbors(graph, "nobody", k=1)
    with pytest.raises(ValueError):
        item_cf_neighbors(graph, "x", k=0)


def test_build_graph_dedupes_repeat_interactions():
    corpus = Corpus(
        users={"A": {}},
        items={"x": ItemMeta("X")},
        sequences={"A": [
            Interaction("A", "x", 1),
            Interaction("A", "x", 2),
        ]},
    )
    graph = build_graph(corpus)
    assert graph.user_adj == {"A": frozenset({"x"})}
    assert graph.edge_count() == 1


def test_build_graph_empty_raises():
    corpus = Corpus(users={}, items={}, sequences={})
    with pytest.raises(EmptyCorpus):
        build_graph(corpus)


def test_random_graphs_match_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        graph = random_graph(rng)
        for k in (1, 5, 10):
            for item in graph.item_adj:
                assert item_cf_neighbors(graph, item, k) == brute_item_neighbors(graph, item, k)
            for user in graph.user_adj:
                assert user_cf_neighbors(graph, user, k) == brute_user_neighbors(graph, user, k)
                assert neighbor_item_pool(graph, user, k) == brute_pool(graph, user, k)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(9)
    graph = random_graph(rng)
    save_graph(graph, tmp_path / "g.jsonl")
    loaded = load_graph(tmp_path / "g.jsonl")
    assert loaded.user_adj == graph.user_adj
    assert loaded.item_adj == graph.item_adj
    anchor = sorted(graph.item_adj)[0]
    assert item_cf_neighbors(loaded, anchor, 5) == item_cf_neighbors(graph, anchor, 5)


HEADER = '{"edge_count": 1, "item_count": 1, "user_count": 1}'
EDGE = '{"items": ["x"], "user": "A"}'


@pytest.mark.parametrize("text, line, reason", [
    (f"{HEADER}\n\n\n{EDGE}\n[1]\n", 5, "record is not a JSON object"),
    (f"\n{HEADER}\n\n{EDGE}\n{{broken\n", 5, "invalid JSON"),
    (f"{HEADER}\n\n{{\"user\": \"A\"}}\n", 3, "missing 'items'"),
    (f"\n\n[]\n", 3, "record is not a JSON object"),
    (f"\n\n{HEADER.replace('1', '2')}\n{EDGE}\n", 3, "header counts"),
    ("\n\n", 1, "empty graph file"),
    ('{"edge_count": 3, "item_count": 3, "user_count": 2}\n{"items": ["x", "y"], "user": "A"}\n'
     '{"items": ["x"], "user": "B"}\n{"items": ["z", "x"], "user": "A"}\n', 4, "duplicate user 'A'"),
    ('{"edge_count": 2, "item_count": 2, "user_count": 1}\n{"items": [1, null], "user": "A"}\n',
     2, "missing or invalid item"),
    (f"{HEADER}\n{{\"items\": [\"x\"], \"user\": \"A B\"}}\n", 2, "contains a comma or whitespace"),
    (f"{HEADER}\n{{\"items\": [\"x,y\"], \"user\": \"A\"}}\n", 2, "contains a comma or whitespace"),
    (f"{HEADER}\n{{\"items\": [\"x\"], \"user\": \"\"}}\n", 2, "missing or invalid user"),
], ids=["not-object", "bad-json", "no-items", "bad-header", "count-mismatch", "empty",
        "repeated-user", "non-string-items", "user-with-space", "item-with-comma", "empty-user"])
def test_load_graph_names_the_line_in_the_file(tmp_path, text, line, reason):
    path = tmp_path / "g.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        load_graph(path)
    assert excinfo.value.line == line  # blank lines count
    assert excinfo.value.source == str(path)
    assert reason in excinfo.value.reason
