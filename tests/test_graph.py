"""Bipartite graph construction and neighbor queries against brute force."""

from __future__ import annotations

import random

import pytest

from cfref import brute_item_neighbors, brute_pool, brute_user_neighbors, make_graph, random_graph
from recteacher.corpus import Corpus, ItemMeta, Interaction, UserMeta
from recteacher.errors import EmptyCorpus, UnknownItem, UnknownUser
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
        users={"A": UserMeta("A")},
        items={"x": ItemMeta("x", "X")},
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
