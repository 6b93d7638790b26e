"""Bipartite interaction graph and neighborhood collaborative filtering.

Queries are read-only and deterministic: neighbor scores count co-occurring
users/items, and ties always break by ascending id.
"""

from __future__ import annotations

import heapq
import json
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import EmptyCorpus, MalformedRecord, UnknownItem, UnknownUser
from .util import atomic_writer

logger = logging.getLogger(__name__)

DEFAULT_NEIGHBOR_K = 10


@dataclass
class InteractionGraph:
    """user_adj[u] = items u touched; item_adj[i] = users who touched i."""

    user_adj: dict[str, frozenset[str]]
    item_adj: dict[str, frozenset[str]]

    def edge_count(self) -> int:
        return sum(len(items) for items in self.user_adj.values())


def build_graph(corpus: Corpus) -> InteractionGraph:
    """Build the deduplicated bipartite graph from all interactions."""
    user_sets: dict[str, set[str]] = {}
    item_sets: dict[str, set[str]] = {}
    total = 0
    for user, seq in corpus.sequences.items():
        for inter in seq:
            user_sets.setdefault(user, set()).add(inter.item)
            item_sets.setdefault(inter.item, set()).add(user)
            total += 1
    if total == 0:
        raise EmptyCorpus("no interactions to build a graph from")
    graph = InteractionGraph(
        user_adj={u: frozenset(s) for u, s in user_sets.items()},
        item_adj={i: frozenset(s) for i, s in item_sets.items()},
    )
    logger.info(
        "built graph: %d users, %d items, %d edges",
        len(graph.user_adj), len(graph.item_adj), graph.edge_count(),
    )
    return graph


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _rank_key(pair: tuple[str, int]) -> tuple[int, str]:
    """Highest count first, ties by ascending id."""
    return -pair[1], pair[0]


def _by_count(counts: Counter) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=_rank_key)


def _top_k(counts: Counter, k: int) -> list[tuple[str, int]]:
    return heapq.nsmallest(k, counts.items(), key=_rank_key)


def item_cf_neighbors(
    graph: InteractionGraph,
    anchor: str,
    k: int = DEFAULT_NEIGHBOR_K,
) -> list[tuple[str, int]]:
    """Top-k items sharing users with the anchor (Item -> User -> Item).

    Score is the co-reader count; only items with at least one shared user
    qualify; the anchor itself is excluded.
    """
    _validate_k(k)
    users = graph.item_adj.get(anchor)
    if users is None:
        raise UnknownItem(anchor)
    scores: Counter = Counter()
    for user in users:
        scores.update(graph.user_adj[user])
    del scores[anchor]
    return _top_k(scores, k)


def user_cf_neighbors(
    graph: InteractionGraph,
    anchor: str,
    k: int = DEFAULT_NEIGHBOR_K,
) -> list[tuple[str, int]]:
    """Top-k users sharing items with the anchor (User -> Item -> User)."""
    _validate_k(k)
    items = graph.user_adj.get(anchor)
    if items is None:
        raise UnknownUser(anchor)
    scores: Counter = Counter()
    for item in items:
        scores.update(graph.item_adj[item])
    del scores[anchor]
    return _top_k(scores, k)


def neighbor_item_pool(
    graph: InteractionGraph,
    anchor: str,
    k_users: int = DEFAULT_NEIGHBOR_K,
) -> list[str]:
    """Items the anchor's top-k similar users touched, minus the anchor's own.

    Ordered by how many similar users touched the item, ties by ascending id.
    """
    similar = user_cf_neighbors(graph, anchor, k_users)
    counts: Counter = Counter()
    for other, _score in similar:
        counts.update(graph.user_adj[other])
    for item in graph.user_adj[anchor]:
        del counts[item]
    return [item for item, _count in _by_count(counts)]


def save_graph(graph: InteractionGraph, path: str | Path) -> None:
    """Persist as one header line plus one id-sorted adjacency line per user."""
    header = {
        "user_count": len(graph.user_adj),
        "item_count": len(graph.item_adj),
        "edge_count": graph.edge_count(),
    }
    with atomic_writer(path) as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for user in sorted(graph.user_adj):
            line = json.dumps({"user": user, "items": sorted(graph.user_adj[user])}, sort_keys=True)
            handle.write(line + "\n")


def load_graph(path: str | Path) -> InteractionGraph:
    """Load a persisted graph; queries behave identically to the original."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        raw_lines = [line.strip() for line in handle if line.strip()]
    if not raw_lines:
        raise MalformedRecord(1, "empty graph file", source=str(path))

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc}", source=str(path)) from exc
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not a JSON object", source=str(path))
        return obj

    header = parse(1, raw_lines[0])
    user_adj: dict[str, frozenset[str]] = {}
    item_sets: dict[str, set[str]] = {}
    for lineno, text in enumerate(raw_lines[1:], 2):
        obj = parse(lineno, text)
        user, items = obj.get("user"), obj.get("items")
        if not isinstance(user, str) or not isinstance(items, list):
            raise MalformedRecord(lineno, "adjacency record needs user and items", source=str(path))
        user_adj[user] = frozenset(items)
        for item in items:
            item_sets.setdefault(item, set()).add(user)

    graph = InteractionGraph(
        user_adj=user_adj,
        item_adj={i: frozenset(s) for i, s in item_sets.items()},
    )
    expected = (header.get("user_count"), header.get("item_count"), header.get("edge_count"))
    actual = (len(graph.user_adj), len(graph.item_adj), graph.edge_count())
    if expected != actual:
        raise MalformedRecord(1, f"header counts {expected} do not match body {actual}", source=str(path))
    return graph
