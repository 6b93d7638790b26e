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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Corpus, require_id
from .errors import EmptyCorpus, MalformedRecord, UnknownItem, UnknownUser
from .util import atomic_writer, decode_jsonl, read_jsonl, require_field, unique_ids

logger = logging.getLogger(__name__)

DEFAULT_NEIGHBOR_K = 10

Adjacency = Mapping[str, frozenset[str]]


@dataclass
class InteractionGraph:
    """user_adj[u] = items u touched; item_adj[i] = users who touched i."""

    user_adj: dict[str, frozenset[str]]
    item_adj: dict[str, frozenset[str]]

    @classmethod
    def from_user_sets(cls, user_sets: Mapping[str, Iterable[str]]) -> "InteractionGraph":
        """The graph of each user's items; the one place item_adj is derived."""
        user_adj = {user: frozenset(items) for user, items in user_sets.items()}
        item_sets: dict[str, set[str]] = {}
        for user, items in user_adj.items():
            for item in items:
                item_sets.setdefault(item, set()).add(user)
        return cls(user_adj=user_adj, item_adj={i: frozenset(s) for i, s in item_sets.items()})

    def edge_count(self) -> int:
        return sum(len(items) for items in self.user_adj.values())


def build_graph(corpus: Corpus) -> InteractionGraph:
    """Build the deduplicated bipartite graph from all interactions."""
    user_sets = {user: {inter.item for inter in seq} for user, seq in corpus.sequences.items() if seq}
    if not user_sets:
        raise EmptyCorpus("no interactions to build a graph from")
    graph = InteractionGraph.from_user_sets(user_sets)
    logger.info(
        "built graph: %d users, %d items, %d edges",
        len(graph.user_adj), len(graph.item_adj), graph.edge_count(),
    )
    return graph


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _by_count(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """(id, count) pairs, highest count first, ties by ascending id."""
    ranked = sorted(counts.items(), key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)  # stable, so ties keep id order
    return ranked


def _top_k(counts: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """The first k pairs of `_by_count(counts)`, sorting only the pairs at or above the k-th count."""
    if len(counts) > k:
        floor = heapq.nlargest(k, counts.values())[-1]
        counts = {node: n for node, n in counts.items() if n >= floor}
    return _by_count(counts)[:k]


def _two_hop(adj: Adjacency, back: Adjacency, anchor: str, k: int,
             unknown: type[Exception]) -> list[tuple[str, int]]:
    """Top-k nodes sharing a neighbor with the anchor (anchor -> adj -> back), by shared count.

    The anchor itself is excluded; an anchor not in `adj` raises `unknown`.
    """
    _validate_k(k)
    middle = adj.get(anchor)
    if middle is None:
        raise unknown(anchor)
    scores: Counter = Counter()
    for node in middle:
        scores.update(back[node])
    del scores[anchor]
    return _top_k(scores, k)


def item_cf_neighbors(
    graph: InteractionGraph,
    anchor: str,
    k: int = DEFAULT_NEIGHBOR_K,
) -> list[tuple[str, int]]:
    """Top-k items sharing users with the anchor (Item -> User -> Item), scored by co-reader count."""
    return _two_hop(graph.item_adj, graph.user_adj, anchor, k, UnknownItem)


def user_cf_neighbors(
    graph: InteractionGraph,
    anchor: str,
    k: int = DEFAULT_NEIGHBOR_K,
) -> list[tuple[str, int]]:
    """Top-k users sharing items with the anchor (User -> Item -> User)."""
    return _two_hop(graph.user_adj, graph.item_adj, anchor, k, UnknownUser)


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


def _decode_adjacency(obj: dict) -> tuple[str, list[str]]:
    """(user, items) of one adjacency line; ValueError says what is wrong with it."""
    items = require_field(obj, "items", list)
    return require_id(obj.get("user"), "user"), [require_id(item, "item") for item in items]


def load_graph(path: str | Path) -> InteractionGraph:
    """Load a persisted graph; queries behave identically to the original.

    A bad record raises MalformedRecord naming its line in the file: one that
    is not `{user, items}`, an id `corpus.require_id` rejects, a user given a
    second line, or a header whose counts the body does not match.
    """
    header_line, header = next(read_jsonl(path), (1, None))
    if header is None:
        raise MalformedRecord(1, "empty graph file", source=str(path))
    user_sets = dict(pair for _lineno, pair in
                     decode_jsonl(path, unique_ids(_decode_adjacency, "user"), skip=1))
    graph = InteractionGraph.from_user_sets(user_sets)
    expected = (header.get("user_count"), header.get("item_count"), header.get("edge_count"))
    actual = (len(graph.user_adj), len(graph.item_adj), graph.edge_count())
    if expected != actual:
        raise MalformedRecord(header_line, f"header counts {expected} do not match body {actual}",
                              source=str(path))
    return graph
