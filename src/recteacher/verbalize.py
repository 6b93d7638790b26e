"""Offline verbalization of collaborative-filtering neighborhoods.

Neighbor sets from the interaction graph are turned into natural-language
evidence once, through the gateway, and cached on disk. Online tool calls then
reduce to cache lookups.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import json
import logging
from pathlib import Path
import threading
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import Corpus, ItemMeta, UserMeta
from .errors import MissingAnswerTags, UnknownItem, UnknownUser
from .gateway import Gateway, chat_request
from .graph import (
    DEFAULT_NEIGHBOR_K,
    InteractionGraph,
    item_cf_neighbors,
    neighbor_item_pool,
)
from . import prompts
from .tags import ANSWER_TAG, RECOGNIZED_TOOLS, extract_tagged
from .util import dump_json_line, read_jsonl

logger = logging.getLogger(__name__)

# Deterministic evidence for anchors with no collaborative signal; no gateway call.
FALLBACK_NO_NEIGHBORS = "no collaborative neighbors found"


@dataclass(frozen=True)
class EvidenceKey:
    tool: str
    anchor: str

    def __post_init__(self) -> None:
        if self.tool not in RECOGNIZED_TOOLS:
            raise ValueError(f"unknown tool {self.tool!r}")


@dataclass(frozen=True)
class Evidence:
    key: EvidenceKey
    text: str
    source_neighbors: tuple[str, ...]
    created_at: int


@dataclass(frozen=True)
class CacheMiss:
    key: EvidenceKey


class EvidenceCache:
    """At most one Evidence per key; optionally persisted one record per line.

    Writes append and flush immediately so keys verbalized before a partial
    failure survive it. An entry put with `hold=True` is served from memory
    at once but reaches the file only when `write_held` names its key, so
    callers that fill keys concurrently still choose the file order.
    """

    def __init__(self, path: Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: dict[EvidenceKey, Evidence] = {}
        self._held: set[EvidenceKey] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[EvidenceKey]:
        return list(self._entries)

    def lookup(self, key: EvidenceKey) -> Evidence | CacheMiss:
        found = self._entries.get(key)
        return found if found is not None else CacheMiss(key)

    def put(self, evidence: Evidence, hold: bool = False) -> None:
        with self._lock:
            self._entries[evidence.key] = evidence
            if hold:
                self._held.add(evidence.key)
            else:
                self._held.discard(evidence.key)
                self._append([evidence])

    def write_held(self, keys: Iterable[EvidenceKey]) -> None:
        """Append the held entries among `keys`, in the order given; other keys are skipped."""
        with self._lock:
            fresh = []
            for key in keys:
                if key in self._held:
                    self._held.discard(key)
                    fresh.append(self._entries[key])
            self._append(fresh)

    def _append(self, entries: Sequence[Evidence]) -> None:
        if self.path is None or not entries:
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            for evidence in entries:
                record = {
                    "tool": evidence.key.tool,
                    "anchor": evidence.key.anchor,
                    "created_at": evidence.created_at,
                    "neighbors": list(evidence.source_neighbors),
                    "text": evidence.text,
                }
                handle.write(dump_json_line(record) + "\n")
            handle.flush()

    @classmethod
    def load(cls, path: Path) -> "EvidenceCache":
        cache = cls()
        for _, record in read_jsonl(path):
            key = EvidenceKey(tool=str(record["tool"]), anchor=str(record["anchor"]))
            cache._entries[key] = Evidence(
                key=key,
                text=str(record["text"]),
                source_neighbors=tuple(str(n) for n in record.get("neighbors", [])),
                created_at=int(record.get("created_at", 0)),
            )
        cache.path = Path(path)
        return cache


def _fallback(key: EvidenceKey, created_at: int) -> Evidence:
    return Evidence(key=key, text=FALLBACK_NO_NEIGHBORS, source_neighbors=(), created_at=created_at)


def _item_lines(ids: Sequence[str], items: Mapping[str, ItemMeta]) -> tuple[list[str], list[str]]:
    """Numbered metadata lines plus the union of extra attribute keys."""
    keys: set[str] = set()
    lines: list[str] = []
    for index, item in enumerate(ids, start=1):
        meta = items.get(item)
        title = meta.title if meta is not None else "(unknown)"
        attributes = meta.attributes if meta is not None else {}
        keys.update(attributes)
        lines.append(f"{index}. {prompts.render_item_line(item, title, attributes)}")
    return lines, sorted(keys)


def verbalize_item(
    graph: InteractionGraph,
    items: Mapping[str, ItemMeta],
    anchor: str,
    gateway: Gateway,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
    templates_dir: Path | None = None,
    created_at: int = 0,
) -> Evidence:
    key = EvidenceKey(tool="ItemCF", anchor=anchor)
    neighbors = item_cf_neighbors(graph, anchor, k=k)
    if not neighbors:
        return _fallback(key, created_at)
    neighbor_ids = [item for item, _ in neighbors]
    neighbor_lines, extra_keys = _item_lines(neighbor_ids, items)
    anchor_meta = items.get(anchor)
    anchor_line = prompts.render_item_line(
        anchor,
        anchor_meta.title if anchor_meta is not None else "(unknown)",
        anchor_meta.attributes if anchor_meta is not None else {},
    )
    user_text = prompts.evidence_user(
        target_block=f"# Target item\n{anchor_line}\n",
        neighbor_header="Collaborative items",
        neighbor_block="\n".join(neighbor_lines),
        extra_keys=extra_keys,
        directory=templates_dir,
    )
    reply = gateway.complete(chat_request([
        ("system", prompts.item_evidence_system(domain, templates_dir)),
        ("user", user_text),
    ]))
    body = extract_tagged(reply.content, ANSWER_TAG)
    if body is None or not body.strip():
        raise MissingAnswerTags(f"ItemCF evidence for {anchor!r}")
    return Evidence(key=key, text=body.strip(), source_neighbors=tuple(neighbor_ids), created_at=created_at)


def verbalize_user(
    graph: InteractionGraph,
    users: Mapping[str, UserMeta],
    items: Mapping[str, ItemMeta],
    anchor: str,
    gateway: Gateway,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
    templates_dir: Path | None = None,
    created_at: int = 0,
) -> Evidence:
    key = EvidenceKey(tool="UserCF", anchor=anchor)
    pool = neighbor_item_pool(graph, anchor, k_users=k)
    if not pool:
        return _fallback(key, created_at)
    pool_lines, extra_keys = _item_lines(pool, items)
    user_meta = users.get(anchor)
    anchor_line = prompts.render_user_line(
        anchor,
        user_meta.attributes if user_meta is not None else {},
    )
    user_text = prompts.evidence_user(
        target_block=f"# Target user\n{anchor_line}\n",
        neighbor_header="Preference items",
        neighbor_block="\n".join(pool_lines),
        extra_keys=extra_keys,
        directory=templates_dir,
    )
    reply = gateway.complete(chat_request([
        ("system", prompts.user_evidence_system(domain, templates_dir)),
        ("user", user_text),
    ]))
    body = extract_tagged(reply.content, ANSWER_TAG)
    if body is None or not body.strip():
        raise MissingAnswerTags(f"UserCF evidence for {anchor!r}")
    return Evidence(key=key, text=body.strip(), source_neighbors=tuple(pool), created_at=created_at)


def all_keys(graph: InteractionGraph) -> list[EvidenceKey]:
    keys = [EvidenceKey("ItemCF", item) for item in sorted(graph.item_adj)]
    keys.extend(EvidenceKey("UserCF", user) for user in sorted(graph.user_adj))
    return keys


def warm_cache(
    graph: InteractionGraph,
    corpus: Corpus,
    gateway: Gateway,
    cache: EvidenceCache | None = None,
    keys: Iterable[EvidenceKey] | None = None,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
    templates_dir: Path | None = None,
    created_at: int = 0,
    on_error: Callable[[EvidenceKey, Exception], None] | None = None,
) -> EvidenceCache:
    """Verbalize every requested key not already cached.

    Gateway calls run with the gateway's own parallelism bound; results are
    persisted in deterministic key order. Per-key failures go to `on_error`
    (default: logged) and never block other keys.
    """
    if cache is None:
        cache = EvidenceCache()
    wanted = list(keys) if keys is not None else all_keys(graph)
    pending = [key for key in wanted if isinstance(cache.lookup(key), CacheMiss)]
    if not pending:
        return cache

    def work(key: EvidenceKey) -> Evidence:
        if key.tool == "ItemCF":
            return verbalize_item(
                graph, corpus.items, key.anchor, gateway,
                k=k, domain=domain, templates_dir=templates_dir, created_at=created_at,
            )
        return verbalize_user(
            graph, corpus.users, corpus.items, key.anchor, gateway,
            k=k, domain=domain, templates_dir=templates_dir, created_at=created_at,
        )

    workers = max(1, gateway.config.max_parallel)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(key, pool.submit(work, key)) for key in pending]
        for key, future in futures:
            try:
                cache.put(future.result())
            except Exception as exc:
                if on_error is not None:
                    on_error(key, exc)
                else:
                    logger.warning("verbalization failed for %s %s: %s", key.tool, key.anchor, exc)
    return cache
