"""Offline verbalization of collaborative-filtering neighborhoods.

Neighbor sets from the interaction graph are turned into natural-language
evidence once, through the gateway, and cached on disk. Online tool calls then
reduce to cache lookups. ItemCF and UserCF evidence share one prompt, call and
parse body; they differ only in neighbor source, headers and system template.
New entries record `created_at` 0; the field stays in the cache format, and a
file that sets it to another integer still loads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
import threading
from typing import Mapping, Sequence

from .corpus import Catalog, ItemMeta, require_id
from .gateway import Gateway, Origin, chat_request
from .graph import (
    DEFAULT_NEIGHBOR_K,
    InteractionGraph,
    item_cf_neighbors,
    neighbor_item_pool,
)
from . import prompts
from .tags import ANSWER_TAG, RECOGNIZED_TOOLS, ToolCall, reply_body
from .util import decode_jsonl, dump_json_line, require_field

# Deterministic evidence for anchors with no collaborative signal; no gateway call.
FALLBACK_NO_NEIGHBORS = "no collaborative neighbors found"


@dataclass(frozen=True)
class Evidence:
    key: ToolCall
    text: str
    source_neighbors: tuple[str, ...]
    created_at: int = 0


class EvidenceCache:
    """At most one Evidence per key, the ToolCall it answers; optionally persisted one record per line.

    `put` adds an entry and, when the cache has a path, appends it to the file
    at once, so keys verbalized before a partial failure survive it.
    """

    def __init__(self, path: Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: dict[ToolCall, Evidence] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: ToolCall) -> Evidence | None:
        return self._entries.get(key)

    def put(self, evidence: Evidence) -> None:
        with self._lock:
            self._entries[evidence.key] = evidence
            if self.path is None:
                return
            record = {
                "tool": evidence.key.name,
                "anchor": evidence.key.anchor,
                "created_at": evidence.created_at,
                "neighbors": list(evidence.source_neighbors),
                "text": evidence.text,
            }
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(dump_json_line(record) + "\n")

    @classmethod
    def load(cls, path: Path) -> "EvidenceCache":
        """Read the cache file at `path` (a missing one is empty); a bad line raises MalformedRecord."""
        cache = cls(path)
        if not cache.path.exists():
            return cache
        for _lineno, evidence in decode_jsonl(path, _decode_evidence):
            cache._entries[evidence.key] = evidence
        return cache


def _decode_evidence(record: dict) -> Evidence:
    """The entry of one cache-file record; ValueError says what is wrong with it.

    Anchor and neighbours follow the id rule (`require_id`), which hands back
    each id's one interned string; a known tool name becomes its
    `RECOGNIZED_TOOLS` entry, so each name is one string too.
    """
    name = require_field(record, "tool")
    tool = next((known for known in RECOGNIZED_TOOLS if known == name), None)
    if tool is None:
        raise ValueError(f"unknown tool {name!r}")
    key = ToolCall(tool, require_id(require_field(record, "anchor"), "anchor"))
    text = require_field(record, "text", str)
    neighbors = require_field(record, "neighbors", list, [])
    return Evidence(key=key, text=text, created_at=require_field(record, "created_at", int, 0),
                    source_neighbors=tuple(require_id(n, "neighbor") for n in neighbors))


def _fallback(key: ToolCall) -> Evidence:
    return Evidence(key=key, text=FALLBACK_NO_NEIGHBORS, source_neighbors=())


def _verbalize(
    key: ToolCall,
    neighbors: Sequence[str],
    items: Mapping[str, ItemMeta],
    gateway: Gateway,
    target_block: str,
    neighbor_header: str,
    system: str,
) -> Evidence:
    """One gateway call that describes `neighbors` for the target; its <Answer> is the evidence."""
    lines, keys = prompts.item_lines(neighbors, items)
    user_text = prompts.evidence_user(
        target_block=target_block,
        neighbor_header=neighbor_header,
        neighbor_block="\n".join(f"{index}. {line}" for index, line in enumerate(lines, start=1)),
        extra_keys=sorted(keys),
    )
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user_text}]
    reply = gateway.complete(chat_request(messages, Origin(key.name, key.anchor)))
    body = reply_body(reply.content, ANSWER_TAG, f"{key.name} evidence for {key.anchor!r}")
    return Evidence(key=key, text=body, source_neighbors=tuple(neighbors))


def verbalize_item(
    graph: InteractionGraph,
    items: Mapping[str, ItemMeta],
    anchor: str,
    gateway: Gateway,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
) -> Evidence:
    """Evidence for an item from its ItemCF neighbors."""
    key = ToolCall("ItemCF", anchor)
    neighbors = [item for item, _ in item_cf_neighbors(graph, anchor, k=k)]
    if not neighbors:
        return _fallback(key)
    (anchor_line,), _ = prompts.item_lines([anchor], items)
    return _verbalize(key, neighbors, items, gateway, f"# Target item\n{anchor_line}\n",
                      "Collaborative items", prompts.item_evidence_system(domain))


def verbalize_user(
    graph: InteractionGraph,
    users: Mapping[str, Mapping[str, str]],
    items: Mapping[str, ItemMeta],
    anchor: str,
    gateway: Gateway,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
) -> Evidence:
    """Evidence for a user from the items their UserCF neighbors touched."""
    key = ToolCall("UserCF", anchor)
    pool = neighbor_item_pool(graph, anchor, k_users=k)
    if not pool:
        return _fallback(key)
    anchor_line = prompts.render_user_line(anchor, users[anchor])
    return _verbalize(key, pool, items, gateway, f"# Target user\n{anchor_line}\n",
                      "Preference items", prompts.user_evidence_system(domain))


def verbalize_key(
    graph: InteractionGraph,
    catalog: Catalog,
    key: ToolCall,
    gateway: Gateway,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
) -> Evidence:
    """Verbalize one cache key with the verbalizer of its tool."""
    if key.name == "ItemCF":
        return verbalize_item(graph, catalog.items, key.anchor, gateway, k=k, domain=domain)
    return verbalize_user(graph, catalog.users, catalog.items, key.anchor, gateway, k=k, domain=domain)


def all_keys(graph: InteractionGraph) -> list[ToolCall]:
    keys = [ToolCall("ItemCF", item) for item in sorted(graph.item_adj)]
    keys.extend(ToolCall("UserCF", user) for user in sorted(graph.user_adj))
    return keys


def warm_cache(
    graph: InteractionGraph,
    catalog: Catalog,
    gateway: Gateway,
    cache: EvidenceCache,
    k: int = DEFAULT_NEIGHBOR_K,
    domain: str = prompts.DEFAULT_DOMAIN,
) -> list[tuple[ToolCall, Exception]]:
    """Verbalize every graph key not already cached; return the failed keys and their errors.

    Gateway calls run with the gateway's own parallelism bound; results are
    put in the cache in key order. A failed key never blocks the others.
    """
    pending = [key for key in all_keys(graph) if cache.lookup(key) is None]

    def attempt(key: ToolCall) -> Evidence | Exception:
        try:
            return verbalize_key(graph, catalog, key, gateway, k=k, domain=domain)
        except Exception as exc:
            return exc

    failed: list[tuple[ToolCall, Exception]] = []
    with ThreadPoolExecutor(gateway.config.max_parallel) as pool:
        for key, result in zip(pending, pool.map(attempt, pending)):
            if isinstance(result, Exception):
                failed.append((key, result))
            else:
                cache.put(result)
    return failed
