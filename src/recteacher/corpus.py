"""User/item/interaction corpus: ingestion, persistence, holdout splits.

The corpus is built once from three line-delimited JSON files and treated as
immutable afterwards. Per-user interaction sequences are kept in chronological
order (stable sort, so equal timestamps keep file order). The catalogue is the
user and item files alone: commands that render prompts and evidence read it
and never open the review file. Every id that passes the id rule is interned,
so each distinct id is one string however many records name it.
"""

from __future__ import annotations

import json
import logging
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

from .errors import InsufficientInput, UnknownId
from .util import decode_jsonl, require_field, unique_ids, write_jsonl_atomic

logger = logging.getLogger(__name__)

RATING_MIN = 0.0
RATING_MAX = 5.0
# 9999-12-31T23:59:59Z, the last second a rendered review time can show.
TIMESTAMP_MAX = 253402300799

USERS_FILE = "users.jsonl"
ITEMS_FILE = "items.jsonl"
REVIEWS_FILE = "reviews.jsonl"

# A ranking line ("1. a, 2. b") splits entries at commas and strips whitespace,
# and `<` or `>` could write a grammar tag into it.
_ID_BREAK = re.compile(r"[,\s<>]")


@dataclass(frozen=True)
class Interaction:
    """One timestamped review/interaction of a user with an item."""

    user: str
    item: str
    timestamp: int
    rating: float | None = None
    review_text: str | None = None


@dataclass(frozen=True)
class ItemMeta:
    title: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class Catalog:
    """Each user's attributes and each item's metadata, by id."""

    users: dict[str, dict[str, str]]
    items: dict[str, ItemMeta]

    def require_known(self, users: Iterable[str], items: Iterable[str]) -> None:
        """ValueError naming the first of `users`, then of `items`, that the catalogue lacks."""
        for user in users:
            if user not in self.users:
                raise ValueError(f"unknown user {user!r}")
        for item in items:
            if item not in self.items:
                raise ValueError(f"unknown item {item!r}")


@dataclass
class Corpus(Catalog):
    """The catalogue plus per-user chronological interaction sequences."""

    sequences: dict[str, list[Interaction]]

    def interaction_count(self) -> int:
        return sum(len(seq) for seq in self.sequences.values())

    # Derived once per corpus, which is not changed after it is built.
    @cached_property
    def item_reads(self) -> Counter[str]:
        """Interactions per item over every user's sequence."""
        reads: Counter[str] = Counter()
        for seq in self.sequences.values():
            reads.update(interaction.item for interaction in seq)
        return reads

    @cached_property
    def sorted_item_ids(self) -> list[str]:
        return sorted(self.items)


def _stringify_attribute(value: Any) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


def require_id(value: Any, name: str) -> str:
    """`value` as a user or item id: a non-empty string free of commas, whitespace, `<` and `>`.

    The ranking line could not carry any other id back. Corpus, instance,
    graph and evidence-cache records all go through here. The id comes back
    interned: equal ids from any of them are one object.
    """
    if not isinstance(value, str) or not value:
        raise ValueError(f"missing or invalid {name}")
    if found := _ID_BREAK.search(value):
        what = "'<' or '>'" if found.group() in "<>" else "a comma or whitespace"
        raise ValueError(f"{name} {value!r} contains {what}")
    return sys.intern(value)


def _require_id(obj: Any, key: str) -> str:
    """The record's `key` id; the record must be an object (instance history entries are not file lines)."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    return require_id(obj.get(key), key)


def _decode_user(obj: Any) -> tuple[str, dict[str, str]]:
    user_id = _require_id(obj, "user_id")
    return user_id, {k: _stringify_attribute(v) for k, v in obj.items() if k != "user_id"}


def _decode_item(obj: Any) -> tuple[str, ItemMeta]:
    item_id = _require_id(obj, "item_id")
    title = require_field(obj, "title", str)
    if not title:
        raise ValueError("title must not be empty")
    return item_id, ItemMeta(title=title, attributes={
        k: _stringify_attribute(v) for k, v in obj.items() if k not in ("item_id", "title")
    })


def _read_catalog(user_file: str | Path, item_file: str | Path) -> Catalog:
    """The catalogue of a user and an item file; a bad line or repeated id raises MalformedRecord naming it."""
    users, items = (dict(pair for _lineno, pair in decode_jsonl(path, unique_ids(decode, key)))
                    for path, key, decode in ((user_file, "user_id", _decode_user),
                                              (item_file, "item_id", _decode_item)))
    return Catalog(users=users, items=items)


def decode_interaction(obj: Any) -> Interaction:
    """The interaction of one review-file record; ValueError says what is wrong with it.

    Reviews at ingest and the history of instance records go through here.
    """
    user_id = _require_id(obj, "user_id")
    item_id = _require_id(obj, "item_id")

    timestamp = require_field(obj, "timestamp", int)
    if not 0 <= timestamp <= TIMESTAMP_MAX:
        raise ValueError(f"timestamp {timestamp} outside [0, {TIMESTAMP_MAX}]")

    rating = require_field(obj, "rating", float, None)
    if rating is not None:
        rating = float(rating)
        if not RATING_MIN <= rating <= RATING_MAX:
            raise ValueError(f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")

    return Interaction(
        user=user_id,
        item=item_id,
        timestamp=timestamp,
        rating=rating,
        review_text=require_field(obj, "review_text", str, None),
    )


def ingest(user_file: str | Path, item_file: str | Path, review_file: str | Path) -> Corpus:
    """Load the three record files into a validated corpus.

    Raises MalformedRecord on any bad line, a review naming an undeclared
    user or item included, and InsufficientInput when no interactions exist.
    Duplicate review triples are kept as distinct interactions.
    """
    catalog = _read_catalog(user_file, item_file)

    def decode_review(obj: Any) -> Interaction:
        inter = decode_interaction(obj)
        catalog.require_known((inter.user,), (inter.item,))
        return inter

    sequences: dict[str, list[Interaction]] = {}
    total = 0
    for _lineno, inter in decode_jsonl(review_file, decode_review):
        sequences.setdefault(inter.user, []).append(inter)
        total += 1

    if total == 0:
        raise InsufficientInput("review file contains no interactions")

    for user_id, seq in sequences.items():
        seq.sort(key=lambda it: it.timestamp)  # stable: ties keep file order

    logger.info(
        "loaded corpus: %d users, %d items, %d interactions",
        len(catalog.users), len(catalog.items), total,
    )
    return Corpus(users=catalog.users, items=catalog.items, sequences=sequences)


def interaction_record(interaction: Interaction) -> dict[str, Any]:
    """The review-file record of one interaction; absent rating and text are omitted."""
    record: dict[str, Any] = {
        "user_id": interaction.user,
        "item_id": interaction.item,
        "timestamp": interaction.timestamp,
    }
    if interaction.rating is not None:
        record["rating"] = interaction.rating
    if interaction.review_text is not None:
        record["review_text"] = interaction.review_text
    return record


def save_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    """Write the corpus back out as three normalized record files.

    Re-ingesting the written files reproduces an equal corpus.
    """
    out = Path(out_dir)
    user_records = [
        {"user_id": uid, **corpus.users[uid]} for uid in sorted(corpus.users)
    ]
    item_records = [
        {"item_id": iid, "title": corpus.items[iid].title, **corpus.items[iid].attributes}
        for iid in sorted(corpus.items)
    ]
    review_records = [
        interaction_record(inter) for uid in sorted(corpus.sequences) for inter in corpus.sequences[uid]
    ]

    write_jsonl_atomic(out / USERS_FILE, user_records)
    write_jsonl_atomic(out / ITEMS_FILE, item_records)
    write_jsonl_atomic(out / REVIEWS_FILE, review_records)


def load_corpus(corpus_dir: str | Path) -> Corpus:
    """Load a corpus previously written by save_corpus."""
    base = Path(corpus_dir)
    return ingest(base / USERS_FILE, base / ITEMS_FILE, base / REVIEWS_FILE)


def load_catalog(corpus_dir: str | Path) -> Catalog:
    """The users and items of a corpus directory, checked as `ingest` checks them.

    The review file is not opened, so it need not exist.
    """
    base = Path(corpus_dir)
    catalog = _read_catalog(base / USERS_FILE, base / ITEMS_FILE)
    logger.info("loaded catalogue: %d users, %d items", len(catalog.users), len(catalog.items))
    return catalog


def holdout_split(corpus: Corpus, user: str) -> tuple[list[Interaction], Interaction]:
    """Split one user's sequence into (history, target interaction).

    The target is the chronologically last interaction; its item is the
    ground truth. The history ends strictly before the user's first
    interaction with that item, which guards against look-ahead leakage when
    the item occurs earlier too.
    """
    seq = corpus.sequences.get(user)
    if seq is None:
        raise UnknownId(f"unknown user {user!r}")
    if len(seq) < 2:
        raise InsufficientInput(f"user {user!r}: needs at least 2 interactions")
    target = seq[-1]
    first_idx = next(i for i, inter in enumerate(seq) if inter.item == target.item)
    return list(seq[:first_idx]), target
