"""User/item/interaction corpus: ingestion, persistence, holdout splits.

The corpus is built once from three line-delimited JSON files and treated as
immutable afterwards. Per-user interaction sequences are kept in chronological
order (stable sort, so equal timestamps keep file order).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import (
    DanglingReference,
    EmptyCorpus,
    MalformedRecord,
    SequenceTooShort,
    UnknownUser,
)
from .util import read_jsonl, write_jsonl_atomic

logger = logging.getLogger(__name__)

RATING_MIN = 0.0
RATING_MAX = 5.0

USERS_FILE = "users.jsonl"
ITEMS_FILE = "items.jsonl"
REVIEWS_FILE = "reviews.jsonl"


@dataclass(frozen=True)
class Interaction:
    """One timestamped review/interaction of a user with an item."""

    user: str
    item: str
    timestamp: int
    rating: float | None = None
    review_text: str | None = None


@dataclass(frozen=True)
class UserMeta:
    user: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ItemMeta:
    item: str
    title: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class Corpus:
    """All users, items, and per-user chronological interaction sequences."""

    users: dict[str, UserMeta]
    items: dict[str, ItemMeta]
    sequences: dict[str, list[Interaction]]

    def interaction_count(self) -> int:
        return sum(len(seq) for seq in self.sequences.values())


def _stringify_attribute(value: Any) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


def _require_id(obj: dict, key: str, lineno: int, source: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise MalformedRecord(lineno, f"missing or invalid {key}", source=source)
    return value


def _load_users(path: str | Path) -> dict[str, UserMeta]:
    users: dict[str, UserMeta] = {}
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not a JSON object", source=str(path))
        user_id = _require_id(obj, "user_id", lineno, str(path))
        if user_id in users:
            raise MalformedRecord(lineno, f"duplicate user_id {user_id!r}", source=str(path))
        attrs = {k: _stringify_attribute(v) for k, v in obj.items() if k != "user_id"}
        users[user_id] = UserMeta(user=user_id, attributes=attrs)
    return users


def _load_items(path: str | Path) -> dict[str, ItemMeta]:
    items: dict[str, ItemMeta] = {}
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not a JSON object", source=str(path))
        item_id = _require_id(obj, "item_id", lineno, str(path))
        if item_id in items:
            raise MalformedRecord(lineno, f"duplicate item_id {item_id!r}", source=str(path))
        title = obj.get("title")
        if not isinstance(title, str) or not title:
            raise MalformedRecord(lineno, "missing or invalid title", source=str(path))
        attrs = {
            k: _stringify_attribute(v)
            for k, v in obj.items()
            if k not in ("item_id", "title")
        }
        items[item_id] = ItemMeta(item=item_id, title=title, attributes=attrs)
    return items


def _parse_review(
    obj: dict,
    lineno: int,
    source: str,
    users: Mapping[str, UserMeta],
    items: Mapping[str, ItemMeta],
) -> Interaction:
    user_id = _require_id(obj, "user_id", lineno, source)
    item_id = _require_id(obj, "item_id", lineno, source)
    if user_id not in users:
        raise DanglingReference(lineno, user_id, "user", source=source)
    if item_id not in items:
        raise DanglingReference(lineno, item_id, "item", source=source)

    timestamp = obj.get("timestamp")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise MalformedRecord(lineno, "timestamp must be an integer", source=source)
    if timestamp < 0:
        raise MalformedRecord(lineno, "timestamp must be >= 0", source=source)

    rating = obj.get("rating")
    if rating is not None:
        if isinstance(rating, bool) or not isinstance(rating, (int, float)):
            raise MalformedRecord(lineno, "rating must be a number", source=source)
        rating = float(rating)
        if not RATING_MIN <= rating <= RATING_MAX:
            raise MalformedRecord(
                lineno, f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]", source=source
            )

    review_text = obj.get("review_text")
    if review_text is not None and not isinstance(review_text, str):
        raise MalformedRecord(lineno, "review_text must be a string", source=source)

    return Interaction(
        user=user_id,
        item=item_id,
        timestamp=timestamp,
        rating=rating,
        review_text=review_text,
    )


def ingest(user_file: str | Path, item_file: str | Path, review_file: str | Path) -> Corpus:
    """Load the three record files into a validated corpus.

    Raises MalformedRecord on any bad line, DanglingReference on reviews that
    name unknown users/items, and EmptyCorpus when no interactions exist.
    Duplicate review triples are kept as distinct interactions.
    """
    users = _load_users(user_file)
    items = _load_items(item_file)

    sequences: dict[str, list[Interaction]] = {}
    total = 0
    for lineno, obj in read_jsonl(review_file):
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not a JSON object", source=str(review_file))
        inter = _parse_review(obj, lineno, str(review_file), users, items)
        sequences.setdefault(inter.user, []).append(inter)
        total += 1

    if total == 0:
        raise EmptyCorpus("review file contains no interactions")

    for user_id, seq in sequences.items():
        seq.sort(key=lambda it: it.timestamp)  # stable: ties keep file order

    logger.info(
        "ingested corpus: %d users, %d items, %d interactions",
        len(users), len(items), total,
    )
    return Corpus(users=users, items=items, sequences=sequences)


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
    out.mkdir(parents=True, exist_ok=True)

    user_records = [
        {"user_id": uid, **corpus.users[uid].attributes} for uid in sorted(corpus.users)
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


def holdout_split(corpus: Corpus, user: str) -> tuple[list[Interaction], str]:
    """Split one user's sequence into (history, ground_truth_item).

    The ground truth is the item of the chronologically last interaction. The
    history ends strictly before the user's first interaction with that item,
    which guards against look-ahead leakage when the item occurs earlier too.
    """
    seq = corpus.sequences.get(user)
    if seq is None:
        raise UnknownUser(user)
    if len(seq) < 2:
        raise SequenceTooShort(user)
    ground_truth = seq[-1].item
    first_idx = next(i for i, inter in enumerate(seq) if inter.item == ground_truth)
    return list(seq[:first_idx]), ground_truth
