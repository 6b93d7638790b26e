"""Corpus ingestion, splits, and persistence."""

from __future__ import annotations

import json
import random

import pytest

from recteacher.corpus import (
    TIMESTAMP_MAX,
    holdout_split,
    ingest,
    load_catalog,
    load_corpus,
    save_corpus,
)
from recteacher.errors import InsufficientInput, MalformedRecord, UnknownId


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def make_files(tmp_path, users, items, reviews):
    write_jsonl(tmp_path / "users.jsonl", users)
    write_jsonl(tmp_path / "items.jsonl", items)
    write_jsonl(tmp_path / "reviews.jsonl", reviews)
    return tmp_path / "users.jsonl", tmp_path / "items.jsonl", tmp_path / "reviews.jsonl"


BASE_USERS = [{"user_id": "u1", "age_group": "25-34"}, {"user_id": "u2"}]
BASE_ITEMS = [
    {"item_id": "i1", "title": "First", "genre": "mystery"},
    {"item_id": "i2", "title": "Second"},
    {"item_id": "i3", "title": "Third"},
]
BASE_REVIEWS = [
    {"user_id": "u1", "item_id": "i2", "timestamp": 200, "rating": 4},
    {"user_id": "u1", "item_id": "i1", "timestamp": 100, "review_text": "fine"},
    {"user_id": "u2", "item_id": "i3", "timestamp": 50},
    {"user_id": "u1", "item_id": "i3", "timestamp": 300},
]


def test_ingest_sorts_sequences_chronologically(tmp_path):
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS))
    assert [it.item for it in corpus.sequences["u1"]] == ["i1", "i2", "i3"]
    assert corpus.sequences["u1"][0].review_text == "fine"
    assert corpus.sequences["u1"][1].rating == 4.0
    assert corpus.interaction_count() == 4
    assert corpus.users["u1"] == {"age_group": "25-34"}
    assert corpus.items["i1"].attributes == {"genre": "mystery"}


def test_ingest_equal_timestamps_keep_file_order(tmp_path):
    reviews = [
        {"user_id": "u1", "item_id": "i2", "timestamp": 100},
        {"user_id": "u1", "item_id": "i1", "timestamp": 100},
    ]
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, reviews))
    assert [it.item for it in corpus.sequences["u1"]] == ["i2", "i1"]


def test_ingest_rejects_bad_records(tmp_path):
    cases = [
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "i1"}], MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "i1", "timestamp": -5}], MalformedRecord),
        # past 9999-12-31T23:59:59Z, which no prompt can render
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "i1", "timestamp": TIMESTAMP_MAX + 1}],
         MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "i1", "timestamp": 10**20}], MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "i1", "timestamp": 1, "rating": 9}], MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "ux", "item_id": "i1", "timestamp": 1}], MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "ix", "timestamp": 1}], MalformedRecord),
        (BASE_USERS, [{"item_id": "i1"}], BASE_REVIEWS, MalformedRecord),  # no title
        ([{"user_id": "u1"}, {"user_id": "u1"}], BASE_ITEMS, BASE_REVIEWS, MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [], InsufficientInput),
        # ids a ranking line ("1. a, 2. b") cannot carry back
        ([{"user_id": "u,1"}], BASE_ITEMS, BASE_REVIEWS, MalformedRecord),
        (BASE_USERS, [{"item_id": "i 1", "title": "Spaced"}], BASE_REVIEWS, MalformedRecord),
        (BASE_USERS, [{"item_id": "i\t1", "title": "Tabbed"}], BASE_REVIEWS, MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1", "item_id": "a,b", "timestamp": 1}], MalformedRecord),
        (BASE_USERS, BASE_ITEMS, [{"user_id": "u1\n", "item_id": "i1", "timestamp": 1}], MalformedRecord),
    ]
    for users, items, reviews, expected in cases:
        with pytest.raises(expected):
            ingest(*make_files(tmp_path, users, items, reviews))


def test_malformed_record_reports_line_number(tmp_path):
    users, items, reviews = make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS)
    (tmp_path / "reviews.jsonl").write_text(
        json.dumps(BASE_REVIEWS[0]) + "\nnot json\n", encoding="utf-8"
    )
    with pytest.raises(MalformedRecord) as excinfo:
        ingest(users, items, reviews)
    assert excinfo.value.line == 2


def test_the_last_second_of_year_9999_is_a_timestamp(tmp_path):
    assert TIMESTAMP_MAX == 253402300799
    reviews = [*BASE_REVIEWS, {"user_id": "u2", "item_id": "i1", "timestamp": TIMESTAMP_MAX}]
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, reviews))
    assert corpus.sequences["u2"][-1].timestamp == TIMESTAMP_MAX


def test_holdout_split_takes_last_item(tmp_path):
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS))
    history, target = holdout_split(corpus, "u1")
    assert target == corpus.sequences["u1"][-1] and target.item == "i3"
    assert [it.item for it in history] == ["i1", "i2"]


def test_holdout_split_cuts_before_first_ground_truth_occurrence(tmp_path):
    reviews = [
        {"user_id": "u1", "item_id": "i3", "timestamp": 10},
        {"user_id": "u1", "item_id": "i1", "timestamp": 20},
        {"user_id": "u1", "item_id": "i3", "timestamp": 30},
    ]
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, reviews))
    history, target = holdout_split(corpus, "u1")
    assert (target.item, target.timestamp) == ("i3", 30)
    assert history == []  # first occurrence is the very first interaction


def test_holdout_split_errors(tmp_path):
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS))
    with pytest.raises(UnknownId, match="^unknown user 'nope'$"):
        holdout_split(corpus, "nope")
    with pytest.raises(InsufficientInput, match="^user 'u2': needs at least 2 interactions$"):
        holdout_split(corpus, "u2")


def test_save_load_round_trip(tmp_path):
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS))
    save_corpus(corpus, tmp_path / "norm")
    again = load_corpus(tmp_path / "norm")
    assert again.users == corpus.users
    assert again.items == corpus.items
    assert again.sequences == corpus.sequences


def test_load_catalog_reads_users_and_items_only(tmp_path):
    corpus = ingest(*make_files(tmp_path, BASE_USERS, BASE_ITEMS, BASE_REVIEWS))
    save_corpus(corpus, tmp_path / "norm")
    (tmp_path / "norm" / "reviews.jsonl").unlink()
    catalog = load_catalog(tmp_path / "norm")
    assert not hasattr(catalog, "sequences")
    assert catalog.users == corpus.users
    assert catalog.items == corpus.items


def test_load_catalog_checks_records_as_ingest_does(tmp_path):
    make_files(tmp_path, BASE_USERS, BASE_ITEMS + [{"item_id": "i1", "title": "Again"}], [])
    with pytest.raises(MalformedRecord) as excinfo:
        load_catalog(tmp_path)
    assert excinfo.value.line == 4
    assert "duplicate item_id 'i1'" in excinfo.value.reason


def test_random_corpora_round_trip(tmp_path):
    rng = random.Random(11)
    for round_no in range(20):
        users = [{"user_id": f"u{n}"} for n in range(1, rng.randint(2, 8))]
        items = [{"item_id": f"i{n}", "title": f"T{n}"} for n in range(1, rng.randint(2, 10))]
        reviews = []
        for user in users:
            for _ in range(rng.randint(1, 6)):
                reviews.append({
                    "user_id": user["user_id"],
                    "item_id": rng.choice(items)["item_id"],
                    "timestamp": rng.randint(0, 10_000),
                })
        base = tmp_path / f"r{round_no}"
        base.mkdir()
        corpus = ingest(*make_files(base, users, items, reviews))
        save_corpus(corpus, base / "norm")
        assert load_corpus(base / "norm").sequences == corpus.sequences


def test_non_string_attributes_are_stringified(tmp_path):
    users = [{"user_id": "u1", "tags": ["a", "b"], "active": True}]
    items = [{"item_id": "i1", "title": "T", "year": 1999}]
    reviews = [{"user_id": "u1", "item_id": "i1", "timestamp": 1}]
    corpus = ingest(*make_files(tmp_path, users, items, reviews))
    assert corpus.items["i1"].attributes["year"] == "1999"
    assert corpus.users["u1"]["tags"] == '["a", "b"]'
