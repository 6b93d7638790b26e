"""Seeded, scalable synthetic corpus for the benchmark.

Writes the three record files `recteacher ingest` reads (users, items,
reviews) plus `rollouts.jsonl` of `{id, success_count}` records for
`recteacher bucket-rl`. The same arguments always give byte-identical files.

Shape of the data:
- Item popularity follows a Zipf law with exponent `--skew` over a shuffled
  item order; CF query cost depends on this skew, because a popular anchor
  fans out to many co-readers.
- History lengths, in distinct items, are spread evenly over
  [`--min-history`, `--max-history`] in a fixed order of user ids, so every
  seed gets the same mix of lengths and any run of consecutive users covers
  the range. With the default window of 10 they span several abstraction
  windows; the seed picks the items, timestamps and ratings.
- A reserved tail of `cold_items` items is never drawn by popularity. Every
  eighth user ends their history on a tail item, each tail item taken by at
  most two users, so the `ColdStartItem` scenario (ground truth read at most
  twice corpus-wide) is never empty.
- `rollouts.jsonl` holds 2,000 records with success counts in 0..8.

Run as a script to write a corpus directory:

    python3 perfbench/gencorpus.py --out /tmp/corpus --users 800 --items 600
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GENRES = ("mystery", "fantasy", "history", "romance", "science", "poetry", "travel", "horror")
TITLE_HEADS = ("Crimson", "Silent", "Winter", "Hollow", "Golden", "Last", "Iron", "Paper",
               "Midnight", "Broken", "Distant", "Quiet", "Northern", "Glass", "Amber", "Salt")
TITLE_TAILS = ("Harbor", "Archive", "Garden", "Equation", "Letters", "Crossing", "Orchard",
               "Satellite", "Covenant", "Lantern", "Meridian", "Atlas", "Tide", "Engine")
REVIEW_SNIPPETS = (
    "kept me reading late into the night",
    "slow start but a strong finish",
    "characters felt flat to me",
    "a comfortable reread candidate",
    "the pacing dragged in the middle",
    "sharp dialogue and a tidy plot",
    "not my usual genre but it worked",
    "ending landed better than expected",
    "too predictable for my taste",
    "lovely prose, thin story",
)
AGE_GROUPS = ("18-24", "25-34", "35-44", "45-54", "55+")

DAY = 86400
BASE_TS = 1_500_000_000
# negatives for a 20-candidate instance need 19 untouched items per user
NEGATIVES = 19
# ColdStartItem keeps ground truths read at most this often (config default)
COLD_ITEM_MAX_READS = 2
# every COLD_EVERY-th user ends their history on a cold item
COLD_EVERY = 8
# success_count range for bucket-rl with the default group size of 8
GROUP_SIZE = 8
ROLLOUTS = 2000


@dataclass(frozen=True)
class CorpusSpec:
    users: int
    items: int
    min_history: int = 3
    max_history: int = 40
    skew: float = 1.0
    cold_items: int = 40

    def validate(self) -> None:
        if self.users < 1 or self.items < 1:
            raise ValueError("users and items must be >= 1")
        if not 2 <= self.min_history <= self.max_history:
            raise ValueError("need 2 <= min_history <= max_history")
        cold_users = self.users // COLD_EVERY
        if self.cold_items * COLD_ITEM_MAX_READS < cold_users:
            raise ValueError(f"{self.cold_items} cold items cannot end {cold_users} histories")
        if self.items - self.cold_items < self.max_history + NEGATIVES:
            raise ValueError("too few popular items for the longest history plus negatives")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def build_records(spec: CorpusSpec, seed: int) -> dict[str, list[dict]]:
    """All four record lists, keyed by file stem."""
    spec.validate()
    rng = random.Random(seed)
    items = []
    for index in range(spec.items):
        items.append({
            "item_id": f"i{index:05d}",
            "title": f"The {rng.choice(TITLE_HEADS)} {rng.choice(TITLE_TAILS)}",
            "genre": rng.choice(GENRES),
            "year": str(1950 + rng.randrange(75)),
        })
    ids = [record["item_id"] for record in items]
    cold = ids[len(ids) - spec.cold_items:]
    popular = ids[:len(ids) - spec.cold_items]
    rng.shuffle(popular)  # popularity rank independent of id order
    cum_weights = list(itertools.accumulate(1.0 / (rank ** spec.skew)
                                            for rank in range(1, len(popular) + 1)))

    span = spec.max_history - spec.min_history + 1
    stride = next(step for step in range(span // 2 + 1, span + 1) if math.gcd(step, span) == 1)
    users, reviews = [], []
    cold_slot = 0
    for index in range(spec.users):
        user_id = f"u{index:05d}"
        users.append({
            "user_id": user_id,
            "age_group": rng.choice(AGE_GROUPS),
            "favorite_genres": ", ".join(sorted(rng.sample(GENRES, 2))),
        })
        length = spec.min_history + (index * stride) % span
        ends_cold = index % COLD_EVERY == COLD_EVERY - 1
        wanted = length - 1 if ends_cold else length
        chosen: list[str] = []
        seen: set[str] = set()
        while len(chosen) < wanted:
            pick = rng.choices(popular, cum_weights=cum_weights)[0]
            if pick not in seen:
                seen.add(pick)
                chosen.append(pick)
        if ends_cold:
            chosen.append(cold[cold_slot // COLD_ITEM_MAX_READS])
            cold_slot += 1
        stamp = BASE_TS + rng.randrange(365) * DAY
        for item_id in chosen:
            stamp += rng.randint(1, 40) * DAY
            record: dict = {"user_id": user_id, "item_id": item_id, "timestamp": stamp}
            if rng.random() < 0.85:
                record["rating"] = float(rng.choice((2, 3, 4, 4, 5, 5)))
            if rng.random() < 0.6:
                record["review_text"] = rng.choice(REVIEW_SNIPPETS)
            reviews.append(record)

    rollouts = [{"id": f"r{index:05d}", "success_count": rng.randint(0, GROUP_SIZE)}
                for index in range(ROLLOUTS)]
    return {"users": users, "items": items, "reviews": reviews, "rollouts": rollouts}


def write_corpus(spec: CorpusSpec, seed: int, out: Path) -> dict[str, int]:
    """Write users/items/reviews/rollouts .jsonl under `out`; return record counts."""
    out.mkdir(parents=True, exist_ok=True)
    records = build_records(spec, seed)
    for stem, rows in records.items():
        _write_jsonl(out / f"{stem}.jsonl", rows)
    return {stem: len(rows) for stem, rows in records.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--users", type=int, default=800)
    parser.add_argument("--items", type=int, default=600)
    parser.add_argument("--min-history", type=int, default=3)
    parser.add_argument("--max-history", type=int, default=40)
    parser.add_argument("--skew", type=float, default=1.0, help="Zipf exponent of item popularity")
    args = parser.parse_args()
    # just enough cold items for the users that end on one
    cold_items = max(1, math.ceil(args.users // COLD_EVERY / COLD_ITEM_MAX_READS))
    spec = CorpusSpec(users=args.users, items=args.items, min_history=args.min_history,
                      max_history=args.max_history, skew=args.skew, cold_items=cold_items)
    counts = write_corpus(spec, args.seed, Path(args.out))
    print(", ".join(f"{count} {stem}" for stem, count in counts.items()) + f" -> {args.out}")


if __name__ == "__main__":
    main()
