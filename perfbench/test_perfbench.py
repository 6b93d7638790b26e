"""Fast self-tests for the benchmark's pure helpers.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gencorpus import COLD_EVERY, CorpusSpec, build_records, write_corpus  # noqa: E402
from stats import chain_depth, percentile  # noqa: E402

SMALL = CorpusSpec(users=64, items=120, min_history=3, max_history=25, cold_items=8)


def test_generator_is_deterministic_per_seed(tmp_path):
    assert build_records(SMALL, 7) == build_records(SMALL, 7)
    assert build_records(SMALL, 7) != build_records(SMALL, 8)
    write_corpus(SMALL, 7, tmp_path / "a")
    write_corpus(SMALL, 7, tmp_path / "b")
    for name in ("users", "items", "reviews", "rollouts"):
        assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == \
            (tmp_path / "b" / f"{name}.jsonl").read_bytes()


def test_generator_history_mix_and_cold_tail():
    records = build_records(SMALL, 3)
    by_user: dict[str, list[str]] = {}
    for review in records["reviews"]:
        by_user.setdefault(review["user_id"], []).append(review["item_id"])
    lengths = {len(items) for items in by_user.values()}
    assert lengths == set(range(SMALL.min_history, SMALL.max_history + 1))
    assert all(len(set(items)) == len(items) for items in by_user.values())
    reads = Counter(review["item_id"] for review in records["reviews"])
    cold_enders = [items for user, items in sorted(by_user.items())
                   if int(user[1:]) % COLD_EVERY == COLD_EVERY - 1]
    assert len(cold_enders) == SMALL.users // COLD_EVERY
    assert all(reads[items[-1]] <= 2 for items in cold_enders)
    assert {r["success_count"] for r in records["rollouts"]} <= set(range(9))


def test_generator_rejects_an_impossible_cold_tail():
    with pytest.raises(ValueError):
        build_records(CorpusSpec(users=100, items=200, cold_items=2), 0)


@pytest.mark.parametrize("intervals, depth", [
    ([], 0),
    ([(0, 1), (1, 2), (2, 3)], 3),            # back to back
    ([(0, 2), (1, 3)], 1),                    # overlapping
    ([(0, 1), (0.5, 1.5), (1.5, 2), (1.6, 1.9)], 2),
    ([(5, 6), (0, 1), (2, 3), (2.5, 4)], 3),  # unsorted input
])
def test_chain_depth(intervals, depth):
    assert chain_depth(intervals) == depth


@pytest.mark.parametrize("n, p, value, beyond", [
    (100, 0.9, 90, 10),
    (100, 0.5, 50, 50),
    (10, 0.9, 9, 1),
    (99, 0.9, 90, 9),
    (1, 0.9, 1, 0),
    (200, 0.99, 198, 2),
])
def test_percentile_and_samples_beyond(n, p, value, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    assert percentile(samples, p) == (value, beyond)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_session_user_reads_each_prompt_kind():
    sys.path.insert(0, str(HERE.parent / "src"))
    probes = pytest.importorskip("probes")
    from recteacher import prompts
    from recteacher.gateway import chat_request

    def request(user_text: str):
        return chat_request([("system", "s"), ("user", user_text)])

    instance = prompts.render_instance_prompt("u7", {"age": "30"}, "", ["a"], ["b"])
    summary = prompts.history_summary_user(prompts.render_user_line("u8", {"age": "30"}), "", "x")
    user_evidence = prompts.evidence_user(
        f"# Target user\n{prompts.render_user_line('u9', {})}\n", "Preference items", "1. x")
    item_evidence = prompts.evidence_user(
        f"# Target item\n{prompts.render_item_line('i1', 'T', {})}\n", "Collaborative items", "1. x")
    assert probes.session_user(request(instance)) == "u7"
    assert probes.session_user(request(summary)) == "u8"
    assert probes.session_user(request(user_evidence)) == "u9"
    assert probes.session_user(request(item_evidence)) is None
