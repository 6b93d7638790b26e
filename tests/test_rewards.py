"""Reward scoring and RL difficulty bucketing."""

from __future__ import annotations

from fractions import Fraction
import random

import pytest

from recteacher.errors import InsufficientInput
from recteacher.rewards import (
    Bucket,
    RewardBreakdown,
    bucket,
    composite_reward,
    compose_rl_set,
    format_reward,
    largest_remainder,
    outcome_reward,
)

from randlog import random_log
from recteacher.trajectory import serialize

VALID = (
    "<plan>\n<JSON>[\"User_Profile_Summary\"]</JSON>\n</plan>\n"
    "<user_profile>\n"
    '<tool_call>{"arguments": {"user_id": "u"}, "name": "UserCF"}</tool_call>\n'
    '<tool_response>{"result": "r"}</tool_response>\n'
    "<JSON>[\"ok\"]</JSON>\n</user_profile>\n"
    "<reflection>\n<JSON>{\"correct\": \"yes\"}</JSON>\n</reflection>\n"
    "<recommend>\n1. gt\n2. b\n</recommend>"
)


def test_format_reward_accepts_valid():
    assert format_reward(VALID) == 1


@pytest.mark.parametrize("text", [
    "<plan>",  # unparsable
    "<plan>\n<JSON>[]</JSON>\n</plan>\n<recommend>\n1. a\n</recommend>",  # no reflection
    "<reflection>\n<JSON>{}</JSON>\n</reflection>\n<recommend>\n1. a\n</recommend>",  # no plan
    # two call objects in one tool_call block
    VALID.replace(
        '<tool_call>{"arguments": {"user_id": "u"}, "name": "UserCF"}</tool_call>',
        '<tool_call>{"arguments": {"user_id": "u"}, "name": "UserCF"}\n'
        '{"arguments": {"item_id": "i"}, "name": "ItemCF"}</tool_call>',
    ),
    # unrecognized tool name
    VALID.replace('"name": "UserCF"', '"name": "Telepathy"'),
    # tool_call body is not JSON
    VALID.replace('{"arguments": {"user_id": "u"}, "name": "UserCF"}', "not json"),
    # empty tool_call body
    VALID.replace('{"arguments": {"user_id": "u"}, "name": "UserCF"}', ""),
    # a recognized tool called with another tool's argument key
    VALID.replace('{"user_id": "u"}', '{"item_id": "x"}'),
    # payloads the teacher rejects: plan, analysis, reflection and ranking contracts
    VALID.replace('["User_Profile_Summary"]', "[1]"),
    VALID.replace('["ok"]', "not json"),
    VALID.replace('<JSON>["ok"]</JSON>\n', ""),
    VALID.replace('{"correct": "yes"}', "{}"),
    VALID.replace("1. gt", '<JSON>{"note": "x"}</JSON>\n1. gt'),
])
def test_format_reward_rejects(text):
    assert format_reward(text) == -1


def test_format_reward_random_valid_logs():
    rng = random.Random(2024)
    for _ in range(200):
        assert format_reward(serialize(random_log(rng))) == 1


def test_outcome_reward_tiers():
    ranking = ["r1", "r2", "r3", "r4", "r5", "r6", "r7"]
    expected = [Fraction(1), Fraction(2, 3), Fraction(2, 3),
                Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0)]
    assert [outcome_reward(ranking, f"r{i}") for i in range(1, 8)] == expected
    assert outcome_reward(ranking, "absent") == Fraction(0)
    assert outcome_reward([], "x") == Fraction(0)


def test_composite_reward_combines_exactly():
    text = "<plan>\n<JSON>[\"User_Profile_Summary\"]</JSON>\n</plan>\n" \
           "<reflection>\n<JSON>{\"correct\": \"yes\"}</JSON>\n</reflection>\n" \
           "<recommend>\n1. a\n2. b\n3. c\n4. d\n</recommend>"
    assert composite_reward(text, "a") == RewardBreakdown(1, Fraction(1), Fraction(2))
    assert composite_reward(text, "b") == RewardBreakdown(1, Fraction(2, 3), Fraction(5, 3))
    assert composite_reward(text, "d") == RewardBreakdown(1, Fraction(1, 3), Fraction(4, 3))
    assert composite_reward(text, "z") == RewardBreakdown(1, Fraction(0), Fraction(1))


def test_composite_reward_format_failure_keeps_outcome():
    # parses, hits top-1, but lacks a reflection section
    text = "<plan>\n<JSON>[\"User_Profile_Summary\"]</JSON>\n</plan>\n<recommend>\n1. a\n</recommend>"
    assert composite_reward(text, "a") == RewardBreakdown(-1, Fraction(1), Fraction(0))


def test_composite_reward_unparsable():
    assert composite_reward("garbage", "a") == RewardBreakdown(-1, Fraction(0), Fraction(-1))


def test_bucket_map_default_group():
    expected = {
        0: Bucket.EXCLUDED,
        1: Bucket.HARD, 2: Bucket.HARD,
        3: Bucket.MEDIUM, 4: Bucket.MEDIUM, 5: Bucket.MEDIUM,
        6: Bucket.EASY, 7: Bucket.EASY,
        8: Bucket.EXCLUDED,
    }
    assert {n: bucket(n) for n in range(9)} == expected


def test_bucket_small_groups():
    assert bucket(0, g=1) is Bucket.EXCLUDED
    assert bucket(1, g=1) is Bucket.EXCLUDED
    assert bucket(1, g=2) is Bucket.HARD
    assert bucket(2, g=3) is Bucket.HARD
    assert bucket(3, g=4) is Bucket.MEDIUM
    assert bucket(5, g=6) is Bucket.MEDIUM
    assert bucket(6, g=7) is Bucket.EASY


def test_bucket_validation():
    with pytest.raises(ValueError):
        bucket(9, g=8)
    with pytest.raises(ValueError):
        bucket(-1, g=8)
    with pytest.raises(ValueError):
        bucket(0, g=0)


def test_largest_remainder_frozen_cases():
    assert largest_remainder(500, (3, 4, 3)) == (150, 200, 150)
    assert largest_remainder(7, (1, 1, 1)) == (3, 2, 2)
    assert largest_remainder(8, (3, 4, 3)) == (3, 3, 2)
    assert largest_remainder(0, (3, 4, 3)) == (0, 0, 0)
    assert largest_remainder(5, (1, 0, 0)) == (5, 0, 0)


def test_largest_remainder_always_sums_to_total():
    rng = random.Random(5)
    for _ in range(200):
        total = rng.randrange(0, 1000)
        weights = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 6))]
        if sum(weights) == 0:
            weights[0] = 1
        quotas = largest_remainder(total, weights)
        assert sum(quotas) == total
        assert all(q >= 0 for q in quotas)


def test_largest_remainder_validation():
    with pytest.raises(ValueError):
        largest_remainder(-1, (1,))
    with pytest.raises(ValueError):
        largest_remainder(5, ())
    with pytest.raises(ValueError):
        largest_remainder(5, (1, -1))
    with pytest.raises(ValueError):
        largest_remainder(5, (0, 0))


def test_compose_rl_set_quotas_and_order():
    pools = {
        Bucket.EASY: [f"e{i}" for i in range(200)],
        Bucket.MEDIUM: [f"m{i}" for i in range(300)],
        Bucket.HARD: [f"h{i}" for i in range(200)],
        Bucket.EXCLUDED: ["never"],
    }
    chosen = compose_rl_set(pools, target_total=500, ratio=(3, 4, 3), rng_seed=42)
    assert len(chosen) == 500
    assert all(x.startswith("e") for x in chosen[:150])
    assert all(x.startswith("m") for x in chosen[150:350])
    assert all(x.startswith("h") for x in chosen[350:])
    assert "never" not in chosen
    assert len(set(chosen)) == 500  # sampling without replacement
    assert compose_rl_set(pools, target_total=500, ratio=(3, 4, 3), rng_seed=42) == chosen
    assert compose_rl_set(pools, target_total=500, ratio=(3, 4, 3), rng_seed=43) != chosen


def test_compose_rl_set_insufficient_bucket():
    pools = {Bucket.EASY: ["e1"], Bucket.MEDIUM: ["m1"], Bucket.HARD: []}
    with pytest.raises(InsufficientInput, match="bucket Easy: need 3, have 1"):
        compose_rl_set(pools, target_total=10, ratio=(3, 4, 3))


def test_compose_rl_set_ratio_validation():
    with pytest.raises(ValueError):
        compose_rl_set({}, target_total=10, ratio=(1, 1))

