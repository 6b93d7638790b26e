"""Composite rewards and RL difficulty bucketing.

All reward values are exact rationals so total-set membership is testable
without float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import random
from typing import Mapping, Sequence, TypeVar

from .errors import InsufficientBucket, ReplyParseError, TagError, ToolParseError
from .evaluate import gt_rank
from .tags import decode_tool_calls
from .teacher import Phase, decode_payload
from .trajectory import ParsedTrajectory, parse

FORMAT_PASS = 1
FORMAT_FAIL = -1

DEFAULT_GROUP_SIZE = 8  # rollouts per instance; success counts run 0..g
DEFAULT_RL_TARGET = 500
DEFAULT_RL_RATIO = (3, 4, 3)  # easy : medium : hard


@dataclass(frozen=True)
class RewardBreakdown:
    format_score: int
    outcome_score: Fraction
    total: Fraction


class Bucket(Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"
    EXCLUDED = "Excluded"


def _format_of(parsed: ParsedTrajectory) -> int:
    tags = {section.tag for section in parsed.sections}
    if not {Phase.PLAN.value, Phase.REFLECTION.value, Phase.RECOMMEND.value} <= tags:
        return FORMAT_FAIL
    try:
        for section in parsed.sections:  # serialize writes the ranking as a numbered list
            if section.payload is not None or section.tag != Phase.RECOMMEND.value:
                decode_payload(section.payload, Phase(section.tag))
        blocks = [decode_tool_calls(body) for section in parsed.sections for body in section.tool_calls]
    except (ReplyParseError, ToolParseError):
        return FORMAT_FAIL
    # exactly one call object per block
    return FORMAT_PASS if all(len(calls) == 1 for calls in blocks) else FORMAT_FAIL


def format_reward(text: str) -> int:
    """+1 iff the text parses, has plan/reflection/recommend, every section's
    last payload meets its role's contract (`teacher.decode_payload`, the rule
    the teacher accepts replies by; a recommend section needs none), and every
    tool_call body is one valid call of a recognized tool with its one id
    argument; else -1."""
    try:
        parsed = parse(text)
    except TagError:
        return FORMAT_FAIL
    return _format_of(parsed)


def outcome_reward(ranking: Sequence[str], ground_truth: str) -> Fraction:
    """Tiered rank reward: top-1 full credit, top-3 two thirds, top-5 one third."""
    index = gt_rank(ranking, ground_truth)
    if index is None:
        return Fraction(0)
    if index == 0:
        return Fraction(1)
    if index <= 2:
        return Fraction(2, 3)
    if index <= 4:
        return Fraction(1, 3)
    return Fraction(0)


def composite_reward(text: str, ground_truth: str) -> RewardBreakdown:
    try:
        parsed = parse(text)
    except TagError:
        return RewardBreakdown(FORMAT_FAIL, Fraction(0), Fraction(FORMAT_FAIL))
    format_score = _format_of(parsed)
    outcome_score = outcome_reward(parsed.ranking, ground_truth)
    return RewardBreakdown(format_score, outcome_score, format_score + outcome_score)


def bucket(success_count: int, g: int = DEFAULT_GROUP_SIZE) -> Bucket:
    """Difficulty by success count; 0 and g are excluded from RL data."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if not 0 <= success_count <= g:
        raise ValueError(f"success count {success_count} outside 0..{g}")
    if success_count in (0, g):
        return Bucket.EXCLUDED
    if success_count <= min(2, g - 1):
        return Bucket.HARD
    if success_count <= min(5, g - 1):
        return Bucket.MEDIUM
    return Bucket.EASY


def largest_remainder(total: int, weights: Sequence[int]) -> tuple[int, ...]:
    """Integer quotas proportional to weights, summing exactly to total."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if not weights or any(w < 0 for w in weights) or sum(weights) == 0:
        raise ValueError("weights must be non-negative and sum positive")
    denom = sum(weights)
    shares = [Fraction(total * w, denom) for w in weights]
    quotas = [int(s) for s in shares]
    leftover = total - sum(quotas)
    remainders = sorted(
        range(len(weights)),
        key=lambda i: (shares[i] - quotas[i], -i),
        reverse=True,
    )
    for i in remainders[:leftover]:
        quotas[i] += 1
    return tuple(quotas)


T = TypeVar("T")


def compose_rl_set(
    buckets: Mapping[Bucket, Sequence[T]],
    target_total: int = DEFAULT_RL_TARGET,
    ratio: Sequence[int] = DEFAULT_RL_RATIO,
    rng_seed: int | str = 0,
) -> list[T]:
    """Seeded sample of each difficulty bucket, concatenated easy/medium/hard."""
    if len(ratio) != 3:
        raise ValueError("ratio must have exactly three weights (easy, medium, hard)")
    quotas = largest_remainder(target_total, ratio)
    order = (Bucket.EASY, Bucket.MEDIUM, Bucket.HARD)
    rng = random.Random(rng_seed)
    chosen: list[T] = []
    for which, need in zip(order, quotas):
        available = list(buckets.get(which, ()))
        if len(available) < need:
            raise InsufficientBucket(which.value, need, len(available))
        chosen.extend(rng.sample(available, need))
    return chosen
