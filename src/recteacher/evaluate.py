"""Sampled evaluation: candidate construction, HR@k, HR_avg, best-of-k."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import random
from typing import Mapping, Sequence

from .corpus import Corpus, Interaction, holdout_split
from .errors import EmptyInput, InsufficientSamples, NotEnoughItems, SequenceTooShort

CANDIDATE_COUNT = 20
NEGATIVE_COUNT = CANDIDATE_COUNT - 1

DEFAULT_KS = (1, 3, 5)
BEST_OF_KS = (1, 2, 4, 8, 16)

SECONDS_PER_DAY = 86400


class Scenario(Enum):
    CLASSIC = "Classic"
    COLD_START_USER = "ColdStartUser"
    COLD_START_ITEM = "ColdStartItem"
    EVO_LONG = "EvoLong"
    EVO_SHORT = "EvoShort"


@dataclass(frozen=True)
class ScenarioThresholds:
    cold_user_max_history: int = 5       # ColdStartUser: truncated history shorter than this
    cold_item_max_interactions: int = 2  # ColdStartItem: gt interactions corpus-wide at most this
    evo_long_min_history: int = 10       # EvoLong: truncated history at least this
    evo_short_max_gap_s: int = 30 * SECONDS_PER_DAY  # EvoShort: gt gap at most this


@dataclass(frozen=True)
class EvalInstance:
    user: str
    history: tuple[Interaction, ...]
    candidates: tuple[str, ...]
    ground_truth: str
    scenario: Scenario = Scenario.CLASSIC

    def __post_init__(self) -> None:
        if not self.history:
            raise ValueError("history must be non-empty")
        stranger = next((entry.user for entry in self.history if entry.user != self.user), None)
        if stranger is not None:
            raise ValueError(f"history names user {stranger!r}, not the instance's {self.user!r}")
        if len(self.candidates) != CANDIDATE_COUNT:
            raise ValueError(f"need exactly {CANDIDATE_COUNT} candidates, got {len(self.candidates)}")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct")
        if self.ground_truth not in self.candidates:
            raise ValueError("ground truth must be among the candidates")


@dataclass(frozen=True)
class EvalReport:
    per_k: Mapping[int, Fraction]
    hr_avg: Fraction
    n: int


def matches_scenario(
    corpus: Corpus,
    user: str,
    scenario: Scenario,
    thresholds: ScenarioThresholds = ScenarioThresholds(),
) -> bool:
    """Whether the user yields a usable instance under the scenario's filter."""
    try:
        history, target = holdout_split(corpus, user)
    except SequenceTooShort:
        return False
    if not history:
        return False
    if scenario is Scenario.CLASSIC:
        return True
    if scenario is Scenario.COLD_START_USER:
        return len(history) < thresholds.cold_user_max_history
    if scenario is Scenario.COLD_START_ITEM:
        return corpus.item_reads[target.item] <= thresholds.cold_item_max_interactions
    if scenario is Scenario.EVO_LONG:
        return len(history) >= thresholds.evo_long_min_history
    return target.timestamp - history[-1].timestamp <= thresholds.evo_short_max_gap_s


def build_instance(
    corpus: Corpus,
    user: str,
    scenario: Scenario = Scenario.CLASSIC,
    rng_seed: int | str = 0,
) -> EvalInstance:
    """Holdout split plus 19 seeded negatives the user never touched."""
    history, target = holdout_split(corpus, user)
    if not history:
        raise SequenceTooShort(user, "no interactions before the ground-truth item")
    interacted = {interaction.item for interaction in corpus.sequences[user]}
    pool = [item for item in corpus.sorted_item_ids if item not in interacted]
    if len(pool) < NEGATIVE_COUNT:
        raise NotEnoughItems(f"user {user!r}: {len(pool)} candidates for {NEGATIVE_COUNT} negatives")
    rng = random.Random(rng_seed)
    candidates = [target.item, *rng.sample(pool, NEGATIVE_COUNT)]
    rng.shuffle(candidates)
    return EvalInstance(
        user=user,
        history=tuple(history),
        candidates=tuple(candidates),
        ground_truth=target.item,
        scenario=scenario,
    )


def evaluate(
    pairs: Sequence[tuple[Sequence[str], EvalInstance]],
    ks: Sequence[int] = DEFAULT_KS,
) -> EvalReport:
    """HR@k over `ks`: best-of-1 on one sample per instance."""
    if not pairs:
        raise EmptyInput("no (ranking, instance) pairs to evaluate")
    instances = [instance for _, instance in pairs]
    return best_of_k([[ranking] for ranking, _ in pairs], instances, ks=(1,), eval_ks=ks)[1]


def gt_rank(ranking: Sequence[str], ground_truth: str) -> int | None:
    """The ground truth's 0-based position in `ranking`; None when it is absent."""
    return ranking.index(ground_truth) if ground_truth in ranking else None


def best_of_k(
    samples: Sequence[Sequence[Sequence[str]]],
    instances: Sequence[EvalInstance],
    ks: Sequence[int] = BEST_OF_KS,
    eval_ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, EvalReport]:
    """Oracle best-of-k: per instance, keep the sample ranking gt highest."""
    if len(samples) != len(instances):
        raise ValueError("samples and instances must align")
    if not instances:
        raise EmptyInput("no instances")
    if any(k < 1 for k in eval_ks):
        raise ValueError("k must be >= 1")
    need = max(ks)
    for instance, group in zip(instances, samples):
        if len(group) < need:
            raise InsufficientSamples(f"user {instance.user!r}: {len(group)} samples, need {need}")

    # Rank of gt per sample; None (absent) loses to every real rank.
    ranks: list[list[int | None]] = [
        [gt_rank(ranking, instance.ground_truth) for ranking in group]
        for instance, group in zip(instances, samples)
    ]
    reports: dict[int, EvalReport] = {}
    for k_prime in ks:
        per_k: dict[int, Fraction] = {}
        best = [
            min((r for r in row[:k_prime] if r is not None), default=None)
            for row in ranks
        ]
        for k in eval_ks:
            hits = sum(1 for b in best if b is not None and b < k)
            per_k[k] = Fraction(hits, len(instances))
        hr_avg = sum(per_k.values(), Fraction(0)) / len(eval_ks)
        reports[k_prime] = EvalReport(per_k=per_k, hr_avg=hr_avg, n=len(instances))
    return reports
