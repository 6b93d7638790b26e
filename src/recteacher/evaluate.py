"""Sampled evaluation: candidate construction, HR@k, HR_avg, best-of-k."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import random
from typing import Mapping, Sequence

from .corpus import Corpus, Interaction, holdout_split
from .errors import InsufficientInput

CANDIDATE_COUNT = 20
NEGATIVE_COUNT = CANDIDATE_COUNT - 1

DEFAULT_KS = (1, 3, 5)
BEST_OF_KS = (1, 2, 4, 8, 16)

SECONDS_PER_DAY = 86400

# What each scenario means; fixed so that two runs' per-scenario numbers compare.
COLD_USER_MAX_HISTORY = 5                    # ColdStartUser: truncated history shorter than this
COLD_ITEM_MAX_INTERACTIONS = 2               # ColdStartItem: gt interactions corpus-wide at most this
EVO_LONG_MIN_HISTORY = 10                    # EvoLong: truncated history at least this
EVO_SHORT_MAX_GAP_S = 30 * SECONDS_PER_DAY   # EvoShort: gt gap at most this


class Scenario(Enum):
    CLASSIC = "Classic"
    COLD_START_USER = "ColdStartUser"
    COLD_START_ITEM = "ColdStartItem"
    EVO_LONG = "EvoLong"
    EVO_SHORT = "EvoShort"


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
        if not history_fits(self.scenario, len(self.history)):
            raise ValueError(f"a {self.scenario.value} instance cannot have "
                             f"{len(self.history)} history entries")


@dataclass(frozen=True)
class EvalReport:
    per_k: Mapping[int, Fraction]
    hr_avg: Fraction
    n: int


def history_fits(scenario: Scenario, length: int) -> bool:
    """The part of the scenario's filter that history length alone decides; true where it decides nothing."""
    if scenario is Scenario.COLD_START_USER:
        return length < COLD_USER_MAX_HISTORY
    if scenario is Scenario.EVO_LONG:
        return length >= EVO_LONG_MIN_HISTORY
    return True


def _negative_pool(corpus: Corpus, user: str) -> list[str]:
    """The items the user never touched, in id order; InsufficientInput when too few for the negatives."""
    interacted = {interaction.item for interaction in corpus.sequences[user]}
    pool = [item for item in corpus.sorted_item_ids if item not in interacted]
    if len(pool) < NEGATIVE_COUNT:
        raise InsufficientInput(f"user {user!r}: {len(pool)} candidates for {NEGATIVE_COUNT} negatives")
    return pool


def matches_scenario(corpus: Corpus, user: str, scenario: Scenario) -> bool:
    """Whether `build_instance` gives the user an instance, and the scenario's filter keeps it."""
    try:
        history, target = holdout_split(corpus, user)
        if not history or not history_fits(scenario, len(history)):
            return False
        if scenario is Scenario.COLD_START_ITEM and corpus.item_reads[target.item] > COLD_ITEM_MAX_INTERACTIONS:
            return False
        if scenario is Scenario.EVO_SHORT and target.timestamp - history[-1].timestamp > EVO_SHORT_MAX_GAP_S:
            return False
        _negative_pool(corpus, user)  # last, as the only check that walks the catalogue
    except InsufficientInput:
        return False
    return True


def build_instance(
    corpus: Corpus,
    user: str,
    scenario: Scenario = Scenario.CLASSIC,
    rng_seed: int | str = 0,
) -> EvalInstance:
    """Holdout split plus 19 seeded negatives the user never touched."""
    history, target = holdout_split(corpus, user)
    if not history:
        raise InsufficientInput(f"user {user!r}: no interactions before the ground-truth item")
    pool = _negative_pool(corpus, user)
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
        raise InsufficientInput("no (ranking, instance) pairs to evaluate")
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
        raise InsufficientInput("no instances")
    if any(k < 1 for k in eval_ks):
        raise ValueError("k must be >= 1")
    need = max(ks)
    for instance, group in zip(instances, samples):
        if len(group) < need:
            raise InsufficientInput(f"user {instance.user!r}: {len(group)} samples, need {need}")

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
