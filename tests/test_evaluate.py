"""Scenario filters, instance construction, and sampled ranking metrics."""

from __future__ import annotations

from fractions import Fraction
import random

import pytest

from recteacher.corpus import Corpus, Interaction, ItemMeta
from recteacher.errors import (
    EmptyInput,
    InsufficientSamples,
    NotEnoughItems,
    SequenceTooShort,
)
from recteacher.evaluate import (
    CANDIDATE_COUNT,
    EvalInstance,
    Scenario,
    ScenarioThresholds,
    best_of_k,
    build_instance,
    evaluate,
    matches_scenario,
)

DAY = 86400


def make_corpus(sequences, n_items=30):
    items = {f"i{k:02d}": ItemMeta(title=f"T{k}") for k in range(n_items)}
    users = {user: {} for user in sequences}
    built = {
        user: [Interaction(user, item, ts) for item, ts in seq]
        for user, seq in sequences.items()
    }
    return Corpus(users=users, items=items, sequences=built)


def seq(*items, start=1000, step=DAY):
    return [(item, start + i * step) for i, item in enumerate(items)]


def make_instance(candidates=None, ground_truth="c00", **kwargs):
    if candidates is None:
        candidates = tuple(f"c{i:02d}" for i in range(CANDIDATE_COUNT))
    defaults = dict(
        user="u1",
        history=(Interaction("u1", "h", 1),),
        candidates=tuple(candidates),
        ground_truth=ground_truth,
    )
    defaults.update(kwargs)
    return EvalInstance(**defaults)


def test_eval_instance_validation():
    make_instance()  # the happy path constructs
    with pytest.raises(ValueError):
        make_instance(history=())
    with pytest.raises(ValueError, match="history names user 'ux', not the instance's 'u1'"):
        make_instance(history=(Interaction("u1", "h", 1), Interaction("ux", "h", 2)))
    with pytest.raises(ValueError):
        make_instance(candidates=("c1", "c2"))
    with pytest.raises(ValueError):
        make_instance(ground_truth="absent")
    dupes = ("c00",) * 2 + tuple(f"c{i:02d}" for i in range(1, CANDIDATE_COUNT - 1))
    with pytest.raises(ValueError):
        make_instance(candidates=dupes)


def test_matches_scenario_classic():
    corpus = make_corpus({"u1": seq("i00", "i01"), "u2": seq("i05")})
    assert matches_scenario(corpus, "u1", Scenario.CLASSIC) is True
    # one interaction leaves no history before the holdout
    assert matches_scenario(corpus, "u2", Scenario.CLASSIC) is False


def test_matches_scenario_cold_start_user():
    corpus = make_corpus({
        "short": seq("i00", "i01", "i02"),                              # 2 of history
        "long": seq("i00", "i01", "i02", "i03", "i04", "i05", "i06"),   # 6 of history
    })
    assert matches_scenario(corpus, "short", Scenario.COLD_START_USER) is True
    assert matches_scenario(corpus, "long", Scenario.COLD_START_USER) is False
    tight = ScenarioThresholds(cold_user_max_history=2)
    assert matches_scenario(corpus, "short", Scenario.COLD_START_USER, tight) is False


def test_matches_scenario_cold_start_item():
    # i09 is u1's ground truth and appears twice corpus-wide; i01 appears 3 times
    corpus = make_corpus({
        "u1": seq("i00", "i09"),
        "u2": seq("i01", "i09"),
        "u3": seq("i01", "i02"),
        "u4": seq("i02", "i01"),
    })
    assert matches_scenario(corpus, "u1", Scenario.COLD_START_ITEM) is True
    assert matches_scenario(corpus, "u4", Scenario.COLD_START_ITEM) is False
    assert matches_scenario(
        corpus, "u1", Scenario.COLD_START_ITEM, ScenarioThresholds(cold_item_max_interactions=1)
    ) is False


def test_matches_scenario_evo_long():
    corpus = make_corpus({
        "u1": seq(*[f"i{k:02d}" for k in range(11)]),  # 10 of history
        "u2": seq(*[f"i{k:02d}" for k in range(10)]),  # 9 of history
    })
    assert matches_scenario(corpus, "u1", Scenario.EVO_LONG) is True
    assert matches_scenario(corpus, "u2", Scenario.EVO_LONG) is False


def test_matches_scenario_evo_short_gap():
    recent = [("i00", 1000), ("i01", 1000 + 29 * DAY)]
    stale = [("i00", 1000), ("i01", 1000 + 31 * DAY)]
    corpus = make_corpus({"fresh": recent, "cold": stale})
    assert matches_scenario(corpus, "fresh", Scenario.EVO_SHORT) is True
    assert matches_scenario(corpus, "cold", Scenario.EVO_SHORT) is False


def test_build_instance_no_leak_and_determinism():
    corpus = make_corpus({"u1": seq("i00", "i01", "i02")}, n_items=30)
    instance = build_instance(corpus, "u1", rng_seed="0:u1")
    assert instance.ground_truth == "i02"
    assert [x.item for x in instance.history] == ["i00", "i01"]
    assert len(instance.candidates) == CANDIDATE_COUNT
    assert instance.ground_truth in instance.candidates
    # negatives never come from the user's own interactions
    assert {"i00", "i01"}.isdisjoint(set(instance.candidates) - {"i02"})
    again = build_instance(corpus, "u1", rng_seed="0:u1")
    assert again == instance
    other = build_instance(corpus, "u1", rng_seed="1:u1")
    assert other.candidates != instance.candidates


def test_build_instance_exhaustive_no_leak():
    rng = random.Random(9)
    corpus = make_corpus(
        {f"u{n}": seq(*rng.sample([f"i{k:02d}" for k in range(40)], rng.randrange(2, 8)))
         for n in range(12)},
        n_items=40,
    )
    for user in corpus.sequences:
        instance = build_instance(corpus, user, rng_seed=f"7:{user}")
        interacted = {x.item for x in corpus.sequences[user]}
        negatives = set(instance.candidates) - {instance.ground_truth}
        assert not negatives & interacted
        assert len(instance.candidates) == len(set(instance.candidates)) == CANDIDATE_COUNT


def test_build_instance_errors():
    with pytest.raises(SequenceTooShort):
        build_instance(make_corpus({"u1": seq("i00")}), "u1")
    # 21 items minus 2 interacted leaves 18 < 19 negatives
    with pytest.raises(NotEnoughItems):
        build_instance(make_corpus({"u1": seq("i00", "i01", "i02")}, n_items=21), "u1")


def test_evaluate_hit_at_k():
    candidates = ("a", "b", "c") + tuple(f"c{i:02d}" for i in range(CANDIDATE_COUNT - 4)) + ("z",)

    def hit(ground_truth, k):
        pair = (["a", "b", "c"], make_instance(candidates=candidates, ground_truth=ground_truth))
        return evaluate([pair], ks=(k,)).per_k[k]

    assert hit("a", 1) == 1
    assert hit("b", 1) == 0
    assert hit("c", 3) == 1
    assert hit("z", 3) == 0  # a ranking that leaves the ground truth out misses at every k
    with pytest.raises(ValueError):
        hit("a", 0)


def rank_with_gt_at(position, ground_truth):
    ranking = [f"f{i:02d}" for i in range(CANDIDATE_COUNT - 1)]
    ranking.insert(position - 1, ground_truth)
    return ranking


def test_evaluate_worked_example():
    # two sessions: ground truth ranked 1st and 4th
    pairs = [
        (rank_with_gt_at(1, "g1"), make_instance(ground_truth="g1",
                                                 candidates=("g1",) + tuple(f"x{i:02d}" for i in range(19)))),
        (rank_with_gt_at(4, "g2"), make_instance(ground_truth="g2",
                                                 candidates=("g2",) + tuple(f"y{i:02d}" for i in range(19)))),
    ]
    report = evaluate(pairs)
    assert report.per_k == {1: Fraction(1, 2), 3: Fraction(1, 2), 5: Fraction(1)}
    assert report.hr_avg == Fraction(2, 3)
    assert report.n == 2


def test_evaluate_exact_fractions_and_empty():
    pairs = [(rank_with_gt_at(p, "g"), make_instance(
        ground_truth="g", candidates=("g",) + tuple(f"z{i:02d}" for i in range(19))))
        for p in (1, 2, 6)]
    report = evaluate(pairs)
    assert report.per_k == {1: Fraction(1, 3), 3: Fraction(2, 3), 5: Fraction(2, 3)}
    assert report.hr_avg == Fraction(5, 9)
    with pytest.raises(EmptyInput):
        evaluate([])


def test_hr_monotone_in_k():
    rng = random.Random(31)
    pairs = []
    for n in range(60):
        gt = "gt"
        others = [f"o{n}_{i}" for i in range(CANDIDATE_COUNT - 1)]
        candidates = [gt, *others]
        rng.shuffle(candidates)
        ranking = list(candidates)
        rng.shuffle(ranking)
        pairs.append((ranking, make_instance(ground_truth=gt, candidates=tuple(candidates))))
    report = evaluate(pairs, ks=(1, 3, 5, 10, 20))
    values = [report.per_k[k] for k in (1, 3, 5, 10, 20)]
    assert values == sorted(values)
    assert values[-1] == Fraction(1)  # gt is always among all 20


def test_best_of_k_small_case():
    candidates = ("g",) + tuple(f"n{i:02d}" for i in range(19))
    instance = make_instance(ground_truth="g", candidates=candidates)
    # 16 samples; gt rank by sample: sample 0 puts gt 6th, sample 1 puts it 2nd,
    # sample 3 puts it 1st, the rest leave it 6th or absent entirely
    group = [rank_with_gt_at(6, "g") for _ in range(16)]
    group[1] = rank_with_gt_at(2, "g")
    group[3] = rank_with_gt_at(1, "g")
    group[5] = [f"n{i:02d}" for i in range(19)]  # gt absent
    reports = best_of_k([group], [instance])
    assert reports[1].per_k == {1: Fraction(0), 3: Fraction(0), 5: Fraction(0)}
    assert reports[2].per_k == {1: Fraction(0), 3: Fraction(1), 5: Fraction(1)}
    assert reports[4].per_k == {1: Fraction(1), 3: Fraction(1), 5: Fraction(1)}
    assert reports[8] == reports[4]
    assert reports[16] == reports[4]


def test_best_of_k_monotone_in_k_prime():
    rng = random.Random(17)
    instances = []
    samples = []
    for n in range(40):
        gt = "gt"
        candidates = [gt, *[f"c{n}_{i}" for i in range(19)]]
        rng.shuffle(candidates)
        instances.append(make_instance(ground_truth=gt, candidates=tuple(candidates)))
        group = []
        for _ in range(16):
            ranking = list(candidates)
            rng.shuffle(ranking)
            group.append(ranking)
        samples.append(group)
    reports = best_of_k(samples, instances)
    for k in (1, 3, 5):
        curve = [reports[kp].per_k[k] for kp in (1, 2, 4, 8, 16)]
        assert curve == sorted(curve)
    avg_curve = [reports[kp].hr_avg for kp in (1, 2, 4, 8, 16)]
    assert avg_curve == sorted(avg_curve)


def test_best_of_k_errors():
    instance = make_instance()
    with pytest.raises(InsufficientSamples):
        best_of_k([[rank_with_gt_at(1, "c00")] * 3], [instance])
    with pytest.raises(ValueError):
        best_of_k([], [instance])
    with pytest.raises(EmptyInput):
        best_of_k([], [])
