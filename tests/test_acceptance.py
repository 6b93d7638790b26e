"""Acceptance gate: nine checks, one printed verdict line each.

Every check runs offline against deterministic mocks except the last, which
exercises a live chat-completions endpoint only when one is configured. Its
session also runs offline against the oracle, so the live check cannot rot
unseen while it is skipped.
"""

from __future__ import annotations

from fractions import Fraction
import json
import math
import os
import random
import re
import time

import pytest

from recteacher.abstract import abstract
from recteacher.cli import main
from recteacher.corpus import Interaction
from recteacher.errors import TagError
from recteacher.evaluate import (
    CANDIDATE_COUNT,
    EvalInstance,
    Scenario,
    best_of_k,
    build_instance,
    evaluate,
    matches_scenario,
)
from recteacher.corpus import load_corpus
from recteacher.gateway import Gateway, GatewayConfig, HttpBackend, ScriptBackend
from recteacher.oracle import OracleBackend
from recteacher.graph import item_cf_neighbors, neighbor_item_pool, user_cf_neighbors
from recteacher.rewards import (
    Bucket,
    bucket,
    composite_reward,
    compose_rl_set,
    format_reward,
    largest_remainder,
)
from recteacher.teacher import SessionLog, TeacherConfig, TeacherContext, ToolRunner, run_teacher
from recteacher import prompts
from recteacher.trajectory import outcome_filter, parse, serialize
from recteacher.util import read_jsonl
from recteacher.verbalize import Evidence, EvidenceCache, EvidenceKey

from cfref import brute_item_neighbors, brute_pool, brute_user_neighbors, random_graph
from conftest import criterion
from randlog import expected_sections, mutate, random_log

SMOKE_ENDPOINT_VAR = "RECTEACHER_SMOKE_ENDPOINT"
SMOKE_MODEL_VAR = "RECTEACHER_SMOKE_MODEL"


def test_criterion_1_reward_exactness():
    with criterion(1, "reward exactness"):
        start = time.monotonic()
        candidates = [f"c{i}" for i in range(1, 7)]
        body = "\n".join(f"{i}. {item}" for i, item in enumerate(candidates, start=1))
        full = ("<plan>\n<JSON>[\"User_Profile_Summary\"]</JSON>\n</plan>\n"
                "<reflection>\n<JSON>{\"correct\": \"yes\"}</JSON>\n</reflection>\n"
                f"<recommend>\n{body}\n</recommend>")
        expected = [Fraction(1), Fraction(2, 3), Fraction(2, 3),
                    Fraction(1, 3), Fraction(1, 3), Fraction(0)]
        for rank_position, want in zip(range(1, 7), expected):
            breakdown = composite_reward(full, f"c{rank_position}")
            assert breakdown.format_score == 1
            assert breakdown.outcome_score == want
            assert breakdown.total == 1 + want

        without_reflection = full.replace(
            "<reflection>\n<JSON>{\"correct\": \"yes\"}</JSON>\n</reflection>\n", "")
        for rank_position, want in zip(range(1, 7), expected):
            breakdown = composite_reward(without_reflection, f"c{rank_position}")
            assert breakdown.format_score == -1
            assert breakdown.outcome_score == want
            assert breakdown.total == want - 1
        assert time.monotonic() - start < 1.0


def test_criterion_2_codec_round_trip():
    with criterion(2, "codec round-trip"):
        start = time.monotonic()
        rng = random.Random(1002)
        for _ in range(1000):
            log = random_log(rng)
            parsed = parse(serialize(log))
            assert parsed.ranking == log.final_ranking
            got = [(s.tag, s.thinking, s.payload, s.tool_events) for s in parsed.sections]
            assert got == expected_sections(log)
        for _ in range(1000):
            broken = mutate(serialize(random_log(rng)), rng)
            with pytest.raises(TagError):
                parse(broken)
        assert time.monotonic() - start < 30.0


def test_criterion_3_cf_oracle_equivalence():
    with criterion(3, "CF oracle equivalence"):
        start = time.monotonic()
        rng = random.Random(1003)
        for _ in range(200):
            graph = random_graph(rng, max_users=30, max_items=40)
            for k in (1, 5, 10):
                for item in graph.item_adj:
                    assert item_cf_neighbors(graph, item, k=k) == brute_item_neighbors(graph, item, k)
                for user in graph.user_adj:
                    assert user_cf_neighbors(graph, user, k=k) == brute_user_neighbors(graph, user, k)
                    assert neighbor_item_pool(graph, user, k_users=k) == brute_pool(graph, user, k)
        assert time.monotonic() - start < 60.0


def test_criterion_4_abstractor_contract():
    with criterion(4, "abstractor contract"):
        rng = random.Random(1004)
        marker = re.compile(r"ITEM\d+\b")

        def echo_markers(request, index):
            seen = sorted(set(marker.findall(request.messages[1]["content"])))
            return f"<SUMMARY>folded {' '.join(seen)}</SUMMARY>"

        for m in (1, 3, 10):
            for _ in range(12):
                n = rng.randrange(1, 45)
                history = [Interaction("u", f"ITEM{k}", 1000 + k) for k in range(n)]
                expected_calls = max(0, math.ceil(n / m) - 1)
                backend = ScriptBackend([echo_markers] * expected_calls)
                gateway = Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)
                result = abstract(history, m, gateway, render=lambda x: x.item)

                assert backend.sends == expected_calls
                final = n % m or m
                assert [x.item for x in result.recent_raw] == [f"ITEM{k}" for k in range(n - final, n)]
                folded = set(marker.findall(result.long_term_summary))
                if expected_calls == 0:
                    assert result.long_term_summary == ""
                else:
                    # every non-final chunk's items reached the final summary...
                    assert folded == {f"ITEM{k}" for k in range(n - final)}
                    # ...and nothing from the raw final chunk did
                    assert not folded & {x.item for x in result.recent_raw}


def test_criterion_5_filter_and_bucketing_exactness():
    with criterion(5, "filter and bucketing exactness"):
        rng = random.Random(1005)
        pairs = []
        expected_kept = []
        for index in range(500):
            ground_truth = f"g{index}"
            fillers = [f"f{index}_{j}" for j in range(4)]
            style = rng.random()
            if style < 0.55:  # top-1 hit
                ranking = [ground_truth, *fillers]
                keep = True
            elif style < 0.85:  # parsable miss
                ranking = [*fillers[:2], ground_truth, *fillers[2:]]
                keep = False
            else:  # unparsable
                ranking = None
                keep = False
            if ranking is None:
                text = f"<recommend>\n1. g{index}\n"  # unclosed section
            else:
                body = "\n".join(f"{i}. {item}" for i, item in enumerate(ranking, start=1))
                text = f"<recommend>\nweighing the candidates\n{body}\n</recommend>"
            pairs.append((text, ground_truth))
            if keep:
                expected_kept.append(text)
        assert outcome_filter(pairs) == expected_kept

        expected_buckets = [Bucket.HARD, Bucket.HARD, Bucket.MEDIUM, Bucket.MEDIUM,
                            Bucket.MEDIUM, Bucket.EASY, Bucket.EASY]
        assert [bucket(n, g=8) for n in range(1, 8)] == expected_buckets
        assert bucket(0, g=8) is Bucket.EXCLUDED
        assert bucket(8, g=8) is Bucket.EXCLUDED

        assert largest_remainder(500, (3, 4, 3)) == (150, 200, 150)
        pools = {
            Bucket.EASY: [f"e{i}" for i in range(160)],
            Bucket.MEDIUM: [f"m{i}" for i in range(210)],
            Bucket.HARD: [f"h{i}" for i in range(155)],
        }
        chosen = compose_rl_set(pools, target_total=500, ratio=(3, 4, 3), rng_seed=0)
        assert len(chosen) == 500
        assert sum(1 for x in chosen if x.startswith("e")) == 150
        assert sum(1 for x in chosen if x.startswith("m")) == 200
        assert sum(1 for x in chosen if x.startswith("h")) == 150


def _instance(ground_truth, candidates):
    return EvalInstance(
        user="u",
        history=(Interaction("u", "h", 1),),
        candidates=tuple(candidates),
        ground_truth=ground_truth,
    )


def _ranking_with_gt_at(position, ground_truth, tag):
    ranking = [f"{tag}{i:02d}" for i in range(CANDIDATE_COUNT - 1)]
    ranking.insert(position - 1, ground_truth)
    return ranking


def test_criterion_6_evaluator_identities(toy_files, tmp_path):
    with criterion(6, "evaluator identities"):
        # worked example: ground truth ranked 1st in one session, 4th in the other
        pairs = [
            (_ranking_with_gt_at(1, "g1", "a"),
             _instance("g1", ["g1"] + [f"a{i:02d}" for i in range(19)])),
            (_ranking_with_gt_at(4, "g2", "b"),
             _instance("g2", ["g2"] + [f"b{i:02d}" for i in range(19)])),
        ]
        report = evaluate(pairs)
        assert report.per_k[1] == Fraction(1, 2)
        assert report.per_k[3] == Fraction(1, 2)
        assert report.per_k[5] == Fraction(1)
        assert report.hr_avg == Fraction(2, 3)

        # monotonicity on 200 random sample sets
        rng = random.Random(1006)
        instances = []
        samples = []
        flat_pairs = []
        for n in range(200):
            ground_truth = "gt"
            candidates = [ground_truth] + [f"c{n}_{i}" for i in range(19)]
            rng.shuffle(candidates)
            instance = _instance(ground_truth, candidates)
            instances.append(instance)
            group = []
            for _ in range(16):
                ranking = list(candidates)
                rng.shuffle(ranking)
                group.append(ranking)
            samples.append(group)
            flat_pairs.append((group[0], instance))

        hr = evaluate(flat_pairs, ks=(1, 2, 3, 5, 10, 20))
        curve = [hr.per_k[k] for k in (1, 2, 3, 5, 10, 20)]
        assert curve == sorted(curve)
        assert curve[-1] == Fraction(1)

        reports = best_of_k(samples, instances)
        for k in (1, 3, 5):
            oracle_curve = [reports[kp].per_k[k] for kp in (1, 2, 4, 8, 16)]
            assert oracle_curve == sorted(oracle_curve)
        avg_curve = [reports[kp].hr_avg for kp in (1, 2, 4, 8, 16)]
        assert avg_curve == sorted(avg_curve)

        # exhaustive no-leak over the bundled toy corpus
        assert main(["ingest", "--users", str(toy_files["users"]),
                     "--items", str(toy_files["items"]),
                     "--reviews", str(toy_files["reviews"]),
                     "--out", str(tmp_path / "corpus")]) == 0
        corpus = load_corpus(tmp_path / "corpus")
        checked = 0
        for user in sorted(corpus.sequences):
            if not matches_scenario(corpus, user, Scenario.CLASSIC):
                continue
            instance = build_instance(corpus, user, rng_seed=f"0:{user}")
            interacted = {x.item for x in corpus.sequences[user]}
            negatives = set(instance.candidates) - {instance.ground_truth}
            assert not negatives & interacted
            checked += 1
        assert checked == 30


def test_criterion_7_end_to_end_mock_pipeline(toy_files, tmp_path, capsys):
    with criterion(7, "end-to-end mock pipeline"):
        start = time.monotonic()
        corpus = tmp_path / "corpus"
        graph = tmp_path / "graph.jsonl"
        cache = tmp_path / "evidence.jsonl"
        instances = tmp_path / "instances.jsonl"
        sessions = tmp_path / "sessions.jsonl"
        kept = tmp_path / "kept.jsonl"
        report_path = tmp_path / "report.json"

        steps = [
            ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
             "--reviews", str(toy_files["reviews"]), "--out", str(corpus)],
            ["build-graph", "--corpus", str(corpus), "--out", str(graph)],
            ["verbalize", "--corpus", str(corpus), "--graph", str(graph),
             "--out", str(cache), "--backend", "mock"],
            ["make-instances", "--corpus", str(corpus), "--out", str(instances)],
            ["run-teacher", "--corpus", str(corpus), "--graph", str(graph),
             "--cache", str(cache), "--instances", str(instances),
             "--out", str(sessions), "--backend", "mock"],
            ["filter", "--sessions", str(sessions), "--out", str(kept)],
            ["evaluate", "--sessions", str(sessions), "--instances", str(instances),
             "--out", str(report_path)],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        printed = capsys.readouterr().out

        session_records = [record for _, record in read_jsonl(sessions)]
        kept_records = [record for _, record in read_jsonl(kept)]
        assert len(session_records) == 30
        assert len(kept_records) == len(session_records)  # filter keeps 100%
        assert "kept 30 / 30" in printed

        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["overall"]["per_k"]["1"]["value"] == 1.0

        full_sequence = ["plan", "user_profile", "historical_analysis",
                         "recent_analysis", "interest_divergence", "reflection", "recommend"]
        for record in session_records:
            phases = [p["phase"] for p in record["phases"]]
            assert phases == full_sequence
            events = sum(len(p["tool_events"]) for p in record["phases"])
            assert events >= 1

        # second run: the mock reflector fails, forcing exactly one correction
        corrected = tmp_path / "sessions_corrected.jsonl"
        assert main(["run-teacher", "--corpus", str(corpus), "--graph", str(graph),
                     "--cache", str(cache), "--instances", str(instances),
                     "--out", str(corrected), "--backend", "mock", "--fail-reflection"]) == 0
        for _, record in read_jsonl(corrected):
            phases = [p["phase"] for p in record["phases"]]
            assert phases.count("correction") == 1

        assert time.monotonic() - start < 60.0


def test_criterion_8_reward_format_coherence():
    with criterion(8, "reward/format coherence"):
        rng = random.Random(1008)
        for _ in range(1000):
            assert format_reward(serialize(random_log(rng))) == 1


SMOKE_CANDIDATES = tuple(f"c{i:02d}" for i in range(CANDIDATE_COUNT))


def smoke_session(gateway: Gateway) -> SessionLog:
    """Criterion 9's session: user u1, 20 candidates, one cached UserCF entry."""
    prompt = prompts.render_instance_prompt(
        "u1", {"age": "34"}, "a steady run of character-driven novels",
        [f"item_id: h{i} | title: History {i}" for i in range(3)],
        [f"item_id: {c} | title: Candidate {c}" for c in SMOKE_CANDIDATES],
    )
    context = TeacherContext(user="u1", candidates=SMOKE_CANDIDATES, prompt=prompt)
    cache = EvidenceCache()
    cache.put(Evidence(EvidenceKey("UserCF", "u1"),
                       "similar readers favor long character arcs", (), 0))
    return run_teacher(context, TeacherConfig(), gateway, ToolRunner(cache))


def test_criterion_9_session_runs_offline():
    backend = OracleBackend(ground_truth={"u1": SMOKE_CANDIDATES[0]})
    log = smoke_session(Gateway(backend, GatewayConfig(), sleep=lambda s: None))
    text = serialize(log)
    parse(text)
    assert format_reward(text) == 1
    assert log.final_ranking[0] == SMOKE_CANDIDATES[0]
    assert any(call.name == "UserCF" for record in log.phases for call, _ in record.tool_events)


def test_criterion_9_live_backend_smoke():
    with criterion(9, "live-backend smoke"):
        endpoint = os.environ.get(SMOKE_ENDPOINT_VAR, "")
        if not endpoint:
            pytest.skip(f"{SMOKE_ENDPOINT_VAR} not set; live smoke requires a chat endpoint")
        config = GatewayConfig(endpoint=endpoint, model=os.environ.get(SMOKE_MODEL_VAR, ""))
        gateway = Gateway(HttpBackend(config), config)

        log = smoke_session(gateway)
        text = serialize(log)
        parse(text)
        assert format_reward(text) == 1
