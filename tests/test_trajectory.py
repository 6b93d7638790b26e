"""Trajectory codec: serialization, strict parsing, and the outcome filter."""

from __future__ import annotations

import random

import pytest

from recteacher import prompts
from recteacher.errors import InsufficientInput, TagError
from recteacher.gateway import Gateway, GatewayConfig
from recteacher.oracle import OracleBackend
from recteacher.rewards import composite_reward
from recteacher.tags import ToolCall
from recteacher.teacher import (Phase, PhaseRecord, SessionLog, TeacherConfig, TeacherContext, ToolRunner,
                                run_teacher)
from recteacher.trajectory import (
    export_sft,
    outcome_filter,
    parse,
    serialize,
    top1_hit,
)
from recteacher.util import read_jsonl
from recteacher.verbalize import Evidence, EvidenceCache

from randlog import expected_sections, mutate, random_log

GOLDEN_LOG = SessionLog(
    candidates=("c1", "c2", "c3"),
    phases=(
        PhaseRecord(phase=Phase.PLAN, thinking="Pick two lenses.",
                    payload='["User_Profile_Summary", "Recent_Interest_Analysis"]'),
        PhaseRecord(phase=Phase.USER_PROFILE,
                    thinking="Check the neighborhood.",
                    tool_events=((ToolCall("UserCF", "u1"), "likes space opera"),),
                    payload='["steady reader"]'),
        PhaseRecord(phase=Phase.RECENT, thinking="",
                    payload='["recent drift toward essays"]'),
        PhaseRecord(phase=Phase.REFLECTION, thinking="Both hold up.",
                    payload='{"correct": "yes"}'),
        PhaseRecord(phase=Phase.RECOMMEND, thinking="Order by fit."),
    ),
    final_ranking=("c2", "c3", "c1"),
)

GOLDEN_TEXT = (
    "<plan>\n"
    "Pick two lenses.\n"
    '<JSON>["User_Profile_Summary", "Recent_Interest_Analysis"]</JSON>\n'
    "</plan>\n"
    "<user_profile>\n"
    "Check the neighborhood.\n"
    '<tool_call>{"arguments": {"user_id": "u1"}, "name": "UserCF"}</tool_call>\n'
    '<tool_response>{"result": "likes space opera"}</tool_response>\n'
    '<JSON>["steady reader"]</JSON>\n'
    "</user_profile>\n"
    "<recent_analysis>\n"
    '<JSON>["recent drift toward essays"]</JSON>\n'
    "</recent_analysis>\n"
    "<reflection>\n"
    "Both hold up.\n"
    '<JSON>{"correct": "yes"}</JSON>\n'
    "</reflection>\n"
    "<recommend>\n"
    "Order by fit.\n"
    "1. c2\n"
    "2. c3\n"
    "3. c1\n"
    "</recommend>"
)


def test_serialize_golden_text():
    assert serialize(GOLDEN_LOG) == GOLDEN_TEXT


def test_parse_golden_round_trip():
    parsed = parse(GOLDEN_TEXT)
    assert [s.tag for s in parsed.sections] == [
        "plan", "user_profile", "recent_analysis", "reflection", "recommend",
    ]
    assert parsed.ranking == ("c2", "c3", "c1")
    profile = parsed.sections[1]
    assert profile.thinking == "Check the neighborhood."
    assert profile.tool_events == ((ToolCall("UserCF", "u1"), "likes space opera"),)
    assert profile.payload == '["steady reader"]'
    assert parsed.sections[2].thinking == ""
    assert parsed.sections[4].thinking == "Order by fit."


def test_correction_serializes_under_subtask_tag():
    log = SessionLog(
        candidates=("a", "b"),
        phases=(
            PhaseRecord(phase=Phase.PLAN, payload='["Interest_Divergence_Reasoning"]'),
            PhaseRecord(phase=Phase.DIVERGENCE, payload='["too wide"]'),
            PhaseRecord(phase=Phase.REFLECTION, payload='{"correct": "no"}'),
            PhaseRecord(phase=Phase.DIVERGENCE, thinking="Reworked per suggestion.",
                        payload='["narrower"]', turn=1),
            PhaseRecord(phase=Phase.RECOMMEND),
        ),
        final_ranking=("b", "a"),
    )
    text = serialize(log)
    assert text.count("<interest_divergence>") == 2
    assert "<correction>" not in text
    parsed = parse(text)
    assert [s.tag for s in parsed.sections] == [
        "plan", "interest_divergence", "reflection", "interest_divergence", "recommend",
    ]
    assert parsed.sections[3].payload == '["narrower"]'


def test_round_trip_random_logs():
    rng = random.Random(404)
    for _ in range(200):
        log = random_log(rng)
        parsed = parse(serialize(log))
        assert parsed.ranking == log.final_ranking
        got = [(s.tag, s.thinking, s.payload, s.tool_events) for s in parsed.sections]
        assert got == expected_sections(log)


@pytest.mark.parametrize("text,kind", [
    ("<plan>x", "unclosed"),
    ("<plan>\n<JSON>[1]</JSON>\n</plan>", "missing_recommend"),
    ("", "missing_recommend"),
    ("<recommend>\n1. a\n</recommend>\n<recommend>\n1. a\n</recommend>", "duplicate_recommend"),
    ("<recommend>\n1. a\n</recommend>\n<plan></plan>", "misnested"),
    ("loose text\n<recommend>\n1. a\n</recommend>", "unknown"),
    ("<recommend>\n1. a\n</recommend>\ntrailing junk", "unknown"),
    ("<mystery>\n</mystery>\n<recommend>\n1. a\n</recommend>", "unknown"),
    ("</plan>\n<recommend>\n1. a\n</recommend>", "misnested"),
    ("<plan>\n<user_profile>\n</user_profile>\n</plan>\n<recommend>\n1. a\n</recommend>", "misnested"),
    ("<plan>\n<tool_call>{}</tool_call>\n</plan>\n<recommend>\n1. a\n</recommend>", "misnested"),
    ("<reflection>\n<tool_response>{}</tool_response>\n</reflection>\n<recommend>\n1. a\n</recommend>", "misnested"),
    ("<plan>\n<JSON>[1]\n</plan>\n<recommend>\n1. a\n</recommend>", "unclosed"),
    ("<recommend>\nno list here\n</recommend>", "missing_recommend"),
])
def test_parse_rejections(text, kind):
    with pytest.raises(TagError) as excinfo:
        parse(text)
    assert excinfo.value.kind == kind


def test_parse_tolerates_stray_closer_text_inside_blocks():
    # block bodies are raw: a section-tag string inside a JSON payload is data
    text = ('<recommend>\n<JSON>["</plan>", "a"]</JSON>\n</recommend>')
    parsed = parse(text)
    assert parsed.ranking == ("</plan>", "a")


def test_evidence_holding_a_closing_tag_keeps_the_session_parsable():
    # the teacher's own session: its cached UserCF evidence quotes the block's closing tag
    candidates = tuple(f"c{i:02d}" for i in range(20))
    prompt = prompts.render_instance_prompt(
        "u1", {"age": "34"}, "a steady run of character-driven novels",
        [f"item_id: h{i} | title: History {i}" for i in range(3)],
        [f"item_id: {c} | title: Candidate {c}" for c in candidates],
    )
    evidence = "similar readers quote </tool_response> and </user_profile> in reviews"
    cache = EvidenceCache()
    cache.put(Evidence(ToolCall("UserCF", "u1"), evidence, (), 0))
    gateway = Gateway(OracleBackend(ground_truth={"u1": candidates[0]}), GatewayConfig(), sleep=lambda s: None)
    log = run_teacher(TeacherContext(user="u1", candidates=candidates, prompt=prompt), TeacherConfig(),
                      gateway, ToolRunner(cache))
    events = [event for record in log.phases for event in record.tool_events]
    assert (ToolCall("UserCF", "u1"), evidence) in events

    text = serialize(log)
    parsed = parse(text)
    assert [event for section in parsed.sections for event in section.tool_events] == events
    assert parsed.ranking == log.final_ranking
    assert composite_reward(text, candidates[0]).format_score == 1


def test_ranking_from_json_payload_wins():
    text = ("<recommend>\n"
            "1. decoy\n"
            '<JSON>["x", "y"]</JSON>\n'
            "</recommend>")
    assert parse(text).ranking == ("x", "y")


def test_ranking_from_comma_run():
    text = "<recommend>\nafter thought\n1. a, 2. b, 3. c\n</recommend>"
    assert parse(text).ranking == ("a", "b", "c")


def test_ranking_ignores_numbered_prose_above_the_list():
    text = ("<recommend>\n"
            "two reasons: 1. variety and 2. recency matter\n"
            "\n"
            "1. a\n"
            "2. b\n"
            "</recommend>")
    parsed = parse(text)
    assert parsed.ranking == ("a", "b")
    assert parsed.sections[-1].thinking == "two reasons: 1. variety and 2. recency matter"


@pytest.mark.parametrize("thinking", [
    "Top picks so far:\n1. i03\n2. i04",
    "Scores agree:\n4.5 on average.",
])
def test_numbered_tail_of_ranker_thinking_stays_thinking(thinking):
    candidates = tuple(f"i{n:02d}" for n in range(5))
    log = SessionLog(candidates=candidates,
                     phases=(PhaseRecord(phase=Phase.RECOMMEND, thinking=thinking),),
                     final_ranking=candidates)
    parsed = parse(serialize(log))
    assert parsed.ranking == candidates
    assert parsed.sections[-1].thinking == thinking


def test_ranking_skips_ids_inside_tool_blocks():
    text = ("<recommend>\n"
            '<tool_call>{"arguments": {"user_id": "u"}, "name": "UserCF"}</tool_call>\n'
            '<tool_response>{"result": "1. fake\\n2. fake"}</tool_response>\n'
            "1. real\n"
            "</recommend>")
    assert parse(text).ranking == ("real",)
    # a tag inside a raw block body opens no block of its own
    text = ("<recommend>\n"
            '<tool_response>{"result": "see <tool_call>"}</tool_response>\n'
            "1. real\n"
            '<tool_call>{"arguments": {"user_id": "u"}, "name": "UserCF"}</tool_call>\n'
            "</recommend>")
    assert parse(text).ranking == ("real",)


def test_non_list_json_payload_falls_back_to_numbered_lines():
    text = '<recommend>\n<JSON>{"note": "x"}</JSON>\n1. a\n2. b\n</recommend>'
    assert parse(text).ranking == ("a", "b")


def test_top1_hit_verdicts():
    text = "<recommend>\n1. a\n2. b\n</recommend>"
    assert top1_hit(text, "a") is True
    assert top1_hit(text, "b") is False
    assert top1_hit("<plan></plan>", "a") is None


def test_outcome_filter_keeps_hits_only():
    hit = "<recommend>\n1. a\n2. b\n</recommend>"
    miss = "<recommend>\n1. b\n2. a\n</recommend>"
    broken = "<plan>"
    kept = outcome_filter([(hit, "a"), (miss, "a"), (broken, "a"), (hit, "b")])
    assert kept == [hit]


def test_outcome_filter_empty():
    assert outcome_filter([]) == []


def test_export_sft(tmp_path):
    out = tmp_path / "sft.jsonl"
    count = export_sft(
        {"s2": ("prompt two", "<recommend>\n1. a\n</recommend>"),
         "s1": ("prompt one", "<recommend>\n1. b\n</recommend>")},
        out,
    )
    assert count == 2
    records = [record for _, record in read_jsonl(out)]
    assert [r["user"] for r in records] == ["prompt one", "prompt two"]  # sorted by id
    assert all(r["system"] == prompts.student_system() for r in records)
    assert records[0]["assistant"] == "<recommend>\n1. b\n</recommend>"


def test_export_sft_default_system_text(tmp_path):
    out = tmp_path / "sft.jsonl"
    export_sft({"s1": ("p", "t")}, out)
    (_, record), = read_jsonl(out)
    assert record["system"].strip()


def test_export_sft_errors(tmp_path):
    with pytest.raises(InsufficientInput):
        export_sft({}, tmp_path / "x.jsonl")


def test_fuzzed_mutations_rejected():
    rng = random.Random(77)
    for _ in range(300):
        text = serialize(random_log(rng))
        broken = mutate(text, rng)
        with pytest.raises(TagError):
            parse(broken)
